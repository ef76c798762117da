"""CLI plumbing (fast subcommands only; campaigns run in the benches)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.netlist.simulator import DEFAULT_BACKEND


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for cmd in ("table2", "table3", "fig4", "fig5", "matrix", "sweep", "sca", "encrypt"):
            assert cmd in text

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_runs_flag_parsed(self):
        args = build_parser().parse_args(["fig4", "--runs", "123", "--seed", "9"])
        assert args.runs == 123 and args.seed == 9

    @pytest.mark.parametrize("cmd", ["fig4", "fig5", "matrix", "sweep"])
    @pytest.mark.parametrize("runs", ["0", "-5", "abc"])
    def test_runs_below_one_exits_2(self, cmd, runs, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--runs", runs])
        assert exc.value.code == 2
        assert "argument --runs" in capsys.readouterr().err

    def test_serve_and_submit_registered(self):
        text = build_parser().format_help()
        assert "serve" in text and "submit" in text
        args = build_parser().parse_args(
            ["serve", "--port", "9000", "--concurrency", "4"]
        )
        assert args.port == 9000 and args.concurrency == 4
        args = build_parser().parse_args(
            ["submit", "--scheme", "naive", "--deadline", "1.5"]
        )
        assert args.scheme == "naive" and args.deadline == 1.5


    @pytest.mark.parametrize("cmd", ["fig4", "fig5", "certify", "submit", "encrypt"])
    def test_no_backend_flag(self, cmd, capsys):
        # the kernel is chosen by REPRO_SIM_BACKEND, not per command
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([cmd, "--backend", "compiled"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err


class TestCipherArgument:
    """``--cipher`` resolves through the registry at argument-parse time:
    aliases normalise to canonical names, unknown ciphers exit 2 naming
    the argument and listing what IS registered."""

    @pytest.mark.parametrize("cmd", ["certify", "submit", "encrypt", "matrix"])
    def test_unknown_cipher_rejected_at_parse_time(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([cmd, "--cipher", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--cipher" in err and "unknown cipher 'bogus'" in err
        assert "present80" in err and "aes128" in err  # lists the registry

    @pytest.mark.parametrize(
        ("alias", "canonical"),
        [("aes", "aes128"), ("AES128", "aes128"), ("present", "present80"),
         ("gift", "gift64"), ("gift128", "gift128")],
    )
    def test_aliases_normalise_to_canonical_names(self, alias, canonical):
        args = build_parser().parse_args(["certify", "--cipher", alias])
        assert args.cipher == canonical

    def test_cipher_defaults_to_present80(self):
        for cmd in ("certify", "submit", "encrypt", "matrix"):
            assert build_parser().parse_args([cmd]).cipher == "present80"


class TestEagerEnvValidation:
    """Typos in REPRO_CHAOS / REPRO_SIM_BACKEND fail at argument-parse
    time with the variable named, for every subcommand (exit 2) — not
    hours into a campaign."""

    def test_bad_chaos_env_rejected_before_dispatch(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CHAOS", "worker:explode")
        assert main(["table2"]) == 2
        err = capsys.readouterr().err
        assert "invalid environment" in err and "REPRO_CHAOS" in err

    def test_bad_backend_env_rejected_before_dispatch(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "turbo")
        assert main(["table2"]) == 2
        err = capsys.readouterr().err
        assert "invalid environment" in err and "REPRO_SIM_BACKEND" in err


class TestJobsFlag:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fig4", "--runs", "1024"],
            ["certify", "--rounds", "2", "--budget", "64"],
            ["serve", "--port", "0"],
        ],
    )
    def test_jobs_zero_exits_2(self, argv, monkeypatch, capsys):
        # a 'serve' that got past the check must not bind a socket
        import repro.service

        class NoService:
            def __init__(self, config):
                pass

            def serve(self):
                return 0

        monkeypatch.setattr(repro.service, "CertificationService", NoService)
        assert main(argv + ["--jobs", "0"]) == 2
        assert "--jobs 0 is below 1" in capsys.readouterr().err


class TestRequestFlags:
    def test_certify_and_submit_default_to_the_request(self):
        from repro.service.protocol import CertifyRequest

        for cmd in ("certify", "submit"):
            args = build_parser().parse_args([cmd])
            for name in ("scheme", "cipher", "variant", "rounds", "budget",
                         "runs_per_location", "seed", "key"):
                assert getattr(args, name) == getattr(CertifyRequest, name), name
            assert args.models is None and args.cycles is None

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--cycles", "1,x"], "cycles must be comma-separated integers"),
            (["--key", "nope"], "key must be an integer literal"),
            (["--variant", "bogus"], "unknown variant 'bogus'"),
            (["--budget", "0"], "budget must be a positive"),
        ],
    )
    def test_bad_submit_exits_2_without_connecting(self, flags, message, monkeypatch, capsys):
        import repro.service.client

        class NoClient:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a refused request must not connect")

        monkeypatch.setattr(repro.service.client, "ServiceClient", NoClient)
        assert main(["submit"] + flags) == 2
        assert message in capsys.readouterr().err


class TestServeFlags:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--deadline", "-1"], "default_deadline_s must be None or a non-negative"),
            (["--concurrency", "0"], "concurrency must be a positive integer"),
            (["--max-queue", "0"], "max_queue must be a positive integer"),
            (["--drain-timeout", "-1"], "drain_timeout_s must be a non-negative"),
            (["--port", "65536"], "port must be at most 65535"),
        ],
    )
    def test_bad_serve_flag_exits_2_without_binding(self, flags, message, monkeypatch, capsys):
        import repro.service

        class NoService:
            def __init__(self, config):
                raise AssertionError("a refused config must not start the daemon")

        monkeypatch.setattr(repro.service, "CertificationService", NoService)
        assert main(["serve", "--port", "0"] + flags) == 2
        assert message in capsys.readouterr().err


class TestFastCommands:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out and "three_in_one" in out

    def test_table3_without_aes(self, capsys):
        assert main(["table3", "--no-aes"]) == 0
        out = capsys.readouterr().out
        assert "present" in out and "aes" not in out

    def test_encrypt_roundtrip(self, capsys):
        code = main(["encrypt", "--key", "0x1", "--pt", "0x2", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fault flag: 0" in out

    @pytest.mark.parametrize("flag", ["--key", "--pt"])
    def test_encrypt_bad_number_exits_2(self, flag, capsys):
        assert main(["encrypt", flag, "notanumber"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'notanumber'" in err

    def test_fig4_small(self, capsys):
        assert main(["fig4", "--runs", "600"]) == 0
        out = capsys.readouterr().out
        assert "(a) naive duplication" in out and "SEI" in out

    def test_fig5_small(self, capsys):
        assert main(["fig5", "--runs", "600"]) == 0
        out = capsys.readouterr().out
        assert "faulty released=0" in out

    def test_sweep_small(self, capsys):
        from repro.evaluation.matrix import run_round_sweep

        rows = run_round_sweep(400, rounds=(1, 31))
        assert len(rows) == 2
        for row in rows:
            assert row[2] == 0 and row[4] == 0  # no bypasses

    def test_sca_small(self, capsys):
        assert main(["sca", "--traces", "60"]) == 0
        out = capsys.readouterr().out
        assert "whole chip, HD: max|t| = 0.0" in out


class TestCertifyCommand:
    def test_parsing(self):
        args = build_parser().parse_args(
            ["certify", "--scheme", "naive", "--budget", "100",
             "--models", "identical_mask", "--rounds", "2", "--fail-fast"]
        )
        assert args.scheme == "naive" and args.budget == 100
        assert args.models == "identical_mask" and args.fail_fast

    def test_certify_registered_in_help(self):
        assert "certify" in build_parser().format_help()

    def test_small_pass_run_writes_certificate(self, capsys, tmp_path):
        out = tmp_path / "cert.json"
        code = main(
            ["certify", "--scheme", "three-in-one", "--rounds", "2",
             "--budget", "128", "--runs-per-location", "16",
             "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "verdict dfa_detection: pass" in stdout
        assert out.exists()

    def test_witness_run_exits_nonzero(self, capsys):
        code = main(
            ["certify", "--scheme", "naive", "--rounds", "2",
             "--budget", "64", "--runs-per-location", "16",
             "--models", "identical_mask", "--seed", "5"]
        )
        assert code == 1
        assert "witnesses:" in capsys.readouterr().out

    def test_checkpoint_mismatch_exits_3(self, capsys, tmp_path):
        ck = tmp_path / "ck"
        base = ["certify", "--scheme", "three-in-one", "--rounds", "2",
                "--runs-per-location", "16", "--models", "coupled",
                "--seed", "5", "--checkpoint-dir", str(ck)]
        assert main(base + ["--budget", "64"]) == 0
        capsys.readouterr()
        code = main(base + ["--budget", "128", "--resume"])
        assert code == 3
        err = capsys.readouterr().err
        assert "checkpoint mismatch" in err and "budget" in err

    @pytest.mark.parametrize("kernel", [None, "compiled"])
    def test_certificate_and_trace_name_the_kernel(
        self, kernel, monkeypatch, capsys, tmp_path
    ):
        if kernel is None:
            monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)
        else:
            monkeypatch.setenv("REPRO_SIM_BACKEND", kernel)
        expected = kernel or DEFAULT_BACKEND
        out, trace_file = tmp_path / "c.json", tmp_path / "t.jsonl"
        code = main(
            ["certify", "--scheme", "naive", "--rounds", "2", "--budget", "640",
             "--models", "layer_glitch", "--out", str(out),
             "--trace", str(trace_file)]
        )
        assert code in (0, 1)
        cert = json.loads(out.read_text())
        assert cert["timing"]["manifest"]["backend"] == expected
        capsys.readouterr()
        assert main(["stats", str(trace_file)]) == 0
        assert f"backend={expected}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--runs-per-location", "0"], "runs_per_location must be a positive"),
            (["--runs-per-location", "-3", "--budget", "640"],
             "runs_per_location must be a positive"),
            (["--budget", "0"], "budget must be a positive"),
        ],
    )
    def test_bad_sweep_size_exits_2(self, flags, message, capsys):
        code = main(["certify", "--scheme", "naive", "--rounds", "2"] + flags)
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--models", "bogus"], "models must be a non-empty tuple"),
            (["--cycles", "9"], "cycles out of range [0, 2): [9]"),
            (["--cycles", "-1"], "cycles must be None or a non-empty tuple"),
            (["--seed", "-1"], "seed must be a non-negative integer"),
            (["--cycles", "1,x"], "cycles must be comma-separated integers"),
            (["--key", "notanumber"], "key must be an integer literal"),
            (["--variant", "bogus"], "unknown variant 'bogus'"),
        ],
    )
    def test_bad_fault_selection_exits_2(self, flags, message, capsys):
        code = main(
            ["certify", "--scheme", "naive", "--rounds", "2", "--budget", "64"]
            + flags
        )
        assert code == 2
        assert message in capsys.readouterr().err
