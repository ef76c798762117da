"""Coverage certifier: space enumeration, sampling, certificates, replay.

Certify runs here use reduced-round PRESENT instances and small budgets —
the full-scale sweeps live in ``benchmarks/bench_certify_coverage.py``.
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.certify import (
    Certificate,
    CertifyConfig,
    certify_design,
    enumerate_fault_space,
    locations_for_budget,
    replay_witness,
)
from repro.ciphers.netlist_present import PresentSpec
from repro.countermeasures import build_naive_duplication, build_three_in_one
from repro.faults import CheckpointError
from repro.faults.classification import Outcome
from repro.netlist.gates import GateType
from repro.netlist.simulator import DEFAULT_BACKEND
from repro.service.protocol import build_design

KEY = 0x1A2B3C4D5E6F708192A3


@pytest.fixture(scope="module")
def spec2() -> PresentSpec:
    return PresentSpec(rounds=2)


@pytest.fixture(scope="module")
def ours2(spec2):
    return build_three_in_one(spec2)


@pytest.fixture(scope="module")
def naive2(spec2):
    return build_naive_duplication(spec2)


class TestSpace:
    def test_per_model_counts(self, naive2):
        space = enumerate_fault_space(naive2)
        per = space.per_model()
        # identical_mask: (64 sbox-in + 64 sbox-out + 64 state + 64 raw)
        # per core, zipped across 2 cores -> 256 locations x 2 types x 2 rounds
        assert per["identical_mask"] == 256 * 2 * 2
        # layer_glitch: 2 layers x 2 cores x 2 types x 2 rounds
        assert per["layer_glitch"] == 4 * 2 * 2
        # coupled: 3 adjacent pairs per 4-bit word x 16 words x 2 cores
        assert per["coupled"] == 96 * 3 * 2
        assert space.total == sum(per.values())

    def test_index_scenario_roundtrip(self, naive2):
        space = enumerate_fault_space(naive2)
        for index in (0, space.total // 2, space.total - 1):
            scenario = space.scenario(index)
            model, ftype, cycle = space.stratum(index)
            assert scenario.model == model
            assert all(s.fault_type.value == ftype for s in scenario.specs)
            assert all(s.cycles == frozenset({cycle}) for s in scenario.specs)
        with pytest.raises(IndexError):
            space.scenario(space.total)

    def test_digest_pins_the_enumeration(self, naive2):
        full = enumerate_fault_space(naive2)
        assert full.digest() == enumerate_fault_space(naive2).digest()
        restricted = enumerate_fault_space(naive2, cycles=(1,))
        assert restricted.digest() != full.digest()

    def test_single_model_excludes_backend_and_inputs(self, naive2):
        space = enumerate_fault_space(naive2, models=("single",))
        nets = set(space.sections[0].locs)
        circuit = naive2.circuit
        for port in circuit.inputs.values():
            assert nets.isdisjoint(port)
        # The comparator OR-tree sits behind the redundancy boundary.
        fault_net = circuit.outputs["fault"][0]
        assert fault_net not in nets

    def test_unknown_model_and_bad_cycle_raise(self, naive2):
        with pytest.raises(ValueError, match="unknown fault models"):
            enumerate_fault_space(naive2, models=("single", "laser"))
        with pytest.raises(ValueError, match="cycles out of range"):
            enumerate_fault_space(naive2, cycles=(99,))
        with pytest.raises(ValueError, match=r"cycles must not repeat \[0\]"):
            enumerate_fault_space(naive2, cycles=(0, 0))

    def test_sample_is_deterministic_sorted_stratified(self, naive2):
        space = enumerate_fault_space(naive2)
        sample = space.sample(200, seed=9)
        assert len(sample) == 200
        assert len(np.unique(sample)) == 200
        assert (np.sort(sample) == sample).all()
        assert (space.sample(200, seed=9) == sample).all()
        assert not (space.sample(200, seed=10) == sample).all()
        # every model is represented (no corner silently skipped)
        models = {space.stratum(int(i))[0] for i in sample}
        assert models == set(space.per_model())

    def test_sample_at_or_above_total_is_exhaustive(self, naive2):
        space = enumerate_fault_space(naive2, models=("layer_glitch",))
        assert (
            space.sample(space.total, seed=1) == np.arange(space.total)
        ).all()

    def test_locations_for_budget(self):
        assert locations_for_budget(100, 64) == 2
        assert locations_for_budget(1, 64) == 1
        with pytest.raises(ValueError):
            locations_for_budget(0, 64)


class TestCertifyConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"runs_per_location": 0},
            {"runs_per_location": -3, "budget": 640},
            {"runs_per_location": 8.0},
            {"runs_per_location": True},
            {"budget": 0},
            {"budget": -640},
            {"budget": "abc"},
        ],
    )
    def test_rejects_a_bad_sweep_size_at_construction(self, kwargs):
        with pytest.raises(ValueError, match="must be a positive integer"):
            CertifyConfig(models=("layer_glitch",), **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"models": ()},
            {"models": ["single"]},
            {"models": "single"},
            {"models": ("bogus",)},
            {"cycles": ()},
            {"cycles": [0]},
            {"cycles": (-1,)},
            {"cycles": ("1",)},
            {"seed": "abc"},
            {"seed": -1},
            {"seed": 1.0},
            {"cycles": (1, 1)},
            {"models": ("layer_glitch", "single", "layer_glitch")},
        ],
    )
    def test_rejects_a_bad_fault_selection_or_seed(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            CertifyConfig(**kwargs)

    def test_an_empty_fault_space_cannot_pass(self, naive2):
        # naive duplication is broken; an empty sweep must not certify it
        for empty in ({"models": ()}, {"cycles": ()}):
            with pytest.raises(ValueError, match="non-empty"):
                certify_design(
                    naive2, key=KEY, config=CertifyConfig(budget=640, **empty)
                )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"jobs": -2},
            {"jobs": 0},
            {"jobs": 2.5},
            {"jobs": True},
            {"shard_locations": 0},
            {"shard_locations": -5},
            {"wall_budget": -1.0},
            {"wall_budget": "x"},
            {"wall_budget": True},
            {"wall_budget": float("nan")},
            {"fail_fast": "no"},
            {"resume": 1},
        ],
    )
    def test_rejects_bad_executor_knobs(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            CertifyConfig(**kwargs)

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--resume"],
            ["certify", "--jobs", "-3"],
            ["certify", "--wall-budget", "-1"],
            ["fig4", "--runs", "100", "--resume"],
            ["fig4", "--runs", "100", "--jobs", "-1"],
        ],
    )
    def test_cli_rejects_bad_executor_flags(self, argv, capsys):
        from repro.cli import main

        assert main(argv) == 2
        assert "invalid" in capsys.readouterr().err

    def test_zero_wall_budget_is_legal(self):
        assert CertifyConfig(wall_budget=0).wall_budget == 0

    def test_no_kernel_field(self):
        # the kernel is REPRO_SIM_BACKEND's; the certificate records it
        with pytest.raises(TypeError):
            CertifyConfig(backend="compiled")

    @pytest.mark.parametrize("kernel", [None, "compiled"])
    def test_manifest_names_the_kernel_that_ran(self, naive2, kernel, monkeypatch):
        if kernel is None:
            monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)
        else:
            monkeypatch.setenv("REPRO_SIM_BACKEND", kernel)
        cert = certify_design(
            naive2, key=KEY,
            config=CertifyConfig(budget=64, runs_per_location=16, models=("layer_glitch",)),
        )
        assert cert.timing["manifest"]["backend"] == (kernel or DEFAULT_BACKEND)


class TestCertify:
    def test_three_in_one_small_budget_passes(self, ours2):
        cert = certify_design(
            ours2,
            key=KEY,
            config=CertifyConfig(budget=512, runs_per_location=16, seed=3),
        )
        assert cert.passed
        assert not cert.witnesses
        cov = cert.coverage
        assert cov["runs_executed"] >= 512
        assert cov["sampled"] and 0 < cov["fraction"] < 1
        assert cov["locations_covered"] == cov["locations_planned"]
        # histograms account for every classified run
        total = sum(sum(h) for h in cert.histograms.values())
        assert total == cov["runs_executed"]
        assert len(cert.locations) == cov["locations_covered"]

    def test_exhaustive_sweep_when_no_budget(self, ours2):
        cert = certify_design(
            ours2,
            key=KEY,
            config=CertifyConfig(
                runs_per_location=8, models=("layer_glitch",), seed=3
            ),
        )
        assert not cert.coverage["sampled"]
        assert cert.coverage["fraction"] == 1.0
        assert cert.coverage["locations_covered"] == cert.space["total"]

    def test_naive_identical_mask_yields_replayable_witness(self, naive2):
        cert = certify_design(
            naive2,
            key=KEY,
            config=CertifyConfig(
                budget=512,
                runs_per_location=16,
                models=("identical_mask",),
                seed=3,
            ),
        )
        assert cert.verdicts["dfa_detection"]["status"] == "fail"
        assert not cert.passed
        assert cert.witnesses
        outcome, _ = replay_witness(naive2, cert.witnesses[0], key=KEY)
        assert outcome is Outcome.EFFECTIVE

    def test_certificate_roundtrips_through_json(self, ours2, tmp_path):
        cert = certify_design(
            ours2,
            key=KEY,
            config=CertifyConfig(
                budget=128, runs_per_location=16, models=("coupled",), seed=3
            ),
        )
        path = tmp_path / "cert.json"
        cert.save(path)
        loaded = Certificate.load(path)
        assert loaded.render() == cert.render()
        assert loaded.passed == cert.passed

    def test_interrupted_resume_is_byte_identical(self, naive2, tmp_path):
        kwargs = dict(
            budget=384,
            runs_per_location=16,
            models=("identical_mask",),
            seed=5,
            shard_locations=4,
        )
        direct = certify_design(
            naive2, key=KEY, config=CertifyConfig(**kwargs)
        )
        ck = tmp_path / "ck"
        certify_design(
            naive2, key=KEY, config=CertifyConfig(**kwargs, checkpoint_dir=ck)
        )
        # Simulate a crash that lost some shards mid-run.
        shards = sorted(ck.glob("shard_*.npz"))
        assert len(shards) > 2
        shards[0].unlink()
        shards[-1].unlink()
        resumed = certify_design(
            naive2,
            key=KEY,
            config=CertifyConfig(**kwargs, checkpoint_dir=ck, resume=True),
        )
        assert resumed.render(include_timing=False) == direct.render(
            include_timing=False
        )

    def test_resume_under_another_netlist_is_refused(self, tmp_path):
        """Retyping one encoder gate keeps every net id, so the fault space
        and its digest stay the same; the checkpoint must still refuse it."""
        design = build_design("three-in-one", rounds=2)
        broken = copy.deepcopy(design)
        circuit = broken.circuit
        index = next(
            i for i, g in enumerate(circuit.gates)
            if g.gtype is GateType.XOR and g.tag.startswith("a/encode")
        )
        gate = dataclasses.replace(circuit.gates[index], gtype=GateType.XNOR)
        circuit.gates[index] = gate
        circuit._driver[gate.out] = gate
        circuit._topo_cache = circuit._levels_cache = None

        config = CertifyConfig(budget=128 * 64, seed=5)
        assert not certify_design(broken, key=9, config=config).passed
        ck = dataclasses.replace(config, checkpoint_dir=tmp_path / "ck")
        assert certify_design(design, key=9, config=ck).passed
        with pytest.raises(CheckpointError, match="netlist"):
            certify_design(
                broken, key=9, config=dataclasses.replace(ck, resume=True)
            )

    def test_fail_fast_stops_scheduling(self, naive2):
        cert = certify_design(
            naive2,
            key=KEY,
            config=CertifyConfig(
                budget=1024,
                runs_per_location=16,
                models=("identical_mask",),
                seed=5,
                shard_locations=2,
                fail_fast=True,
            ),
        )
        assert cert.witnesses
        assert cert.coverage["stopped_early"]
        assert (
            cert.coverage["locations_covered"]
            < cert.coverage["locations_planned"]
        )

    def test_miswired_design_fails_lint_and_skips_sweep(self, spec2):
        design = build_naive_duplication(spec2)
        # Sabotage after construction (the builder's own strict lint has
        # already passed): a driven net that nothing reads or exposes.
        circuit = design.circuit
        a, b = circuit.inputs["plaintext"][:2]
        circuit.add_gate(GateType.AND, (a, b), tag="sabotage")
        cert = certify_design(
            design, key=KEY, config=CertifyConfig(budget=64)
        )
        assert not cert.passed
        assert cert.verdicts["structural_lint"]["status"] == "fail"
        assert cert.verdicts["dfa_detection"]["status"] == "skipped"
        assert cert.coverage["runs_executed"] == 0
        assert cert.lint["dangling_nets"]

    def test_sifa_verdict_not_applicable_without_lambda(self, naive2):
        cert = certify_design(
            naive2,
            key=KEY,
            config=CertifyConfig(
                budget=64, runs_per_location=16, models=("coupled",), seed=3
            ),
        )
        assert cert.verdicts["sifa_uniformity"]["status"] == "not_applicable"

    def test_wall_budget_emits_valid_degraded_certificate(self, ours2, tmp_path):
        """An exhausted wall budget degrades gracefully: the certificate is
        still valid (and loadable), but says exactly what it did not cover."""
        cert = certify_design(
            ours2,
            key=KEY,
            config=CertifyConfig(
                budget=512, runs_per_location=16, seed=3, wall_budget=0.0
            ),
        )
        assert cert.degraded
        cov = cert.coverage
        assert cov["degraded"] and cov["budget_exhausted"]
        assert cov["locations_covered"] == 0
        assert cov["locations_uncovered"] == cov["locations_planned"] > 0
        assert sum(cov["uncovered_per_stratum"].values()) == (
            cov["locations_uncovered"]
        )
        for claim in ("dfa_detection", "sifa_uniformity"):
            assert cert.verdicts[claim].get("degraded") is True
            assert "uncovered_per_stratum" in cert.verdicts[claim]["note"]
            # nothing was swept, so the sweep claims are skipped, not passed
            assert cert.verdicts[claim]["status"] == "skipped"
        assert not cert.passed
        assert "DEGRADED" in cert.summary()
        # degraded certificates still save/load with a passing checksum
        path = tmp_path / "degraded.json"
        cert.save(path)
        assert Certificate.load(path).degraded

    def test_all_shards_quarantined_cannot_pass(self, ours2):
        from repro.resilience import ChaosFault, ChaosSpec, chaos

        chaos.configure(
            ChaosSpec(seed=1, faults=(ChaosFault("worker", "raise", 1.0, 0),))
        )
        try:
            cert = certify_design(
                ours2,
                key=KEY,
                config=CertifyConfig(budget=64, runs_per_location=16, seed=3),
            )
        finally:
            chaos.disable()
        assert cert.coverage["locations_covered"] == 0
        assert cert.coverage["failed_shards"]
        assert cert.verdicts["dfa_detection"]["status"] == "skipped"
        assert cert.verdicts["sifa_uniformity"]["status"] == "skipped"
        assert not cert.passed

    def test_cli_exits_1_on_a_certificate_that_covered_nothing(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        path = tmp_path / "empty.json"
        argv = [
            "certify", "--scheme", "three-in-one", "--rounds", "2",
            "--budget", "256", "--runs-per-location", "16",
            "--wall-budget", "0", "--out", str(path),
        ]
        assert main(argv) == 1
        assert main(["verify", str(path)]) == 1
        assert "skipped" in capsys.readouterr().out


@pytest.fixture(scope="module")
def saved_cert(ours2, tmp_path_factory):
    cert = certify_design(
        ours2,
        key=KEY,
        config=CertifyConfig(
            budget=128, runs_per_location=16, models=("coupled",), seed=3
        ),
    )
    path = tmp_path_factory.mktemp("cert") / "cert.json"
    cert.save(path)
    return cert, path


class TestCertificateIntegrity:
    """Certificate.load validates schema version + checksum (exit code 3)."""

    def test_save_embeds_integrity_block(self, saved_cert):
        import json

        _, path = saved_cert
        doc = json.loads(path.read_text())
        assert doc["integrity"]["algorithm"] == "sha256"
        assert len(doc["integrity"]["digest"]) == 64
        Certificate.load(path)  # verifies the digest

    def test_tampered_certificate_rejected(self, saved_cert, tmp_path):
        from repro.certify import CertificateError

        cert, path = saved_cert
        # flip the overall verdict — exactly the edit integrity must catch
        text = path.read_text()
        tampered = tmp_path / "tampered.json"
        assert '"status": "pass"' in text
        tampered.write_text(
            text.replace('"status": "pass"', '"status": "fail"', 1)
        )
        with pytest.raises(CertificateError, match="integrity checksum"):
            Certificate.load(tampered)

    def test_unsupported_version_rejected(self, saved_cert, tmp_path):
        import json

        from repro.certify import CertificateError

        cert, path = saved_cert
        doc = json.loads(path.read_text())
        doc.pop("integrity")
        doc["version"] = 99
        bumped = tmp_path / "v99.json"
        bumped.write_text(json.dumps(doc))
        with pytest.raises(CertificateError, match="version"):
            Certificate.load(bumped)

    def test_certificate_without_integrity_refused(
        self, saved_cert, tmp_path, capsys
    ):
        import json

        from repro.certify import CertificateError
        from repro.cli import EXIT_CHECKPOINT_MISMATCH, main

        cert, path = saved_cert
        doc = json.loads(path.read_text())
        doc.pop("integrity")
        stripped = tmp_path / "stripped.json"
        stripped.write_text(json.dumps(doc))
        with pytest.raises(CertificateError, match="no integrity block"):
            Certificate.load(stripped)
        # with the block gone nothing else can notice an edited verdict
        doc["verdicts"]["dfa_detection"]["status"] = "TAMPERED"
        stripped.write_text(json.dumps(doc))
        assert main(["verify", str(stripped)]) == EXIT_CHECKPOINT_MISMATCH
        assert "no integrity block" in capsys.readouterr().err

    def test_unreadable_documents_rejected(self, tmp_path):
        from repro.certify import CertificateError

        torn = tmp_path / "torn.json"
        torn.write_text('{"version": 1, "sch')  # torn mid-write
        with pytest.raises(CertificateError, match="unreadable"):
            Certificate.load(torn)
        with pytest.raises(CertificateError, match="unreadable"):
            Certificate.load(tmp_path / "missing.json")
        not_obj = tmp_path / "list.json"
        not_obj.write_text("[1, 2]")
        with pytest.raises(CertificateError, match="not a JSON object"):
            Certificate.load(not_obj)
        hollow = tmp_path / "hollow.json"
        hollow.write_text('{"version": 1}')
        with pytest.raises(CertificateError, match="malformed"):
            Certificate.load(hollow)

    def test_cli_verify_maps_integrity_failure_to_exit_3(
        self, saved_cert, tmp_path, capsys
    ):
        from repro.cli import EXIT_CHECKPOINT_MISMATCH, main

        cert, path = saved_cert
        assert main(["verify", str(path)]) == (0 if cert.passed else 1)
        out = capsys.readouterr().out
        assert "certificate:" in out

        tampered = tmp_path / "tampered.json"
        tampered.write_text(path.read_text().replace('"rounds": 2', '"rounds": 3'))
        assert main(["verify", str(tampered)]) == EXIT_CHECKPOINT_MISMATCH
        assert "certificate invalid" in capsys.readouterr().err


@pytest.fixture(scope="module")
def degraded_cert(ours2, tmp_path_factory):
    """A wall-budget-truncated certificate, saved to disk (the same code
    path the service takes for a per-request deadline)."""
    cert = certify_design(
        ours2,
        key=KEY,
        config=CertifyConfig(
            budget=512, runs_per_location=16, seed=3, wall_budget=0.0
        ),
    )
    assert cert.degraded
    path = tmp_path_factory.mktemp("degraded") / "degraded.json"
    cert.save(path)
    return cert, path


class TestDegradedVerify:
    """`repro verify` on *degraded* certificates (ISSUE 8 satellite): the
    integrity block still validates, the DEGRADED state is surfaced, and
    the uncovered-location accounting survives the disk round-trip."""

    def test_cli_verify_accepts_degraded_and_flags_it(
        self, degraded_cert, capsys
    ):
        from repro.cli import main

        cert, path = degraded_cert
        assert main(["verify", str(path)]) == (0 if cert.passed else 1)
        captured = capsys.readouterr()
        assert "DEGRADED" in captured.out  # the summary says so...
        assert "DEGRADED" in captured.err  # ...and verify warns explicitly
        assert "uncovered_per_stratum" in captured.err

    def test_uncovered_accounting_roundtrips(self, degraded_cert):
        cert, path = degraded_cert
        reloaded = Certificate.load(path)
        assert reloaded.degraded
        assert reloaded.coverage == cert.coverage
        cov = reloaded.coverage
        assert cov["locations_uncovered"] == cov["locations_planned"] > 0
        assert sum(cov["uncovered_per_stratum"].values()) == (
            cov["locations_uncovered"]
        )
        # the dict round-trip (what the service ships over HTTP) too
        wired = Certificate.from_dict(cert.to_dict())
        assert wired.degraded and wired.coverage == cert.coverage

    def test_degraded_accounting_is_integrity_protected(
        self, degraded_cert, tmp_path, capsys
    ):
        """Quietly shrinking `locations_uncovered` — claiming more coverage
        than was simulated — must trip the checksum, exit 3."""
        from repro.cli import EXIT_CHECKPOINT_MISMATCH, main

        cert, path = degraded_cert
        text = path.read_text()
        needle = f'"locations_uncovered": {cert.coverage["locations_uncovered"]}'
        assert needle in text
        forged = tmp_path / "forged.json"
        forged.write_text(text.replace(needle, '"locations_uncovered": 0', 1))
        assert main(["verify", str(forged)]) == EXIT_CHECKPOINT_MISMATCH
        assert "certificate invalid" in capsys.readouterr().err
