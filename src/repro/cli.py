"""Command-line interface: regenerate any paper artefact with one command.

Usage (after ``pip install -e .``)::

    python -m repro table2
    python -m repro table3
    python -m repro fig4  --runs 80000 --jobs 4 --checkpoint-dir ckpt/fig4
    python -m repro fig5  --runs 80000
    python -m repro matrix --runs 16000 --resume --checkpoint-dir ckpt/matrix
    python -m repro sweep  --runs 10000
    python -m repro certify --scheme three-in-one --budget 50000 --out cert.json
    python -m repro serve  --store /var/tmp/repro-store --port 8642
    python -m repro submit --url http://127.0.0.1:8642 --budget 50000
    python -m repro sca    --traces 500
    python -m repro encrypt --key 0x0123456789abcdef0123 --pt 0xcafebabe
    REPRO_SIM_BACKEND=reference python -m repro fig4 --runs 4000   # per-gate oracle kernel
    REPRO_SIM_BACKEND=compiled python -m repro fig4 --runs 80000   # AOT-codegen kernel

Each subcommand prints the same artefact the corresponding benchmark
produces; the CLI exists so a reader can poke at the reproduction without
learning the library API first.
"""

from __future__ import annotations

import argparse
import logging
import sys

__all__ = ["main"]


def _cmd_table2(args) -> int:
    from repro.evaluation import render_table, table2

    rows = table2()
    print(render_table(
        ["design", "comb GE", "non-comb GE", "total GE", "ratio", "paper GE", "paper ratio"],
        [[r.design, r.combinational, r.non_combinational, r.total,
          f"{r.ratio:.2f}x", r.paper_total, f"{r.paper_ratio:.2f}x"] for r in rows],
        title="Table II: PRESENT-80 encryption area",
    ))
    return 0


def _cmd_table3(args) -> int:
    from repro.evaluation import render_table, table3

    rows = table3(include_aes=not args.no_aes)
    print(render_table(
        ["countermeasure", "cipher", "total GE", "ratio", "paper GE", "paper ratio"],
        [[r.countermeasure, r.cipher, r.total, f"{r.ratio:.2f}x",
          r.paper_total, f"{r.paper_ratio:.2f}x"] for r in rows],
        title="Table III: one duplicated S-box layer",
    ))
    return 0


def _add_executor_args(parser: argparse.ArgumentParser) -> None:
    """``--jobs``/``--checkpoint-dir``/``--resume``: the shard executor's flags."""
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (default: 1, in-process)",
    )
    parser.add_argument(
        "--checkpoint-dir", default=None,
        help="checkpoint shards here so the run can be resumed",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="reuse completed shards from --checkpoint-dir",
    )


def _executor_config(args):
    """The campaign executor config the executor flags ask for.

    None — an in-process campaign — unless they ask for more than one
    worker or a checkpoint (a resume needs one).
    """
    if args.jobs == 1 and not args.checkpoint_dir:
        return None
    from repro.faults.executor import ExecutorConfig

    return ExecutorConfig(
        jobs=args.jobs,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
    )


def _cmd_fig4(args) -> int:
    from repro.evaluation import figure4, render_histogram

    fig = figure4(
        n_runs=args.runs,
        seed=args.seed,
        executor=_executor_config(args),
    )
    print(f"Fig. 4 — stuck-at-0 at S-box {fig.target_sbox} bit {fig.target_bit}, "
          f"last round, {args.runs} runs")
    print(render_histogram(
        fig.naive.distribution,
        title=f"(a) naive duplication   SEI={fig.naive.sei:.4f}  {fig.naive.counts}"))
    print(render_histogram(
        fig.ours.distribution,
        title=f"(b) our countermeasure  SEI={fig.ours.sei:.5f}  {fig.ours.counts}"))
    return 0


def _cmd_fig5(args) -> int:
    from repro.evaluation import figure5, render_histogram

    fig = figure5(
        n_runs=args.runs,
        seed=args.seed,
        executor=_executor_config(args),
    )
    print(f"Fig. 5 — identical stuck-at-0 at S-box {fig.target_sbox} bit "
          f"{fig.target_bit} in both computations, {args.runs} runs")
    for series, label in ((fig.naive, "(a) naive duplication"), (fig.ours, "(b) our countermeasure")):
        print(render_histogram(
            series.distribution,
            title=f"{label}: faulty released={series.faulty_released}  {series.counts}"))
    return 0


def _cmd_matrix(args) -> int:
    from repro.evaluation import render_table
    from repro.evaluation.matrix import run_attack_matrix

    matrix = run_attack_matrix(
        args.runs,
        cipher=args.cipher,
        executor=_executor_config(args),
    )
    rows = [
        [label,
         "BROKEN" if cells["dfa_identical"].success else "protected",
         "BROKEN" if cells["sifa"].success else "protected",
         "n/a" if cells["fta"] is None
         else "BROKEN" if cells["fta"].success else "protected"]
        for label, cells in matrix.items()
    ]
    print(render_table(
        ["scheme", "identical-fault DFA", "SIFA", "FTA"], rows,
        title=f"Attack x scheme matrix, {args.cipher} "
        f"({args.runs} runs per campaign)",
    ))
    return 0


def _cmd_sweep(args) -> int:
    from repro.evaluation import render_table
    from repro.evaluation.matrix import run_round_sweep

    rows = run_round_sweep(args.runs)
    print(render_table(
        ["round", "naive ineff rate", "naive bypass", "ours ineff rate", "ours bypass"],
        rows, title=f"Round sweep ({args.runs} runs per point)",
    ))
    return 0


def _cmd_sca(args) -> int:
    from repro.ciphers.netlist_present import PresentSpec
    from repro.countermeasures import build_three_in_one
    from repro.rng import make_rng, random_ints
    from repro.sca import LeakageModel, max_abs_t, power_trace
    from repro.netlist.gates import GateType

    design = build_three_in_one(PresentSpec())
    key = 0x13579BDF02468ACE1122
    n = args.traces
    fixed = [0x0123456789ABCDEF] * n
    rng = make_rng(2)

    a = power_trace(design, fixed, key, rng=1)
    b = power_trace(design, random_ints(rng, n, 64), key, rng=2)
    print(f"fixed-vs-random plaintext, HD model: max|t| = {max_abs_t(a, b):.1f} "
          "(sanity: unmasked datapath leaks data)")

    core_a = [g.out for g in design.circuit.gates
              if g.gtype is GateType.DFF and g.tag.startswith("a/state")]
    for model, nets, label in (
        (LeakageModel.HAMMING_DISTANCE, None, "whole chip, HD"),
        (LeakageModel.HAMMING_WEIGHT, None, "whole chip, HW"),
        (LeakageModel.HAMMING_DISTANCE, core_a, "core-a probe, HD (cycles>=1)"),
        (LeakageModel.HAMMING_WEIGHT, core_a, "core-a probe, HW"),
    ):
        l0 = power_trace(design, fixed, key, model=model, lambda_pin=0, rng=3, nets=nets)
        l1 = power_trace(design, fixed, key, model=model, lambda_pin=1, rng=4, nets=nets)
        if "cycles>=1" in label:
            l0, l1 = l0[:, 1:], l1[:, 1:]
        print(f"λ=0 vs λ=1, {label}: max|t| = {max_abs_t(l0, l1):.1f}")
    return 0


def _certify_request(args, deadline_s: float | None = None):
    """The :class:`~repro.service.protocol.CertifyRequest` the request flags
    ask for; a bad flag raises :class:`ValueError` or :class:`TypeError`."""
    from repro.service.protocol import CertifyRequest

    fields = CertifyRequest.__dataclass_fields__
    doc = {name: value for name, value in vars(args).items() if name in fields}
    doc["models"] = tuple(args.models.split(",")) if args.models else None
    try:
        doc["cycles"] = tuple(map(int, args.cycles.split(","))) if args.cycles else None
    except ValueError:
        raise ValueError(
            f"cycles must be comma-separated integers, got {args.cycles!r}"
        ) from None
    return CertifyRequest(**doc, deadline_s=deadline_s)


def _cmd_certify(args) -> int:
    from repro.certify import certify_design

    try:
        request = _certify_request(args)
        config = request.config(
            jobs=args.jobs, checkpoint_dir=args.checkpoint_dir, resume=args.resume,
            wall_budget=args.wall_budget, fail_fast=args.fail_fast,
        )
        design = request.design()
    except (ValueError, TypeError) as exc:
        print(f"invalid certify options: {exc}", file=sys.stderr)
        return 2
    certificate = certify_design(design, key=int(request.key, 0), config=config)
    print(certificate.summary())
    if args.out:
        certificate.save(args.out)
        print(f"certificate written to {args.out}")
    return 0 if certificate.passed else 1


def _cmd_verify(args) -> int:
    """Load a certificate with full validation and report its verdicts.

    Exit status: 0 = verdicts pass, 1 = a verdict failed, 3 = the document
    itself is untrustworthy (schema/version/integrity mismatch — raised as
    :class:`~repro.certify.certificate.CertificateError` and mapped by
    :func:`main`).
    """
    from repro.certify import Certificate

    certificate = Certificate.load(args.certificate)
    print(certificate.summary())
    if certificate.degraded:
        print(
            "note: certificate is DEGRADED (partial coverage); "
            "see coverage.uncovered_per_stratum",
            file=sys.stderr,
        )
    return 0 if certificate.passed else 1


def _cmd_serve(args) -> int:
    """Run the always-on certification daemon (see repro.service.daemon)."""
    from repro.service import CertificationService, ServiceConfig

    try:
        config = ServiceConfig(
            store_dir=args.store, host=args.host, port=args.port,
            concurrency=args.concurrency, max_queue=args.max_queue, jobs=args.jobs,
            default_deadline_s=args.deadline, drain_timeout_s=args.drain_timeout,
        )
    except ValueError as exc:
        print(f"invalid serve options: {exc}", file=sys.stderr)
        return 2
    service = CertificationService(config)
    print(
        f"serving on http://{config.host}:{config.port or '<ephemeral>'} "
        f"(store: {args.store}); SIGTERM drains gracefully",
        file=sys.stderr,
    )
    return service.serve()


def _cmd_submit(args) -> int:
    """Submit one certification campaign to a running daemon."""
    from repro.certify import Certificate
    from repro.service.client import ServiceClient, ServiceError

    try:
        request = _certify_request(args, deadline_s=args.deadline)
    except (ValueError, TypeError) as exc:
        print(f"invalid submit options: {exc}", file=sys.stderr)
        return 2
    try:
        client = ServiceClient(args.url)
        status, doc = client.submit(request.to_dict(), wait=args.wait)
    except ServiceError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return EXIT_UNAVAILABLE
    rid = doc.get("request_id")
    if rid:
        print(f"request id: {rid}", file=sys.stderr)
    if status == 400:
        print(f"request rejected: {doc.get('error')}", file=sys.stderr)
        return 2
    if status == 202:
        print(f"accepted: request {rid} key {doc.get('key')}")
        print(
            "follow with 'repro top' or GET /status; fetch the result "
            "with GET /certificate/<key>",
            file=sys.stderr,
        )
        return 0
    if status != 200:
        retry = doc.get("retry_after_s")
        print(
            f"request not served ({doc.get('status')})"
            + (f"; retry after {retry}s" if retry else ""),
            file=sys.stderr,
        )
        return EXIT_UNAVAILABLE
    certificate = Certificate.from_dict(doc["certificate"])
    print(certificate.summary())
    cached = doc.get("cached")
    print(
        f"key: {doc['key']}" + (f"  (cache hit: {cached})" if cached else ""),
        file=sys.stderr,
    )
    if args.out:
        certificate.save(args.out)
        print(f"certificate written to {args.out}")
    return 0 if certificate.passed else 1


def _cmd_top(args) -> int:
    """Live dashboard over a running daemon's GET /status."""
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.top import run_top

    client = ServiceClient(args.url)
    try:
        return run_top(
            client,
            interval=args.interval,
            iterations=1 if args.once else None,
        )
    except ServiceError as exc:
        print(f"top failed: {exc}", file=sys.stderr)
        return EXIT_UNAVAILABLE


def _cmd_trace_analyze(args) -> int:
    """Report a recorded JSONL trace: one request's, or the whole trace."""
    from repro.telemetry.stats import TraceError, load_trace, render, summarize

    try:
        summary = summarize(load_trace(args.trace_file), request_id=args.request)
    except TraceError as exc:
        print(f"trace analyze: {exc}", file=sys.stderr)
        return 1
    print(render(summary, top=args.top, max_shards=args.max_shards))
    return 0


def _cmd_bench_history(args) -> int:
    """Show the append-only benchmark-history ledger."""
    import json as _json
    from pathlib import Path

    from repro.telemetry.history import (
        append_entry,
        load_history,
        render_history,
        resolve_history_path,
    )

    path = Path(args.history) if args.history else resolve_history_path()
    if args.import_dir:
        # backfill: fold existing BENCH_*.json reports into the ledger
        imported = 0
        for report_path in sorted(Path(args.import_dir).glob("BENCH_*.json")):
            report = _json.loads(report_path.read_text())
            append_entry(path, report)
            imported += 1
        print(f"imported {imported} report(s) into {path}", file=sys.stderr)
    try:
        history = load_history(path)
    except ValueError as exc:
        print(f"corrupt history: {exc}", file=sys.stderr)
        return 1
    print(render_history(history))
    return 0


def _cmd_bench_check(args) -> int:
    """Regression sentinel: newest run vs rolling robust baseline."""
    from pathlib import Path

    from repro.telemetry.history import (
        check,
        load_history,
        render_check,
        resolve_history_path,
    )

    path = Path(args.history) if args.history else resolve_history_path()
    try:
        history = load_history(path)
    except ValueError as exc:
        print(f"corrupt history: {exc}", file=sys.stderr)
        return 1
    if not history:
        print(f"no benchmark history at {path}; nothing to check")
        return 0
    report = check(
        history,
        tolerance=args.tolerance,
        window=args.window,
        min_samples=args.min_samples,
    )
    print(render_check(report))
    return 1 if report["regressions"] else 0


def _cmd_encrypt(args) -> int:
    from repro.ciphers.registry import make_spec
    from repro.countermeasures import build_three_in_one

    spec = make_spec(args.cipher)
    try:
        key, pt = int(args.key, 0), int(args.pt, 0)
    except ValueError as exc:
        print(f"invalid encrypt options: {exc}", file=sys.stderr)
        return 2
    design = build_three_in_one(spec)
    sim = design.simulator(1)
    result = design.run(sim, [pt], key, rng=args.seed)
    ct = sum(int(b) << i for i, b in enumerate(result["ciphertext"][0]))
    expected = spec.reference(key).encrypt(pt)
    width = spec.block_bits // 4
    print(f"protected netlist ciphertext: {ct:0{width}x}")
    print(f"reference ciphertext:         {expected:0{width}x}")
    print(f"fault flag: {int(result['fault'][0])}")
    return 0 if ct == expected else 1


def _positive_int(value: str) -> int:
    """Argparse type for ``--runs``: an integer of at least 1, else exit 2."""
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer") from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"{number} is below 1")
    return number


def _cipher_name(value: str) -> str:
    """Argparse type for ``--cipher``: canonicalize or fail at parse time.

    An unknown name exits 2 with the argument named and the registered
    ciphers listed — same eager-validation contract as the REPRO_CHAOS /
    REPRO_SIM_BACKEND environment checks.
    """
    from repro.ciphers.registry import resolve_cipher

    try:
        return resolve_cipher(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_cipher_arg(parser: argparse.ArgumentParser, default: str = "present80") -> None:
    from repro.ciphers.registry import registered_ciphers

    parser.add_argument(
        "--cipher", default=default, type=_cipher_name,
        metavar="{" + ",".join(registered_ciphers()) + "}",
        help="registered cipher to build (aliases like 'present'/'aes' "
        "accepted; unknown names are rejected at parse time)",
    )


def _add_request_args(parser: argparse.ArgumentParser) -> None:
    """The flags of one certify request (``certify`` and ``submit``),
    defaulting to the :class:`~repro.service.protocol.CertifyRequest`'s."""
    from repro.service.protocol import SCHEMES, CertifyRequest as request

    parser.add_argument("--scheme", default=request.scheme, choices=SCHEMES)
    _add_cipher_arg(parser, default=request.cipher)
    parser.add_argument(
        "--variant", default=request.variant, help="λ variant (three-in-one only)"
    )
    parser.add_argument(
        "--rounds", type=int, default=request.rounds,
        help="reduced-round cipher instance (default: the cipher's full "
        "round count)",
    )
    parser.add_argument(
        "--budget", type=int, default=request.budget,
        help="total faulted-run budget; omit for an exhaustive sweep",
    )
    parser.add_argument(
        "--runs-per-location", type=int, default=request.runs_per_location
    )
    parser.add_argument(
        "--models", default=None,
        help="comma-separated fault models (default: all four)",
    )
    parser.add_argument(
        "--cycles", default=None,
        help="comma-separated active rounds (default: every round)",
    )
    parser.add_argument("--seed", type=int, default=request.seed)
    parser.add_argument("--key", default=request.key)


def _common_options() -> argparse.ArgumentParser:
    """Parent parser: observability flags shared by every subcommand.

    Result tables and histograms stay on stdout; diagnostics go through
    :mod:`logging` on stderr (``-v`` → DEBUG, ``-q`` → errors only) and,
    with ``--trace``, every span/event/metric of the run is appended to a
    JSONL trace readable by ``repro trace analyze``.
    """
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("observability")
    group.add_argument(
        "-v", "--verbose", action="store_true",
        help="log DEBUG diagnostics to stderr",
    )
    group.add_argument(
        "-q", "--quiet", action="store_true",
        help="log errors only (overrides -v)",
    )
    group.add_argument(
        "--trace", default=None, metavar="FILE",
        help="append a JSONL trace of this run "
        "(inspect with 'repro trace analyze')",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the DATE'21 'Feeding Three Birds' evaluation.",
    )
    common = _common_options()
    sub = parser.add_subparsers(dest="command", required=True)

    p2 = sub.add_parser(
        "table2", help="Table II: PRESENT-80 design areas", parents=[common]
    )
    p2.set_defaults(fn=_cmd_table2)
    p3 = sub.add_parser(
        "table3", help="Table III: S-box layer areas", parents=[common]
    )
    p3.add_argument("--no-aes", action="store_true", help="skip the AES rows (faster)")
    p3.set_defaults(fn=_cmd_table3)

    for name, fn, default_runs, help_ in (
        ("fig4", _cmd_fig4, 80_000, "Fig. 4: SIFA bias campaign"),
        ("fig5", _cmd_fig5, 80_000, "Fig. 5: identical-fault campaign"),
        ("matrix", _cmd_matrix, 16_000, "attack x scheme key-recovery matrix"),
        ("sweep", _cmd_sweep, 10_000, "fault-round sweep"),
    ):
        p = sub.add_parser(name, help=help_, parents=[common])
        p.add_argument("--runs", type=_positive_int, default=default_runs)
        p.add_argument("--seed", type=int, default=4)
        if name != "sweep":
            _add_executor_args(p)
        if name == "matrix":
            _add_cipher_arg(p)
        p.set_defaults(fn=fn)

    psca = sub.add_parser(
        "sca", help="side-channel λ-leakage assessment", parents=[common]
    )
    psca.add_argument("--traces", type=int, default=300)
    psca.set_defaults(fn=_cmd_sca)

    pcert = sub.add_parser(
        "certify",
        help="sweep the single-fault space and emit a coverage certificate",
        parents=[common],
    )
    _add_request_args(pcert)
    pcert.add_argument(
        "--fail-fast", action="store_true",
        help="stop scheduling new shards once a witness is found",
    )
    _add_executor_args(pcert)
    pcert.add_argument("--out", default=None, help="write the certificate JSON here")
    pcert.add_argument(
        "--wall-budget", type=float, default=None,
        help="wall-clock budget in seconds; on exhaustion the sweep stops "
        "scheduling and emits a valid partial (degraded) certificate",
    )
    pcert.set_defaults(fn=_cmd_certify)

    pverify = sub.add_parser(
        "verify",
        help="validate a saved certificate (schema + checksum) and report it",
        parents=[common],
    )
    pverify.add_argument("certificate", help="certificate JSON written by certify")
    pverify.set_defaults(fn=_cmd_verify)

    pserve = sub.add_parser(
        "serve",
        help="run the always-on certification daemon (HTTP/JSON, local)",
        parents=[common],
    )
    pserve.add_argument(
        "--store", default="repro-store",
        help="content-addressed result store root (certificates and "
        "campaign checkpoints); survives restarts and kill -9",
    )
    pserve.add_argument("--host", default="127.0.0.1")
    pserve.add_argument(
        "--port", type=int, default=8642,
        help="listen port (0 = ephemeral)",
    )
    pserve.add_argument(
        "--concurrency", type=int, default=2,
        help="campaigns run concurrently",
    )
    pserve.add_argument(
        "--max-queue", type=int, default=8,
        help="admission bound (queued + running campaigns) before "
        "load-shedding with Retry-After",
    )
    pserve.add_argument(
        "--jobs", type=int, default=1,
        help="executor worker processes per campaign",
    )
    pserve.add_argument(
        "--deadline", type=float, default=None,
        help="default per-request wall-clock deadline in seconds; exceeding "
        "it yields a valid degraded certificate, never a dropped request",
    )
    pserve.add_argument("--drain-timeout", type=float, default=600.0)
    pserve.set_defaults(fn=_cmd_serve)

    psubmit = sub.add_parser(
        "submit",
        help="submit a certification campaign to a running 'repro serve'",
        parents=[common],
    )
    psubmit.add_argument(
        "--url", default="http://127.0.0.1:8642",
        help="daemon base URL",
    )
    _add_request_args(psubmit)
    psubmit.add_argument(
        "--deadline", type=float, default=None,
        help="per-request deadline in seconds (degraded certificate on "
        "expiry)",
    )
    psubmit.add_argument("--out", default=None, help="save the certificate here")
    psubmit.add_argument(
        "--wait", default=True, action=argparse.BooleanOptionalAction,
        help="--no-wait returns immediately after admission (202) with the "
        "request id; follow progress via 'repro top' or GET /status",
    )
    psubmit.set_defaults(fn=_cmd_submit)

    ptop = sub.add_parser(
        "top",
        help="live TTY dashboard over a running daemon's GET /status",
        parents=[common],
    )
    ptop.add_argument(
        "--url", default="http://127.0.0.1:8642", help="daemon base URL"
    )
    ptop.add_argument(
        "--interval", type=float, default=1.0, help="seconds between polls"
    )
    ptop.add_argument(
        "--once", action="store_true",
        help="print one frame and exit (scripts/CI)",
    )
    ptop.set_defaults(fn=_cmd_top)

    penc = sub.add_parser(
        "encrypt", help="one protected encryption vs the spec", parents=[common]
    )
    _add_cipher_arg(penc)
    penc.add_argument("--key", default="0x0123456789abcdef0123")
    penc.add_argument("--pt", default="0xcafebabedeadbeef")
    penc.add_argument("--seed", type=int, default=1)
    penc.set_defaults(fn=_cmd_encrypt)

    ptrace = sub.add_parser(
        "trace",
        help="inspect recorded traces (trace analyze FILE [--request ID])",
        parents=[common],
    )
    trace_sub = ptrace.add_subparsers(dest="trace_command", required=True)
    panalyze = trace_sub.add_parser(
        "analyze",
        help="report a trace: manifest, span table, shards, critical path; "
        "one request's span tree",
        parents=[common],
    )
    panalyze.add_argument("trace_file", help="JSONL trace written by --trace")
    panalyze.add_argument(
        "--request", default=None, metavar="ID",
        help="request id to report (default: the trace's only request id, "
        "else the whole trace)",
    )
    panalyze.add_argument(
        "--top", type=int, default=15, help="span names to show (by total time)"
    )
    panalyze.add_argument(
        "--max-shards", type=int, default=10,
        help="rows in the slowest-shard table",
    )
    panalyze.set_defaults(fn=_cmd_trace_analyze)

    pbench = sub.add_parser(
        "bench",
        help="benchmark history ledger and perf-regression sentinel",
        parents=[common],
    )
    bench_sub = pbench.add_subparsers(dest="bench_command", required=True)
    phistory = bench_sub.add_parser(
        "history",
        help="show the append-only bench_history.jsonl ledger",
        parents=[common],
    )
    phistory.add_argument(
        "--history", default=None, metavar="FILE",
        help="ledger path (default: REPRO_BENCH_HISTORY or "
        "benchmarks/out/bench_history.jsonl)",
    )
    phistory.add_argument(
        "--import-dir", default=None, metavar="DIR",
        help="backfill: append every BENCH_*.json in DIR before listing",
    )
    phistory.set_defaults(fn=_cmd_bench_history)
    pcheck = bench_sub.add_parser(
        "check",
        help="compare each series' newest run against its rolling "
        "median±MAD baseline; exit 1 on regression",
        parents=[common],
    )
    pcheck.add_argument("--history", default=None, metavar="FILE")
    pcheck.add_argument(
        "--tolerance", type=float, default=0.10,
        help="minimum relative noise band (fraction of the median)",
    )
    pcheck.add_argument(
        "--window", type=int, default=8,
        help="baseline runs considered per series",
    )
    pcheck.add_argument(
        "--min-samples", type=int, default=3,
        help="baseline runs required before a series is judged",
    )
    pcheck.set_defaults(fn=_cmd_bench_check)
    return parser


#: exit status for an untrustworthy on-disk artefact: a --resume that does
#: not match the stored checkpoint, or a certificate failing its schema
#: version or integrity checksum
EXIT_CHECKPOINT_MISMATCH = 3

#: exit status when the certification daemon cannot serve the request now
#: (unreachable, load-shed with Retry-After, draining, or the campaign
#: failed with a typed error)
EXIT_UNAVAILABLE = 4


class _LiveStderrHandler(logging.StreamHandler):
    """A stderr handler that resolves ``sys.stderr`` at emit time.

    The CLI can be driven in-process (tests, notebooks) where stderr is
    swapped per call; pinning the stream at configure time would leave
    the logger writing to a closed capture file.
    """

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


def _configure_logging(args) -> None:
    """Route diagnostics to stderr at the verbosity the flags ask for.

    Results stay on stdout untouched; only :mod:`logging` output (shard
    retries, timeout degradations, partial-campaign warnings) is affected.
    Propagation stays on so embedding applications (and pytest's caplog)
    still observe the records.
    """
    if getattr(args, "quiet", False):
        level = logging.ERROR
    elif getattr(args, "verbose", False):
        level = logging.DEBUG
    else:
        level = logging.INFO
    handler = _LiveStderrHandler()
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s")
    )
    logger = logging.getLogger("repro")
    logger.handlers[:] = [handler]
    logger.setLevel(level)


def main(argv: list[str] | None = None) -> int:
    from repro.certify import CertificateError
    from repro.telemetry import metrics, run_manifest, trace

    args = build_parser().parse_args(argv)
    _configure_logging(args)
    if getattr(args, "resume", False) and not args.checkpoint_dir:
        print("invalid options: --resume needs --checkpoint-dir", file=sys.stderr)
        return 2
    if getattr(args, "jobs", 1) < 1:
        print(f"invalid options: --jobs {args.jobs} is below 1", file=sys.stderr)
        return 2
    # Eager environment validation: a typo'd REPRO_CHAOS schedule or
    # REPRO_SIM_BACKEND kernel name fails here, loudly, before any work —
    # not deep inside a campaign (or silently never firing at all).
    try:
        from repro.netlist.simulator import resolve_backend
        from repro.resilience.chaos import ChaosSpec

        ChaosSpec.from_env()
        backend = resolve_backend(None)
    except ValueError as exc:
        print(f"invalid environment: {exc}", file=sys.stderr)
        return 2
    trace_path = getattr(args, "trace", None)
    if trace_path:
        trace.configure(
            trace_path,
            manifest=run_manifest(
                kind="cli", command=args.command, backend=backend,
                argv=list(argv or sys.argv[1:]),
            ),
        )
    # One-shot commands get a synthetic request id so their records are
    # correlated the same way the daemon's are ('repro trace analyze'
    # works on any trace).  'serve' is exempt: the daemon assigns real
    # per-request ids and must not stamp its whole lifetime with one.
    import contextlib
    import os as _os

    correlate = (
        trace.bind(request_id=f"cli-{_os.getpid()}-{args.command}")
        if args.command != "serve"
        else contextlib.nullcontext()
    )
    try:
        with correlate:
            return args.fn(args)
    except CertificateError as exc:
        # A certificate that fails schema or checksum validation cannot be
        # trusted: exit with a distinct status so wrapper scripts can tell
        # it apart from a failed verdict (1).
        print(f"certificate invalid: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT_MISMATCH
    except Exception as exc:
        # Imported here: a run without a checkpoint never loads the store.
        from repro.faults.checkpoint import CheckpointError

        if not isinstance(exc, CheckpointError):
            raise
        # A stale or foreign checkpoint directory is in the same family:
        # an operator error, not a crash, so name the mismatch.
        print(f"checkpoint mismatch: {exc}", file=sys.stderr)
        print(
            "hint: point --checkpoint-dir at the directory created by the "
            "original run, or remove it to start fresh",
            file=sys.stderr,
        )
        return EXIT_CHECKPOINT_MISMATCH
    finally:
        if trace_path:
            trace.close(final_metrics=metrics.snapshot())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
