"""End-to-end benchmark of certification and fault campaigns.

    python3 benchmarks/e2e/run.py --workload certify-present80 --seed 1
    python3 benchmarks/e2e/run.py --workload service-mixed --seed 1 --trace 1
    python -m benchmarks.e2e --seed 1          # every workload in turn

Each workload runs in fresh interpreters started from the checkout's
``src/`` with every ``REPRO_*`` variable removed: five that only set up
(their median is ``setup_s``) and one that measures for ``--seconds``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` its per-layer metrics.  The metrics are printed by name
with their unit, recorded through ``benchmarks.conftest.bench_report``
in ``benchmarks/out/`` and its ledger (so ``repro bench check`` sees
them), and the last line of standard output is one JSON object.  The exit code is 0 only when
every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = ROOT / "benchmarks" / "out"

#: fresh processes whose median set-up time is ``setup_s``
SETUP_PROCESSES = 5
#: a whole invocation must end within this many seconds per workload
BUDGET_S = 170.0


class BenchError(RuntimeError):
    """A child process failed or its output is not what the benchmark expects."""


def child(args: list[str], *, env: dict, deadline: float) -> dict:
    """Run ``benchmarks.e2e.workloads`` in a fresh interpreter; its JSON result."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e.workloads", *args],
        cwd=ROOT, env=env, text=True, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(args)}: timed out") from None
    finally:
        # pool workers the child left behind share its process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)}: exit {proc.returncode}\n{err[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(name: str, args, spec: dict, env: dict) -> dict:
    """Set-up processes plus one measuring process for workload ``name``."""
    deadline = time.monotonic() + BUDGET_S
    common = ["--workload", name, "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    setups = [
        child(["--phase", "setup", *common], env=env, deadline=deadline)
        for _ in range(SETUP_PROCESSES)
    ]
    doc = child(
        ["--phase", "measure", *common, "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        env=env, deadline=deadline,
    )
    if args.trace:
        metrics = {
            f"setup.{step}_s": {
                "value": statistics.median(s[step] for s in setups), "unit": "s",
                "n": len(setups),
            }
            for step in ("import", "build", "compile")
        }
    else:
        metrics = {
            "setup_s": {
                "value": statistics.median(s["total"] for s in setups), "unit": "s",
                "n": len(setups),
            }
        }
    metrics.update(doc["metrics"])
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    measured = {k: v["unit"] for k, v in metrics.items()}
    if measured != declared:
        raise BenchError(f"{name}: metrics {measured} do not match BENCHMARK.json {declared}")
    doc["metrics"] = {k: metrics[k] for k in declared}
    return doc


def report(name: str, doc: dict, args) -> None:
    """Print a workload's metrics and record them in the bench ledger."""
    env = doc["environment"]
    mode = "traced" if args.trace else "untraced"
    print(f"{name}: seed {args.seed}, {args.seconds:g} s, {mode}, "
          f"{doc['operations']} operations")
    print(f"  backend {env['backend']}, {env['cpu']}, nproc {env['nproc']}, "
          f"python {env['python']}, numpy {env['numpy']}")
    for heading, group in (("", doc["metrics"]), ("not in BENCHMARK.json, recorded in the ledger", doc["extra"])):
        if heading and group:
            print(f"  ({heading})")
        for metric, m in group.items():
            n = f"  (n={m['n']})" if "n" in m else ""
            print(f"  {metric:<34} {m['value']:.6g} {m['unit']}{n}")
    print(f"  checks: {doc['failed']} of {doc['attempted']} failed; "
          f"outputs sha256 {doc['digest'][:16]}")
    for problem in doc["problems"]:
        print(f"  FAILED: {problem}")

    from benchmarks.conftest import bench_report

    OUT.mkdir(parents=True, exist_ok=True)
    bench_report(
        OUT,
        f"e2e_{name}" + ("_trace" if args.trace else ""),
        config={
            "workload": name, "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke, "backend": env["backend"], "nproc": env["nproc"],
        },
        metrics={
            **{k: m["value"] for k, m in {**doc["metrics"], **doc["extra"]}.items()},
            "attempted": doc["attempted"],
            "failed": doc["failed"],
        },
    )


def main(argv=None) -> int:
    missing = [
        str(p.relative_to(ROOT))
        for p in (ROOT / "BENCHMARK.json", ROOT / "src" / "repro" / "__init__.py",
                  ROOT / "benchmarks" / "conftest.py")
        if not p.is_file()
    ]
    if missing:
        print(f"not a checkout of this repository: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]  # for bench_report
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description="end-to-end benchmark (see README.md)")
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: every workload in turn)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced operation sizes (tests only)")
    args = parser.parse_args(argv)

    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    results = {}
    try:
        for name in [args.workload] if args.workload else names:
            results[name] = run_workload(name, args, spec, env)
            report(name, results[name], args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    correct = all(doc["correct"] for doc in results.values())
    serial, pooled = results.get("certify-present80"), results.get("certify-parallel")
    if serial and pooled:
        common = min(len(serial["digests"]), len(pooled["digests"]))
        same = serial["digests"][:common] == pooled["digests"][:common]
        print(f"certify-parallel vs certify-present80: {common} certificates, "
              f"{'identical' if same else 'DIFFERENT'}")
        correct = correct and same
    print(json.dumps({
        "correct": correct,
        "attempted": sum(doc["attempted"] for doc in results.values()),
        "failed": sum(doc["failed"] for doc in results.values()),
        "metrics": {
            (k if args.workload else f"{name}.{k}"): {"value": m["value"], "unit": m["unit"]}
            for name, doc in results.items() for k, m in doc["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
