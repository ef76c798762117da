"""The four end-to-end workloads, each run in a fresh interpreter.

``python -m benchmarks.e2e.workloads --phase setup ...`` times one set-up
(imports, design build, enumeration, lint, kernel compile) and exits;
``--phase measure`` sets up, warms up, then repeats the workload's
operation until ``--seconds`` are spent, checking every output.  Both
print one JSON document as the last line of standard output.  The runner
(:mod:`benchmarks.e2e.run`) strips ``REPRO_*`` from the environment and
points ``PYTHONPATH`` at the checkout before starting them.  Imports of
``repro`` stay inside functions so that the set-up timer sees them, and
``repro`` functions are called through their modules so that the traced
run's timers (:mod:`benchmarks.e2e.layers`) see every call.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: the repository's benchmark artefact directory: ledger, reports, traces
#: and (while a run lasts) its temporary stores and checkpoints
OUT = ROOT / "benchmarks" / "out"

#: the ROADMAP's pinned design: three-in-one PRESENT-80, 8 rounds
ROUNDS = 8
RUNS_PER_LOCATION = 64


def derive(seed: int, *parts) -> int:
    """A 31-bit value determined by the benchmark seed and ``parts``."""
    text = ":".join(str(p) for p in (seed,) + parts)
    return int(hashlib.sha256(text.encode()).hexdigest()[:8], 16) >> 1


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Op:
    """One measured operation and what its checks found."""

    wall: float
    locations: int
    runs: int
    #: what a user waits for: the certify call, the figure pair, or each
    #: service request that missed the store
    latencies: list[float]
    digest: str
    #: checks the outputs, returning problems; runs after the operation's
    #: timers are removed, so its own simulation is not layer time
    verify: Callable[[], list[str]]
    #: outputs checked (certificates, figures, HTTP responses)
    attempted: int = 1
    #: what :attr:`verify` found
    problems: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


# ------------------------------------------------------------------ checks


def check_certificate(cert, design, *, locations: int) -> list[str]:
    """Problems with a certificate of the (sound) pinned design, if any.

    It must pass with no witness and cover exactly the planned sample,
    every location row must hold ``runs_per_location`` runs, and each
    ``model/fault_type`` histogram must be the sum of its rows.
    """
    from repro.certify import space

    problems = []
    cov = cert.coverage
    runs = cert.runs_per_location
    if not cert.passed:
        problems.append(f"verdicts {sorted(cert.verdicts.items())}")
    if cert.witnesses:
        problems.append(f"{len(cert.witnesses)} witness(es) on a sound design")
    if cert.degraded:
        problems.append("degraded certificate")
    if (cov["locations_planned"], cov["locations_covered"]) != (locations, locations):
        problems.append(
            f"covered {cov['locations_covered']} of {cov['locations_planned']} "
            f"locations, expected {locations}"
        )
    if cov["runs_executed"] != locations * runs:
        problems.append(f"runs_executed {cov['runs_executed']} != {locations * runs}")
    fault_space = space.enumerate_fault_space(design)
    sums: dict[str, list[int]] = {}
    for index, row in cert.locations:
        if sum(row) != runs:
            problems.append(f"location {index} holds {sum(row)} runs, not {runs}")
        model, ftype, _ = fault_space.stratum(index)
        bucket = sums.setdefault(f"{model}/{ftype}", [0] * len(row))
        for k, count in enumerate(row):
            bucket[k] += count
    if sums != cert.histograms:
        problems.append("histograms disagree with the per-location rows")
    return problems


def check_replay(cert, design, *, key: int, picks: list[int]) -> list[str]:
    """Re-simulate chosen locations with ``run_campaign``; rows must match."""
    import numpy as np

    from repro.certify import space
    from repro.faults import Outcome, campaign

    problems = []
    fault_space = space.enumerate_fault_space(design)
    for pick in picks:
        index, row = cert.locations[pick % len(cert.locations)]
        result = campaign.run_campaign(
            design, list(fault_space.scenario(index).specs),
            n_runs=cert.runs_per_location, key=key, seed=cert.seed,
        )
        counts = np.bincount(result.outcomes, minlength=len(Outcome)).tolist()
        if counts != row:
            problems.append(f"location {index}: replay {counts} != certificate {row}")
    return problems


def check_figures(fig4, fig5, n_runs: int) -> list[str]:
    """Fig. 4: ours releases no wrong ciphertext and naive duplication's
    SEI is over 10x ours; Fig. 5: naive releases faulty ciphertexts, ours none."""
    problems = []
    for label, series in (
        ("fig4 naive", fig4.naive), ("fig4 ours", fig4.ours),
        ("fig5 naive", fig5.naive), ("fig5 ours", fig5.ours),
    ):
        if sum(series.counts.values()) != n_runs:
            problems.append(f"{label}: {sum(series.counts.values())} runs != {n_runs}")
    if fig4.ours.faulty_released:
        problems.append(f"fig4 ours released {fig4.ours.faulty_released} faulty ciphertexts")
    if not fig4.naive.sei > 10 * fig4.ours.sei:
        problems.append(f"fig4 naive SEI {fig4.naive.sei} is not > 10x ours {fig4.ours.sei}")
    if not fig5.naive.faulty_released:
        problems.append("fig5 naive released no faulty ciphertext")
    if fig5.ours.faulty_released:
        problems.append(f"fig5 ours released {fig5.ours.faulty_released} faulty ciphertexts")
    return problems


def check_hit(status: int, doc: dict, first: dict) -> list[str]:
    """A repeated request must be a 200 store hit with its miss's certificate."""
    if status != 200:
        return [f"repeat returned HTTP {status}: {doc.get('error')}"]
    if doc.get("cached") != "store":
        return [f"repeat was not a store hit (cached={doc.get('cached')!r})"]
    if doc.get("certificate") != first:
        return ["store hit returned another certificate than its miss"]
    return []


# --------------------------------------------------------------- workloads


class Workload:
    """Set-up, warm-up and one repeatable operation of a workload."""

    name = ""
    #: worker processes the operation runs on
    jobs = 1

    def __init__(self, seed: int, workdir: Path, smoke: bool) -> None:
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        self.key = (derive(seed, "key-hi") << 49) ^ derive(seed, "key-lo")

    def setup(self, phase) -> None:
        """Everything before the first operation; ``with phase(name):`` times a step."""
        raise NotImplementedError

    def add_replica(self) -> None:
        """Prepare ``side=1`` of :meth:`op` (an independent copy of the system)."""

    def warmup(self) -> None:
        """Fill lazy caches outside the measured window."""

    def op(self, i: int, side: int = 0) -> Op:
        """Operation ``i`` on replica ``side``; equal ``i`` means equal inputs."""
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks over the whole run; returns problems."""
        return []

    def close(self) -> None:
        """Stop whatever :meth:`setup` started."""


class CertifyPresent80(Workload):
    """Serial budgeted certify of the pinned design, no checkpoint."""

    name = "certify-present80"

    @property
    def locations(self) -> int:
        # two 64-location shards even in smoke runs, so jobs=2 uses the pool
        return 128 if self.smoke else 2048

    def setup(self, phase) -> None:
        with phase("import"):
            from repro.certify import certifier, space  # noqa: F401
            from repro.ciphers.netlist_present import PresentSpec
            from repro.countermeasures import three_in_one
            from repro.faults import executor
            from repro.netlist import analysis
        with phase("build"):
            self.design = three_in_one.build_three_in_one(PresentSpec(rounds=ROUNDS))
        with phase("enumerate"):
            space.enumerate_fault_space(self.design)
        with phase("lint"):
            analysis.lint_countermeasure(self.design, strict=False)
        with phase("compile"):
            executor.prewarm_backend(self.design, None)

    def certify(self, i: int, *, locations: int, jobs: int, checkpoint_dir=None):
        from repro.certify import certifier

        config = certifier.CertifyConfig(
            budget=locations * RUNS_PER_LOCATION,
            runs_per_location=RUNS_PER_LOCATION,
            seed=derive(self.seed, "certify", i),
            jobs=jobs,
            checkpoint_dir=checkpoint_dir,
        )
        return certifier.certify_design(self.design, key=self.key, config=config)

    def warmup(self) -> None:
        self.certify(-1, locations=4, jobs=self.jobs)

    def op(self, i: int, side: int = 0) -> Op:
        checkpoint = self.workdir / f"ckpt-{i}-{side}" if self.jobs > 1 else None
        t0 = time.perf_counter()
        cert = self.certify(
            i, locations=self.locations, jobs=self.jobs, checkpoint_dir=checkpoint
        )
        wall = time.perf_counter() - t0
        if checkpoint is not None:
            shutil.rmtree(checkpoint, ignore_errors=True)
        picks = [derive(self.seed, "replay", i, k) for k in range(2)]
        return Op(
            wall=wall, locations=self.locations,
            runs=self.locations * RUNS_PER_LOCATION, latencies=[wall],
            digest=sha256(cert.render(include_timing=False)),
            verify=lambda: check_certificate(cert, self.design, locations=self.locations)
            + check_replay(cert, self.design, key=self.key, picks=picks),
        )


class CertifyParallel(CertifyPresent80):
    """The same certifies on a two-process pool, each with a fresh checkpoint.

    Their certificates equal ``certify-present80``'s for the same seed; the
    all-workload run compares them.  On its own this workload checks, after
    the window, that a 128-location certify gives the same certificate on
    two workers as serially.
    """

    name = "certify-parallel"
    jobs = 2

    def finish(self) -> list[str]:
        serial, pooled = (
            sha256(self.certify(-2, locations=128, jobs=jobs).render(include_timing=False))
            for jobs in (1, 2)
        )
        if serial != pooled:
            return ["the jobs=2 certificate differs from the serial one"]
        return []


class CampaignFig45(Workload):
    """Fig. 4 + Fig. 5 at paper scale: four 80,000-run campaigns, 31 rounds."""

    name = "campaign-fig45"

    @property
    def n_runs(self) -> int:
        return 4096 if self.smoke else 80_000

    def setup(self, phase) -> None:
        with phase("import"):
            from repro.ciphers.netlist_present import PresentSpec
            from repro.countermeasures import duplication, three_in_one
            from repro.evaluation import figures  # noqa: F401
            from repro.faults import executor
        with phase("build"):
            designs = [
                duplication.build_naive_duplication(PresentSpec()),
                three_in_one.build_three_in_one(PresentSpec()),
            ]
        with phase("compile"):
            for design in designs:
                executor.prewarm_backend(design, None)

    def figures(self, i: int, n_runs: int):
        from repro.evaluation import figures

        fig4 = figures.figure4(n_runs=n_runs, key=self.key, seed=derive(self.seed, "fig4", i))
        fig5 = figures.figure5(n_runs=n_runs, key=self.key, seed=derive(self.seed, "fig5", i))
        return fig4, fig5

    def warmup(self) -> None:
        self.figures(-1, 1024)

    def op(self, i: int, side: int = 0) -> Op:
        t0 = time.perf_counter()
        fig4, fig5 = self.figures(i, self.n_runs)
        wall = time.perf_counter() - t0
        series = (fig4.naive, fig4.ours, fig5.naive, fig5.ours)
        return Op(
            wall=wall, locations=len(series), runs=len(series) * self.n_runs,
            latencies=[wall],
            digest=sha256(json.dumps([[s.counts, s.distribution.tolist()] for s in series])),
            verify=lambda: check_figures(fig4, fig5, self.n_runs),
            attempted=2,
        )


class ServiceMixed(Workload):
    """One closed-loop client against an in-process certification service.

    An operation is a session of 32 new requests (store misses); after
    each, the client sends four repeats drawn by the seed from the
    session's requests already answered (store hits), 128 in all.
    """

    name = "service-mixed"
    REPEATS = 4

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.services: list = []
        self.clients: list = []
        self.threads: list[threading.Thread] = []
        self.certify_s: list[float] = []

    @property
    def requests(self) -> int:
        return 4 if self.smoke else 32

    @property
    def locations(self) -> int:
        return 8 if self.smoke else 64

    def request(self, i: int, k: int, locations: int | None = None) -> dict:
        """Request ``k`` of session ``i``."""
        locations = locations or self.locations
        return {
            "scheme": "three-in-one",
            "cipher": "present80",
            "rounds": ROUNDS,
            "budget": locations * RUNS_PER_LOCATION,
            "runs_per_location": RUNS_PER_LOCATION,
            "seed": derive(self.seed, "request", i, k),
            "key": hex(self.key),
        }

    def timed_certify(self, design, *, key, config):
        from repro.certify import certifier

        t0 = time.perf_counter()
        try:
            return certifier.certify_design(design, key=key, config=config)
        finally:
            self.certify_s.append(time.perf_counter() - t0)

    def add_replica(self) -> None:
        from repro.service import client, daemon

        side = len(self.services)
        service = daemon.CertificationService(
            daemon.ServiceConfig(
                store_dir=self.workdir / f"store-{side}", concurrency=1, jobs=1
            ),
            certify=self.timed_certify,
        )
        thread = threading.Thread(target=service.serve, name=f"service-{side}")
        thread.start()
        self.services.append(service)
        self.threads.append(thread)
        if not service.ready.wait(30):
            raise RuntimeError("the certification service did not start")
        self.clients.append(
            client.ServiceClient(f"http://127.0.0.1:{service.port}", timeout=120)
        )

    def setup(self, phase) -> None:
        with phase("import"):
            from repro.certify import space
            from repro.faults import executor
            from repro.netlist import analysis
            from repro.service import client, daemon, protocol  # noqa: F401
        with phase("serve"):
            self.add_replica()
        with phase("build"):
            self.design = protocol.build_design("three-in-one", rounds=ROUNDS)
        with phase("enumerate"):
            space.enumerate_fault_space(self.design)
        with phase("lint"):
            analysis.lint_countermeasure(self.design, strict=False)
        with phase("compile"):
            executor.prewarm_backend(self.design, None)

    def warmup(self) -> None:
        for client in self.clients:
            status, doc = client.submit(self.request(-1, 0, locations=4))
            if status != 200:
                raise RuntimeError(f"warm-up request failed: HTTP {status} {doc}")

    def op(self, i: int, side: int = 0) -> Op:
        from repro.certify import Certificate

        client, service = self.clients[side], self.services[side]
        before = dict(service.counters)
        draw = random.Random(derive(self.seed, "repeats", i))
        misses, hits, overheads = [], [], []
        answers: list[tuple[int, dict]] = []  # (HTTP status, response) per request
        repeats: list[tuple[int, int, dict]] = []  # (request, HTTP status, response)
        t0 = time.perf_counter()
        for k in range(self.requests):
            certified = len(self.certify_s)
            t1 = time.perf_counter()
            answers.append(client.submit(self.request(i, k)))
            misses.append(time.perf_counter() - t1)
            overheads.append(misses[-1] - sum(self.certify_s[certified:]))
            for _ in range(self.REPEATS):
                j = draw.randrange(len(answers))
                t1 = time.perf_counter()
                repeats.append((j, *client.submit(self.request(i, j))))
                hits.append(time.perf_counter() - t1)
        wall = time.perf_counter() - t0
        started = service.counters["campaigns_started"] - before.get("campaigns_started", 0)
        stored = service.counters["dedupe_hits_store"] - before.get("dedupe_hits_store", 0)
        certs = [
            Certificate.from_dict(doc["certificate"])
            if status == 200 and doc.get("certificate") else None
            for status, doc in answers
        ]

        def verify() -> list[str]:
            problems = []
            for (status, doc), cert in zip(answers, certs):
                if cert is None or doc.get("cached") is not None:
                    problems.append(f"new request: HTTP {status}, cached={doc.get('cached')!r}")
                else:
                    problems += check_certificate(cert, self.design, locations=self.locations)
            for j, status, doc in repeats:
                problems += check_hit(status, doc, answers[j][1].get("certificate"))
            if (started, stored) != (len(answers), len(repeats)):
                problems.append(
                    f"{started} campaigns started and {stored} store hits, "
                    f"expected {len(answers)} and {len(repeats)}"
                )
            return problems

        return Op(
            wall=wall, locations=len(answers) * self.locations,
            runs=len(answers) * self.locations * RUNS_PER_LOCATION, latencies=misses,
            digest=sha256("".join(
                cert.render(include_timing=False) if cert else "" for cert in certs
            )),
            verify=verify, attempted=len(answers) + len(repeats) + 1,
            extra={"hits": hits, "overheads": overheads},
        )

    def close(self) -> None:
        for service in self.services:
            service.request_shutdown()
        for thread in self.threads:
            thread.join(60)


WORKLOADS = {
    w.name: w for w in (CertifyPresent80, CampaignFig45, CertifyParallel, ServiceMixed)
}


# ------------------------------------------------------------------ phases


def time_setup(workload: Workload) -> dict[str, float]:
    """Run ``workload.setup``; returns seconds per step and in total."""
    steps: dict[str, float] = {}

    @contextlib.contextmanager
    def phase(name):
        start = time.perf_counter()
        try:
            yield
        finally:
            steps[name] = steps.get(name, 0.0) + time.perf_counter() - start

    t0 = time.perf_counter()
    workload.setup(phase)
    steps["total"] = time.perf_counter() - t0
    return steps


def environment() -> dict:
    import numpy as np

    from repro.netlist.simulator import resolve_backend
    from repro.telemetry import cpu_model

    return {
        "backend": resolve_backend(None),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def metric(value, unit: str, n: int | None = None) -> dict:
    doc = {"value": value, "unit": unit}
    if n is not None:
        doc["n"] = n
    return doc


def measure(workload: Workload, *, seconds: float, traced: bool) -> dict:
    """Repeat the operation for ``seconds``; returns metrics and checks.

    A traced run gives operation ``i`` to two replicas with equal inputs,
    one untraced and one traced (alternating which goes first), so the
    layer times and the tracing overhead come from one run.
    """
    from repro.telemetry import metrics, trace

    from benchmarks.e2e import layers

    time_setup(workload)
    instrument = layers.Instrument()
    trace_path = OUT / f"e2e-trace-{workload.name}.jsonl"
    if traced:
        workload.add_replica()
        trace_path.unlink(missing_ok=True)
    workload.warmup()
    metrics.reset()

    plain: list[Op] = []
    shadow: list[Op] = []
    started = time.perf_counter()
    i = 0
    while True:
        sides = ((0, 1) if i % 2 == 0 else (1, 0)) if traced else (0,)
        for side in sides:
            if side:
                instrument.install()
                trace.configure(trace_path)
            try:
                op = workload.op(i, side)
            finally:
                if side:
                    trace.close()
                    instrument.remove()
            op.problems = op.verify()
            (shadow if side else plain).append(op)
        i += 1
        next_op = sum(statistics.median(o.wall for o in ops) for ops in (plain, shadow) if ops)
        if time.perf_counter() - started + next_op > seconds:
            break

    ops = plain + shadow
    final = workload.finish()
    problems = [p for op in ops for p in op.problems] + final
    doc = {
        "correct": not problems,
        "attempted": sum(op.attempted for op in ops) + 1,
        "failed": sum(min(len(op.problems), op.attempted) for op in ops) + bool(final),
        "problems": problems[:20],
        "operations": len(plain),
        "digest": sha256("".join(op.digest for op in plain)),
        "digests": [op.digest for op in plain],
        "environment": environment(),
    }
    extra: dict[str, dict] = {}
    if plain[0].extra:
        hits = [h for op in plain for h in op.extra["hits"]]
        over = [o for op in plain for o in op.extra["overheads"]]
        extra["service.hit_latency_p50_s"] = metric(statistics.median(hits), "s", len(hits))
        extra["service.hit_latency_p90_s"] = metric(
            statistics.quantiles(hits, n=10)[-1], "s", len(hits)
        )
        extra["service.overhead_s"] = metric(statistics.median(over), "s", len(over))
        extra["service.store_hit_ratio"] = metric(
            len(hits) / (len(hits) + len(over)), "fraction"
        )
    # Throughput and latency of the untraced operations.  On a shared
    # host their run-to-run spread is wider than a 10% regression bound,
    # so they are per-layer metrics of the traced run (and ledger entries
    # of the untraced one), not end-to-end metrics.
    latencies = [t for o in plain for t in o.latencies]
    speed = {
        "locations_per_s": metric(
            statistics.median(o.locations / o.wall for o in plain), "locations/s"
        ),
        "runs_per_s": metric(statistics.median(o.runs / o.wall for o in plain), "runs/s"),
        "latency_p50_s": metric(statistics.median(latencies), "s", len(latencies)),
    }
    if not traced:
        doc["metrics"] = {"peak_rss_mb": metric(peak_rss_mb(), "MB")}
        extra = {**speed, **extra}
    else:
        common, other = layers.layer_metrics(
            metrics.snapshot(),
            wall_s=sum(o.wall for o in shadow),
            jobs=workload.jobs,
            shard_s=layers.shard_span_seconds(trace_path),
        )
        common["trace_overhead"] = metric(
            statistics.median(t.wall / p.wall for p, t in zip(plain, shadow)) - 1,
            "fraction", len(shadow),
        )
        doc["metrics"] = {**speed, **common}
        extra.update(other)
    doc["extra"] = extra
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phase", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced operation sizes (tests only)")
    args = parser.parse_args(argv)

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="e2e-work-", dir=OUT))
    workload = WORKLOADS[args.workload](args.seed, workdir, args.smoke)
    try:
        if args.phase == "setup":
            doc = time_setup(workload)
        else:
            doc = measure(workload, seconds=args.seconds, traced=bool(args.trace))
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    import repro

    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"repro was imported from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
