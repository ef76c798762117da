"""Telemetry's zero-overhead-by-default contract, measured.

A disabled tracer hands every ``trace.span(...)`` caller the shared
:data:`~repro.telemetry.trace.NULL_SPAN`, and the simulation kernels carry
no instrumentation of their own.  This bench prices the null-span
round-trip against one kernel cycle and enforces the acceptance bound
from the telemetry design: with tracing disabled, instrumentation costs
**< 2%** of a levelized protected-PRESENT-80 cycle.
"""

import time

from benchmarks.conftest import bench_report, emit
from repro.ciphers.netlist_present import PresentSpec
from repro.countermeasures import build_three_in_one
from repro.rng import make_rng, random_ints
from repro.telemetry import trace
from repro.telemetry.trace import NULL_SPAN

BATCH = 4096
OVERHEAD_CEILING = 0.02  # disabled-path cost budget: 2% of one kernel cycle
CHECK_CALLS = 50_000


def _per_cycle_seconds(design, repeats: int = 5) -> float:
    """Best-of-``repeats`` seconds per simulated cycle, telemetry off."""
    rng = make_rng(3)
    sim = design.simulator(BATCH, backend="levelized")
    sim.set_input_ints("plaintext", random_ints(rng, BATCH, design.spec.block_bits))
    sim.run(design.cycles)  # warm-up: compile the schedule, page buffers
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        sim.run(design.cycles)
        best = min(best, time.perf_counter() - t0)
    return best / design.cycles


def _per_call_seconds(fn, calls: int = CHECK_CALLS) -> float:
    fn()  # warm-up
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t0) / calls


def test_disabled_telemetry_overhead(artifact_dir):
    assert not trace.enabled
    assert trace.span("bench.probe", attr=1) is NULL_SPAN

    design = build_three_in_one(PresentSpec())
    cycle_s = _per_cycle_seconds(design)
    span_s = _per_call_seconds(_null_span_probe)

    # campaign code opens a handful of spans per *shard*, so one NULL_SPAN
    # round-trip per cycle is already a generous over-estimate of its
    # amortised cost
    overhead = span_s / cycle_s
    assert overhead < OVERHEAD_CEILING, (
        f"disabled telemetry costs {overhead:.2%} of a levelized cycle "
        f"(budget {OVERHEAD_CEILING:.0%}): "
        f"null span={span_s * 1e9:.0f}ns, cycle={cycle_s * 1e6:.0f}us"
    )

    emit(
        artifact_dir,
        "telemetry_overhead.txt",
        (
            f"disabled-telemetry overhead on the levelized kernel: "
            f"{overhead:.4%} of one batch-{BATCH} cycle "
            f"(null span {span_s * 1e9:.0f} ns vs cycle "
            f"{cycle_s * 1e6:.1f} us; "
            f"budget {OVERHEAD_CEILING:.0%})"
        ),
    )
    bench_report(
        artifact_dir,
        "telemetry_overhead",
        config={"batch": BATCH, "ceiling": OVERHEAD_CEILING, "check_calls": CHECK_CALLS},
        metrics={
            "cycle_seconds": round(cycle_s, 9),
            "null_span_seconds": round(span_s, 12),
            "overhead_fraction": round(overhead, 6),
        },
    )


def _null_span_probe():
    with trace.span("bench.noop", x=1):
        pass

