"""Dependency-free observability for the reproduction's long-running jobs.

The paper-scale artefacts — 80k-run fault campaigns, full fault-space
certification sweeps — are sharded, multi-process workloads that would
otherwise run dark.  This package gives them structured visibility with
stdlib-only machinery and **zero overhead when disabled**:

:mod:`repro.telemetry.trace`
    Span-based tracing: ``with trace.span("certify.lint", scheme=s):``
    context managers with monotonic timings, nested span ids, one JSON
    object per line in the sink file (JSONL).  Disabled (the default),
    ``trace.span`` returns a shared no-op object.  ``trace.bind``
    attaches per-request correlation fields (``request_id``) that stamp
    every record written by the bound thread and its pool workers.

:mod:`repro.telemetry.metrics`
    A process-local registry of counters, gauges and histograms with
    mergeable snapshots — worker processes return their snapshot with
    each shard result and the supervisor folds it into the parent
    registry.  :func:`~repro.telemetry.metrics.render_prometheus`
    renders any snapshot as Prometheus text exposition for the service's
    ``/metrics`` endpoint.

:mod:`repro.telemetry.progress`
    Shard-granular progress with throughput and ETA, rendered live on an
    interactive TTY and as one plain summary line everywhere else
    (``REPRO_PROGRESS=0`` disables, ``=1`` forces; ``NO_COLOR``
    downgrades to plain), mirrored as ``progress`` events into the
    trace, and published to a request-keyed live board that the service
    daemon's ``GET /status`` reads.

:mod:`repro.telemetry.manifest`
    The run manifest: backend, worker count, seed, git revision,
    python/numpy versions, hostname and CPU model — attached to campaign
    checkpoints, certificates and every ``benchmarks/out/BENCH_*.json``.

:mod:`repro.telemetry.stats`
    The offline report of a recorded trace (``repro trace analyze FILE
    [--request ID]``): one summarizer and one renderer for a whole trace
    or one request — span table, critical path, slowest shards, and the
    selected request's span tree.

:mod:`repro.telemetry.history`
    The benchmark-history ledger and perf-regression sentinel behind
    ``repro bench history`` / ``repro bench check``: every
    ``bench_report`` emission appends one JSONL line; the check compares
    each series' newest run against a rolling median ± MAD noise band.

``trace`` and ``metrics`` are imported eagerly (their names are also the
names of their modules, and every layer uses them); the progress,
manifest and history names load on first use.
"""

from repro.telemetry.metrics import (
    MetricsRegistry,
    metrics,
    render_prometheus,
)
from repro.telemetry.trace import Tracer, trace
from repro.utils.lazy import lazy_exports

__all__ = [
    "MetricsRegistry",
    "ProgressTracker",
    "Tracer",
    "append_entry",
    "bench_check",
    "clear_live",
    "config_digest",
    "cpu_model",
    "eta_seconds",
    "live_progress",
    "load_history",
    "metrics",
    "publish_live",
    "render_prometheus",
    "resolve_history_path",
    "run_manifest",
    "trace",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "append_entry": "repro.telemetry.history",
        "bench_check": "repro.telemetry.history:check",
        "clear_live": "repro.telemetry.progress",
        "config_digest": "repro.telemetry.history",
        "cpu_model": "repro.telemetry.manifest",
        "eta_seconds": "repro.telemetry.progress",
        "live_progress": "repro.telemetry.progress",
        "load_history": "repro.telemetry.history",
        "ProgressTracker": "repro.telemetry.progress",
        "publish_live": "repro.telemetry.progress",
        "resolve_history_path": "repro.telemetry.history",
        "run_manifest": "repro.telemetry.manifest",
    },
)
