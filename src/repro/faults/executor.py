"""Resilient sharded execution of long sweeps: a shard supervisor.

Paper-scale workloads — 80,000-run fault campaigns, certify sweeps over a
whole fault space — are exactly the ones that die to an OOM kill, a ^C,
or a flaky node, losing everything.  :func:`run_sharded` executes any
picklable ``task(lo, hi) -> {name: array}`` over deterministic *shards*
(contiguous index ranges) through a supervised worker pool.  It knows no
workload: the task, the ranges, the checkpoint identity and the array
names come from its two clients, :func:`repro.faults.campaign.run_campaign`
and :func:`repro.certify.certifier.certify_design`.

- **Determinism** — a task's output must depend only on its range; both
  clients key their randomness per block of runs (see
  :func:`repro.faults.campaign.run_range`), so the merged result is
  bit-identical to a single-shot run regardless of shard size, worker
  count, or how many times the sweep was interrupted and resumed.
- **Checkpointing** — with a ``checkpoint_dir``, the sweep writes its
  manifest once and each finished shard as one atomic, self-validating
  ``.npz`` (:mod:`repro.faults.checkpoint`); ``resume=True`` adopts the
  shards whose archives validate against their range, their digest and
  the campaign, and recomputes the rest.  A manifest that fails its own
  checksum is *recovered from* (a fresh manifest), never a crash.
- **Supervision** — shards get a wall-clock ``timeout`` (enforced with
  ``SIGALRM`` inside the worker where available; degrading to untimed
  execution with a one-time warning elsewhere), a supervisor-side
  heartbeat declares hung workers dead past ``hang_deadline`` and
  restarts the pool, transient failures are retried with jittered
  exponential backoff, and a broken process pool is rebuilt and the lost
  shards resubmitted.
- **Quarantine, not abort** — a shard that exhausts its retries is
  *quarantined*: its typed :class:`~repro.resilience.errors.ErrorKind`,
  attempt count and last error go to ``ShardedRun.failures`` and, with a
  checkpoint, to the shard's ``.failed.json`` record (whose attempt count
  a resume continues from), and it is dropped from the merge.  The sweep
  completes with the surviving shards (a campaign sets
  ``result.partial``) instead of dying at 99%.
- **Graceful degradation** — an optional global ``wall_budget`` stops
  scheduling new shards once spent; what ran is merged, what did not
  has no shard file yet, and the run is flagged ``budget_exhausted`` so
  callers (the certifier) can emit explicitly degraded artefacts.
- **Chaos-tested** — the execution sites are instrumented with
  :data:`repro.resilience.chaos.chaos` hooks (worker crash/raise/hang,
  checkpoint corruption, duplicated results); ``tests/test_chaos.py``
  holds this module to the paper's own standard.

The process pool uses ``concurrent.futures.ProcessPoolExecutor``; tasks
that cannot be pickled (or ``jobs=1``) fall back to in-process serial
execution with the same checkpoint/retry semantics.

A process imports only what it runs.  This module holds the public names
and :func:`run_sharded`; the supervisor behind it lives in
:mod:`repro.faults._supervisor` and loads with the first sweep.  A serial
in-process campaign imports this module for its config alone, so it never
loads the supervisor, ``logging``, ``traceback``, the chaos hooks, the
error taxonomy, the progress board or the checkpoint store.  Within a
sweep the checkpoint store loads only when a ``checkpoint_dir`` is set,
``signal`` only when a shard timeout is, and ``pickle``,
``concurrent.futures`` and ``multiprocessing`` only when a pool starts.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.telemetry import metrics, trace

if TYPE_CHECKING:
    from repro.countermeasures.base import ProtectedDesign

__all__ = [
    "ExecutorConfig",
    "ShardTimeout",
    "ShardedRun",
    "prewarm_backend",
    "run_sharded",
]

#: Test/instrumentation hook: called as ``hook(shard_index, attempt)``
#: inside the shard's timeout guard, before the shard's work starts.
ShardHook = Callable[[int, int], None]

#: A shard's work: ``task(lo, hi) -> {name: array}`` where every array's
#: leading dimension is ``hi - lo``.  Must be picklable for ``jobs > 1``
#: (build it with :func:`functools.partial` over a module-level function).
ShardTask = Callable[[int, int], dict[str, np.ndarray]]


class ShardTimeout(RuntimeError):
    """A shard exceeded its wall-clock budget."""


@dataclass(frozen=True)
class ExecutorConfig:
    """Knobs of the sharded executor (see module docstring)."""

    #: worker processes; 1 = in-process serial execution
    jobs: int = 1
    #: items per shard, the unit of IPC, checkpointing and retry.  Campaigns
    #: round it down to whole RNG blocks; the default is two campaign chunks
    #: (:data:`repro.faults.campaign.CHUNK`).  Other clients size their
    #: shards themselves.
    shard_runs: int = 8192
    #: directory for the manifest + shard archives; None disables checkpoints
    checkpoint_dir: object = None
    #: reuse verified shards from an existing checkpoint
    resume: bool = False
    #: per-shard wall-clock budget in seconds; None = unbounded
    timeout: float | None = None
    #: how many times a failing shard is re-attempted
    retries: int = 2
    #: base of the exponential backoff between attempts (seconds)
    backoff: float = 0.5
    #: supervisor poll interval for the pool heartbeat (seconds)
    heartbeat: float = 0.5
    #: supervisor-side per-shard deadline after which a worker is declared
    #: hung and the pool restarted; None derives ``2 * timeout + 5`` when a
    #: timeout is set (hangs that defeat SIGALRM), else disabled
    hang_deadline: float | None = None
    #: global wall-clock budget for the whole sweep; once spent, no new
    #: shards are scheduled and the run degrades gracefully
    wall_budget: float | None = None
    #: zero-argument picklable callable run once per worker (in the pool
    #: initializer, and once before the serial loop) to pay one-time setup
    #: cost — e.g. compiled-backend codegen — *outside* any shard's timeout
    #: window; re-runs automatically in every fresh worker after a pool
    #: restart.  None = no pre-warm.
    prewarm: object = None

    @property
    def effective_hang_deadline(self) -> float | None:
        if self.hang_deadline is not None:
            return self.hang_deadline
        if self.timeout is not None and self.timeout > 0:
            return 2.0 * self.timeout + 5.0
        return None

    def subdir(self, *names: str) -> ExecutorConfig:
        """This config with its checkpoints under ``checkpoint_dir/names``.

        A checkpoint directory holds one workload, so a caller that runs
        several (one per scheme, one per matrix cell) gives each its own.
        """
        if self.checkpoint_dir is None:
            return self
        return replace(self, checkpoint_dir=Path(self.checkpoint_dir, *names))

    def prewarming(self, design: ProtectedDesign) -> ExecutorConfig:
        """This config, pre-warming ``design``'s kernel unless it already
        sets a ``prewarm``."""
        if self.prewarm is not None:
            return self
        return replace(self, prewarm=functools.partial(prewarm_backend, design))


def prewarm_backend(design: ProtectedDesign, backend: str | None = None) -> None:
    """Compile ``design``'s kernel schedule/program for ``backend`` now.

    ``None`` resolves when the call runs, so a pool worker warms the
    kernel its simulators will use (``REPRO_SIM_BACKEND`` or the default).
    Module-level (hence picklable via :func:`functools.partial`) so it can
    ride in the pool-worker init payload: the compiled backend's AOT
    codegen — the expensive case — happens once per worker process before
    the first shard starts its timeout clock, instead of inside it.
    """
    from repro.netlist.simulator import resolve_backend

    resolved = resolve_backend(backend)
    if resolved == "compiled":
        from repro.netlist.compiled import compile_program

        compile_program(design.circuit)
    elif resolved == "levelized":
        from repro.netlist.levelized import compile_schedule

        compile_schedule(design.circuit)


# ---------------------------------------------------------- generic entry


@dataclass
class ShardedRun:
    """What :func:`run_sharded` hands back to its caller."""

    #: shard index → the arrays its task returned (checkpoint-verified on
    #: resume); absent indices were quarantined or skipped after a stop
    results: dict[int, dict[str, np.ndarray]]
    #: one record per quarantined shard:
    #: index/lo/hi/attempts/error/error_kind/traceback
    failures: list[dict] = field(default_factory=list)
    #: the (lo, hi) range of every shard, by index
    ranges: list[tuple[int, int]] = field(default_factory=list)
    #: True when ``on_shard_done`` stopped the sweep before all shards ran
    stopped_early: bool = False
    #: True when the global wall budget ran out before all shards ran
    budget_exhausted: bool = False

    @property
    def complete(self) -> bool:
        return (
            not self.stopped_early
            and not self.budget_exhausted
            and len(self.results) == len(self.ranges)
        )

    @property
    def degraded(self) -> bool:
        """Shards were lost to quarantine or the wall budget."""
        return bool(self.failures) or self.budget_exhausted

    def merged(self, keys: Sequence[str]) -> dict[str, np.ndarray] | None:
        """Concatenate surviving shards in index order (None if nothing ran)."""
        survivors = sorted(self.results)
        if not survivors:
            return None
        return {
            k: np.concatenate([self.results[i][k] for i in survivors])
            for k in keys
        }


def run_sharded(
    task: ShardTask,
    ranges: Sequence[tuple[int, int]],
    *,
    config: ExecutorConfig | None = None,
    identity: dict | None = None,
    keys: tuple[str, ...],
    shard_hook: ShardHook | None = None,
    on_shard_done: Callable[[int, dict[str, np.ndarray]], object] | None = None,
    label: str = "sharded",
) -> ShardedRun:
    """Execute ``task`` over ``ranges`` with supervision and checkpoints.

    The workload-agnostic core of the executor: campaigns and the coverage
    certifier both shard through here.  ``identity`` pins checkpoints to
    one exact workload (resume refuses a mismatch with
    :class:`~repro.faults.checkpoint.CheckpointError`; a manifest that is
    torn or fails its checksum is recovered from with a fresh manifest);
    ``keys`` names the arrays each shard produces.
    ``on_shard_done(index, arrays)`` runs in the supervisor process after
    each shard completes (and is persisted) — returning a truthy value
    stops the sweep early, leaving the remaining shards unrun (the
    certifier's fail-fast).

    ``label`` names the workload in progress lines and trace records.
    Observability: the whole sweep runs inside an ``executor.run_sharded``
    span; every shard yields an ``executor.shard`` span (captured in the
    worker for pool runs) plus ``shard.done``/``shard.retry``/
    ``shard.quarantined`` events with attempt counts and tracebacks, and a
    live progress line with ETA is rendered on TTYs (``REPRO_PROGRESS=0``
    disables it).  Chaos injection (``REPRO_CHAOS``) is adopted here so
    every instrumented site below sees the schedule.
    """
    # The supervisor and its dependencies load with the first sweep, not
    # with this module: a serial campaign imports it for its config alone.
    from repro.faults._supervisor import _Supervisor
    from repro.resilience.chaos import chaos
    from repro.telemetry.progress import ProgressTracker

    config = config or ExecutorConfig()
    chaos.configure_from_env()
    ranges = list(ranges)
    total_units = sum(hi - lo for lo, hi in ranges)
    progress = ProgressTracker(
        total_units, label=label, total_items=len(ranges), unit="units"
    )
    supervisor = _Supervisor(
        task,
        ranges=ranges,
        config=config,
        shard_hook=shard_hook,
        on_shard_done=on_shard_done,
        progress=progress,
    )
    started = time.perf_counter()
    with trace.span(
        "executor.run_sharded",
        label=label,
        shards=len(ranges),
        units=total_units,
        jobs=config.jobs,
    ):
        if config.checkpoint_dir is not None and ranges:
            supervisor.open_store(identity, keys)
        pending = [i for i in range(len(ranges)) if i not in supervisor.results]
        if config.jobs > 1 and len(pending) > 1:
            supervisor.run_pool(pending)
        else:
            supervisor.run_serial(pending)
        progress.finish()

    elapsed = time.perf_counter() - started
    done_units = sum(
        ranges[i][1] - ranges[i][0] for i in supervisor.results
    )
    if elapsed > 0:
        metrics.set("executor.runs_per_second", done_units / elapsed)
    return ShardedRun(
        results=supervisor.results,
        failures=[supervisor.failures[i] for i in sorted(supervisor.failures)],
        ranges=ranges,
        stopped_early=supervisor.stopped,
        budget_exhausted=supervisor.budget_exhausted,
    )
