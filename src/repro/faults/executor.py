"""Resilient sharded execution of fault campaigns (and other sweeps).

:func:`repro.faults.campaign.run_campaign` is a fine single-shot loop, but
the paper-scale campaigns (80,000 runs × several designs × several specs)
are exactly the workloads that die to an OOM kill, a ^C, or a flaky node —
losing everything.  This module decomposes a workload into deterministic
*shards* (contiguous index ranges) and executes them through a supervised
worker pool:

- **Determinism** — every shard draws its randomness from per-block
  substreams keyed by ``(campaign_seed, block_index)`` (see
  :func:`repro.faults.campaign.run_range`), so the merged result is
  bit-identical to a single-shot run regardless of shard size, worker
  count, or how many times the campaign was interrupted and resumed.
- **Checkpointing** — with a ``checkpoint_dir``, each finished shard is
  persisted atomically as an ``.npz`` plus a JSON manifest entry
  (:mod:`repro.faults.checkpoint`); ``resume=True`` skips shards whose
  checkpoint verifies against its digest and recomputes the rest.  A
  manifest that fails its own checksum is *recovered from* (fresh ledger,
  full recompute), never a crash.
- **Supervision** — shards get a wall-clock ``timeout`` (enforced with
  ``SIGALRM`` inside the worker where available; degrading to untimed
  execution with a one-time warning elsewhere), a supervisor-side
  heartbeat declares hung workers dead past ``hang_deadline`` and
  restarts the pool, transient failures are retried with jittered
  exponential backoff, and a broken process pool is rebuilt and the lost
  shards resubmitted.
- **Quarantine, not abort** — a shard that exhausts its retries is
  *quarantined*: recorded in the manifest with its typed
  :class:`~repro.resilience.errors.ErrorKind`, attempt count and last
  error, and dropped from the merge.  The campaign completes with the
  surviving shards and ``result.partial`` set, instead of dying at 99%.
- **Graceful degradation** — an optional global ``wall_budget`` stops
  scheduling new shards once spent; what ran is merged, what did not
  stays ``pending`` in the manifest, and the run is flagged
  ``budget_exhausted`` so callers (the certifier) can emit explicitly
  degraded artefacts.
- **Chaos-tested** — the execution sites are instrumented with
  :data:`repro.resilience.chaos.chaos` hooks (worker crash/raise/hang,
  checkpoint corruption, duplicated results); ``tests/test_chaos.py``
  holds this module to the paper's own standard.

Two entry points share all of that machinery: :func:`run_campaign_sharded`
runs one fault campaign (the original API), while the generic
:func:`run_sharded` executes any picklable ``task(lo, hi) -> arrays``
over arbitrary index ranges — the coverage certifier shards its sweep of
the fault space through it.

The process pool uses ``concurrent.futures.ProcessPoolExecutor``; tasks
that cannot be pickled (or ``jobs=1``) fall back to in-process serial
execution with the same checkpoint/retry semantics.  ``concurrent.futures``
and ``multiprocessing`` are imported only when a pool starts, so a serial
process never loads them.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import pickle
import signal
import threading
import time
import traceback as traceback_module
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro.countermeasures.base import ProtectedDesign
from repro.faults.campaign import CHUNK, RNG_BLOCK, CampaignResult, run_range
from repro.faults.checkpoint import SHARD_KEYS, CheckpointCorrupt, CheckpointStore
from repro.faults.classification import classify
from repro.faults.models import FaultSpec
from repro.resilience.chaos import chaos
from repro.resilience.errors import ShardHang, classify_error
from repro.telemetry import ProgressTracker, metrics, trace

log = logging.getLogger(__name__)

__all__ = [
    "ExecutorConfig",
    "ShardTimeout",
    "ShardedRun",
    "campaign_identity",
    "prewarm_backend",
    "run_campaign_sharded",
    "run_sharded",
]

#: Test/instrumentation hook: called as ``hook(shard_index, attempt)``
#: inside the shard's timeout guard, before the shard's work starts.
ShardHook = Callable[[int, int], None]

#: A shard's work: ``task(lo, hi) -> {name: array}`` where every array's
#: leading dimension is ``hi - lo``.  Must be picklable for ``jobs > 1``
#: (build it with :func:`functools.partial` over a module-level function).
ShardTask = Callable[[int, int], dict[str, np.ndarray]]


#: fraction of jitter on the retry backoff (thundering-herd damping)
BACKOFF_JITTER = 0.25


class ShardTimeout(RuntimeError):
    """A shard exceeded its wall-clock budget."""


@dataclass(frozen=True)
class ExecutorConfig:
    """Knobs of the sharded executor (see module docstring)."""

    #: worker processes; 1 = in-process serial execution
    jobs: int = 1
    #: runs per shard (rounded down to a multiple of ``RNG_BLOCK``): the
    #: unit of IPC, checkpointing and retry, two default chunks
    shard_runs: int = 8192
    #: simulator batch bound inside a shard, in lanes; a shard runs as
    #: ``ceil(shard_runs / chunk)`` chunks (memory knob, never affects
    #: bits; see :data:`repro.faults.campaign.CHUNK`)
    chunk: int = CHUNK
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


#: once-per-process latch for the "timeout unavailable" degradation warning
_timeout_warned = False


@contextlib.contextmanager
def _deadline(seconds: float | None):
    """Raise :class:`ShardTimeout` if the body runs longer than ``seconds``.

    Uses ``SIGALRM``/``setitimer``, which works in the main thread of both
    the supervisor process (serial path) and pool worker processes (tasks
    run in the worker's main thread).  Where that is unavailable — off the
    main thread, or on a platform without ``SIGALRM`` (Windows) — a
    requested timeout degrades to untimed execution with a one-time
    warning rather than crashing or being silently dropped.  (The
    supervisor's heartbeat ``hang_deadline`` is the second, independent
    guard for pool runs.)
    """
    global _timeout_warned
    if seconds is None or seconds <= 0:
        yield
        return
    usable = (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        if not _timeout_warned:
            _timeout_warned = True
            log.warning(
                "shard timeout of %ss requested but SIGALRM is not usable "
                "here (platform without it, or not the main thread); shards "
                "will run without a wall-clock guard",
                seconds,
            )
            trace.event(
                "executor.timeout_degraded", timeout_s=seconds, reason="no SIGALRM"
            )
        yield
        return

    def _fire(signum, frame):
        raise ShardTimeout(f"shard exceeded its {seconds}s wall-clock budget")

    previous = signal.signal(signal.SIGALRM, _fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def campaign_identity(
    design: ProtectedDesign,
    specs: Sequence[FaultSpec],
    *,
    key: int,
    seed: int,
    n_runs: int,
    shard_runs: int,
) -> dict:
    """The manifest fields that pin a checkpoint to one exact campaign."""
    return {
        "scheme": design.scheme,
        "variant": design.variant,
        "block_bits": design.spec.block_bits,
        "key": str(key),
        "seed": seed,
        "n_runs": n_runs,
        "shard_runs": shard_runs,
        "specs": [s.to_dict() for s in specs],
    }


def _campaign_task(
    design: ProtectedDesign,
    specs: list[FaultSpec],
    key: int,
    seed: int,
    chunk: int,
    backend: str | None,
    lo: int,
    hi: int,
) -> dict[str, np.ndarray]:
    """Shard task of a fault campaign: simulate runs ``[lo, hi)``."""
    arrays = run_range(
        design, specs, key=key, seed=seed, lo=lo, hi=hi, chunk=chunk,
        backend=backend,
    )
    return dict(zip(SHARD_KEYS, arrays))


# ----------------------------------------------------------- pool workers

_WORKER_CTX: dict = {}


def _worker_init(payload: bytes) -> None:
    ctx = pickle.loads(payload)
    _WORKER_CTX["ctx"] = ctx
    # apply the parent's chaos schedule in this worker process (fork
    # inherits it, but spawn-based pools start from clean state)
    chaos.configure(ctx[4])
    _run_prewarm(ctx[5])


def _run_prewarm(prewarm) -> None:
    """Pay one-time setup (e.g. codegen) outside any shard's timeout window."""
    if prewarm is None:
        return
    started = time.perf_counter()
    try:
        prewarm()
    except Exception as exc:
        # A failed pre-warm never kills the worker: the shard simply pays
        # the setup cost (or surfaces the real error) inside its own guard.
        log.warning("executor pre-warm failed (%s: %s)", type(exc).__name__, exc)
        trace.event("executor.prewarm_failed", error=f"{type(exc).__name__}: {exc}")
    else:
        metrics.observe("executor.prewarm_s", time.perf_counter() - started)


def prewarm_backend(design: ProtectedDesign, backend: str | None) -> None:
    """Compile ``design``'s kernel schedule/program for ``backend`` now.

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


def _worker_shard(index: int, lo: int, hi: int, attempt: int):
    task, timeout, hook, tele, _, _ = _WORKER_CTX["ctx"]
    if not tele.get("capture"):
        with _deadline(timeout):
            chaos.at("worker", index=index, attempt=attempt, in_worker=True)
            if hook is not None:
                hook(index, attempt)
            return index, task(lo, hi), None
    # Tracing is on in the supervisor: record this shard's spans and
    # metrics into buffers and ship them home with the arrays — workers
    # never touch the sink file.
    metrics.reset()
    with trace.bind(**(tele.get("ctx") or {})), trace.capture() as records:
        with trace.span("executor.shard", shard=index, lo=lo, hi=hi, attempt=attempt):
            with _deadline(timeout):
                chaos.at("worker", index=index, attempt=attempt, in_worker=True)
                if hook is not None:
                    hook(index, attempt)
                arrays = task(lo, hi)
    return index, arrays, {"records": records, "metrics": metrics.snapshot()}


# ------------------------------------------------------------- supervisor


class _Supervisor:
    """Drives shard execution: retries, backoff, quarantine, checkpoints."""

    def __init__(
        self,
        task: ShardTask,
        *,
        ranges: list[tuple[int, int]],
        config: ExecutorConfig,
        store: CheckpointStore | None,
        shard_hook: ShardHook | None,
        on_shard_done: Callable[[int, dict[str, np.ndarray]], object] | None,
        progress: ProgressTracker | None = None,
    ) -> None:
        self.task = task
        self.ranges = ranges
        self.config = config
        self.store = store
        self.shard_hook = shard_hook
        self.on_shard_done = on_shard_done
        self.progress = progress
        self.results: dict[int, dict[str, np.ndarray]] = {}
        self.failures: dict[int, dict] = {}
        #: attempt counts; seeded from the checkpoint ledger on resume so
        #: the retry budget survives interruption instead of resetting
        self.attempts: dict[int, int] = {}
        #: set once ``on_shard_done`` asks to stop (fail-fast); remaining
        #: shards are left pending, never marked failed
        self.stopped = False
        #: set once the global wall budget runs out (graceful degradation)
        self.budget_exhausted = False
        self._started = time.monotonic()

    # -- shared bookkeeping

    def _budget_spent(self) -> bool:
        """True once the global wall budget is exhausted (latches + logs)."""
        budget = self.config.wall_budget
        if budget is None:
            return False
        if self.budget_exhausted:
            return True
        if time.monotonic() - self._started >= budget:
            self.budget_exhausted = True
            pending = len(self.ranges) - len(self.results) - len(self.failures)
            log.warning(
                "global wall budget of %ss exhausted; %d shard(s) left "
                "pending — degrading gracefully to a partial result",
                budget, pending,
            )
            trace.event(
                "executor.budget_exhausted", budget_s=budget, pending=pending
            )
            metrics.inc("executor.budget_exhausted")
            return True
        return False

    def _advance(self, index: int, status: str) -> None:
        """Count a shard (succeeded or quarantined) as processed."""
        lo, hi = self.ranges[index]
        if self.progress is not None:
            snap = self.progress.advance(hi - lo, shard=index, status=status)
        else:
            snap = {}
        trace.event(
            "shard.done",
            shard=index,
            lo=lo,
            hi=hi,
            status=status,
            attempts=self.attempts.get(index, 0),
            eta_s=snap.get("eta_s"),
        )

    def _succeed(
        self, index: int, arrays: dict[str, np.ndarray], _replayed: bool = False
    ) -> None:
        chaos.should("supervisor.result", "delay", index=index)
        if index in self.results:
            # A delayed/duplicated delivery (pool races, chaos): the first
            # result is canonical — the shard is deterministic, so the
            # duplicate is identical; drop it with a structured event.
            metrics.inc("executor.duplicate_results_ignored")
            trace.event("shard.duplicate_result", shard=index)
            return
        self.results[index] = arrays
        metrics.inc("executor.shards_completed")
        if self.store is not None:
            self.store.shards[index].attempts = self.attempts[index]
            self.store.write_shard(index, arrays)
        self._advance(index, "done")
        if self.on_shard_done is not None and self.on_shard_done(index, arrays):
            self.stopped = True
        if not _replayed and chaos.should(
            "supervisor.result", "duplicate", index=index
        ):
            self._succeed(index, arrays, _replayed=True)

    def _quarantine(self, index: int, exc: BaseException) -> None:
        """Retries exhausted: record a structured, typed failure and move on."""
        lo, hi = self.ranges[index]
        kind = classify_error(exc)
        message = f"{type(exc).__name__}: {exc}"
        tb = "".join(traceback_module.format_exception(exc))
        self.failures[index] = {
            "index": index,
            "lo": lo,
            "hi": hi,
            "attempts": self.attempts[index],
            "error": message,
            "error_kind": str(kind),
            "traceback": tb,
        }
        metrics.inc("executor.shards_failed")
        metrics.inc("executor.shards_quarantined")
        log.error(
            "shard %d (runs [%d, %d)) quarantined after %d attempt(s) "
            "[%s]: %s\n%s",
            index, lo, hi, self.attempts[index], kind, message, tb,
        )
        trace.event(
            "shard.quarantined",
            shard=index,
            lo=lo,
            hi=hi,
            attempts=self.attempts[index],
            error=message,
            error_kind=str(kind),
            traceback=tb,
        )
        if self.store is not None:
            self.store.mark_quarantined(
                index, message, self.attempts[index], str(kind)
            )
        self._advance(index, "quarantined")

    def _should_retry(self, index: int, exc: BaseException) -> bool:
        """Record the attempt; True → back off and try again."""
        if self.attempts[index] > self.config.retries:
            self._quarantine(index, exc)
            return False
        metrics.inc("executor.shards_retried")
        log.warning(
            "shard %d attempt %d failed (%s: %s); retrying",
            index, self.attempts[index], type(exc).__name__, exc,
        )
        trace.event(
            "shard.retry",
            shard=index,
            attempt=self.attempts[index],
            error=f"{type(exc).__name__}: {exc}",
            error_kind=str(classify_error(exc)),
            traceback="".join(traceback_module.format_exception(exc)),
        )
        time.sleep(self._backoff_delay(index))
        return True

    def _backoff_delay(self, index: int) -> float:
        """Exponential backoff with deterministic jitter.

        The jitter fraction is a pure hash of (shard, attempt) so delays
        de-synchronise across shards without nondeterministic state.
        """
        cfg = self.config
        base = cfg.backoff * (2 ** (self.attempts[index] - 1))
        if base <= 0:
            return base
        frac = ((index * 2654435761 + self.attempts[index] * 40503) % 1000) / 1000
        return base * (1.0 + BACKOFF_JITTER * frac)

    def _ingest(self, payload: dict | None) -> None:
        """Fold a worker shard's captured telemetry into this process."""
        if payload:
            trace.ingest(payload.get("records"))
            metrics.merge(payload.get("metrics") or {})

    # -- serial path

    def run_serial(self, pending: list[int]) -> None:
        if pending:
            _run_prewarm(self.config.prewarm)
        for index in pending:
            if self.stopped or self._budget_spent():
                return
            lo, hi = self.ranges[index]
            self.attempts.setdefault(index, 0)
            while True:
                self.attempts[index] += 1
                try:
                    with trace.span(
                        "executor.shard",
                        shard=index, lo=lo, hi=hi, attempt=self.attempts[index],
                    ), _deadline(self.config.timeout):
                        chaos.at(
                            "worker", index=index,
                            attempt=self.attempts[index], in_worker=False,
                        )
                        if self.shard_hook is not None:
                            self.shard_hook(index, self.attempts[index])
                        arrays = self.task(lo, hi)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:
                    if self._should_retry(index, exc):
                        continue
                    break
                else:
                    self._succeed(index, arrays)
                    break

    # -- pool path

    def _kill_pool(self, pool: ProcessPoolExecutor) -> None:
        """Forcibly terminate a pool whose workers are hung.

        ``shutdown(cancel_futures=True)`` cannot interrupt a worker stuck
        in C code or an unkillable sleep, so the supervisor terminates the
        worker processes directly (stdlib keeps them in ``_processes``).
        """
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.terminate()
            except (OSError, AttributeError):
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def run_pool(self, pending: list[int]) -> None:
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
        from concurrent.futures.process import BrokenProcessPool

        cfg = self.config
        tele = {
            "capture": trace.enabled,
            # the supervisor thread's correlation fields (request_id, ...)
            # travel to workers so captured shard spans stay attributable
            "ctx": dict(trace.context()),
        }
        try:
            payload = pickle.dumps(
                (
                    self.task, cfg.timeout, self.shard_hook, tele, chaos.spec,
                    cfg.prewarm,
                )
            )
        except Exception as exc:
            log.warning(
                "sharded executor: task not picklable (%s); falling back to "
                "serial execution", exc,
            )
            trace.event("executor.serial_fallback", error=str(exc))
            self.run_serial(pending)
            return

        hang_deadline = cfg.effective_hang_deadline
        queue = list(pending)
        for index in queue:
            self.attempts.setdefault(index, 0)
        in_flight: dict = {}
        started_at: dict = {}
        pool: ProcessPoolExecutor | None = None
        try:
            while (queue and not self.stopped and not self._budget_spent()) \
                    or in_flight:
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=cfg.jobs,
                        initializer=_worker_init,
                        initargs=(payload,),
                    )
                # Bounded submission: at most one in-flight shard per
                # worker, so a submitted future is a *running* future and
                # the heartbeat's hang clock measures actual run time.
                while (
                    queue
                    and not self.stopped
                    and len(in_flight) < cfg.jobs
                    and not self._budget_spent()
                ):
                    index = queue.pop(0)
                    self.attempts[index] += 1
                    lo, hi = self.ranges[index]
                    fut = pool.submit(
                        _worker_shard, index, lo, hi, self.attempts[index]
                    )
                    in_flight[fut] = index
                    started_at[fut] = time.monotonic()
                if not in_flight:
                    continue
                poll = (
                    cfg.heartbeat
                    if hang_deadline or cfg.wall_budget is not None
                    else None
                )
                done, _ = wait(
                    in_flight, timeout=poll, return_when=FIRST_COMPLETED
                )
                pool_broken = False
                for fut in done:
                    index = in_flight.pop(fut)
                    started_at.pop(fut, None)
                    try:
                        _, arrays, shard_telemetry = fut.result()
                    except BrokenProcessPool as exc:
                        pool_broken = True
                        if self._should_retry(index, exc):
                            queue.append(index)
                    except Exception as exc:
                        if self._should_retry(index, exc):
                            queue.append(index)
                    else:
                        self._ingest(shard_telemetry)
                        self._succeed(index, arrays)
                if not pool_broken and hang_deadline:
                    now = time.monotonic()
                    hung = [
                        fut for fut, t0 in started_at.items()
                        if fut in in_flight and now - t0 >= hang_deadline
                    ]
                    if hung:
                        # Heartbeat verdict: these workers blew well past
                        # every deadline — declare the pool dead, requeue.
                        pool_broken = True
                        indices = sorted(in_flight[f] for f in hung)
                        log.warning(
                            "heartbeat: shard(s) %s hung past the %.1fs "
                            "deadline; restarting the worker pool",
                            indices, hang_deadline,
                        )
                        trace.event(
                            "executor.pool_hung",
                            shards=indices,
                            hang_deadline_s=hang_deadline,
                        )
                        metrics.inc("executor.pools_restarted")
                        self._kill_pool(pool)
                        for fut in hung:
                            index = in_flight.pop(fut)
                            started_at.pop(fut, None)
                            exc = ShardHang(
                                f"worker hung past the {hang_deadline:.1f}s "
                                f"heartbeat deadline"
                            )
                            if self._should_retry(index, exc):
                                queue.append(index)
                if pool_broken:
                    # The pool is unusable: every in-flight shard was lost
                    # with it.  Re-queue (or quarantine) them and start a
                    # new pool.
                    for fut, index in list(in_flight.items()):
                        exc = BrokenProcessPool("worker pool died mid-shard")
                        if self._should_retry(index, exc):
                            queue.append(index)
                    in_flight.clear()
                    started_at.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = None
        finally:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)


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
    keys: tuple[str, ...] = SHARD_KEYS,
    shard_hook: ShardHook | None = None,
    on_shard_done: Callable[[int, dict[str, np.ndarray]], object] | None = None,
    label: str = "sharded",
) -> ShardedRun:
    """Execute ``task`` over ``ranges`` with supervision and checkpoints.

    The workload-agnostic core of the executor: campaigns and the coverage
    certifier both shard through here.  ``identity`` pins checkpoints to
    one exact workload (resume refuses a mismatch with
    :class:`~repro.faults.checkpoint.CheckpointError`; a manifest that is
    torn or fails its checksum is recovered from with a fresh ledger);
    ``keys`` names the arrays each shard produces.
    ``on_shard_done(index, arrays)`` runs in the supervisor process after
    each shard completes (and is persisted) — returning a truthy value
    stops the sweep early, leaving the remaining shards ``pending`` in the
    manifest (the certifier's fail-fast).

    ``label`` names the workload in progress lines and trace records.
    Observability: the whole sweep runs inside an ``executor.run_sharded``
    span; every shard yields an ``executor.shard`` span (captured in the
    worker for pool runs) plus ``shard.done``/``shard.retry``/
    ``shard.quarantined`` events with attempt counts and tracebacks, and a
    live progress line with ETA is rendered on TTYs (``REPRO_PROGRESS=0``
    disables it).  Chaos injection (``REPRO_CHAOS``) is adopted here so
    every instrumented site below sees the schedule.
    """
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
        store=None,
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
            store = CheckpointStore(config.checkpoint_dir, keys=keys)
            if config.resume and store.exists:
                try:
                    store.load(identity)
                except CheckpointCorrupt as exc:
                    # A torn/bit-rotted ledger holds no trustworthy state:
                    # recover by starting fresh (every shard recomputes
                    # deterministically) instead of refusing the resume.
                    log.warning(
                        "checkpoint manifest unusable (%s); starting a "
                        "fresh ledger and recomputing", exc,
                    )
                    trace.event("checkpoint.recovered", error=str(exc))
                    metrics.inc("checkpoint.manifests_recovered")
                    store.create(identity or {}, ranges)
                else:
                    for index, record in store.shards.items():
                        # the retry ledger survives the interruption: a
                        # resumed shard continues its attempt budget
                        supervisor.attempts[index] = record.attempts
                        arrays = store.read_shard(index)
                        if arrays is not None:
                            supervisor.results[index] = arrays
                            lo, hi = ranges[index]
                            progress.advance(
                                hi - lo, shard=index, status="resumed"
                            )
                        else:
                            # missing/corrupt archive or a previously
                            # quarantined shard: recompute it
                            # (deterministically) this time
                            if record.status == "done":
                                trace.event(
                                    "checkpoint.shard_corrupt", shard=index
                                )
                                metrics.inc("checkpoint.shards_recomputed")
                            record.status = "pending"
                            record.error = ""
                            record.error_kind = ""
                    store.flush()
            else:
                store.create(identity or {}, ranges)
            supervisor.store = store

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


def run_campaign_sharded(
    design: ProtectedDesign,
    specs: Sequence[FaultSpec],
    *,
    n_runs: int,
    key: int,
    seed: int = 1,
    flag_observable: bool | None = None,
    config: ExecutorConfig | None = None,
    shard_hook: ShardHook | None = None,
    backend: str | None = None,
) -> CampaignResult:
    """Run a campaign through the resilient sharded executor.

    Equivalent to :func:`repro.faults.campaign.run_campaign` (bit-identical
    arrays for the same ``(design, specs, key, seed, n_runs)``) but
    checkpointed, resumable and parallel; see the module docstring.
    ``shard_hook`` is an instrumentation point used by the tests to inject
    shard failures/delays; it must be picklable when ``jobs > 1``.
    ``backend`` selects the simulation kernel inside each shard; it is
    deliberately excluded from the checkpoint identity because backends
    are bit-exact — a campaign checkpointed under one backend may be
    resumed under the other.
    """
    from repro.countermeasures.base import RecoveryPolicy

    config = config or ExecutorConfig()
    if config.prewarm is None:
        config = replace(
            config, prewarm=functools.partial(prewarm_backend, design, backend)
        )
    if flag_observable is None:
        flag_observable = design.scheme != "triplication"
    infective = design.policy is RecoveryPolicy.INFECTIVE

    shard_runs = max(
        RNG_BLOCK, config.shard_runs - config.shard_runs % RNG_BLOCK
    )
    ranges = [
        (lo, min(lo + shard_runs, n_runs)) for lo in range(0, n_runs, shard_runs)
    ]
    task = functools.partial(
        _campaign_task, design, list(specs), key, seed, config.chunk, backend
    )
    identity = campaign_identity(
        design, specs, key=key, seed=seed, n_runs=n_runs, shard_runs=shard_runs
    )
    run = run_sharded(
        task, ranges, config=config, identity=identity, shard_hook=shard_hook,
        label=f"campaign[{design.scheme}]",
    )

    failures = run.failures
    if failures:
        lost = sum(f["hi"] - f["lo"] for f in failures)
        log.warning(
            "campaign completed partially: %d of %d shards quarantined "
            "(%d of %d runs lost); see result.extra['failed_shards']",
            len(failures), len(ranges), lost, n_runs,
        )
        trace.event(
            "campaign.partial",
            scheme=design.scheme,
            failed_shards=len(failures),
            total_shards=len(ranges),
            runs_lost=lost,
            n_runs=n_runs,
        )
    merged = run.merged(SHARD_KEYS)
    if merged is None:
        merged = task(0, 0)  # no shard survived: the empty arrays
    outcomes = classify(
        merged["released"],
        merged["fault_flags"],
        merged["expected"],
        flag_observable=flag_observable,
        infective=infective,
    )
    return CampaignResult(
        scheme=design.scheme,
        key=key,
        specs=list(specs),
        block_bits=design.spec.block_bits,
        plaintext=merged["plaintext"],
        released=merged["released"],
        expected=merged["expected"],
        fault_flags=merged["fault_flags"],
        outcomes=outcomes,
        extra={
            "variant": design.variant,
            "n_runs": n_runs,
            "jobs": config.jobs,
            "shard_runs": shard_runs,
            "n_shards": len(ranges),
            "partial": bool(failures) or run.budget_exhausted,
            "failed_shards": failures,
            "budget_exhausted": run.budget_exhausted,
            "checkpoint_dir": (
                str(config.checkpoint_dir)
                if config.checkpoint_dir is not None
                else None
            ),
        },
    )
