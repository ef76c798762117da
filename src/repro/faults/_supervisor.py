"""The shard supervisor behind :func:`repro.faults.executor.run_sharded`.

Retries, backoff, quarantine, checkpoints, the worker pool and its
heartbeat.  They live apart from the executor's public names so that a
process which only builds an :class:`~repro.faults.executor.ExecutorConfig`
never loads them (see the executor's docstring for
what loads when).  Log records keep the executor's logger name.
"""

from __future__ import annotations

import contextlib
import logging
import threading
import time
import traceback as traceback_module
from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

from repro.faults.executor import ExecutorConfig, ShardHook, ShardTask, ShardTimeout
from repro.resilience.chaos import chaos
from repro.resilience.errors import ShardHang, classify_error
from repro.telemetry import metrics, trace

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from repro.faults.checkpoint import CheckpointStore
    from repro.telemetry.progress import ProgressTracker

log = logging.getLogger("repro.faults.executor")

#: fraction of jitter on the retry backoff (thundering-herd damping)
BACKOFF_JITTER = 0.25

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
    guard for pool runs.)  ``seconds`` is None or positive
    (:class:`~repro.faults.executor.ExecutorConfig` checks it).
    """
    global _timeout_warned
    if seconds is None:
        yield
        return
    import signal

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


# ----------------------------------------------------------- pool workers

_WORKER_CTX: dict = {}


def _worker_init(payload: bytes) -> None:
    import pickle

    ctx = pickle.loads(payload)
    _WORKER_CTX["ctx"] = ctx
    # apply the parent's chaos schedule in this worker process (fork
    # inherits it, but spawn-based pools start from clean state)
    chaos.configure(ctx[4])


def _worker_shard(index: int, lo: int, hi: int, attempt: int):
    task, timeout, hook, tele, _ = _WORKER_CTX["ctx"]
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
        shard_hook: ShardHook | None,
        on_shard_done: Callable[[int, dict[str, np.ndarray]], object] | None,
        progress: ProgressTracker,
    ) -> None:
        self.task = task
        self.ranges = ranges
        self.config = config
        #: the checkpoint store once :meth:`open_store` ran; None = no
        #: checkpoints
        self.store: CheckpointStore | None = None
        self.shard_hook = shard_hook
        self.on_shard_done = on_shard_done
        self.progress = progress
        self.results: dict[int, dict[str, np.ndarray]] = {}
        self.failures: dict[int, dict] = {}
        #: attempt counts; seeded from quarantine records on resume so
        #: the retry budget survives interruption instead of resetting
        self.attempts: dict[int, int] = {}
        #: set once ``on_shard_done`` asks to stop (fail-fast); remaining
        #: shards are left unrun, never quarantined
        self.stopped = False
        #: set once the global wall budget runs out (graceful degradation)
        self.budget_exhausted = False
        self._started = time.monotonic()

    # -- checkpoints

    def open_store(self, identity: dict | None, keys: tuple[str, ...]) -> None:
        """Write the checkpoint manifest, or on resume adopt verified shards."""
        from repro.faults.checkpoint import CheckpointCorrupt, CheckpointStore

        store = CheckpointStore(
            self.config.checkpoint_dir, keys=keys, ranges=self.ranges
        )
        if self.config.resume and store.manifest_path.exists():
            try:
                store.load(identity)
            except CheckpointCorrupt as exc:
                # A torn/bit-rotted manifest holds no results: write a
                # fresh one; the shards still validate on their own.
                log.warning(
                    "checkpoint manifest unusable (%s); writing a fresh "
                    "manifest and recomputing what does not validate", exc,
                )
                trace.event("checkpoint.recovered", error=str(exc))
                metrics.inc("checkpoint.manifests_recovered")
                store.create(identity or {})
        else:
            store.create(identity or {})
        if self.config.resume:
            for index, (lo, hi) in enumerate(self.ranges):
                arrays = store.read_shard(index)
                if arrays is not None:
                    self.results[index] = arrays
                    self.progress.advance(hi - lo, shard=index, status="resumed")
                elif (record := store.quarantined(index)) is not None:
                    # the retry budget survives the interruption: a
                    # quarantined shard continues its attempt count
                    self.attempts[index] = record["attempts"]
        self.store = store

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
        snap = self.progress.advance(hi - lo, shard=index, status=status)
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
        base = self.config.backoff * (2 ** (self.attempts[index] - 1))
        frac = ((index * 2654435761 + self.attempts[index] * 40503) % 1000) / 1000
        return base * (1.0 + BACKOFF_JITTER * frac)

    def _ingest(self, payload: dict | None) -> None:
        """Fold a worker shard's captured telemetry into this process."""
        if payload:
            trace.ingest(payload.get("records"))
            metrics.merge(payload.get("metrics") or {})

    # -- serial path

    def run_serial(self, pending: list[int]) -> None:
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
        import pickle
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
        from concurrent.futures.process import BrokenProcessPool

        cfg = self.config
        tele = {
            "capture": trace.enabled,
            # the supervisor thread's correlation fields (request_id, ...)
            # travel to workers so captured shard spans stay attributable
            "ctx": dict(trace.context()),
        }
        # An unpicklable task or hook raises here, before any shard runs.
        payload = pickle.dumps(
            (self.task, cfg.timeout, self.shard_hook, tele, chaos.spec)
        )

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
