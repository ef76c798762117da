"""Typed error taxonomy for infrastructure faults.

The paper classifies *circuit* faults (transient/permanent, stuck/flip)
and demands that every one of them is detected or survived.  This module
applies the same discipline to the campaign stack's own failures: every
exception that kills a shard is classified into a small closed taxonomy,
the classification is recorded in the quarantined shard's checkpoint
record and in the structured failure records a partial result carries, and the retry policy
can reason about it ("a timeout is worth retrying; a pickling bug is
not going to fix itself").

The taxonomy mirrors the paper's transient/permanent split:

========== =====================================================
kind        meaning
========== =====================================================
transient   one-off infrastructure hiccup (I/O error, chaos
            injection, flaky resource) — a retry should succeed
timeout     the shard exceeded its wall-clock budget (SIGALRM)
crash       the worker process died (``kill -9``, ``os._exit``,
            OOM-kill, broken pool) or was declared hung by the
            supervisor's heartbeat
corruption  a persisted artefact failed its checksum / parse —
            the data is recomputed deterministically
permanent   a deterministic programming or input error that no
            retry can fix (still retried a bounded number of
            times: misclassification must not lose data)
========== =====================================================

A shard whose retries are exhausted is not dropped silently: it is
*quarantined* — recorded as a structured failure (kind, attempt count
and last error) in the shard's ``shard_NNNNN.failed.json`` checkpoint
record and surfaced in ``result.extra["failed_shards"]`` and certificate
coverage, never as an unhandled exception.
"""

from __future__ import annotations

import enum

__all__ = [
    "ChaosError",
    "ErrorKind",
    "ShardHang",
    "WallBudgetExceeded",
    "classify_error",
]


class ErrorKind(str, enum.Enum):
    """Closed classification of infrastructure failures (see module doc)."""

    TRANSIENT = "transient"
    TIMEOUT = "timeout"
    CRASH = "crash"
    CORRUPTION = "corruption"
    PERMANENT = "permanent"

    def __str__(self) -> str:  # manifest-friendly
        return self.value


class ChaosError(RuntimeError):
    """An error deliberately injected by the chaos layer (transient)."""


class ShardHang(RuntimeError):
    """The supervisor's heartbeat declared a worker hung past its deadline."""


class WallBudgetExceeded(RuntimeError):
    """The global wall-clock budget ran out before the workload finished."""


def classify_error(exc: BaseException) -> ErrorKind:
    """Map an exception to its :class:`ErrorKind`.

    Import-light by design: executor-local and pool types are matched by
    name, so this module imports neither the executor (which imports us)
    nor ``concurrent.futures`` (which a serial process never loads).
    """
    name = type(exc).__name__
    if name == "ShardTimeout":
        return ErrorKind.TIMEOUT
    if isinstance(exc, ShardHang) or name == "BrokenProcessPool":
        return ErrorKind.CRASH
    if isinstance(exc, ChaosError):
        return ErrorKind.TRANSIENT
    if name == "CheckpointError" or isinstance(exc, (EOFError,)):
        return ErrorKind.CORRUPTION
    if isinstance(exc, (OSError, MemoryError, ConnectionError)):
        return ErrorKind.TRANSIENT
    if isinstance(exc, (ValueError, TypeError, KeyError, IndexError,
                        AttributeError, AssertionError, ArithmeticError)):
        return ErrorKind.PERMANENT
    return ErrorKind.TRANSIENT
