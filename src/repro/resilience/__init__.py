"""Chaos engineering and self-healing for the campaign/certification stack.

The reproduction's central claim is that a design under fault injection
must detect-or-survive every fault.  This package holds our own execution
substrate to that standard:

:mod:`repro.resilience.chaos`
    :class:`ChaosInjector` — deterministic, seed-driven infrastructure
    faults (worker crashes, hangs, checkpoint truncation/bit-rot,
    duplicated results) at named sites, configured programmatically or
    via ``REPRO_CHAOS``.

:mod:`repro.resilience.errors`
    The typed error taxonomy (transient / timeout / crash / corruption /
    permanent) every shard failure is classified into, plus the
    quarantine semantics recorded in checkpoint quarantine records.

:mod:`repro.resilience.persist`
    Atomic tmp+\\ ``os.replace`` writes and SHA-256 content digests — the
    single implementation behind shard archives, manifests, certificates
    and benchmark reports.

The golden invariant, enforced by ``tests/test_chaos.py``: any chaos
schedule that leaves at least one healthy retry path yields bit-identical
campaign results to the undisturbed run; anything less ends as structured
quarantine records and degraded certificates, never unhandled exceptions.
"""

from repro.resilience.chaos import (
    CHAOS_ENV,
    ChaosFault,
    ChaosInjector,
    ChaosSpec,
    chaos,
)
from repro.resilience.errors import (
    ChaosError,
    ErrorKind,
    ShardHang,
    WallBudgetExceeded,
    classify_error,
)
from repro.resilience.persist import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    sha256_bytes,
    sha256_file,
)

__all__ = [
    "CHAOS_ENV",
    "ChaosError",
    "ChaosFault",
    "ChaosInjector",
    "ChaosSpec",
    "ErrorKind",
    "ShardHang",
    "WallBudgetExceeded",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "chaos",
    "classify_error",
    "sha256_bytes",
    "sha256_file",
]
