"""Deterministic, seed-driven fault injection for the campaign stack itself.

The paper injects faults into *circuits* and demands detect-or-survive;
this module injects faults into our own execution substrate — workers,
checkpoints, result plumbing — and the chaos test suite demands the same:
any chaos schedule that leaves at least one healthy retry path must yield
**bit-identical** results to the undisturbed run.

Faults fire at named *sites* instrumented through the executor and
checkpoint store:

=====================  =====================================================
site                   where it fires
=====================  =====================================================
``worker``             inside the shard guard, before the shard's work
                       (serial path and pool workers alike)
``checkpoint.shard``   after a shard ``.npz`` is persisted (corrupts the
                       file on disk, never the in-memory arrays)
``checkpoint.manifest``after the checkpoint manifest is written
``supervisor.result``  in the supervisor, as a finished shard's result is
                       folded in
``service.request``    in the certification daemon, as an admitted request
                       begins executing
``service.store``      after the daemon's result store persists a
                       certificate (corrupts the file on disk)
``service.drain``      in the daemon's SIGTERM drain sequence, before it
                       waits for in-flight campaigns
=====================  =====================================================

and each fault has a *kind*, mirroring the paper's taxonomy aimed at
infrastructure (transient/permanent × crash/corrupt/delay):

``crash``      the worker process dies without cleanup (``os._exit``,
               i.e. ``kill -9``-equivalent); in-process execution
               degrades to raising :class:`ChaosError`
``raise``      raise :class:`ChaosError` (a transient software fault)
``hang``       sleep far past the shard deadline (exercises SIGALRM
               timeouts and the supervisor's heartbeat hang detection)
``truncate``   cut the just-written artefact short (torn write)
``bitrot``     flip one byte of the just-written artefact
``delay``      sleep briefly before delivering a result
``duplicate``  deliver a shard result twice

Determinism: whether a fault fires at ``(site, index, attempt)`` is a pure
hash of ``(spec.seed, site, kind, index)`` — no shared state — so a
schedule replays identically across processes, worker counts and resumes.
By default a fault only fires on ``attempt <= max_attempt`` (1), which is
exactly the "healthy retry path" the golden invariant requires.

Configuration: programmatic (:meth:`ChaosInjector.configure`) or the
``REPRO_CHAOS`` environment variable, e.g.::

    REPRO_CHAOS="seed=7;worker:crash:0.3;checkpoint.shard:truncate:0.5"

Disabled (the default) every instrumented site costs one attribute load
and one branch — the same zero-overhead contract as telemetry.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field

from repro.resilience.errors import ChaosError
from repro.telemetry import metrics, trace

__all__ = ["CHAOS_ENV", "ChaosFault", "ChaosInjector", "ChaosSpec", "chaos"]

CHAOS_ENV = "REPRO_CHAOS"

#: sites the executor/checkpoint instrument (documented above)
SITES = (
    "worker",
    "checkpoint.shard",
    "checkpoint.manifest",
    "supervisor.result",
    "service.request",
    "service.store",
    "service.drain",
)

#: fault kinds, grouped by how they are delivered
EXEC_KINDS = ("crash", "raise", "hang", "delay")
FILE_KINDS = ("truncate", "bitrot")
RESULT_KINDS = ("delay", "duplicate")
KINDS = tuple(dict.fromkeys(EXEC_KINDS + FILE_KINDS + RESULT_KINDS))


@dataclass(frozen=True)
class ChaosFault:
    """One (site, kind) fault with a firing rate and an attempt bound."""

    site: str
    kind: str
    #: probability that the fault fires at a given (site, index)
    rate: float = 1.0
    #: fire only on attempts ``<= max_attempt`` — leaves retries healthy.
    #: 0 or negative = every attempt (a *persistent* infrastructure fault).
    max_attempt: int = 1

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(
                f"unknown chaos site {self.site!r} (known: {', '.join(SITES)})"
            )
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown chaos kind {self.kind!r} (known: {', '.join(KINDS)})"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"chaos rate {self.rate} outside [0, 1]")


@dataclass(frozen=True)
class ChaosSpec:
    """A full chaos schedule: seed + fault list + delivery tunables."""

    seed: int = 0
    faults: tuple[ChaosFault, ...] = field(default_factory=tuple)
    #: how long a ``hang`` sleeps (must exceed the shard deadline to bite)
    hang_s: float = 30.0
    #: how long a ``delay`` sleeps
    delay_s: float = 0.02

    @classmethod
    def parse(cls, text: str) -> "ChaosSpec":
        """Parse the ``REPRO_CHAOS`` mini-language (see module docstring).

        ``;``/``,``-separated segments: ``seed=N``, ``hang=SECONDS``,
        ``delay=SECONDS``, or ``site:kind[:rate[:max_attempt]]``.
        """
        seed, hang_s, delay_s = 0, 30.0, 0.02
        faults: list[ChaosFault] = []
        for segment in text.replace(",", ";").split(";"):
            segment = segment.strip()
            if not segment:
                continue
            if "=" in segment and ":" not in segment:
                name, _, value = segment.partition("=")
                name = name.strip()
                try:
                    if name == "seed":
                        seed = int(value)
                    elif name == "hang":
                        hang_s = float(value)
                    elif name == "delay":
                        delay_s = float(value)
                    else:
                        raise ValueError(f"unknown chaos option {name!r}")
                except ValueError as exc:
                    if "unknown chaos option" in str(exc):
                        raise
                    raise ValueError(
                        f"bad chaos option {segment!r}: {name} wants a number"
                    ) from exc
                continue
            parts = segment.split(":")
            if len(parts) < 2:
                raise ValueError(
                    f"bad chaos fault {segment!r} (want site:kind[:rate"
                    f"[:max_attempt]])"
                )
            site, kind = parts[0], parts[1]
            try:
                rate = float(parts[2]) if len(parts) > 2 else 1.0
                max_attempt = int(parts[3]) if len(parts) > 3 else 1
            except ValueError as exc:
                raise ValueError(
                    f"bad chaos fault {segment!r}: rate must be a float and "
                    f"max_attempt an integer"
                ) from exc
            faults.append(ChaosFault(site, kind, rate, max_attempt))
        return cls(
            seed=seed, faults=tuple(faults), hang_s=hang_s, delay_s=delay_s
        )

    @classmethod
    def from_env(cls) -> "ChaosSpec | None":
        """Parse ``REPRO_CHAOS``; a malformed value is an eager, named error.

        A schedule that never fires because of a typo would silently turn a
        chaos run into a clean run — so an unknown site/kind or unparsable
        number raises immediately, naming the environment variable.
        """
        text = os.environ.get(CHAOS_ENV, "").strip()
        if not text:
            return None
        try:
            return cls.parse(text)
        except ValueError as exc:
            raise ValueError(f"invalid {CHAOS_ENV}: {exc}") from exc


def _fires(spec: ChaosSpec, fault: ChaosFault, index: int, attempt: int) -> bool:
    """Pure decision function — identical in every process (see module doc)."""
    if fault.max_attempt > 0 and attempt > fault.max_attempt:
        return False
    if fault.rate >= 1.0:
        return True
    token = f"{spec.seed}:{fault.site}:{fault.kind}:{index}".encode()
    draw = int.from_bytes(hashlib.sha256(token).digest()[:8], "big") / 2.0**64
    return draw < fault.rate


class ChaosInjector:
    """Process-wide chaos hook; disabled (``spec is None``) by default."""

    def __init__(self) -> None:
        self._spec: ChaosSpec | None = None

    # ----------------------------------------------------------- lifecycle

    @property
    def enabled(self) -> bool:
        return self._spec is not None

    @property
    def spec(self) -> ChaosSpec | None:
        return self._spec

    def configure(self, spec: ChaosSpec | None) -> None:
        self._spec = spec

    def disable(self) -> None:
        self._spec = None

    def configure_from_env(self) -> None:
        """Adopt ``REPRO_CHAOS`` if set and nothing was configured yet."""
        if self._spec is None:
            self._spec = ChaosSpec.from_env()

    # ------------------------------------------------------------ delivery

    def _record(self, fault: ChaosFault, index: int, attempt: int) -> None:
        metrics.inc("chaos.injected")
        metrics.inc(f"chaos.{fault.site}.{fault.kind}")
        trace.event(
            "chaos.injected",
            site=fault.site,
            kind=fault.kind,
            index=index,
            attempt=attempt,
        )

    def _matching(self, site: str, kinds, index: int, attempt: int):
        spec = self._spec
        for fault in spec.faults:
            if fault.site != site or fault.kind not in kinds:
                continue
            if _fires(spec, fault, index, attempt):
                yield fault

    def at(
        self, site: str, *, index: int = 0, attempt: int = 1,
        in_worker: bool = False,
    ) -> None:
        """Execution-site hook: maybe crash, raise, hang or delay here."""
        if self._spec is None:
            return
        for fault in self._matching(site, EXEC_KINDS, index, attempt):
            self._record(fault, index, attempt)
            if fault.kind == "crash":
                if in_worker:
                    # kill -9-equivalent: no cleanup, no exception, the
                    # pool discovers a dead process (BrokenProcessPool)
                    os._exit(23)
                raise ChaosError(
                    f"injected worker crash at shard {index} "
                    f"(in-process delivery)"
                )
            if fault.kind == "raise":
                raise ChaosError(f"injected failure at shard {index}")
            if fault.kind == "hang":
                time.sleep(self._spec.hang_s)
            elif fault.kind == "delay":
                time.sleep(self._spec.delay_s)

    def corrupt_file(self, site: str, path, *, index: int = 0) -> None:
        """File-site hook: maybe truncate or bit-rot the artefact at ``path``.

        Called *after* a successful persist, so it models a torn write or
        media decay that the next reader must detect via its digest.
        """
        if self._spec is None:
            return
        for fault in self._matching(site, FILE_KINDS, index, attempt=1):
            self._record(fault, index, 1)
            try:
                size = os.path.getsize(path)
                if fault.kind == "truncate":
                    with open(path, "r+b") as fh:
                        fh.truncate(size // 2)
                else:  # bitrot
                    with open(path, "r+b") as fh:
                        fh.seek(max(0, size // 2 - 1))
                        byte = fh.read(1) or b"\0"
                        fh.seek(max(0, size // 2 - 1))
                        fh.write(bytes([byte[0] ^ 0x40]))
            except OSError:
                pass  # the artefact vanished; nothing left to corrupt

    def should(
        self, site: str, kind: str, *, index: int = 0, attempt: int = 1
    ) -> bool:
        """Query-style hook (``duplicate``/``delay`` at result sites)."""
        if self._spec is None:
            return False
        for fault in self._matching(site, (kind,), index, attempt):
            self._record(fault, index, attempt)
            if kind == "delay":
                time.sleep(self._spec.delay_s)
            return True
        return False


#: the process-wide injector (mirrors ``telemetry.trace``'s singleton shape)
chaos = ChaosInjector()
