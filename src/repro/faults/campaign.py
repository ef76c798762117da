"""Fault campaign runner — the experiment loop of the paper's §IV-A.

One campaign = one design × one fault scenario × N randomised invocations:
the key is fixed, the plaintext (and λ, for randomised schemes) is fresh
per run, the fault location/type is fixed across runs.  Per run the
campaign records the released word and the outcome classification; the
ground truth is the cipher's packed software reference
(:meth:`CipherSpec.encrypt_packed <repro.ciphers.spn.CipherSpec.encrypt_packed>`)
over the same plaintexts, never the netlist under test, so a fault-free
netlist bug cannot agree with itself.

Words stay packed from the RNG draw to the attack code: plaintexts and
the λ/garbage words are drawn straight into the simulator's packed lanes
(:func:`repro.rng.random_words`), and plaintexts, released and expected
words are kept as byte rows of shape ``(runs, ceil(block / 8))`` (LSB-first,
the layout of ``np.packbits(bits, axis=1, bitorder="little")``), an eighth
of a bit matrix.  Classification compares the byte rows directly; attacks select
the runs they need and unpack only those.

A :class:`RangeRun` owns one simulator for a run range: it draws the
range's plaintexts and fault-free randomness and computes the reference
once, then runs one faulted pass per fault scenario on the same simulator.
The netlist is simulated only faulted.  :func:`iter_range` is the one
chunk loop: chunks of :data:`CHUNK` lanes reuse one simulator per batch
size, and a certify shard shares one draw and one reference across all of
its locations.

Everything is vectorised: an 80,000-run Fig. 4 series of 31-round
three-in-one PRESENT-80 (2,825 gates) takes about half a second on one
core of a 2-vCPU Xeon VM.

Determinism contract
--------------------

Randomness is keyed per fixed-size *RNG block* of :data:`RNG_BLOCK`
consecutive runs: block ``b`` (runs ``[b * RNG_BLOCK, (b+1) * RNG_BLOCK)``)
draws everything — plaintexts, garbage words, λ schedules, probabilistic
injector masks — from the substream ``derive_rng(seed, b)``.  A campaign's
arrays therefore depend only on ``(design, specs, key, seed, n_runs)``;
they are bit-identical regardless of ``chunk`` size, worker count, shard
size, or crash/resume history.

Execution
---------

:func:`run_campaign` is the one entry point.  Without an executor config
it runs the whole range in-process; with one it splits the range into
shards of :attr:`ExecutorConfig.shard_runs
<repro.faults.executor.ExecutorConfig.shard_runs>` runs and hands them to
the supervised shard executor (:func:`repro.faults.executor.run_sharded`),
which adds a worker pool, checkpoints, resume, retries and timeouts.  The
determinism contract lets it merge checkpointed shards into exactly the
in-process result.  Both keep the whole campaign's arrays, which the
attacks need.  A caller that keeps only a summary reduces
:func:`campaign_chunks` instead: the same in-process campaign as one
classified :class:`CampaignResult` per chunk.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.countermeasures.base import ProtectedDesign
from repro.faults.classification import Outcome, classify
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultSpec
from repro.netlist.circuit import circuit_digest
from repro.netlist.simulator import Simulator
from repro.rng import BlockedRng, derive_rng, random_words
from repro.telemetry import trace
from repro.utils.bits import (
    bits_to_bytes,
    bytes_to_bits,
    bytes_to_ints,
    words_to_bytes,
)

if TYPE_CHECKING:
    from repro.faults.executor import ExecutorConfig, ShardHook

__all__ = [
    "CHUNK",
    "RNG_BLOCK",
    "CampaignResult",
    "RangeRun",
    "campaign_chunks",
    "campaign_identity",
    "iter_range",
    "run_campaign",
]

#: Runs per RNG substream — the granularity of the determinism contract.
#: Chunk and shard boundaries are aligned to multiples of this.
RNG_BLOCK = 1024

#: Default simulator batch (lanes) of a campaign chunk; the executor's
#: default shard (:attr:`ExecutorConfig.shard_runs
#: <repro.faults.executor.ExecutorConfig.shard_runs>`) is two of them.
#: Bits never depend on it; it bounds simulator memory (three-in-one
#: PRESENT-80's value matrix is 1.4 MiB at 4,096 lanes).  Smaller chunks
#: cost the levelized kernel time, whose per-group dispatch amortises over
#: lanes, while the compiled kernel is flat; the per-chunk work outside
#: the kernel (the bit-major software reference, the blockwise byte-row
#: transposes) is cheap enough that halving the chunk from 8,192 lanes
#: keeps the campaign's runs/s.
CHUNK = 1 << 12

#: Array keys of a campaign's shards, in checkpoint digest order.  The
#: words are byte rows (:mod:`repro.utils.bits`); checkpoints written when
#: shards held bit matrices under ``*_bits`` keys fail the manifest's key
#: check on resume.
SHARD_KEYS = ("plaintext", "released", "expected", "fault_flags")


def range_rng(seed: int, lo: int, hi: int) -> BlockedRng:
    """The composite generator covering runs ``[lo, hi)``.

    ``lo`` must sit on an RNG-block boundary; the final block may be
    partial (when ``hi`` is the campaign's ``n_runs``).
    """
    if lo % RNG_BLOCK:
        raise ValueError(f"range start {lo} is not a multiple of {RNG_BLOCK}")
    if not lo < hi:
        raise ValueError(f"empty run range [{lo}, {hi})")
    parts = []
    start = lo
    while start < hi:
        size = min(RNG_BLOCK, hi - start)
        parts.append((size, derive_rng(seed, start // RNG_BLOCK)))
        start += size
    return BlockedRng(parts)


class RangeRun:
    """Runs ``[lo, lo + sim.batch)`` of the campaign keyed by ``seed``.

    Construction simulates nothing.  It draws the range's plaintexts, makes
    the garbage and λ draws a clean simulation would make
    (:meth:`ProtectedDesign.draw`) and discards them; ``expected`` comes
    from the cipher's packed software reference.  ``plaintext`` and
    ``expected`` are byte rows; the plaintexts stay packed rows for the
    simulator, so no ``(batch, block)`` bit matrix is built.  The generator's per-block
    states are then recorded, so every :meth:`faulted` pass starts its
    injector masks and its own λ/garbage draws from exactly the state a
    fresh two-simulator run of the range would reach after its clean pass:
    the bits match that loop for every scenario whose clean netlist output
    equals the cipher's.
    """

    def __init__(
        self,
        design: ProtectedDesign,
        sim: Simulator,
        *,
        key: int,
        seed: int,
        lo: int,
    ) -> None:
        self.design = design
        self.sim = sim
        self.key = key
        batch = sim.batch
        rng = range_rng(seed, lo, lo + batch)
        words = random_words(rng, batch, design.spec.block_bits)
        self._plaintext_words = words
        self.plaintext = words_to_bytes(words, batch)
        design.draw(rng, batch)  # the clean pass's draws keep the stream in step
        self._after_clean = rng.state()
        with trace.span("campaign.reference", cipher=design.spec.name, lanes=batch):
            self.expected = design.spec.encrypt_packed(words, key, batch)

    def faulted(self, specs: Sequence[FaultSpec]) -> tuple[np.ndarray, np.ndarray]:
        """One faulted pass under ``specs``: ``(released, fault_flags)``,
        the released words as byte rows.

        A spec active at a cycle past the design's last evaluation (cycle
        ``design.cycles``) could never fire, so it raises ``ValueError``.
        """
        last = self.design.cycles
        for spec in specs:
            if spec.cycles and max(spec.cycles) > last:
                raise ValueError(
                    f"fault cycle {max(spec.cycles)} on net {spec.net} is past "
                    f"the design's last evaluation, cycle {last}"
                )
        rng = BlockedRng.from_state(self._after_clean)
        sim = self.sim
        sim.faults = FaultInjector(specs, sim.batch, rng=rng)
        try:
            out = self.design.run(sim, self._plaintext_words, self.key, rng=rng)
        finally:
            sim.faults = None
        return out.ciphertext_rows, out.fault


def iter_range(
    design: ProtectedDesign,
    specs: Sequence[FaultSpec],
    *,
    key: int,
    seed: int,
    lo: int,
    hi: int,
    chunk: int = CHUNK,
) -> Iterator[tuple[int, dict[str, np.ndarray]]]:
    """Simulate runs ``[lo, hi)`` of the campaign keyed by ``seed``, one
    chunk at a time.

    Yields ``(start, arrays)`` per chunk of runs ``[start, start + n)``,
    ``arrays`` holding that chunk's :data:`SHARD_KEYS` (the words as byte
    rows).  This is the module's one chunk loop: :func:`run_range` drains
    it into whole-range arrays, and :func:`campaign_chunks` classifies each
    chunk for callers that reduce a campaign as it runs.  ``chunk`` is
    rounded down to a whole number of RNG blocks and only bounds simulator
    memory; per-block RNG keying makes the bits independent of it.  One
    simulator serves every chunk of the same size, so a range builds at
    most two (full chunks and a partial final one).
    """
    chunk = max(RNG_BLOCK, chunk - chunk % RNG_BLOCK)
    sim = run = None
    for start in range(lo, hi, chunk):
        stop = min(start + chunk, hi)
        if sim is None or sim.batch != stop - start:
            sim = run = None  # free the old simulator before sizing a new one
            sim = design.simulator(stop - start)
        run = RangeRun(design, sim, key=key, seed=seed, lo=start)
        released, flags = run.faulted(specs)
        yield start, {
            "plaintext": run.plaintext,
            "released": released,
            "expected": run.expected,
            "fault_flags": flags,
        }


def run_range(
    design: ProtectedDesign,
    specs: Sequence[FaultSpec],
    *,
    key: int,
    seed: int,
    lo: int,
    hi: int,
    chunk: int = CHUNK,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Simulate runs ``[lo, hi)`` of the campaign keyed by ``seed``.

    Returns ``(plaintext, released, expected, fault_flags)`` for exactly
    those runs, the words as byte rows.  This is the shared kernel of the
    single-shot :func:`run_campaign` and every executor shard: it drains
    :func:`iter_range` (same ``chunk``) into arrays preallocated for the
    whole range.  Callers that keep only a summary of a campaign (the
    Fig. 4/5 series, the round sweep) reduce :func:`campaign_chunks`
    instead, so no array sized by the run count is allocated.
    """
    width = (design.spec.block_bits + 7) // 8
    n = hi - lo
    arrays = {
        "plaintext": np.empty((n, width), dtype=np.uint8),
        "released": np.empty((n, width), dtype=np.uint8),
        "expected": np.empty((n, width), dtype=np.uint8),
        "fault_flags": np.empty(n, dtype=np.uint8),
    }
    with trace.span("campaign.run_range", scheme=design.scheme, lo=lo, hi=hi):
        for start, chunk_arrays in iter_range(
            design, specs, key=key, seed=seed, lo=lo, hi=hi, chunk=chunk
        ):
            rows = slice(start - lo, start - lo + len(chunk_arrays["fault_flags"]))
            for name, values in chunk_arrays.items():
                arrays[name][rows] = values
    return tuple(arrays[name] for name in SHARD_KEYS)


@dataclass
class CampaignResult:
    """Everything observed during one campaign, in attacker-usable form.

    The words are stored as byte rows of shape ``(runs, ceil(block / 8))``
    (see :mod:`repro.utils.bits`).  ``plaintext_bits``, ``released_bits``
    and ``expected_bits`` unpack a whole field on demand; attack code that
    needs only some runs selects rows first and unpacks them with
    :meth:`unpack`.
    """

    scheme: str
    key: int
    specs: list[FaultSpec]
    block_bits: int
    plaintext: np.ndarray  # (runs, ceil(block/8)) byte rows
    released: np.ndarray  # byte rows — what left the chip
    expected: np.ndarray  # byte rows — fault-free ciphertexts
    fault_flags: np.ndarray  # (runs,) 0/1
    outcomes: np.ndarray  # (runs,) Outcome values
    extra: dict = field(default_factory=dict)

    def unpack(self, rows: np.ndarray) -> np.ndarray:
        """Byte rows of this campaign's block as a ``(runs, block)`` bit matrix."""
        return bytes_to_bits(rows, self.block_bits)

    @property
    def plaintext_bits(self) -> np.ndarray:
        return self.unpack(self.plaintext)

    @property
    def released_bits(self) -> np.ndarray:
        return self.unpack(self.released)

    @property
    def expected_bits(self) -> np.ndarray:
        return self.unpack(self.expected)

    @property
    def n_runs(self) -> int:
        return len(self.outcomes)

    @property
    def partial(self) -> bool:
        """True when some executor shards failed and were dropped."""
        return bool(self.extra.get("partial"))

    def count(self, outcome: Outcome) -> int:
        """Number of runs with the given classification."""
        return int((self.outcomes == outcome).sum())

    def counts(self) -> dict[str, int]:
        """Histogram over all outcome classes."""
        return {o.name.lower(): self.count(o) for o in Outcome}

    def rate(self, outcome: Outcome) -> float:
        """Fraction of runs with the given classification."""
        return self.count(outcome) / self.n_runs if self.n_runs else 0.0

    def select(self, outcome: Outcome) -> np.ndarray:
        """Run indices with the given classification."""
        return np.flatnonzero(self.outcomes == outcome)

    def released_ints(self, indices: np.ndarray | None = None) -> list[int]:
        """Released words as integers (for spec-level attack code)."""
        rows = self.released if indices is None else self.released[indices]
        return bytes_to_ints(rows)

    def plaintext_ints(self, indices: np.ndarray | None = None) -> list[int]:
        """Plaintexts as integers."""
        rows = self.plaintext if indices is None else self.plaintext[indices]
        return bytes_to_ints(rows)

    def nibble(self, bits: np.ndarray, index: int, width: int = 4) -> np.ndarray:
        """Extract a ``width``-bit slice value from a bit matrix, per run."""
        cols = bits[:, width * index : width * (index + 1)].astype(np.int64)
        weights = 1 << np.arange(width, dtype=np.int64)
        return cols @ weights

    # ---------------------------------------------------------- persistence

    def save(self, path) -> None:
        """Persist the campaign to a compressed ``.npz`` archive.

        Large campaigns take a while to run; saving lets attack analyses be
        re-run offline.  Fault specs are stored as JSON documents
        (:meth:`FaultSpec.to_dict`) and reconstructed on load; the words
        are stored as byte rows and ``extra`` as one JSON document, so a
        partial campaign loads as partial.
        """
        np.savez_compressed(
            path,
            scheme=np.array(self.scheme),
            key=np.array(str(self.key)),
            specs=np.array(
                [json.dumps(s.to_dict(), sort_keys=True) for s in self.specs]
            ),
            block_bits=np.array(self.block_bits),
            plaintext=self.plaintext,
            released=self.released,
            expected=self.expected,
            fault_flags=self.fault_flags,
            outcomes=self.outcomes,
            extra=np.array(json.dumps(self.extra, sort_keys=True, default=str)),
        )

    @classmethod
    def load(cls, path) -> "CampaignResult":
        """Load a campaign persisted by :meth:`save`.

        Specs round-trip into real :class:`FaultSpec` objects.  Archives
        written by older versions stored ``repr`` strings instead; those
        are kept verbatim under ``extra["loaded_specs"]``.  Older archives
        also stored the words as bit matrices (``*_bits`` keys); those are
        packed on load.  Archives without ``extra`` load with an empty one.
        """
        with np.load(path, allow_pickle=False) as archive:
            data = {k: archive[k] for k in archive.files}
        names = ("plaintext", "released", "expected")
        if "block_bits" in data:
            block_bits = int(data["block_bits"])
            words = {k: data[k] for k in names}
        else:
            block_bits = data["released_bits"].shape[1]
            words = {k: bits_to_bytes(data[f"{k}_bits"]) for k in names}
        specs: list[FaultSpec] = []
        legacy: list[str] = []
        for text in data["specs"].tolist():
            try:
                specs.append(FaultSpec.from_dict(json.loads(str(text))))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                legacy.append(str(text))
        extra = json.loads(str(data["extra"])) if "extra" in data else {}
        if legacy:
            extra["loaded_specs"] = legacy
        return cls(
            scheme=str(data["scheme"]),
            key=int(str(data["key"])),
            specs=specs,
            block_bits=block_bits,
            **words,
            fault_flags=data["fault_flags"],
            outcomes=data["outcomes"],
            extra=extra,
        )


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
        "netlist": circuit_digest(design.circuit),
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
    lo: int,
    hi: int,
) -> dict[str, np.ndarray]:
    """Shard task of a fault campaign: simulate runs ``[lo, hi)``."""
    arrays = run_range(design, specs, key=key, seed=seed, lo=lo, hi=hi)
    return dict(zip(SHARD_KEYS, arrays))


def _run_sharded(
    design: ProtectedDesign,
    specs: Sequence[FaultSpec],
    *,
    n_runs: int,
    key: int,
    seed: int,
    config: ExecutorConfig,
    shard_hook: ShardHook | None,
) -> tuple[dict[str, np.ndarray], dict]:
    """The campaign's arrays and ``extra`` from the shard executor."""
    # Imported here: loading ``logging`` while this module loads, ahead of
    # the executor, raises a serial campaign process's peak RSS.
    import logging

    from repro.faults.executor import run_sharded

    shard_runs = max(
        RNG_BLOCK, config.shard_runs - config.shard_runs % RNG_BLOCK
    )
    ranges = [
        (lo, min(lo + shard_runs, n_runs)) for lo in range(0, n_runs, shard_runs)
    ]
    task = functools.partial(_campaign_task, design, list(specs), key, seed)
    identity = campaign_identity(
        design, specs, key=key, seed=seed, n_runs=n_runs, shard_runs=shard_runs
    )
    run = run_sharded(
        task, ranges, config=config, identity=identity, keys=SHARD_KEYS,
        shard_hook=shard_hook, label=f"campaign[{design.scheme}]",
    )

    failures = run.failures
    if failures:
        lost = sum(f["hi"] - f["lo"] for f in failures)
        logging.getLogger(__name__).warning(
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
    return merged, {
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
    }


def run_campaign(
    design: ProtectedDesign,
    specs: Sequence[FaultSpec],
    *,
    n_runs: int = 80_000,
    key: int,
    seed: int = 1,
    executor: ExecutorConfig | None = None,
    shard_hook: ShardHook | None = None,
) -> CampaignResult:
    """Execute a fault campaign against ``design``.

    The paper's Fig. 4 / Fig. 5 data points are campaigns with
    ``n_runs=80_000`` over PRESENT-80 designs; smaller ``n_runs`` give the
    same shapes faster.  Whether the comparator flag is observable follows
    the design (:attr:`ProtectedDesign.flag_observable`).

    **Determinism contract:** the result arrays depend only on
    ``(design, specs, key, seed, n_runs)``.  All randomness is drawn from
    per-block substreams keyed by ``(seed, run_index // RNG_BLOCK)``, so
    ``executor``, crash/resume history and the simulation kernel (chosen
    by ``REPRO_SIM_BACKEND``; the kernels are bit-exact against each
    other, so no checkpoint records it) affect only memory and wall-clock,
    never the bits.

    With ``executor=None`` the campaign runs in-process.  Any
    :class:`~repro.faults.executor.ExecutorConfig` runs it through the
    supervised shard executor instead: checkpointable shards of
    ``shard_runs`` runs on ``jobs`` workers, each with its
    ``timeout``/``retries``/``backoff``, resumable mid-flight from
    ``checkpoint_dir`` with ``resume=True``.  Shards that exhaust their
    retries are dropped and the result is marked ``partial`` (see
    ``CampaignResult.partial``).  ``shard_hook(index, attempt)`` runs at
    the start of every executor shard attempt (a test seam for injecting
    failures and delays; it must be picklable when ``jobs > 1``).
    """
    if executor is None:
        with trace.span(
            "campaign.run", scheme=design.scheme, n_runs=n_runs, seed=seed
        ):
            arrays = _campaign_task(design, specs, key, seed, 0, max(n_runs, 0))
            return _classified(
                design, specs, key, arrays,
                {"variant": design.variant, "n_runs": n_runs},
            )
    arrays, extra = _run_sharded(
        design, specs, n_runs=n_runs, key=key, seed=seed,
        config=executor, shard_hook=shard_hook,
    )
    return _classified(design, specs, key, arrays, extra)


def campaign_chunks(
    design: ProtectedDesign,
    specs: Sequence[FaultSpec],
    *,
    n_runs: int,
    key: int,
    seed: int,
) -> Iterator[CampaignResult]:
    """The in-process campaign of :func:`run_campaign`, one classified
    chunk of at most :data:`CHUNK` runs at a time, in run order.

    Each chunk is a :class:`CampaignResult` over its own runs only;
    concatenating the chunks' arrays gives ``run_campaign(...,
    executor=None)`` exactly.  A caller that keeps a summary (outcome
    counts, a histogram) reduces each chunk and drops it, so its memory is
    one chunk and the simulator, not the campaign's stored rows.
    """
    for _, arrays in iter_range(
        design, specs, key=key, seed=seed, lo=0, hi=n_runs
    ):
        yield _classified(design, specs, key, arrays, {})


def _classified(
    design: ProtectedDesign,
    specs: Sequence[FaultSpec],
    key: int,
    arrays: dict[str, np.ndarray],
    extra: dict,
) -> CampaignResult:
    """``arrays`` with their outcomes, as a :class:`CampaignResult`."""
    outcomes = classify(
        arrays["released"],
        arrays["fault_flags"],
        arrays["expected"],
        flag_observable=design.flag_observable,
        infective=design.infective,
    )
    return CampaignResult(
        scheme=design.scheme,
        key=key,
        specs=list(specs),
        block_bits=design.spec.block_bits,
        **arrays,
        outcomes=outcomes,
        extra=extra,
    )
