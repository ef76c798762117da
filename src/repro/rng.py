"""Deterministic stand-in for the on-chip TRNG.

The paper presumes an on-chip true random number generator as the entropy
source for the encoding bit(s) λ.  For simulation we substitute a seeded
``numpy`` PCG64 generator: the countermeasure's security argument only needs
λ to be uniform and unknown to the attacker, and a seeded generator makes
every experiment in this repository exactly reproducible (see DESIGN.md,
substitution table).

All randomness in the code base flows through :func:`make_rng` so that a
single seed pins down an entire fault campaign.

Campaign-scale experiments additionally need randomness that is *stable
under re-batching*: the same run must see the same draws whether the
campaign executes in one process, in shards across a worker pool, or is
resumed after a crash.  :func:`derive_rng` keys an independent substream
off ``(seed, index)`` via ``numpy.random.SeedSequence`` spawn keys, and
:class:`BlockedRng` stitches several substreams into one generator-shaped
object whose batched draws split along the first axis — so a batch
covering blocks ``[3, 4, 5]`` draws exactly what three separate
single-block batches would.

:func:`random_words` is the packed twin of :func:`random_bits`: it makes
the same per-block draws and packs each block straight into the
simulator's ``(width, n_words)`` lanes, so a campaign's inputs never exist
as a one-byte-per-bit matrix.  :meth:`BlockedRng.state` and
:meth:`BlockedRng.from_state` snapshot and rebuild a generator by its
bit-generator states, which is how a certify shard replays its post-reference
stream once per fault location.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

__all__ = [
    "DEFAULT_SEED",
    "BlockedRng",
    "derive_rng",
    "make_rng",
    "random_bits",
    "random_ints",
    "random_words",
]

DEFAULT_SEED = 0x5C04E  # "SCONE", hex-safe spelling


def make_rng(seed: int | np.random.Generator | None = DEFAULT_SEED) -> np.random.Generator:
    """Create (or pass through) a numpy Generator.

    Accepts an existing generator (or :class:`BlockedRng`) so helpers can
    be composed without re-seeding mid-experiment.
    """
    if isinstance(seed, (np.random.Generator, BlockedRng)):
        return seed
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


def derive_rng(seed: int, index: int) -> np.random.Generator:
    """Independent substream ``index`` of master seed ``seed``.

    Uses ``SeedSequence`` spawn-key derivation, so distinct indices yield
    statistically independent streams and the mapping is stable across
    numpy versions, processes and machines.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


class BlockedRng:
    """A generator over consecutive *blocks*, each with its own substream.

    Constructed from ``(n_lanes, Generator)`` pairs.  Every batched draw
    must have the total lane count as its leading dimension; the draw is
    split along that axis, each slice coming from its block's generator.
    The per-lane values therefore depend only on the block's substream and
    the order of draw calls — not on which blocks happen to share a batch.
    """

    def __init__(self, parts: Iterable[tuple[int, np.random.Generator]]) -> None:
        self._parts = [(int(n), gen) for n, gen in parts]
        if not self._parts or any(n <= 0 for n, _ in self._parts):
            raise ValueError("BlockedRng needs at least one positive-sized block")
        self.total = sum(n for n, _ in self._parts)

    def _sizes(self, size) -> list[int | tuple[int, ...]]:
        """Per-block ``size`` arguments for a draw of shape ``size``."""
        if isinstance(size, tuple):
            lead, rest = size[0], size[1:]
        else:
            lead, rest = size, ()
        if lead != self.total:
            raise ValueError(
                f"draw of leading dimension {lead} on a BlockedRng of "
                f"{self.total} lanes — batched draws must cover every lane"
            )
        return [(n, *rest) if rest else n for n, _ in self._parts]

    def state(self) -> list[tuple[int, dict]]:
        """``(n_lanes, bit_generator.state)`` per block: a snapshot that
        :meth:`from_state` turns back into a generator at this point of
        every block's stream."""
        return [(n, gen.bit_generator.state) for n, gen in self._parts]

    @classmethod
    def from_state(cls, state: Iterable[tuple[int, dict]]) -> "BlockedRng":
        """A fresh generator continuing exactly where :meth:`state` was taken."""
        parts = []
        for n, doc in state:
            bit_generator = getattr(np.random, doc["bit_generator"])(0)
            bit_generator.state = doc
            parts.append((n, np.random.Generator(bit_generator)))
        return cls(parts)

    def integers(self, low, high=None, size=None, **kwargs) -> np.ndarray:
        parts = [
            gen.integers(low, high, size=s, **kwargs)
            for s, (_, gen) in zip(self._sizes(size), self._parts)
        ]
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)

    def random(self, size=None, **kwargs) -> np.ndarray:
        parts = [
            gen.random(size=s, **kwargs)
            for s, (_, gen) in zip(self._sizes(size), self._parts)
        ]
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)


def random_bits(rng: np.random.Generator, batch: int, width: int) -> np.ndarray:
    """A ``(batch, width)`` uniform 0/1 matrix (one row per run)."""
    return rng.integers(0, 2, size=(batch, width), dtype=np.uint8)


def random_words(rng: np.random.Generator, batch: int, width: int) -> np.ndarray:
    """``pack_bits(random_bits(rng, batch, width))`` without the bit matrix.

    Returns ``(width, words_for(batch))`` uint64 packed rows.  On a
    :class:`BlockedRng` each block makes the same :func:`random_bits` call
    as a whole-batch draw would and is packed into its own words, so the
    bits are identical and the scratch matrix is one block.  Blocks that do
    not start on a word boundary fall back to packing the whole draw.
    """
    from repro.utils.bits import pack_bits, words_for

    if not isinstance(rng, BlockedRng):
        return pack_bits(random_bits(rng, batch, width))
    rng._sizes(batch)  # the draw must cover every lane
    if any(n % 64 for n, _ in rng._parts[:-1]):
        return pack_bits(
            np.concatenate([random_bits(gen, n, width) for n, gen in rng._parts])
        )
    out = np.empty((width, words_for(batch)), dtype=np.uint64)
    word = 0
    for n, gen in rng._parts:
        block = pack_bits(random_bits(gen, n, width))
        out[:, word : word + block.shape[1]] = block
        word += block.shape[1]
    return out


def random_ints(rng: np.random.Generator, batch: int, width: int) -> list[int]:
    """``batch`` uniform ``width``-bit integers (arbitrary precision)."""
    from repro.utils.bits import bits_to_ints

    return bits_to_ints(random_bits(rng, batch, width))
