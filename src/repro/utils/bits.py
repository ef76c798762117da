"""Bit-vector packing helpers for the bit-parallel simulator.

The simulator carries *batches* of independent simulation runs.  Every net in
the circuit holds one logical bit per run, and a batch of ``B`` runs is stored
as ``ceil(B / 64)`` little-endian ``uint64`` words: bit ``j`` of word ``w``
holds the net value for run ``64 * w + j``.

Three layouts appear throughout the code base:

- **packed rows** — ``numpy`` array of shape ``(width, n_words)`` and dtype
  ``uint64``; row ``i`` is the packed batch vector for bit ``i``.  This is
  the simulator's own layout, and campaign inputs are drawn straight into
  it (:func:`repro.rng.random_words`);
- **byte rows** — ``numpy`` array of shape ``(batch, ceil(width / 8))`` and
  dtype ``uint8``; row ``r`` is run ``r``'s word as little-endian bytes
  (bit ``i`` is bit ``i % 8`` of byte ``i // 8``).  Campaign results are
  read out of the simulator this way (:func:`words_to_bytes`) and stored
  this way: 8× smaller than a bit matrix, and two rows are equal exactly
  when their words are;
- **bit matrix** — ``numpy`` array of shape ``(batch, width)`` and dtype
  ``uint8`` with values in ``{0, 1}``; column ``i`` is bit ``i`` (LSB-first)
  of a ``width``-bit port across the batch.  It takes 8× the memory of the
  other two, so it exists only at API edges (:meth:`Simulator.set_input_bits`,
  ``ProtectedDesign.run``'s outputs, attack code reading a few runs).

These helpers convert between Python integers and the three layouts.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bits_to_bytes",
    "bits_to_int",
    "bits_to_ints",
    "bytes_to_bits",
    "bytes_to_ints",
    "gather_bits",
    "int_to_bits",
    "ints_to_bits",
    "pack_bits",
    "unpack_bits",
    "words_for",
    "words_to_bytes",
]

#: lanes :func:`words_to_bytes` converts per step; its scratch is three
#: ``(WORDS_TO_BYTES_LANES, ceil(width / 8))``-byte buffers whatever the batch
WORDS_TO_BYTES_LANES = 1024

#: ``(shift, mask)`` of the three delta swaps that transpose the 8×8 bit
#: matrix held in one ``uint64`` (bit ``8r + c`` ↔ bit ``8c + r``)
_TRANSPOSE_8X8 = (
    (np.uint64(7), np.uint64(0x00AA00AA00AA00AA)),
    (np.uint64(14), np.uint64(0x0000CCCC0000CCCC)),
    (np.uint64(28), np.uint64(0x00000000F0F0F0F0)),
)


def words_for(batch: int) -> int:
    """Number of ``uint64`` words needed to hold ``batch`` one-bit lanes."""
    if batch <= 0:
        raise ValueError(f"batch size must be positive, got {batch}")
    return (batch + 63) // 64


def int_to_bits(value: int, width: int) -> list[int]:
    """LSB-first list of the low ``width`` bits of ``value``.

    >>> int_to_bits(0b1011, 4)
    [1, 1, 0, 1]
    """
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    if value >> width:
        raise ValueError(f"value {value:#x} does not fit in {width} bits")
    return [(value >> i) & 1 for i in range(width)]


def bits_to_int(bits) -> int:
    """Inverse of :func:`int_to_bits` — LSB-first bits to an integer."""
    value = 0
    for i, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ValueError(f"bit {i} is {bit!r}, expected 0 or 1")
        value |= int(bit) << i
    return value


def ints_to_bits(values, width: int) -> np.ndarray:
    """Convert an iterable of integers to a ``(batch, width)`` bit matrix.

    Values wider than ``width`` raise; the conversion is LSB-first so
    ``out[r, i]`` is bit ``i`` of ``values[r]``.  Vectorised: each value is
    serialised to little-endian bytes once and the bit expansion happens in
    a single ``np.unpackbits`` call.
    """
    values = list(values)
    n_bytes = (width + 7) // 8
    chunks = []
    for value in values:
        if value < 0 or value >> width:
            raise ValueError(f"value {value:#x} does not fit in {width} bits")
        chunks.append(value.to_bytes(n_bytes, "little"))
    if not values:
        return np.zeros((0, width), dtype=np.uint8)
    buf = np.frombuffer(b"".join(chunks), dtype=np.uint8).reshape(len(values), n_bytes)
    return bytes_to_bits(buf, width)


def bits_to_ints(bits: np.ndarray) -> list[int]:
    """Convert a ``(batch, width)`` bit matrix back to Python integers."""
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError(f"expected a 2-D bit matrix, got shape {bits.shape}")
    return bytes_to_ints(bits_to_bytes(bits))


def bits_to_bytes(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(batch, width)`` bit matrix into ``(batch, ceil(width/8))``
    byte rows (LSB-first; padding bits of the last byte are zero)."""
    return np.packbits(
        np.asarray(bits, dtype=np.uint8), axis=1, bitorder="little"
    )


def bytes_to_bits(rows: np.ndarray, width: int) -> np.ndarray:
    """Inverse of :func:`bits_to_bytes`: byte rows to a ``(batch, width)``
    bit matrix."""
    return np.unpackbits(rows, axis=1, count=width, bitorder="little")


def gather_bits(rows: np.ndarray, positions) -> np.ndarray:
    """Bits ``positions`` of every byte row as a ``(runs, len(positions))``
    bit matrix: ``bytes_to_bits(rows, width)[:, positions]`` without
    unpacking the other bits."""
    pos = np.asarray(positions, dtype=np.intp)
    return (rows[:, pos >> 3] >> (pos & 7).astype(np.uint8)) & 1


def bytes_to_ints(rows: np.ndarray) -> list[int]:
    """Byte rows to Python integers, one C-level ``int.from_bytes`` per row."""
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(batch, width)`` bit matrix into ``(width, n_words)`` uint64.

    Run ``r`` lands in bit ``r % 64`` of word ``r // 64`` of each row, i.e.
    little-endian lane order.  Lanes beyond the batch are zero.
    """
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    if bits.ndim != 2:
        raise ValueError(f"expected a 2-D bit matrix, got shape {bits.shape}")
    batch, width = bits.shape
    n_words = words_for(batch)
    # packbits works on uint8 with 8 lanes per byte; pad the batch axis up to
    # a whole number of 64-bit words, then reinterpret the bytes.
    padded = np.zeros((width, n_words * 64), dtype=np.uint8)
    padded[:, :batch] = bits.T
    packed_bytes = np.packbits(padded, axis=1, bitorder="little")
    return packed_bytes.view(np.uint64).reshape(width, n_words)


def unpack_bits(words: np.ndarray, batch: int) -> np.ndarray:
    """Unpack ``(width, n_words)`` uint64 rows into a ``(batch, width)`` matrix.

    Inverse of :func:`pack_bits`; lanes at or beyond ``batch`` are dropped.
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.ndim != 2:
        raise ValueError(f"expected 2-D packed rows, got shape {words.shape}")
    width, n_words = words.shape
    if batch > n_words * 64:
        raise ValueError(f"batch {batch} exceeds capacity {n_words * 64}")
    as_bytes = words.view(np.uint8).reshape(width, n_words * 8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
    return bits[:, :batch].T.copy()


def words_to_bytes(words: np.ndarray, batch: int) -> np.ndarray:
    """Packed rows ``(width, n_words)`` to ``(batch, ceil(width / 8))`` byte rows.

    Equal to ``bits_to_bytes(unpack_bits(words, batch))``, computed as 8×8
    bit-matrix transposes on ``uint64``: each word gathers one lane-byte
    (8 lanes) of 8 consecutive rows, three delta swaps transpose it, and
    its bytes are then those 8 lanes' output bytes.  The lanes are
    transposed :data:`WORDS_TO_BYTES_LANES` at a time, so the scratch does
    not grow with the batch.
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.ndim != 2:
        raise ValueError(f"expected 2-D packed rows, got shape {words.shape}")
    width, n_words = words.shape
    if batch > n_words * 64:
        raise ValueError(f"batch {batch} exceeds capacity {n_words * 64}")
    n_bytes = (width + 7) // 8
    out = np.empty((batch, n_bytes), dtype=np.uint8)
    step = WORDS_TO_BYTES_LANES // 64
    # x[k, 8j + b] is lane-byte k of row 8j + b; rows past ``width`` stay 0
    x = np.zeros((min(n_words, step) * 8, n_bytes * 8), dtype=np.uint8)
    t = np.empty((len(x), n_bytes), dtype=np.uint64)
    for lo in range(0, batch, WORDS_TO_BYTES_LANES):
        hi = min(batch, lo + WORDS_TO_BYTES_LANES)
        block = words[:, lo // 64 : lo // 64 + step].view(np.uint8)
        xb, tb = x[: block.shape[1]], t[: block.shape[1]]
        xb[:, :width] = block.T
        xb[:, width:] = 0  # the previous block's transpose wrote here
        w = xb.view(np.uint64)  # bit 8b + i of w[k, j]: row 8j + b, lane 8k + i
        for shift, mask in _TRANSPOSE_8X8:
            np.right_shift(w, shift, out=tb)
            tb ^= w
            tb &= mask
            w ^= tb
            tb <<= shift
            w ^= tb
        # now bit 8i + b of w[k, j]: byte j of lane 8k + i holds it as bit b
        lanes = xb.reshape(len(xb), n_bytes, 8).transpose(0, 2, 1)
        out[lo:hi] = lanes.reshape(-1, n_bytes)[: hi - lo]
    return out
