"""Byte-table AES-128 over byte rows: the packed reference of
:class:`repro.ciphers.netlist_aes.AesSpec`.

A batch of blocks is a ``(batch, 16)`` uint8 array whose row ``r`` is run
``r``'s state in FIPS order (byte ``i`` is ``state[i % 4][i // 4]``) — the
byte-row layout of :mod:`repro.utils.bits`, since the 128-bit ports carry
FIPS byte ``j`` at bits ``8j .. 8j+7``.  Each round is a handful of whole-batch
table lookups and XORs.
"""

from __future__ import annotations

import numpy as np

from repro.ciphers.aes import AES_SBOX

__all__ = ["encrypt_rows"]

_SBOX = np.array(AES_SBOX.table, dtype=np.uint8)
#: multiplication by x in GF(2^8)
_XTIME = np.array(
    [((b << 1) ^ (0x1B if b & 0x80 else 0)) & 0xFF for b in range(256)],
    dtype=np.uint8,
)
#: ShiftRows as a gather: byte ``r + 4c`` comes from ``r + 4((c + r) % 4)``
_SHIFT_ROWS = np.array([r + 4 * ((c + r) % 4) for c in range(4) for r in range(4)])


def _mix_columns(state: np.ndarray) -> np.ndarray:
    """``out_r = 2·a_r ⊕ 3·a_{r+1} ⊕ a_{r+2} ⊕ a_{r+3}`` per column."""
    a = state.reshape(-1, 4, 4)  # (batch, column, row)
    twice = _XTIME[a]
    out = twice ^ np.roll(twice ^ a, -1, axis=2)
    out ^= np.roll(a, -2, axis=2)
    out ^= np.roll(a, -3, axis=2)
    return out.reshape(state.shape)


def encrypt_rows(rows: np.ndarray, round_keys: np.ndarray) -> np.ndarray:
    """Encrypt every block of ``rows`` under the expanded key.

    ``round_keys`` is ``(rounds + 1, 16)`` uint8 in FIPS order (index 0 the
    whitening key); reduced-round instances pass fewer keys, and like
    :class:`repro.ciphers.aes.AES128` the last round skips MixColumns.
    """
    rounds = len(round_keys) - 1
    state = rows ^ round_keys[0]
    for rnd in range(1, rounds + 1):
        state = _SBOX[state[:, _SHIFT_ROWS]]
        if rnd < rounds:
            state = _mix_columns(state)
        state ^= round_keys[rnd]
    return state
