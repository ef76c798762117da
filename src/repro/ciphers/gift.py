"""GIFT-64-128 and GIFT-128-128 reference implementations (Banik et al.,
CHES 2017).

GIFT is not part of the paper's evaluation; it is included to demonstrate
the *generic* claim — the three-in-one countermeasure wraps any S-box/
permutation cipher expressed over this package's netlist IR.  Both members
of the family are checked against the test vectors published with the
CHES 2017 paper (see ``tests/cipherlight/vectors.py``), and the netlist
generators are checked against these references.
"""

from __future__ import annotations

from repro.ciphers.rounds import check_rounds
from repro.ciphers.sbox import GIFT_SBOX

__all__ = [
    "Gift64",
    "Gift128",
    "GIFT64_PERM",
    "GIFT64_PERM_INV",
    "GIFT128_PERM",
    "GIFT128_PERM_INV",
]

ROUNDS = 28
ROUNDS128 = 40

#: GIFT-64 bit permutation: bit ``i`` of the state moves to ``GIFT64_PERM[i]``.
GIFT64_PERM = [
    0, 17, 34, 51, 48, 1, 18, 35, 32, 49, 2, 19, 16, 33, 50, 3,
    4, 21, 38, 55, 52, 5, 22, 39, 36, 53, 6, 23, 20, 37, 54, 7,
    8, 25, 42, 59, 56, 9, 26, 43, 40, 57, 10, 27, 24, 41, 58, 11,
    12, 29, 46, 63, 60, 13, 30, 47, 44, 61, 14, 31, 28, 45, 62, 15,
]
GIFT64_PERM_INV = [0] * 64
for _i, _p in enumerate(GIFT64_PERM):
    GIFT64_PERM_INV[_p] = _i

#: GIFT-128 bit permutation (the spec's closed form over 4-bit slices).
GIFT128_PERM = [
    4 * (i // 16) + 32 * ((3 * ((i % 16) // 4) + (i % 4)) % 4) + (i % 4)
    for i in range(128)
]
GIFT128_PERM_INV = [0] * 128
for _i, _p in enumerate(GIFT128_PERM):
    GIFT128_PERM_INV[_p] = _i


def _round_constants(n_rounds: int) -> list[int]:
    """The 6-bit LFSR constants: c ← (c << 1) | (c5 ⊕ c4 ⊕ 1)."""
    constants = []
    c = 0
    for _ in range(n_rounds):
        c = ((c << 1) & 0x3F) | ((((c >> 5) ^ (c >> 4)) & 1) ^ 1)
        constants.append(c)
    return constants


_CONSTANTS = _round_constants(ROUNDS128 + 8)


class Gift64:
    """GIFT-64 with a 128-bit key, 28 rounds.

    >>> hex(Gift64(0).encrypt(0))
    '0xf62bc3ef34f775ac'
    """

    key_bits = 128
    block_bits = 64
    rounds = ROUNDS
    sbox = GIFT_SBOX
    perm = GIFT64_PERM
    perm_inv = GIFT64_PERM_INV

    def __init__(self, key: int, *, rounds: int | None = None) -> None:
        if key < 0 or key >> self.key_bits:
            raise ValueError("key does not fit in 128 bits")
        if rounds is not None:
            self.rounds = check_rounds(rounds, type(self).rounds)
        self.key = key
        self.round_keys = self._key_schedule(key)

    def _key_schedule(self, key: int) -> list[tuple[int, int]]:
        """Per-round ``(U, V)`` 16-bit words (U = k1, V = k0 at each round)."""
        words = [(key >> (16 * i)) & 0xFFFF for i in range(8)]  # k0..k7
        out = []
        for _ in range(self.rounds):
            u, v = words[1], words[0]
            out.append((u, v))
            rot2 = ((words[1] >> 2) | (words[1] << 14)) & 0xFFFF
            rot12 = ((words[0] >> 12) | (words[0] << 4)) & 0xFFFF
            words = words[2:] + [rot12, rot2]  # new k7 = k1>>>2, k6 = k0>>>12
        return out

    @classmethod
    def _sub_cells(cls, state: int, sbox) -> int:
        out = 0
        for nib in range(cls.block_bits // 4):
            out |= sbox((state >> (4 * nib)) & 0xF) << (4 * nib)
        return out

    @classmethod
    def _perm_bits(cls, state: int, perm) -> int:
        out = 0
        for i in range(cls.block_bits):
            if (state >> i) & 1:
                out |= 1 << perm[i]
        return out

    @staticmethod
    def _round_key_mask(u: int, v: int, constant: int) -> int:
        """The 64-bit XOR mask for one round's key/constant addition."""
        mask = 1 << 63
        for i in range(16):
            mask |= ((u >> i) & 1) << (4 * i + 1)
            mask |= ((v >> i) & 1) << (4 * i)
        for j in range(6):
            mask |= ((constant >> j) & 1) << (4 * j + 3)
        return mask

    def encrypt(self, plaintext: int) -> int:
        if plaintext < 0 or plaintext >> self.block_bits:
            raise ValueError(f"plaintext does not fit in {self.block_bits} bits")
        state = plaintext
        for rnd in range(self.rounds):
            state = self._sub_cells(state, self.sbox)
            state = self._perm_bits(state, self.perm)
            u, v = self.round_keys[rnd]
            state ^= self._round_key_mask(u, v, _CONSTANTS[rnd])
        return state

    def round_states(self, plaintext: int) -> list[int]:
        """State entering each round (index 0 = plaintext).

        For GIFT the S-box layer comes first, so entry ``r`` is exactly the
        S-box-layer input of round ``r + 1`` (template attacks use this as
        ground truth).
        """
        states = [plaintext]
        state = plaintext
        for rnd in range(self.rounds):
            state = self._sub_cells(state, self.sbox)
            state = self._perm_bits(state, self.perm)
            u, v = self.round_keys[rnd]
            state ^= self._round_key_mask(u, v, _CONSTANTS[rnd])
            states.append(state)
        return states

    def decrypt(self, ciphertext: int) -> int:
        if ciphertext < 0 or ciphertext >> self.block_bits:
            raise ValueError(f"ciphertext does not fit in {self.block_bits} bits")
        inv = self.sbox.inverse_sbox()
        state = ciphertext
        for rnd in reversed(range(self.rounds)):
            u, v = self.round_keys[rnd]
            state ^= self._round_key_mask(u, v, _CONSTANTS[rnd])
            state = self._perm_bits(state, self.perm_inv)
            state = self._sub_cells(state, inv)
        return state


class Gift128(Gift64):
    """GIFT-128 with a 128-bit key, 40 rounds.

    Same family: the round keeps SubCells → PermBits → AddRoundKey, the
    key register update is identical, but the round key injects *two*
    32-bit words — ``U = k5‖k4`` into state bits ``4i+2`` and
    ``V = k1‖k0`` into bits ``4i+1`` — and the top bit is 127.

    >>> hex(Gift128(0).encrypt(0))
    '0xcd0bd738388ad3f668b15a36ceb6ff92'
    """

    key_bits = 128
    block_bits = 128
    rounds = ROUNDS128
    perm = GIFT128_PERM
    perm_inv = GIFT128_PERM_INV

    def _key_schedule(self, key: int) -> list[tuple[int, int]]:
        """Per-round ``(U, V)`` 32-bit words (U = k5‖k4, V = k1‖k0)."""
        words = [(key >> (16 * i)) & 0xFFFF for i in range(8)]  # k0..k7
        out = []
        for _ in range(self.rounds):
            out.append(((words[5] << 16) | words[4], (words[1] << 16) | words[0]))
            rot2 = ((words[1] >> 2) | (words[1] << 14)) & 0xFFFF
            rot12 = ((words[0] >> 12) | (words[0] << 4)) & 0xFFFF
            words = words[2:] + [rot12, rot2]
        return out

    @staticmethod
    def _round_key_mask(u: int, v: int, constant: int) -> int:
        """The 128-bit XOR mask for one round's key/constant addition."""
        mask = 1 << 127
        for i in range(32):
            mask |= ((u >> i) & 1) << (4 * i + 2)
            mask |= ((v >> i) & 1) << (4 * i + 1)
        for j in range(6):
            mask |= ((constant >> j) & 1) << (4 * j + 3)
        return mask
