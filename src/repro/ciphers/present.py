"""PRESENT reference implementation (Bogdanov et al., CHES 2007).

Pure-integer spec code following the paper's big-endian bit numbering
(bit 63 of the state is the most significant).  Both the 80-bit and 128-bit
key schedules are provided; the DATE'21 evaluation uses PRESENT-80.

This module is the oracle: the gate-level datapaths in
:mod:`repro.ciphers.netlist_present` and every countermeasure wrapper must
agree with it bit-for-bit, and the test suite checks the four official
test vectors from the CHES 2007 paper.
"""

from __future__ import annotations

from repro.ciphers.rounds import check_rounds
from repro.ciphers.sbox import PRESENT_SBOX, SBox

__all__ = ["Present80", "Present128", "PLAYER", "PLAYER_INV", "ROUNDS"]

ROUNDS = 31

#: pLayer: output position of input bit ``i`` (spec: P(i) = 16·i mod 63).
PLAYER = [(16 * i) % 63 if i != 63 else 63 for i in range(64)]
PLAYER_INV = [0] * 64
for _i, _p in enumerate(PLAYER):
    PLAYER_INV[_p] = _i


def _sbox_layer(state: int, sbox: SBox) -> int:
    out = 0
    for nib in range(16):
        out |= sbox((state >> (4 * nib)) & 0xF) << (4 * nib)
    return out


def _p_layer(state: int, perm) -> int:
    out = 0
    for i in range(64):
        if (state >> i) & 1:
            out |= 1 << perm[i]
    return out


class Present80:
    """PRESENT with the 80-bit key schedule (the paper's target design).

    >>> hex(Present80(0).encrypt(0))
    '0x5579c1387b228445'
    """

    key_bits = 80
    block_bits = 64
    rounds = ROUNDS
    sbox = PRESENT_SBOX

    def __init__(self, key: int, *, rounds: int | None = None) -> None:
        if key < 0 or key >> self.key_bits:
            raise ValueError(f"key does not fit in {self.key_bits} bits")
        if rounds is not None:
            self.rounds = check_rounds(rounds, type(self).rounds)
        self.key = key
        self.round_keys = self._key_schedule(key)

    def _key_schedule(self, key: int) -> list[int]:
        """All 32 round keys (K1..K32), per the spec's 80-bit schedule."""
        reg = key
        keys = []
        for rnd in range(1, self.rounds + 2):
            keys.append(reg >> 16)  # leftmost 64 bits of the 80-bit register
            # rotate left by 61
            reg = ((reg << 61) | (reg >> 19)) & ((1 << 80) - 1)
            # S-box on the leftmost nibble [79:76]
            top = (reg >> 76) & 0xF
            reg = (reg & ~(0xF << 76)) | (self.sbox(top) << 76)
            # XOR round counter into bits [19:15]
            reg ^= rnd << 15
        return keys

    def encrypt(self, plaintext: int) -> int:
        """One 64-bit block, 31 rounds plus the final key addition."""
        if plaintext < 0 or plaintext >> 64:
            raise ValueError("plaintext does not fit in 64 bits")
        state = plaintext
        for rnd in range(self.rounds):
            state ^= self.round_keys[rnd]
            state = _sbox_layer(state, self.sbox)
            state = _p_layer(state, PLAYER)
        return state ^ self.round_keys[self.rounds]

    def decrypt(self, ciphertext: int) -> int:
        """Inverse of :meth:`encrypt`."""
        if ciphertext < 0 or ciphertext >> 64:
            raise ValueError("ciphertext does not fit in 64 bits")
        inv = self.sbox.inverse_sbox()
        state = ciphertext ^ self.round_keys[self.rounds]
        for rnd in reversed(range(self.rounds)):
            state = _p_layer(state, PLAYER_INV)
            state = _sbox_layer(state, inv)
            state ^= self.round_keys[rnd]
        return state

    # ------------------------------------------------- attack helper views

    def round_states(self, plaintext: int) -> list[int]:
        """State *before* the key addition of each round (index 0 = input).

        Index ``r`` is the state entering round ``r+1``; the last entry is
        the pre-whitening value whose XOR with K32 is the ciphertext.  The
        SIFA/FTA analyses use these intermediates as ground truth.
        """
        states = [plaintext]
        state = plaintext
        for rnd in range(self.rounds):
            state ^= self.round_keys[rnd]
            state = _sbox_layer(state, self.sbox)
            state = _p_layer(state, PLAYER)
            states.append(state)
        return states

    def last_round_sbox_input(self, plaintext: int, nibble: int) -> int:
        """Value entering S-box ``nibble`` in the final (31st) round."""
        state = self.round_states(plaintext)[self.rounds - 1]
        state ^= self.round_keys[self.rounds - 1]
        return (state >> (4 * nibble)) & 0xF


class Present128(Present80):
    """PRESENT with the 128-bit key schedule (completeness; same datapath)."""

    key_bits = 128

    def _key_schedule(self, key: int) -> list[int]:
        reg = key
        keys = []
        for rnd in range(1, self.rounds + 2):
            keys.append(reg >> 64)
            reg = ((reg << 61) | (reg >> 67)) & ((1 << 128) - 1)
            hi = (reg >> 124) & 0xF
            lo = (reg >> 120) & 0xF
            reg = (reg & ~(0xFF << 120)) | (self.sbox(hi) << 124) | (self.sbox(lo) << 120)
            reg ^= rnd << 62
        return keys
