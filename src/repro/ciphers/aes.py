"""AES-128 reference implementation (FIPS-197).

The DATE'21 paper uses AES only for its S-box layer cost (Table III), but a
full, test-vector-checked AES-128 is included so the countermeasure can be
demonstrated on a second real cipher and so the AES S-box object used for
synthesis is generated from first principles (GF(2^8) inversion + affine
map) rather than a typed-in table.
"""

from __future__ import annotations

from repro.ciphers.rounds import check_rounds
from repro.ciphers.sbox import SBox

__all__ = ["AES128", "AES_SBOX", "gf_mul"]


def gf_mul(a: int, b: int) -> int:
    """Multiplication in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        carry = a & 0x80
        a = (a << 1) & 0xFF
        if carry:
            a ^= 0x1B
        b >>= 1
    return result


def _gf_inverse_table() -> list[int]:
    inv = [0] * 256
    # x^254 == x^{-1} in GF(2^8); square-and-multiply avoids a nested scan.
    for a in range(1, 256):
        acc = 1
        power = a
        exp = 254
        while exp:
            if exp & 1:
                acc = gf_mul(acc, power)
            power = gf_mul(power, power)
            exp >>= 1
        inv[a] = acc
    return inv


def _build_aes_sbox() -> SBox:
    inv = _gf_inverse_table()
    table = []
    for x in range(256):
        y = inv[x]
        out = 0
        for i in range(8):
            bit = (
                (y >> i)
                ^ (y >> ((i + 4) % 8))
                ^ (y >> ((i + 5) % 8))
                ^ (y >> ((i + 6) % 8))
                ^ (y >> ((i + 7) % 8))
                ^ (0x63 >> i)
            ) & 1
            out |= bit << i
        table.append(out)
    return SBox(table, name="aes")


#: The AES S-box, derived from the field inversion + affine map.
AES_SBOX = _build_aes_sbox()

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


class AES128:
    """AES with a 128-bit key, operating on 16-byte blocks.

    Blocks and keys are ``bytes`` (big-endian network order, as in
    FIPS-197).

    >>> key = bytes(range(16))
    >>> pt = bytes.fromhex("00112233445566778899aabbccddeeff")
    >>> AES128(key).encrypt_block(pt).hex()
    '69c4e0d86a7b0430d8cdb78070b4c55a'
    """

    rounds = 10
    sbox = AES_SBOX

    def __init__(self, key: bytes, *, rounds: int | None = None) -> None:
        if len(key) != 16:
            raise ValueError(f"AES-128 key must be 16 bytes, got {len(key)}")
        if rounds is not None:
            self.rounds = check_rounds(rounds, type(self).rounds)
        self.key = bytes(key)
        self.round_keys = self._expand_key(key)

    def _expand_key(self, key: bytes) -> list[list[int]]:
        words = [list(key[4 * i : 4 * i + 4]) for i in range(4)]
        for i in range(4, 4 * (self.rounds + 1)):
            temp = list(words[i - 1])
            if i % 4 == 0:
                temp = temp[1:] + temp[:1]
                temp = [self.sbox(b) for b in temp]
                temp[0] ^= _RCON[i // 4 - 1]
            words.append([a ^ b for a, b in zip(words[i - 4], temp)])
        return [
            [b for w in words[4 * r : 4 * r + 4] for b in w]
            for r in range(self.rounds + 1)
        ]

    # state is a 16-byte list in FIPS column-major order: state[r + 4c]

    @staticmethod
    def _add_round_key(state: list[int], rk: list[int]) -> list[int]:
        return [s ^ k for s, k in zip(state, rk)]

    def _sub_bytes(self, state: list[int]) -> list[int]:
        return [self.sbox(b) for b in state]

    def _inv_sub_bytes(self, state: list[int]) -> list[int]:
        inv = self.sbox.inverse_sbox()
        return [inv(b) for b in state]

    @staticmethod
    def _shift_rows(state: list[int]) -> list[int]:
        out = list(state)
        for row in range(4):
            vals = [state[row + 4 * col] for col in range(4)]
            vals = vals[row:] + vals[:row]
            for col in range(4):
                out[row + 4 * col] = vals[col]
        return out

    @staticmethod
    def _inv_shift_rows(state: list[int]) -> list[int]:
        out = list(state)
        for row in range(4):
            vals = [state[row + 4 * col] for col in range(4)]
            vals = vals[-row:] + vals[:-row] if row else vals
            for col in range(4):
                out[row + 4 * col] = vals[col]
        return out

    @staticmethod
    def _mix_columns(state: list[int]) -> list[int]:
        out = [0] * 16
        for col in range(4):
            a = state[4 * col : 4 * col + 4]
            out[4 * col + 0] = gf_mul(a[0], 2) ^ gf_mul(a[1], 3) ^ a[2] ^ a[3]
            out[4 * col + 1] = a[0] ^ gf_mul(a[1], 2) ^ gf_mul(a[2], 3) ^ a[3]
            out[4 * col + 2] = a[0] ^ a[1] ^ gf_mul(a[2], 2) ^ gf_mul(a[3], 3)
            out[4 * col + 3] = gf_mul(a[0], 3) ^ a[1] ^ a[2] ^ gf_mul(a[3], 2)
        return out

    @staticmethod
    def _inv_mix_columns(state: list[int]) -> list[int]:
        out = [0] * 16
        for col in range(4):
            a = state[4 * col : 4 * col + 4]
            out[4 * col + 0] = (
                gf_mul(a[0], 14) ^ gf_mul(a[1], 11) ^ gf_mul(a[2], 13) ^ gf_mul(a[3], 9)
            )
            out[4 * col + 1] = (
                gf_mul(a[0], 9) ^ gf_mul(a[1], 14) ^ gf_mul(a[2], 11) ^ gf_mul(a[3], 13)
            )
            out[4 * col + 2] = (
                gf_mul(a[0], 13) ^ gf_mul(a[1], 9) ^ gf_mul(a[2], 14) ^ gf_mul(a[3], 11)
            )
            out[4 * col + 3] = (
                gf_mul(a[0], 11) ^ gf_mul(a[1], 13) ^ gf_mul(a[2], 9) ^ gf_mul(a[3], 14)
            )
        return out

    def encrypt_block(self, plaintext: bytes) -> bytes:
        if len(plaintext) != 16:
            raise ValueError("AES block must be 16 bytes")
        state = self._add_round_key(list(plaintext), self.round_keys[0])
        for rnd in range(1, self.rounds):
            state = self._sub_bytes(state)
            state = self._shift_rows(state)
            state = self._mix_columns(state)
            state = self._add_round_key(state, self.round_keys[rnd])
        state = self._sub_bytes(state)
        state = self._shift_rows(state)
        state = self._add_round_key(state, self.round_keys[self.rounds])
        return bytes(state)

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) != 16:
            raise ValueError("AES block must be 16 bytes")
        state = self._add_round_key(list(ciphertext), self.round_keys[self.rounds])
        state = self._inv_shift_rows(state)
        state = self._inv_sub_bytes(state)
        for rnd in reversed(range(1, self.rounds)):
            state = self._add_round_key(state, self.round_keys[rnd])
            state = self._inv_mix_columns(state)
            state = self._inv_shift_rows(state)
            state = self._inv_sub_bytes(state)
        return bytes(self._add_round_key(state, self.round_keys[0]))
