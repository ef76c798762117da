"""GIFT-64-128 and GIFT-128-128 as round-iterative hardware datapaths.

Demonstrates the countermeasure's genericity claim: the same SPN template
and the same countermeasure wrappers apply unchanged to ciphers with a
different S-box, permutation, round-key structure (partial-state key
addition plus LFSR round constants) and round ordering (key added *after*
the permutation).  GIFT-128 doubles the state and injects two 32-bit key
words per round; everything else is shared with GIFT-64.
"""

from __future__ import annotations

from repro.ciphers.gift import (
    _CONSTANTS,
    GIFT64_PERM,
    GIFT128_PERM,
    ROUNDS,
    ROUNDS128,
    Gift64,
    Gift128,
)
from repro.ciphers.rounds import check_rounds
from repro.ciphers.sbox import GIFT_SBOX
from repro.ciphers.spn import SpnCore, SpnSpec, build_spn_core
from repro.netlist.builder import CircuitBuilder
from repro.netlist.circuit import Circuit
from repro.synth.sbox_synth import synthesize_sbox

__all__ = ["GiftSpec", "Gift128Spec", "build_gift_circuit"]

Word = list[int]


def _gift_key_update(builder: CircuitBuilder, cur: Word, zero, tag: str) -> Word:
    """Shared key-state update: (k7..k0) → (k1>>>2, k0>>>12, k7..k2)."""
    nxt: Word = [zero] * 128
    for w in range(6):
        for b in range(16):
            nxt[16 * w + b] = cur[16 * (w + 2) + b]
    for b in range(16):
        nxt[16 * 6 + b] = cur[16 * 0 + (b + 12) % 16]  # k0 >>> 12
        nxt[16 * 7 + b] = cur[16 * 1 + (b + 2) % 16]  # k1 >>> 2
    return nxt


def _gift_lfsr(builder: CircuitBuilder, tag: str) -> Word:
    """The 6-bit round-constant LFSR.

    Feeding the register with the *next* value and reading that same value
    makes cycle 0 produce constant 0b000001 from the all-zero reset state,
    exactly the reference sequence.
    """
    lfsr_q, lfsr_connect = builder.register(6, tag=f"{tag}/lfsr")
    feedback = builder.xnor(lfsr_q[5], lfsr_q[4], tag=f"{tag}/lfsr")
    constant = [feedback] + lfsr_q[0:5]
    lfsr_connect(constant)
    return constant


class GiftSpec(SpnSpec):
    """GIFT-64-128 parameters for the generic SPN template."""

    name = "gift64"
    block_bits = 64
    key_bits = 128
    rounds = ROUNDS
    sbox = GIFT_SBOX
    perm = list(GIFT64_PERM)
    add_key_first = False
    final_whitening = False

    def __init__(self, *, rounds: int | None = None) -> None:
        if rounds is not None:
            # Reduced-round instance (CI smoke sweeps, quick certifies);
            # the netlist stays spec-faithful per round.
            self.rounds = check_rounds(rounds, type(self).rounds)

    def reference(self, key: int) -> Gift64:
        return Gift64(key, rounds=self.rounds)

    def round_masks(self, key: int) -> list[int]:
        """GIFT's round XORs: partial round key + constants + top bit."""
        cipher = self.reference(key)
        return [
            cipher._round_key_mask(u, v, constant)
            for (u, v), constant in zip(cipher.round_keys, _CONSTANTS)
        ]

    def build_scheduler(
        self, builder: CircuitBuilder, key_in: Word, first: int, tag: str
    ) -> Word:
        if len(key_in) != 128:
            raise ValueError("GIFT-64 key port must be 128 bits")
        key_q, key_connect = builder.register(128, tag=f"{tag}/keyreg")
        cur = builder.mux_word(first, key_q, key_in, tag=f"{tag}/keyload")

        u = cur[16:32]  # k1
        v = cur[0:16]  # k0
        constant = _gift_lfsr(builder, tag)

        zero = builder.circuit.const(0)
        one = builder.circuit.const(1)
        mask: Word = [zero] * 64
        for i in range(16):
            mask[4 * i] = v[i]
            mask[4 * i + 1] = u[i]
        for j in range(6):
            mask[4 * j + 3] = constant[j]
        mask[63] = one

        key_connect(_gift_key_update(builder, cur, zero, tag))
        return mask


class Gift128Spec(GiftSpec):
    """GIFT-128-128 parameters for the generic SPN template.

    The key register and its update are byte-identical to GIFT-64; only
    the extraction changes: two 32-bit words ``U = k5‖k4`` (state bits
    ``4i+2``) and ``V = k1‖k0`` (bits ``4i+1``), constants at ``4j+3``,
    top bit 127.
    """

    name = "gift128"
    block_bits = 128
    rounds = ROUNDS128
    perm = list(GIFT128_PERM)

    def reference(self, key: int) -> Gift128:
        return Gift128(key, rounds=self.rounds)

    def build_scheduler(
        self, builder: CircuitBuilder, key_in: Word, first: int, tag: str
    ) -> Word:
        if len(key_in) != 128:
            raise ValueError("GIFT-128 key port must be 128 bits")
        key_q, key_connect = builder.register(128, tag=f"{tag}/keyreg")
        cur = builder.mux_word(first, key_q, key_in, tag=f"{tag}/keyload")

        u = cur[64:96]  # k5 ‖ k4
        v = cur[0:32]  # k1 ‖ k0
        constant = _gift_lfsr(builder, tag)

        zero = builder.circuit.const(0)
        one = builder.circuit.const(1)
        mask: Word = [zero] * 128
        for i in range(32):
            mask[4 * i + 1] = v[i]
            mask[4 * i + 2] = u[i]
        for j in range(6):
            mask[4 * j + 3] = constant[j]
        mask[127] = one

        key_connect(_gift_key_update(builder, cur, zero, tag))
        return mask


def build_gift_circuit(*, name: str = "gift64") -> tuple[Circuit, SpnCore]:
    """A bare (unprotected) GIFT-64 encryption circuit.

    Ports: ``plaintext`` (64), ``key`` (128) → ``ciphertext`` (64); 28
    clock cycles per block.
    """
    spec = GiftSpec()
    builder = CircuitBuilder(name)
    pt = builder.input("plaintext", 64)
    key = builder.input("key", 128)
    sbox_circuit = synthesize_sbox(spec.sbox.truthtable(), name="gift_sbox")
    core = build_spn_core(
        builder, spec, pt, key, sbox_circuit=sbox_circuit, tag="u"
    )
    builder.output("ciphertext", core.ciphertext)
    builder.circuit.validate()
    return builder.circuit, core
