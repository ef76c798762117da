"""PRESENT-80 as a round-iterative hardware datapath.

The scheduler implements the spec's 80-bit key schedule: rotate-left-61,
S-box on the top nibble, round-counter XOR into bits 19..15, with a 5-bit
counter register (init 1).  The unprotected single-core circuit built by
:func:`build_present_circuit` encrypts one block in 31 clock cycles and is
the base design every countermeasure wraps.
"""

from __future__ import annotations

from repro.ciphers.present import PLAYER, ROUNDS, Present80
from repro.ciphers.rounds import check_rounds
from repro.ciphers.sbox import PRESENT_SBOX
from repro.ciphers.spn import SpnCore, SpnSpec, build_spn_core
from repro.netlist.builder import CircuitBuilder
from repro.netlist.circuit import Circuit
from repro.synth.sbox_synth import synthesize_sbox

__all__ = ["PresentSpec", "build_present_circuit"]

Word = list[int]


class PresentSpec(SpnSpec):
    """PRESENT-80 parameters for the generic SPN template."""

    name = "present80"
    block_bits = 64
    key_bits = 80
    rounds = ROUNDS
    sbox = PRESENT_SBOX
    perm = list(PLAYER)
    add_key_first = True
    final_whitening = True

    def __init__(self, *, rounds: int | None = None) -> None:
        if rounds is not None:
            # Reduced-round instance (CI smoke sweeps, quick certifies).
            # The netlist stays spec-faithful per round; only the iteration
            # count shrinks, and reference() returns a matching
            # reduced-round oracle so KAT-equivalence checks still apply.
            self.rounds = check_rounds(rounds, ROUNDS)
        self._key_sbox_circuit = synthesize_sbox(
            self.sbox.truthtable(), name="present_key_sbox"
        )

    def reference(self, key: int) -> Present80:
        return Present80(key, rounds=self.rounds)

    def build_scheduler(
        self, builder: CircuitBuilder, key_in: Word, first: int, tag: str
    ) -> Word:
        if len(key_in) != 80:
            raise ValueError("PRESENT-80 key port must be 80 bits")
        key_q, key_connect = builder.register(80, tag=f"{tag}/keyreg")
        cur = builder.mux_word(first, key_q, key_in, tag=f"{tag}/keyload")

        # Round key: the leftmost 64 bits (bits 79..16) of the register.
        round_mask = cur[16:80]

        # Update: rotate left 61 — bit j of the rotated word is bit
        # (j + 19) mod 80 of the current word.
        rot = [cur[(j + 19) % 80] for j in range(80)]

        # S-box on the top nibble (bits 79..76, LSB-first slice [76:80]).
        ports = builder.append_circuit(
            self._key_sbox_circuit,
            {"x": rot[76:80]},
            tag_prefix=f"{tag}/keysbox/",
        )
        nxt = rot[:76] + ports["y"]

        # Round counter (1..31) XORed into bits 19..15 (LSB at bit 15).
        counter_q, counter_connect = builder.register(
            5, init=1, tag=f"{tag}/roundctr"
        )
        counter_connect(builder.incrementer(counter_q, tag=f"{tag}/roundctr"))
        for i in range(5):
            nxt[15 + i] = builder.xor(nxt[15 + i], counter_q[i], tag=f"{tag}/ctrxor")

        key_connect(nxt)
        return round_mask


def build_present_circuit(*, name: str = "present80") -> tuple[Circuit, SpnCore]:
    """A bare (unprotected) PRESENT-80 encryption circuit.

    Ports: ``plaintext`` (64), ``key`` (80) → ``ciphertext`` (64).  Run the
    simulator for 31 cycles, then evaluate combinationally and read the
    output (see :class:`~repro.ciphers.spn.SpnCore`).
    """
    spec = PresentSpec()
    builder = CircuitBuilder(name)
    pt = builder.input("plaintext", 64)
    key = builder.input("key", 80)
    sbox_circuit = synthesize_sbox(spec.sbox.truthtable(), name="present_sbox")
    core = build_spn_core(
        builder, spec, pt, key, sbox_circuit=sbox_circuit, tag="u"
    )
    builder.output("ciphertext", core.ciphertext)
    return builder.build(), core
