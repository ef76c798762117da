"""Triplication + majority voting — the repetition-code SIFA countermeasure.

The first SIFA countermeasure in the literature [Breier, Khairallah, Hou,
Liu 2019] runs three copies of the cipher and majority-votes every output
bit: a single-computation fault is *corrected*, so the attacker's
ineffective/effective distinction disappears.  The DATE'21 paper's
positioning argument is that this costs ≥ 3× while its own scheme stays
near 2×; the Table II ablation bench quantifies that claim on our substrate.
"""

from __future__ import annotations

from repro.ciphers.spn import CipherSpec
from repro.countermeasures.base import ProtectedDesign, RecoveryPolicy
from repro.netlist.analysis import lint_countermeasure
from repro.netlist.builder import CircuitBuilder
from repro.synth.sbox_synth import synthesize_sbox

__all__ = ["build_triplication"]


def build_triplication(
    spec: CipherSpec,
    *,
    name: str | None = None,
) -> ProtectedDesign:
    """Build the triplicate-and-vote design for ``spec``.

    The released ciphertext is the bitwise majority of the three cores, so
    recovery is implicit (error correction); the ``fault`` output flags any
    pairwise disagreement for campaign statistics.
    """
    builder = CircuitBuilder(name or f"{spec.name}_triplication")
    pt = builder.input("plaintext", spec.block_bits)
    key = builder.input("key", spec.key_bits)

    sbox_circuit = synthesize_sbox(spec.sbox.truthtable(), name=f"{spec.name}_sbox")
    cores = [
        spec.build_core(builder, pt, key, sbox_circuit=sbox_circuit, tag=t)
        for t in ("a", "r", "s")
    ]

    voted = builder.majority3_word(
        cores[0].ciphertext,
        cores[1].ciphertext,
        cores[2].ciphertext,
        tag="vote",
    )
    disagree_ab = builder.xor_word(cores[0].ciphertext, cores[1].ciphertext, tag="cmp")
    disagree_ac = builder.xor_word(cores[0].ciphertext, cores[2].ciphertext, tag="cmp")
    fault = builder.or_reduce(disagree_ab + disagree_ac, tag="cmp/ortree")

    builder.output("ciphertext", voted)
    builder.output("fault", [fault])
    design = ProtectedDesign(
        circuit=builder.build(),
        spec=spec,
        scheme="triplication",
        cores=cores,
        policy=RecoveryPolicy.SUPPRESS,
        sbox_circuit=sbox_circuit,
    )
    lint_countermeasure(design)
    return design
