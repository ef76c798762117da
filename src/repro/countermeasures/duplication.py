"""Naïve duplication — the classic DFA countermeasure (paper Fig. 2).

Two identical plain-domain cores run the cipher on the same inputs; a
comparator releases the output only when both agree.  This blocks any
single-computation DFA (the faulty output never leaves the chip) but is the
design SIFA, FTA and the Selmke identical-fault DFA all bypass — which is
exactly what the paper's Figures 4(a) and 5(a) demonstrate and what our
fault campaigns reproduce against this module.
"""

from __future__ import annotations

from repro.ciphers.spn import CipherSpec
from repro.countermeasures.base import (
    ProtectedDesign,
    RecoveryPolicy,
    attach_comparator,
)
from repro.netlist.analysis import lint_countermeasure
from repro.netlist.builder import CircuitBuilder
from repro.synth.sbox_synth import synthesize_sbox

__all__ = ["build_naive_duplication"]


def build_naive_duplication(
    spec: CipherSpec,
    *,
    policy: RecoveryPolicy = RecoveryPolicy.SUPPRESS,
    name: str | None = None,
) -> ProtectedDesign:
    """Build the duplicate-and-compare design for ``spec``.

    The two cores (tags ``a`` = actual, ``r`` = redundant) share only the
    primary inputs; the test suite checks this independence structurally.
    """
    builder = CircuitBuilder(name or f"{spec.name}_naive_dup")
    pt = builder.input("plaintext", spec.block_bits)
    key = builder.input("key", spec.key_bits)
    garbage = (
        builder.input("garbage", spec.block_bits)
        if policy is not RecoveryPolicy.SUPPRESS
        else None
    )

    sbox_circuit = synthesize_sbox(spec.sbox.truthtable(), name=f"{spec.name}_sbox")
    core_a = spec.build_core(builder, pt, key, sbox_circuit=sbox_circuit, tag="a")
    core_r = spec.build_core(builder, pt, key, sbox_circuit=sbox_circuit, tag="r")

    out, fault = attach_comparator(
        builder,
        core_a.ciphertext,
        core_r.ciphertext,
        core_a.ciphertext,
        policy,
        garbage=garbage,
    )
    builder.output("ciphertext", out)
    builder.output("fault", [fault])
    design = ProtectedDesign(
        circuit=builder.build(),
        spec=spec,
        scheme="naive_duplication",
        cores=[core_a, core_r],
        policy=policy,
        sbox_circuit=sbox_circuit,
    )
    lint_countermeasure(design)
    return design
