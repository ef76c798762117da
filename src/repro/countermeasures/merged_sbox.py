"""Merged ``(n+1) × m`` S-boxes — the paper's third design change.

All constructions share the same interface (input port ``x`` of width
``n + 1`` whose MSB is the domain bit λ; output port ``y``): with λ = 0 the
box computes ``S(x)``, with λ = 1 it computes ``S(x̄)‾`` — the
inverted-domain box (see :meth:`SBox.merged_truthtable`).

Three constructions with different security/area trade-offs:

``monolithic`` (the paper's choice, §III: "the actual SBox and its
    inversion is implemented at one place")
    The ``(n+1)``-input truth table is synthesised as a single function.
    λ participates in the shared logic like any other input, so no
    identifiable sub-circuit computes plain-domain values — this is what
    degrades the FTA template.
``separate`` (the ACISP'20 predecessor construction)
    ``S`` and its inverted-domain twin (:func:`invert_circuit`) are
    instantiated side by side and a mux row selects per output bit.  The
    plain copy's AND gates carry true logical values whenever λ = 0, which
    is the structural weakness the paper's FTA discussion points at.
``xor_wrap`` (folklore construction, used here as an area ablation)
    ``T(λ, x) = S(x ⊕ λⁿ) ⊕ λᵐ`` — XOR λ into every input and output of a
    single plain box.  Cheapest, but the λ wires are structurally exposed.
"""

from __future__ import annotations

from repro.ciphers.sbox import SBox
from repro.countermeasures.inversion import invert_circuit
from repro.netlist.builder import CircuitBuilder
from repro.netlist.circuit import Circuit
from repro.synth.sbox_synth import synthesize_sbox, verify_sbox_circuit

__all__ = ["MERGED_CONSTRUCTIONS", "build_merged_sbox"]

MERGED_CONSTRUCTIONS = ("monolithic", "separate", "xor_wrap")


def build_merged_sbox(
    sbox: SBox,
    *,
    construction: str = "monolithic",
    name: str | None = None,
) -> Circuit:
    """Build a merged S-box circuit; verified exhaustively before return."""
    if construction not in MERGED_CONSTRUCTIONS:
        raise ValueError(
            f"unknown construction {construction!r}; pick from {MERGED_CONSTRUCTIONS}"
        )
    name = name or f"{sbox.name}_merged_{construction}"
    merged_table = sbox.merged_truthtable()

    if construction == "monolithic":
        circuit = synthesize_sbox(merged_table, name=name)
        return circuit

    n = sbox.n
    builder = CircuitBuilder(name)
    x = builder.input("x", n + 1)
    data, lam = x[:n], x[n]
    plain = synthesize_sbox(sbox.truthtable(), name="plain")

    if construction == "separate":
        inverted = invert_circuit(plain, name="inverted")
        y_plain = builder.append_circuit(plain, {"x": data}, tag_prefix="s/")["y"]
        y_inv = builder.append_circuit(inverted, {"x": data}, tag_prefix="sbar/")["y"]
        y = builder.mux_word(lam, y_plain, y_inv, tag="sel")
    else:  # xor_wrap
        enc = [builder.xor(bit, lam, tag="wrap_in") for bit in data]
        y_mid = builder.append_circuit(plain, {"x": enc}, tag_prefix="s/")["y"]
        y = [builder.xor(bit, lam, tag="wrap_out") for bit in y_mid]

    builder.output("y", y)
    builder.circuit.validate()
    verify_sbox_circuit(builder.circuit, merged_table)
    return builder.circuit
