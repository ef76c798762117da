"""Standalone S-box layer circuits (the paper's Table III units).

Table III prices *one layer of S-boxes* under both countermeasures —
sixteen 4×4 boxes for PRESENT, sixteen 8×8 boxes for AES — because the
linear parts scale identically under duplication while the non-linear part
is where the merged boxes pay their premium.  These builders produce
exactly those units: ``copies=2`` instantiates the duplicated layer
(complementary λ per copy when merged, matching the three-in-one wiring).
"""

from __future__ import annotations

from repro.ciphers.sbox import SBox
from repro.countermeasures.merged_sbox import build_merged_sbox
from repro.netlist.builder import CircuitBuilder
from repro.netlist.circuit import Circuit
from repro.synth.sbox_synth import synthesize_sbox

__all__ = ["build_sbox_layer"]


def build_sbox_layer(
    sbox: SBox,
    *,
    n_boxes: int = 16,
    copies: int = 2,
    merged: bool = False,
    construction: str = "monolithic",
    name: str | None = None,
) -> Circuit:
    """One S-box layer, instantiated ``copies`` times over shared inputs.

    Ports: ``x`` (``n·n_boxes`` bits), ``lambda`` (1 bit, merged only) →
    ``y0`` … ``y{copies-1}``.  With ``merged=True`` copy 0 uses λ and copy
    1 uses λ̄ (further copies alternate), mirroring the countermeasure's
    complementary encoding; note the *inputs* are shared raw, as the layer
    is priced in isolation exactly as the paper does.
    """
    if merged:
        unit = build_merged_sbox(sbox, construction=construction)
        label = f"{sbox.name}_merged_layer"
    else:
        unit = synthesize_sbox(sbox.truthtable(), name="unit")
        label = f"{sbox.name}_plain_layer"
    builder = CircuitBuilder(name or label)
    x = builder.input("x", sbox.n * n_boxes)
    lam = builder.input("lambda", 1)[0] if merged else None
    lam_bar = builder.not_(lam, tag="lambda_bar") if merged else None

    for copy in range(copies):
        outs: list[int] = []
        for j in range(n_boxes):
            bound = x[sbox.n * j : sbox.n * (j + 1)]
            if merged:
                bound = bound + [lam if copy % 2 == 0 else lam_bar]
            ports = builder.append_circuit(
                unit, {"x": bound}, tag_prefix=f"c{copy}/sbox{j}/"
            )
            outs.extend(ports["y"])
        builder.output(f"y{copy}", outs)
    builder.circuit.validate()
    return builder.circuit
