"""The ACISP'20 randomised-duplication SIFA countermeasure (paper ref [12]).

The paper's starting point: each computation draws its *own* encoding bit —
λₐ for the actual core, λᵣ for the redundant core — so the statistical bias
SIFA needs is removed (whether a stuck-at fault is ineffective no longer
correlates with the logical value of the target bit).

Two deliberate weaknesses, both fixed by the three-in-one scheme and both
demonstrated by our attack benches:

- with probability ½ the two cores share an encoding (λₐ = λᵣ), so the
  Selmke identical-fault-mask DFA gets through half the time;
- the S-box and its inverted twin are *separately implemented* and
  mux-selected, so FTA against the plain copy still extracts
  λ-conditioned information.
"""

from __future__ import annotations

from repro.ciphers.spn import CipherSpec
from repro.countermeasures.base import (
    ProtectedDesign,
    RecoveryPolicy,
    attach_comparator,
)
from repro.countermeasures.merged_sbox import build_merged_sbox
from repro.netlist.analysis import lint_countermeasure
from repro.netlist.builder import CircuitBuilder

__all__ = ["build_acisp20"]


def build_acisp20(
    spec: CipherSpec,
    *,
    policy: RecoveryPolicy = RecoveryPolicy.SUPPRESS,
    name: str | None = None,
) -> ProtectedDesign:
    """Build the ACISP'20 design: independent λ per core, separate S/S̄.

    The ``lambda`` input port is 2 bits: bit 0 encodes the actual core,
    bit 1 the redundant core, drawn independently at each invocation.
    """
    builder = CircuitBuilder(name or f"{spec.name}_acisp20")
    pt = builder.input("plaintext", spec.block_bits)
    key = builder.input("key", spec.key_bits)
    lam = builder.input("lambda", 2)
    garbage = (
        builder.input("garbage", spec.block_bits)
        if policy is not RecoveryPolicy.SUPPRESS
        else None
    )

    sbox_circuit = build_merged_sbox(spec.sbox, construction="separate")
    n_sb = spec.n_sboxes
    core_a = spec.build_core(
        builder, pt, key,
        sbox_circuit=sbox_circuit, lam=[lam[0]] * n_sb, tag="a",
    )
    core_r = spec.build_core(
        builder, pt, key,
        sbox_circuit=sbox_circuit, lam=[lam[1]] * n_sb, tag="r",
    )

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
        scheme="acisp20",
        cores=[core_a, core_r],
        policy=policy,
        lambda_width=2,
        sbox_circuit=sbox_circuit,
    )
    lint_countermeasure(design)
    return design
