"""The paper's three-in-one countermeasure (§III, Algorithm 1, Fig. 3).

Randomised duplication with *complementary* encodings: the actual core runs
in domain λ, the redundant core in domain λ̄.  The three design changes over
ACISP'20, all implemented here:

1. **λ and λ̄ instead of independent coins** — identical physical fault
   masks land on complementary physical values, so the Selmke FDTC'16
   identical-fault DFA is always sensed (never "no fault");
2. **more entropy when available** — three variants trade TRNG bits for
   protection granularity: ``PRIME`` (one λ bit per invocation; the paper's
   headline design and its Table II area row), ``PER_ROUND`` (a fresh bit
   every round — 31 bits for PRESENT), ``PER_SBOX`` (a fresh bit per S-box
   per round — 16 × 31 bits for PRESENT);
3. **merged (n+1) × m S-boxes** — λ enters the S-box as a real input and
   both domains are computed by one shared logic cone, removing the
   identifiable plain-domain sub-circuit that FTA templates target.

Fault-free behaviour is the identity the test-suite checks for every
variant and every λ draw: the released ciphertext equals the unprotected
cipher's output, and the fault flag stays low.
"""

from __future__ import annotations

import enum

from repro.ciphers.spn import CipherSpec
from repro.countermeasures.base import (
    ProtectedDesign,
    RecoveryPolicy,
    attach_comparator,
)
from repro.countermeasures.merged_sbox import build_merged_sbox
from repro.netlist.analysis import lint_countermeasure
from repro.netlist.builder import CircuitBuilder

__all__ = ["LambdaVariant", "build_three_in_one"]


class LambdaVariant(enum.Enum):
    """How much TRNG entropy the scheme consumes (paper §III, change #2)."""

    #: one λ bit for the whole invocation (the paper's prime variant)
    PRIME = "prime"
    #: a fresh λ bit every round
    PER_ROUND = "per_round"
    #: a fresh λ bit per S-box per round
    PER_SBOX = "per_sbox"


def build_three_in_one(
    spec: CipherSpec,
    *,
    variant: LambdaVariant = LambdaVariant.PRIME,
    construction: str = "monolithic",
    policy: RecoveryPolicy = RecoveryPolicy.SUPPRESS,
    name: str | None = None,
) -> ProtectedDesign:
    """Build the three-in-one design for ``spec``.

    The ``lambda`` input port carries the TRNG bits: width 1 for ``PRIME``
    and ``PER_ROUND`` (the latter re-drawn every cycle via an input
    schedule), width ``spec.n_sboxes`` for ``PER_SBOX``.  The redundant
    core receives the complement of every λ bit, per Algorithm 1.

    ``construction`` selects the merged-S-box style (see
    :mod:`repro.countermeasures.merged_sbox`); the paper's design is
    ``monolithic``.
    """
    builder = CircuitBuilder(name or f"{spec.name}_three_in_one_{variant.value}")
    pt = builder.input("plaintext", spec.block_bits)
    key = builder.input("key", spec.key_bits)
    n_sb = spec.n_sboxes
    lambda_width = n_sb if variant is LambdaVariant.PER_SBOX else 1
    lam_in = builder.input("lambda", lambda_width)
    garbage = (
        builder.input("garbage", spec.block_bits)
        if policy is not RecoveryPolicy.SUPPRESS
        else None
    )

    sbox_circuit = build_merged_sbox(spec.sbox, construction=construction)

    if variant is LambdaVariant.PER_SBOX:
        lam_a = list(lam_in)
    else:
        lam_a = [lam_in[0]] * n_sb
    lam_r = [builder.not_(bit, tag="lambda_bar") for bit in lam_in]
    if variant is not LambdaVariant.PER_SBOX:
        lam_r = [lam_r[0]] * n_sb

    dynamic = variant is not LambdaVariant.PRIME
    core_a = spec.build_core(
        builder, pt, key,
        sbox_circuit=sbox_circuit, lam=lam_a, dynamic_domain=dynamic, tag="a",
    )
    core_r = spec.build_core(
        builder, pt, key,
        sbox_circuit=sbox_circuit, lam=lam_r, dynamic_domain=dynamic, tag="r",
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
        scheme="three_in_one",
        cores=[core_a, core_r],
        policy=policy,
        lambda_width=lambda_width,
        dynamic_lambda=dynamic,
        variant=variant.value,
        sbox_circuit=sbox_circuit,
        extra={"construction": construction},
    )
    lint_countermeasure(design)
    return design
