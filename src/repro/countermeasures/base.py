"""Common scaffolding for countermeasure circuits.

Uniform port contract of every protected design (so campaigns, attacks and
benchmarks can swap schemes freely):

inputs
    ``plaintext`` (block), ``key`` (key width), optionally ``lambda``
    (``lambda_width`` bits of per-invocation randomness) and ``garbage``
    (block-wide random word used when the recovery policy releases random
    values instead of suppressing).
outputs
    ``ciphertext`` (block) — the released value after recovery handling;
    ``fault`` (1 bit) — the comparator verdict (1 = mismatch sensed).
    Designs with error *correction* (triplication) still expose the
    detection flag for campaign statistics, but their released ciphertext
    is the corrected value.

Timing: run ``design.cycles`` clock steps, then one combinational
evaluation; then read outputs (see :meth:`ProtectedDesign.run`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.ciphers.spn import CipherSpec, SpnCore
from repro.netlist.builder import CircuitBuilder
from repro.netlist.circuit import Circuit
from repro.netlist.simulator import Simulator
from repro.rng import make_rng, random_bits

__all__ = ["ProtectedDesign", "RecoveryPolicy", "attach_comparator"]

Word = list[int]


class RecoveryPolicy(enum.Enum):
    """What the design releases when the comparator senses a fault."""

    #: release the all-zero word (output suppression)
    SUPPRESS = "suppress"
    #: release the externally supplied random ``garbage`` word
    RANDOM_GARBAGE = "random_garbage"
    #: implicit check (paper §IV-B / ref [4]): always release, but XOR the
    #: random garbage word in whenever the comparator fires — the attacker
    #: receives a uselessly randomised word instead of a recognisable
    #: suppression, and no explicit fault signal exists on the interface
    INFECTIVE = "infective"


@dataclass
class ProtectedDesign:
    """A complete countermeasure circuit plus its metadata."""

    circuit: Circuit
    spec: CipherSpec
    scheme: str
    cores: list[SpnCore]
    policy: RecoveryPolicy
    lambda_width: int = 0
    dynamic_lambda: bool = False
    variant: str | None = None
    #: the standalone S-box circuit stamped into every core (template
    #: attacks rebuild per-instance net maps from it)
    sbox_circuit: Circuit | None = None
    extra: dict = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        """Clock cycles per encryption."""
        return self.spec.rounds

    def simulator(
        self, batch: int, *, faults=None, backend: str | None = None
    ) -> Simulator:
        """A fresh simulator sized for ``batch`` parallel invocations.

        ``backend`` selects the evaluation kernel (``"levelized"`` /
        ``"compiled"`` / ``"reference"``); None uses the simulator default.
        Results are bit-identical whichever is chosen.  One simulator
        serves any number of :meth:`run` calls.
        """
        return Simulator(self.circuit, batch, faults=faults, backend=backend)

    def run(
        self,
        sim: Simulator,
        plaintexts,
        key: int,
        *,
        rng: np.random.Generator | int | None = None,
    ) -> dict[str, np.ndarray]:
        """Drive one batched encryption; returns output bit matrices.

        ``plaintexts`` is one integer per run or a ``(batch, block)`` 0/1
        matrix.  Randomness (λ and garbage words, as the design requires)
        is drawn from ``rng``; λ in the dynamic variants is streamed fresh
        every cycle via an input schedule, modelling the free-running TRNG.
        Returns ``{"ciphertext": (batch, block) bits, "fault": (batch,) bits}``.
        """
        rng = make_rng(rng)
        batch = sim.batch
        sim.reset()
        if isinstance(plaintexts, np.ndarray) and plaintexts.ndim == 2:
            sim.set_input_bits("plaintext", plaintexts)
        else:
            sim.set_input_ints("plaintext", list(plaintexts))
        sim.broadcast_input("key", key)
        if "garbage" in self.circuit.inputs:
            sim.set_input_bits(
                "garbage", random_bits(rng, batch, self.spec.block_bits)
            )
        if self.lambda_width:
            if self.dynamic_lambda:
                # Pre-draw one λ word per cycle so runs stay reproducible.
                per_cycle = [
                    random_bits(rng, batch, self.lambda_width)
                    for _ in range(self.cycles + 1)
                ]
                sim.set_input_schedule(
                    "lambda", lambda cycle: per_cycle[min(cycle, self.cycles)]
                )
            else:
                sim.set_input_bits(
                    "lambda", random_bits(rng, batch, self.lambda_width)
                )
        sim.run(self.cycles)
        sim.eval_comb()
        return {
            "ciphertext": sim.get_output_bits("ciphertext"),
            "fault": sim.get_output_bits("fault")[:, 0],
        }


def attach_comparator(
    builder: CircuitBuilder,
    out_a: Word,
    out_b: Word,
    released: Word,
    policy: RecoveryPolicy,
    *,
    garbage: Word | None = None,
    tag: str = "cmp",
) -> tuple[Word, int]:
    """Duplicate-and-compare back end shared by the duplication schemes.

    Compares ``out_a`` and ``out_b`` bitwise; on mismatch the released word
    is replaced according to ``policy``.  Returns ``(ciphertext_nets,
    fault_net)``.
    """
    diffs = builder.xor_word(out_a, out_b, tag=f"{tag}/diff")
    fault = builder.or_reduce(diffs, tag=f"{tag}/ortree")
    if policy is RecoveryPolicy.SUPPRESS:
        not_fault = builder.not_(fault, tag=f"{tag}/gate")
        out = [builder.and_(not_fault, bit, tag=f"{tag}/gate") for bit in released]
    elif policy is RecoveryPolicy.RANDOM_GARBAGE:
        if garbage is None:
            raise ValueError("RANDOM_GARBAGE policy needs a garbage word")
        out = builder.mux_word(fault, released, garbage, tag=f"{tag}/sel")
    else:  # INFECTIVE
        if garbage is None:
            raise ValueError("INFECTIVE policy needs a garbage word")
        infect = [
            builder.and_(fault, bit, tag=f"{tag}/infect") for bit in garbage
        ]
        out = [
            builder.xor(bit, mask, tag=f"{tag}/infect")
            for bit, mask in zip(released, infect)
        ]
    return out, fault
