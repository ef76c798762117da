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

Timing: drive the inputs (:meth:`ProtectedDesign.drive`), run
``design.cycles`` clock steps, then one combinational evaluation; then read
outputs (see :meth:`ProtectedDesign.run`).
"""

from __future__ import annotations

import enum
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.ciphers.spn import CipherSpec, SpnCore
from repro.netlist.builder import CircuitBuilder
from repro.netlist.circuit import Circuit
from repro.netlist.simulator import Simulator
from repro.rng import make_rng, random_words
from repro.utils.bits import bytes_to_bits

__all__ = ["ProtectedDesign", "RecoveryPolicy", "RunOutputs", "attach_comparator"]

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

    @property
    def flag_observable(self) -> bool:
        """Whether the comparator flag shows at the interface.

        The detect-and-suppress schemes visibly replace the output; the
        error-*correcting* triplication keeps its flag internal, so an
        attacker sees only the corrected word (see
        :func:`repro.faults.classification.classify`).
        """
        return self.scheme != "triplication"

    @property
    def infective(self) -> bool:
        """Whether a sensed fault releases a randomised word."""
        return self.policy is RecoveryPolicy.INFECTIVE

    def simulator(
        self, batch: int, *, faults=None, backend: str | None = None
    ) -> Simulator:
        """A fresh simulator sized for ``batch`` parallel invocations.

        ``backend`` selects the evaluation kernel (``"levelized"`` /
        ``"compiled"`` / ``"reference"``); None uses ``REPRO_SIM_BACKEND``
        or, without it, the simulator default.
        Results are bit-identical whichever is chosen.  One simulator
        serves any number of :meth:`run` calls.
        """
        return Simulator(self.circuit, batch, faults=faults, backend=backend)

    def draw(
        self, rng: np.random.Generator, batch: int, *, pinned_lambda: bool = False
    ) -> dict[str, np.ndarray | list[np.ndarray]]:
        """The per-invocation randomness of one batched invocation.

        Draws, packed from ``rng`` and in this order, the ``garbage`` word
        (if the design has that port) and λ: one word for the static
        variants, one per cycle (``cycles + 1`` words) for the dynamic ones,
        nothing when ``pinned_lambda``.  Returns them by port name as
        ``(width, n_words)`` uint64 rows (a list of them for dynamic λ).
        """
        drawn: dict[str, np.ndarray | list[np.ndarray]] = {}
        if "garbage" in self.circuit.inputs:
            drawn["garbage"] = random_words(rng, batch, self.spec.block_bits)
        if self.lambda_width and not pinned_lambda:
            if self.dynamic_lambda:
                drawn["lambda"] = [
                    random_words(rng, batch, self.lambda_width)
                    for _ in range(self.cycles + 1)
                ]
            else:
                drawn["lambda"] = random_words(rng, batch, self.lambda_width)
        return drawn

    def drive(
        self,
        sim: Simulator,
        plaintexts,
        key: int,
        rng: np.random.Generator,
        *,
        lambdas: Sequence[int] | None = None,
    ) -> None:
        """Reset ``sim`` and drive the inputs of one batched invocation.

        ``plaintexts`` is ``(block, n_words)`` uint64 packed rows, a
        ``(batch, block)`` 0/1 matrix or one integer per run.  The key is
        broadcast to every lane.  The garbage word and λ come from
        :meth:`draw`; λ in the dynamic variants is streamed through an
        input schedule that models the free-running TRNG.  ``lambdas`` pins
        λ per run instead (static-λ designs only) and draws nothing for it.
        """
        sim.reset()
        if isinstance(plaintexts, np.ndarray) and plaintexts.ndim == 2:
            if plaintexts.dtype == np.uint64:
                sim.set_input_words("plaintext", plaintexts)
            else:
                sim.set_input_bits("plaintext", plaintexts)
        else:
            sim.set_input_ints("plaintext", list(plaintexts))
        sim.broadcast_input("key", key)
        drawn = self.draw(rng, sim.batch, pinned_lambda=lambdas is not None)
        if "garbage" in drawn:
            sim.set_input_words("garbage", drawn["garbage"])
        if not self.lambda_width:
            return
        if lambdas is not None:
            if self.dynamic_lambda:
                raise ValueError("λ pinning needs a static-λ design (prime/acisp)")
            sim.set_input_ints("lambda", list(lambdas))
        elif self.dynamic_lambda:
            per_cycle = drawn["lambda"]
            sim.set_input_schedule(
                "lambda", lambda cycle: per_cycle[min(cycle, self.cycles)]
            )
        else:
            sim.set_input_words("lambda", drawn["lambda"])

    def run(
        self,
        sim: Simulator,
        plaintexts,
        key: int,
        *,
        rng: np.random.Generator | int | None = None,
    ) -> "RunOutputs":
        """Drive one batched encryption; returns its outputs.

        ``plaintexts`` and the randomness drawn from ``rng`` are as in
        :meth:`drive`.  The result maps ``"ciphertext"`` to a
        ``(batch, block)`` bit matrix and ``"fault"`` to ``(batch,)`` bits;
        its ``ciphertext_rows`` hold the same words as byte rows, read
        straight from the simulator's lanes (the bit matrix is unpacked
        from them only when asked for).
        """
        self.drive(sim, plaintexts, key, make_rng(rng))
        sim.run(self.cycles)
        sim.eval_comb()
        return RunOutputs(
            sim.get_output_bytes("ciphertext"),
            sim.get_output_bits("fault")[:, 0],
            self.spec.block_bits,
        )


class RunOutputs(Mapping):
    """What one batched invocation released (:meth:`ProtectedDesign.run`).

    ``ciphertext_rows`` are the released words as ``(batch, ceil(block/8))``
    byte rows and ``fault`` the comparator verdict per run.  As a mapping it
    reads ``{"ciphertext": (batch, block) bits, "fault": (batch,) bits}``;
    the bit matrix is unpacked on first access.
    """

    def __init__(
        self, ciphertext_rows: np.ndarray, fault: np.ndarray, block_bits: int
    ) -> None:
        self.ciphertext_rows = ciphertext_rows
        self.fault = fault
        self._block_bits = block_bits
        self._ciphertext_bits: np.ndarray | None = None

    def __getitem__(self, name: str) -> np.ndarray:
        if name == "fault":
            return self.fault
        if name != "ciphertext":
            raise KeyError(name)
        if self._ciphertext_bits is None:
            self._ciphertext_bits = bytes_to_bits(
                self.ciphertext_rows, self._block_bits
            )
        return self._ciphertext_bits

    def __iter__(self) -> Iterator[str]:
        return iter(("ciphertext", "fault"))

    def __len__(self) -> int:
        return 2


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
