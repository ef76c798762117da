"""FTA — Fault Template Attacks (Eurocrypt 2020, paper ref [7]).

The adversary model: fix the plaintext, aim a precise transient bit-flip at
one wire inside an S-box instance during one chosen round, and observe only
whether the device's output changed (with a detect-and-suppress
countermeasure, "changed" manifests as suppression).  Flipping one input of
an AND gate changes its output iff the *other* input is 1 — so each wire is
a little oracle on an internal value, and enough wires pin down the S-box
input exactly.  Because the attack can target *any* round (including the
first, where S-box input = plaintext ⊕ K₁ for PRESENT-style ciphers), it
recovers key material where DFA cannot reach.

Implementation: templates are built *exactly* by simulating the standalone
S-box circuit with each candidate wire flipped over all input patterns —
subsuming the AND-gate rule and handling propagation/masking inside the
S-box cone with no approximation.  The per-instance wire inside the full
design is found through the structural correspondence that
``CircuitBuilder.append_circuit`` guarantees (instances copy the template
circuit gate-for-gate, in order).

Against the unprotected or naïvely duplicated design, observations are
deterministic and match exactly one template column → the S-box input (and
hence a key nibble) is recovered.  Against the three-in-one scheme every
run re-randomises λ, the physical pattern seen by the merged S-box is
``(x ⊕ λ…, λ)``, and the observation becomes a coin whose bias is (near)
independent of ``x`` — the template match collapses, which is the paper's
FTA claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.countermeasures.base import ProtectedDesign
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultSpec, FaultType
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.netlist.simulator import Simulator

__all__ = [
    "FtaKeyRecovery",
    "FtaResult",
    "build_templates",
    "fta_attack",
    "fta_key_recovery",
    "fta_targets",
]

_ORACLE_GATES = {
    GateType.AND,
    GateType.OR,
    GateType.NAND,
    GateType.NOR,
    GateType.MUX,
}


def fta_targets(sbox_circuit: Circuit) -> list[int]:
    """Wires worth lasering: nets feeding non-linear gate inputs.

    The Eurocrypt'20 description uses AND gates ("output flips iff the
    other input is 1"); the same data-dependence holds for OR/NAND/NOR and
    for every pin of a mux (flipping the select matters iff the two data
    legs differ, flipping a data leg matters iff it is the selected one).
    Since our templates are exact simulations, every such wire is a usable
    oracle; XOR/XNOR wires are skipped because flipping them always flips
    the output — no data dependence, no information.
    """
    targets: list[int] = []
    seen: set[int] = set()
    for gate in sbox_circuit.gates:
        if gate.gtype in _ORACLE_GATES:
            for net in gate.ins:
                if net not in seen:
                    seen.add(net)
                    targets.append(net)
    return targets


def build_templates(sbox_circuit: Circuit, targets: list[int]) -> np.ndarray:
    """Exact fault templates: ``T[t, p] = 1`` iff flipping wire ``targets[t]``
    changes the S-box output on input pattern ``p``.

    One bit-parallel simulation per wire, all ``2**n`` patterns at once.
    """
    n_in = len(sbox_circuit.inputs["x"])
    patterns = list(range(1 << n_in))
    clean_sim = Simulator(sbox_circuit, batch=len(patterns))
    clean_sim.set_input_ints("x", patterns)
    clean_sim.eval_comb()
    clean = clean_sim.get_output_bits("y")

    rows = []
    for net in targets:
        injector = FaultInjector(
            [FaultSpec.at(net, FaultType.BIT_FLIP, None)], len(patterns)
        )
        sim = Simulator(sbox_circuit, batch=len(patterns), faults=injector)
        sim.set_input_ints("x", patterns)
        sim.eval_comb()
        faulted = sim.get_output_bits("y")
        rows.append((faulted != clean).any(axis=1).astype(np.float64))
    return np.array(rows)


def instance_net_map(
    design: ProtectedDesign, core_index: int, sbox: int
) -> dict[int, int]:
    """Map template-circuit nets to the instance nets of one stamped S-box.

    Relies on ``append_circuit`` copying the template's non-source gates in
    order, and on the input-port binding recorded on the core (state lines
    plus λ for merged boxes).
    """
    sub = design.sbox_circuit
    if sub is None:
        raise ValueError("design carries no sbox_circuit to map against")
    core = design.cores[core_index]
    mapping: dict[int, int] = {}
    x_nets = sub.inputs["x"]
    bound = list(core.sbox_inputs[sbox])
    if core.lam is not None:
        bound.append(core.lam[sbox])
    if len(bound) != len(x_nets):
        raise AssertionError("port binding width drifted from construction")
    for inner, outer in zip(x_nets, bound):
        mapping[inner] = outer

    template_gates = [
        g
        for g in sub.gates
        if g.gtype not in (GateType.INPUT, GateType.CONST0, GateType.CONST1)
    ]
    instance_gates = design.circuit.find_gates(f"{core.tag}/sbox{sbox}/")
    if len(template_gates) != len(instance_gates):
        raise AssertionError(
            f"instance gate count {len(instance_gates)} != template "
            f"{len(template_gates)}; tags are not instance-unique"
        )
    for tg, ig in zip(template_gates, instance_gates):
        if tg.gtype is not ig.gtype:
            raise AssertionError("instance gate order drifted from template")
        mapping[tg.out] = ig.out
    return mapping


@dataclass(frozen=True)
class FtaResult:
    """Outcome of one FTA S-box-input recovery."""

    sbox: int
    round_: int
    observations: np.ndarray  # (targets,) effectiveness fraction per wire
    scores: np.ndarray  # (candidates,) template-match distance per x
    candidates: list[int]  # minimal-distance x values
    true_x: int
    recovered_key_nibble: int | None  # via x ⊕ p_nib when round_ == 1
    true_key_nibble: int | None

    @property
    def success(self) -> bool:
        """Unique best candidate and it is the true S-box input."""
        return self.candidates == [self.true_x]


def fta_attack(
    design: ProtectedDesign,
    *,
    sbox: int,
    round_: int = 1,
    plaintext: int,
    key: int,
    core_index: int = 0,
    n_rep: int = 64,
    seed: int = 1,
    max_targets: int | None = None,
) -> FtaResult:
    """Run the full template attack against one S-box instance.

    ``round_`` is 1-based (the paper's FTA works at any round; round 1
    turns a recovered S-box input directly into a key nibble for
    key-first ciphers).  ``n_rep`` repetitions are spent per wire; for
    deterministic designs 1 would do, the surplus is what exposes the
    λ-randomisation of the protected design.
    """
    spec = design.spec
    sub = design.sbox_circuit
    if sub is None:
        raise ValueError("design carries no sbox_circuit")
    if not 1 <= round_ <= spec.rounds:
        raise ValueError(f"round_ must be in 1..{spec.rounds}")

    targets = fta_targets(sub)
    if max_targets is not None:
        targets = targets[:max_targets]
    templates = build_templates(sub, targets)
    mapping = instance_net_map(design, core_index, sbox)
    cycle = round_ - 1
    core = design.cores[core_index]

    # Ground truth for reporting.
    reference = spec.reference(key)
    n = spec.sbox.n
    if spec.add_key_first:
        states = reference.round_states(plaintext)
        state = states[round_ - 1] ^ reference.round_keys[round_ - 1]
    else:
        states = reference.round_states(plaintext)
        state = states[round_ - 1]
    true_x = (state >> (n * sbox)) & ((1 << n) - 1)

    # Clean run (per-λ randomised; ineffectiveness compares against the
    # correct ciphertext, which is λ-independent).
    pts = [plaintext] * n_rep
    clean_sim = design.simulator(n_rep)
    clean = design.run(clean_sim, pts, key, rng=seed)
    expected = clean["ciphertext"]

    observations = np.zeros(len(targets))
    for t, net in enumerate(targets):
        spec_t = FaultSpec.at(mapping[net], FaultType.BIT_FLIP, cycle)
        injector = FaultInjector([spec_t], n_rep, rng=seed + 1)
        sim = design.simulator(n_rep, faults=injector)
        res = design.run(sim, pts, key, rng=seed + 2 + t)
        changed = (res["ciphertext"] != expected).any(axis=1)
        if design.flag_observable:
            changed |= res["fault"].astype(bool)
        observations[t] = changed.mean()

    # Template match: candidate x → predicted observation vector.
    n_candidates = 1 << n
    preds = np.zeros((n_candidates, len(targets)))
    if core.lam is None:
        for x in range(n_candidates):
            preds[x] = templates[:, x]
    else:
        # Physical pattern is (x ⊕ λ·1…1, λ); the attacker averages the two
        # λ hypotheses since λ is drawn fresh per run.
        mask = n_candidates - 1
        for x in range(n_candidates):
            p0 = x
            p1 = (x ^ mask) | (1 << n)
            preds[x] = 0.5 * (templates[:, p0] + templates[:, p1])

    scores = np.abs(preds - observations[None, :]).sum(axis=1)
    best = scores.min()
    candidates = [int(x) for x in np.flatnonzero(np.isclose(scores, best))]

    recovered = true_nib = None
    if round_ == 1 and spec.add_key_first and len(candidates) == 1:
        p_nib = (plaintext >> (n * sbox)) & ((1 << n) - 1)
        recovered = candidates[0] ^ p_nib
        true_nib = ((reference.round_keys[0] >> (n * sbox)) & ((1 << n) - 1))

    return FtaResult(
        sbox=sbox,
        round_=round_,
        observations=observations,
        scores=scores,
        candidates=candidates,
        true_x=true_x,
        recovered_key_nibble=recovered,
        true_key_nibble=true_nib,
    )


@dataclass(frozen=True)
class FtaKeyRecovery:
    """Key-nibble recovery by intersecting FTA runs over chosen plaintexts.

    One FTA pass per plaintext narrows the round-1 S-box input to a
    candidate class; since ``x = p_nib ⊕ k_nib``, each pass yields a key
    candidate set, and the intersection over a few plaintexts pins the key
    nibble down — *provided every per-plaintext class contains the truth*,
    which holds exactly when the device behaves deterministically.  The
    λ-randomised designs produce unreliable classes, the intersection dies
    or lands on the wrong value, and ``success`` is False.
    """

    sbox: int
    per_plaintext: list[FtaResult]
    candidates: set[int]
    true_key_nibble: int

    @property
    def success(self) -> bool:
        return self.candidates == {self.true_key_nibble}

    @property
    def recovered_bits(self) -> float:
        import math

        if not self.candidates or self.true_key_nibble not in self.candidates:
            return 0.0
        return 4 - math.log2(len(self.candidates))


def fta_key_recovery(
    design: ProtectedDesign,
    *,
    sbox: int,
    plaintexts: list[int],
    key: int,
    core_index: int = 0,
    n_rep: int = 64,
    seed: int = 1,
) -> FtaKeyRecovery:
    """Full FTA key-nibble recovery against round 1 of a key-first cipher."""
    spec = design.spec
    if not spec.add_key_first:
        raise ValueError("round-1 key recovery needs a key-first cipher")
    n = spec.sbox.n
    mask = (1 << n) - 1
    reference = spec.reference(key)
    truth = (reference.round_keys[0] >> (n * sbox)) & mask

    per_pt: list[FtaResult] = []
    candidates: set[int] | None = None
    for i, pt in enumerate(plaintexts):
        res = fta_attack(
            design,
            sbox=sbox,
            round_=1,
            plaintext=pt,
            key=key,
            core_index=core_index,
            n_rep=n_rep,
            seed=seed + 31 * i,
        )
        per_pt.append(res)
        p_nib = (pt >> (n * sbox)) & mask
        key_set = {c ^ p_nib for c in res.candidates}
        candidates = key_set if candidates is None else (candidates & key_set)
        if not candidates:
            break
    return FtaKeyRecovery(
        sbox=sbox,
        per_plaintext=per_pt,
        candidates=candidates or set(),
        true_key_nibble=truth,
    )
