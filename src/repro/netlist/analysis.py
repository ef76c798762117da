"""Structural analysis over circuits: cones, fanout, and reachability.

Used by the fault campaign to answer questions like "which nets feed the
comparator but not the datapath" and by tests to check that countermeasure
wrappers wired the cores up independently (no sneaky sharing between the
actual and redundant computations).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.netlist.circuit import Circuit, CircuitError
from repro.netlist.gates import Gate, GateType

__all__ = [
    "LintError",
    "LintReport",
    "datapath_nets",
    "fanin_cone",
    "fanout_cone",
    "fanout_map",
    "gate_by_output",
    "lint_countermeasure",
    "shared_logic",
]


def gate_by_output(circuit: Circuit) -> dict[int, Gate]:
    """Map each driven net to its driver gate."""
    return {g.out: g for g in circuit.gates}


def fanout_map(circuit: Circuit) -> dict[int, list[Gate]]:
    """Map each net to the gates that read it."""
    fan: dict[int, list[Gate]] = {}
    for gate in circuit.gates:
        for net in gate.ins:
            fan.setdefault(net, []).append(gate)
    return fan


def fanin_cone(
    circuit: Circuit, nets, *, through_dffs: bool = True
) -> set[int]:
    """All nets that can influence any of ``nets``.

    With ``through_dffs`` (default) the cone crosses register boundaries,
    giving sequential reachability; without it the cone stops at DFF outputs,
    giving the single-cycle combinational cone.
    """
    return _fanin_cone(gate_by_output(circuit), nets, through_dffs=through_dffs)


def _fanin_cone(
    drivers: dict[int, Gate], nets, *, through_dffs: bool = True
) -> set[int]:
    """:func:`fanin_cone` over a prebuilt driver map."""
    seen: set[int] = set()
    work = deque(nets)
    while work:
        net = work.popleft()
        if net in seen:
            continue
        seen.add(net)
        gate = drivers.get(net)
        if gate is None:
            continue
        if gate.gtype is GateType.DFF and not through_dffs:
            continue
        work.extend(gate.ins)
    return seen


def fanout_cone(
    circuit: Circuit, nets, *, through_dffs: bool = True
) -> set[int]:
    """All nets that any of ``nets`` can influence (transitively)."""
    fan = fanout_map(circuit)
    seen: set[int] = set()
    work = deque(nets)
    while work:
        net = work.popleft()
        if net in seen:
            continue
        seen.add(net)
        for gate in fan.get(net, ()):
            if gate.gtype is GateType.DFF and not through_dffs:
                continue
            work.append(gate.out)
    return seen


def _logic_nets(drivers: dict[int, Gate], nets) -> set[int]:
    """The driven nets of ``nets`` that are not primary inputs or constants."""
    return {
        net
        for net in nets
        if (gate := drivers.get(net)) is not None
        and gate.gtype not in (GateType.INPUT, GateType.CONST0, GateType.CONST1)
    }


def shared_logic(circuit: Circuit, outputs_a, outputs_b) -> set[int]:
    """Nets inside both fan-in cones, excluding primary inputs and constants.

    A correct duplication countermeasure shares *only* primary inputs (and
    the randomness) between its two cores; any other overlap means a single
    fault could corrupt both computations identically.  Tests use this to
    verify core independence.
    """
    drivers = gate_by_output(circuit)
    return _logic_nets(
        drivers, _fanin_cone(drivers, outputs_a) & _fanin_cone(drivers, outputs_b)
    )


# --------------------------------------------------------------------- lint


def datapath_nets(circuit: Circuit, cores) -> set[int]:
    """All logic nets inside any core's ciphertext fan-in cone.

    This is the region the paper's "single fault anywhere" claim covers:
    everything that participates in either redundant computation, excluding
    primary inputs and constants (faulting those is equivalent to querying
    different inputs, not attacking the computation) — and excluding the
    comparator/release backend, which sits *behind* the redundancy
    boundary.  The coverage certifier sweeps exactly this set.
    """
    drivers = gate_by_output(circuit)
    cones = [_fanin_cone(drivers, core.ciphertext) for core in cores]
    return _logic_nets(drivers, set().union(*cones))


class LintError(CircuitError):
    """A countermeasure circuit violates a structural security invariant."""


@dataclass
class LintReport:
    """Outcome of :func:`lint_countermeasure` — empty lists mean a pass."""

    scheme: str
    #: logic nets inside ≥ 2 cores' fan-in cones (excluding inputs,
    #: constants, and the λ-distribution inverters)
    shared_nets: list[int] = field(default_factory=list)
    #: datapath nets whose corruption the comparator can never sense
    unobservable_nets: list[int] = field(default_factory=list)
    #: allocated net ids with no driver at all
    undriven_nets: list[int] = field(default_factory=list)
    #: driven nets read by nothing and exposed by no output port
    dangling_nets: list[int] = field(default_factory=list)
    #: total datapath nets examined (certificate bookkeeping)
    n_datapath: int = 0

    @property
    def passed(self) -> bool:
        return not (
            self.shared_nets
            or self.unobservable_nets
            or self.undriven_nets
            or self.dangling_nets
        )

    def to_dict(self) -> dict:
        """JSON-safe summary (embedded in coverage certificates)."""
        return {
            "passed": self.passed,
            "scheme": self.scheme,
            "n_datapath": self.n_datapath,
            "shared_nets": sorted(self.shared_nets),
            "unobservable_nets": sorted(self.unobservable_nets),
            "undriven_nets": sorted(self.undriven_nets),
            "dangling_nets": sorted(self.dangling_nets),
        }

    def raise_if_failed(self) -> None:
        if self.passed:
            return
        problems = []
        for label, nets in (
            ("cores share logic nets", self.shared_nets),
            ("comparator cannot observe nets", self.unobservable_nets),
            ("undriven nets", self.undriven_nets),
            ("dangling nets", self.dangling_nets),
        ):
            if nets:
                shown = ", ".join(map(str, sorted(nets)[:8]))
                if len(nets) > 8:
                    shown += ", ..."
                problems.append(f"{label}: {shown} ({len(nets)} total)")
        raise LintError(
            f"countermeasure lint failed for {self.scheme!r} — "
            + "; ".join(problems),
            net=next(
                iter(
                    sorted(
                        self.shared_nets
                        or self.unobservable_nets
                        or self.undriven_nets
                        or self.dangling_nets
                    )
                )
            ),
        )


def lint_countermeasure(design, *, strict: bool = True) -> LintReport:
    """Certify the structural soundness of a protected design's wiring.

    Three security invariants, any of which a buggy countermeasure builder
    could silently break while still producing correct fault-free
    ciphertexts:

    1. **Core independence** — no combinational logic shared between the
       actual and redundant computations (beyond primary inputs, constants
       and the λ-distribution inverters tagged ``lambda*``): a shared gate
       would let one physical fault corrupt every core identically,
       voiding the redundancy argument.
    2. **Comparator reachability** — every datapath net lies inside the
       fault flag's fan-in cone, i.e. the comparator can in principle
       sense a corruption of it.  A datapath net outside that cone is
       logic whose faults bypass detection by construction.
    3. **No dangling / undriven nets** — every allocated net id has a
       driver, and every driven net is either read by some gate or exposed
       through an output port.  Dangling logic is the classic signature of
       a half-wired comparator or a forgotten register connect.

    With ``strict`` (default) a violation raises :class:`LintError`
    naming the offending nets; otherwise the :class:`LintReport` is
    returned for the caller to inspect (the coverage certifier embeds it).
    Called from every countermeasure builder at construction time and from
    the certifier preamble.
    """
    circuit = design.circuit
    drivers = gate_by_output(circuit)
    report = LintReport(scheme=design.scheme)

    # 1 — core independence
    cones = [_fanin_cone(drivers, core.ciphertext) for core in design.cores]
    shared: set[int] = set()
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            shared |= cones[i] & cones[j]
    for net in shared:
        gate = drivers.get(net)
        if gate is None:
            continue  # undriven nets are reported by check 3
        if gate.gtype in (GateType.INPUT, GateType.CONST0, GateType.CONST1):
            continue
        if gate.tag.startswith("lambda"):
            # λ̄ inverters legitimately feed every redundant core; a fault
            # there flips one core's whole domain, which the comparator
            # senses (the campaign suite exercises exactly this).
            continue
        report.shared_nets.append(net)

    # 2 — comparator reachability: the datapath is datapath_nets, read
    # off the cones above
    datapath = _logic_nets(drivers, set().union(*cones))
    report.n_datapath = len(datapath)
    if "fault" in circuit.outputs:
        observable = _fanin_cone(drivers, circuit.outputs["fault"])
        report.unobservable_nets = sorted(datapath - observable)
    else:  # no comparator output at all: nothing is observable
        report.unobservable_nets = sorted(datapath)

    # 3 — dangling / undriven nets
    report.undriven_nets = [
        net for net in range(circuit.num_nets) if net not in drivers
    ]
    read: set[int] = set()
    for gate in circuit.gates:
        read.update(gate.ins)
    exposed: set[int] = set()
    for nets in circuit.outputs.values():
        exposed.update(nets)
    report.dangling_nets = [
        net
        for net in range(circuit.num_nets)
        if net not in read and net not in exposed and net in drivers
    ]

    if strict:
        report.raise_if_failed()
    return report
