"""Topological ordering of the combinational portion of a circuit.

The clocked elements (DFF outputs) and primary inputs/constants are sources;
combinational gates are ordered so every gate appears after its drivers.
The simulator replays this order once per clock cycle.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.netlist.gates import SOURCE_TYPES, Gate, GateType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netlist.circuit import Circuit

__all__ = ["combinational_levels", "combinational_order"]


def combinational_order(circuit: "Circuit") -> list[Gate]:
    """Kahn's algorithm over the combinational gates of ``circuit``.

    Raises :class:`~repro.netlist.circuit.CircuitError` naming one gate on
    a combinational cycle if the circuit has one (a latch loop that the
    single-clock model cannot evaluate).
    """
    comb: list[Gate] = []
    available: set[int] = set()
    for gate in circuit.gates:
        if gate.gtype in SOURCE_TYPES or gate.gtype is GateType.DFF:
            available.add(gate.out)
        else:
            comb.append(gate)

    # fanout map restricted to combinational gates
    waiting: dict[int, list[Gate]] = {}
    missing: dict[int, int] = {}
    ready: deque[Gate] = deque()
    for gate in comb:
        need = 0
        for net in gate.ins:
            if net not in available:
                waiting.setdefault(net, []).append(gate)
                need += 1
        # A gate reading the same not-yet-available net twice must be
        # released only once both references are satisfied; counting
        # references (not distinct nets) keeps the bookkeeping exact.
        missing[id(gate)] = need
        if need == 0:
            ready.append(gate)

    order: list[Gate] = []
    while ready:
        gate = ready.popleft()
        order.append(gate)
        for follower in waiting.get(gate.out, ()):
            missing[id(follower)] -= 1
            if missing[id(follower)] == 0:
                ready.append(follower)

    if len(order) != len(comb):
        from repro.netlist.circuit import CircuitError

        ordered_ids = {id(g) for g in order}
        stuck_gates = [g for g in comb if id(g) not in ordered_ids]
        stuck = stuck_gates[0]
        cycle_nets = sorted(g.out for g in stuck_gates)
        shown = ", ".join(map(str, cycle_nets[:8]))
        if len(cycle_nets) > 8:
            shown += ", ..."
        raise CircuitError(
            f"combinational cycle detected: {len(stuck_gates)} gates cannot "
            f"be ordered (first: {stuck.gtype.name} driving net {stuck.out}"
            f"{f', tag {stuck.tag!r}' if stuck.tag else ''}; "
            f"nets involved: {shown})",
            net=stuck.out,
            gate=stuck,
        )
    return order


def combinational_levels(circuit: "Circuit") -> list[list[Gate]]:
    """ASAP levelization of the combinational gates of ``circuit``.

    Level ``k`` holds every gate whose longest path from a source
    (primary input, constant, or DFF output) is exactly ``k + 1`` gates.
    Gates within one level therefore never depend on each other, which is
    what lets the levelized simulation kernel evaluate a whole level as a
    handful of batched numpy ops.  Within a level, gates keep their
    relative order in the circuit's cached :meth:`Circuit.topo_order`
    (:func:`combinational_order`), so flattening the levels yields a valid
    topological order.  ``len(levels)`` equals the
    circuit's combinational depth.
    """
    level_of: dict[int, int] = {}
    levels: list[list[Gate]] = []
    for gate in circuit.topo_order():
        lvl = max((level_of.get(n, -1) for n in gate.ins), default=-1) + 1
        level_of[gate.out] = lvl
        if lvl == len(levels):
            levels.append([])
        levels[lvl].append(gate)
    return levels
