"""Technology mapping: GE-driven local rewrites.

The synthesiser emits AND/OR/NOT-heavy logic; a standard-cell mapper
would fuse inverters into the cheaper NAND/NOR cells (1.00 GE vs
1.33 + 0.67).  This pass performs the classic fusions, each applied only
when it reduces the priced area:

- ``NOT(AND(a,b))`` → ``NAND(a,b)`` (and OR→NOR) when the inner gate has no
  other fanout;
- ``AND(NOT a, NOT b)`` → ``NOR(a,b)`` (De Morgan; dually OR→NAND) when
  both inverters would otherwise exist only for this gate;
- ``XOR(NOT a, b)`` → ``XNOR(a, b)`` (and the XNOR dual), absorbing a
  single-fanout inverter into the free complement input.

The pass preserves behaviour by construction (each rewrite is a textbook
identity) and the tests check it by exhaustive/random simulation; it runs
after :func:`repro.synth.optimize.optimize` and before area pricing.
"""

from __future__ import annotations

from repro.netlist.circuit import Circuit
from repro.netlist.gates import Gate, GateType
from repro.synth.optimize import dead_code
from repro.tech.library import PAPER_CALIBRATED, CellLibrary

__all__ = ["map_to_cells"]

_FUSE_OUT = {GateType.AND: GateType.NAND, GateType.OR: GateType.NOR}
_FUSE_IN = {GateType.AND: GateType.NOR, GateType.OR: GateType.NAND}
_XORISH = {GateType.XOR: GateType.XNOR, GateType.XNOR: GateType.XOR}


def map_to_cells(
    circuit: Circuit, *, library: CellLibrary = PAPER_CALIBRATED
) -> Circuit:
    """Return a behaviourally equivalent circuit with cheaper cell choices.

    Operates as a single backward-dataflow sweep: for each gate in topo
    order, decide its mapped form given the mapped forms of its inputs,
    then drop any inverters that lost all their fanout via
    :func:`repro.synth.optimize.dead_code`.
    """
    fanout: dict[int, int] = {}
    for gate in circuit.gates:
        for net in gate.ins:
            fanout[net] = fanout.get(net, 0) + 1
    for nets in circuit.outputs.values():
        for net in nets:
            fanout[net] = fanout.get(net, 0) + 1

    drivers: dict[int, Gate] = {g.out: g for g in circuit.gates}

    out = Circuit(circuit.name)
    while out.num_nets < circuit.num_nets:
        out.new_net()

    # Copy sources and registers verbatim (two passes for DFF feedback).
    for gate in circuit.gates:
        if gate.gtype is GateType.INPUT:
            out.add_gate(GateType.INPUT, out=gate.out, tag=gate.tag)
        elif gate.gtype in (GateType.CONST0, GateType.CONST1):
            out.add_gate(gate.gtype, out=gate.out, tag=gate.tag)

    def single_fanout_not(net: int) -> int | None:
        """Input net of a NOT driving ``net``, if fusing it is free."""
        driver = drivers.get(net)
        if driver is not None and driver.gtype is GateType.NOT and fanout.get(net, 0) == 1:
            return driver.ins[0]
        return None

    cheaper = library.cost(GateType.NAND) < (
        library.cost(GateType.AND) + 0  # NAND vs AND alone
    )

    for gate in circuit.topo_order():
        gtype, ins = gate.gtype, gate.ins
        if gtype is GateType.NOT:
            inner = drivers.get(ins[0])
            if (
                inner is not None
                and inner.gtype in _FUSE_OUT
                and fanout.get(ins[0], 0) == 1
                and cheaper
            ):
                # NOT(AND) -> NAND: emit the fused cell on this gate's net;
                # the inner gate stays (dead-code removes it if unused).
                out.add_gate(
                    _FUSE_OUT[inner.gtype], inner.ins, out=gate.out, tag=gate.tag
                )
                continue
        elif gtype in (GateType.AND, GateType.OR):
            na, nb = single_fanout_not(ins[0]), single_fanout_not(ins[1])
            fused_cost = library.cost(_FUSE_IN[gtype])
            plain_cost = (
                library.cost(gtype)
                + (library.cost(GateType.NOT) if na is not None else 0)
                + (library.cost(GateType.NOT) if nb is not None else 0)
            )
            if na is not None and nb is not None and fused_cost < plain_cost:
                # AND(¬a,¬b) -> NOR(a,b); OR(¬a,¬b) -> NAND(a,b)
                out.add_gate(_FUSE_IN[gtype], (na, nb), out=gate.out, tag=gate.tag)
                continue
        elif gtype in _XORISH:
            for pos in (0, 1):
                src = single_fanout_not(ins[pos])
                if src is not None:
                    other = ins[1 - pos]
                    out.add_gate(
                        _XORISH[gtype], (src, other), out=gate.out, tag=gate.tag
                    )
                    break
            else:
                out.add_gate(gtype, ins, out=gate.out, tag=gate.tag)
            continue
        # default: copy through
        out.add_gate(gtype, ins, out=gate.out, tag=gate.tag)

    for gate in circuit.dffs():
        out.add_gate(
            GateType.DFF, gate.ins, out=gate.out, init=gate.init, tag=gate.tag
        )

    out.inputs = {k: list(v) for k, v in circuit.inputs.items()}
    out.outputs = {k: list(v) for k, v in circuit.outputs.items()}
    out.validate()
    return dead_code(out)
