"""The :class:`Circuit` IR — a flat, single-clock, technology-mapped netlist.

A circuit owns a pool of nets (integer ids), a list of gates, and named
input/output ports (each port is an ordered, LSB-first list of nets).  It is
the common currency between the cipher generators, the countermeasure
builders, the synthesiser, the area mapper, and the simulator.

Invariants enforced by :meth:`Circuit.validate`:

- every net has exactly one driver (gate output, primary input or constant);
- every gate input references an existing, driven net;
- the combinational part is acyclic (cycles through DFFs are fine);
- output ports only reference driven nets.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass

from repro.netlist.gates import Gate, GateType

__all__ = ["Circuit", "CircuitError", "CircuitStats", "circuit_digest"]


class CircuitError(ValueError):
    """A structural invariant of a :class:`Circuit` is broken.

    Subclasses ``ValueError`` so existing ``except ValueError`` call sites
    keep working; carries the offending ``net`` and/or ``gate`` so lint
    tooling and error messages can name the exact culprit.
    """

    def __init__(
        self, message: str, *, net: int | None = None, gate: "Gate | None" = None
    ) -> None:
        super().__init__(message)
        self.net = net
        self.gate = gate


@dataclass(frozen=True, slots=True)
class CircuitStats:
    """Structural summary used by reports and sanity tests."""

    num_nets: int
    num_gates: int
    num_dffs: int
    num_inputs: int
    num_outputs: int
    gate_counts: dict[str, int]
    depth: int

    def __str__(self) -> str:
        cells = ", ".join(f"{k}={v}" for k, v in sorted(self.gate_counts.items()))
        return (
            f"nets={self.num_nets} gates={self.num_gates} dffs={self.num_dffs} "
            f"inputs={self.num_inputs} outputs={self.num_outputs} "
            f"depth={self.depth} [{cells}]"
        )


class Circuit:
    """A flat gate-level netlist with named multi-bit ports.

    Typical construction goes through
    :class:`~repro.netlist.builder.CircuitBuilder`, which wraps the raw
    ``new_net`` / ``add_gate`` API with word-level operators.
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self.gates: list[Gate] = []
        self.inputs: dict[str, list[int]] = {}
        self.outputs: dict[str, list[int]] = {}
        self._num_nets = 0
        self._driver: dict[int, Gate] = {}
        self._const_net: dict[GateType, int] = {}
        self._topo_cache: list[Gate] | None = None
        self._levels_cache: list[list[Gate]] | None = None

    # ------------------------------------------------------------------ nets

    @property
    def num_nets(self) -> int:
        """Total number of allocated net ids (ids run from 0 to this - 1)."""
        return self._num_nets

    def new_net(self) -> int:
        """Allocate a fresh, as-yet-undriven net id."""
        net = self._num_nets
        self._num_nets += 1
        return net

    def driver_of(self, net: int) -> Gate | None:
        """The gate driving ``net``, or None if the net is undriven."""
        return self._driver.get(net)

    # ----------------------------------------------------------------- gates

    def add_gate(
        self,
        gtype: GateType,
        ins: tuple[int, ...] = (),
        *,
        out: int | None = None,
        init: int = 0,
        tag: str = "",
    ) -> int:
        """Append a gate; returns its output net (allocating one if needed)."""
        if out is None:
            out = self.new_net()
        for net in ins:
            if not 0 <= net < self._num_nets:
                raise CircuitError(
                    f"gate input references unknown net {net}", net=net
                )
        if out in self._driver:
            raise CircuitError(
                f"net {out} already has a driver "
                f"({self._driver[out].gtype.name}); refusing a second "
                f"{gtype.name} driver",
                net=out,
                gate=self._driver[out],
            )
        if not 0 <= out < self._num_nets:
            raise CircuitError(
                f"gate output references unknown net {out}", net=out
            )
        gate = Gate(gtype, out, tuple(ins), init=init, tag=tag)
        self.gates.append(gate)
        self._driver[out] = gate
        self._topo_cache = None
        self._levels_cache = None
        return out

    def const(self, value: int) -> int:
        """Net tied to constant ``value`` (memoised — one CONST cell each)."""
        if value not in (0, 1):
            raise ValueError(f"constant must be 0 or 1, got {value}")
        gtype = GateType.CONST1 if value else GateType.CONST0
        if gtype not in self._const_net:
            self._const_net[gtype] = self.add_gate(gtype)
        return self._const_net[gtype]

    # ----------------------------------------------------------------- ports

    def add_input(self, name: str, width: int) -> list[int]:
        """Declare a ``width``-bit primary input port; returns its nets."""
        if name in self.inputs or name in self.outputs:
            raise ValueError(f"port name {name!r} already in use")
        if width <= 0:
            raise ValueError(f"port width must be positive, got {width}")
        nets = [self.add_gate(GateType.INPUT, tag=f"{name}[{i}]") for i in range(width)]
        self.inputs[name] = nets
        return nets

    def set_output(self, name: str, nets) -> None:
        """Declare a named output port over existing (driven) nets."""
        nets = list(nets)
        if name in self.outputs or name in self.inputs:
            raise ValueError(f"port name {name!r} already in use")
        if not nets:
            raise ValueError("output port cannot be empty")
        for net in nets:
            if net not in self._driver:
                raise ValueError(f"output {name!r} references undriven net {net}")
        self.outputs[name] = nets

    # ------------------------------------------------------------- structure

    def dffs(self) -> list[Gate]:
        """All flip-flops, in insertion order."""
        return [g for g in self.gates if g.gtype is GateType.DFF]

    def topo_order(self) -> list[Gate]:
        """Combinational gates in dependency order (sources/DFFs excluded).

        DFF outputs and primary inputs count as already-available sources;
        a cycle among combinational gates raises ``ValueError``.  The result
        is cached until the circuit is mutated.
        """
        if self._topo_cache is None:
            from repro.netlist.topo import combinational_order

            self._topo_cache = combinational_order(self)
        return self._topo_cache

    def topo_levels(self) -> list[list[Gate]]:
        """Combinational gates grouped into dependency levels (ASAP).

        Gates within one level have no data dependencies on each other;
        flattening the levels reproduces a valid topological order.  This
        is the schedule skeleton of the levelized simulation kernel (see
        :mod:`repro.netlist.levelized`).  Cached until the circuit is
        mutated, like :meth:`topo_order`.
        """
        if self._levels_cache is None:
            from repro.netlist.topo import combinational_levels

            self._levels_cache = combinational_levels(self)
        return self._levels_cache

    def depth(self) -> int:
        """Longest combinational path, in gates."""
        return len(self.topo_levels())

    def stats(self) -> CircuitStats:
        """Structural summary (cell histogram, depth, port counts)."""
        counts = Counter(g.gtype.value for g in self.gates)
        return CircuitStats(
            num_nets=self._num_nets,
            num_gates=len(self.gates),
            num_dffs=counts.get(GateType.DFF.value, 0),
            num_inputs=sum(len(v) for v in self.inputs.values()),
            num_outputs=sum(len(v) for v in self.outputs.values()),
            gate_counts=dict(counts),
            depth=self.depth(),
        )

    def find_gates(self, tag_prefix: str) -> list[Gate]:
        """Gates whose tag starts with ``tag_prefix`` (campaign targeting)."""
        return [g for g in self.gates if g.tag.startswith(tag_prefix)]

    def validate(self) -> None:
        """Check all structural invariants; raises :class:`CircuitError`.

        Checked here (beyond what :meth:`add_gate` enforces incrementally):
        multiply-driven nets (possible when ``gates`` is mutated directly),
        gate inputs and output ports reading undriven nets, and
        combinational cycles — each reported with the offending gate/net.
        """
        driver_counts = Counter(g.out for g in self.gates)
        for net, count in driver_counts.items():
            if count > 1:
                culprits = [g for g in self.gates if g.out == net]
                kinds = "+".join(g.gtype.name for g in culprits)
                raise CircuitError(
                    f"net {net} is driven by {count} gates ({kinds})",
                    net=net,
                    gate=culprits[-1],
                )
        for gate in self.gates:
            for net in gate.ins:
                if net not in self._driver:
                    raise CircuitError(
                        f"gate {gate.gtype.name}->{gate.out} reads undriven "
                        f"net {net}",
                        net=net,
                        gate=gate,
                    )
        for name, nets in self.outputs.items():
            for net in nets:
                if net not in self._driver:
                    raise CircuitError(
                        f"output {name!r} reads undriven net {net}", net=net
                    )
        # Raises CircuitError on combinational cycles.
        self.topo_order()

    def __repr__(self) -> str:
        return f"Circuit({self.name!r}, {len(self.gates)} gates, {self._num_nets} nets)"


def circuit_digest(circuit: Circuit) -> str:
    """SHA-256 identity of a netlist: every gate's type, pins and init.

    Net ids are allocation-ordered and gates are kept in insertion order,
    so the digest is deterministic for a given builder version and changes
    whenever the synthesised structure does.  Tags are excluded — they are
    labels for humans and fault-space enumeration, not circuit semantics
    (a certify checkpoint pins the enumeration separately, by the space
    digest).  Service request keys and checkpoint identities carry it.
    """
    h = hashlib.sha256()
    h.update(f"{circuit.name}:{circuit.num_nets}\n".encode())
    for gate in circuit.gates:
        h.update(
            f"{gate.gtype.value}:{gate.out}:"
            f"{','.join(map(str, gate.ins))}:{gate.init}\n".encode()
        )
    return h.hexdigest()
