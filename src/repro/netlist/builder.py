"""Word-level construction helpers over the flat :class:`Circuit` API.

Cipher datapaths and countermeasure wrappers are most naturally expressed on
*words* (lists of nets, LSB-first).  ``CircuitBuilder`` provides the bitwise
operators, reduction trees, muxes and registers those generators need while
emitting only cells from the technology alphabet.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType

__all__ = ["CircuitBuilder"]

Word = list[int]


class CircuitBuilder:
    """Fluent netlist construction; owns (or wraps) a :class:`Circuit`."""

    def __init__(self, name: str = "circuit", *, circuit: Circuit | None = None) -> None:
        self.circuit = circuit if circuit is not None else Circuit(name)

    # -------------------------------------------------------------- plumbing

    def input(self, name: str, width: int) -> Word:
        """Declare a primary input port and return its nets (LSB-first)."""
        return self.circuit.add_input(name, width)

    def output(self, name: str, nets: Sequence[int]) -> None:
        """Declare a named output port."""
        self.circuit.set_output(name, list(nets))

    def build(self) -> Circuit:
        """Finalise and return the circuit.

        Runs :meth:`Circuit.validate` — multiply-driven nets, undriven
        reads, combinational loops — so a wiring bug surfaces at build
        time with a structured :class:`~repro.netlist.circuit.CircuitError`
        naming the culprit, not later as a wrong simulation.  Every
        generator in the repository finalises through here.
        """
        self.circuit.validate()
        return self.circuit

    def const_word(self, value: int, width: int) -> Word:
        """A ``width``-bit constant word (shares the two CONST cells)."""
        return [self.circuit.const((value >> i) & 1) for i in range(width)]

    # ---------------------------------------------------------- 1-bit gates

    def gate(self, gtype: GateType, *ins: int, tag: str = "") -> int:
        """Emit one raw cell and return its output net."""
        return self.circuit.add_gate(gtype, tuple(ins), tag=tag)

    def not_(self, a: int, *, tag: str = "") -> int:
        return self.gate(GateType.NOT, a, tag=tag)

    def buf(self, a: int, *, tag: str = "") -> int:
        return self.gate(GateType.BUF, a, tag=tag)

    def and_(self, a: int, b: int, *, tag: str = "") -> int:
        return self.gate(GateType.AND, a, b, tag=tag)

    def or_(self, a: int, b: int, *, tag: str = "") -> int:
        return self.gate(GateType.OR, a, b, tag=tag)

    def nand(self, a: int, b: int, *, tag: str = "") -> int:
        return self.gate(GateType.NAND, a, b, tag=tag)

    def nor(self, a: int, b: int, *, tag: str = "") -> int:
        return self.gate(GateType.NOR, a, b, tag=tag)

    def xor(self, a: int, b: int, *, tag: str = "") -> int:
        return self.gate(GateType.XOR, a, b, tag=tag)

    def xnor(self, a: int, b: int, *, tag: str = "") -> int:
        return self.gate(GateType.XNOR, a, b, tag=tag)

    def mux(self, sel: int, d0: int, d1: int, *, tag: str = "") -> int:
        """``d1 if sel else d0``."""
        return self.gate(GateType.MUX, sel, d0, d1, tag=tag)

    def dff(self, d: int, *, init: int = 0, tag: str = "") -> int:
        """A flip-flop fed by ``d``; returns the Q net."""
        return self.circuit.add_gate(GateType.DFF, (d,), init=init, tag=tag)

    # ----------------------------------------------------------- word logic

    @staticmethod
    def _check_same_width(a: Sequence[int], b: Sequence[int]) -> None:
        if len(a) != len(b):
            raise ValueError(f"word width mismatch: {len(a)} vs {len(b)}")

    def xor_word(self, a: Sequence[int], b: Sequence[int], *, tag: str = "") -> Word:
        self._check_same_width(a, b)
        return [self.xor(x, y, tag=tag) for x, y in zip(a, b)]

    def xnor_word(self, a: Sequence[int], b: Sequence[int], *, tag: str = "") -> Word:
        self._check_same_width(a, b)
        return [self.xnor(x, y, tag=tag) for x, y in zip(a, b)]

    def and_word(self, a: Sequence[int], b: Sequence[int], *, tag: str = "") -> Word:
        self._check_same_width(a, b)
        return [self.and_(x, y, tag=tag) for x, y in zip(a, b)]

    def or_word(self, a: Sequence[int], b: Sequence[int], *, tag: str = "") -> Word:
        self._check_same_width(a, b)
        return [self.or_(x, y, tag=tag) for x, y in zip(a, b)]

    def not_word(self, a: Sequence[int], *, tag: str = "") -> Word:
        return [self.not_(x, tag=tag) for x in a]

    def xor_bit_into_word(self, a: Sequence[int], bit: int, *, tag: str = "") -> Word:
        """XOR one net into every bit of a word (domain re-encoding)."""
        return [self.xor(x, bit, tag=tag) for x in a]

    def mux_word(
        self, sel: int, d0: Sequence[int], d1: Sequence[int], *, tag: str = ""
    ) -> Word:
        """Per-bit 2:1 mux, ``d1`` selected when ``sel`` is 1."""
        self._check_same_width(d0, d1)
        return [self.mux(sel, x, y, tag=tag) for x, y in zip(d0, d1)]

    def register(
        self, width: int, *, init: int = 0, tag: str = ""
    ) -> tuple[Word, "Callable[[Sequence[int]], None]"]:
        """A feedback-capable register: returns ``(q_nets, connect)``.

        The Q nets are usable immediately (e.g. inside the logic that will
        eventually compute D); call ``connect(d_nets)`` exactly once after
        building that logic to emit the flip-flops.
        """
        q_nets = [self.circuit.new_net() for _ in range(width)]
        connected = False

        def connect(d_nets: Sequence[int]) -> None:
            nonlocal connected
            if connected:
                raise RuntimeError("register already connected")
            if len(d_nets) != width:
                raise ValueError(f"expected {width} D nets, got {len(d_nets)}")
            connected = True
            for i, (d, q) in enumerate(zip(d_nets, q_nets)):
                self.circuit.add_gate(
                    GateType.DFF,
                    (d,),
                    out=q,
                    init=(init >> i) & 1,
                    tag=f"{tag}[{i}]" if tag else "",
                )

        return q_nets, connect

    # -------------------------------------------------------------- reducers

    def reduce_tree(self, gtype: GateType, nets: Sequence[int], *, tag: str = "") -> int:
        """Balanced binary reduction of ``nets`` with a 2-input gate type."""
        nets = list(nets)
        if not nets:
            raise ValueError("cannot reduce an empty net list")
        while len(nets) > 1:
            nxt: Word = []
            for i in range(0, len(nets) - 1, 2):
                nxt.append(self.gate(gtype, nets[i], nets[i + 1], tag=tag))
            if len(nets) % 2:
                nxt.append(nets[-1])
            nets = nxt
        return nets[0]

    def or_reduce(self, nets: Sequence[int], *, tag: str = "") -> int:
        return self.reduce_tree(GateType.OR, nets, tag=tag)

    def and_reduce(self, nets: Sequence[int], *, tag: str = "") -> int:
        return self.reduce_tree(GateType.AND, nets, tag=tag)

    def xor_reduce(self, nets: Sequence[int], *, tag: str = "") -> int:
        return self.reduce_tree(GateType.XOR, nets, tag=tag)

    # ------------------------------------------------------------ arithmetic

    def equals(self, a: Sequence[int], b: Sequence[int], *, tag: str = "") -> int:
        """One net that is 1 iff words ``a`` and ``b`` are bitwise equal."""
        diffs = self.xor_word(a, b, tag=tag)
        return self.nor_reduce(diffs, tag=tag)

    def nor_reduce(self, nets: Sequence[int], *, tag: str = "") -> int:
        """NOT(OR(nets)) — 1 iff all nets are 0."""
        return self.not_(self.or_reduce(nets, tag=tag), tag=tag)

    def incrementer(self, a: Sequence[int], *, tag: str = "") -> Word:
        """``a + 1`` modulo ``2**len(a)`` as a ripple half-adder chain."""
        out: Word = []
        carry: int | None = None
        for i, bit in enumerate(a):
            if i == 0:
                out.append(self.not_(bit, tag=tag))
                carry = bit
            else:
                assert carry is not None
                out.append(self.xor(bit, carry, tag=tag))
                if i != len(a) - 1:
                    carry = self.and_(bit, carry, tag=tag)
        return out

    def majority3(self, a: int, b: int, c: int, *, tag: str = "") -> int:
        """Majority of three bits: ``ab | bc | ca`` (triplication voter)."""
        ab = self.and_(a, b, tag=tag)
        bc = self.and_(b, c, tag=tag)
        ca = self.and_(c, a, tag=tag)
        return self.or_(self.or_(ab, bc, tag=tag), ca, tag=tag)

    # ------------------------------------------------------------- inlining

    def append_circuit(
        self,
        sub: "Circuit",
        inputs: dict[str, Sequence[int]],
        *,
        tag_prefix: str = "",
    ) -> dict[str, Word]:
        """Instantiate another circuit inside this one (flattening).

        ``inputs`` binds each of ``sub``'s input ports to existing nets of
        this circuit; the return value maps each of ``sub``'s output ports
        to the corresponding new nets.  Gate tags are prefixed with
        ``tag_prefix`` so instances stay addressable by fault campaigns.
        This is how optimised S-box netlists are stamped into cipher
        datapaths.
        """
        if set(inputs) != set(sub.inputs):
            raise ValueError(
                f"input bindings {sorted(inputs)} do not match "
                f"sub-circuit ports {sorted(sub.inputs)}"
            )
        net_map: dict[int, int] = {}
        for name, nets in sub.inputs.items():
            bound = list(inputs[name])
            if len(bound) != len(nets):
                raise ValueError(
                    f"port {name!r} is {len(nets)} bits, bound {len(bound)}"
                )
            for inner, outer in zip(nets, bound):
                net_map[inner] = outer
        # Two passes so feedback through DFFs (whose D net is defined later
        # in the gate list) resolves correctly.
        for gate in sub.gates:
            if gate.gtype is GateType.INPUT:
                continue
            if gate.gtype is GateType.CONST0:
                net_map[gate.out] = self.circuit.const(0)
            elif gate.gtype is GateType.CONST1:
                net_map[gate.out] = self.circuit.const(1)
            else:
                net_map[gate.out] = self.circuit.new_net()
        for gate in sub.gates:
            if gate.gtype in (GateType.INPUT, GateType.CONST0, GateType.CONST1):
                continue
            ins = tuple(net_map[n] for n in gate.ins)
            tag = f"{tag_prefix}{gate.tag}" if gate.tag else tag_prefix
            self.circuit.add_gate(
                gate.gtype, ins, out=net_map[gate.out], init=gate.init, tag=tag
            )
        return {
            name: [net_map[n] for n in nets] for name, nets in sub.outputs.items()
        }

    def majority3_word(
        self, a: Sequence[int], b: Sequence[int], c: Sequence[int], *, tag: str = ""
    ) -> Word:
        self._check_same_width(a, b)
        self._check_same_width(b, c)
        return [self.majority3(x, y, z, tag=tag) for x, y, z in zip(a, b, c)]
