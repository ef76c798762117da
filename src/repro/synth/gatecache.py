"""Hash-consed, folding gate construction.

Shannon synthesis emits its gates through a :class:`GateCache`, which gives
three structural optimisations for free at construction time:

- **constant folding** — operations on CONST0/CONST1 collapse;
- **structural hashing** — identical (type, inputs) gates are built once
  (inputs are sorted for commutative cells);
- **complement tracking** — each net remembers its known complement, so
  ``NOT(NOT a)`` vanishes and ``a ⊕ ā``-style identities fold, and muxes of
  complementary branches strength-reduce to XOR/XNOR cells.

The result is close to what a light technology-independent optimisation
pass would produce, without a separate rewrite step.
"""

from __future__ import annotations

from repro.netlist.builder import CircuitBuilder
from repro.netlist.gates import GateType

__all__ = ["GateCache"]

_COMMUTATIVE = {
    GateType.AND,
    GateType.OR,
    GateType.NAND,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
}


class GateCache:
    """Wraps a :class:`CircuitBuilder` with hash-consing constructors."""

    def __init__(self, builder: CircuitBuilder, *, tag: str = "") -> None:
        self.builder = builder
        self.tag = tag
        self._cache: dict[tuple, int] = {}
        self._compl: dict[int, int] = {}

    # ------------------------------------------------------------ plumbing

    @property
    def zero(self) -> int:
        return self.builder.circuit.const(0)

    @property
    def one(self) -> int:
        return self.builder.circuit.const(1)

    def _is0(self, net: int) -> bool:
        return net == self.builder.circuit._const_net.get(GateType.CONST0)

    def _is1(self, net: int) -> bool:
        return net == self.builder.circuit._const_net.get(GateType.CONST1)

    def complement_of(self, net: int) -> int | None:
        """The known complement net of ``net``, if one has been built."""
        if self._is0(net):
            return self.one
        if self._is1(net):
            return self.zero
        return self._compl.get(net)

    def note_complements(self, a: int, b: int) -> None:
        """Record that nets ``a`` and ``b`` always carry opposite values."""
        self._compl.setdefault(a, b)
        self._compl.setdefault(b, a)

    def _emit(self, gtype: GateType, *ins: int) -> int:
        key_ins = tuple(sorted(ins)) if gtype in _COMMUTATIVE else tuple(ins)
        key = (gtype, key_ins)
        net = self._cache.get(key)
        if net is None:
            net = self.builder.gate(gtype, *ins, tag=self.tag)
            self._cache[key] = net
        return net

    # ------------------------------------------------------------ operators

    def g_not(self, a: int) -> int:
        if self._is0(a):
            return self.one
        if self._is1(a):
            return self.zero
        known = self._compl.get(a)
        if known is not None:
            return known
        net = self._emit(GateType.NOT, a)
        self.note_complements(a, net)
        return net

    def g_and(self, a: int, b: int) -> int:
        if a == b:
            return a
        if self._is0(a) or self._is0(b):
            return self.zero
        if self._is1(a):
            return b
        if self._is1(b):
            return a
        if self._compl.get(a) == b:
            return self.zero
        return self._emit(GateType.AND, a, b)

    def g_or(self, a: int, b: int) -> int:
        if a == b:
            return a
        if self._is1(a) or self._is1(b):
            return self.one
        if self._is0(a):
            return b
        if self._is0(b):
            return a
        if self._compl.get(a) == b:
            return self.one
        return self._emit(GateType.OR, a, b)

    def g_nand(self, a: int, b: int) -> int:
        return self.g_not(self.g_and(a, b))

    def g_nor(self, a: int, b: int) -> int:
        return self.g_not(self.g_or(a, b))

    def g_xor(self, a: int, b: int) -> int:
        if a == b:
            return self.zero
        if self._is0(a):
            return b
        if self._is0(b):
            return a
        if self._is1(a):
            return self.g_not(b)
        if self._is1(b):
            return self.g_not(a)
        if self._compl.get(a) == b:
            return self.one
        net = self._emit(GateType.XOR, a, b)
        xnor = self._cache.get((GateType.XNOR, tuple(sorted((a, b)))))
        if xnor is not None:
            self.note_complements(net, xnor)
        return net

    def g_xnor(self, a: int, b: int) -> int:
        if a == b:
            return self.one
        if self._is1(a):
            return b
        if self._is1(b):
            return a
        if self._is0(a):
            return self.g_not(b)
        if self._is0(b):
            return self.g_not(a)
        if self._compl.get(a) == b:
            return self.zero
        net = self._emit(GateType.XNOR, a, b)
        xor = self._cache.get((GateType.XOR, tuple(sorted((a, b)))))
        if xor is not None:
            self.note_complements(net, xor)
        return net

    def g_mux(self, sel: int, d0: int, d1: int) -> int:
        """``d1 if sel else d0`` with strength reduction."""
        if self._is0(sel):
            return d0
        if self._is1(sel):
            return d1
        if d0 == d1:
            return d0
        if self._is0(d0):
            return self.g_and(sel, d1)
        if self._is1(d0):
            return self.g_or(self.g_not(sel), d1)
        if self._is0(d1):
            return self.g_and(self.g_not(sel), d0)
        if self._is1(d1):
            return self.g_or(sel, d0)
        if self._compl.get(d0) == d1:
            # sel ? d1 : NOT d1  ==  XNOR(sel, d1)
            return self.g_xnor(sel, d1)
        if d0 == sel:
            return self.g_and(sel, d1)
        if d1 == sel:
            return self.g_or(sel, d0)
        if self._compl.get(sel) == d0:
            # sel ? d1 : NOT sel == (sel AND d1) OR (NOT sel) == NOT sel OR d1
            return self.g_or(self.g_not(sel), d1)
        if self._compl.get(sel) == d1:
            # sel ? NOT sel : d0 == NOT sel AND d0
            return self.g_and(self.g_not(sel), d0)
        return self._emit(GateType.MUX, sel, d0, d1)
