"""A small reduced-ordered-BDD (ROBDD) package with netlist lowering.

Used two ways in the reproduction:

- as a synthesis engine: the shared ROBDD forest of an S-box's outputs is
  lowered node-by-node to 2:1 muxes (one mux per BDD node, shared across
  outputs), which bounds circuit size by BDD size;
- as an equivalence checker: two combinational functions are identical iff
  their ROBDD roots coincide, which the test suite uses to compare
  countermeasure S-boxes against their specification.

Nodes are hash-consed triples ``(var, lo, hi)`` with the standard reduction
rules (no node with ``lo == hi``, no duplicate triples).  Terminals are the
integers 0 and 1; internal node ids start at 2.  ``var`` indices are levels:
smaller var = closer to the root.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.synth.gatecache import GateCache
from repro.synth.truthtable import TruthTable

__all__ = ["BDD", "bdd_synthesize_into"]

ZERO = 0
ONE = 1


class BDD:
    """A ROBDD manager over ``n_vars`` variables (var 0 at the root)."""

    def __init__(self, n_vars: int) -> None:
        if n_vars < 0:
            raise ValueError(f"n_vars must be non-negative: {n_vars}")
        self.n_vars = n_vars
        # node id -> (var, lo, hi); ids 0/1 are terminals
        self._nodes: list[tuple[int, int, int]] = [(-1, -1, -1), (-1, -1, -1)]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._ite_cache: dict[tuple[int, int, int], int] = {}

    # ----------------------------------------------------------- structure

    def node(self, u: int) -> tuple[int, int, int]:
        """The ``(var, lo, hi)`` triple of internal node ``u``."""
        if u < 2:
            raise ValueError(f"node {u} is a terminal")
        return self._nodes[u]

    def mk(self, var: int, lo: int, hi: int) -> int:
        """Reduced, hash-consed node constructor."""
        if not 0 <= var < self.n_vars:
            raise ValueError(f"variable {var} out of range")
        if lo == hi:
            return lo
        key = (var, lo, hi)
        found = self._unique.get(key)
        if found is not None:
            return found
        uid = len(self._nodes)
        self._nodes.append(key)
        self._unique[key] = uid
        return uid

    def var(self, i: int) -> int:
        """The BDD of the bare variable ``x_i``."""
        return self.mk(i, ZERO, ONE)

    # ------------------------------------------------------------- algebra

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f ? g : h`` — the universal ROBDD operation."""
        if f == ONE:
            return g
        if f == ZERO:
            return h
        if g == h:
            return g
        if g == ONE and h == ZERO:
            return f
        key = (f, g, h)
        hit = self._ite_cache.get(key)
        if hit is not None:
            return hit
        top = min(self._top_var(f), self._top_var(g), self._top_var(h))
        f0, f1 = self._cofactors(f, top)
        g0, g1 = self._cofactors(g, top)
        h0, h1 = self._cofactors(h, top)
        result = self.mk(top, self.ite(f0, g0, h0), self.ite(f1, g1, h1))
        self._ite_cache[key] = result
        return result

    def _top_var(self, u: int) -> int:
        return self.n_vars if u < 2 else self._nodes[u][0]

    def _cofactors(self, u: int, var: int) -> tuple[int, int]:
        if u < 2:
            return u, u
        v, lo, hi = self._nodes[u]
        if v == var:
            return lo, hi
        return u, u

    def apply_not(self, f: int) -> int:
        return self.ite(f, ZERO, ONE)

    def apply_and(self, f: int, g: int) -> int:
        return self.ite(f, g, ZERO)

    def apply_or(self, f: int, g: int) -> int:
        return self.ite(f, ONE, g)

    def apply_xor(self, f: int, g: int) -> int:
        return self.ite(f, self.apply_not(g), g)

    # ------------------------------------------------------------- queries

    def evaluate(self, u: int, assignment: Sequence[int]) -> int:
        """Evaluate node ``u`` under a full 0/1 variable assignment."""
        while u >= 2:
            var, lo, hi = self._nodes[u]
            u = hi if assignment[var] else lo
        return u

    def count_sat(self, u: int) -> int:
        """Number of satisfying assignments over all ``n_vars`` variables."""
        memo: dict[int, int] = {}

        def rec(node: int, level: int) -> int:
            if node < 2:
                return node << (self.n_vars - level)
            var, lo, hi = self._nodes[node]
            hit = memo.get(node)
            if hit is None:
                hit = rec(lo, var + 1) + rec(hi, var + 1)
                memo[node] = hit
            return hit << (var - level)

        return rec(u, 0)

    def reachable(self, roots: Sequence[int]) -> set[int]:
        """All node ids reachable from ``roots`` (terminals included)."""
        seen: set[int] = set()
        stack = list(roots)
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            if u >= 2:
                _, lo, hi = self._nodes[u]
                stack.extend((lo, hi))
        return seen

    # -------------------------------------------------------- construction

    @classmethod
    def from_truthtable(
        cls, table: TruthTable, *, var_order: Sequence[int] | None = None
    ) -> tuple["BDD", list[int]]:
        """Build the shared forest of all outputs; returns (manager, roots).

        ``var_order[level]`` gives the original input index placed at BDD
        level ``level`` (root first).  Default: input ``n-1`` at the root,
        matching :func:`repro.synth.shannon.shannon_synthesize_into`.

        Note the returned BDD's node ``var`` fields are *levels*:
        :meth:`evaluate` expects assignments indexed by level, i.e.
        ``assignment[level] = x[var_order[level]]``.
        """
        n = table.n_inputs
        order = list(var_order) if var_order is not None else list(reversed(range(n)))
        if sorted(order) != list(range(n)):
            raise ValueError(f"var_order must permute 0..{n - 1}: {order}")
        bdd = cls(n)
        roots = []
        for j in range(table.n_outputs):
            col = table.column(j)
            roots.append(bdd._from_column(col, order, 0))
        bdd._order = order  # type: ignore[attr-defined]
        return bdd, roots

    def _from_column(self, mask: int, order: Sequence[int], level: int) -> int:
        n_rem = self.n_vars - level
        size = 1 << n_rem
        if mask == 0:
            return ZERO
        if mask == (1 << size) - 1:
            return ONE
        remaining = sorted(order[level:])
        pos = remaining.index(order[level])
        half = size >> 1
        lo_mask = hi_mask = 0
        out_idx = 0
        for x in range(size):
            if (x >> pos) & 1:
                continue
            lo_mask |= ((mask >> x) & 1) << out_idx
            hi_mask |= ((mask >> (x | (1 << pos))) & 1) << out_idx
            out_idx += 1
        assert out_idx == half
        lo = self._from_column(lo_mask, order, level + 1)
        hi = self._from_column(hi_mask, order, level + 1)
        return self.mk(level, lo, hi)


def bdd_synthesize_into(
    cache: GateCache,
    table: TruthTable,
    input_nets: Sequence[int],
    *,
    var_order: Sequence[int] | None = None,
) -> list[int]:
    """Lower the shared ROBDD forest of ``table`` to muxes over ``input_nets``.

    One mux per reachable internal node (modulo the cache's strength
    reduction), so the emitted gate count is bounded by the forest size.
    """
    if len(input_nets) != table.n_inputs:
        raise ValueError(
            f"expected {table.n_inputs} input nets, got {len(input_nets)}"
        )
    n = table.n_inputs
    order = list(var_order) if var_order is not None else list(reversed(range(n)))
    bdd, roots = BDD.from_truthtable(table, var_order=order)

    net_of: dict[int, int] = {ZERO: cache.zero, ONE: cache.one}

    def lower(u: int) -> int:
        hit = net_of.get(u)
        if hit is not None:
            return hit
        level, lo, hi = bdd.node(u)
        sel = input_nets[order[level]]
        net = cache.g_mux(sel, lower(lo), lower(hi))
        net_of[u] = net
        return net

    return [lower(r) for r in roots]
