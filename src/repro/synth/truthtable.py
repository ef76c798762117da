"""Truth-table representation of ``n → m`` boolean functions.

A :class:`TruthTable` stores, for each of the ``2**n`` input patterns, the
``m``-bit output word.  Single outputs are also exposed as *column masks* —
``2**n``-bit Python integers where bit ``x`` is output bit ``j`` on input
``x`` — which is the representation Shannon synthesis recurses on
(cofactoring a column mask is bit slicing, which arbitrary-precision ints do
for free).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

__all__ = ["TruthTable"]


class TruthTable:
    """An explicit ``n``-input, ``m``-output truth table.

    ``table[x]`` is the output word (an ``m``-bit integer, LSB-first) for
    input pattern ``x`` (bit ``i`` of ``x`` is input variable ``i``).
    """

    def __init__(self, n_inputs: int, n_outputs: int, table: Sequence[int]) -> None:
        if n_inputs < 0 or n_inputs > 24:
            raise ValueError(f"n_inputs out of supported range: {n_inputs}")
        if n_outputs <= 0:
            raise ValueError(f"n_outputs must be positive: {n_outputs}")
        table = list(table)
        if len(table) != 1 << n_inputs:
            raise ValueError(
                f"table has {len(table)} entries, expected {1 << n_inputs}"
            )
        for x, value in enumerate(table):
            if value < 0 or value >> n_outputs:
                raise ValueError(
                    f"entry {x} = {value:#x} does not fit in {n_outputs} outputs"
                )
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs
        self.table = table

    # ---------------------------------------------------------- constructors

    @classmethod
    def from_function(
        cls, n_inputs: int, n_outputs: int, fn: Callable[[int], int]
    ) -> "TruthTable":
        """Tabulate ``fn`` over all ``2**n_inputs`` patterns."""
        return cls(n_inputs, n_outputs, [fn(x) for x in range(1 << n_inputs)])

    @classmethod
    def from_columns(cls, n_inputs: int, columns: Sequence[int]) -> "TruthTable":
        """Build from per-output column masks (see :meth:`column`)."""
        n_outputs = len(columns)
        table = []
        for x in range(1 << n_inputs):
            word = 0
            for j, col in enumerate(columns):
                word |= ((col >> x) & 1) << j
            table.append(word)
        return cls(n_inputs, n_outputs, table)

    # --------------------------------------------------------------- queries

    def __call__(self, x: int) -> int:
        return self.table[x]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruthTable):
            return NotImplemented
        return (
            self.n_inputs == other.n_inputs
            and self.n_outputs == other.n_outputs
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return hash((self.n_inputs, self.n_outputs, tuple(self.table)))

    def column(self, j: int) -> int:
        """Output bit ``j`` as a ``2**n_inputs``-bit mask (bit x = f_j(x))."""
        if not 0 <= j < self.n_outputs:
            raise IndexError(f"output index {j} out of range")
        col = 0
        for x, value in enumerate(self.table):
            col |= ((value >> j) & 1) << x
        return col

    def columns(self) -> list[int]:
        """All output columns, LSB output first."""
        return [self.column(j) for j in range(self.n_outputs)]

    def minterms(self, j: int) -> list[int]:
        """Input patterns where output ``j`` is 1."""
        col = self.column(j)
        return [x for x in range(1 << self.n_inputs) if (col >> x) & 1]

    def is_permutation(self) -> bool:
        """True when n == m and the map is a bijection (S-box sanity)."""
        return self.n_inputs == self.n_outputs and sorted(self.table) == list(
            range(1 << self.n_inputs)
        )

    # ------------------------------------------------------------ transforms

    def inverted_domain(self) -> "TruthTable":
        """The *inverted cipher* version of this function (paper Table I).

        Returns ``T̄`` with ``T̄(x̄) = T(x)‾`` — i.e. the function computed by
        the same logic re-expressed in the complemented encoding, where every
        input and output wire carries the complement of its logical value.
        """
        in_mask = (1 << self.n_inputs) - 1
        out_mask = (1 << self.n_outputs) - 1
        table = [0] * (1 << self.n_inputs)
        for x, value in enumerate(self.table):
            table[x ^ in_mask] = value ^ out_mask
        return TruthTable(self.n_inputs, self.n_outputs, table)

    def merged_with_domain_bit(self) -> "TruthTable":
        """The paper's ``(n+1) × m`` merged S-box.

        The new MSB input is the encoding bit λ: with λ = 0 the table is the
        original function; with λ = 1 it is the inverted-domain function.
        Implementing both "at one place", as §III of the paper specifies.
        """
        inverted = self.inverted_domain()
        return TruthTable(
            self.n_inputs + 1,
            self.n_outputs,
            self.table + inverted.table,
        )

    def __repr__(self) -> str:
        return f"TruthTable({self.n_inputs}->{self.n_outputs})"
