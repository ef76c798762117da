"""Ahead-of-time compiled evaluation kernel: generated straight-line code
over a zero-copy buffer plan.

The levelized kernel (:mod:`repro.netlist.levelized`) already collapses the
per-cycle Python work to one gather → op → scatter per (level, opcode)
group, but at campaign batch sizes the remaining cost is dominated by
Python-side dispatch and by row-at-a-time index machinery: every group
pays a fancy-index gather (which also heap-allocates its result), a
fancy-index scatter back into the net matrix, and an interpreted trip
through the group loop.  This module removes all three:

**Program-order value matrix.**  The kernel evaluates into a value matrix
whose rows are a *permutation* of the net ids: source nets first (primary
inputs, constants, then every DFF output as one contiguous block), then
each combinational gate's output in schedule order.  Every (level, opcode)
group's outputs thereby become one contiguous row block, so group results
are written *directly* by the ufunc (``out=`` a basic slice view) — the
per-group scatter disappears entirely.  The permutation is internal to the
kernel; :class:`~repro.netlist.simulator.Simulator` routes all net-indexed
access through the kernel's ``row_of`` map, so the external semantics
(ports, faults, readout) are unchanged and bit-exact.

**Constant-folded index plan.**  At compile time every operand index array
is classified: single rows and arithmetic-stride sequences (including the
broadcast case of one net feeding a whole group, e.g. a shared MUX select)
become numpy *views* bound once per kernel instance — zero copies, zero
calls in the cycle loop.  The rest are concatenated into one per-level
gather (content-deduplicated, so operand arrays shared between groups are
fetched once) executed as a single allocation-free
``vals.take(idx, 0, pool_slice, "clip")``.

**Generated straight-line code.**  Each level is lowered to one generated
Python function whose statements are exactly the level's ufunc calls on
the prebound views (inverting cells — NAND/NOR/XNOR — are laid out
adjacently so their final complement fuses into a single level-wide
``invert``).  The functions are ``compile()``d once per circuit and cached
in a per-:class:`Circuit` weakref cache next to the level schedule, so the
campaign executor's shard workers pay codegen once per process; binding
the views to a concrete batch size is a cheap per-``Simulator`` step.

The steady-state fault-free cycle therefore performs **zero heap
allocations** (asserted by ``tests/test_compiled_kernel.py``): every
array touched — the value matrix, the gather pool, the DFF latch buffer —
is preallocated and prebound.

Fault semantics follow the shared contract (see
:class:`~repro.netlist.simulator.Simulator`): the faulty path splits the
generated program at level boundaries and replays gate-output transforms
in reference program order via :func:`repro.netlist.levelized.faults_by_level`,
exactly like the levelized kernel.
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.netlist.levelized import (
    LevelGroup,
    LevelSchedule,
    Transform,
    compile_schedule,
    faults_by_level,
)

__all__ = ["CompiledProgram", "CompiledKernel", "compile_program"]

#: cells whose result is a complement of a cheaper cell; they are laid out
#: adjacently within each level so one fused ``invert`` finishes them all
_INVERTING = frozenset((GateType.NAND, GateType.NOR, GateType.XNOR))

#: base ufunc computing each cell (inverting cells complete via the fused
#: level-wide invert; MUX lowers to xor/and/xor)
_BASE_UFUNC = {
    GateType.XOR: "XOR",
    GateType.XNOR: "XOR",
    GateType.AND: "AND",
    GateType.NAND: "AND",
    GateType.OR: "OR",
    GateType.NOR: "OR",
}


@dataclass(frozen=True)
class CompiledProgram:
    """A circuit lowered to generated per-level code plus its buffer plan.

    Cached per :class:`Circuit` (weakref, invalidated with the topo cache
    like the level schedule), shared by every kernel instance on the same
    circuit regardless of batch size.  ``views``/``index_arrays`` are
    layout *descriptors*; :class:`CompiledKernel` materialises them
    against concrete buffers.
    """

    schedule: LevelSchedule
    row_of: np.ndarray  # (num_nets,) intp — net id -> matrix row
    net_of: np.ndarray  # (num_nets,) intp — matrix row -> net id
    source: str  # generated factory source (kept for introspection/tests)
    code: object  # compiled code object defining ``_factory``
    views: tuple[tuple, ...]  # view descriptors, see _materialize_view
    index_arrays: tuple[np.ndarray, ...]  # per-level gather index arrays
    pool_rows: int  # gather pool height
    dff_d_rows: np.ndarray  # (n_dffs,) intp — D-pin rows, dffs() order
    q_lo: int  # DFF output rows occupy [q_lo, q_hi) — one
    q_hi: int  # contiguous block, so the latch writes a slice
    n_levels: int


#: circuit -> (topo_order identity, program); same staleness discipline as
#: the level-schedule cache: the topo cache object is invalidated whenever
#: the circuit mutates, so identity comparison detects a stale program.
_PROGRAM_CACHE: "weakref.WeakKeyDictionary[Circuit, tuple[object, CompiledProgram]]"
_PROGRAM_CACHE = weakref.WeakKeyDictionary()


def _operand(
    w: np.ndarray,
    gidx: list[int],
    pool_map: dict[bytes, tuple[int, int]],
) -> tuple:
    """Classify one operand index array into a view descriptor.

    Arithmetic sequences (any stride, including 0 = one net broadcast to
    the whole group) become direct views of the value matrix; everything
    else lands in the level's gather pool, content-deduplicated so a
    second group reading the same rows reuses the first fetch.
    """
    n = len(w)
    if n == 1:
        return ("row", int(w[0]))
    d = np.diff(w)
    step = int(d[0])
    if bool(np.all(d == step)):
        if step == 0:
            return ("bcast", int(w[0]), n)
        start = int(w[0])
        stop: int | None = start + step * n
        if step < 0 and stop < 0:
            stop = None
        return ("slice", start, stop, step)
    key = w.tobytes()
    span = pool_map.get(key)
    if span is None:
        lo = len(gidx)
        gidx.extend(int(r) for r in w)
        span = (lo, len(gidx))
        pool_map[key] = span
    return ("pool", span[0], span[1])


def compile_program(circuit: Circuit) -> CompiledProgram:
    """Compile (or fetch the cached) generated program for ``circuit``."""
    order = circuit.topo_order()
    cached = _PROGRAM_CACHE.get(circuit)
    if cached is not None and cached[0] is order:
        return cached[1]

    schedule = compile_schedule(circuit)
    num_nets = circuit.num_nets

    # ---- row layout: sources (DFF outputs last, contiguous), then gate
    # outputs level by level with inverting groups clustered at the end of
    # their level (their complements fuse into one invert per level).
    #
    # Block *order* is fixed by the above, but the order of members
    # *within* each block (the plain-source block, the DFF-Q block, each
    # (level, opcode) group's output block) is free: outputs land
    # contiguously either way, and faults/readout go through ``row_of``.
    # That freedom is the key to killing gathers: a backward pass over the
    # consumers picks, for every block, the member order of its largest
    # single-block operand, which turns that operand into a plain
    # ascending slice of the value matrix — a zero-copy view instead of a
    # pooled gather row per gate.  Wiring permutations (e.g. a cipher's
    # bit-permutation layer) are thereby absorbed into the layout once, at
    # compile time.
    comb_outs = set(schedule.out_level)
    dffs = circuit.dffs()
    dff_q = [g.out for g in dffs]
    dff_q_set = set(dff_q)
    plain_sources = [
        n for n in range(num_nets) if n not in comb_outs and n not in dff_q_set
    ]

    # block membership: net -> (block key, member index within block)
    block_of: dict[int, tuple[object, int]] = {}
    for j, n in enumerate(plain_sources):
        block_of[n] = ("src", j)
    for j, n in enumerate(dff_q):
        block_of[n] = ("q", j)
    group_layout: list[list] = []  # per level: LevelGroup in placement order
    for level, groups in enumerate(schedule.groups):
        ordered = sorted(
            groups, key=lambda g: (g.gtype in _INVERTING, g.gtype.value)
        )
        for gi, g in enumerate(ordered):
            for j, o in enumerate(g.out):
                block_of[int(o)] = ((level, gi), j)
        group_layout.append(ordered)

    # backward constraint pass: walk levels last-to-first (a block's own
    # order is final before its operand slots are inspected, since
    # consumers always sit in later levels), biggest slot first within a
    # level, and give each still-free producer block the member order of
    # the winning slot.
    perm: dict[object, list[int]] = {}

    def constrain(nets) -> None:
        entries = [block_of[int(n)] for n in nets]
        key = entries[0][0]
        if key in perm or any(e[0] != key for e in entries):
            return
        members = [e[1] for e in entries]
        if len(set(members)) != len(members):
            return
        perm[key] = members

    def member_order(key, size: int) -> list[int]:
        prefix = perm.get(key)
        if prefix is None:
            return list(range(size))
        seen = set(prefix)
        return prefix + [j for j in range(size) if j not in seen]

    for level in range(len(group_layout) - 1, -1, -1):
        slots = []
        for gi, g in enumerate(group_layout[level]):
            if len(g.out) < 2:
                continue
            order_in = member_order((level, gi), len(g.out))
            for w in (g.a, g.b, g.c):
                if w is not None:
                    slots.append(w[order_in])
        for w in sorted(slots, key=len, reverse=True):
            constrain(w)
    # opportunistic: linearize the DFF latch gather too, if the D pins all
    # come from one still-free block
    q_order = member_order("q", len(dff_q))
    d_nets = [dffs[j].ins[0] for j in q_order]
    if len(d_nets) >= 2:
        constrain(d_nets)

    # ---- assign rows block by block under the chosen member orders
    row_of = np.empty(num_nets, dtype=np.intp)
    row = 0
    for j in member_order("src", len(plain_sources)):
        row_of[plain_sources[j]] = row
        row += 1
    q_lo = row
    dff_q = [dff_q[j] for j in q_order]
    for n in dff_q:
        row_of[n] = row
        row += 1
    q_hi = row

    ordered_levels = []
    for level, ordered in enumerate(group_layout):
        placed = []
        for gi, g in enumerate(ordered):
            order_in = member_order((level, gi), len(g.out))
            if order_in != list(range(len(g.out))):
                g = LevelGroup(
                    gtype=g.gtype,
                    out=g.out[order_in],
                    a=g.a[order_in],
                    b=None if g.b is None else g.b[order_in],
                    c=None if g.c is None else g.c[order_in],
                )
            lo = row
            for o in g.out:
                row_of[o] = row
                row += 1
            placed.append((g, lo, row))
        ordered_levels.append(placed)
    assert row == num_nets

    # ---- buffer plan + per-level statement lists
    views: dict[tuple, int] = {}

    def view(desc: tuple) -> str:
        idx = views.get(desc)
        if idx is None:
            idx = len(views)
            views[desc] = idx
        return f"v{idx}"

    index_arrays: list[np.ndarray] = []
    pool_rows = 0
    body: list[str] = []
    all_stmts: list[str] = []
    for level, placed in enumerate(ordered_levels):
        gidx: list[int] = []
        pool_map: dict[bytes, tuple[int, int]] = {}
        stmts: list[str] = []
        inv_lo = inv_hi = None
        for g, lo, hi in placed:
            dest = view(("slice", lo, hi, 1)) if hi - lo > 1 else view(("row", lo))
            if g.gtype in _INVERTING:
                inv_lo = lo if inv_lo is None else inv_lo
                inv_hi = hi
            a = view(_operand(row_of[g.a], gidx, pool_map))
            if g.gtype is GateType.BUF:
                stmts.append(f"CPY({dest}, {a})")
                continue
            if g.gtype is GateType.NOT:
                stmts.append(f"INV({a}, {dest})")
                continue
            if g.gtype is GateType.MUX:
                b = view(_operand(row_of[g.b], gidx, pool_map))
                c = view(_operand(row_of[g.c], gidx, pool_map))
                # out = d0 ^ (sel & (d0 ^ d1)), computed through the dest
                # rows themselves: dest can never alias an operand (it is
                # this level's output block; operands are earlier rows),
                # so no scratch buffer is needed at all
                stmts.append(f"XOR({b}, {c}, {dest})")
                stmts.append(f"AND({dest}, {a}, {dest})")
                stmts.append(f"XOR({dest}, {b}, {dest})")
                continue
            b = view(_operand(row_of[g.b], gidx, pool_map))
            stmts.append(f"{_BASE_UFUNC[g.gtype]}({a}, {b}, {dest})")
        if inv_lo is not None:
            iv = (
                view(("slice", inv_lo, inv_hi, 1))
                if inv_hi - inv_lo > 1
                else view(("row", inv_lo))
            )
            stmts.append(f"INV({iv}, {iv})")
        if gidx:
            arr = np.array(gidx, dtype=np.intp)
            pool = view(("pool", 0, len(arr)))
            stmts.insert(0, f"take(i{len(index_arrays)}, 0, {pool}, 'clip')")
            index_arrays.append(arr)
            pool_rows = max(pool_rows, len(arr))
        body.append(f"def _L{level}():")
        body.extend(f"    {s}" for s in stmts)
        all_stmts.extend(stmts)

    # ---- generated factory: binds the prebound views into the fused
    # whole-cycle clean function (one call per fault-free cycle) plus the
    # per-level functions the faulty path interleaves with transform
    # replay.  Compiled once per circuit; executed (a few microseconds)
    # once per kernel instance.
    body.append("def _clean():")
    body.extend(f"    {s}" for s in (all_stmts or ["pass"]))
    names = [f"v{i}" for i in range(len(views))]
    inames = [f"i{i}" for i in range(len(index_arrays))]
    lines = ["def _factory(take, XOR, AND, OR, INV, CPY, views, idx):"]
    if names:
        lines.append(f"    ({', '.join(names)},) = views")
    if inames:
        lines.append(f"    ({', '.join(inames)},) = idx")
    lines.extend(f"    {b}" for b in body)
    lines.append(
        "    return _clean, ("
        + ", ".join(f"_L{i}" for i in range(len(ordered_levels)))
        + ("," if len(ordered_levels) == 1 else "")
        + ")"
    )
    source = "\n".join(lines) + "\n"
    code = compile(source, f"<compiled:{circuit.name}>", "exec")

    net_of = np.empty(num_nets, dtype=np.intp)
    net_of[row_of] = np.arange(num_nets, dtype=np.intp)
    # D-pin rows in Q-block row order, so latch row i feeds Q row q_lo + i
    dff_d_rows = np.array(
        [row_of[dffs[j].ins[0]] for j in q_order], dtype=np.intp
    )
    program = CompiledProgram(
        schedule=schedule,
        row_of=row_of,
        net_of=net_of,
        source=source,
        code=code,
        views=tuple(views),
        index_arrays=tuple(index_arrays),
        pool_rows=pool_rows,
        dff_d_rows=dff_d_rows,
        q_lo=q_lo,
        q_hi=q_hi,
        n_levels=len(ordered_levels),
    )
    _PROGRAM_CACHE[circuit] = (order, program)
    return program


def _materialize_view(
    desc: tuple, vals: np.ndarray, pool: np.ndarray
) -> np.ndarray:
    kind = desc[0]
    if kind == "slice":
        return vals[desc[1] : desc[2] : desc[3]]
    if kind == "row":
        return vals[desc[1]]
    if kind == "pool":
        return pool[desc[1] : desc[2]]
    if kind == "bcast":
        return np.broadcast_to(vals[desc[1]], (desc[2], vals.shape[1]))
    raise ValueError(f"unknown view descriptor {desc!r}")  # pragma: no cover


class CompiledKernel:
    """Executes a :class:`CompiledProgram` over its own value matrix.

    The kernel owns the program-order matrix (:attr:`vals`) and the gather
    pool; the :class:`~repro.netlist.simulator.Simulator` adopts
    :attr:`vals` as its value store and remaps net-indexed access through
    :attr:`row_of`.
    """

    def __init__(self, program: CompiledProgram, n_words: int) -> None:
        self.program = program
        self.row_of = program.row_of
        num_nets = len(program.row_of)
        self.vals = np.zeros((num_nets, n_words), dtype=np.uint64)
        self._pool = np.empty((max(program.pool_rows, 1), n_words), dtype=np.uint64)
        bound = tuple(
            _materialize_view(d, self.vals, self._pool) for d in program.views
        )
        ns: dict = {}
        exec(program.code, {}, ns)
        self._clean, self._levels = ns["_factory"](
            self.vals.take,
            np.bitwise_xor,
            np.bitwise_and,
            np.bitwise_or,
            np.bitwise_not,
            np.copyto,
            bound,
            program.index_arrays,
        )
        # prebound allocation-free DFF latch.  When no D pin reads a row
        # inside the Q block (no FF chained straight to another FF's Q, as
        # in shift registers) the take can write the Q block directly; the
        # overlapping case double-buffers so every D is read before any Q
        # is overwritten, matching the fancy-assignment semantics of the
        # other backends.  The Q block is one contiguous slice by
        # construction.
        d_rows = program.dff_d_rows
        self._latch_direct = bool(
            len(d_rows)
            and not ((d_rows >= program.q_lo) & (d_rows < program.q_hi)).any()
        )
        self._dff_buf = np.empty(
            (0 if self._latch_direct else len(d_rows), n_words), dtype=np.uint64
        )
        self._q_view = self.vals[program.q_lo : program.q_hi]

    def latch(self) -> None:
        """Clock every DFF: Q <- D, allocation-free."""
        if self._latch_direct:
            self.vals.take(self.program.dff_d_rows, 0, self._q_view, "clip")
        elif len(self._dff_buf):
            self.vals.take(self.program.dff_d_rows, 0, self._dff_buf, "clip")
            np.copyto(self._q_view, self._dff_buf)

    def run(self, fault_map: Mapping[int, Transform]) -> None:
        """Evaluate every level, applying ``fault_map`` gate-output transforms.

        The fault-free path is the fused generated program; with faults the
        same per-level functions run split, each level's transforms
        replayed in reference program order — the exact discipline of the
        levelized kernel, on permuted rows.
        """
        if fault_map:
            faulted = faults_by_level(self.program.schedule, fault_map)
            if faulted:
                return self._run_faulty(faulted)
        self._clean()

    def _run_faulty(
        self, faulted: dict[int, list[tuple[int, int, Transform]]]
    ) -> None:
        vals = self.vals
        row_of = self.row_of
        for level, fn in enumerate(self._levels):
            fn()
            for _, net, transform in faulted.get(level, ()):
                row = row_of[net]
                vals[row] = transform(vals[row])
