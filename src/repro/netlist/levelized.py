"""Levelized, opcode-batched evaluation kernel for the simulator.

The reference interpreter in :mod:`repro.netlist.simulator` dispatches one
tiny numpy op per gate per cycle, so a ~2,500-gate protected design costs
~2,500 Python iterations *per clock cycle* — interpreter overhead, not the
hardware, bounds campaign throughput.  This module compiles the circuit
once into a *level schedule*: the topologically-sorted gate program is
partitioned into dependency levels (gates within a level never read each
other's outputs), each level's gates are grouped by opcode, and the net
ids of every group are frozen into ``intp`` index arrays.  Evaluating a
(level, opcode) group is then one gather → one vectorized bitwise op →
one scatter over the packed value matrix, collapsing the per-cycle Python
work from ``O(gates)`` to ``O(levels × live_opcodes)`` — typically a few
hundred iterations down to a few dozen.

Fault semantics are preserved exactly (see the contract in
:class:`~repro.netlist.simulator.Simulator`): because no gate reads an
output produced in its own level, applying a faulted gate output's
transform after its level evaluates — but before any later level runs —
is observationally identical to the reference interpreter's
apply-right-after-the-gate behaviour.  Transforms are applied in program
order within the level, matching the reference ordering bit for bit.

The compiled :class:`LevelSchedule` depends only on the circuit structure
(never on batch size or fault maps) and is cached per :class:`Circuit`
identity, so the sharded campaign executor's workers — which build a
fresh :class:`~repro.netlist.simulator.Simulator` pair per chunk on the
same circuit object — levelize once per process, not once per shard.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType

__all__ = [
    "LevelGroup",
    "LevelSchedule",
    "LevelizedKernel",
    "compile_schedule",
    "faults_by_level",
]

Transform = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class LevelGroup:
    """All gates of one type within one level, as gather/scatter indices.

    ``a``/``b``/``c`` follow the gate input conventions of
    :class:`~repro.netlist.gates.Gate` (``b``/``c`` are None for
    one-input cells; for MUX, ``a`` is the select, ``b``/``c`` are
    ``d0``/``d1``).
    """

    gtype: GateType
    out: np.ndarray  # (n,) intp — output net per gate
    a: np.ndarray  # (n,) intp — first input net per gate
    b: np.ndarray | None
    c: np.ndarray | None

    def __len__(self) -> int:  # pragma: no cover - trivial
        return len(self.out)


@dataclass(frozen=True)
class LevelSchedule:
    """A circuit compiled for batched evaluation.

    ``out_level``/``out_pos`` map every combinational gate's output net to
    the level that produces it and to its position in the reference
    program — what the faulty path needs to replay gate-output transforms
    at the right moment and in program order.
    """

    groups: tuple[tuple[LevelGroup, ...], ...]  # groups[level] -> opcode groups
    out_level: dict[int, int]
    out_pos: dict[int, int]
    max_group: int
    n_gates: int


#: circuit -> (topo_order identity, schedule); the topo cache object is
#: invalidated whenever the circuit mutates, so comparing its identity is
#: a precise staleness check for the compiled schedule.
_SCHEDULE_CACHE: "weakref.WeakKeyDictionary[Circuit, tuple[object, LevelSchedule]]"
_SCHEDULE_CACHE = weakref.WeakKeyDictionary()


def compile_schedule(circuit: Circuit) -> LevelSchedule:
    """Compile (or fetch the cached) level schedule for ``circuit``."""
    order = circuit.topo_order()
    cached = _SCHEDULE_CACHE.get(circuit)
    if cached is not None and cached[0] is order:
        return cached[1]

    out_pos = {gate.out: pos for pos, gate in enumerate(order)}
    out_level: dict[int, int] = {}
    level_groups: list[tuple[LevelGroup, ...]] = []
    max_group = 0
    for level, gates in enumerate(circuit.topo_levels()):
        by_type: dict[GateType, list] = {}
        for gate in gates:
            out_level[gate.out] = level
            by_type.setdefault(gate.gtype, []).append(gate)
        groups = []
        # deterministic group order within the level (value is the enum's
        # stable string name)
        for gtype in sorted(by_type, key=lambda t: t.value):
            members = by_type[gtype]
            max_group = max(max_group, len(members))
            arity = gtype.arity
            groups.append(
                LevelGroup(
                    gtype=gtype,
                    out=np.array([g.out for g in members], dtype=np.intp),
                    a=np.array([g.ins[0] for g in members], dtype=np.intp),
                    b=(
                        np.array([g.ins[1] for g in members], dtype=np.intp)
                        if arity > 1
                        else None
                    ),
                    c=(
                        np.array([g.ins[2] for g in members], dtype=np.intp)
                        if arity > 2
                        else None
                    ),
                )
            )
        level_groups.append(tuple(groups))

    schedule = LevelSchedule(
        groups=tuple(level_groups),
        out_level=out_level,
        out_pos=out_pos,
        max_group=max_group,
        n_gates=len(order),
    )
    _SCHEDULE_CACHE[circuit] = (order, schedule)
    return schedule


def faults_by_level(
    schedule: LevelSchedule, fault_map: Mapping[int, Transform]
) -> dict[int, list[tuple[int, int, Transform]]]:
    """Group gate-output transforms by producing level, program-ordered.

    Nets in ``fault_map`` that no combinational gate drives (source nets,
    unknown nets) are ignored here — exactly like the reference
    interpreter's per-gate ``fault_map.get(out)`` probe.  Shared by the
    levelized and compiled kernels, which both replay transforms at level
    boundaries in reference program order.
    """
    out_level = schedule.out_level
    out_pos = schedule.out_pos
    per_level: dict[int, list[tuple[int, int, Transform]]] = {}
    for net, transform in fault_map.items():
        level = out_level.get(net)
        if level is not None:
            per_level.setdefault(level, []).append((out_pos[net], net, transform))
    for entries in per_level.values():
        entries.sort()
    return per_level


class LevelizedKernel:
    """Executes a :class:`LevelSchedule` over a packed value matrix.

    One instance per simulator: it owns three scratch buffers sized
    ``(max_group, n_words)`` that every group gathers its operands into and
    computes on in place, so the cycle loop never allocates.
    """

    def __init__(self, schedule: LevelSchedule, n_words: int) -> None:
        self.schedule = schedule
        rows = max(schedule.max_group, 1)
        self._ga = np.empty((rows, n_words), dtype=np.uint64)
        self._gb = np.empty((rows, n_words), dtype=np.uint64)
        self._gt = np.empty((rows, n_words), dtype=np.uint64)

    def run(
        self, vals: np.ndarray, fault_map: Mapping[int, Transform] | None = None
    ) -> None:
        """Evaluate every level in order, applying ``fault_map`` transforms.

        Source-net transforms are the caller's job (the simulator applies
        them before the program runs, same as the reference path); this
        method handles the gate-output transforms.
        """
        faulted = faults_by_level(self.schedule, fault_map) if fault_map else None
        for level, groups in enumerate(self.schedule.groups):
            for group in groups:
                self._eval_group(group, vals)
            if faulted:
                for _, net, transform in faulted.get(level, ()):
                    vals[net] = transform(vals[net])

    def _eval_group(self, group: LevelGroup, vals: np.ndarray) -> None:
        # Operands are gathered into the preallocated scratch rows and the
        # ufuncs compute in place there, so a cycle allocates nothing: at
        # campaign batches a group's operands are hundreds of KiB, and a
        # fresh array that size is a fresh mmap whose pages fault on first
        # touch.  ``ndarray.take`` with ``mode="clip"`` writes straight into
        # ``out`` (the default mode buffers) and skips ``np.take``'s Python
        # wrapper, which at batch 64 costs more than the gather.
        n = len(group.out)
        a = vals.take(group.a, 0, self._ga[:n], "clip")
        gtype = group.gtype
        if gtype is GateType.BUF:
            vals[group.out] = a
            return
        if gtype is GateType.NOT:
            vals[group.out] = np.bitwise_not(a, out=a)
            return
        b = vals.take(group.b, 0, self._gb[:n], "clip")
        if gtype is GateType.MUX:
            # out = d0 ^ (sel & (d0 ^ d1)) — three ufuncs instead of the
            # four of (sel & d1) | (~sel & d0)
            t = vals.take(group.c, 0, self._gt[:n], "clip")
            np.bitwise_xor(t, b, out=t)
            np.bitwise_and(t, a, out=t)
            np.bitwise_xor(t, b, out=t)
            vals[group.out] = t
            return
        if gtype is GateType.XOR:
            t = np.bitwise_xor(a, b, out=a)
        elif gtype is GateType.AND:
            t = np.bitwise_and(a, b, out=a)
        elif gtype is GateType.OR:
            t = np.bitwise_or(a, b, out=a)
        elif gtype is GateType.XNOR:
            t = np.bitwise_xor(a, b, out=a)
            np.bitwise_not(t, out=t)
        elif gtype is GateType.NAND:
            t = np.bitwise_and(a, b, out=a)
            np.bitwise_not(t, out=t)
        elif gtype is GateType.NOR:
            t = np.bitwise_or(a, b, out=a)
            np.bitwise_not(t, out=t)
        else:  # pragma: no cover - schedule only contains known cells
            raise ValueError(f"levelized kernel cannot evaluate {gtype.name}")
        vals[group.out] = t
