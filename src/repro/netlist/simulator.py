"""Bit-parallel, cycle-accurate gate-level simulation.

Every net holds a packed vector of ``batch`` independent one-bit lanes
(64 lanes per ``uint64`` word), so one numpy bitwise op evaluates a gate for
the whole batch at once.  This is what makes the paper's fault campaigns —
80,000 randomised encryptions of a ~2,500-gate protected PRESENT-80 netlist —
run in seconds of pure Python.

Fault injection is a first-class citizen of the evaluation loop: a *fault
provider* maps a clock cycle to ``{net: transform}`` entries, and the
simulator applies each transform to the net's packed value at the moment the
net is produced (source nets at the start of the cycle, gate outputs right
after evaluation).  This mirrors VerFI's semantics: the corrupted value is
seen by the entire fanout, including flip-flop D pins, within that cycle.

Three interchangeable evaluation kernels implement those semantics: the
per-gate *reference* interpreter in this module (the executable spec),
the levelized opcode-batched kernel of :mod:`repro.netlist.levelized`
(the fast default), and the ahead-of-time generated-code kernel of
:mod:`repro.netlist.compiled` (the fastest), selectable via
``Simulator(..., backend=...)`` or the ``REPRO_SIM_BACKEND`` environment
variable.  They are bit-exact against each other — enforced by the
three-way differential property suite in
``tests/test_simulator_equivalence.py``.

The compiled kernel stores net values in a program-order *permutation* of
the net ids (so group outputs are contiguous and scatters vanish); the
simulator therefore routes every net-indexed access — ports, faults,
readout — through the active kernel's row map, keeping net ids the only
externally visible addressing scheme for all backends.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Mapping, Sequence
from typing import Protocol

import numpy as np

from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.utils.bits import (
    bytes_to_bits,
    bytes_to_ints,
    pack_bits,
    unpack_bits,
    words_for,
    words_to_bytes,
)

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "FaultProvider",
    "Simulator",
    "resolve_backend",
]

Transform = Callable[[np.ndarray], np.ndarray]

#: selectable evaluation kernels: the per-gate reference interpreter (the
#: semantic oracle), the levelized opcode-batched kernel (the fast path),
#: and the AOT-generated straight-line kernel (the fastest path)
BACKENDS = ("levelized", "compiled", "reference")

#: default backend; overridable process-wide via ``REPRO_SIM_BACKEND``
DEFAULT_BACKEND = "levelized"


#: shared empty fault map for fault-free cycles — keeps the steady-state
#: loop literally allocation-free (asserted in tests/test_compiled_kernel.py)
_NO_FAULTS: Mapping[int, "Transform"] = {}


def resolve_backend(backend: str | None) -> str:
    """Normalise a backend selection (None → env override → default).

    An unknown name raises immediately — including one coming from the
    ``REPRO_SIM_BACKEND`` environment variable, which the error names so a
    typo'd override fails fast instead of silently falling back (or blowing
    up later inside a pool worker).
    """
    from_env = False
    if backend is None:
        env = os.environ.get("REPRO_SIM_BACKEND", "").strip()
        backend, from_env = (env, True) if env else (DEFAULT_BACKEND, False)
    if backend not in BACKENDS:
        source = " (from REPRO_SIM_BACKEND)" if from_env else ""
        raise ValueError(
            f"unknown simulator backend {backend!r}{source}; "
            f"choose from {BACKENDS}"
        )
    return backend


class FaultProvider(Protocol):
    """Minimal interface the simulator needs from a fault injector."""

    def for_cycle(self, cycle: int) -> Mapping[int, Transform]:
        """Transforms to apply to net values during clock cycle ``cycle``."""
        ...  # pragma: no cover - protocol


# opcode table: compact ints so the hot loop dispatches on an if-chain
_OP_BUF = 0
_OP_NOT = 1
_OP_AND = 2
_OP_OR = 3
_OP_NAND = 4
_OP_NOR = 5
_OP_XOR = 6
_OP_XNOR = 7
_OP_MUX = 8

_OPCODE: dict[GateType, int] = {
    GateType.BUF: _OP_BUF,
    GateType.NOT: _OP_NOT,
    GateType.AND: _OP_AND,
    GateType.OR: _OP_OR,
    GateType.NAND: _OP_NAND,
    GateType.NOR: _OP_NOR,
    GateType.XOR: _OP_XOR,
    GateType.XNOR: _OP_XNOR,
    GateType.MUX: _OP_MUX,
}


class Simulator:
    """Evaluate a :class:`Circuit` for a batch of independent runs.

    Parameters
    ----------
    circuit:
        The netlist to simulate.  It is compiled (topologically ordered and
        lowered to an opcode program) once, at construction.
    batch:
        Number of independent runs evaluated in parallel.
    faults:
        Optional :class:`FaultProvider`; may also be swapped later via
        :attr:`faults` (e.g. between campaign phases).
    backend:
        ``"levelized"`` (default) evaluates the circuit with the
        opcode-batched level kernel (:mod:`repro.netlist.levelized`);
        ``"compiled"`` runs the ahead-of-time generated straight-line
        kernel (:mod:`repro.netlist.compiled`), the fastest path at
        campaign batch sizes; ``"reference"`` uses the per-gate
        interpreter below, which is the executable definition of the
        simulation semantics and the oracle the fast kernels are
        differentially tested against.  ``None`` honours the
        ``REPRO_SIM_BACKEND`` environment variable.  All backends are
        bit-exact for every net, batch size and fault map.

    Fault-ordering contract (shared by all backends)
    ------------------------------------------------
    Within one :meth:`eval_comb` call, effects apply in exactly this
    order:

    1. input schedules (:meth:`set_input_schedule`) drive their ports;
    2. fault transforms on *source* nets (primary inputs, constants, DFF
       outputs) are applied to the scheduled/latched values;
    3. gates evaluate in program order, and a faulted gate output's
       transform is applied the moment that gate's value is produced —
       before any consumer reads it — so multiple faults along one path
       compose in program order.

    A transform on a DFF's D-pin net is a fault on whatever gate drives
    that net, and is therefore seen both by that net's combinational
    fanout and by the flip-flop latching at the next :meth:`step`.

    Usage::

        sim = Simulator(circ, batch=1000)
        sim.set_input_ints("plaintext", ptexts)
        sim.set_input_ints("key", [key] * 1000)
        sim.run(31)
        cts = sim.get_output_ints("ciphertext")
    """

    def __init__(
        self,
        circuit: Circuit,
        batch: int,
        *,
        faults: FaultProvider | None = None,
        backend: str | None = None,
    ) -> None:
        circuit.validate()
        self.circuit = circuit
        self.batch = batch
        self.n_words = words_for(batch)
        self.faults = faults
        self.backend = resolve_backend(backend)
        self.cycle = 0

        # opcode program: (op, out, in0, in1, in2) — the reference
        # interpreter's representation; the fast kernels compile their own
        self._program: list[tuple[int, int, int, int, int]] = []
        if self.backend == "reference":
            for gate in circuit.topo_order():
                op = _OPCODE[gate.gtype]
                a = gate.ins[0]
                b = gate.ins[1] if len(gate.ins) > 1 else 0
                c = gate.ins[2] if len(gate.ins) > 2 else 0
                self._program.append((op, gate.out, a, b, c))

        dffs = circuit.dffs()
        self._dff_d = np.array([g.ins[0] for g in dffs], dtype=np.intp)
        self._dff_q = np.array([g.out for g in dffs], dtype=np.intp)
        self._dff_init = np.array([g.init for g in dffs], dtype=np.uint64)
        self._const0_nets = [
            g.out for g in circuit.gates if g.gtype is GateType.CONST0
        ]
        self._const1_nets = [
            g.out for g in circuit.gates if g.gtype is GateType.CONST1
        ]
        self._source_nets = sorted(
            set(self._const0_nets)
            | set(self._const1_nets)
            | {g.out for g in circuit.gates if g.gtype is GateType.INPUT}
            | set(int(q) for q in self._dff_q)
        )

        # The active kernel, and the net-id -> matrix-row map when the
        # kernel permutes storage (None = identity, rows are net ids).
        self._kernel = None
        self._compiled = None
        self._row_of: np.ndarray | None = None
        self._port_rows: dict[str, np.ndarray] = {}
        if self.backend == "levelized":
            from repro.netlist.levelized import LevelizedKernel, compile_schedule

            self._kernel = LevelizedKernel(compile_schedule(circuit), self.n_words)
            self._vals = np.zeros((circuit.num_nets, self.n_words), dtype=np.uint64)
        elif self.backend == "compiled":
            from repro.netlist.compiled import CompiledKernel, compile_program

            self._compiled = CompiledKernel(compile_program(circuit), self.n_words)
            self._kernel = self._compiled
            self._row_of = self._compiled.row_of
            # adopt the kernel's program-order matrix as the value store
            self._vals = self._compiled.vals
        else:
            self._vals = np.zeros((circuit.num_nets, self.n_words), dtype=np.uint64)

        if self._row_of is None:
            self._dff_q_rows = self._dff_q
            self._const1_rows = np.array(self._const1_nets, dtype=np.intp)
        else:
            self._dff_q_rows = self._row_of[self._dff_q]
            self._const1_rows = self._row_of[
                np.array(self._const1_nets, dtype=np.intp)
            ]

        self._schedules: dict[str, object] = {}
        self.reset()

    # ------------------------------------------------------------ lifecycle

    def reset(self) -> None:
        """Return to power-on state: cycle 0, DFFs at init, inputs cleared."""
        self.cycle = 0
        self._vals.fill(0)
        ones = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
        for row in self._const1_rows:
            self._vals[row].fill(ones)
        if len(self._dff_q):
            init_rows = np.where(self._dff_init[:, None].astype(bool), ones, 0)
            self._vals[self._dff_q_rows] = init_rows.astype(np.uint64)

    # --------------------------------------------------------------- inputs

    def set_input_words(self, name: str, words: np.ndarray) -> None:
        """Drive an input port from ``(width, n_words)`` uint64 packed rows."""
        rows = self._port_rows.get(name)
        if rows is None:
            rows = self._net_rows(self._input_nets(name))
            self._port_rows[name] = rows
        if words.shape != (len(rows), self.n_words):
            raise ValueError(
                f"input {name!r} expects packed rows of shape "
                f"{(len(rows), self.n_words)}, got {words.shape}"
            )
        self._vals[rows] = words

    def set_input_bits(self, name: str, bits: np.ndarray) -> None:
        """Drive an input port from a ``(batch, width)`` 0/1 matrix."""
        width = len(self._input_nets(name))
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape != (self.batch, width):
            raise ValueError(
                f"input {name!r} expects shape {(self.batch, width)}, "
                f"got {bits.shape}"
            )
        self.set_input_words(name, pack_bits(bits))

    def set_input_ints(self, name: str, values: Sequence[int]) -> None:
        """Drive an input port with one integer per run (LSB-first bits)."""
        nets = self._input_nets(name)
        if len(values) != self.batch:
            raise ValueError(f"expected {self.batch} values, got {len(values)}")
        from repro.utils.bits import ints_to_bits

        self.set_input_bits(name, ints_to_bits(values, len(nets)))

    def set_input_schedule(self, name: str, provider) -> None:
        """Drive an input port with fresh values every clock cycle.

        ``provider(cycle)`` returns either ``(width, n_words)`` uint64
        packed rows (what :func:`repro.rng.random_words` draws; driven as
        they are) or a ``(batch, width)`` 0/1 matrix of any other dtype
        (packed first).  It is consulted at the start of each combinational
        evaluation.  This models inputs fed by a free-running source — in
        this repository, the TRNG streaming fresh λ bits to the per-round /
        per-S-box countermeasure variants.
        """
        self._input_nets(name)  # validate the port exists
        self._schedules[name] = provider

    def clear_input_schedule(self, name: str) -> None:
        """Remove a per-cycle driver installed by :meth:`set_input_schedule`."""
        self._schedules.pop(name, None)

    def broadcast_input(self, name: str, value: int) -> None:
        """Drive an input port with the same integer in every lane."""
        nets = self._input_nets(name)
        ones = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
        row_of = self._row_of
        for i, net in enumerate(nets):
            row = net if row_of is None else row_of[net]
            self._vals[row].fill(ones if (value >> i) & 1 else 0)

    def _input_nets(self, name: str) -> list[int]:
        try:
            return self.circuit.inputs[name]
        except KeyError:
            raise KeyError(
                f"no input port {name!r}; ports: {sorted(self.circuit.inputs)}"
            ) from None

    def _net_rows(self, nets: Sequence[int]) -> np.ndarray:
        """Matrix rows for the given net ids under the active kernel."""
        idx = np.array(list(nets), dtype=np.intp)
        return idx if self._row_of is None else self._row_of[idx]

    # ------------------------------------------------------------ evaluation

    def eval_comb(self) -> None:
        """Evaluate the combinational program for the current cycle.

        Follows the fault-ordering contract in the class docstring: input
        schedules first, then source-net transforms, then the program
        with gate-output transforms applied in program order, so the
        corrupted value propagates exactly as a physical glitch would.
        """
        for name, provider in self._schedules.items():
            value = provider(self.cycle)
            if value.dtype == np.uint64:
                self.set_input_words(name, value)
            else:
                self.set_input_bits(name, value)
        vals = self._vals
        fault_map: Mapping[int, Transform] = (
            self.faults.for_cycle(self.cycle)
            if self.faults is not None
            else _NO_FAULTS
        )
        if fault_map:
            row_of = self._row_of
            for net in self._source_nets:
                transform = fault_map.get(net)
                if transform is not None:
                    row = net if row_of is None else row_of[net]
                    vals[row] = transform(vals[row])
        if self._kernel is not None:
            self._kernel.run(vals, fault_map if fault_map else None)
        elif fault_map:
            self._run_program_faulty(fault_map)
        else:
            self._run_program_clean()

    def _run_program_clean(self) -> None:
        vals = self._vals
        for op, out, a, b, c in self._program:
            if op == _OP_XOR:
                np.bitwise_xor(vals[a], vals[b], out=vals[out])
            elif op == _OP_AND:
                np.bitwise_and(vals[a], vals[b], out=vals[out])
            elif op == _OP_OR:
                np.bitwise_or(vals[a], vals[b], out=vals[out])
            elif op == _OP_NOT:
                np.bitwise_not(vals[a], out=vals[out])
            elif op == _OP_XNOR:
                np.bitwise_not(vals[a] ^ vals[b], out=vals[out])
            elif op == _OP_NAND:
                np.bitwise_not(vals[a] & vals[b], out=vals[out])
            elif op == _OP_NOR:
                np.bitwise_not(vals[a] | vals[b], out=vals[out])
            elif op == _OP_MUX:
                sel = vals[a]
                vals[out] = (sel & vals[c]) | (~sel & vals[b])
            else:  # _OP_BUF
                vals[out] = vals[a]

    def _run_program_faulty(self, fault_map: Mapping[int, Transform]) -> None:
        vals = self._vals
        for op, out, a, b, c in self._program:
            if op == _OP_XOR:
                np.bitwise_xor(vals[a], vals[b], out=vals[out])
            elif op == _OP_AND:
                np.bitwise_and(vals[a], vals[b], out=vals[out])
            elif op == _OP_OR:
                np.bitwise_or(vals[a], vals[b], out=vals[out])
            elif op == _OP_NOT:
                np.bitwise_not(vals[a], out=vals[out])
            elif op == _OP_XNOR:
                np.bitwise_not(vals[a] ^ vals[b], out=vals[out])
            elif op == _OP_NAND:
                np.bitwise_not(vals[a] & vals[b], out=vals[out])
            elif op == _OP_NOR:
                np.bitwise_not(vals[a] | vals[b], out=vals[out])
            elif op == _OP_MUX:
                sel = vals[a]
                vals[out] = (sel & vals[c]) | (~sel & vals[b])
            else:  # _OP_BUF
                vals[out] = vals[a]
            transform = fault_map.get(out)
            if transform is not None:
                vals[out] = transform(vals[out])

    def step(self) -> None:
        """One full clock cycle: evaluate logic, then latch every DFF."""
        self.eval_comb()
        if self._compiled is not None:
            self._compiled.latch()
        elif len(self._dff_q):
            self._vals[self._dff_q] = self._vals[self._dff_d]
        self.cycle += 1

    def run(self, cycles: int) -> None:
        """Advance ``cycles`` clock cycles."""
        for _ in range(cycles):
            self.step()

    # -------------------------------------------------------------- readout

    def get_nets_packed(self, nets: Sequence[int]) -> np.ndarray:
        """Raw packed rows for arbitrary nets — ``(len(nets), n_words)``.

        Values reflect the last :meth:`eval_comb`; call it (or :meth:`step`)
        first if inputs changed.
        """
        return self._vals[self._net_rows(nets)].copy()

    def get_nets_bits(self, nets: Sequence[int]) -> np.ndarray:
        """Net values as a ``(batch, len(nets))`` 0/1 matrix."""
        return unpack_bits(self._vals[self._net_rows(nets)], self.batch)

    def get_output_bytes(self, name: str) -> np.ndarray:
        """Output port as ``(batch, ceil(width / 8))`` byte rows (LSB-first),
        read out of the packed lanes without a bit matrix."""
        rows = self._net_rows(self._output_nets(name))
        return words_to_bytes(self._vals[rows], self.batch)

    def get_output_bits(self, name: str) -> np.ndarray:
        """Output port as a ``(batch, width)`` 0/1 matrix (LSB-first)."""
        width = len(self._output_nets(name))
        return bytes_to_bits(self.get_output_bytes(name), width)

    def get_output_ints(self, name: str) -> list[int]:
        """Output port as one integer per run."""
        return bytes_to_ints(self.get_output_bytes(name))

    def _output_nets(self, name: str) -> list[int]:
        try:
            return self.circuit.outputs[name]
        except KeyError:
            raise KeyError(
                f"no output port {name!r}; ports: {sorted(self.circuit.outputs)}"
            ) from None
