"""Bit-parallel, cycle-accurate gate-level simulation.

Every net holds a packed vector of ``batch`` independent one-bit lanes
(64 lanes per ``uint64`` word), so one numpy bitwise op evaluates a gate for
the whole batch at once.  This is what makes the paper's fault campaigns —
80,000 randomised encryptions of a ~2,500-gate protected PRESENT-80 netlist —
run in seconds of pure Python.

Fault injection is a first-class citizen of the evaluation loop: a *fault
provider* maps a clock cycle to ``{net: (keep, flip)}``, two ``(n_words,)``
uint64 lane masks per net, and the net's packed value becomes
``(v & keep) ^ flip`` the moment the net is produced (source nets at the
start of the cycle, gate outputs right after evaluation).  This mirrors
VerFI's semantics: the corrupted value is seen by the entire fanout,
including flip-flop D pins, within that cycle, and a fault on a primary
input or constant lasts only for that cycle.  Inputs are packed rows the
caller writes between evaluations; a free-running source such as the TRNG
of the dynamic-λ countermeasures is one row written before each cycle
(:meth:`repro.countermeasures.base.ProtectedDesign.clock`).

Three interchangeable evaluation kernels implement those semantics behind
one contract (:class:`Kernel`): the per-gate :class:`ReferenceKernel` in
this module (the executable spec), the levelized opcode-batched kernel of
:mod:`repro.netlist.levelized` (the fast default), and the ahead-of-time
generated-code kernel of :mod:`repro.netlist.compiled` (the fastest),
selectable via ``Simulator(..., backend=...)`` or the ``REPRO_SIM_BACKEND``
environment variable.  They are bit-exact against each other — enforced by
the three-way differential property suite in
``tests/test_simulator_equivalence.py``.

Each kernel owns its value matrix and a net→row map (the compiled kernel
stores rows in a program-order *permutation* of the net ids, so group
outputs are contiguous and scatters vanish); the simulator routes every
net-indexed access — ports, faults, readout — through that map, keeping
net ids the only externally visible addressing scheme for all backends.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Mapping, Sequence
from typing import Protocol

import numpy as np

from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.netlist.levelized import LevelizedKernel
from repro.utils.bits import (
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
    "Kernel",
    "ReferenceKernel",
    "Simulator",
    "resolve_backend",
]

#: selectable evaluation kernels: the levelized opcode-batched kernel (the
#: fast path), the AOT-generated straight-line kernel (the fastest path)
#: and the per-gate reference interpreter (the semantic oracle)
BACKENDS = ("levelized", "compiled", "reference")

#: default backend; overridable process-wide via ``REPRO_SIM_BACKEND``
DEFAULT_BACKEND = "levelized"

_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)

#: shared empty fault map for fault-free cycles — keeps the steady-state
#: loop literally allocation-free (asserted in tests/test_compiled_kernel.py)
_NO_FAULTS: Mapping[int, tuple[np.ndarray, np.ndarray]] = {}


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

    def for_cycle(self, cycle: int) -> Mapping[int, tuple[np.ndarray, np.ndarray]]:
        """``{net: (keep, flip)}`` for clock cycle ``cycle``: each listed
        net's packed value becomes ``(v & keep) ^ flip``."""
        ...  # pragma: no cover - protocol


class Kernel(Protocol):
    """The contract every backend implements for :class:`Simulator`.

    ``vals`` is the ``(num_nets, n_words)`` uint64 value matrix and
    ``row_of`` maps each net id to its row in it (a permutation of the net
    ids).  :meth:`run` evaluates every combinational gate, applying the
    ``(keep, flip)`` masks ``fault_map`` holds for a gate's output net in
    place right after that gate (entries for other nets are ignored), and
    :meth:`latch` clocks every DFF (Q ← D).  Source nets are the
    simulator's: kernels never write input, constant or DFF-output rows
    except through :meth:`latch`.
    """

    vals: np.ndarray
    row_of: np.ndarray

    def run(self, fault_map: Mapping[int, tuple[np.ndarray, np.ndarray]]) -> None:
        ...  # pragma: no cover - protocol

    def latch(self) -> None:
        ...  # pragma: no cover - protocol


class ReferenceKernel:
    """The per-gate interpreter: the executable definition of the semantics.

    One numpy op per gate per cycle, in topological order, with each gate's
    output masks applied the moment the gate is evaluated.  Slow by
    design and the oracle the fast kernels are differentially tested
    against.  Rows are net ids.
    """

    def __init__(self, circuit: Circuit, n_words: int) -> None:
        self.gates = circuit.topo_order()
        self.row_of = np.arange(circuit.num_nets, dtype=np.intp)
        self.vals = np.zeros((circuit.num_nets, n_words), dtype=np.uint64)
        dffs = circuit.dffs()
        self._dff_d = np.array([g.ins[0] for g in dffs], dtype=np.intp)
        self._dff_q = np.array([g.out for g in dffs], dtype=np.intp)

    def run(self, fault_map: Mapping[int, tuple[np.ndarray, np.ndarray]]) -> None:
        vals = self.vals
        for gate in self.gates:
            gtype, ins, out = gate.gtype, gate.ins, gate.out
            a = vals[ins[0]]
            if gtype is GateType.MUX:  # (sel, d0, d1); the commonest cell
                vals[out] = (a & vals[ins[2]]) | (~a & vals[ins[1]])
            elif gtype is GateType.XOR:
                np.bitwise_xor(a, vals[ins[1]], out=vals[out])
            elif gtype is GateType.AND:
                np.bitwise_and(a, vals[ins[1]], out=vals[out])
            elif gtype is GateType.OR:
                np.bitwise_or(a, vals[ins[1]], out=vals[out])
            elif gtype is GateType.NOT:
                np.bitwise_not(a, out=vals[out])
            elif gtype is GateType.XNOR:
                np.bitwise_not(a ^ vals[ins[1]], out=vals[out])
            elif gtype is GateType.NAND:
                np.bitwise_not(a & vals[ins[1]], out=vals[out])
            elif gtype is GateType.NOR:
                np.bitwise_not(a | vals[ins[1]], out=vals[out])
            else:  # BUF
                vals[out] = a
            masks = fault_map.get(out)
            if masks is not None:
                v = vals[out]
                v &= masks[0]
                v ^= masks[1]

    def latch(self) -> None:
        if len(self._dff_q):
            self.vals[self._dff_q] = self.vals[self._dff_d]


def _compiled_kernel(circuit: Circuit, n_words: int) -> Kernel:
    # imported on first use, so processes that never select it skip the import
    from repro.netlist.compiled import CompiledKernel, compile_program

    return CompiledKernel(compile_program(circuit), n_words)


#: backend -> kernel factory ``(circuit, n_words)``
_KERNELS: dict[str, Callable[[Circuit, int], Kernel]] = {
    "levelized": LevelizedKernel,
    "compiled": _compiled_kernel,
    "reference": ReferenceKernel,
}


class Simulator:
    """Evaluate a :class:`Circuit` for a batch of independent runs.

    Parameters
    ----------
    circuit:
        The netlist to simulate.  The chosen kernel prepares it once, at
        construction (levelized and compiled cache that per circuit).
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
        :class:`ReferenceKernel`, which is the executable definition of
        the simulation semantics and the oracle the fast kernels are
        differentially tested against.  ``None`` honours the
        ``REPRO_SIM_BACKEND`` environment variable.  All backends are
        bit-exact for every net, batch size and fault map: the simulator
        drives each through the one :class:`Kernel` contract (the instance
        is :attr:`kernel`), so ports, readout and source-net faults have a
        single implementation.

    Fault contract (shared by all backends)
    ---------------------------------------
    A faulted net's value becomes ``(v & keep) ^ flip``.  A pair reads only
    its own net's row, so only *when* it applies matters.  Within one
    :meth:`eval_comb` call:

    1. masks on *source* nets (primary inputs, constants, DFF outputs) are
       applied to the driven/latched values.  A masked source row is
       restored to its unmasked value at the start of the next evaluation
       (or by the next port write or :meth:`reset`), and a masked DFF
       output also by the next latch, which overwrites it; so a fault on
       an input or constant lasts exactly its cycle, and a repeated
       evaluation of the same cycle applies a source mask once;
    2. gates evaluate, and a faulted gate output's masks are applied the
       moment that gate's value is produced — before any consumer reads
       it — so faults along one path all take effect.

    A net that is neither a source nor a gate output is not a net of the
    circuit, and a fault on it raises :class:`ValueError`.  Masks on a
    DFF's D-pin net are a fault on whatever gate drives that net, and are
    therefore seen both by that net's combinational fanout and by the
    flip-flop latching at the next :meth:`step`.

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

        self.kernel = _KERNELS[self.backend](circuit, self.n_words)
        self._vals = self.kernel.vals
        row_of = self._row_of = self.kernel.row_of

        # source net -> (row, holds); ``holds`` marks inputs and constants,
        # whose rows keep their value across cycles (DFF rows are rewritten
        # by every latch)
        self._sources: dict[int, tuple[int, bool]] = {}
        ones: list[int] = []  # nets that power on all-ones
        for g in circuit.gates:
            if g.gtype is GateType.DFF:
                self._sources[g.out] = (int(row_of[g.out]), False)
                if g.init:
                    ones.append(g.out)
            elif not g.gtype.is_combinational:
                self._sources[g.out] = (int(row_of[g.out]), True)
                if g.gtype is GateType.CONST1:
                    ones.append(g.out)
        self._ones_rows = self._net_rows(ones)
        # (row, unmasked value) of the source rows the last evaluation
        # masked (contract step 1): inputs and constants, then DFF outputs,
        # whose restore the next latch drops
        self._masked_inputs: list[tuple[int, np.ndarray]] = []
        self._masked_dffs: list[tuple[int, np.ndarray]] = []
        self._port_rows: dict[str, np.ndarray] = {}
        self.reset()

    # ------------------------------------------------------------ lifecycle

    def reset(self) -> None:
        """Return to power-on state: cycle 0, DFFs at init, inputs cleared."""
        self.cycle = 0
        self._masked_inputs.clear()
        self._masked_dffs.clear()
        self._vals.fill(0)
        self._vals[self._ones_rows] = _ONES

    def _restore_sources(self) -> None:
        """Undo the last evaluation's masks on source rows."""
        for masked in (self._masked_inputs, self._masked_dffs):
            for row, unmasked in masked:
                self._vals[row] = unmasked
            masked.clear()

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
        self._restore_sources()
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

    def broadcast_input(self, name: str, value: int) -> None:
        """Drive an input port with the same integer in every lane."""
        self._restore_sources()
        for i, row in enumerate(self._net_rows(self._input_nets(name))):
            self._vals[row].fill(_ONES if (value >> i) & 1 else 0)

    def _input_nets(self, name: str) -> list[int]:
        try:
            return self.circuit.inputs[name]
        except KeyError:
            raise KeyError(
                f"no input port {name!r}; ports: {sorted(self.circuit.inputs)}"
            ) from None

    def _net_rows(self, nets: Sequence[int]) -> np.ndarray:
        """Matrix rows for the given net ids under the active kernel."""
        return self._row_of[np.array(list(nets), dtype=np.intp)]

    # ------------------------------------------------------------ evaluation

    def eval_comb(self) -> None:
        """Evaluate the combinational program for the current cycle.

        Follows the fault contract in the class docstring: source-net
        masks first, then the kernel with each gate output's masks applied
        as that gate is produced, so the corrupted value propagates exactly
        as a physical glitch would.
        """
        self._restore_sources()
        faults = self.faults
        fault_map = faults.for_cycle(self.cycle) if faults is not None else _NO_FAULTS
        for net, (keep, flip) in fault_map.items():
            source = self._sources.get(net)
            if source is None:
                # a gate output, which the kernel masks as it is produced
                if self.circuit.driver_of(net) is None:
                    raise ValueError(
                        f"fault on net {net!r}, not a net of {self.circuit!r}"
                    )
                continue
            row, holds = source
            v = self._vals[row]
            (self._masked_inputs if holds else self._masked_dffs).append(
                (row, v.copy())
            )
            v &= keep
            v ^= flip
        self.kernel.run(fault_map)

    def step(self) -> None:
        """One full clock cycle: evaluate logic, then latch every DFF."""
        self.eval_comb()
        self.kernel.latch()
        self._masked_dffs.clear()
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
        return self.get_nets_bits(self._output_nets(name))

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
