"""Unit tests for the compiled backend's codegen, caching and buffer plan.

Three properties beyond the differential suite
(``test_simulator_equivalence.py``):

- the per-Circuit program cache behaves like the schedule cache it sits
  next to — hits across simulators/shards in one process, independent
  entries per Circuit object, weakref release after gc, staleness on
  circuit mutation;
- the steady-state fault-free cycle is allocation-free: once warmed up,
  ``Simulator.step`` must not create a single new numpy array (the whole
  point of the preallocated buffer plan);
- the generated source is well-formed and the layout invariants hold
  (row map is a permutation; DFF outputs contiguous);
- codegen scans the circuit's DFF list a bounded number of times, not
  once per flip-flop.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.netlist.builder import CircuitBuilder
from repro.netlist.circuit import Circuit
from repro.netlist.compiled import (
    _PROGRAM_CACHE,
    CompiledKernel,
    compile_program,
)
from repro.netlist.gates import GateType
from repro.netlist.simulator import Simulator

from tests.test_simulator_equivalence import random_sequential_circuit


def _toy_circuit():
    b = CircuitBuilder()
    x = b.input("x", 4)
    q, connect = b.register(2)
    n0 = b.xor(x[0], x[1])
    n1 = b.nand(x[2], q[0])
    n2 = b.mux(n1, n0, x[3])
    connect([n2, b.not_(q[1])])
    b.output("y", [n0, n1, n2, q[0], q[1]])
    return b.circuit


class TestProgramCache:
    def test_cache_hit_across_simulators_in_one_process(self):
        """Shard workers rebuild Simulators on one Circuit: codegen once."""
        circ = _toy_circuit()
        program = compile_program(circ)
        assert compile_program(circ) is program
        # two independent simulators (≈ two shards) share the program and
        # code object but own distinct value matrices
        s1 = Simulator(circ, batch=64, backend="compiled")
        s2 = Simulator(circ, batch=128, backend="compiled")
        assert s1._compiled.program is program
        assert s2._compiled.program is program
        assert s1._compiled.vals is not s2._compiled.vals

    def test_cache_independent_across_circuits(self):
        c1, c2 = _toy_circuit(), _toy_circuit()
        p1, p2 = compile_program(c1), compile_program(c2)
        assert p1 is not p2
        assert compile_program(c1) is p1
        assert compile_program(c2) is p2

    def test_cache_invalidated_by_circuit_mutation(self):
        c = _toy_circuit()
        p1 = compile_program(c)
        x_nets = c.inputs["x"]
        c.add_gate(GateType.AND, (x_nets[0], x_nets[1]))
        p2 = compile_program(c)
        assert p2 is not p1
        assert len(p2.row_of) == len(p1.row_of) + 1

    def test_cache_released_after_gc(self):
        c = _toy_circuit()
        compile_program(c)
        ref = weakref.ref(c)
        assert c in _PROGRAM_CACHE
        del c
        gc.collect()
        assert ref() is None  # the cache must not keep the circuit alive


class TestLayoutInvariants:
    @pytest.mark.parametrize("seed", range(10))
    def test_row_map_is_permutation_and_q_block_contiguous(self, seed):
        rng = np.random.default_rng(seed)
        circ = random_sequential_circuit(rng, n_gates=int(rng.integers(10, 60)))
        program = compile_program(circ)
        rows = np.sort(program.row_of)
        np.testing.assert_array_equal(rows, np.arange(circ.num_nets))
        np.testing.assert_array_equal(
            program.net_of[program.row_of], np.arange(circ.num_nets)
        )
        q_rows = sorted(int(program.row_of[g.out]) for g in circ.dffs())
        assert q_rows == list(range(program.q_lo, program.q_hi))

    def test_generated_source_is_compilable_and_bound(self):
        circ = _toy_circuit()
        program = compile_program(circ)
        assert "def _factory(" in program.source
        compile(program.source, "<check>", "exec")  # must round-trip
        kernel = CompiledKernel(program, n_words=1)
        assert len(kernel._levels) == program.n_levels


class TestCodegenCost:
    def test_compile_program_scans_the_dff_list_at_most_twice(
        self, monkeypatch
    ):
        """Codegen stays linear: the gate list is not rescanned per DFF."""
        b = CircuitBuilder()
        x = b.input("x", 16)
        q, connect = b.register(16)
        connect([b.xor(x[i], q[(i + 1) % 16]) for i in range(16)])
        b.output("y", q)
        circ = b.circuit

        calls = []
        dffs = Circuit.dffs
        monkeypatch.setattr(
            Circuit, "dffs", lambda self: calls.append(1) or dffs(self)
        )
        compile_program(circ)
        assert len(calls) <= 2


class TestZeroAllocationSteadyState:
    def _warm_sim(self, batch=200):
        circ = _toy_circuit()
        sim = Simulator(circ, batch=batch, backend="compiled")
        sim.set_input_ints("x", [i % 16 for i in range(batch)])
        sim.run(4)  # warm-up: bind buffers, trigger any lazy numpy setup
        return sim

    def test_fault_free_cycle_allocates_no_arrays(self):
        sim = self._warm_sim()
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.take_snapshot()
            sim.run(32)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        growth = sum(
            s.size_diff
            for s in after.compare_to(base, "filename")
            if "tracemalloc" not in (s.traceback[0].filename if s.traceback else "")
        )
        # 32 steady-state cycles must not allocate arrays; allow a few
        # hundred bytes of interpreter noise (ints, frames), nothing like
        # the  ≥ 25 kB even one (nets × words) uint64 matrix would cost
        assert growth < 2048, f"steady-state cycles allocated {growth} bytes"

    def test_full_design_steady_state_is_allocation_free(self):
        """Same assertion on the real protected design (the campaign path)."""
        from repro.ciphers.netlist_present import PresentSpec
        from repro.countermeasures import build_three_in_one

        design = build_three_in_one(PresentSpec(rounds=2))
        sim = design.simulator(256, backend="compiled")
        sim.set_input_ints("plaintext", list(range(256)))
        sim.run(design.cycles)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.take_snapshot()
            sim.run(design.cycles)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        growth = sum(
            s.size_diff
            for s in after.compare_to(base, "filename")
            if "tracemalloc" not in (s.traceback[0].filename if s.traceback else "")
        )
        assert growth < 2048, f"steady-state cycles allocated {growth} bytes"


class TestFaultyPathStillExact:
    """The fault split must not disturb the buffer plan (spot check; the
    exhaustive coverage lives in the differential suite)."""

    def test_faulty_then_clean_cycles_match_reference(self):
        circ = _toy_circuit()

        class Flip:
            def for_cycle(self, cycle):
                if cycle == 1:
                    # fault a gate output AND a source net
                    return {
                        circ.inputs["x"][0]: lambda v: ~v,
                        circ.outputs["y"][1]: lambda v: np.zeros_like(v),
                    }
                return {}

        sims = [
            Simulator(circ, batch=70, faults=Flip(), backend=be)
            for be in ("reference", "compiled")
        ]
        for sim in sims:
            sim.set_input_ints("x", [i % 16 for i in range(70)])
        for _ in range(4):
            for sim in sims:
                sim.step()
            np.testing.assert_array_equal(
                sims[0].get_nets_packed(range(circ.num_nets)),
                sims[1].get_nets_packed(range(circ.num_nets)),
            )
