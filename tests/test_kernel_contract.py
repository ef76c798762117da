"""The kernel contract and the source-net fault window, on every backend.

:class:`~repro.netlist.simulator.Simulator` drives each backend through one
contract (:class:`~repro.netlist.simulator.Kernel`): the kernel owns the
value matrix ``vals`` and the net→row map ``row_of``, evaluates with
``run(fault_map)`` and clocks with ``latch()``.  These tests pin that
contract per backend, and pin contract step 1: a fault on a primary input
or constant lasts exactly its cycle, and a source mask (DFF outputs
included) applies once however often its cycle is evaluated.  The
differential suite cannot see a fault that outlives its window, since
every backend shares the simulator's source-net path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.certify.space import enumerate_fault_space
from repro.ciphers.registry import registered_ciphers
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultSpec, FaultType
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.netlist.simulator import BACKENDS, Simulator
from repro.service.protocol import SCHEMES, build_design

from tests.test_simulator_equivalence import random_sequential_circuit

BATCH = 70  # a partial second word: padding lanes must follow the rules too


def _sequential_circuit() -> Circuit:
    """Inputs, both constants, and DFFs with init 0 and 1 on distinct D pins."""
    c = Circuit("contract")
    x = c.add_input("x", 3)
    zero, one = c.const(0), c.const(1)
    q0, q1 = c.new_net(), c.new_net()
    d0 = c.add_gate(GateType.XOR, (x[0], q1))
    d1 = c.add_gate(GateType.MUX, (x[1], q0, one))
    c.add_gate(GateType.DFF, (d0,), out=q0, init=0)
    c.add_gate(GateType.DFF, (d1,), out=q1, init=1)
    y = c.add_gate(GateType.AND, (x[2], zero))
    c.set_output("y", [q0, q1, y])
    return c


def _window_circuit() -> tuple[Circuit, int, int, int]:
    """``a → BUF → y`` with a DFF latching ``a`` straight from the input."""
    c = Circuit("window")
    (a,) = c.add_input("a", 1)
    y = c.add_gate(GateType.BUF, (a,))
    q = c.add_gate(GateType.DFF, (a,))
    c.set_output("y", [y, q])
    return c, a, y, q


def _lanes(sim: Simulator, net: int) -> set[int]:
    """The distinct values ``net`` holds across the batch."""
    return set(sim.get_nets_bits([net])[:, 0].tolist())


@pytest.mark.parametrize("backend", BACKENDS)
class TestKernelContract:
    @pytest.mark.parametrize("seed", range(5))
    def test_row_of_is_a_permutation_of_the_net_ids(self, backend, seed):
        rng = np.random.default_rng(seed)
        circ = random_sequential_circuit(rng, n_gates=int(rng.integers(5, 40)))
        kernel = Simulator(circ, batch=BATCH, backend=backend).kernel
        np.testing.assert_array_equal(
            np.sort(kernel.row_of), np.arange(circ.num_nets)
        )
        assert kernel.vals.shape == (circ.num_nets, 2)
        assert kernel.vals.dtype == np.uint64

    def test_reset_sets_dff_inits_and_constants(self, backend):
        circ = _sequential_circuit()
        sim = Simulator(circ, batch=BATCH, backend=backend)
        sim.set_input_ints("x", [(7 * i) % 8 for i in range(BATCH)])
        sim.run(3)
        sim.reset()
        assert sim.cycle == 0
        for g in circ.gates:
            if g.gtype is GateType.DFF:
                assert _lanes(sim, g.out) == {g.init}
        assert _lanes(sim, circ.const(1)) == {1}
        assert _lanes(sim, circ.const(0)) == {0}
        for net in circ.inputs["x"]:
            assert _lanes(sim, net) == {0}
        # all 64 bits of each constant-one word, padding lanes included
        assert (sim.get_nets_packed([circ.const(1)]) == np.uint64(2**64 - 1)).all()

    def test_step_latches_d_into_q(self, backend):
        circ = _sequential_circuit()
        sim = Simulator(circ, batch=BATCH, backend=backend)
        sim.set_input_ints("x", [(5 * i + 1) % 8 for i in range(BATCH)])
        dffs = circ.dffs()
        for _ in range(3):
            sim.eval_comb()
            d = sim.get_nets_packed([g.ins[0] for g in dffs])
            sim.step()
            np.testing.assert_array_equal(
                sim.get_nets_packed([g.out for g in dffs]), d
            )


@pytest.mark.parametrize("backend", BACKENDS)
class TestSourceFaultWindow:
    """A one-cycle fault on an input or constant is gone the next cycle,
    and no source mask compounds when its cycle is evaluated again."""

    @pytest.mark.parametrize(
        "fault_type", [FaultType.STUCK_AT_1, FaultType.BIT_FLIP]
    )
    def test_input_fault_lasts_one_cycle(self, backend, fault_type):
        circ, a, y, q = _window_circuit()
        faults = FaultInjector([FaultSpec.at(a, fault_type, 0)], BATCH)
        sim = Simulator(circ, batch=BATCH, faults=faults, backend=backend)
        sim.set_input_ints("a", [0] * BATCH)
        ys, qs = [], []
        for _ in range(4):
            sim.step()
            ys.append(_lanes(sim, y))
            qs.append(_lanes(sim, q))
        assert ys == [{1}, {0}, {0}, {0}]
        # the D pin is the faulted input itself: the fault latches once
        assert qs == [{1}, {0}, {0}, {0}]

    def test_constant_fault_lasts_one_cycle(self, backend):
        c = Circuit("const")
        zero = c.const(0)
        y = c.add_gate(GateType.BUF, (zero,))
        c.set_output("y", [y])
        faults = FaultInjector([FaultSpec.at(zero, FaultType.STUCK_AT_1, 1)], BATCH)
        sim = Simulator(c, batch=BATCH, faults=faults, backend=backend)
        ys = []
        for _ in range(4):
            sim.step()
            ys.append(_lanes(sim, y))
        assert ys == [{0}, {1}, {0}, {0}]

    def test_repeated_evaluation_flips_once(self, backend):
        circ, a, y, q = _window_circuit()
        faults = FaultInjector([FaultSpec.at(a, FaultType.BIT_FLIP, 0)], BATCH)
        sim = Simulator(circ, batch=BATCH, faults=faults, backend=backend)
        sim.set_input_ints("a", [0] * BATCH)
        sim.eval_comb()
        assert _lanes(sim, y) == {1}
        sim.step()  # re-evaluates cycle 0, then latches
        assert _lanes(sim, y) == {1}
        assert _lanes(sim, q) == {1}
        sim.step()
        assert _lanes(sim, y) == {0}
        assert _lanes(sim, q) == {0}

    @pytest.mark.parametrize("evaluations", [1, 2, 3])
    def test_dff_output_fault_applies_once_per_evaluated_cycle(
        self, backend, evaluations
    ):
        circ, a, _, q = _window_circuit()
        faults = FaultInjector([FaultSpec.at(q, FaultType.BIT_FLIP, 0)], BATCH)
        sim = Simulator(circ, batch=BATCH, faults=faults, backend=backend)
        sim.set_input_ints("a", [0] * BATCH)
        for _ in range(evaluations):
            sim.eval_comb()
        assert _lanes(sim, q) == {1}
        sim.step()  # the latch overwrites the flipped Q with D = a = 0
        assert _lanes(sim, q) == {0}
        sim.eval_comb()  # cycle 1 is fault-free: nothing to restore
        assert _lanes(sim, q) == {0}

    def test_port_write_after_a_faulted_cycle_wins(self, backend):
        circ, a, y, _ = _window_circuit()
        faults = FaultInjector([FaultSpec.at(a, FaultType.BIT_FLIP, 0)], BATCH)
        sim = Simulator(circ, batch=BATCH, faults=faults, backend=backend)
        sim.set_input_ints("a", [0] * BATCH)
        sim.step()
        sim.set_input_ints("a", [1] * BATCH)
        sim.step()
        assert _lanes(sim, y) == {1}
        sim.broadcast_input("a", 0)
        sim.step()
        assert _lanes(sim, y) == {0}

    def test_reset_drops_a_pending_restore(self, backend):
        circ, a, y, _ = _window_circuit()
        faults = FaultInjector([FaultSpec.at(a, FaultType.BIT_FLIP, 0)], BATCH)
        sim = Simulator(circ, batch=BATCH, faults=faults, backend=backend)
        sim.set_input_ints("a", [1] * BATCH)
        sim.step()
        assert _lanes(sim, y) == {0}
        sim.reset()  # clears the inputs; the driven 1 must not come back
        sim.faults = None
        sim.step()
        assert _lanes(sim, y) == {0}


@pytest.mark.parametrize("cipher", registered_ciphers())
@pytest.mark.parametrize("scheme", SCHEMES)
def test_certified_fault_space_holds_no_source_nets(scheme, cipher):
    """No registered design's fault space targets an input or a constant,
    so restoring them after their cycle leaves every certificate as it was."""
    design = build_design(scheme, cipher=cipher, rounds=2)
    space = enumerate_fault_space(design)
    kinds = {g.out: g.gtype for g in design.circuit.gates}
    sources = {GateType.INPUT, GateType.CONST0, GateType.CONST1}
    for section in space.sections:
        for loc in section.locs:
            nets = loc if isinstance(loc, tuple) else (loc,)
            assert not [n for n in nets if kinds[n] in sources], section.model
