"""Simulator correctness: combinational semantics, sequencing, faults,
scheduled inputs — including a property test against the scalar gate
semantics on randomly generated circuits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist.builder import CircuitBuilder
from repro.netlist.circuit import Circuit
from repro.netlist.gates import COMBINATIONAL_TYPES, GateType
from repro.netlist.simulator import Simulator


class TestCombinational:
    def test_all_gate_types_match_scalar_eval(self):
        b = CircuitBuilder()
        x = b.input("x", 3)
        outs = [
            b.and_(x[0], x[1]),
            b.or_(x[0], x[1]),
            b.nand(x[0], x[1]),
            b.nor(x[0], x[1]),
            b.xor(x[0], x[1]),
            b.xnor(x[0], x[1]),
            b.not_(x[0]),
            b.buf(x[1]),
            b.mux(x[2], x[0], x[1]),
            b.circuit.const(0),
            b.circuit.const(1),
        ]
        b.output("y", outs)
        sim = Simulator(b.circuit, batch=8)
        sim.set_input_ints("x", list(range(8)))
        sim.eval_comb()
        got = sim.get_output_bits("y")
        for run in range(8):
            a, c, s = run & 1, (run >> 1) & 1, (run >> 2) & 1
            expect = [
                a & c, a | c, 1 - (a & c), 1 - (a | c), a ^ c, 1 - (a ^ c),
                1 - a, c, (c if s else a), 0, 1,
            ]
            assert got[run].tolist() == expect

    def test_lanes_are_independent(self):
        b = CircuitBuilder()
        x = b.input("x", 8)
        b.output("y", b.not_word(x))
        sim = Simulator(b.circuit, batch=300)
        vals = [(i * 37) & 0xFF for i in range(300)]
        sim.set_input_ints("x", vals)
        sim.eval_comb()
        assert sim.get_output_ints("y") == [v ^ 0xFF for v in vals]

    def test_broadcast_input(self):
        b = CircuitBuilder()
        x = b.input("x", 4)
        b.output("y", list(x))
        sim = Simulator(b.circuit, batch=130)
        sim.broadcast_input("x", 0xB)
        sim.eval_comb()
        assert set(sim.get_output_ints("y")) == {0xB}

    def test_unknown_ports_raise(self):
        b = CircuitBuilder()
        b.input("x", 1)
        b.output("y", [b.circuit.const(0)])
        sim = Simulator(b.circuit, batch=1)
        with pytest.raises(KeyError):
            sim.set_input_ints("nope", [0])
        with pytest.raises(KeyError):
            sim.get_output_bits("nope")

    def test_wrong_batch_size_raises(self):
        b = CircuitBuilder()
        b.input("x", 1)
        b.output("y", [b.circuit.const(0)])
        sim = Simulator(b.circuit, batch=4)
        with pytest.raises(ValueError):
            sim.set_input_ints("x", [0, 1])


class TestSequential:
    def make_counter(self, width=4):
        b = CircuitBuilder()
        q, connect = b.register(width)
        connect(b.incrementer(q))
        b.output("q", q)
        return b.circuit

    def test_counter_counts_and_resets(self):
        sim = Simulator(self.make_counter(), batch=2)
        sim.run(10)
        assert sim.get_output_ints("q") == [10, 10]
        sim.reset()
        assert sim.cycle == 0
        sim.run(3)
        assert sim.get_output_ints("q") == [3, 3]

    def test_dff_init_values(self):
        b = CircuitBuilder()
        q, connect = b.register(4, init=0xC)
        connect(q)  # hold
        b.output("q", q)
        sim = Simulator(b.circuit, batch=5)
        sim.run(7)
        assert sim.get_output_ints("q") == [0xC] * 5

    def test_input_schedule_applied_per_cycle(self):
        # accumulate XOR of an input rewritten before every cycle
        b = CircuitBuilder()
        x = b.input("x", 4)
        q, connect = b.register(4)
        connect(b.xor_word(q, x))
        b.output("q", q)
        sim = Simulator(b.circuit, batch=1)
        for value in (0x1, 0x2, 0x4, 0x8):
            sim.set_input_ints("x", [value])
            sim.step()
        assert sim.get_output_ints("q") == [0xF]

    def test_input_rows_validate_port(self):
        sim = Simulator(self.make_counter(), batch=1)
        with pytest.raises(KeyError):
            sim.set_input_words("nope", np.zeros((1, 1), dtype=np.uint64))


#: one-word ``(keep, flip)`` pairs on every lane: stuck-at-0 and bit flip
_ZERO = np.zeros(1, dtype=np.uint64)
_ONES = np.full(1, 0xFFFF_FFFF_FFFF_FFFF, dtype=np.uint64)
STUCK_AT_0 = (_ZERO, _ZERO)
BIT_FLIP = (_ONES, _ONES)


class TestFaultHook:
    def make_passthrough(self):
        b = CircuitBuilder()
        x = b.input("x", 2)
        y = [b.buf(x[0]), b.xor(x[0], x[1])]
        b.output("y", y)
        return b.circuit, x, y

    def test_fault_on_gate_output(self):
        circ, x, y = self.make_passthrough()

        class Stuck:
            def for_cycle(self, cycle):
                return {y[1]: STUCK_AT_0}

        sim = Simulator(circ, batch=4, faults=Stuck())
        sim.set_input_ints("x", [0, 1, 2, 3])
        sim.eval_comb()
        assert sim.get_output_ints("y") == [0, 1, 0, 1]  # xor bit forced to 0

    def test_fault_on_source_net(self):
        circ, x, y = self.make_passthrough()

        class FlipInput:
            def for_cycle(self, cycle):
                return {x[0]: BIT_FLIP}

        sim = Simulator(circ, batch=4, faults=FlipInput())
        sim.set_input_ints("x", [0, 1, 2, 3])
        sim.eval_comb()
        # x0 flipped: buf sees ~x0, xor sees ~x0 ^ x1
        assert sim.get_output_ints("y") == [
            (v ^ 1) & 1 | ((((v ^ 1) & 1) ^ ((v >> 1) & 1)) << 1) for v in range(4)
        ]

    def test_fault_windows_respect_cycle(self):
        b = CircuitBuilder()
        q, connect = b.register(4)
        connect(b.incrementer(q))
        b.output("q", q)
        inc_net = None  # fault the DFF input net indirectly via q
        target = q[0]

        class FlipBit0AtCycle2:
            def for_cycle(self, cycle):
                if cycle == 2:
                    return {target: BIT_FLIP}
                return {}

        sim = Simulator(b.circuit, batch=1, faults=FlipBit0AtCycle2())
        sim.run(4)
        # cycles: q=0,1,2(->flip to 3, so inc gives 4),4
        assert sim.get_output_ints("q") == [5]


class TestRandomCircuitProperty:
    @staticmethod
    def random_comb_circuit(rng, n_inputs, n_gates):
        c = Circuit("rand")
        nets = list(c.add_input("x", n_inputs))
        types = sorted(COMBINATIONAL_TYPES, key=lambda g: g.value)
        for _ in range(n_gates):
            gtype = types[rng.integers(len(types))]
            ins = tuple(nets[rng.integers(len(nets))] for _ in range(gtype.arity))
            nets.append(c.add_gate(gtype, ins))
        c.set_output("y", nets[-min(4, len(nets)):])
        return c

    @staticmethod
    def scalar_eval(circuit, x_bits):
        values = {}
        for name, nets in circuit.inputs.items():
            for i, net in enumerate(nets):
                values[net] = x_bits[i]
        for gate in circuit.gates:
            if gate.gtype is GateType.CONST0:
                values[gate.out] = 0
            elif gate.gtype is GateType.CONST1:
                values[gate.out] = 1
        for gate in circuit.topo_order():
            values[gate.out] = gate.gtype.eval(*(values[n] for n in gate.ins))
        return [values[n] for n in circuit.outputs["y"]]

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_simulator_matches_scalar_semantics(self, seed):
        rng = np.random.default_rng(seed)
        circ = self.random_comb_circuit(rng, n_inputs=5, n_gates=30)
        batch = 32
        sim = Simulator(circ, batch=batch)
        sim.set_input_ints("x", list(range(batch)))
        sim.eval_comb()
        got = sim.get_output_bits("y")
        for run in range(batch):
            bits = [(run >> i) & 1 for i in range(5)]
            assert got[run].tolist() == self.scalar_eval(circ, bits)
