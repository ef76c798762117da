"""VCD waveform export."""

import pytest

from repro.netlist.builder import CircuitBuilder
from repro.netlist.simulator import Simulator
from repro.netlist.vcd import VcdRecorder, _identifier


def counter_sim(batch=2):
    b = CircuitBuilder("cnt")
    q, connect = b.register(4)
    connect(b.incrementer(q))
    b.output("q", q)
    sim = Simulator(b.circuit, batch=batch)
    return sim, q


class TestIdentifiers:
    def test_unique_and_printable(self):
        ids = [_identifier(i) for i in range(200)]
        assert len(set(ids)) == 200
        for ident in ids:
            assert all(33 <= ord(c) <= 126 for c in ident)


class TestRecorder:
    def test_header_and_vars(self):
        sim, q = counter_sim()
        rec = VcdRecorder(sim, {"count": q})
        text = rec.render()
        assert "$timescale 1 ns $end" in text
        assert "$var wire 4" in text and "count" in text
        assert text.startswith("$date")

    def test_counter_waveform(self, tmp_path):
        sim, q = counter_sim()
        rec = VcdRecorder(sim, {"count": q})
        for _ in range(4):
            sim.step()
            rec.sample()
        path = tmp_path / "cnt.vcd"
        rec.write(path)
        text = path.read_text()
        # initial value then one change per cycle
        assert "#0" in text and "#4" in text
        assert "b0000 " in text
        assert "b0011 " in text

    def test_unchanged_values_not_redumped(self):
        sim, q = counter_sim()
        rec = VcdRecorder(sim, {"count": q})
        rec.sample()  # same cycle, same value
        text = rec.render()
        assert text.count("b0000 ") == 1

    def test_single_bit_format(self):
        sim, q = counter_sim()
        rec = VcdRecorder(sim, {"lsb": [q[0]]})
        sim.step()
        rec.sample()
        text = rec.render()
        assert "$var wire 1" in text
        # scalar dump format: '1!' not 'b1 !'
        assert any(line[0] in "01" and len(line) <= 3 for line in text.splitlines()
                   if line and line[0] in "01")

    def test_lane_selection(self):
        sim, q = counter_sim(batch=4)
        rec = VcdRecorder(sim, {"count": q}, lane=3)
        assert rec.lane == 3
        with pytest.raises(ValueError):
            VcdRecorder(sim, {"count": q}, lane=4)

    def test_empty_signals_rejected(self):
        sim, _ = counter_sim()
        with pytest.raises(ValueError):
            VcdRecorder(sim, {})

    def test_recording_does_not_change_a_faulted_run(self):
        """``sample()`` re-evaluates the cycle; a DFF-output flip must
        still apply once, so the recorded run ends where the plain one does."""
        from repro.faults import FaultInjector, FaultSpec, FaultType

        def hold_register(record: bool) -> list[int]:
            b = CircuitBuilder("hold")
            q, connect = b.register(1)
            connect(q)
            b.output("q", q)
            flip = FaultSpec.at(q[0], FaultType.BIT_FLIP, 1)
            sim = Simulator(b.circuit, batch=1, faults=FaultInjector([flip], 1))
            rec = VcdRecorder(sim, {"q": q}) if record else None
            for _ in range(3):
                sim.step()
                if rec is not None:
                    rec.sample()
            return sim.get_output_ints("q")

        assert hold_register(record=False) == [1]
        assert hold_register(record=True) == [1]

    def test_fault_debug_scenario(self, tmp_path):
        """The intended workflow: record a faulted protected run."""
        from repro.ciphers.netlist_present import PresentSpec
        from repro.countermeasures import build_three_in_one
        from repro.faults import FaultInjector, FaultSpec, FaultType
        from repro.faults.models import last_round, sbox_input_net

        design = build_three_in_one(PresentSpec())
        core = design.cores[0]
        fault = FaultSpec.at(
            sbox_input_net(core, 13, 2), FaultType.STUCK_AT_0, last_round(core)
        )
        injector = FaultInjector([fault], 1)
        sim = design.simulator(1, faults=injector)
        sim.set_input_ints("plaintext", [0x1234])
        sim.set_input_ints("key", [0x5678])
        sim.set_input_ints("lambda", [1])
        rec = VcdRecorder(
            sim,
            {
                "state_a": core.state_in,
                "fault_flag": design.circuit.outputs["fault"],
            },
        )
        for _ in range(design.cycles):
            sim.step()
            rec.sample()
        path = tmp_path / "fault.vcd"
        rec.write(path)
        text = path.read_text()
        assert "fault_flag" in text
        # the flag must have gone high by the end (effective or detected)
        lines = text.splitlines()
        flag_id = rec._ids["fault_flag"]
        assert any(line == f"1{flag_id}" for line in lines)
