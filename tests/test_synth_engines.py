"""S-box synthesis: the Shannon engine must compute its truth table
exactly, with or without optimisation — property-tested on random
functions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ciphers.sbox import GIFT_SBOX, PRESENT_SBOX
from repro.netlist.simulator import Simulator
from repro.synth.sbox_synth import synthesize_sbox, verify_sbox_circuit
from repro.synth.truthtable import TruthTable


def eval_circuit(circuit, n_inputs):
    sim = Simulator(circuit, batch=1 << n_inputs)
    sim.set_input_ints("x", list(range(1 << n_inputs)))
    sim.eval_comb()
    return sim.get_output_ints("y")


class TestStrategies:
    def test_present_sbox_exact(self):
        circ = synthesize_sbox(PRESENT_SBOX.truthtable())
        assert eval_circuit(circ, 4) == list(PRESENT_SBOX.table)

    def test_gift_sbox_exact(self):
        circ = synthesize_sbox(GIFT_SBOX.truthtable())
        assert eval_circuit(circ, 4) == list(GIFT_SBOX.table)

    def test_constant_functions(self):
        zero = TruthTable(3, 2, [0] * 8)
        ones = TruthTable(3, 2, [3] * 8)
        assert eval_circuit(synthesize_sbox(zero), 3) == [0] * 8
        assert eval_circuit(synthesize_sbox(ones), 3) == [3] * 8

    def test_projection_function(self):
        tt = TruthTable.from_function(4, 1, lambda x: (x >> 2) & 1)
        circ = synthesize_sbox(tt)
        assert eval_circuit(circ, 4) == [(x >> 2) & 1 for x in range(16)]

    def test_custom_var_order(self):
        tt = PRESENT_SBOX.truthtable()
        circ = synthesize_sbox(tt, var_order=[0, 1, 2, 3])
        verify_sbox_circuit(circ, tt)
        with pytest.raises(ValueError):
            synthesize_sbox(tt, var_order=[0, 0, 1, 2])

    def test_unoptimised_output_also_correct(self):
        tt = PRESENT_SBOX.truthtable()
        circ = synthesize_sbox(tt, optimize_result=False)
        verify_sbox_circuit(circ, tt)

    def test_verify_raises_on_wrong_circuit(self):
        tt = PRESENT_SBOX.truthtable()
        circ = synthesize_sbox(tt)
        wrong = TruthTable(4, 4, list(GIFT_SBOX.table))
        with pytest.raises(AssertionError):
            verify_sbox_circuit(circ, wrong)

    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_functions_exact(self, n, m, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        table = [int(v) for v in rng.integers(0, 1 << m, size=1 << n)]
        tt = TruthTable(n, m, table)
        for optimize_result in (True, False):
            circ = synthesize_sbox(tt, optimize_result=optimize_result)
            assert eval_circuit(circ, n) == table

    def test_merged_aes_sbox_synthesises(self):
        from repro.ciphers.aes import AES_SBOX

        merged = AES_SBOX.merged_truthtable()
        circ = synthesize_sbox(merged, name="aes_merged")
        # spot-check both domains rather than all 512 (verify already ran)
        sim = Simulator(circ, batch=4)
        sim.set_input_ints("x", [0x00, 0x53, 0x100 | 0x00, 0x100 | (0x53 ^ 0xFF)])
        sim.eval_comb()
        got = sim.get_output_ints("y")
        assert got[0] == 0x63
        assert got[1] == 0xED
        assert got[2] == AES_SBOX(0xFF) ^ 0xFF
        assert got[3] == AES_SBOX(0x53) ^ 0xFF
