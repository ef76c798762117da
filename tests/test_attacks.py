"""End-to-end attack validation: each attack must break the design the
paper says it breaks, and starve against the three-in-one scheme."""

import numpy as np
import pytest

from repro.attacks import dfa_attack_last_round, selmke_attack, sifa_attack
from repro.attacks.fta import fta_key_recovery
from repro.attacks.metrics import chi_squared_uniform, distribution, rank_of, sei
from repro.attacks.sifa import (
    ineffective_distribution,
    predicted_conditional_bias,
    recover_sbox_inputs,
    true_subkey,
)
from repro.ciphers.present import Present80
from repro.faults import FaultSpec, FaultType, Outcome, run_campaign
from repro.faults.models import last_round, sbox_input_net
from repro.rng import make_rng, random_ints
from repro.utils.bits import ints_to_bits
from tests.conftest import TEST_KEY80


class TestMetrics:
    def test_sei_zero_for_uniform(self):
        values = list(range(16)) * 10
        assert sei(values, 16) == pytest.approx(0.0)

    def test_sei_max_for_point_mass(self):
        # (1 − 1/16)² + 15·(1/16)² = 1 − 1/16
        assert sei([3] * 50, 16) == pytest.approx(1 - 1 / 16, rel=1e-6)

    def test_distribution_empty_is_uniform(self):
        assert distribution([], 4).tolist() == [0.25] * 4

    def test_chi_squared_detects_bias(self):
        biased = [0] * 100 + [1] * 10
        stat, dof = chi_squared_uniform(biased, 2)
        assert dof == 1 and stat > 50
        flat_stat, _ = chi_squared_uniform(list(range(8)) * 20, 8)
        assert flat_stat == pytest.approx(0.0)

    def test_rank_of(self):
        scores = {0: 0.5, 1: 0.9, 2: 0.1}
        assert rank_of(scores, 1) == 1
        assert rank_of(scores, 2) == 3
        with pytest.raises(KeyError):
            rank_of(scores, 7)


class TestSifaComponents:
    def test_recover_sbox_inputs_inverts_last_round(self, present_spec):
        cipher = Present80(TEST_KEY80)
        rng = make_rng(5)
        pts = random_ints(rng, 30, 64)
        cts = ints_to_bits([cipher.encrypt(p) for p in pts], 64)
        for sbox in (0, 13):
            truth = true_subkey(present_spec, TEST_KEY80, sbox)
            xs = recover_sbox_inputs(present_spec, cts, sbox, truth)
            expect = [cipher.last_round_sbox_input(p, sbox) for p in pts]
            assert xs.tolist() == expect

    def test_predicted_bias_matches_hand_computation(self, present_spec):
        biases = predicted_conditional_bias(present_spec, 1, 0)
        # PRESENT S-box restricted to inputs with bit1=0: see DESIGN notes
        assert biases[0] == pytest.approx(0.0)
        assert biases[1] == pytest.approx(0.125)
        assert biases[2] == pytest.approx(0.125)
        assert biases[3] == pytest.approx(0.125)

    def test_gift_last_round_recovery(self, gift_spec):
        """GIFT ends as C = P(S(x)) ⊕ mask too — the unified solver
        recovers the last-round S-box inputs under the true mask."""
        from repro.ciphers.gift import Gift64

        cipher = Gift64(0x0123456789ABCDEF0123456789ABCDEF)
        rng = make_rng(6)
        pts = random_ints(rng, 20, 64)
        cts = ints_to_bits([cipher.encrypt(p) for p in pts], 64)
        for sbox in (0, 9):
            truth = true_subkey(gift_spec, cipher.key, sbox)
            xs = recover_sbox_inputs(gift_spec, cts, sbox, truth)
            for row, pt in enumerate(pts):
                state = cipher.round_states(pt)[cipher.rounds - 1]
                assert xs[row] == (state >> (4 * sbox)) & 0xF

    def test_aes_last_round_recovery(self):
        """And AES (ShiftRows + K10): byte-level back-computation."""
        from repro.ciphers.netlist_aes import AesReference, AesSpec

        spec = AesSpec()
        key = 0x000102030405060708090A0B0C0D0E0F
        ref = AesReference(key)
        rng = make_rng(7)
        pts = random_ints(rng, 6, 128)
        cts = ints_to_bits([ref.encrypt(p) for p in pts], 128)
        for byte in (0, 7, 15):
            truth = spec.last_round_subkey(key, byte)
            xs = recover_sbox_inputs(spec, cts, byte, truth)
            # ground truth: the state byte entering the final SubBytes,
            # recomputed forward through nine full rounds
            for row, pt in enumerate(pts):
                block = [(pt >> (8 * j)) & 0xFF for j in range(16)]
                aes = ref.cipher
                state = aes._add_round_key(block, aes.round_keys[0])
                for rnd in range(1, 10):
                    state = aes._sub_bytes(state)
                    state = aes._shift_rows(state)
                    state = aes._mix_columns(state)
                    state = aes._add_round_key(state, aes.round_keys[rnd])
                assert xs[row] == state[byte]


class TestSifaEndToEnd:
    @pytest.fixture(scope="class")
    def campaigns(self, naive_design, ours_prime, present_spec):
        out = {}
        for design, label in ((naive_design, "naive"), (ours_prime, "ours")):
            net = sbox_input_net(design.cores[0], 7, 1)
            spec = FaultSpec.at(net, FaultType.STUCK_AT_0, present_spec.rounds - 2)
            out[label] = run_campaign(
                design, [spec], n_runs=16_000, key=TEST_KEY80, seed=21
            )
        return out

    def test_breaks_naive_duplication(self, campaigns, present_spec):
        atk = sifa_attack(campaigns["naive"], present_spec, 7, 1)
        assert atk.success
        assert atk.recovered_bits == 12  # 3 of 4 landing bits carry bias

    def test_fails_against_three_in_one(self, campaigns, present_spec):
        atk = sifa_attack(campaigns["ours"], present_spec, 7, 1)
        assert not atk.success
        assert atk.recovered_bits <= 4  # at most a lucky nibble

    def test_last_round_distribution_support(self, naive_design, ours_prime, present_spec):
        for design, expect_support in ((naive_design, 8), (ours_prime, 16)):
            net = sbox_input_net(design.cores[0], 13, 2)
            spec = FaultSpec.at(net, FaultType.STUCK_AT_0, last_round(design.cores[0]))
            res = run_campaign(design, [spec], n_runs=6000, key=TEST_KEY80, seed=2)
            dist = ineffective_distribution(res, present_spec, 13)
            assert (dist > 0).sum() == expect_support


class TestDfaSolver:
    def make_pairs(self, spec, key, target_sbox, faulted_bit, n=24):
        """Synthesise (correct, faulty) pairs from the reference cipher."""
        cipher = Present80(key)
        rng = make_rng(9)
        pts = random_ints(rng, n, 64)
        correct, faulty = [], []
        from repro.ciphers.present import PLAYER, _p_layer, _sbox_layer

        for p in pts:
            c = cipher.encrypt(p)
            x = cipher.last_round_sbox_input(p, target_sbox)
            x_f = x & ~(1 << faulted_bit)
            # recompute last round with the faulted nibble
            state = cipher.round_states(p)[30] ^ cipher.round_keys[30]
            state = (state & ~(0xF << (4 * target_sbox))) | (x_f << (4 * target_sbox))
            state = _sbox_layer(state, spec.sbox)
            state = _p_layer(state, PLAYER)
            faulty.append(state ^ cipher.round_keys[31])
            correct.append(c)
        return ints_to_bits(correct, 64), ints_to_bits(faulty, 64)

    def test_unique_survivor_is_true_key(self, present_spec):
        correct, faulty = self.make_pairs(present_spec, TEST_KEY80, 5, 1)
        res = dfa_attack_last_round(
            present_spec, correct, faulty, 5, 1, FaultType.STUCK_AT_0, key=TEST_KEY80
        )
        assert res.success
        assert res.recovered_bits == 4

    def test_no_pairs_no_elimination(self, present_spec):
        correct, _ = self.make_pairs(present_spec, TEST_KEY80, 5, 1, n=4)
        res = dfa_attack_last_round(
            present_spec, correct, correct, 5, 1, FaultType.STUCK_AT_0, key=TEST_KEY80
        )
        assert res.n_pairs == 0
        assert len(res.survivors) == 16


class TestSelmkeEndToEnd:
    def test_breaks_naive_duplication(self, naive_design):
        res = selmke_attack(
            naive_design, target_sbox=5, faulted_bit=1, key=TEST_KEY80,
            n_runs=6000, seed=4,
        )
        assert res.n_faulty_released > 2000
        assert res.success

    def test_partially_breaks_acisp20(self, acisp_design):
        res = selmke_attack(
            acisp_design, target_sbox=5, faulted_bit=1, key=TEST_KEY80,
            n_runs=6000, seed=4,
        )
        # λ agree in ~half the runs; a quarter of runs leak faulty outputs
        assert res.n_faulty_released > 1000
        assert res.success

    def test_starves_against_three_in_one(self, ours_prime):
        res = selmke_attack(
            ours_prime, target_sbox=5, faulted_bit=1, key=TEST_KEY80,
            n_runs=6000, seed=4,
        )
        assert res.n_faulty_released == 0
        assert res.dfa is None
        assert not res.success


class TestFtaEndToEnd:
    PTS = [0x5AF019C3B2487D6E, 0xC3A1905E7F2B6D84, 0x0F1E2D3C4B5A6978, 0x9182736455463728]

    def test_breaks_naive_duplication(self, naive_design):
        rec = fta_key_recovery(
            naive_design, sbox=3, plaintexts=self.PTS, key=TEST_KEY80,
            n_rep=16, seed=7,
        )
        assert rec.success
        assert rec.recovered_bits == 4.0

    def test_recovers_key_nibble_against_three_in_one(self, ours_prime):
        """Gate-level FTA pins the round-1 key nibble of three-in-one.

        The λ wire of the merged S-box, one of the 40 targets, is a primary
        input.  Confined to its cycle, a flip on it no longer corrupts every
        later round, and the per-plaintext candidate classes intersect on
        the true nibble (seeds 7-10 all return {7}).  The paper's FTA claim
        does not hold against this netlist with these plaintexts and targets.
        """
        rec = fta_key_recovery(
            ours_prime, sbox=3, plaintexts=self.PTS, key=TEST_KEY80,
            n_rep=32, seed=7,
        )
        assert rec.success
        assert rec.candidates == {7} == {rec.true_key_nibble}

    def test_template_matches_and_gate_rule(self):
        """On a bare AND circuit the exact template must equal the classic
        'output flips iff the other input is 1' rule."""
        from repro.attacks.fta import build_templates
        from repro.netlist.builder import CircuitBuilder

        b = CircuitBuilder()
        x = b.input("x", 2)
        y = b.and_(x[0], x[1])
        b.output("y", [y])
        templates = build_templates(b.circuit, [x[0], x[1]])
        # flipping x0 changes the output iff x1 == 1
        assert templates[0].tolist() == [0.0, 0.0, 1.0, 1.0]
        assert templates[1].tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_instance_net_map_is_exact(self, naive_design):
        """The mapped instance nets must behave like the template nets:
        check by running the design and comparing an S-box instance's
        output nets against the standalone circuit's function."""
        from repro.attacks.fta import instance_net_map

        mapping = instance_net_map(naive_design, 0, 5)
        sub = naive_design.sbox_circuit
        out_nets = [mapping[n] for n in sub.outputs["y"]]
        core = naive_design.cores[0]
        assert out_nets == core.sbox_outputs[5]
