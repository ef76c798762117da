"""Side-channel evaluation: power model sanity and the λ-leakage results."""

import numpy as np
import pytest

from repro.netlist.gates import GateType
from repro.rng import make_rng, random_ints
from repro.sca import LeakageModel, max_abs_t, power_trace, welch_t_test
from repro.sca.ttest import TVLA_THRESHOLD
from tests.conftest import TEST_KEY80

FIXED_PT = 0x0123456789ABCDEF
N = 200


class TestWelch:
    def test_identical_groups_give_zero(self):
        rng = make_rng(1)
        traces = rng.normal(size=(50, 10))
        t = welch_t_test(traces, traces.copy())
        assert np.abs(t).max() == pytest.approx(0.0)

    def test_shifted_mean_detected(self):
        rng = make_rng(2)
        a = rng.normal(size=(200, 5))
        b = rng.normal(size=(200, 5))
        b[:, 3] += 2.0
        t = welch_t_test(a, b)
        assert abs(t[3]) > TVLA_THRESHOLD
        assert np.abs(np.delete(t, 3)).max() < TVLA_THRESHOLD

    def test_constant_equal_samples_are_no_evidence(self):
        a = np.ones((10, 3))
        b = np.ones((10, 3))
        assert np.abs(welch_t_test(a, b)).max() == 0.0

    def test_constant_different_samples_are_infinite_evidence(self):
        a = np.zeros((10, 1))
        b = np.ones((10, 1))
        assert np.isinf(welch_t_test(a, b)[0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            welch_t_test(np.zeros((5, 3)), np.zeros((5, 4)))
        with pytest.raises(ValueError):
            welch_t_test(np.zeros((1, 3)), np.zeros((5, 3)))
        with pytest.raises(ValueError):
            welch_t_test(np.zeros(3), np.zeros(3))


class TestPowerModelSanity:
    def test_trace_shape(self, ours_prime):
        traces = power_trace(ours_prime, [FIXED_PT] * 8, TEST_KEY80, rng=1)
        assert traces.shape == (8, ours_prime.cycles)

    def test_hd_data_dependence(self, ours_prime):
        """Fixed-vs-random plaintext must leak on an unmasked datapath —
        the power model is useless if it can't see the data at all."""
        rng = make_rng(7)
        fixed = power_trace(
            ours_prime, [FIXED_PT] * N, TEST_KEY80,
            model=LeakageModel.HAMMING_DISTANCE, rng=1,
        )
        random_ = power_trace(
            ours_prime, random_ints(rng, N, 64), TEST_KEY80,
            model=LeakageModel.HAMMING_DISTANCE, rng=2,
        )
        assert max_abs_t(fixed, random_) > TVLA_THRESHOLD

    def test_lambda_pinning_requires_a_lambda_port(self, naive_design):
        """A pin on a design without λ must not pass for a pinned trace."""
        with pytest.raises(ValueError, match="'naive_duplication' design has no"):
            power_trace(naive_design, [0] * 4, TEST_KEY80, lambda_pin=0)

    def test_lambda_pin_must_fit_the_port(self, ours_prime):
        with pytest.raises(ValueError, match="1-bit λ input"):
            power_trace(ours_prime, [0] * 4, TEST_KEY80, lambda_pin=2)

    def test_pin_holds_dynamic_lambda_in_every_cycle(self, ours_per_round):
        """A stuck-at on the λ input pins the per-round TRNG as well: the
        drawn stream no longer matters, and the two pins differ."""
        core_a_state = [
            g.out
            for g in ours_per_round.circuit.dffs()
            if g.tag.startswith("a/state")
        ]

        def trace(pin, rng):
            return power_trace(
                ours_per_round, [FIXED_PT] * 8, TEST_KEY80,
                model=LeakageModel.HAMMING_WEIGHT, nets=core_a_state,
                lambda_pin=pin, rng=rng,
            )

        np.testing.assert_array_equal(trace(0, 1), trace(0, 2))
        np.testing.assert_array_equal(trace(1, 1), trace(1, 2))
        assert not np.array_equal(trace(0, 1), trace(1, 1))


class TestLambdaLeakage:
    """The §IV-B.2 results (see repro.sca docstring and EXPERIMENTS.md)."""

    def groups(self, design, model, nets=None):
        l0 = power_trace(
            design, [FIXED_PT] * N, TEST_KEY80, model=model,
            lambda_pin=0, rng=3, nets=nets,
        )
        l1 = power_trace(
            design, [FIXED_PT] * N, TEST_KEY80, model=model,
            lambda_pin=1, rng=4, nets=nets,
        )
        return l0, l1

    def test_hd_model_never_sees_lambda(self, ours_prime):
        l0, l1 = self.groups(ours_prime, LeakageModel.HAMMING_DISTANCE)
        assert max_abs_t(l0, l1) < 1e-9  # exactly invariant, not just small

    def test_whole_chip_hw_is_balanced_by_complementary_cores(self, ours_prime):
        l0, l1 = self.groups(ours_prime, LeakageModel.HAMMING_WEIGHT)
        assert max_abs_t(l0, l1) < 1e-9

    def test_single_core_hw_leaks_lambda(self, ours_prime):
        core_a_state = [
            g.out
            for g in ours_prime.circuit.gates
            if g.gtype is GateType.DFF and g.tag.startswith("a/state")
        ]
        l0, l1 = self.groups(
            ours_prime, LeakageModel.HAMMING_WEIGHT, nets=core_a_state
        )
        assert max_abs_t(l0, l1) > TVLA_THRESHOLD

    def test_single_core_hd_blind_except_reset_load(self, ours_prime):
        """HD is inversion-invariant between *encoded* states, so cycles
        1..30 are exactly λ-independent even per core.  Cycle 0 is the
        transition from the all-zero reset state, which degenerates to
        Hamming weight and therefore leaks λ — a real effect worth knowing
        about (randomising the reset state is the textbook fix).
        """
        core_a_state = [
            g.out
            for g in ours_prime.circuit.gates
            if g.gtype is GateType.DFF and g.tag.startswith("a/state")
        ]
        l0, l1 = self.groups(
            ours_prime, LeakageModel.HAMMING_DISTANCE, nets=core_a_state
        )
        steady = max_abs_t(l0[:, 1:], l1[:, 1:])
        load = max_abs_t(l0[:, :1], l1[:, :1])
        assert steady < 1e-9
        assert load > TVLA_THRESHOLD
