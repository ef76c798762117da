"""Fault models, injector semantics, classification, campaign mechanics."""

import numpy as np
import pytest

from repro.faults.classification import Outcome, classify
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultSpec, FaultType, last_round
from repro.netlist.builder import CircuitBuilder
from repro.netlist.simulator import Simulator
from repro.rng import make_rng
from repro.utils.bits import pack_bits, unpack_bits, words_for

_ALL_ONES_WORD = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


class TestFaultSpec:
    def test_at_single_cycle(self):
        spec = FaultSpec.at(3, FaultType.BIT_FLIP, 7)
        assert spec.cycles == frozenset({7})

    def test_at_iterable_and_permanent(self):
        assert FaultSpec.at(3, FaultType.STUCK_AT_0, [1, 2]).cycles == frozenset({1, 2})
        assert FaultSpec.at(3, FaultType.STUCK_AT_0, None).cycles is None

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            FaultSpec(0, FaultType.BIT_FLIP, probability=1.5)

    def test_negative_cycle_refused(self):
        with pytest.raises(ValueError, match="fault cycle -1 is negative"):
            FaultSpec.at(3, FaultType.BIT_FLIP, -1)
        with pytest.raises(ValueError, match="fault cycle -4 is negative"):
            FaultSpec.at(3, FaultType.STUCK_AT_0, (2, -4))

    def test_bias_classification(self):
        assert FaultType.STUCK_AT_0.is_biased
        assert FaultType.RESET_FLIP.is_biased
        assert not FaultType.BIT_FLIP.is_biased

    def test_last_round_helper(self, ours_prime):
        assert last_round(ours_prime.cores[0]) == 30


class TestInjectorSemantics:
    def wire_circuit(self):
        b = CircuitBuilder()
        x = b.input("x", 1)
        y = b.buf(x[0])
        b.output("y", [y])
        return b.circuit, y

    def run_with(self, fault_type, inputs, cycles=None, probability=1.0, seed=1):
        circ, y = self.wire_circuit()
        spec = FaultSpec.at(y, fault_type, cycles, probability=probability)
        injector = FaultInjector([spec], len(inputs), rng=seed)
        sim = Simulator(circ, batch=len(inputs), faults=injector)
        sim.set_input_ints("x", inputs)
        sim.eval_comb()
        return sim.get_output_ints("y")

    def test_stuck_at_0(self):
        assert self.run_with(FaultType.STUCK_AT_0, [0, 1, 1, 0]) == [0, 0, 0, 0]

    def test_stuck_at_1(self):
        assert self.run_with(FaultType.STUCK_AT_1, [0, 1, 0, 1]) == [1, 1, 1, 1]

    def test_bit_flip(self):
        assert self.run_with(FaultType.BIT_FLIP, [0, 1, 0, 1]) == [1, 0, 1, 0]

    def test_reset_and_set_flip_polarity(self):
        assert self.run_with(FaultType.RESET_FLIP, [1, 0]) == [0, 0]
        assert self.run_with(FaultType.SET_FLIP, [1, 0]) == [1, 1]

    def test_window_restricts_cycles(self):
        circ, y = self.wire_circuit()
        spec = FaultSpec.at(y, FaultType.BIT_FLIP, 5)
        injector = FaultInjector([spec], 1)
        sim = Simulator(circ, batch=1, faults=injector)
        sim.set_input_ints("x", [1])
        sim.eval_comb()  # cycle 0: no fault
        assert sim.get_output_ints("y") == [1]
        sim.run(5)  # advance to cycle 5
        sim.eval_comb()
        assert sim.get_output_ints("y") == [0]

    def test_probability_hits_a_fraction_of_lanes(self):
        batch = 4000
        got = self.run_with(
            FaultType.BIT_FLIP, [1] * batch, cycles=None, probability=0.25, seed=8
        )
        hit = sum(1 for v in got if v == 0)
        assert 800 < hit < 1200  # ~25% ± slack

    def test_two_faults_on_one_net_compose(self):
        circ, y = self.wire_circuit()
        specs = [
            FaultSpec.at(y, FaultType.STUCK_AT_1, None),
            FaultSpec.at(y, FaultType.BIT_FLIP, None),
        ]
        injector = FaultInjector(specs, 2)
        sim = Simulator(circ, batch=2, faults=injector)
        sim.set_input_ints("x", [0, 1])
        sim.eval_comb()
        # stuck-at-1 then flip -> always 0
        assert sim.get_output_ints("y") == [0, 0]

    def test_permanent_plus_windowed_merge(self):
        circ, y = self.wire_circuit()
        b2 = CircuitBuilder()
        x = b2.input("x", 2)
        y0 = b2.buf(x[0])
        y1 = b2.buf(x[1])
        b2.output("y", [y0, y1])
        specs = [
            FaultSpec.at(y0, FaultType.STUCK_AT_1, None),
            FaultSpec.at(y1, FaultType.STUCK_AT_1, 0),
        ]
        injector = FaultInjector(specs, 1)
        zero, ones = np.zeros(1, np.uint64), np.full(1, _ALL_ONES_WORD)
        for cycle, nets in ((0, {y0, y1}), (1, {y0})):
            table = injector.for_cycle(cycle)
            assert set(table) == nets
            for net in nets:  # stuck-at-1 on every lane: (keep, flip) = (0, ones)
                np.testing.assert_array_equal(table[net][0], zero)
                np.testing.assert_array_equal(table[net][1], ones)

    def test_windowed_spec_before_a_permanent_one_applies_first(self):
        circ, y = self.wire_circuit()
        specs = [
            FaultSpec.at(y, FaultType.BIT_FLIP, 0),
            FaultSpec.at(y, FaultType.STUCK_AT_1, None),
        ]
        sim = Simulator(circ, batch=2, faults=FaultInjector(specs, 2))
        sim.set_input_ints("x", [0, 1])
        sim.eval_comb()
        # flip, then stuck-at-1: the later spec wins on every lane
        assert sim.get_output_ints("y") == [1, 1]

    def test_fault_on_a_net_outside_the_circuit_is_refused(self):
        circ, y = self.wire_circuit()
        for net in (-1, circ.num_nets, 10**6):
            spec = FaultSpec.at(net, FaultType.STUCK_AT_0, 0)
            sim = Simulator(circ, batch=2, faults=FaultInjector([spec], 2))
            with pytest.raises(ValueError, match=rf"fault on net {net},"):
                sim.eval_comb()


class TestClassification:
    def test_three_way_split(self):
        released = np.array([[1, 0], [1, 1], [0, 0]], dtype=np.uint8)
        expected = np.array([[1, 0], [0, 0], [0, 0]], dtype=np.uint8)
        flags = np.array([0, 0, 1], dtype=np.uint8)
        out = classify(released, flags, expected)
        assert out.tolist() == [
            Outcome.INEFFECTIVE,
            Outcome.EFFECTIVE,
            Outcome.DETECTED,
        ]

    def test_internal_flag_mode(self):
        released = np.array([[1, 0]], dtype=np.uint8)
        expected = np.array([[1, 0]], dtype=np.uint8)
        flags = np.array([1], dtype=np.uint8)
        assert classify(released, flags, expected)[0] == Outcome.DETECTED
        assert (
            classify(released, flags, expected, flag_observable=False)[0]
            == Outcome.INEFFECTIVE
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            classify(
                np.zeros((2, 4), dtype=np.uint8),
                np.zeros(2),
                np.zeros((2, 5), dtype=np.uint8),
            )


class TestCampaign:
    def test_counts_and_selectors(self, naive_design):
        from repro.faults.campaign import run_campaign
        from repro.faults.models import sbox_input_net

        core = naive_design.cores[0]
        spec = FaultSpec.at(
            sbox_input_net(core, 13, 2), FaultType.STUCK_AT_0, last_round(core)
        )
        res = run_campaign(naive_design, [spec], n_runs=512, key=7, seed=13)
        counts = res.counts()
        assert counts["ineffective"] + counts["detected"] + counts["effective"] == 512
        assert counts["effective"] == 0
        # stuck-at-0 on a uniform bit: roughly half ineffective
        assert 180 < counts["ineffective"] < 330
        assert len(res.select(Outcome.DETECTED)) == counts["detected"]
        assert res.n_runs == 512
        assert res.rate(Outcome.EFFECTIVE) == 0.0

    def test_released_and_plaintext_ints(self, naive_design):
        from repro.faults.campaign import run_campaign

        res = run_campaign(naive_design, [], n_runs=8, key=7, seed=3)
        # no fault: everything ineffective and released == expected
        assert res.count(Outcome.INEFFECTIVE) == 8
        rel = res.released_ints()
        pts = res.plaintext_ints()
        from repro.ciphers.present import Present80

        cipher = Present80(7)
        assert rel == [cipher.encrypt(p) for p in pts]

    def test_nibble_extraction(self, naive_design):
        from repro.faults.campaign import run_campaign

        res = run_campaign(naive_design, [], n_runs=4, key=7, seed=3)
        vals = res.nibble(res.released_bits, 3)
        rel = res.released_ints()
        assert vals.tolist() == [(v >> 12) & 0xF for v in rel]


class TestInfectedEdgeCases:
    """INFECTED classification corners (infective recovery mode)."""

    def test_wrong_flagged_word_is_infected(self):
        released = np.array([[1, 1]], dtype=np.uint8)
        expected = np.array([[1, 0]], dtype=np.uint8)
        flags = np.array([1], dtype=np.uint8)
        out = classify(released, flags, expected, infective=True)
        assert out[0] == Outcome.INFECTED

    def test_all_zero_released_word_is_not_special(self):
        # An all-zero release is a wrong word like any other — flagged it
        # is INFECTED, unflagged it is a genuine EFFECTIVE bypass.
        released = np.zeros((2, 4), dtype=np.uint8)
        expected = np.array([[1, 0, 1, 0], [1, 0, 1, 0]], dtype=np.uint8)
        flags = np.array([1, 0], dtype=np.uint8)
        out = classify(released, flags, expected, infective=True)
        assert out.tolist() == [Outcome.INFECTED, Outcome.EFFECTIVE]

    def test_flag_with_correct_word_stays_ineffective_when_infective(self):
        # The infection mask happened to be zero (or the fault vanished):
        # the attacker sees the correct word, so it is INEFFECTIVE — the
        # flag alone must not promote it to INFECTED.
        released = np.array([[1, 0]], dtype=np.uint8)
        expected = np.array([[1, 0]], dtype=np.uint8)
        flags = np.array([1], dtype=np.uint8)
        out = classify(released, flags, expected, infective=True)
        assert out[0] == Outcome.INEFFECTIVE

    def test_all_zero_expected_and_released_is_ineffective(self):
        released = np.zeros((1, 4), dtype=np.uint8)
        expected = np.zeros((1, 4), dtype=np.uint8)
        flags = np.array([0], dtype=np.uint8)
        out = classify(released, flags, expected, infective=True)
        assert out[0] == Outcome.INEFFECTIVE


class TestProbabilisticLaneMasks:
    """Per-run lane masks: deterministic per seed, shared per group."""

    def _mask_bits(self, injector, net, batch, dtype):
        keep, _ = injector.for_cycle(0)[net]  # stuck-at-0: keep = ~hit
        hit = unpack_bits((~keep).reshape(1, -1), batch)[:, 0]
        return hit.astype(dtype)

    @pytest.mark.parametrize("batch", [1, 63, 64, 65, 200])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, bool])
    def test_mask_deterministic_across_rebuilds(self, batch, dtype):
        spec = FaultSpec.at(0, FaultType.STUCK_AT_0, 0, probability=0.5)
        b = CircuitBuilder()
        x = b.input("x", 1)
        b.output("y", [b.buf(x[0])])
        masks = [
            self._mask_bits(FaultInjector([spec], batch, rng=7), 0, batch, dtype)
            for _ in range(2)
        ]
        assert (masks[0] == masks[1]).all()
        different = self._mask_bits(
            FaultInjector([spec], batch, rng=8), 0, batch, dtype
        )
        if batch >= 64:  # tiny batches can collide by chance
            assert not (masks[0] == different).all()

    def test_grouped_specs_share_one_lane_mask(self):
        batch = 256
        grouped = [
            FaultSpec.at(0, FaultType.STUCK_AT_0, 0, probability=0.5, group="evt"),
            FaultSpec.at(1, FaultType.STUCK_AT_0, 0, probability=0.5, group="evt"),
        ]
        injector = FaultInjector(grouped, batch, rng=3)
        m0 = self._mask_bits(injector, 0, batch, np.uint8)
        m1 = self._mask_bits(injector, 1, batch, np.uint8)
        assert (m0 == m1).all()

    def test_ungrouped_specs_draw_independent_masks(self):
        batch = 256
        loose = [
            FaultSpec.at(0, FaultType.STUCK_AT_0, 0, probability=0.5),
            FaultSpec.at(1, FaultType.STUCK_AT_0, 0, probability=0.5),
        ]
        injector = FaultInjector(loose, batch, rng=3)
        m0 = self._mask_bits(injector, 0, batch, np.uint8)
        m1 = self._mask_bits(injector, 1, batch, np.uint8)
        assert not (m0 == m1).all()

    def test_group_mask_reused_at_every_active_cycle(self):
        batch = 128
        specs = [
            FaultSpec.at(0, FaultType.BIT_FLIP, (0, 3), probability=0.5, group="g"),
            FaultSpec.at(1, FaultType.BIT_FLIP, (0, 3), probability=0.5, group="g"),
        ]
        injector = FaultInjector(specs, batch, rng=11)
        for cycle in (0, 3):
            table = injector.for_cycle(cycle)
            assert set(table) == {0, 1}
            for k in (0, 1):  # bit flip on the group's lanes
                np.testing.assert_array_equal(table[0][k], table[1][k])
        assert injector.for_cycle(1) == {}


class TestMaskContract:
    """The injector's folded ``(keep, flip)`` per net and cycle equals
    applying each spec's own operation, in spec order, to any word."""

    @staticmethod
    def apply(kind, hit, v):
        if kind is FaultType.BIT_FLIP:
            return v ^ hit
        if kind in (FaultType.STUCK_AT_1, FaultType.SET_FLIP):
            return v | hit
        return v & ~hit  # STUCK_AT_0, RESET_FLIP

    @staticmethod
    def random_specs(rng, nets, cycles):
        def spec(net, window):
            return FaultSpec(
                net,
                list(FaultType)[rng.integers(len(FaultType))],
                window,
                probability=float(rng.choice([0.0, 0.3, 1.0])),
                group=str(rng.choice(["", "", "a", "b"])),
            )

        def window():
            size = int(rng.integers(1, cycles + 1))
            return frozenset(int(c) for c in rng.choice(cycles, size, replace=False))

        specs = [
            spec(int(rng.integers(nets)), None if rng.random() < 0.3 else window())
            for _ in range(int(rng.integers(1, 7)))
        ]
        # always a permanent and a windowed spec on one net, in either order
        pair = [spec(0, None), spec(0, window())]
        at = int(rng.integers(len(specs) + 1))
        specs[at:at] = pair if rng.random() < 0.5 else pair[::-1]
        return specs

    @pytest.mark.parametrize("seed", range(60))
    def test_folded_pair_equals_the_specs_in_order(self, seed):
        rng = np.random.default_rng(seed)
        batch = int(rng.choice([1, 37, 64, 65, 130]))
        n_words = words_for(batch)
        nets, cycles = 3, 4
        specs = self.random_specs(rng, nets, cycles)
        injector = FaultInjector(specs, batch, rng=seed)

        # each spec's hit lanes, drawn per spec or per coupling group in
        # spec order; an unmasked spec hits every lane, padding included
        draw, groups, hits = make_rng(seed), {}, []
        for spec in specs:
            if spec.probability == 1.0:
                hits.append(np.full(n_words, _ALL_ONES_WORD))
                continue
            if spec.group not in groups:
                lanes = (draw.random(batch) < spec.probability).astype(np.uint8)
                hit = pack_bits(lanes[:, None]).reshape(n_words)
                if not spec.group:
                    hits.append(hit)
                    continue
                groups[spec.group] = hit
            hits.append(groups[spec.group])

        words = rng.integers(0, 1 << 64, size=(6, n_words), dtype=np.uint64)
        words[0], words[1] = 0, _ALL_ONES_WORD
        for cycle in range(cycles + 1):
            table = injector.for_cycle(cycle)
            live = [
                (spec, hit)
                for spec, hit in zip(specs, hits)
                if spec.cycles is None or cycle in spec.cycles
            ]
            assert set(table) == {spec.net for spec, _ in live}
            for net, (keep, flip) in table.items():
                assert keep.dtype == flip.dtype == np.uint64
                assert keep.shape == flip.shape == (n_words,)
                want = words.copy()
                for spec, hit in live:
                    if spec.net == net:
                        want = self.apply(spec.fault_type, hit, want)
                np.testing.assert_array_equal((words & keep) ^ flip, want)
