"""Deterministic RNG plumbing (the TRNG stand-in)."""

import numpy as np
import pytest

from repro.faults.campaign import range_rng
from repro.rng import (
    DEFAULT_SEED,
    BlockedRng,
    make_rng,
    random_bits,
    random_ints,
    random_words,
)
from repro.utils.bits import pack_bits


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a = make_rng(42).integers(0, 1 << 30, size=8)
        b = make_rng(42).integers(0, 1 << 30, size=8)
        assert (a == b).all()

    def test_none_uses_default_seed(self):
        a = make_rng(None).integers(0, 1 << 30, size=4)
        b = make_rng(DEFAULT_SEED).integers(0, 1 << 30, size=4)
        assert (a == b).all()

    def test_generator_passes_through(self):
        gen = make_rng(7)
        assert make_rng(gen) is gen


class TestRandomBits:
    def test_shape_and_alphabet(self):
        bits = random_bits(make_rng(1), 50, 7)
        assert bits.shape == (50, 7)
        assert set(np.unique(bits)) <= {0, 1}

    def test_roughly_balanced(self):
        bits = random_bits(make_rng(2), 4000, 4)
        assert 0.45 < bits.mean() < 0.55


class TestRandomInts:
    def test_width_respected(self):
        values = random_ints(make_rng(3), 100, 80)
        assert len(values) == 100
        assert all(0 <= v < (1 << 80) for v in values)
        assert any(v >> 64 for v in values)  # actually uses the top bits

    def test_deterministic(self):
        assert random_ints(make_rng(9), 5, 16) == random_ints(make_rng(9), 5, 16)


class TestRandomWords:
    """The packed draw makes the same draws as :func:`random_bits` and
    packs them into the simulator's lanes: the bits and the generator's
    state afterwards are the same."""

    @pytest.mark.parametrize("lanes", [1000, 16384, 80_000])
    def test_blocked_equals_packed_bit_draw(self, lanes):
        # 1,000 and 80,000 end on a partial RNG block, 16,384 on a full one
        a, b = range_rng(7, 0, lanes), range_rng(7, 0, lanes)
        np.testing.assert_array_equal(
            random_words(a, lanes, 64), pack_bits(random_bits(b, lanes, 64))
        )
        np.testing.assert_array_equal(
            random_words(a, lanes, 5), pack_bits(random_bits(b, lanes, 5))
        )

    def test_plain_generator_equals_packed_bit_draw(self):
        a, b = make_rng(3), make_rng(3)
        np.testing.assert_array_equal(
            random_words(a, 1000, 80), pack_bits(random_bits(b, 1000, 80))
        )
        assert a.integers(0, 1 << 30) == b.integers(0, 1 << 30)

    def test_blocks_off_word_boundaries(self):
        def blocked():
            return BlockedRng([(100, make_rng(1)), (37, make_rng(2))])

        np.testing.assert_array_equal(
            random_words(blocked(), 137, 9), pack_bits(random_bits(blocked(), 137, 9))
        )

    def test_draw_must_cover_every_lane(self):
        with pytest.raises(ValueError):
            random_words(range_rng(1, 0, 2048), 1024, 8)


class TestBlockedRngState:
    def test_from_state_continues_every_block(self):
        rng = range_rng(11, 0, 3000)
        random_bits(rng, 3000, 8)
        state = rng.state()
        want = random_bits(rng, 3000, 16)
        for _ in range(2):  # a snapshot restores any number of times
            again = BlockedRng.from_state(state)
            np.testing.assert_array_equal(random_bits(again, 3000, 16), want)
