"""Unit and property tests for the bit-packing helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.bits import (
    bits_to_bytes,
    bits_to_int,
    bits_to_ints,
    int_to_bits,
    ints_to_bits,
    pack_bits,
    unpack_bits,
    words_for,
    words_to_bytes,
)


class TestWordsFor:
    def test_exact_boundaries(self):
        assert words_for(1) == 1
        assert words_for(64) == 1
        assert words_for(65) == 2
        assert words_for(128) == 2
        assert words_for(129) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            words_for(0)
        with pytest.raises(ValueError):
            words_for(-3)


class TestIntBits:
    def test_lsb_first(self):
        assert int_to_bits(0b1011, 4) == [1, 1, 0, 1]
        assert int_to_bits(0, 3) == [0, 0, 0]

    def test_roundtrip_known(self):
        assert bits_to_int(int_to_bits(0xDEADBEEF, 32)) == 0xDEADBEEF

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            int_to_bits(16, 4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            int_to_bits(-1, 4)

    def test_bits_to_int_rejects_non_bits(self):
        with pytest.raises(ValueError):
            bits_to_int([0, 2, 1])

    @given(st.integers(min_value=0, max_value=(1 << 80) - 1))
    def test_roundtrip_property(self, value):
        assert bits_to_int(int_to_bits(value, 80)) == value


class TestMatrixConversions:
    def test_ints_to_bits_shape_and_content(self):
        m = ints_to_bits([5, 2], 3)
        assert m.shape == (2, 3)
        assert m.tolist() == [[1, 0, 1], [0, 1, 0]]

    def test_bits_to_ints_inverse(self):
        values = [0, 1, 9, 15]
        assert bits_to_ints(ints_to_bits(values, 4)) == values

    def test_rejects_oversized_value(self):
        with pytest.raises(ValueError):
            ints_to_bits([16], 4)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            bits_to_ints(np.zeros(4, dtype=np.uint8))


class TestPacking:
    def test_pack_single_lane(self):
        bits = np.array([[1], [0], [1], [1]], dtype=np.uint8)  # batch=4, width=1
        packed = pack_bits(bits)
        assert packed.shape == (1, 1)
        assert packed[0, 0] == 0b1101

    def test_pack_multi_word(self):
        batch = 130
        bits = np.zeros((batch, 2), dtype=np.uint8)
        bits[0, 0] = 1
        bits[64, 0] = 1
        bits[129, 1] = 1
        packed = pack_bits(bits)
        assert packed.shape == (2, 3)
        assert packed[0, 0] == 1
        assert packed[0, 1] == 1
        assert packed[1, 2] == 1 << 1

    def test_unpack_drops_padding(self):
        bits = np.ones((70, 3), dtype=np.uint8)
        out = unpack_bits(pack_bits(bits), 70)
        assert out.shape == (70, 3)
        assert out.all()

    def test_unpack_rejects_oversized_batch(self):
        packed = np.zeros((1, 1), dtype=np.uint64)
        with pytest.raises(ValueError):
            unpack_bits(packed, 65)

    def test_pack_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            pack_bits(np.zeros(8, dtype=np.uint8))

    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40)
    def test_pack_unpack_roundtrip(self, batch, width, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(batch, width), dtype=np.uint8)
        out = unpack_bits(pack_bits(bits), batch)
        assert (out == bits).all()


class TestWordsToBytes:
    """The blockwise packed-rows → byte-rows readout equals unpacking the
    lanes into a bit matrix and packing its rows."""

    @pytest.mark.parametrize("batch", [1, 63, 64, 1000, 16384])
    @pytest.mark.parametrize("width", [1, 13, 64])
    def test_equals_unpack_then_pack(self, batch, width):
        rng = np.random.default_rng(batch * 100 + width)
        words = rng.integers(0, 2**64, size=(width, words_for(batch)), dtype=np.uint64)
        got = words_to_bytes(words, batch)
        assert got.shape == (batch, (width + 7) // 8)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, bits_to_bytes(unpack_bits(words, batch)))

    def test_rejects_oversized_batch(self):
        with pytest.raises(ValueError):
            words_to_bytes(np.zeros((3, 1), dtype=np.uint64), 65)
