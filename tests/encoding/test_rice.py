"""Split-stream Golomb-Rice codec."""

import numpy as np
import pytest

from repro.encoding.deflate import deflate_uint
from repro.encoding.rice import (
    ESCAPE_Q,
    MODE_DEFLATE,
    MODE_RICE,
    choose_rice_k,
    rice_decode,
    rice_encode,
    rice_or_deflate,
)


class TestRoundtrip:
    def test_basic(self):
        values = np.array([0, 1, 2, 100, 7], dtype=np.uint64)
        assert np.array_equal(rice_decode(rice_encode(values)), values)

    def test_explicit_k(self):
        values = np.arange(200, dtype=np.uint64)
        for k in (0, 1, 4, 10):
            assert np.array_equal(
                rice_decode(rice_encode(values, k=k)), values
            )

    def test_geometric_data(self, rng):
        values = rng.geometric(0.05, 10_000).astype(np.uint64)
        assert np.array_equal(rice_decode(rice_encode(values)), values)

    def test_escapes(self):
        # Values whose quotient exceeds ESCAPE_Q at k=0.
        values = np.array([0, 2**50, 3, 2**63, 1], dtype=np.uint64)
        blob = rice_encode(values, k=0)
        assert np.array_equal(rice_decode(blob), values)

    def test_all_escaped(self):
        values = np.full(50, 2**40, dtype=np.uint64)
        blob = rice_encode(values, k=0)
        assert np.array_equal(rice_decode(blob), values)

    def test_single_value(self):
        values = np.array([42], dtype=np.uint64)
        assert np.array_equal(rice_decode(rice_encode(values)), values)

    def test_all_zeros_compress_tightly(self):
        values = np.zeros(8000, dtype=np.uint64)
        blob = rice_encode(values)
        assert len(blob) < 8000 / 4  # ~1 bit per value + header
        assert np.array_equal(rice_decode(blob), values)


class TestChooseK:
    def test_zero_mean_gives_zero(self):
        assert choose_rice_k(np.zeros(10, dtype=np.uint64)) == 0

    def test_empty(self):
        assert choose_rice_k(np.array([], dtype=np.uint64)) == 0

    def test_larger_values_get_larger_k(self):
        small = np.full(100, 2, dtype=np.uint64)
        large = np.full(100, 5000, dtype=np.uint64)
        assert choose_rice_k(large) > choose_rice_k(small)

    def test_chosen_k_beats_neighbors(self, rng):
        values = rng.geometric(0.01, 5000).astype(np.uint64)
        k_star = choose_rice_k(values)
        size_star = len(rice_encode(values, k=k_star))
        for k in (k_star - 1, k_star + 1):
            if 0 <= k <= 63:
                assert size_star <= len(rice_encode(values, k=k))


class TestCompressionEfficiency:
    def test_near_entropy_on_geometric(self, rng):
        # Geometric(p) entropy ~ H(p)/p bits; Rice should be within ~20%.
        p = 0.01
        values = rng.geometric(p, 50_000).astype(np.uint64)
        blob = rice_encode(values)
        bits_per_value = len(blob) * 8 / values.size
        entropy = (-(1 - p) * np.log2(1 - p) - p * np.log2(p)) / p
        assert bits_per_value < entropy * 1.25


class TestValidation:
    def test_invalid_k(self):
        with pytest.raises(ValueError, match="k must be"):
            rice_encode(np.array([1], dtype=np.uint64), k=64)

    def test_truncated_payload(self):
        blob = rice_encode(np.arange(100, dtype=np.uint64))
        with pytest.raises(ValueError):
            rice_decode(blob[:10])

    def test_bad_magic(self):
        blob = bytearray(rice_encode(np.arange(10, dtype=np.uint64)))
        blob[0] ^= 0xFF
        with pytest.raises(ValueError, match="magic"):
            rice_decode(bytes(blob))

    def test_escape_q_is_sane(self):
        assert 1 < ESCAPE_Q < 64


class TestRiceOrDeflate:
    def test_geometric_residuals_pick_rice(self, rng):
        values = rng.geometric(0.05, 10_000).astype(np.uint64)
        assert rice_or_deflate(values) == (MODE_RICE, 0, rice_encode(values))

    def test_repeats_pick_deflate(self):
        values = np.tile(np.arange(50, dtype=np.uint64), 200)
        width, deflated = deflate_uint(values, 4)
        assert rice_or_deflate(values) == (MODE_DEFLATE, width, deflated)

    def test_ties_keep_the_earlier_candidate(self, rng):
        values = rng.geometric(0.05, 1_000).astype(np.uint64)
        rice = rice_encode(values)
        others = [(7, b"x" * len(rice)), (8, b"x" * (len(rice) - 1)),
                  (9, b"y" * (len(rice) - 1))]
        assert rice_or_deflate(values, 4, others[:1])[0] == MODE_RICE
        assert rice_or_deflate(values, 4, others) == (8, 0, others[1][1])
