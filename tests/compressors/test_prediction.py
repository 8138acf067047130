"""Ordered-int mapping, precision truncation, delta coding."""

import numpy as np
import pytest

from repro.compressors.prediction import (
    delta_decode,
    delta_encode,
    float_to_ordered_int,
    ordered_int_to_float,
    predict,
    truncate_precision,
    unpredict,
)
from repro.encoding.zigzag import zigzag_encode


class TestOrderedInt:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roundtrip(self, rng, dtype):
        values = rng.normal(0, 1e3, 1000).astype(dtype)
        codes = float_to_ordered_int(values)
        back = ordered_int_to_float(codes, dtype)
        assert np.array_equal(back, values)

    def test_order_preserved(self, rng):
        values = np.sort(rng.normal(0, 100, 500)).astype(np.float32)
        codes = float_to_ordered_int(values)
        assert (np.diff(codes) >= 0).all()

    def test_order_across_zero(self):
        values = np.array([-1.0, -1e-30, -0.0, 0.0, 1e-30, 1.0],
                          dtype=np.float32)
        codes = float_to_ordered_int(values)
        assert (np.diff(codes) >= 0).all()

    def test_special_magnitudes(self):
        values = np.array([1e35, -1e35, 1e-38, np.inf, -np.inf],
                          dtype=np.float32)
        back = ordered_int_to_float(float_to_ordered_int(values), np.float32)
        assert np.array_equal(back, values)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            float_to_ordered_int(np.array([np.nan], dtype=np.float32))

    def test_wrong_dtype_rejected(self):
        with pytest.raises(TypeError):
            float_to_ordered_int(np.array([1], dtype=np.int32))
        with pytest.raises(TypeError):
            ordered_int_to_float(np.array([1], dtype=np.int64), np.int32)

    def test_out_of_range_code_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            ordered_int_to_float(np.array([2**40], dtype=np.int64),
                                 np.float32)


class TestTruncation:
    def test_full_precision_is_identity(self, rng):
        values = rng.normal(0, 1, 100).astype(np.float32)
        assert np.array_equal(truncate_precision(values, 32), values)

    def test_truncation_error_bounded_relative(self, rng):
        values = rng.lognormal(0, 4, 1000).astype(np.float32)
        for precision in (16, 24):
            truncated = truncate_precision(values, precision)
            # Keeping p bits leaves (p - 9) mantissa bits for float32.
            rel = np.abs(values - truncated) / values
            assert rel.max() < 2.0 ** (9 - precision + 1)

    def test_truncation_toward_zero(self, rng):
        values = rng.normal(0, 10, 1000).astype(np.float32)
        truncated = truncate_precision(values, 16)
        assert (np.abs(truncated) <= np.abs(values)).all()

    def test_low_bits_zeroed(self, rng):
        values = rng.normal(0, 1, 100).astype(np.float32)
        bits = truncate_precision(values, 16).view(np.uint32)
        assert (bits & 0xFFFF == 0).all()

    @pytest.mark.parametrize("precision", [0, 7, 12, 33])
    def test_invalid_precision(self, precision):
        with pytest.raises(ValueError):
            truncate_precision(np.zeros(4, dtype=np.float32), precision)

    def test_float64_precision_48(self, rng):
        values = rng.normal(0, 1, 100)
        truncated = truncate_precision(values, 48)
        rel = np.abs(values - truncated) / np.abs(values)
        assert rel.max() < 2.0 ** (12 - 48 + 1)


class TestDelta:
    def test_roundtrip(self, rng):
        codes = rng.integers(-(2**40), 2**40, 5000)
        assert np.array_equal(delta_decode(delta_encode(codes)), codes)

    def test_first_element_verbatim(self):
        codes = np.array([42, 43, 44], dtype=np.int64)
        residuals = delta_encode(codes)
        assert residuals[0] == 42
        assert residuals[1] == residuals[2] == 1

    def test_smooth_data_gives_small_residuals(self):
        codes = np.arange(0, 100_000, 7, dtype=np.int64)
        residuals = delta_encode(codes)
        assert (residuals[1:] == 7).all()

    def test_empty(self):
        out = delta_decode(delta_encode(np.array([], dtype=np.int64)))
        assert out.size == 0

    def test_wraparound_consistency(self):
        # Extreme values wrap in int64 but the roundtrip must still hold.
        codes = np.array([-(2**62), 2**62, -(2**62)], dtype=np.int64)
        assert np.array_equal(delta_decode(delta_encode(codes)), codes)


class TestPredict:
    @pytest.mark.parametrize("ncols", [0, 1, 60, 7])
    def test_unusable_layouts_fall_back_to_delta(self, rng, ncols):
        # 60 codes: no layout, one column, one row, ragged rows.
        codes = rng.integers(-1000, 1000, 60)
        residuals, used = predict(codes, ncols, lorenzo=True)
        assert used == 0
        assert np.array_equal(residuals, zigzag_encode(delta_encode(codes)))
        assert np.array_equal(unpredict(residuals, used), codes)

    def test_lorenzo_roundtrip(self, rng):
        codes = rng.integers(-1000, 1000, 60)
        residuals, used = predict(codes, 6, lorenzo=True)
        assert used == 6
        assert np.array_equal(unpredict(residuals, used), codes)
        assert predict(codes, 6, lorenzo=False)[1] == 0
