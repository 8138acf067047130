"""SZ-style error-bounded codec: bound guarantees and escape handling."""

import numpy as np
import pytest

from repro.compressors import SzLike
from repro.config import FILL_VALUE
from repro.encoding.container import SectionReader, SectionWriter
from repro.encoding.deflate import deflate_mask


@pytest.fixture
def field(rng):
    return np.cumsum(
        rng.normal(size=(20, 16, 24)).astype(np.float32), axis=2
    )


class TestValidation:
    def test_bad_bound(self):
        for bound in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="bound"):
                SzLike(bound=bound)

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            SzLike(mode="pct")

    def test_bad_predictor(self):
        with pytest.raises(ValueError, match="predictor"):
            SzLike(predictor="cubic")

    def test_variant_label(self):
        assert SzLike(1e-3, "rel").variant == "SZ-rel-0.001"
        assert SzLike(1e-5, "rel").variant == "SZ-rel-1e-05"
        assert SzLike(5e-3, "pw").variant == "SZ-pw-0.005"
        assert SzLike(1e-2, "abs", predictor="delta").variant \
            == "SZ-abs-0.01-delta"


class TestAbsoluteBound:
    @pytest.mark.parametrize("bound", [1e-1, 1e-3, 1e-5])
    def test_never_exceeded(self, field, bound):
        codec = SzLike(bound=bound, mode="abs")
        out = codec.roundtrip(field).reconstructed
        err = np.abs(out.astype(np.float64) - field.astype(np.float64))
        assert err.max() <= bound

    def test_float64(self, field, rng):
        data = field.astype(np.float64) + rng.normal(size=field.shape) * 1e-6
        codec = SzLike(bound=1e-8, mode="abs")
        out = codec.roundtrip(data).reconstructed
        assert np.abs(out - data).max() <= 1e-8


class TestRelativeBound:
    @pytest.mark.parametrize("bound", [1e-2, 1e-4])
    def test_scales_with_range(self, field, bound):
        codec = SzLike(bound=bound, mode="rel")
        out = codec.roundtrip(field).reconstructed
        span = float(field.max()) - float(field.min())
        err = np.abs(out.astype(np.float64) - field.astype(np.float64))
        assert err.max() <= bound * span

    def test_fill_values_excluded_from_range(self, field):
        # A 1e35 fill value must not blow up the relative bound: the
        # range is computed over valid points only and fills come back
        # bit-exact via the escape stream.
        data = field.copy()
        data[0, :4] = np.float32(FILL_VALUE)
        codec = SzLike(bound=1e-3, mode="rel")
        out = codec.roundtrip(data).reconstructed
        assert (out[0, :4] == np.float32(FILL_VALUE)).all()
        valid = data != np.float32(FILL_VALUE)
        span = float(data[valid].max()) - float(data[valid].min())
        err = np.abs(out[valid].astype(np.float64)
                     - data[valid].astype(np.float64))
        assert err.max() <= 1e-3 * span

    def test_constant_field_is_exact_enough(self):
        data = np.full((8, 16), 7.5, dtype=np.float32)
        codec = SzLike(bound=1e-3, mode="rel")
        out = codec.roundtrip(data).reconstructed
        # Constant fields fall back to the peak magnitude for the range.
        assert np.abs(out - data).max() <= 1e-3 * 7.5


class TestPointwiseBound:
    @pytest.mark.parametrize("bound", [1e-2, 1e-3])
    def test_relative_error_bounded_per_point(self, bound, rng):
        # Tracer-like field: nine decades of magnitude, smooth in log.
        data = np.exp(
            np.cumsum(rng.normal(0, 0.05, (16, 512)), axis=1) - 10.0
        ).astype(np.float32)
        out = SzLike(bound, "pw").roundtrip(data).reconstructed
        x = data.astype(np.float64)
        err = np.abs(out.astype(np.float64) - x)
        assert (err <= bound * np.abs(x)).all()

    def test_signs_and_zeros_survive(self, rng):
        data = np.exp(rng.normal(0, 5, 1024)).astype(np.float32)
        data[::3] *= -1
        data[::7] = 0.0
        out = SzLike(1e-3, "pw").roundtrip(data).reconstructed
        assert np.array_equal(np.sign(out), np.sign(data))
        assert (out[::7] == 0.0).all()
        x = data.astype(np.float64)
        assert (np.abs(out.astype(np.float64) - x)
                <= 1e-3 * np.abs(x)).all()

    def test_short_sign_mask_raises(self, rng):
        # A one-byte sign mask used to decode, leaving later negatives
        # positive.
        data = -np.exp(rng.normal(0, 1, 1024)).astype(np.float32)
        codec = SzLike(1e-3, "pw")
        outer = SectionReader(codec.compress(data))
        inner = SectionReader(outer.get("data"))
        payload = SectionWriter()
        for name in inner.names():
            payload.add(name, deflate_mask(np.ones(8, dtype=bool))
                        if name == "sgn" else inner.get(name))
        blob = SectionWriter()
        blob.add("head", outer.get("head"))
        blob.add("data", payload.tobytes())
        with pytest.raises(ValueError, match="mask"):
            codec.decompress(blob.tobytes())

    def test_bound_independent_of_field_range(self, rng):
        # Unlike mode="rel", adding a huge outlier must not loosen the
        # bound on the small values.
        data = np.exp(rng.normal(0, 1, 512)).astype(np.float32)
        data[0] = 1e30
        out = SzLike(1e-3, "pw").roundtrip(data).reconstructed
        x = data.astype(np.float64)
        err = np.abs(out.astype(np.float64) - x)
        assert (err <= 1e-3 * np.abs(x)).all()


class TestEscapes:
    def test_nonfinite_survive_exactly(self, field):
        data = field.copy()
        data[1, 0, 0] = np.inf
        data[1, 0, 1] = -np.inf
        data[1, 0, 2] = np.nan
        out = SzLike(1e-3, "rel").roundtrip(data).reconstructed
        assert out[1, 0, 0] == np.inf
        assert out[1, 0, 1] == -np.inf
        assert np.isnan(out[1, 0, 2])

    def test_all_escape_when_range_is_degenerate(self):
        # An infinite range makes the relative bound unusable; the codec
        # must degrade to exact storage rather than violate its bound.
        data = np.array([np.finfo(np.float64).max,
                         -np.finfo(np.float64).max, 1.0, 2.0])
        out = SzLike(1e-3, "rel").roundtrip(data).reconstructed
        np.testing.assert_array_equal(out, data)

    def test_huge_dynamic_range_stays_bounded(self):
        data = np.array([1e-30, 1e30, -1e30, 3.0, 1e-40], dtype=np.float64)
        codec = SzLike(bound=1e-4, mode="rel")
        out = codec.roundtrip(data).reconstructed
        span = 2e30
        assert np.abs(out - data).max() <= 1e-4 * span


class TestPredictors:
    def test_lorenzo_beats_delta_on_2d_structure(self, rng):
        rows = np.cumsum(rng.normal(size=(64, 64)), axis=0)
        cols = np.cumsum(rows, axis=1).astype(np.float32)
        lorenzo = SzLike(1e-3, "rel", predictor="lorenzo")
        delta = SzLike(1e-3, "rel", predictor="delta")
        assert lorenzo.roundtrip(cols).cr < delta.roundtrip(cols).cr

    def test_1d_input_degrades_to_delta(self, rng):
        data = np.cumsum(rng.normal(size=512)).astype(np.float32)
        codec = SzLike(1e-3, "rel", predictor="lorenzo")
        out = codec.roundtrip(data).reconstructed
        span = float(data.max() - data.min())
        assert np.abs(out.astype(np.float64)
                      - data.astype(np.float64)).max() <= 1e-3 * span


class TestCompression:
    def test_looser_bound_compresses_harder(self, field):
        crs = [SzLike(b, "rel").roundtrip(field).cr
               for b in (1e-2, 1e-3, 1e-4, 1e-5)]
        assert crs == sorted(crs)

    def test_beats_lossless_on_smooth_data(self, field):
        from repro.compressors import NetCDF4Zlib

        sz = SzLike(1e-3, "rel").roundtrip(field).cr
        nc = NetCDF4Zlib().roundtrip(field).cr
        assert sz < nc
