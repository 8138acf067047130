"""Memory guards for the encoding kernels and the codecs built on them.

At paper scale (one 3-D variable: 30 levels x 48,602 columns) a kernel
that expands every bit into a ``uint64`` costs tens of field sizes.  The
blocked kernels keep their temporaries to a block, so their peak is
about the size of their output.  Peaks are traced with
:mod:`tracemalloc` and include the returned value.
"""

import tracemalloc

import numpy as np
import pytest

from repro.compressors.registry import get_variant
from repro.config import ReproConfig
from repro.encoding.bitio import pack_fixed, unpack_fixed
from repro.encoding.rice import rice_decode, rice_encode
from repro.model.cam import CAMModel

SHAPE = (30, 48602)
N = SHAPE[0] * SHAPE[1]
FIELD_BYTES = 4 * N  # one float32 variable

#: One codec per family, as the time-series conversion benchmark uses.
CONVERT_CODECS = ("fpzip-24", "APAX-4", "GRIB2", "ISA-0.5", "SZ-rel-0.001",
                  "BR-10", "NetCDF-4")


def traced_peak(fn, *args) -> int:
    """Bytes allocated at the peak of ``fn(*args)``, beyond the baseline."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("width", (7, 16))
def test_fixed_width_kernels_stay_within_three_fields(rng, width):
    values = rng.integers(0, 1 << width, N, dtype=np.uint64)
    packed = pack_fixed(values, width)
    assert traced_peak(pack_fixed, values, width) <= 3 * FIELD_BYTES
    assert traced_peak(unpack_fixed, packed, width, N) <= 3 * FIELD_BYTES


def test_rice_stays_within_ten_fields(rng):
    values = rng.geometric(0.02, N).astype(np.uint64)
    blob = rice_encode(values)
    assert traced_peak(rice_encode, values) <= 10 * FIELD_BYTES
    assert traced_peak(rice_decode, blob) <= 10 * FIELD_BYTES


@pytest.fixture(scope="module")
def paper_field() -> np.ndarray:
    """One time step of U on the ne=30, 30-level grid."""
    model = CAMModel.from_config(ReproConfig(ne=30, nlev=30))
    coeff = np.random.default_rng(0).standard_normal(
        (1, model.synthesizer.n_coefficients))
    field = model.fields_for("U", coeff, np.arange(1))[0]
    assert field.shape == SHAPE
    return field


@pytest.mark.parametrize("variant", CONVERT_CODECS)
def test_convert_codecs_stay_below_150_mb(paper_field, variant):
    codec = get_variant(variant)
    blob = codec.compress(paper_field)
    assert traced_peak(codec.compress, paper_field) < 150e6
    assert traced_peak(codec.decompress, blob) < 150e6
