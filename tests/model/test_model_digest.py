"""Bit-exactness guards for the model layer.

The dycore coefficients and every synthesized field are a pure function
of the configuration.  The golden digests below were recorded from the
reference implementation; an optimisation of the dycore or the field
synthesis that moves a single bit fails here loudly, instead of shifting
Tables 2-8 quietly.

The member-count test pins the other half of the contract: a member's
field must not depend on how many other members were synthesized in the
same call (BLAS may pick a different kernel for 1 row than for 101).
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.model.cam import CAMModel
from repro.model.dycore import Lorenz96

#: One catalog variable per synthesis path: 2-D linear, 3-D linear,
#: 3-D lognormal with vertical decay, geopotential height, land-masked.
KINDS = ("FSDSC", "U", "CCN3", "Z3", "SST")

COEFFICIENT_DIGEST = "d6e01a4f771aa6ed6f87cf52c550fa49"

FIELD_DIGESTS = {
    "FSDSC": "2a2454ca68eb18e619de8cac8b998d24",
    "U": "72e8ad7be2db87332a9b50b67464bac6",
    "CCN3": "510a7bb7847e7423c254035fb776d2b7",
    "Z3": "5daf4ca0d7bb1d871da5edd98d8da261",
    "SST": "a67a57a984e27d0ee4454ca92f6fd800",
}


def digest(array: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(array).tobytes(),
                           digest_size=16).hexdigest()


@pytest.fixture(scope="module")
def coefficients() -> np.ndarray:
    return Lorenz96().run_ensemble(21).coefficients


@pytest.fixture(scope="module")
def model() -> CAMModel:
    return CAMModel.from_config(ReproConfig(ne=4, nlev=6, n_members=21))


def test_coefficient_digest(coefficients):
    assert coefficients.shape == (21, 120)
    assert coefficients.dtype == np.float64
    assert digest(coefficients) == COEFFICIENT_DIGEST


@pytest.mark.parametrize("name", KINDS)
def test_field_digest(model, coefficients, name):
    fields = model.fields_for(name, coefficients, np.arange(21))
    assert fields.dtype == np.float32
    assert digest(fields) == FIELD_DIGESTS[name]


@pytest.fixture(scope="module")
def full_ensemble() -> tuple[CAMModel, np.ndarray]:
    model = CAMModel.from_config(ReproConfig(ne=3, nlev=5, n_members=101))
    return model, Lorenz96().run_ensemble(101).coefficients


@pytest.mark.parametrize("name", KINDS)
def test_member_field_independent_of_member_count(full_ensemble, name):
    model, coeff = full_ensemble
    full = model.fields_for(name, coeff, np.arange(101))
    for m in range(101):
        one = model.fields_for(name, coeff[m:m + 1], [m])[0]
        assert one.tobytes() == full[m].tobytes(), f"{name} member {m}"


def test_paper_scale_modes_stay_small():
    # At ne=30 with 30 levels one (k, nlev, ncol) float64 temporary is
    # 560 MB; the per-variable mode set itself is a few tens of MB.
    model = CAMModel.from_config(ReproConfig(ne=30, nlev=30))
    spec = model.spec("U")
    tracemalloc.start()
    try:
        model.synthesizer._modes(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"_modes peaked at {peak / 2**20:.0f} MB"
