"""Round-trip budget of the PVT evaluation path.

Each rung compresses every member it judges exactly once: the screen
(``run_bias=False``) round-trips the test members, the full evaluation
(``run_bias=True``) round-trips every member once — the bias pass reuses
the test members' reconstructions — and a lossless rung round-trips one
member.  A passing lossy rung therefore costs ``3 + n_members``.
"""

import pytest

from repro.compressors import get_variant
from repro.compressors.base import Compressor
from repro.hybrid.selector import build_hybrid
from repro.pvt.acceptance import evaluate_variable
from repro.store import storing


@pytest.fixture()
def roundtrips(monkeypatch):
    """Count ``Compressor.roundtrip`` calls, with caching off."""
    calls = []
    real = Compressor.roundtrip

    def counting(self, data):
        calls.append(self.variant)
        return real(self, data)

    monkeypatch.setattr(Compressor, "roundtrip", counting)
    with storing(None):
        yield calls


@pytest.fixture(scope="module")
def u_fields(ensemble):
    return ensemble.ensemble_field("U")


def test_screen_round_trips_each_test_member_once(u_fields, roundtrips):
    members = [2, 7, 11]
    evaluate_variable(u_fields, get_variant("fpzip-24"), members,
                      run_bias=False)
    assert len(roundtrips) == len(members)


def test_full_evaluation_round_trips_each_member_once(u_fields, roundtrips,
                                                      config):
    evaluate_variable(u_fields, get_variant("fpzip-24"), [2, 7, 11],
                      run_bias=True)
    assert len(roundtrips) == config.n_members


def test_passing_first_rung_costs_screen_plus_full(ensemble, roundtrips,
                                                   config):
    members = ensemble.pick_members(3)
    result = build_hybrid(ensemble, "fpzip", variables=["U"],
                          test_members=members)
    # The premise: U keeps the ladder's first, most compressive rung.
    assert result.choices["U"].variant == "fpzip-16"
    assert len(roundtrips) == len(members) + config.n_members


def test_lossless_rung_round_trips_one_member(ensemble, roundtrips):
    build_hybrid(ensemble, "NetCDF-4", variables=["U", "FSDSC"])
    assert roundtrips == ["NetCDF-4", "NetCDF-4"]
