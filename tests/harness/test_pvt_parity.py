"""Parity of the PVT evaluation path with golden values.

The hybrid choices and Table 6 rows below were recorded on
``ExperimentContext.test()`` before the PVT evaluation was reworked to
round-trip each test member once per rung and to share one variable
fan-out between Table 6 and ``repro verify``.  Any drift in a choice, a
quality number or a pass count fails here.
"""

import pytest

from repro.compressors import get_variant, paper_variants
from repro.harness.experiments import ExperimentContext
from repro.harness.tables import table6_passes
from repro.hybrid.selector import build_hybrid
from repro.pvt.acceptance import evaluate_variable
from repro.store import storing

#: variable -> (variant, cr, rho, nrmse, e_nmax, n_points)
FPZIP = {
    "FSDSC": ("fpzip-24", 0.5081967213114754, 0.9999999993169817,
              1.6655165098047998e-05, 3.9213549114893074e-05, 488),
    "PS": ("fpzip-24", 0.45286885245901637, 0.9999999860626124,
           9.298766655161118e-05, 0.0001570276034743903, 488),
    "FLNT": ("fpzip-32", 0.7592213114754098, 1.0, 0.0, 0.0, 488),
    "FSNT": ("fpzip-24", 0.5194672131147541, 0.999999999792292,
             1.034694435490778e-05, 2.504902241032892e-05, 488),
    "PSL": ("fpzip-24", 0.4011270491803279, 0.9999998789528737,
            0.0002427549706100474, 0.00042992188909364034, 488),
    "TS": ("fpzip-24", 0.4948770491803279, 0.9999999895021218,
           5.887488340251032e-05, 0.00010154323820590221, 488),
    "U": ("fpzip-16", 0.37715163934426227, 0.9999982824281038,
          0.0008182831531945982, 0.004197083270927656, 2440),
    "Z3": ("fpzip-24", 0.34334016393442623, 0.9999999999340704,
           7.584461134632297e-06, 2.409640015368878e-05, 2440),
    "CCN3": ("fpzip-16", 0.2921106557377049, 0.9999981430411985,
             0.000440811043253693, 0.005715248723993789, 2440),
    "T": ("fpzip-24", 0.4433401639344262, 0.9999999982967022,
          1.4325828807025016e-05, 3.4957895271492267e-05, 2440),
    "V": ("fpzip-16", 0.39774590163934426, 0.999998480994301,
          0.0004308883973836238, 0.0029665294093865137, 2440),
    "OMEGA": ("fpzip-16", 0.35963114754098363, 0.9999985151923065,
              0.00060992098830722, 0.00297769256626532, 2440),
}

SZBR = {
    "FSDSC": ("SZ-rel-0.001", 0.3176229508196721, 0.9999971712150315,
              0.0005813110915118924, 0.0009976297416552718, 488),
    "PS": ("SZ-rel-0.001", 0.30225409836065575, 0.9999977365863002,
           0.0005893676709805765, 0.0009984235417761428, 488),
    "FLNT": ("SZ-rel-0.001", 0.31915983606557374, 0.9999974835567833,
             0.0005701995035056843, 0.0009992693310980085, 488),
    "FSNT": ("SZ-rel-0.002", 0.27561475409836067, 0.9999911277089577,
             0.0011565400826770572, 0.0019987155254233826, 488),
    "PSL": ("SZ-rel-0.001", 0.3212090163934426, 0.9999975581189299,
            0.000573350072238651, 0.0009980931699742552, 488),
    "TS": ("SZ-rel-0.001", 0.31915983606557374, 0.9999964072687155,
           0.0005622739552971716, 0.000997114778304232, 488),
    "U": ("SZ-rel-0.001", 0.1880122950819672, 0.9999967267698003,
          0.0005841320678376135, 0.0009997621158557802, 2440),
    "Z3": ("SZ-rel-2e-05", 0.20245901639344263, 0.999999999469057,
           1.1465842944531513e-05, 1.9985930055474322e-05, 2440),
    "CCN3": ("SZ-pw-0.005", 0.2594262295081967, 0.999995417016527,
             0.00036593242364126743, 0.00449723718040016, 2440),
    "T": ("SZ-rel-0.0005", 0.2798155737704918, 0.9999976682842715,
          0.00029133536767023046, 0.0004998293574896502, 2440),
    "V": ("SZ-rel-0.0001", 0.3403688524590164, 0.9999999013849208,
          5.6936686365092174e-05, 9.997704249758456e-05, 2440),
    "OMEGA": ("SZ-rel-0.001", 0.26762295081967213, 0.999995222459599,
              0.0005844545600092848, 0.0009998914305951723, 2440),
}

#: Table 6 rows over the paper variants (APAX-5 is left out of the bias
#: rows: see test_collapsed_reconstruction_fails_the_bias_test).
TABLE6_BIAS = [
    ["GRIB2", 12, 9, 12, 11, 9, 12],
    ["APAX-2", 10, 9, 8, 11, 7, 12],
    ["APAX-4", 1, 1, 3, 1, 0, 12],
    ["fpzip-24", 12, 11, 12, 12, 11, 12],
    ["fpzip-16", 5, 4, 4, 6, 4, 12],
    ["ISA-0.1", 9, 7, 9, 8, 7, 12],
    ["ISA-0.5", 6, 5, 6, 5, 5, 12],
    ["ISA-1.0", 5, 3, 4, 7, 3, 12],
]

TABLE6_NO_BIAS = [
    ["GRIB2", 12, 9, 12, None, 9, 12],
    ["APAX-2", 10, 9, 8, None, 7, 12],
    ["APAX-4", 1, 1, 3, None, 0, 12],
    ["APAX-5", 0, 1, 1, None, 0, 12],
    ["fpzip-24", 12, 11, 12, None, 11, 12],
    ["fpzip-16", 5, 4, 4, None, 4, 12],
    ["ISA-0.1", 9, 7, 9, None, 7, 12],
    ["ISA-0.5", 6, 5, 6, None, 5, 12],
    ["ISA-1.0", 5, 3, 4, None, 3, 12],
]


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext.test()


@pytest.fixture(autouse=True)
def no_store():
    with storing(None):
        yield


@pytest.mark.parametrize("family, golden", [("fpzip", FPZIP),
                                            ("SZ+BR", SZBR)])
def test_hybrid_choices_match_golden(ctx, family, golden):
    result = build_hybrid(ctx.ensemble, family,
                          test_members=ctx.test_members)
    assert list(result.choices) == list(golden)
    for name, choice in result.choices.items():
        variant, cr, rho, nrmse, e_nmax, n_points = golden[name]
        assert (choice.variant, choice.cr, choice.n_points) == \
            (variant, cr, n_points), name
        assert (choice.rho, choice.nrmse, choice.e_nmax) == pytest.approx(
            (rho, nrmse, e_nmax), rel=1e-12, abs=0.0), name


@pytest.mark.parametrize("workers", [0, 2])
def test_table6_rows_match_golden(ctx, workers):
    variants = list(paper_variants())
    _, rows = table6_passes(ctx, run_bias=False, variants=variants,
                            workers=workers)
    assert rows == TABLE6_NO_BIAS
    _, rows = table6_passes(
        ctx, run_bias=True, workers=workers,
        variants=[v for v in variants if v != "APAX-5"],
    )
    assert rows == TABLE6_BIAS


@pytest.mark.xfail(raises=ValueError, strict=True,
                   reason="APAX-5 gives FSDSC's reconstructed ensemble "
                          "zero spread everywhere and the bias pass "
                          "raises instead of failing the test")
def test_collapsed_reconstruction_fails_the_bias_test(ctx):
    verdict = evaluate_variable(
        ctx.ensemble.ensemble_field("FSDSC"), get_variant("APAX-5"),
        ctx.test_members, variable="FSDSC", run_bias=True,
    )
    assert not verdict.bias.passed
