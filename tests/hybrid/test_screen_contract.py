"""The selector's screen/full-evaluation calls, as tracing tools see them.

Traced benchmark runs wrap ``selector.evaluate_variable`` by name and
tell the cheap screen from the full evaluation by its ``run_bias``
keyword.  This wraps it the same way and pins the contract: every lossy
rung is screened with ``run_bias=False``, and ``run_bias=True`` follows
only a passing screen of the same rung.
"""

import functools

import pytest

from repro.compressors import method_families
from repro.hybrid import selector
from repro.store import storing


@pytest.fixture()
def calls(monkeypatch):
    """Record (variable, variant, run_bias, passed) per selector call."""
    seen = []
    real = selector.evaluate_variable

    @functools.wraps(real)
    def wrapper(*args, **kwargs):
        assert "run_bias" in kwargs, "run_bias must be passed by keyword"
        verdict = real(*args, **kwargs)
        seen.append((kwargs["variable"], args[1].variant,
                     kwargs["run_bias"], verdict.all_passed))
        return verdict

    monkeypatch.setattr(selector, "evaluate_variable", wrapper)
    with storing(None):
        yield seen


@pytest.mark.parametrize("family", ["fpzip", "SZ+BR"])
def test_every_lossy_rung_is_screened_before_its_full_evaluation(
    ensemble, calls, family
):
    names = ["FSDSC", "U", "Z3"]
    result = selector.build_hybrid(ensemble, family, variables=names)
    ladder = method_families(include_modern=True)[family]
    for name in names:
        mine = [c[1:] for c in calls if c[0] == name]
        chosen = result.choices[name]
        rungs = ladder[: ladder.index(chosen.variant) + 1]
        lossy = rungs[:-1] if chosen.lossless else rungs
        # One screen per lossy rung tried, in ladder order...
        assert [v for v, bias, _ in mine if not bias] == list(lossy)
        # ...and a full evaluation only straight after a passing screen
        # of the same rung.
        for i, (variant, bias, _) in enumerate(mine):
            if bias:
                assert i > 0 and mine[i - 1] == (variant, False, True)
        if not chosen.lossless:
            assert mine[-1] == (chosen.variant, True, True)
