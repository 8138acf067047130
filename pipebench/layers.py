"""The traced run: spans at layer boundaries and the per-layer split.

Spans come from two places, both recorded in memory by one
:class:`repro.obs.BufferSink` and written out when the run ends:

- the program's own spans (``harness.context``, ``pvt.*``,
  ``compressors.*``), emitted while tracing is on;
- ``bench.*`` spans this benchmark opens around the public calls it
  makes (``build_hybrid``, ``convert_to_timeseries``, ``read_step``) and
  around public methods it wraps for the traced pass only
  (:func:`instrumented`): the dycore run, field synthesis, ensemble
  field requests and ``evaluate_variable``.

A layer's self time is its spans' duration minus the time their direct
children cover.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from repro import obs
from repro.hybrid import selector
from repro.model.cam import CAMModel
from repro.model.dycore import Lorenz96
from repro.model.ensemble import CAMEnsemble

MB = 1e6

#: Codec families reported per layer, by variant-name prefix.
FAMILIES = {"SZ": "SZ-", "BR": "BR-", "fpzip": "fpzip", "APAX": "APAX",
            "GRIB2": "GRIB2", "ISA": "ISA", "NC": "NetCDF-4"}


def family_of(variant: str) -> str | None:
    for fam, prefix in FAMILIES.items():
        if variant.startswith(prefix):
            return fam
    return None


def _evaluate_span(fn):
    """``evaluate_variable`` as ``bench.screen`` (``run_bias=False``) or
    ``bench.evaluate_full`` (``run_bias=True``), noting the verdict."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = ("bench.evaluate_full" if kwargs.get("run_bias", True)
                else "bench.screen")
        with obs.span(name) as sp:
            verdict = fn(*args, **kwargs)
            sp.note(passed=bool(verdict.all_passed))
        return verdict

    return wrapper


def _spanned(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.span(name):
            return fn(*args, **kwargs)

    return wrapper


@contextmanager
def instrumented(sink):
    """Trace into ``sink`` with the public layer methods wrapped.

    The wrappers are installed on the classes (and the selector's
    module namespace) for the block only and always restored, so the
    untraced passes run the program untouched.
    """
    targets = [
        (Lorenz96, "run_ensemble", _spanned("bench.dycore",
                                            Lorenz96.run_ensemble)),
        (CAMModel, "fields_for", _spanned("bench.fields_for",
                                          CAMModel.fields_for)),
        (CAMEnsemble, "ensemble_field",
         _spanned("bench.ensemble_field", CAMEnsemble.ensemble_field)),
        (selector, "evaluate_variable",
         _evaluate_span(selector.evaluate_variable)),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, wrapper in targets:
            setattr(owner, attr, wrapper)
        with obs.tracing(sinks=[sink]):
            yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


class SpanTree:
    """Completed spans indexed by id, with direct children per span."""

    def __init__(self, records):
        self.spans = [r for r in records if isinstance(r, obs.SpanRecord)]
        self.children = defaultdict(list)
        for s in self.spans:
            if s.parent_id is not None:
                self.children[s.parent_id].append(s)

    def named(self, name: str, under: str | None = None) -> list:
        """Spans called ``name`` (only those below an ``under`` span)."""
        found = [s for s in self.spans if s.name == name]
        if under is None:
            return found
        ids = {s.span_id for s in self.spans if s.name == under}
        by_id = {s.span_id: s for s in self.spans}
        out = []
        for s in found:
            p = s.parent_id
            while p is not None and p not in ids:
                p = by_id[p].parent_id if p in by_id else None
            if p is not None:
                out.append(s)
        return out

    def self_time(self, spans) -> float:
        return sum(s.duration - sum(c.duration for c in self.children[s.span_id])
                   for s in spans)

    def outermost(self, name: str) -> list:
        """``name`` spans not nested in another span of the same name."""
        by_id = {s.span_id: s for s in self.spans}
        return [s for s in self.named(name)
                if s.parent_id not in by_id or by_id[s.parent_id].name != name]

    def dump(self, path: Path) -> None:
        """Write every span as name, start, end and parent."""
        by_id = {s.span_id: s for s in self.spans}
        rows = [{
            "name": s.name, "start": s.ts, "end": s.ts + s.duration,
            "parent": by_id[s.parent_id].name if s.parent_id in by_id else None,
            "id": s.span_id, "parent_id": s.parent_id,
            "meta": {k: v for k, v in s.meta.items()
                     if isinstance(v, (str, int, float, bool))},
        } for s in sorted(self.spans, key=lambda s: s.ts)]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows, indent=0))


def _total(spans) -> float:
    return float(sum(s.duration for s in spans))


def _ratio(num: float, den: float) -> float:
    return float(num / den) if den else 0.0


def per_layer(tree: SpanTree) -> dict:
    """Every per-layer metric the spans alone determine.

    Workload-specific counts (ladders, reads, bytes on disk) and the
    tracing overhead are added by the caller.
    """
    m: dict[str, float] = {}
    m["harness.context_s"] = _total(tree.named("harness.context"))
    m["model.dycore_s"] = _total(tree.named("bench.dycore"))
    synth = tree.named("bench.fields_for")
    m["model.synth_calls"] = len(synth)
    m["model.synth_s"] = _total(synth)
    fields = tree.named("bench.ensemble_field", under="bench.build_hybrid")
    hits = [f for f in fields if not any(
        c.name == "bench.fields_for" for c in tree.children[f.span_id])]
    m["model.field_hit_ratio"] = _ratio(len(hits), len(fields))

    ctx = tree.named("pvt.context")
    m["pvt.context_calls"] = len(ctx)
    m["pvt.context_s"] = _total(ctx)
    screens = tree.named("bench.screen")
    full = tree.named("bench.evaluate_full")
    m["pvt.screen_calls"] = len(screens)
    m["pvt.screen_s"] = _total(screens)
    m["pvt.bias_calls"] = len(full)
    m["pvt.bias_s"] = _total(full)
    m["pvt.rung_pass_ratio"] = _ratio(
        sum(bool(s.meta.get("passed")) for s in screens), len(screens))

    comp = tree.outermost("compressors.compress")
    decomp = tree.outermost("compressors.decompress")
    m["compressors.roundtrips"] = len(tree.named("compressors.roundtrip"))
    m["compressors.compress_calls"] = len(comp)
    m["compressors.decompress_calls"] = len(decomp)
    m["compressors.compress_s"] = _total(comp)
    m["compressors.decompress_s"] = _total(decomp)
    m["compressors.bytes_in"] = sum(int(s.meta.get("bytes", 0)) for s in comp)
    m["compressors.bytes_out"] = sum(int(s.meta.get("bytes_out", 0))
                                     for s in comp)
    for fam in FAMILIES:
        for kind, spans in (("compress", comp), ("decompress", decomp)):
            mine = [s for s in spans
                    if family_of(str(s.meta.get("codec", ""))) == fam]
            nbytes = sum(int(s.meta.get("bytes", 0)) for s in mine)
            m[f"compressors.{kind}_mb_s.{fam}"] = _ratio(nbytes / MB,
                                                         _total(mine))

    builds = tree.named("bench.build_hybrid")
    m["hybrid.build_s"] = _total(builds)
    m["hybrid.self_s"] = tree.self_time(builds)
    m["ncio.write_self_s"] = tree.self_time(tree.named("bench.convert"))
    m["ncio.read_self_s"] = tree.self_time(tree.named("bench.read_step"))
    return m
