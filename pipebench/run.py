"""Pipeline benchmark: Table 7 build, SZ+BR ladder, time-series conversion.

Run from the repository root::

    python3 pipebench/run.py --workload table7 --seed 0 --seconds 5 --trace 0

Workloads (see ``pipebench/README.md`` for why each was chosen):

``table7``       build_hybrid ladders for the paper's families plus NC;
``hybrid_szbr``  build_hybrid ladders for the mixed SZ+BR family;
``convert``      convert_to_timeseries and random-order read_step at
                 paper-scale grid size.

``--trace 0`` measures with tracing off and prints the end-to-end
metrics; ``--trace 1`` makes one untraced pass, replays the same units
traced, prints the per-layer split plus the tracing overhead and writes
the spans to ``pipebench/.out/``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program is imported from ``src/`` of the checkout; every
``REPRO_*`` variable is removed first, so runs are cold and comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "mb_s": "MB/s",
    "cr": "ratio",
    "peak_rss_mb": "MB",
}

_CODEC_FAMILIES = ("SZ", "BR", "fpzip", "APAX", "GRIB2", "ISA", "NC")

PER_LAYER = {
    "harness.context_s": "s",
    "model.dycore_s": "s",
    "model.synth_calls": "count",
    "model.synth_s": "s",
    "model.field_hit_ratio": "ratio",
    "pvt.context_calls": "count",
    "pvt.context_s": "s",
    "pvt.screen_calls": "count",
    "pvt.screen_s": "s",
    "pvt.bias_calls": "count",
    "pvt.bias_s": "s",
    "pvt.rung_pass_ratio": "ratio",
    "compressors.roundtrips": "count",
    "compressors.compress_calls": "count",
    "compressors.decompress_calls": "count",
    "compressors.compress_s": "s",
    "compressors.decompress_s": "s",
    "compressors.bytes_in": "bytes",
    "compressors.bytes_out": "bytes",
    **{f"compressors.compress_mb_s.{f}": "MB/s" for f in _CODEC_FAMILIES},
    **{f"compressors.decompress_mb_s.{f}": "MB/s" for f in _CODEC_FAMILIES},
    "hybrid.ladders": "count",
    "hybrid.build_s": "s",
    "hybrid.self_s": "s",
    "hybrid.rungs_per_var": "count",
    "ncio.write_self_s": "s",
    "ncio.read_self_s": "s",
    "ncio.bytes_written": "bytes",
    "ncio.bytes_read": "bytes",
    "ncio.reads": "count",
    "ncio.read_step_p50_s": "s",
    "ncio.read_step_p90_s": "s",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("table7", "hybrid_szbr", "convert"))
    p.add_argument("--seed", type=int, default=0,
                   help="input seed (default 0)")
    p.add_argument("--seconds", type=float, default=5.0,
                   help="minimum busy seconds of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("bench", "tiny"), default="bench",
                   help="problem size; tiny is for the self-test")
    return p.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def busy(units) -> float:
    return sum(u.seconds for u in units)


def run_timed(args, wl) -> tuple[list, int, dict]:
    """Set up once, cold, then measure with tracing off."""
    try:
        t0 = time.perf_counter()
        wl.setup()
        setup_s = time.perf_counter() - t0
        units = wl.run(args.seconds)
        failures = wl.check(units)
        metrics = wl.end_to_end(units)
        print(wl.describe(units))
    finally:
        wl.cleanup()
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = peak_rss_mb()
    return failures, wl.operations(units), metrics


def run_traced(args, wl) -> tuple[list, int, dict]:
    """Set up traced, make an untraced pass, replay it traced."""
    from repro import obs

    import layers

    sink = obs.BufferSink()
    try:
        with layers.instrumented(sink):
            wl.setup()
        plain = wl.run(args.seconds)
        with layers.instrumented(sink):
            traced = wl.run(args.seconds, like=plain)
        failures = wl.check(plain + traced)
        tree = layers.SpanTree(sink.events)
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(layers.per_layer(tree))
        metrics.update(wl.layer_metrics(plain, traced, metrics))
        print(wl.describe(plain))
    finally:
        wl.cleanup()
    metrics["trace.untraced_s"] = busy(plain)
    metrics["trace.traced_s"] = busy(traced)
    metrics["trace.overhead_s"] = busy(traced) - busy(plain)
    metrics["trace.overhead_ratio"] = metrics["trace.overhead_s"] / busy(plain)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tree.dump(trace_path)
    print(f"spans: {len(tree.spans)} written to {trace_path.relative_to(ROOT)}")
    return failures, wl.operations(plain + traced), metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    import workloads

    # numpy seeds must be non-negative; this leaves those unchanged.
    seed = args.seed % (1 << 63)
    wl = workloads.make(args.workload, workloads.SCALES[args.scale], seed,
                        OUT / f"work-{args.workload}-{seed}-{os.getpid()}")
    run = run_traced if args.trace else run_timed
    failures, attempted, metrics = run(args, wl)
    units = PER_LAYER if args.trace else END_TO_END
    for msg in failures:
        print(f"FAILED: {msg}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:36s} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": int(attempted),
        "failed": len(failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
