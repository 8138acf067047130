"""The three pipeline workloads: inputs from a seed, set-up, timed units.

Each workload touches the program only through public entry points:

- ``table7`` and ``hybrid_szbr`` build an :class:`ExperimentContext` and
  call :func:`build_hybrid` once per (variable, family) ladder;
- ``convert`` synthesizes paper-scale fields with :class:`CAMModel`,
  writes uncompressed history files, converts them with
  :func:`convert_to_timeseries` and reads steps back with
  :meth:`TimeSeriesFile.read_step`.

A workload's timed phase is a sequence of units timed one by one, so
the output checks (run after the timed phase) and the benchmark's own
bookkeeping never count against the measured time.  Both workload
classes offer the same methods to ``run.py``: ``setup``, ``run``,
``check``, ``operations``, ``end_to_end``, ``layer_metrics``,
``describe`` and ``cleanup``.
"""

from __future__ import annotations

import hashlib
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import obs
from repro.compressors.registry import get_variant, method_families
from repro.config import RHO_THRESHOLD, ReproConfig
from repro.harness.experiments import ExperimentContext
from repro.hybrid.selector import build_hybrid
from repro.metrics.correlation import pearson
from repro.model.cam import CAMModel
from repro.ncio import (HistoryFile, TimeSeriesFile, convert_to_timeseries,
                        write_history)

MB = 1e6

#: Paper families plus the NC (lossless NetCDF-4) column, Table 7 order.
TABLE7_FAMILIES = ("GRIB2", "ISABELA", "fpzip", "APAX", "NetCDF-4")

#: One codec per family for the ``convert`` plan; every family lands on
#: exactly one 3-D variable, so the codec mix is the same for every seed.
CONVERT_CODECS = ("fpzip-24", "APAX-4", "GRIB2", "ISA-0.5", "SZ-rel-0.001",
                  "BR-10", "NetCDF-4")


@dataclass(frozen=True)
class Scale:
    """Problem sizes, pinned here rather than read from the environment."""

    ne: int
    nlev: int
    members: int
    #: table7: variables drawn (more than the ensemble's 8-slot field
    #: cache) and the minimum ladders per timed phase (three visits to
    #: every variable, each with a different family).
    table7_vars: int
    table7_ladders: int
    szbr_vars: int
    szbr_ladders: int
    convert_ne: int
    convert_nlev: int
    convert_steps: int
    convert_2d: int
    #: Minimum whole conversions per timed phase.
    min_writes: int
    #: Minimum timed ``read_step`` calls (at least 100 leaves 10 beyond
    #: p90).
    min_reads: int


BENCH = Scale(ne=6, nlev=8, members=101, table7_vars=9, table7_ladders=27,
              szbr_vars=24, szbr_ladders=24, convert_ne=30, convert_nlev=30,
              convert_steps=2, convert_2d=3, min_writes=3, min_reads=140)

#: Self-test size: every code path, a few seconds per workload.
TINY = Scale(ne=2, nlev=4, members=8, table7_vars=4, table7_ladders=5,
             szbr_vars=3, szbr_ladders=3, convert_ne=3, convert_nlev=4,
             convert_steps=2, convert_2d=2, min_writes=1, min_reads=20)

SCALES = {"bench": BENCH, "tiny": TINY}


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, int.from_bytes(tag.encode(), "little")])


def draw_variables(catalog, n: int, rng: np.random.Generator) -> list:
    """Draw ``n`` specs, alternating 3-D and 2-D (3-D first).

    Alternating keeps every prefix of the sequence balanced between the
    two shapes, whose ladders differ in cost by about 3x; a plain draw
    would let the seed decide most of a run's speed.
    """
    three = [s for s in catalog if s.dims == "3D"]
    two = [s for s in catalog if s.dims == "2D"]
    n3 = (n + 1) // 2
    pick3 = [three[i] for i in rng.choice(len(three), n3, replace=False)]
    pick2 = [two[i] for i in rng.choice(len(two), n - n3, replace=False)]
    return [pick3[k // 2] if k % 2 == 0 else pick2[k // 2] for k in range(n)]


def quantiles(values) -> tuple[float, float]:
    """(p50, p90) of ``values``, as :func:`statistics.quantiles` cuts them."""
    return (float(statistics.median(values)),
            float(statistics.quantiles(values, n=10)[8]))


def timed_units(run_unit, min_units: int, seconds: float,
                n_units: int | None = None) -> list:
    """Run units until both ``min_units`` and ``seconds`` of unit time.

    With ``n_units`` exactly that many run (the traced replay of an
    untraced pass).  Returns each unit's result in order.
    """
    results, busy, i = [], 0.0, 0
    while (i < n_units) if n_units is not None else (
            i < min_units or busy < seconds):
        res = run_unit(i)
        busy += res.seconds
        results.append(res)
        i += 1
    return results


# -- hybrid workloads --------------------------------------------------------

@dataclass
class Ladder:
    """One (variable, family) ladder: its choice, time and check inputs."""

    variable: str
    family: str
    seconds: float
    ensemble_bytes: int
    choice: object = None
    error: str = ""
    #: Copies of the three test members' fields, for the output check.
    members: list = field(default_factory=list, repr=False)


class HybridWorkload:
    """``build_hybrid`` ladders over seed-drawn variables at bench scale."""

    def __init__(self, name: str, families, n_vars: int, min_ladders: int,
                 scale: Scale, seed: int):
        self.name = name
        self.families = tuple(families)
        self.n_vars = n_vars
        self.min_ladders = min_ladders
        self.scale = scale
        self.seed = seed
        self.config = ReproConfig(ne=scale.ne, nlev=scale.nlev,
                                  n_members=scale.members)
        ladders = method_families(include_modern=True)
        ladders["NetCDF-4"] = ("NetCDF-4",)
        self.ladders = {f: ladders[f] for f in self.families}

    def setup(self) -> None:
        """``ExperimentContext.create``; then draw variables and members."""
        self.ctx = ExperimentContext.create(self.config)
        self.ensemble = self.ctx.ensemble
        rng = _rng(self.seed, self.name)
        self.variables = draw_variables(self.ensemble.catalog, self.n_vars,
                                        rng)
        self.test_members = self.ensemble.pick_members(3, seed=self.seed)

    def unit(self, i: int) -> tuple[str, str]:
        """The i-th ladder: variables and families both cycle, so a
        variable comes back (with another family) only after every other
        variable has been visited."""
        return (self.variables[i % len(self.variables)].name,
                self.families[i % len(self.families)])

    def run_unit(self, i: int) -> Ladder:
        variable, family = self.unit(i)
        t0 = time.perf_counter()
        try:
            with obs.span("bench.build_hybrid"):
                result = build_hybrid(self.ensemble, family, [variable],
                                      test_members=self.test_members)
        except Exception as exc:  # counted as a failed operation
            return Ladder(variable, family, time.perf_counter() - t0, 0,
                          error=f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - t0
        fields = self.ensemble.ensemble_field(variable)
        return Ladder(
            variable, family, seconds, int(fields.nbytes),
            choice=result.choices.get(variable),
            members=[fields[int(m)].copy() for m in self.test_members],
        )

    def run(self, seconds: float, like: list | None = None) -> list:
        """The timed phase (or a replay of the units of ``like``)."""
        return timed_units(self.run_unit, self.min_ladders, seconds,
                           None if like is None else len(like))

    def operations(self, ladders: list) -> int:
        return len(ladders)

    def layer_metrics(self, plain: list, traced: list, spans: dict) -> dict:
        """Ladder counts; a ladder's rungs are its screens plus the
        lossless rung when it ends there."""
        lossless = sum(bool(lad.choice and lad.choice.lossless)
                       for lad in traced)
        return {
            "hybrid.ladders": len(traced),
            "hybrid.rungs_per_var":
                (spans["pvt.screen_calls"] + lossless) / len(traced),
        }

    def cleanup(self) -> None:
        """Nothing on disk to remove."""

    def check(self, ladders: list) -> list[str]:
        """Re-round-trip every choice on the test members.

        A lossy choice must keep rho >= RHO_THRESHOLD on each member; a
        lossless one must reproduce each member bit for bit.  The CR the
        plan recorded (measured on the first test member) must match.
        Returns one message per failed ladder.
        """
        failures = []
        for lad in ladders:
            problem = lad.error or self._check_one(lad)
            if problem:
                failures.append(f"{lad.family}/{lad.variable}: {problem}")
        return failures

    def _check_one(self, lad: Ladder) -> str:
        choice = lad.choice
        if choice is None:
            return "no choice recorded"
        if choice.variant not in self.ladders[lad.family]:
            return f"{choice.variant} is not on the {lad.family} ladder"
        codec = get_variant(choice.variant)
        for k, original in enumerate(lad.members):
            blob = codec.compress(original)
            recon = codec.decompress(blob)
            if recon.shape != original.shape or recon.dtype != original.dtype:
                return f"{choice.variant} changed shape or dtype"
            if codec.is_lossless:
                if not np.array_equal(recon, original, equal_nan=True):
                    return f"lossless {choice.variant} altered member {k}"
            else:
                rho = pearson(original, recon)
                if not rho >= RHO_THRESHOLD:
                    return f"rho {rho:.7f} < {RHO_THRESHOLD} on member {k}"
            if k == 0:
                cr = len(blob) / original.nbytes
                if not np.isclose(cr, choice.cr, rtol=1e-12, atol=0.0):
                    return f"CR {cr} != recorded {choice.cr}"
        return ""

    def end_to_end(self, ladders: list) -> dict:
        """ops_per_s (ladders/s), mb_s (ensemble MB/s) and the plans' CR.

        ``cr`` pools the first ``min_ladders`` choices (every run has
        them), weighting each variable by its points, so it is a pure
        function of the seed.
        """
        busy = sum(lad.seconds for lad in ladders)
        head = [lad for lad in ladders[: self.min_ladders] if lad.choice]
        sizes = np.array([lad.choice.n_points for lad in head], float)
        crs = np.array([lad.choice.cr for lad in head], float)
        return {
            "ops_per_s": len(ladders) / busy,
            "mb_s": sum(lad.ensemble_bytes for lad in ladders) / MB / busy,
            "cr": float((crs * sizes).sum() / sizes.sum()) if head else 1.0,
        }

    def describe(self, ladders: list) -> str:
        head = ladders[: self.min_ladders]
        return (f"{len(ladders)} ladders over {self.n_vars} variables "
                f"(ne={self.scale.ne}, nlev={self.scale.nlev}, "
                f"{self.scale.members} members, test members "
                f"{[int(m) for m in self.test_members]}); cr over the first "
                f"{len(head)}")


# -- convert -----------------------------------------------------------------

@dataclass
class Timed:
    """One timed unit of the convert workload: a whole conversion
    (``key`` empty) or one ``read_step`` of ``key`` = (variable, step)."""

    seconds: float
    key: tuple = ()
    digest: str = ""


def _split(units: list) -> tuple[list, list]:
    return ([u for u in units if not u.key], [u for u in units if u.key])


def digest(arr: np.ndarray) -> str:
    """Dtype, shape and bytes of ``arr`` in one comparable string."""
    arr = np.ascontiguousarray(arr)
    h = hashlib.blake2b(arr.view(np.uint8).reshape(-1), digest_size=16)
    return f"{arr.dtype.str}{arr.shape}{h.hexdigest()}"


class ConvertWorkload:
    """Time-slice history files -> compressed time series -> random reads."""

    name = "convert"

    def __init__(self, scale: Scale, seed: int, workdir: Path):
        self.scale = scale
        self.seed = seed
        self.workdir = Path(workdir)
        self.config = ReproConfig(ne=scale.convert_ne,
                                  nlev=scale.convert_nlev)

    def setup(self) -> None:
        """Model construction plus writing the input history files.

        The time steps' coefficient rows are seeded standard-normal
        draws (the dycore emits standardized rows), so no dycore run is
        needed for a handful of time slices.
        """
        scale = self.scale
        rng = _rng(self.seed, self.name)
        self.model = CAMModel.from_config(self.config)
        catalog = self.model.catalog
        three = [s for s in catalog if s.dims == "3D"]
        two = [s for s in catalog if s.dims == "2D"]
        specs3 = [three[i] for i in rng.choice(len(three), len(CONVERT_CODECS),
                                               replace=False)]
        specs2 = [two[i] for i in rng.choice(len(two), scale.convert_2d,
                                             replace=False)]
        codecs3 = [CONVERT_CODECS[i]
                   for i in rng.permutation(len(CONVERT_CODECS))]
        codecs2 = [CONVERT_CODECS[i]
                   for i in rng.choice(len(CONVERT_CODECS), scale.convert_2d)]
        self.plan_names = {s.name: c for s, c in
                           zip(specs3 + specs2, codecs3 + codecs2)}
        steps = scale.convert_steps
        coeff = rng.standard_normal(
            (steps, self.model.synthesizer.n_coefficients))
        fields = {s.name: self.model.fields_for(s, coeff, np.arange(steps))
                  for s in specs3 + specs2}
        self.raw_bytes = sum(int(f.nbytes) for f in fields.values())
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        (self.workdir / "history").mkdir(parents=True)
        self.history = [
            write_history(self.workdir / "history" / f"h{k:03d}.nch",
                          {n: f[k] for n, f in fields.items()},
                          nlev=self.config.nlev, compression=None)
            for k in range(steps)
        ]
        self.pairs = [(n, k) for n in self.plan_names for k in range(steps)]

    @property
    def outdir(self) -> Path:
        return self.workdir / "timeseries"

    def write_unit(self, _i: int) -> Timed:
        plan = {n: get_variant(c) for n, c in self.plan_names.items()}
        t0 = time.perf_counter()
        with obs.span("bench.convert"):
            self.paths = convert_to_timeseries(self.history, self.outdir,
                                               plan=plan)
        return Timed(time.perf_counter() - t0)

    def read_rounds(self):
        """Seeded random order in whole rounds: every (variable, step)
        pair is read equally often, whatever the seed."""
        rng = _rng(self.seed, "reads")
        while True:
            yield [self.pairs[i] for i in rng.permutation(len(self.pairs))]

    def run(self, seconds: float, like: list | None = None) -> list:
        """Whole conversions, then ``read_step`` calls in whole rounds.

        Each half of the timed phase gets ``seconds / 2`` and runs to at
        least ``min_writes`` conversions or ``min_reads`` reads.  With
        ``like``, as many of each as there.
        """
        n_writes = n_reads = None
        if like is not None:
            n_writes, n_reads = map(len, _split(like))
        writes = timed_units(self.write_unit, self.scale.min_writes,
                             seconds / 2, n_writes)
        files = {n: TimeSeriesFile(p) for n, p in self.paths.items()}
        reads, busy = [], 0.0
        try:
            for order in self.read_rounds():
                if n_reads is not None:
                    order = order[: n_reads - len(reads)]
                for name, step in order:
                    t0 = time.perf_counter()
                    with obs.span("bench.read_step"):
                        out = files[name].read_step(step)
                    dt = time.perf_counter() - t0
                    busy += dt
                    reads.append(Timed(dt, (name, step), digest(out)))
                if n_reads is not None:
                    if len(reads) >= n_reads:
                        break
                elif len(reads) >= self.scale.min_reads and busy >= seconds / 2:
                    break
        finally:
            for f in files.values():
                f.close()
        return writes + reads

    def operations(self, units: list) -> int:
        return len(_split(units)[1])

    def check(self, units: list) -> list[str]:
        """Every read equals decompress(compress(x)) of its input step,
        bit for bit; a lossless codec's reads also equal x itself.

        Returns one message per failed read.
        """
        expected = {}
        for k, path in enumerate(self.history):
            with HistoryFile(path) as h:
                for name, codec_name in self.plan_names.items():
                    x = np.atleast_1d(h.get(name))
                    codec = get_variant(codec_name)
                    want = digest(codec.decompress(codec.compress(x)))
                    if codec.is_lossless and want != digest(x):
                        want = "lossless round trip altered the input"
                    expected[(name, k)] = want
        return [
            f"{r.key[0]} step {r.key[1]}: read differs from the in-memory "
            f"round trip ({expected[r.key]})"
            for r in _split(units)[1] if r.digest != expected[r.key]
        ]

    def chunk_sizes(self) -> dict:
        """Stored bytes of each (variable, step) chunk, from the footers."""
        sizes = {}
        for name, path in self.paths.items():
            with TimeSeriesFile(path) as f:
                for k, (_, nbytes) in enumerate(f.info(name).chunks):
                    sizes[(name, k)] = nbytes
        return sizes

    def archive_bytes(self) -> int:
        return sum(Path(p).stat().st_size for p in self.paths.values())

    def end_to_end(self, units: list) -> dict:
        """mb_s: raw MB written per second; ops_per_s: reads per second;
        cr: stored bytes over raw bytes."""
        writes, reads = _split(units)
        return {
            "ops_per_s": len(reads) / sum(r.seconds for r in reads),
            "mb_s": self.raw_bytes * len(writes) / MB
            / sum(w.seconds for w in writes),
            "cr": self.archive_bytes() / self.raw_bytes,
        }

    def layer_metrics(self, plain: list, traced: list, spans: dict) -> dict:
        """Bytes on disk for the traced pass; read latency percentiles
        from the untraced one."""
        sizes = self.chunk_sizes()
        writes, reads = _split(traced)
        p50, p90 = quantiles([r.seconds for r in _split(plain)[1]])
        return {
            "ncio.bytes_written": self.archive_bytes() * len(writes),
            "ncio.bytes_read": sum(sizes[r.key] for r in reads),
            "ncio.reads": len(_split(plain)[1]),
            "ncio.read_step_p50_s": p50,
            "ncio.read_step_p90_s": p90,
        }

    def describe(self, units: list) -> str:
        writes, reads = _split(units)
        return (f"{len(self.plan_names)} variables x "
                f"{self.scale.convert_steps} steps = "
                f"{self.raw_bytes / MB:.1f} MB raw (ne={self.scale.convert_ne},"
                f" nlev={self.scale.convert_nlev}); {len(writes)} conversions,"
                f" {len(reads)} reads")

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def make(name: str, scale: Scale, seed: int, workdir: Path):
    """The workload called ``name``."""
    if name == "table7":
        return HybridWorkload("table7", TABLE7_FAMILIES, scale.table7_vars,
                              scale.table7_ladders, scale, seed)
    if name == "hybrid_szbr":
        return HybridWorkload("hybrid_szbr", ("SZ+BR",), scale.szbr_vars,
                              scale.szbr_ladders, scale, seed)
    if name == "convert":
        return ConvertWorkload(scale, seed, workdir)
    raise KeyError(name)

