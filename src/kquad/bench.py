"""Experiment harness: datasets, method sweeps, timing, and CSV output.

A sweep runs one cell per (method, trial).  A cell builds the method's rule
at every m of the grid through ``quadrature.compress_grid``, which gives each
rule its exact worst-case error against the configured target.  The run
computes the target's kernel mean at every data point once, and every rule's
moments and the f and f/P greedy criteria come from it: with
``target = data`` that is one Theta(n^2) pass, which also gives the error's
self-product, and with ``target = unit-cube`` it is the constant 1.  The work
that does not depend on m is done once per cell: arls draws its pilot
leverage scores from a score stream keyed by (master_seed, method, trial),
then draws each m's nodes from a draw stream keyed by (master_seed, method,
m, trial); uniform, uniform-wr and monte-carlo draw from the draw stream
only.  The streams come from a counter-based seed mix, so a row depends only
on its own key: not on the worker count, nor on the other m of the grid.
Deterministic (greedy) methods run one cell, selecting once at the largest
m and taking the first m nodes for each m; their rows are replicated across
trial rows with trial = 0.  The shared pilot or greedy time is counted in
the ``sample_time_s`` of the cell's first (smallest) m.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError
from .kernels import _as_points, parse_kernel
from .quadrature import (
    GREEDY,
    METHODS,
    TargetMeasure,
    _read_lines,
    compress_grid,
    target_moments,
)
from .specs import parse_spec

# Stable stream ids for the counter-based seed mix.
_METHOD_IDS = {name: i for i, name in enumerate(METHODS)}
_DATA_STREAM = 101
_BANDWIDTH_STREAM = 102

# Dataset spec schemas: kind -> accepted keys and their value parsers.
_SYNTHETIC = {
    "uniform_cube": {"d": int},
    "gaussian_mixture": {"d": int, "k": int, "sep": float},
}
_DATASETS = {**_SYNTHETIC, "csv": {"path": str}}

RAW_HEADER = "method,m,trial,error,sample_time_s,weight_time_s,total_time_s"
SUMMARY_HEADER = "method,m,error_median,error_std,time_median"


@dataclass
class Dataset:
    """n points in d dimensions, optionally standardized per feature."""

    points: np.ndarray
    name: str = "data"
    standardized: bool = False


@dataclass
class ExperimentConfig:
    dataset: str = ""  # uniform_cube:d=..., gaussian_mixture:d=..,k=..,sep=.., csv:path=...
    kernel: str = "gaussian:sigma=median"
    methods: tuple = ("uniform",)
    m_grid: tuple = (16,)
    trials: int = 1
    master_seed: int = 0
    output: str = "results.csv"
    n: int | None = None  # synthetic dataset size
    data_seed: int | None = None  # None -> derived from master_seed
    standardize: bool = False
    target: str = "data"  # data | unit-cube
    timings: bool = True  # False zeroes the time columns for byte-stable CSVs
    median_subset: int = 1000
    workers: int = 1
    allow_large_n: bool = False  # lift the n <= 2^14 cap on quadratic error evaluation


@dataclass(frozen=True)
class ResultRow:
    method: str
    m: int
    trial: int
    error: float
    sample_time_s: float
    weight_time_s: float
    total_time_s: float


@dataclass
class ExperimentResult:
    rows: list = field(default_factory=list)


@dataclass(frozen=True)
class SummaryRow:
    method: str
    m: int
    error_median: float
    error_std: float
    time_median: float


def derive_rng(master_seed: int, *stream) -> np.random.Generator:
    """Independent generator for the given stream key; schedule-invariant."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=tuple(stream)))


def standardize_points(points: np.ndarray) -> np.ndarray:
    """Center each column and scale to unit (population) variance."""
    P = np.asarray(points, dtype=np.float64)
    std = P.std(axis=0)
    if np.any(std == 0.0):
        col = int(np.nonzero(std == 0.0)[0][0]) + 1
        raise InputError(f"column {col} has zero variance; cannot standardize")
    return (P - P.mean(axis=0)) / std


def _write_rows(path, rows) -> None:
    """Write rows of cells through the csv module, with minimal quoting (a
    method spec with a comma stays one cell) and newline line endings."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def load_csv(path, standardize: bool = False, delimiter: str = ",") -> Dataset:
    """Read a numeric CSV into a Dataset.

    A non-numeric first row is treated as a header and skipped.  Ragged rows
    and non-numeric cells raise with their location.
    """
    lines = [line.rstrip("\n").rstrip("\r") for line in _read_lines(path)]
    lines = [line for line in lines if line.strip()]
    if not lines:
        raise InputError(f"{path}: empty file")

    def parse_row(line, rownum):
        cells = [c.strip() for c in line.split(delimiter)]
        values = []
        for c, cell in enumerate(cells):
            try:
                values.append(float(cell))
            except ValueError:
                raise InputError(f"{path}: non-numeric cell at row {rownum}, column {c + 1}")
        return values

    start = 0
    try:
        first = parse_row(lines[0], 1)
    except InputError:
        start = 1
        if len(lines) == 1:
            raise InputError(f"{path}: header only, no data rows")
        first = parse_row(lines[1], 2)
    width = len(first)
    rows = [first]
    for i, line in enumerate(lines[start + 1 :], start=start + 2):
        row = parse_row(line, i)
        if len(row) != width:
            raise InputError(f"{path}: ragged row {i} has {len(row)} cells, expected {width}")
        rows.append(row)
    points = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(points)):
        raise InputError(f"{path}: non-finite values")
    if standardize:
        points = standardize_points(points)
    return Dataset(points=points, name=os.path.basename(str(path)), standardized=standardize)


def _mixture_centers(d: int, k: int, separation: float, rng: np.random.Generator) -> np.ndarray:
    """k well-separated centers: signed coordinate axes first, then random
    directions at growing radius for k > 2d."""
    centers = []
    for j in range(min(k, 2 * d)):
        e = np.zeros(d)
        e[j % d] = separation if j < d else -separation
        centers.append(e)
    for j in range(len(centers), k):
        v = rng.standard_normal(d)
        v *= separation * (1.0 + (j - 2 * d + 1) / (2.0 * d)) / np.linalg.norm(v)
        centers.append(v)
    return np.asarray(centers)


def gen_synthetic(spec: str, n: int, seed: int) -> Dataset:
    """Deterministic synthetic dataset.

    ``uniform_cube:d=<int>`` draws n points uniformly from [0, 1)^d;
    ``gaussian_mixture:d=<int>,k=<int>,sep=<float>`` draws from k unit-variance
    components with centers ``sep`` apart.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    kind, params = parse_spec(spec, "dataset", _SYNTHETIC)
    for key in ("d", "k"):
        if params.get(key, 1) < 1:
            raise InputError(f"dataset {key} must be >= 1, got {params[key]}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if kind == "uniform_cube":
        d = params.get("d", 1)
        return Dataset(points=rng.random((n, d)), name=f"uniform_cube(d={d})")
    d, k, sep = params.get("d", 2), params.get("k", 3), params.get("sep", 5.0)
    centers = _mixture_centers(d, k, sep, rng)
    labels = rng.integers(0, k, size=n)
    pts = centers[labels] + rng.standard_normal((n, d))
    return Dataset(points=pts, name=f"gaussian_mixture(d={d},k={k},sep={sep})")


def _resolve_dataset(config: ExperimentConfig) -> Dataset:
    kind, params = parse_spec(config.dataset, "dataset", _DATASETS)
    if kind == "csv":
        if not params.get("path"):
            raise InputError("csv dataset needs path=<file>")
        return load_csv(params["path"], standardize=config.standardize)
    if config.n is None:
        raise InputError("synthetic datasets need n")
    seed = config.data_seed
    if seed is None:
        seed = int(derive_rng(config.master_seed, _DATA_STREAM).integers(2**63))
    ds = gen_synthetic(config.dataset, config.n, seed)
    if config.standardize:
        ds.points = standardize_points(ds.points)
        ds.standardized = True
    return ds


def _validate(config: ExperimentConfig, n: int) -> tuple[tuple, dict]:
    """Check the config against the dataset size; return the m grid and
    each method's head."""
    grid = tuple(int(m) for m in config.m_grid)
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise InputError("m_grid must be strictly increasing")
    if grid[0] < 1:
        raise InputError("m_grid values must be >= 1")
    if grid[-1] > n:
        raise InputError(f"largest m {grid[-1]} exceeds dataset size {n}")
    if config.trials < 1:
        raise InputError("trials must be >= 1")
    if config.workers < 1:
        raise InputError(f"workers must be >= 1, got {config.workers}")
    if not config.methods:
        raise InputError("need at least one method")
    heads = {method: parse_spec(method, "method", METHODS)[0] for method in config.methods}
    if config.target not in ("data", "unit-cube"):
        raise InputError("target must be 'data' or 'unit-cube'")
    if config.target == "data" and n > 2**14 and not config.allow_large_n:
        raise InputError(
            f"n = {n} exceeds 2^14 and the discrete-target error evaluation is "
            "quadratic in n; set allow_large_n = true to proceed"
        )
    return grid, heads


def run_experiment(config: ExperimentConfig, dataset: Dataset | None = None) -> ExperimentResult:
    """Execute the full method x m x trial sweep described by the config."""
    for key in ("master_seed", "data_seed"):
        seed = getattr(config, key)
        if seed is not None and seed < 0:
            raise InputError(f"{key} must be >= 0, got {seed}")
    ds = dataset if dataset is not None else _resolve_dataset(config)
    points = _as_points(ds.points)
    grid, heads = _validate(config, points.shape[0])

    kernel = parse_kernel(
        config.kernel,
        points=points,
        rng=derive_rng(config.master_seed, _BANDWIDTH_STREAM),
        median_subset=config.median_subset,
    )
    # None is the discrete measure on the points, whose self-product comes
    # from the same kernel mean as every rule's moments
    target = TargetMeasure.unit_cube(points.shape[1]) if config.target == "unit-cube" else None
    kme = target_moments(kernel, points, target or TargetMeasure.discrete(points))

    def run_cell(method: str, trial: int | None) -> list[ResultRow]:
        mid, tkey = _METHOD_IDS[heads[method]], (() if trial is None else (trial,))
        rules = compress_grid(
            points,
            kernel,
            method,
            grid,
            derive_rng(config.master_seed, mid, *tkey),  # score stream
            target,
            kme,
            draw_rng=lambda m: derive_rng(config.master_seed, mid, m, *tkey),
        )
        rows = []
        for m in grid:
            try:
                rule = next(rules)
            except (InputError, NumericalError) as exc:
                raise type(exc)(f"method={method} m={m} trial={trial}: {exc}") from exc
            ts, tw = rule.sample_time_s, rule.weight_time_s
            if trial is None:  # deterministic method: replicate across trial rows
                rows += [ResultRow(method, m, 0, rule.error, ts, tw, ts + tw)] * config.trials
            else:
                rows.append(ResultRow(method, m, trial, rule.error, ts, tw, ts + tw))
        return rows

    tasks = []
    for method in config.methods:
        if heads[method] in GREEDY:
            tasks.append((method, None))
        else:
            tasks.extend((method, t) for t in range(config.trials))

    if config.workers == 1:
        chunks = [run_cell(*task) for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            chunks = list(pool.map(lambda t: run_cell(*t), tasks))
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r.method, r.m, r.trial))
    return ExperimentResult(rows=rows)


def summarize(result: ExperimentResult) -> list[SummaryRow]:
    """Per-(method, m) medians and sample standard deviations.

    Medians use the midpoint of the two central values for even counts; a
    single trial reports standard deviation 0 by convention.
    """
    if not result.rows:
        raise InputError("empty experiment result")
    groups: dict[tuple[str, int], list[ResultRow]] = {}
    for row in result.rows:
        groups.setdefault((row.method, row.m), []).append(row)
    out = []
    for (method, m), rows in sorted(groups.items()):
        errors = np.array([r.error for r in rows])
        times = np.array([r.total_time_s for r in rows])
        std = float(errors.std(ddof=1)) if errors.size > 1 else 0.0
        out.append(
            SummaryRow(
                method=method,
                m=m,
                error_median=float(np.median(errors)),
                error_std=std,
                time_median=float(np.median(times)),
            )
        )
    return out


def _fmt(x: float) -> str:
    return repr(float(x))


def write_raw_csv(result: ExperimentResult, path, timings: bool = True) -> None:
    """Raw rows, one per (method, m, trial).  With timings off the time
    columns are written as zeros so reruns are byte-identical."""
    rows = [RAW_HEADER.split(",")]
    for r in result.rows:
        ts, tw, tt = (r.sample_time_s, r.weight_time_s, r.total_time_s) if timings else (0, 0, 0)
        rows.append([r.method, r.m, r.trial, *map(_fmt, (r.error, ts, tw, tt))])
    _write_rows(path, rows)


def write_summary_csv(summary: list, path, timings: bool = True) -> None:
    rows = [SUMMARY_HEADER.split(",")]
    for s in summary:
        tm = s.time_median if timings else 0.0
        rows.append([s.method, s.m, *map(_fmt, (s.error_median, s.error_std, tm))])
    _write_rows(path, rows)


def read_summary_csv(path) -> list:
    reader = csv.reader(_read_lines(path))
    try:
        rows = [(reader.line_num, [c.strip() for c in row]) for row in reader]
    except csv.Error as exc:  # e.g. a cell beyond the csv module's field size limit
        raise InputError(f"{path}:{reader.line_num}: {exc}") from None
    rows = [(lineno, cells) for lineno, cells in rows if any(cells)]
    header = SUMMARY_HEADER.split(",")
    if not rows or rows[0][1] != header:
        raise InputError(f"{path}: not a summary CSV")
    out = []
    for lineno, cells in rows[1:]:
        line = ",".join(cells)
        if len(cells) != len(header):
            raise InputError(f"{path}:{lineno}: {len(cells)} cells, expected {len(header)}")
        method, m, med, std, tmed = cells
        try:
            row = SummaryRow(method, int(m), float(med), float(std), float(tmed))
        except ValueError:
            raise InputError(f"{path}:{lineno}: non-numeric value in {line!r}") from None
        if not all(map(math.isfinite, (row.error_median, row.error_std, row.time_median))):
            raise InputError(f"{path}:{lineno}: non-finite value in {line!r}")
        out.append(row)
    return out


_BOOL = {"true": True, "on": True, "yes": True, "false": False, "off": False, "no": False}

_CONFIG_KEYS = {
    "dataset": str,
    "kernel": str,
    "methods": "list",
    "m_grid": "intlist",
    "trials": int,
    "master_seed": int,
    "output": str,
    "n": int,
    "data_seed": int,
    "standardize": "bool",
    "target": str,
    "timings": "bool",
    "median_subset": int,
    "workers": int,
    "allow_large_n": "bool",
}


def _split_methods(value: str) -> tuple:
    """Split a methods list on commas; a ``key=value`` token without ``:``
    continues the parameters of the method before it."""
    methods = []
    for token in (v.strip() for v in value.split(",")):
        if methods and "=" in token and ":" not in token:
            methods[-1] += "," + token
        elif token:
            methods.append(token)
    return tuple(methods)


def parse_config(path) -> ExperimentConfig:
    """Flat ``key = value`` config file, ``#`` comments, one experiment per file."""
    values = {}
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise InputError(f"{path}:{lineno}: expected 'key = value'")
        key, value = key.strip().lower(), value.strip()
        if key not in _CONFIG_KEYS:
            raise InputError(f"{path}:{lineno}: unknown key {key!r}")
        kind = _CONFIG_KEYS[key]
        try:
            if kind == "list":
                values[key] = _split_methods(value)
            elif kind == "intlist":
                values[key] = tuple(int(v) for v in value.split(",") if v.strip())
            elif kind == "bool":
                values[key] = _BOOL[value.lower()]
            else:
                values[key] = kind(value)
        except (ValueError, KeyError) as exc:
            raise InputError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    missing = {"dataset", "kernel", "methods", "m_grid", "trials", "master_seed", "output"} - set(
        values
    )
    if missing:
        raise InputError(f"{path}: missing required keys {sorted(missing)}")
    return ExperimentConfig(**values)


def summary_path_for(raw_path: str) -> str:
    stem, ext = os.path.splitext(raw_path)
    return f"{stem}_summary{ext or '.csv'}"


def run_to_files(config: ExperimentConfig) -> tuple[str, str]:
    """Run the experiment and write the raw and summary CSVs."""
    result = run_experiment(config)
    write_raw_csv(result, config.output, timings=config.timings)
    spath = summary_path_for(config.output)
    write_summary_csv(summarize(result), spath, timings=config.timings)
    return config.output, spath
