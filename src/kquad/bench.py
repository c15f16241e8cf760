"""Experiment harness: datasets, method sweeps, timing, and every file format.

A sweep runs one cell per (method, trial), one after another; ``workers`` is
accepted (>= 1) but selects nothing.  A cell builds the method's rule at every
m of the grid through ``quadrature.compress_grid``, which gives each rule its
exact worst-case error against the configured target.  The run computes the
target's embedding once, ``quadrature.target_embedding``: its kernel mean at
every data point, which gives every rule's moments and the f and f/P greedy
criteria, and its self-product (one Theta(n^2) pass for ``target = data``,
the constants 1 for ``target = unit-cube``).  The work that does not depend on
m is done once per cell: arls draws its pilot leverage scores from a score
stream keyed by (master_seed, method, trial), then draws each m's nodes from a
draw stream keyed by (master_seed, method, m, trial); uniform, uniform-wr and
monte-carlo draw from the draw stream only.  The streams come from a
counter-based seed mix, so a row depends only on its own key: not on the other
cells, nor on the other m of the grid.  Deterministic (greedy) methods run only
the trial-0 cell, selecting once at the largest m and taking the first m nodes
for each m; its rows are replicated across the trial rows.  The shared pilot
or greedy time is counted in the ``sample_time_s`` of the cell's first
(smallest) m.

Every kquad file is read and written here, each CSV in the csv module's
dialect and written by one writer, ``_write_rows``.  Rule and summary files
are split into rows by ``_csv_rows``.  A data file is tokenized by numpy's C
parser, ``_tokenize``; where numpy refuses a cell, ``_parse_rows`` reads its
csv rows one by one and names the bad row.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .errors import InputError, NumericalError
from .kernels import _as_points, parse_kernel
from .quadrature import (
    GREEDY, METHODS, QuadratureRule, TargetMeasure, compress_grid, target_embedding
)
from .specs import parse_spec

# Stable stream ids for the counter-based seed mix.
_METHOD_IDS = {name: i for i, name in enumerate(METHODS)}
_DATA_STREAM = 101
_BANDWIDTH_STREAM = 102

# The largest data-target n, and m, that kquad run and kquad compress take unless
# allowed: the kernel mean is quadratic in n, the node Gram and error walk in m.
LARGE_N = 2**14


def check_size(name: str, value: int, allow: bool) -> None:
    """Refuse an n or m above ``LARGE_N`` unless ``allow``."""
    if value > LARGE_N and not allow:
        raise InputError(
            f"{name} = {value} exceeds {LARGE_N} and the kernel passes are quadratic in {name}; "
            "set allow_large_n = true or pass --allow-large-n to proceed"
        )


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
    """n points in d dimensions."""

    points: np.ndarray


@dataclass
class ExperimentConfig:
    dataset: str  # uniform_cube:d=..., gaussian_mixture:d=..,k=..,sep=.., csv:path=...
    kernel: str
    methods: tuple
    m_grid: tuple
    trials: int
    master_seed: int
    output: str
    n: int | None = None  # synthetic dataset size; refused for csv
    data_seed: int | None = None  # None -> derived from master_seed; refused for csv
    standardize: bool = False
    target: str = "data"  # data | unit-cube
    timings: bool = True  # False zeroes the time columns for byte-stable CSVs
    workers: int = 1  # accepted, must be >= 1; cells run one after another
    allow_large_n: bool = False  # lift the n, m <= LARGE_N cap on the quadratic kernel passes


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
    """Center each column and scale to unit (population) variance.

    Each column is first divided by the power of two 2^(e-1), where
    2^(e-1) <= max |column| < 2^e, so its values lie within 2 in magnitude
    and their squared deviations cannot overflow, however large the
    coordinates.  Scaling by a power of two is exact and cancels in
    (x - mean) / std, so a column whose values and deviations are normal
    floats keeps the bits of the unscaled formula.
    """
    P = np.asarray(points, dtype=np.float64)
    P = P / np.ldexp(1.0, np.frexp(np.max(np.abs(P), axis=0))[1] - 1)
    std = P.std(axis=0)
    if np.any(std == 0.0):
        col = int(np.nonzero(std == 0.0)[0][0]) + 1
        raise InputError(f"column {col} has zero variance; cannot standardize")
    return (P - P.mean(axis=0)) / std


def _read_lines(path) -> list:
    """The lines of a UTF-8 text file, a leading byte-order mark dropped; any
    other bytes are an input error that names the file."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.readlines()
    except UnicodeDecodeError:
        raise InputError(f"{path}: not UTF-8 text") from None


def _csv_rows(path, lines):
    """Yield (line number, cells) for each CSV row of ``lines`` with a non-blank
    cell; the csv module splits the rows, so a quoted cell may hold a comma."""
    reader = csv.reader(lines)
    try:
        for row in reader:
            if row and (row[0].strip() or any(map(str.strip, row))):  # the first cell settles most rows
                yield reader.line_num, row
    except csv.Error as exc:  # e.g. a cell beyond the csv module's field size limit
        raise InputError(f"{path}:{reader.line_num}: {exc}") from None


def _float_row(path, lineno: int, cells: list, width: int) -> list:
    """The cells of one row of ``width`` cells as floats; another width or a
    non-numeric cell is an input error naming path:line (and the column)."""
    if len(cells) != width:
        raise InputError(f"{path}:{lineno}: ragged row of {len(cells)} cells, expected {width}")
    try:
        return list(map(float, cells))
    except ValueError:
        for col, cell in enumerate(cells, 1):
            try:
                float(cell)
            except ValueError:
                raise InputError(f"{path}:{lineno}: non-numeric cell in column {col}") from None


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_rows(path, rows) -> None:
    """Write rows of cells through the csv module, with minimal quoting (a
    method spec with a comma stays one cell) and newline line endings."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _parse_rows(path, lines) -> np.ndarray:
    """The points of a numeric CSV's ``lines``, one csv row at a time.

    A non-numeric first row is treated as a header and skipped.  Ragged rows
    and non-numeric cells raise with their location.
    """
    rows = list(_csv_rows(path, lines))
    if rows:
        try:
            _float_row(path, *rows[0], len(rows[0][1]))
        except InputError:
            rows = rows[1:]
    if not rows:
        raise InputError(f"{path}: no data rows")
    return np.asarray([_float_row(path, i, cells, len(rows[0][1])) for i, cells in rows])


def _tokenize(path, lines):
    """The points of a numeric CSV's ``lines`` by numpy's C tokenizer, or None
    where ``_parse_rows`` must decide.

    The header is the first csv row, as ``_parse_rows`` finds it.  None comes
    back for an empty body (numpy would warn), for a line longer than the csv
    module's field size limit or a quoted cell that spans lines (the csv
    module refuses a cell beyond the limit, numpy does not), and for any cell
    numpy refuses (``float`` takes some, such as ``1_000``, and
    ``_parse_rows`` skips all-blank rows).
    """
    first = next(_csv_rows(path, lines), None)
    if first is None:
        return None
    try:
        list(map(float, first[1]))
        start = 0
    except ValueError:  # a header
        start = first[0]
    body = lines[start:]
    rows = len(body) - body.count("\n")  # numpy skips empty lines, as the csv module does
    if rows == 0 or max(map(len, body)) > csv.field_size_limit():
        return None
    try:
        points = np.loadtxt(
            body, delimiter=",", quotechar='"', comments=None, ndmin=2, dtype=np.float64
        )
    except ValueError:
        return None
    return points if len(points) == rows else None  # else a quoted cell spans lines


def load_csv(path) -> Dataset:
    """Read a numeric CSV into a Dataset.

    A non-numeric first row is treated as a header and skipped.  Ragged rows
    and non-numeric cells raise with their location.  numpy's tokenizer reads
    the file; where it refuses a cell, the csv rows decide and name the bad row.
    """
    lines = _read_lines(path)
    points = _tokenize(path, lines)
    if points is None:
        points = _parse_rows(path, lines)
    if not np.all(np.isfinite(points)):
        raise InputError(f"{path}: non-finite values")
    return Dataset(points=points)


def save_rule(rule: QuadratureRule, path) -> None:
    """Write the rule as CSV with header index,x_1,...,x_d,weight.

    Floats use shortest round-trip formatting, so load_rule restores the
    nodes and weights bit-exactly.  Missing source indices are written as -1.
    """
    idx = rule.indices if rule.indices is not None else np.full(len(rule), -1)
    rows = [["index", *(f"x_{k + 1}" for k in range(rule.nodes.shape[1])), "weight"]]
    rows += ([int(i), *map(_fmt, x), _fmt(w)] for i, x, w in zip(idx, rule.nodes, rule.weights))
    _write_rows(path, rows)


def load_rule(path) -> QuadratureRule:
    """Read a rule written by save_rule."""
    rows = list(_csv_rows(path, _read_lines(path)))
    if not rows or rows[0][1][0].strip() != "index" or len(rows[0][1]) < 2:
        raise InputError(f"{path}: not a quadrature-rule CSV")
    width = len(rows[0][1])
    idx, values = [], []
    for lineno, cells in rows[1:]:
        values.append(_float_row(path, lineno, cells, width))
        try:
            idx.append(int(cells[0]))
        except ValueError:
            raise InputError(f"{path}:{lineno}: non-integer index in column 1") from None
    table, indices = np.asarray(values, dtype=np.float64).reshape(-1, width), np.asarray(idx)
    if not np.all(np.isfinite(table)):
        raise InputError(f"{path}: non-finite values")
    return QuadratureRule(table[:, 1:-1], table[:, -1], None if np.all(indices < 0) else indices)


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
    components with centers ``sep`` apart, which needs k <= n and a finite sep.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    kind, params = parse_spec(spec, "dataset", _SYNTHETIC)
    for key in ("d", "k"):
        if params.get(key, 1) < 1:
            raise InputError(f"dataset {key} must be >= 1, got {params[key]}")
    rng = np.random.default_rng(seed)
    if kind == "uniform_cube":
        return Dataset(points=rng.random((n, params.get("d", 1))))
    d, k, sep = params.get("d", 2), params.get("k", 3), params.get("sep", 5.0)
    if k > n:  # before any of its k centres is drawn
        raise InputError(f"gaussian_mixture needs k <= n, got k = {k}, n = {n}")
    if not math.isfinite(sep):
        raise InputError(f"gaussian_mixture needs a finite sep, got sep = {sep}")
    centers = _mixture_centers(d, k, sep, rng)
    labels = rng.integers(0, k, size=n)
    pts = centers[labels] + rng.standard_normal((n, d))
    return Dataset(points=pts)


def _resolve_dataset(config: ExperimentConfig) -> tuple[np.ndarray, tuple, dict]:
    kind, params = parse_spec(config.dataset, "dataset", _DATASETS)
    if kind == "csv":
        for key in ("n", "data_seed"):
            if getattr(config, key) is not None:  # the file's rows are the points
                raise InputError(f"{key} is not used by a csv dataset")
        if not params.get("path"):
            raise InputError("csv dataset needs path=<file>")
        points = load_csv(params["path"]).points
        grid, heads = _validate(config, points.shape[0])
    else:
        if config.n is None or config.n < 1:
            raise InputError(f"synthetic datasets need n >= 1, got {config.n}")
        grid, heads = _validate(config, config.n)  # before any of the n points is drawn
        seed = config.data_seed
        if seed is None:
            seed = int(derive_rng(config.master_seed, _DATA_STREAM).integers(2**63))
        points = gen_synthetic(config.dataset, config.n, seed).points
    if config.standardize:
        points = standardize_points(points)
    return _as_points(points), grid, heads


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
    repeated = [m for i, m in enumerate(config.methods) if m in config.methods[:i]]
    if repeated:  # its rows would be written twice and fold into one summary cell
        raise InputError(f"method {repeated[0]!r} is listed more than once")
    heads = {method: parse_spec(method, "method", METHODS)[0] for method in config.methods}
    if config.target not in ("data", "unit-cube"):
        raise InputError("target must be 'data' or 'unit-cube'")
    if config.target == "data":
        check_size("n", n, config.allow_large_n)
    check_size("m", grid[-1], config.allow_large_n)
    return grid, heads


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute the full method x m x trial sweep described by the config."""
    for key in ("master_seed", "data_seed"):
        seed = getattr(config, key)
        if seed is not None and seed < 0:
            raise InputError(f"{key} must be >= 0, got {seed}")
    points, grid, heads = _resolve_dataset(config)

    kernel = parse_kernel(
        config.kernel, points=points, rng=derive_rng(config.master_seed, _BANDWIDTH_STREAM)
    )
    cube = config.target == "unit-cube"
    target = TargetMeasure.unit_cube() if cube else TargetMeasure.discrete(points)
    embedding = target_embedding(kernel, points, target)

    rows = []
    for method in config.methods:
        mid = _METHOD_IDS[heads[method]]
        greedy = heads[method] in GREEDY
        for trial in range(1 if greedy else config.trials):
            rules = compress_grid(
                points,
                kernel,
                method,
                grid,
                derive_rng(config.master_seed, mid, trial),  # score stream
                embedding,
                draw_rng=lambda m: derive_rng(config.master_seed, mid, m, trial),
            )
            for m in grid:
                try:
                    rule = next(rules)
                except (InputError, NumericalError) as exc:
                    raise type(exc)(f"method={method} m={m} trial={trial}: {exc}") from exc
                ts, tw = (rule.sample_time_s, rule.weight_time_s) if config.timings else (0.0, 0.0)
                row = ResultRow(method, m, trial, rule.error, ts, tw, ts + tw)
                # a deterministic method's row is replicated across the trial rows
                rows += [row] * (config.trials if greedy else 1)
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


def write_raw_csv(result: ExperimentResult, path) -> None:
    """Raw rows, one per (method, m, trial)."""
    rows = [RAW_HEADER.split(",")]
    for r in result.rows:
        times = (r.sample_time_s, r.weight_time_s, r.total_time_s)
        rows.append([r.method, r.m, r.trial, *map(_fmt, (r.error, *times))])
    _write_rows(path, rows)


def write_summary_csv(summary: list, path) -> None:
    rows = [SUMMARY_HEADER.split(",")]
    for s in summary:
        rows.append([s.method, s.m, *map(_fmt, (s.error_median, s.error_std, s.time_median))])
    _write_rows(path, rows)


def read_summary_csv(path) -> list:
    rows = [
        (lineno, [c.strip() for c in cells]) for lineno, cells in _csv_rows(path, _read_lines(path))
    ]
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


def _bool(value: str) -> bool:
    return _BOOL[value.lower()]


def _int_list(value: str) -> tuple:
    return tuple(int(v) for v in value.split(",") if v.strip())


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


# Config schema: key -> the parser of its value.
_CONFIG_KEYS = {
    "dataset": str,
    "kernel": str,
    "methods": _split_methods,
    "m_grid": _int_list,
    "trials": int,
    "master_seed": int,
    "output": str,
    "n": int,
    "data_seed": int,
    "standardize": _bool,
    "target": str,
    "timings": _bool,
    "workers": int,
    "allow_large_n": _bool,
}


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
        if key in values:
            raise InputError(f"{path}:{lineno}: repeated key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](value)
        except (ValueError, KeyError) as exc:
            raise InputError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    missing = {f.name for f in fields(ExperimentConfig) if f.default is MISSING} - set(values)
    if missing:
        raise InputError(f"{path}: missing required keys {sorted(missing)}")
    return ExperimentConfig(**values)


def summary_path_for(raw_path: str) -> str:
    stem, ext = os.path.splitext(raw_path)
    return f"{stem}_summary{ext or '.csv'}"


def run_to_files(config: ExperimentConfig) -> tuple[str, str]:
    """Run the experiment and write the raw and summary CSVs."""
    result = run_experiment(config)
    write_raw_csv(result, config.output)
    spath = summary_path_for(config.output)
    write_summary_csv(summarize(result), spath)
    return config.output, spath
