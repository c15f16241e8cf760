"""The benchmark's workloads: their inputs, one round of kquad commands each,
and the correctness checks on what the commands print and write.

Every command goes through `kquad.cli.main` in this process, exactly as
`kquad <args>` would run it, with its standard streams captured.  The
checks use computations kept apart from the program (scipy's `cdist` for
kernel values, `numpy.polyfit` for rate slopes) or properties the method
must have; none of them calls kquad.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import re
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist, pdist

from kquad import bench, cli

GREEDY = ("f-greedy", "p-greedy", "fp-greedy")


@dataclass
class Round:
    """What one round of commands did."""

    wall_s: float = 0.0  # summed wall time of the round's commands
    attempted: int = 0
    failed: int = 0
    rules: int = 0  # rules built and error-evaluated by successful commands
    latencies: list = field(default_factory=list)  # one per successful rule-building command
    problems: list = field(default_factory=list)  # failed correctness checks
    failures: list = field(default_factory=list)  # commands that did not succeed
    digests: dict = field(default_factory=dict)  # sha256 of the files written


def call_cli(argv):
    """Run one kquad command in process.

    Returns (exit code, or the exception that escaped main, stdout, stderr,
    wall seconds).
    """
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a traceback is a failed command, not a crash of the benchmark
        code = exc
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# -- kquad run sweeps --------------------------------------------------------


class Sweep:
    """`kquad run <config>` on one fixed config, at master_seed = --seed.

    With a `probe`, every round then also runs the probe's config at the
    probe's fixed master_seed.  The probe's `check` returns the faults it
    finds; a fault makes the probe a failed operation rather than a failed
    check, because it is a known fault shown on inputs that do not depend on
    --seed, and so counts alike in every run.
    """

    def __init__(self, name, config, check, probe=None):
        self.name = name
        self.config = config
        self.check = check
        self.probe = probe
        self.min_commands = 0

    @staticmethod
    def _write_config(config, seed, workdir, stem):
        output = workdir / f"{stem}.csv"
        lines = [f"master_seed = {seed}", f"output = {output}"]
        for key, value in config.items():
            if isinstance(value, tuple):
                value = ", ".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
        path = workdir / f"{stem}.conf"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return {"config": path, "raw": output, "summary": workdir / f"{stem}_summary.csv"}

    def setup(self, seed, workdir):
        inputs = {"main": self._write_config(self.config, seed, workdir, self.name)}
        if self.probe is not None:
            inputs["probe"] = self._write_config(
                self.probe.config, self.probe.seed, workdir, f"{self.name}_probe"
            )
        return inputs

    def run_round(self, inputs, index):
        rnd = Round()
        if self._run(rnd, inputs["main"], self.config, self.check):
            rnd.latencies.append(rnd.wall_s)
        if self.probe is not None:
            self._run(rnd, inputs["probe"], self.probe.config, None, self.probe.check)
        return rnd

    @staticmethod
    def _run(rnd, files, config, check, probe_check=None):
        """One `kquad run`; True when it succeeded."""
        rnd.attempted += 1
        code, _, err, dt = call_cli(["run", str(files["config"])])
        rnd.wall_s += dt
        if code != 0:
            rnd.failed += 1
            rnd.failures.append(f"kquad run {files['config'].name}: {code!r} {err.strip()[-300:]}")
            return False
        rows = _read_raw(files["raw"])
        rnd.problems += _check_rows(rows, config)
        rnd.digests.update({p.name: _sha256(p) for p in (files["raw"], files["summary"])})
        if probe_check is not None:
            faults = probe_check(rows)
            if faults:
                rnd.failed += 1
                rnd.failures += faults
                return False
        else:
            rnd.problems += check(_medians(rows))
        rnd.rules += sum(
            len(config["m_grid"]) * (1 if method in GREEDY else config["trials"])
            for method in config["methods"]
        )
        return True


def _read_raw(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return [
            (r["method"], int(r["m"]), int(r["trial"]), float(r["error"]))
            for r in csv.DictReader(fh)
        ]


def _medians(rows):
    by_cell = defaultdict(list)
    for method, m, _, error in rows:
        by_cell[(method, m)].append(error)
    return {cell: statistics.median(errors) for cell, errors in by_cell.items()}


def _check_rows(rows, config):
    """Every (method, m, trial) row present once, every error finite and >= 0.

    Deterministic greedy methods are run once per m and written as `trials`
    rows with trial 0.
    """
    expected = Counter()
    for method in config["methods"]:
        for m in config["m_grid"]:
            if method in GREEDY:
                expected[(method, m, 0)] = config["trials"]
            else:
                expected.update((method, m, t) for t in range(config["trials"]))
    problems = []
    got = Counter((method, m, trial) for method, m, trial, _ in rows)
    if got != expected:
        missing = sorted((expected - got).elements())[:5]
        extra = sorted((got - expected).elements())[:5]
        problems.append(f"rows: missing {missing}, unexpected {extra}")
    bad = [r for r in rows if not (math.isfinite(r[3]) and r[3] >= 0.0)]
    if bad:
        problems.append(f"{len(bad)} errors not finite and >= 0, e.g. {bad[0]}")
    return problems


def _check_mixture(medians):
    """Optimal weights beat Monte-Carlo's fixed 1/m weights at every m."""
    problems = []
    for (method, m), error in sorted(medians.items()):
        mc = medians[("monte-carlo", m)]
        if method != "monte-carlo" and not error < mc:
            problems.append(f"{method} m={m}: median error {error:.3e} >= monte-carlo {mc:.3e}")
    return problems


# fp-greedy's rule for m keeps every node of its rule for a smaller m, so with
# optimal weights its squared error cannot grow with m.  NESTING_NOISE is the
# float64 noise allowed on it: its terms are sums over at most 128 nodes of
# Gaussian kernel values (at most 1) times weights, so they round off by
# about 128 * eps = 2.8e-14 per unit of absolute weight.
NESTING_NOISE = 1e-12


def _check_nesting(rows):
    errors = sorted({(m, e) for method, m, _, e in rows if method == "fp-greedy"})
    return [
        f"fp-greedy nodes are nested, but its error grows from {e0:.4e} at m={m0} "
        f"to {e1:.4e} at m={m1}"
        for (m0, e0), (m1, e1) in zip(errors, errors[1:])
        if e1 * e1 - e0 * e0 > NESTING_NOISE
    ]


@dataclass(frozen=True)
class Probe:
    config: dict
    seed: int
    check: object


# Fitted log-log slopes of the median error against m, from theory: order-1
# periodic Sobolev with optimal weights converges like m^-1, Monte-Carlo like
# m^-1/2.  Over 40 seeds the Monte-Carlo slope spread from -0.58 to -0.32 with
# 5 trials, so the bands are +-0.25 wide.
TORUS_SLOPES = {"uniform": (-1.25, -0.75), "monte-carlo": (-0.75, -0.25)}


def _check_torus(medians):
    problems = []
    for method, (lo, hi) in TORUS_SLOPES.items():
        cells = sorted((m, e) for (meth, m), e in medians.items() if meth == method)
        if any(e <= 0.0 for _, e in cells):
            problems.append(f"{method}: zero median error, slope undefined")
            continue
        slope = np.polyfit(np.log([m for m, _ in cells]), np.log([e for _, e in cells]), 1)[0]
        if not lo <= slope <= hi:
            problems.append(f"{method}: fitted slope {slope:+.3f} outside [{lo}, {hi}]")
    return problems


SWEEP_MIXTURE = Sweep(
    "sweep_mixture",
    {
        "dataset": "gaussian_mixture:d=2,k=3,sep=5",
        "n": 4096,
        "kernel": "gaussian:sigma=median",
        "methods": ("uniform", "arls", "monte-carlo", "fp-greedy"),
        "m_grid": (16, 32, 64, 128, 256),
        "trials": 5,
        "workers": 1,
        "timings": "off",
    },
    _check_mixture,
    # The nesting check fails on about half of all master seeds today (10 of
    # seeds 1-20 between m=64 and m=128, because pinv_apply truncates
    # eigenvalues below 1e-10 * m * lambda_max).  A result that hangs on the
    # seed cannot be compared between runs, so the check runs on the
    # reference data at master_seed 3, where the error grows 2.3-fold, and
    # the probe counts as one failed operation per round until that is fixed.
    Probe(
        {
            "dataset": "gaussian_mixture:d=2,k=3,sep=5",
            "n": 4096,
            "kernel": "gaussian:sigma=median",
            "methods": ("fp-greedy",),
            "m_grid": (64, 128),
            "trials": 1,
            "workers": 1,
            "timings": "off",
        },
        3,
        _check_nesting,
    ),
)

SWEEP_TORUS = Sweep(
    "sweep_torus",
    {
        "dataset": "uniform_cube:d=1",
        "n": 16384,
        "kernel": "sobolev:s=1,d=1",
        "target": "unit-cube",
        "methods": ("uniform", "monte-carlo"),
        "m_grid": (64, 128, 256, 512, 1024, 2048),
        "trials": 5,
        "workers": 2,
        "timings": "off",
    },
    _check_torus,
)


# -- kquad compress calls ----------------------------------------------------

COMPRESS_DATA = "gaussian_mixture:d=8,k=3,sep=5"
COMPRESS_N = 2048
COMPRESS_M = 128
COMPRESS_KERNEL = "laplacian:sigma=median"
COMPRESS_METHODS = (
    "uniform",
    "arls",
    "arls:lambda=auto,pilot=64",
    "monte-carlo",
    "p-greedy",
    "fp-greedy",
)
# Invalid node counts.  The documented result is exit code 1 with an
# `error:` line; they run on a small fixed file that does not depend on the
# seed, so they fail or pass on every seed alike.
INVALID_M = (0, -3)
MEDIAN_SUBSET = 1000  # kquad's documented subset size for sigma=median
_ERROR_LINE = re.compile(r"wrote (\d+) nodes to .*; worst-case error (\S+)$")


def _write_points(points, path):
    d = points.shape[1]
    lines = [",".join(f"x_{k + 1}" for k in range(d))]
    lines.extend(",".join(repr(v) for v in row) for row in points.tolist())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class Compress:
    """`kquad compress` on one CSV, cycling through the methods.

    Round r calls every method in COMPRESS_METHODS with seed 1000 * seed + r,
    then makes the invalid-m calls.
    """

    name = "compress_cli"
    min_commands = 40  # enough successful calls for a 75th percentile with ten beyond it

    def setup(self, seed, workdir):
        data = bench.gen_synthetic(COMPRESS_DATA, COMPRESS_N, seed).points
        _write_points(data, workdir / "data.csv")
        _write_points(bench.gen_synthetic(COMPRESS_DATA, 64, 0).points, workdir / "fixed.csv")
        return {"seed": seed, "workdir": workdir, "points": data}

    def run_round(self, inputs, index):
        rnd = Round()
        workdir = inputs["workdir"]
        call_seed = 1000 * inputs["seed"] + index
        printed = []
        for k, method in enumerate(COMPRESS_METHODS):
            out_path = workdir / f"rule_{k}.csv"
            code, out, err, dt = call_cli(
                ["compress", "--input", str(workdir / "data.csv"), "--kernel", COMPRESS_KERNEL,
                 "--method", method, "--m", str(COMPRESS_M), "--seed", str(call_seed),
                 "--output", str(out_path)]
            )
            rnd.attempted += 1
            rnd.wall_s += dt
            match = _ERROR_LINE.search(out.strip())
            if code != 0 or match is None:
                rnd.failed += 1
                rnd.failures.append(f"compress {method}: {code!r} {err.strip()[-300:]}")
                continue
            rnd.latencies.append(dt)
            rnd.rules += 1
            printed.append((method, out_path, int(match.group(1)), match.group(2)))
        for m in INVALID_M:
            code, _, err, dt = call_cli(
                ["compress", "--input", str(workdir / "fixed.csv"), "--kernel", COMPRESS_KERNEL,
                 "--method", "monte-carlo", "--m", str(m), "--seed", "0",
                 "--output", str(workdir / "invalid.csv")]
            )
            rnd.attempted += 1
            rnd.wall_s += dt
            if code != 1 or "error:" not in err:
                rnd.failed += 1
                rnd.failures.append(f"compress --m {m}: {code!r}")
        if printed:
            rnd.problems = _check_rules(inputs["points"], call_seed, printed)
        return rnd


def _laplacian(A, B, sigma):
    return np.exp(-cdist(A, B) / sigma)


def _check_rules(X, call_seed, printed):
    """Recompute each rule's worst-case error with an independent evaluator.

    sigma is the median pairwise distance of the MEDIAN_SUBSET rows that a
    permutation from default_rng(seed) picks, which is how kquad draws its
    `sigma=median` subset.
    """
    n = X.shape[0]
    rng = np.random.default_rng(call_seed)
    sigma = float(np.median(pdist(X[rng.permutation(n)[:MEDIAN_SUBSET]])))
    self_product = math.fsum(
        float(_laplacian(X[i : i + 256], X, sigma).sum()) for i in range(0, n, 256)
    ) / (n * n)
    problems = []
    for method, path, count, printed_error in printed:
        rule = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        index, nodes, w = rule[:, 0].astype(np.intp), rule[:, 1:-1], rule[:, -1]
        label = f"compress {method} seed={call_seed}"
        if count != COMPRESS_M or len(w) != COMPRESS_M:
            problems.append(f"{label}: {count} nodes printed, {len(w)} written, {COMPRESS_M} asked")
        if not np.array_equal(nodes, X[index]):
            problems.append(f"{label}: nodes differ from the input rows named in index")
            continue
        v = _laplacian(nodes, X, sigma).mean(axis=1)
        Km = _laplacian(nodes, nodes, sigma)
        error = math.sqrt(max(math.fsum([self_product, -2.0 * (w @ v), w @ Km @ w]), 0.0))
        shown = float(printed_error)
        # printed with 6 significant digits: allow half a unit in the last one
        unit = 10.0 ** (math.floor(math.log10(shown)) - 5) if shown > 0 else 1e-300
        if abs(error - shown) > 0.5 * unit * (1 + 1e-3) + 1e-12:
            problems.append(f"{label}: printed error {printed_error}, recomputed {error:.6g}")
        if method == "monte-carlo":
            if not np.all(w == 1.0 / COMPRESS_M):
                problems.append(f"{label}: monte-carlo weights are not all 1/m")
            continue
        if method in GREEDY and len(set(index.tolist())) != len(index):
            problems.append(f"{label}: greedy nodes are not distinct")
        # Optimal weights solve K_m w = v (duplicate nodes have equal rows and
        # equal moments, so the system stays consistent) up to float64 noise:
        # m rounding errors on the largest |K_m| |w| row sum.
        residual = float(np.max(np.abs(Km @ w - v)))
        tol = COMPRESS_M * np.finfo(np.float64).eps * float(np.max(np.abs(Km) @ np.abs(w)))
        if residual > tol:
            problems.append(f"{label}: |K_m w - v| = {residual:.2e} > {tol:.2e}")
    return problems


WORKLOADS = {w.name: w for w in (SWEEP_MIXTURE, SWEEP_TORUS, Compress())}
