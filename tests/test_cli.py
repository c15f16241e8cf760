import csv
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from kquad import bench, cli
from kquad.bench import load_csv, load_rule, read_summary_csv
from kquad.errors import NumericalError
from kquad.kernels import parse_kernel
from kquad.quadrature import TargetMeasure, worst_case_error

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _compress(path, out, *extra, kernel="gaussian:sigma=1", method="uniform", m=4, seed=0):
    """The argv of ``kquad compress``; ``extra`` flags go last."""
    return ["compress", "--input", str(path), "--kernel", kernel, "--method", method,
            "--m", str(m), "--seed", str(seed), "--output", str(out), *extra]


def _refused(code, capsys, pattern):
    """Exit 1, nothing on stdout, and one stderr line that matches ``error:`` +
    ``pattern``; returns the line.

    In process an escaped exception fails the test, and pytest's
    ``error::RuntimeWarning`` filter raises any numerics warning."""
    out, err = capsys.readouterr()
    assert code == 1 and out == "", (out, err)
    assert len(err.splitlines()) == 1 and err.endswith("\n"), err
    assert re.match("error:" + pattern, err), err
    return err


def _python(*args, env=None, timeout=60):
    """``python -W error::RuntimeWarning ARGS`` in a process of its own, on
    this checkout's kquad: for a check that sets the environment or needs a
    time limit."""
    env = dict(os.environ, PYTHONPATH=SRC, **(env or {}))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


def _normal(seed, shape):
    return np.random.default_rng(seed).standard_normal(shape)


@pytest.fixture
def data_csv(tmp_path):
    pts = _normal(0, (60, 2))
    path = tmp_path / "data.csv"
    path.write_text(
        "\n".join(",".join(repr(float(v)) for v in row) for row in pts) + "\n", encoding="utf-8"
    )
    return path, pts


@pytest.mark.parametrize(
    "points, quoted, kernel, method, m, seed",
    [
        pytest.param(_normal(0, (60, 2)), False, "gaussian:sigma=0.8", "uniform", 10, 5,
                     id="uniform"),
        pytest.param(_normal(0, (200, 2)), False, "gaussian:sigma=median",
                     "arls:lambda=auto,pilot=32", 16, 1, id="arls-auto-lambda"),
        # 20 distinct rows, each 10 times: the arls pilot Gram is exactly rank-deficient
        pytest.param(np.tile(_normal(1, (20, 2)), (10, 1)), False, "gaussian:sigma=median",
                     "arls", 16, 1, id="arls-duplicate-rows"),
        # 2500 rows: three kernel tiles per side, the last one partial
        pytest.param(_normal(2, (2500, 3)), False, "laplacian:sigma=median", "uniform", 32, 1,
                     id="laplacian-partial-tiles"),
        # every cell quoted, CRLF line endings: the csv module reads them
        pytest.param(_normal(3, (200, 2)), True, "gaussian:sigma=median", "uniform", 16, 1,
                     id="quoted-crlf"),
    ],
)
def test_compress_command(tmp_path, capsys, points, quoted, kernel, method, m, seed):
    path, out = tmp_path / "data.csv", tmp_path / "rule.csv"
    if quoted:
        with open(path, "w", newline="", encoding="utf-8") as f:
            csv.writer(f, quoting=csv.QUOTE_ALL).writerows(points.tolist())
    else:
        np.savetxt(path, points, delimiter=",")
    assert cli.main(_compress(path, out, kernel=kernel, method=method, m=m, seed=seed)) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + m
    rule = load_rule(out)
    kern = parse_kernel(kernel, points=points, rng=seed)
    err = worst_case_error(rule, TargetMeasure.discrete(points), kern)
    assert capsys.readouterr().out == f"wrote {m} nodes to {out}; worst-case error {err:.6g}\n"


def test_compress_greedy_method(data_csv, tmp_path):
    path, _ = data_csv
    out = tmp_path / "rule.csv"
    assert cli.main(_compress(path, out, kernel="gaussian:sigma=median", method="fp-greedy",
                              m=6, seed=1)) == 0
    assert len(load_rule(out)) == 6


def test_run_and_rates_commands(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    raw = tmp_path / "res.csv"
    cfg.write_text(
        f"""
dataset = uniform_cube:d=1
kernel = sobolev:s=1,d=1
methods = uniform, monte-carlo, fp-greedy
m_grid = 8, 16, 32
trials = 3
master_seed = 2
n = 256
target = unit-cube
output = {raw}
""",
        encoding="utf-8",
    )
    assert cli.main(["run", str(cfg)]) == 0
    capsys.readouterr()
    summary = tmp_path / "res_summary.csv"
    assert raw.exists() and summary.exists()
    rows = read_summary_csv(summary)
    assert {r.method for r in rows} == {"uniform", "monte-carlo", "fp-greedy"}

    overlay = tmp_path / "overlay.csv"
    code = cli.main(
        ["rates", "--summary", str(summary), "--model", "sobolev:s=1,d=1", "--output", str(overlay)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    # f/P greedy under the unit-cube target interpolates that target's embedding
    assert "fp-greedy: fitted slope" in printed
    lines = overlay.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "method,m,error_median,predicted_error"
    assert len(lines) == 1 + 3 * 3


def test_input_error_exit_code(tmp_path, capsys):
    _refused(cli.main(["run", str(tmp_path / "missing.cfg")]), capsys, ".*missing.cfg")
    code = cli.main(_compress(tmp_path / "missing.csv", tmp_path / "r.csv"))
    _refused(code, capsys, ".*missing.csv")


def test_bad_method_exit_code(data_csv, tmp_path, capsys):
    path, _ = data_csv
    _refused(cli.main(_compress(path, tmp_path / "r.csv", method="dpp")), capsys, ".*dpp")


def test_usage_error_exit_code(tmp_path, capsys):
    _refused(cli.main(["frobnicate"]), capsys, " argument command: invalid choice: 'frobnicate'")
    _refused(cli.main(["compress", "--input", "x.csv"]), capsys,
             " the following arguments are required: --kernel")
    _refused(cli.main(_compress("x.csv", tmp_path / "r.csv", m="abc")), capsys,
             " argument --m: invalid int value: 'abc'")
    with pytest.raises(SystemExit) as exc:  # --help is no error
        cli.main(["compress", "--help"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: kquad compress")


def test_numerical_error_exit_code(monkeypatch, tmp_path, capsys):
    cfg = tmp_path / "x.cfg"
    cfg.write_text("dataset = d\n", encoding="utf-8")

    def boom(path):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli.bench, "parse_config", boom)
    assert cli.main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: synthetic failure\n"


def test_allocation_failure_exit_code(data_csv, tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise MemoryError("Unable to allocate 728. TiB for an array")

    path, _ = data_csv
    monkeypatch.setattr(cli, "compress", boom)
    argv = _compress(path, tmp_path / "r.csv", "--allow-large-n", kernel="gaussian:sigma=0.8",
                     method="monte-carlo", m=10**14, seed=1)
    err = _refused(cli.main(argv), capsys, " Unable to allocate")
    assert err == "error: Unable to allocate 728. TiB for an array\n"
    monkeypatch.setattr(cli.bench, "parse_config", boom)
    _refused(cli.main(["run", str(tmp_path / "x.cfg")]), capsys, " Unable to allocate")


def test_real_allocation_failure_exit_code(tmp_path):
    # numpy raises MemoryError for 64 x 10^12 coordinates before it touches any memory
    cfg = write_run_config(tmp_path, dataset="uniform_cube:d=1000000000000")
    proc = _python("-m", "kquad.cli", "run", str(cfg))
    assert proc.returncode == 1
    assert re.fullmatch(r"error: Unable to allocate [^\n]*\n", proc.stderr), proc.stderr


@pytest.mark.parametrize(
    "rows, m", [(64, 2**14 + 1), (2**14 + 1, 8), (64, 300_000), (64, 10**14)]
)
def test_compress_large_n_or_m_exit_code(tmp_path, capsys, monkeypatch, rows, m):
    """n or m above 2^14 is refused before any kernel pass, unless
    --allow-large-n lifts the cap; m > n stays legal with replacement."""
    path = tmp_path / "data.csv"
    path.write_text("0.5\n" * rows, encoding="utf-8")
    argv = _compress(path, tmp_path / "r.csv", kernel="sobolev:s=1,d=1", method="monte-carlo", m=m)

    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(cli, "compress", reached)
    _refused(cli.main(argv), capsys, ".*--allow-large-n")
    with pytest.raises(Reached):
        cli.main(argv + ["--allow-large-n"])


@pytest.mark.parametrize("m", ["0", "-3"])
def test_compress_nonpositive_m_exit_code(data_csv, tmp_path, capsys, monkeypatch, m):
    def never(*args, **kwargs):
        raise AssertionError("called before --m was checked")

    monkeypatch.setattr(bench, "load_csv", never)
    path, _ = data_csv
    code = cli.main(_compress(path, tmp_path / "r.csv", method="monte-carlo", m=m))
    _refused(code, capsys, re.escape(f" m must be >= 1, got {m}") + "$")


def write_run_config(tmp_path, name="exp", **extra):
    cfg = tmp_path / f"{name}.cfg"
    lines = {
        "dataset": "uniform_cube:d=1",
        "kernel": "sobolev:s=1,d=1",
        "methods": "uniform",
        "m_grid": "8, 16",
        "trials": "2",
        "master_seed": "2",
        "n": "64",
        "target": "unit-cube",
        "output": str(tmp_path / "res.csv"),
    }
    lines.update(extra)
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()), encoding="utf-8")
    return cfg


def test_run_zero_in_m_grid_exit_code(tmp_path, capsys):
    cfg = write_run_config(tmp_path, methods="monte-carlo", m_grid="0, 8")
    _refused(cli.main(["run", str(cfg)]), capsys, "")


@pytest.mark.parametrize("key", ["master_seed", "data_seed"])
def test_run_negative_seed_exit_code(tmp_path, capsys, key):
    code = cli.main(["run", str(write_run_config(tmp_path, **{key: "-1"}))])
    _refused(code, capsys, f" {key} must be >= 0")


def test_compress_negative_seed_exit_code(data_csv, tmp_path, capsys):
    path, _ = data_csv
    code = cli.main(_compress(path, tmp_path / "r.csv", kernel="gaussian:sigma=median", seed=-1))
    _refused(code, capsys, " --seed must be >= 0")


def test_run_nonfinite_sep_exit_code(tmp_path, capsys):
    # standardizing the points of an infinite sep would warn before any error line
    cfg = write_run_config(
        tmp_path, dataset="gaussian_mixture:d=2,k=3,sep=-inf", kernel="gaussian:sigma=median",
        target="data", standardize="true",
    )
    _refused(cli.main(["run", str(cfg)]), capsys,
             " gaussian_mixture needs a finite sep, got sep = -inf$")


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_run_nonpositive_workers_exit_code(tmp_path, capsys, workers):
    code = cli.main(["run", str(write_run_config(tmp_path, workers=workers))])
    _refused(code, capsys, f" workers must be >= 1, got {workers}")


# sweeps whose CSVs must not follow the BLAS thread count: a 2-d mixture; a 3-d
# Laplacian mixture at n = 2500, where one BLAS product for the kernel mean rounds
# differently on one thread and on two; and the unit cube to m = 1024, whose
# weights come from the node Gram factored in place
_THREAD_RUNS = {
    "mixture": dict(dataset="gaussian_mixture:d=2,k=3,sep=5", n="300",
                    kernel="gaussian:sigma=median", methods="uniform, arls, fp-greedy",
                    m_grid="8, 16, 32"),
    "laplacian": dict(dataset="gaussian_mixture:d=3,k=3,sep=5", n="2500",
                      kernel="laplacian:sigma=median",
                      methods="uniform, arls, f-greedy, fp-greedy", m_grid="8, 16, 32, 64"),
    "cube": dict(dataset="uniform_cube:d=1", n="4096", kernel="sobolev:s=1,d=1",
                 methods="uniform, monte-carlo", m_grid="64, 256, 1024"),
}
_RUN_EACH = """import sys
from kquad import cli
sys.exit(any(cli.main(["run", cfg]) for cfg in sys.argv[1:]))
"""


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # one process per thread count: OpenBLAS reads it once, at import
    for threads in ("1", "2"):
        cfgs = [
            write_run_config(tmp_path, f"{name}_t{threads}", target="data", master_seed="1",
                             timings="off", output=str(tmp_path / f"{name}_t{threads}.csv"), **keys)
            for name, keys in _THREAD_RUNS.items()
        ]
        proc = _python("-c", _RUN_EACH, *map(str, cfgs), env={"OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
    for name in _THREAD_RUNS:
        one, two = (tmp_path / f"{name}_t{t}.csv" for t in (1, 2))
        assert one.read_bytes() == two.read_bytes(), name


@pytest.mark.parametrize(
    "command, flag, binary",
    [
        ("compress", "--output", False),  # IsADirectoryError
        ("compress", "--input", False),  # IsADirectoryError
        ("run", None, False),  # IsADirectoryError
        ("compress", "--input", True),  # UnicodeDecodeError
        ("rates", "--summary", True),  # UnicodeDecodeError
    ],
)
def test_file_error_exit_code(data_csv, tmp_path, capsys, command, flag, binary):
    path, _ = data_csv
    bad = tmp_path
    if binary:
        bad = tmp_path / "blob.bin"
        bad.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe\x00\x01")  # not UTF-8
    if command == "run":
        argv = ["run", str(bad)]
    elif command == "rates":
        argv = ["rates", "--summary", str(bad), "--model", "sobolev:s=1,d=1"]
    else:
        files = {"--input": path, "--output": tmp_path / "r.csv", flag: bad}
        argv = _compress(files["--input"], files["--output"])
    _refused(cli.main(argv), capsys, "")


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_compress_checks_output_before_any_work(data_csv, tmp_path, capsys, monkeypatch, where):
    def never(*args, **kwargs):
        raise AssertionError("called before the output path was checked")

    monkeypatch.setattr(bench, "load_csv", never)
    monkeypatch.setattr(cli, "compress", never)
    path, _ = data_csv
    out = tmp_path if where == "directory" else tmp_path / "missing" / "rule.csv"
    code = cli.main(_compress(path, out, kernel="gaussian:sigma=median"))
    _refused(code, capsys, ".*" + re.escape(str(out)))


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_rates_checks_output_before_any_work(tmp_path, capsys, monkeypatch, where):
    def never(*args, **kwargs):
        raise AssertionError("called before the output path was checked")

    monkeypatch.setattr(bench, "read_summary_csv", never)
    out = tmp_path if where == "directory" else tmp_path / "missing" / "overlay.csv"
    argv = ["rates", "--summary", str(_rates_summary(tmp_path)), "--model", "uniform-exp",
            "--output", str(out)]
    _refused(cli.main(argv), capsys, ".*" + re.escape(str(out)))


def test_rates_on_a_run_with_a_comma_bearing_method(tmp_path, capsys):
    spec = "arls:lambda=auto,pilot=16"
    cfg = write_run_config(tmp_path, methods=f"uniform, {spec}", m_grid="8, 16, 32")
    assert cli.main(["run", str(cfg)]) == 0
    assert cli.main(["rates", "--summary", str(tmp_path / "res_summary.csv"),
                     "--model", "uniform-exp"]) == 0
    out = capsys.readouterr().out
    assert f"{spec}: fitted slope" in out and "uniform: fitted slope" in out


def _rates_summary(tmp_path):
    summary = tmp_path / "s_summary.csv"
    summary.write_text(
        "method,m,error_median,error_std,time_median\n"
        "uniform,8,0.1,0.0,0.0\nuniform,16,0.05,0.0,0.0\n",
        encoding="utf-8",
    )
    return summary


@pytest.mark.parametrize(
    "command, spec",
    [
        ("run", "uniform_cube:d=abc"),
        ("run", "gaussian_mixture:sep=far"),
        ("run", "csv:path={csv},foo=1"),
        ("run", "gaussian_mixture:k=0"),
        ("run", "uniform_cube:d=-1"),
        ("run", "uniform_cube:d=0"),
        ("run-methods", "arls:lambda=nan"),
        ("run-methods", "arls:lambda=1e308"),
        ("run-methods", "uniform, uniform"),
        ("compress", "arls:lambda=abc"),
        ("compress", "arls:pilot=1.5"),
        ("compress", "arls:lambda=nan"),
        ("compress", "arls:lambda=inf"),
        ("compress", "arls:lambda=-1"),
        ("compress", "arls:lambda=0"),
        ("compress", "arls:lambda=1e308"),
        ("compress", "uniform:foo=1"),
        ("compress", "uniform-wr:x=1"),
        ("compress", "monte-carlo:x=1"),
        ("compress", "p-greedy:foo=1"),
        ("rates", "sobolev:s=x,d=1"),
        ("rates", "uniform-poly:gamma=abc"),
        ("rates", "arls-poly:gamma=0"),
        ("rates", "arls-poly:gamma=-1"),
        ("rates", "uniform-poly:gamma=nan"),
        ("rates", "arls-exp:c=nan"),
        ("rates", "arls-exp:c=inf"),
        ("rates", "sobolev:s=1,d=-1"),
    ],
)
def test_malformed_spec_exit_code(data_csv, tmp_path, capsys, command, spec):
    path, _ = data_csv
    if command == "run":
        dataset = spec.format(csv=path)
        config = write_run_config(tmp_path, dataset=dataset, kernel="gaussian:sigma=1", target="data")
        argv = ["run", str(config)]
    elif command == "run-methods":
        argv = ["run", str(write_run_config(tmp_path, methods=spec))]
    elif command == "compress":
        argv = _compress(path, tmp_path / "r.csv", method=spec)
    else:
        # a third row, so the slope fit passes and the curve itself is evaluated
        summary = _rates_summary(tmp_path)
        third = "uniform,32,0.02,0.0,0.0\n"
        summary.write_text(summary.read_text(encoding="utf-8") + third, encoding="utf-8")
        argv = ["rates", "--summary", str(summary), "--model", spec]
    _refused(cli.main(argv), capsys, "")


@pytest.mark.parametrize(
    "row, problem",
    [
        ("uniform,16,abc,0.0,0.0", "non-numeric"),
        ("uniform,16,0.05,0.0", "4 cells"),
        ("uniform,32,nan,0.0,0.0", "non-finite"),
        ("uniform,32,0.02,0.0,inf", "non-finite"),
        pytest.param(
            "x" * 200_000 + ",32,0.02,0.0,0.0", "field larger than field limit", id="huge-cell"
        ),
        # three rows, all at one m: no log-log slope to fit
        pytest.param("arls,16,0.1,0.0,0.0\n" * 3, "distinct m", id="one-m-only"),
    ],
)
def test_rates_malformed_summary_exit_code(tmp_path, capsys, row, problem):
    summary = _rates_summary(tmp_path)
    summary.write_text(summary.read_text(encoding="utf-8") + row + "\n", encoding="utf-8")
    argv = ["rates", "--summary", str(summary), "--model", "sobolev:s=1,d=1"]
    where = re.escape(f" {summary}:4: ") if row.count("\n") == 0 else ""
    _refused(cli.main(argv), capsys, f"{where}.*{problem}")


# warnings are errors here, so a RuntimeWarning, like an uncaught exception, fails the test
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "kernel", ["gaussian:sigma=1e300", "gaussian:sigma=1e-300", "laplacian:sigma=1e-320"]
)
def test_compress_out_of_range_bandwidth_exit_code(data_csv, tmp_path, capsys, kernel):
    path, _ = data_csv
    _refused(cli.main(_compress(path, tmp_path / "r.csv", kernel=kernel)), capsys,
             " kernel bandwidth")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "first, spec",
    [
        ("0.1", "arls-poly:gamma=1e-300"),  # the curve overflows, then inf / inf
        ("0.1", "sobolev:s=100000,d=1"),
        ("1e300", "arls-poly:gamma=0.03"),  # a finite curve, but 1e300 / 1e-10 overflows
        # s / d of two Python ints beyond the float range
        pytest.param("0.1", f"sobolev:s=1{'0' * 400},d=1", id="0.1-sobolev:s=1e400,d=1"),
        pytest.param("0.1", f"sobolev:s=-1{'0' * 400},d=1", id="0.1-sobolev:s=-1e400,d=1"),
    ],
)
def test_rates_out_of_range_curve_exit_code(tmp_path, capsys, first, spec):
    summary = tmp_path / "s_summary.csv"
    summary.write_text(
        "method,m,error_median,error_std,time_median\n"
        f"uniform,8,{first},0.0,0.0\nuniform,16,0.05,0.0,0.0\nuniform,32,0.02,0.0,0.0\n",
        encoding="utf-8",
    )
    argv = ["rates", "--summary", str(summary), "--model", spec]
    assert len(_refused(cli.main(argv), capsys, "")) < 120  # a 400-digit s is abbreviated


@pytest.mark.filterwarnings("error")
def test_rates_nonpositive_m_exit_code(tmp_path, capsys):
    summary = tmp_path / "s_summary.csv"
    summary.write_text(
        "method,m,error_median,error_std,time_median\n"
        "uniform,0,0.1,0.0,0.0\nuniform,16,0.05,0.0,0.0\nuniform,32,0.02,0.0,0.0\n",
        encoding="utf-8",
    )
    code = cli.main(["rates", "--summary", str(summary), "--model", "uniform-exp"])
    _refused(code, capsys, " m values must be >= 2")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kernel", ["sobolev:s=1,d=2", "gaussian:sigma=1", "gaussian:sigma=median"])
def test_compress_overflowing_coordinates_exit_code(tmp_path, capsys, kernel):
    # 1e308 - (-1e308) overflows; coordinates above half the largest float are input errors
    path = tmp_path / "huge.csv"
    path.write_text("1e308,0\n-1e308,0\n0,1\n5,5\n", encoding="utf-8")
    _refused(cli.main(_compress(path, tmp_path / "r.csv", kernel=kernel, m=2)), capsys,
             " points need finite coordinates of at most half the largest")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "kernel, code",
    [
        ("laplacian:sigma=1e200", 1),
        ("gaussian:sigma=median", 1),
        ("laplacian:sigma=median", 1),
        ("sobolev:s=1,d=2", 0),
    ],
)
def test_compress_radial_kernel_coordinate_bound(tmp_path, capsys, kernel, code):
    # (2e200)^2 overflows a squared distance: k would read 0 and a median sigma inf
    path = tmp_path / "big.csv"
    path.write_text("1e200,0\n-1e200,0\n0,1\n5,5\n", encoding="utf-8")
    got = cli.main(_compress(path, tmp_path / "r.csv", kernel=kernel, m=2))
    if code:
        _refused(got, capsys, re.escape(" points need |coordinates| <= 2^500"))
    else:
        assert got == 0 and capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["arls", "uniform"])
def test_compress_overflowing_sobolev_diagonal_exit_code(tmp_path, capsys, method):
    # (1 + pi^2 / 3)^500 overflows a float: the kernel is refused before any evaluation
    path = tmp_path / "u500.csv"
    np.savetxt(path, np.random.default_rng(0).random((50, 500)), delimiter=",")
    argv = _compress(path, tmp_path / "r.csv", kernel="sobolev:s=1,d=500", method=method, m=10,
                     seed=1)
    _refused(cli.main(argv), capsys, " sobolev kernel s=1, d=500: its diagonal overflows")


@pytest.mark.filterwarnings("error")
def test_compress_fp_greedy_under_a_large_sobolev_diagonal(tmp_path, capsys):
    # k(x, x) = (1 + pi^2 / 3)^300 ~ 1e190: f/P must not square a kernel mean that large
    path = tmp_path / "u300.csv"
    np.savetxt(path, np.random.default_rng(0).random((50, 300)), delimiter=",")
    argv = _compress(path, tmp_path / "r.csv", kernel="sobolev:s=1,d=300", method="fp-greedy",
                     m=10, seed=1)
    assert cli.main(argv) == 0
    assert "wrote 10 nodes" in capsys.readouterr().out


@pytest.mark.filterwarnings("error")
def test_compress_overflowing_auto_lambda_exit_code(tmp_path, capsys):
    # the largest accepted d: 19 k(x, x) overflows, and the error names lambda=auto
    path = tmp_path / "u487.csv"
    np.savetxt(path, np.random.default_rng(0).random((50, 487)), delimiter=",")
    argv = _compress(path, tmp_path / "r.csv", kernel="sobolev:s=1,d=487", method="arls", m=10,
                     seed=1)
    _refused(cli.main(argv), capsys, " lambda=auto overflows under the sobolev kernel s=1, d=487")


@pytest.mark.filterwarnings("error")
def test_compress_standardize_huge_coordinates(tmp_path, capsys):
    # standardizing divides by the std, whose unscaled squares of 1e300 overflow
    path = tmp_path / "huge.csv"
    path.write_text("1e300,0\n-1e300,0\n0,1\n5,5\n", encoding="utf-8")
    argv = _compress(path, tmp_path / "r.csv", "--standardize", kernel="sobolev:s=1,d=2")
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""
    nodes = load_rule(tmp_path / "r.csv").nodes
    standardized = bench.standardize_points(load_csv(path).points)
    assert np.array_equal(np.sort(nodes, axis=0), np.sort(standardized, axis=0))
    assert np.allclose(np.sort(nodes[:, 0])[[0, -1]], [-np.sqrt(2.0), np.sqrt(2.0)], rtol=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kernel", ["gaussian:sigma=1e-150", "laplacian:sigma=1e-305"])
def test_compress_far_points_small_sigma(tmp_path, capsys, kernel):
    # distances far above sigma overflow the exponent to -inf: k = exp(-inf) = 0
    path = tmp_path / "far.csv"
    path.write_text("0,0\n1e5,0\n3e5,1\n", encoding="utf-8")
    assert cli.main(_compress(path, tmp_path / "r.csv", kernel=kernel, m=2)) == 0
    assert capsys.readouterr().err == ""
    assert len(load_rule(tmp_path / "r.csv")) == 2
