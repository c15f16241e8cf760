import numpy as np
import pytest

from kquad import bench, cli
from kquad.bench import read_summary_csv
from kquad.errors import NumericalError
from kquad.kernels import gaussian
from kquad.quadrature import TargetMeasure, load_rule, worst_case_error


@pytest.fixture
def data_csv(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((60, 2))
    path = tmp_path / "data.csv"
    path.write_text(
        "\n".join(",".join(repr(float(v)) for v in row) for row in pts) + "\n", encoding="utf-8"
    )
    return path, pts


def test_compress_command(data_csv, tmp_path, capsys):
    path, pts = data_csv
    out = tmp_path / "rule.csv"
    code = cli.main(
        [
            "compress",
            "--input", str(path),
            "--kernel", "gaussian:sigma=0.8",
            "--method", "uniform",
            "--m", "10",
            "--seed", "5",
            "--output", str(out),
        ]
    )
    assert code == 0
    rule = load_rule(out)
    assert len(rule) == 10
    err = worst_case_error(rule, TargetMeasure.discrete(pts), gaussian(0.8))
    reported = capsys.readouterr().out
    assert f"{err:.6g}" in reported


def test_compress_greedy_method(data_csv, tmp_path):
    path, _ = data_csv
    out = tmp_path / "rule.csv"
    code = cli.main(
        [
            "compress",
            "--input", str(path),
            "--kernel", "gaussian:sigma=median",
            "--method", "fp-greedy",
            "--m", "6",
            "--seed", "1",
            "--output", str(out),
        ]
    )
    assert code == 0
    assert len(load_rule(out)) == 6


def test_run_and_rates_commands(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    raw = tmp_path / "res.csv"
    cfg.write_text(
        f"""
dataset = uniform_cube:d=1
kernel = sobolev:s=1,d=1
methods = uniform, monte-carlo
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
    assert {r.method for r in rows} == {"uniform", "monte-carlo"}

    overlay = tmp_path / "overlay.csv"
    code = cli.main(
        ["rates", "--summary", str(summary), "--model", "sobolev:s=1,d=1", "--output", str(overlay)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "fitted slope" in printed
    lines = overlay.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "method,m,error_median,predicted_error"
    assert len(lines) == 1 + 2 * 3


def test_input_error_exit_code(tmp_path):
    assert cli.main(["run", str(tmp_path / "missing.cfg")]) == 1
    assert (
        cli.main(
            [
                "compress",
                "--input", str(tmp_path / "missing.csv"),
                "--kernel", "gaussian:sigma=1",
                "--method", "uniform",
                "--m", "4",
                "--seed", "0",
                "--output", str(tmp_path / "r.csv"),
            ]
        )
        == 1
    )


def test_bad_method_exit_code(data_csv, tmp_path):
    path, _ = data_csv
    code = cli.main(
        [
            "compress",
            "--input", str(path),
            "--kernel", "gaussian:sigma=1",
            "--method", "dpp",
            "--m", "4",
            "--seed", "0",
            "--output", str(tmp_path / "r.csv"),
        ]
    )
    assert code == 1


def test_usage_error_exit_code():
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["compress", "--input", "x.csv"]) == 1


def test_numerical_error_exit_code(monkeypatch, tmp_path):
    cfg = tmp_path / "x.cfg"
    cfg.write_text("dataset = d\n", encoding="utf-8")

    def boom(path):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli.bench, "parse_config", boom)
    assert cli.main(["run", str(cfg)]) == 2


@pytest.mark.parametrize("m", ["0", "-3"])
def test_compress_nonpositive_m_exit_code(data_csv, tmp_path, capsys, m):
    path, _ = data_csv
    code = cli.main(
        [
            "compress",
            "--input", str(path),
            "--kernel", "gaussian:sigma=1",
            "--method", "monte-carlo",
            "--m", m,
            "--seed", "0",
            "--output", str(tmp_path / "r.csv"),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def write_run_config(tmp_path, **extra):
    cfg = tmp_path / "exp.cfg"
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
    assert cli.main(["run", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("key", ["master_seed", "data_seed"])
def test_run_negative_seed_exit_code(tmp_path, capsys, key):
    assert cli.main(["run", str(write_run_config(tmp_path, **{key: "-1"}))]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must be >= 0")


def test_compress_negative_seed_exit_code(data_csv, tmp_path, capsys):
    path, _ = data_csv
    code = cli.main(
        [
            "compress",
            "--input", str(path),
            "--kernel", "gaussian:sigma=median",
            "--method", "uniform",
            "--m", "4",
            "--seed", "-1",
            "--output", str(tmp_path / "r.csv"),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: --seed must be >= 0")


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_run_nonpositive_workers_exit_code(tmp_path, capsys, workers):
    assert cli.main(["run", str(write_run_config(tmp_path, workers=workers))]) == 1
    assert capsys.readouterr().err.startswith(f"error: workers must be >= 1, got {workers}")


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
        argv = [
            "compress",
            "--input", str(files["--input"]),
            "--kernel", "gaussian:sigma=1",
            "--method", "uniform",
            "--m", "4",
            "--seed", "0",
            "--output", str(files["--output"]),
        ]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_compress_checks_output_before_any_work(data_csv, tmp_path, capsys, monkeypatch, where):
    def never(*args, **kwargs):
        raise AssertionError("called before the output path was checked")

    monkeypatch.setattr(bench, "load_csv", never)
    monkeypatch.setattr(cli, "compress", never)
    path, _ = data_csv
    out = tmp_path if where == "directory" else tmp_path / "missing" / "rule.csv"
    argv = [
        "compress",
        "--input", str(path),
        "--kernel", "gaussian:sigma=median",
        "--method", "uniform",
        "--m", "4",
        "--seed", "0",
        "--output", str(out),
    ]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out) in err


def test_rates_on_a_run_with_a_comma_bearing_method(tmp_path, capsys):
    spec = "arls:lambda=auto,pilot=16"
    cfg = write_run_config(tmp_path, methods=f"uniform, {spec}", m_grid="8, 16, 32")
    assert cli.main(["run", str(cfg)]) == 0
    assert cli.main(["rates", "--summary", str(tmp_path / "res_summary.csv"),
                     "--model", "sobolev:s=1,d=1"]) == 0
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
        ("compress", "arls:lambda=abc"),
        ("compress", "arls:pilot=1.5"),
        ("compress", "arls:lambda=nan"),
        ("compress", "arls:lambda=inf"),
        ("compress", "arls:lambda=-1"),
        ("compress", "arls:lambda=0"),
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
        argv = [
            "compress",
            "--input", str(path),
            "--kernel", "gaussian:sigma=1",
            "--method", spec,
            "--m", "4",
            "--seed", "0",
            "--output", str(tmp_path / "r.csv"),
        ]
    else:
        # a third row, so the slope fit passes and the curve itself is evaluated
        summary = _rates_summary(tmp_path)
        third = "uniform,32,0.02,0.0,0.0\n"
        summary.write_text(summary.read_text(encoding="utf-8") + third, encoding="utf-8")
        argv = ["rates", "--summary", str(summary), "--model", spec]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


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
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    where = f"{summary}:4: " if row.count("\n") == 0 else ""
    assert err.startswith(f"error: {where}") and problem in err
