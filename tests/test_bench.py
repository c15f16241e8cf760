import csv
import dataclasses
import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kquad import InputError, bench
from kquad.bench import (
    ExperimentConfig,
    SUMMARY_HEADER,
    ExperimentResult,
    ResultRow,
    derive_rng,
    gen_synthetic,
    load_csv,
    load_rule,
    parse_config,
    read_summary_csv,
    run_experiment,
    run_to_files,
    save_rule,
    standardize_points,
    summarize,
    summary_path_for,
    write_raw_csv,
    write_summary_csv,
)
from kquad.kernels import parse_kernel
from kquad.quadrature import (
    QuadratureRule,
    TargetMeasure,
    compress,
    optimal_weights,
    worst_case_error,
)
from kquad.sampling import approx_rls_pilot, sample_proportional, uniform_subsample


def small_config(**overrides):
    base = dict(
        dataset="gaussian_mixture:d=2,k=3,sep=5",
        kernel="gaussian:sigma=median",
        n=200,
        methods=("uniform", "monte-carlo"),
        m_grid=(8, 16),
        trials=3,
        master_seed=11,
        output="unused.csv",
        workers=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------- datasets


def test_load_csv_standardized(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("0\n2\n", encoding="utf-8")
    points = standardize_points(load_csv(path).points)
    assert np.allclose(points.ravel(), [-1.0, 1.0])


def test_load_csv_header_detection(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("x,y\n1,2\n3,4\n", encoding="utf-8")
    ds = load_csv(path)
    assert ds.points.shape == (2, 2)
    assert np.array_equal(ds.points, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_keeps_the_first_row_after_a_bom(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf1.0,2.0\n3.0,4.0\n5.0,6.5\n")
    ds = load_csv(path)
    assert np.array_equal(ds.points, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.5]])


@pytest.mark.parametrize(
    "text",
    ['"1.5","2.0"\n3,4\n5,6\n', '"1.5","2.0"\n"3","4"\n"5","6"\n'],
    ids=["quoted-first-row", "all-quoted"],
)
def test_load_csv_reads_quoted_cells(tmp_path, text):
    # a quoted numeric first row is data, not a header
    path = tmp_path / "q.csv"
    path.write_text(text, encoding="utf-8")
    assert np.array_equal(load_csv(path).points, [[1.5, 2.0], [3.0, 4.0], [5.0, 6.0]])


def test_load_csv_errors(tmp_path):
    empty = tmp_path / "e.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(InputError):
        load_csv(empty)
    ragged = tmp_path / "r.csv"
    ragged.write_text("1,2\n3\n", encoding="utf-8")
    with pytest.raises(InputError, match=re.escape(f"{ragged}:2: ragged row")):
        load_csv(ragged)
    alpha = tmp_path / "a.csv"
    alpha.write_text("1,2\n3,zap\n", encoding="utf-8")
    with pytest.raises(InputError, match=re.escape(f"{alpha}:2: non-numeric cell in column 2")):
        load_csv(alpha)


def _outcome(read):
    """What a reader returns, or the message of the input error it raises."""
    try:
        return read()
    except InputError as exc:
        return str(exc)


def _assert_reads_as_the_row_loop(path):
    got = _outcome(lambda: load_csv(path).points)
    want = _outcome(lambda: bench._parse_rows(path, bench._read_lines(path)))
    if isinstance(want, np.ndarray) and not np.all(np.isfinite(want)):
        want = f"{path}: non-finite values"
    if isinstance(want, str):
        assert got == want
    else:  # bit for bit: signed zeros and subnormals included
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


_PLAIN_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
)
# cells that float() and numpy's parser may read differently, or not at all
_ODD_CELLS = st.builds(
    str.format,
    st.sampled_from(['{}', '"{}"', '\t{}\t', ' {} ', '"{}\n"', '"\n{}"', '"{}"5', '{}"', '""{}']),
    st.sampled_from([
        "-0.0", "5e-324", "1e500", "-1e500", "1e-400", "nan", "-nan", "inf", "-Infinity", "1_000",
        "\u0661\u0662", "0x1p3", ".5", "1.", "+2", "1,5", "1#5", "", " ", "x", "\x00", "1\x00", "\u00a03",
    ]),
)


@st.composite
def _csv_files(draw):
    width = draw(st.integers(1, 3))
    cell = st.one_of(_PLAIN_CELLS, _PLAIN_CELLS, _ODD_CELLS)
    data_row = st.lists(cell, min_size=width, max_size=width).map(",".join)
    row = st.one_of(
        data_row,
        data_row,
        data_row,
        st.lists(cell, min_size=1, max_size=width + 1).map(",".join),  # ragged, now and then
        st.sampled_from(["", ",", " , ", " \t ", "x_1,x_2", "x", '"a,b"']),  # blank or header
    )
    text = "\n".join(draw(st.lists(row, max_size=6))) + draw(st.sampled_from(["", "\n"]))
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + text.encode("utf-8")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=_csv_files())
def test_load_csv_reads_every_file_as_the_row_loop(tmp_path_factory, data):
    # numpy tokenizes the file; where it refuses a cell the row loop decides,
    # so the two readers return the same bits or raise the same message
    path = tmp_path_factory.getbasetemp() / "generated.csv"
    path.write_bytes(data)
    _assert_reads_as_the_row_loop(path)


_LIMIT = csv.field_size_limit()


@pytest.mark.parametrize(
    "cell", ["0." + "0" * _LIMIT + "1", '"' + "\n" * _LIMIT + '1.5"'], ids=["one-line", "quoted-newlines"]
)
def test_load_csv_refuses_a_cell_beyond_the_field_size_limit(tmp_path, cell):
    # numpy would read either cell; the csv module refuses it, at its line
    path = tmp_path / "long.csv"
    path.write_text(f"x_1,x_2\n1,2\n{cell},3\n", encoding="utf-8")
    message = _outcome(lambda: load_csv(path))
    pattern = re.escape(f"{path}:") + r"\d+: field larger than field limit \(\d+\)"
    assert isinstance(message, str) and re.fullmatch(pattern, message)
    _assert_reads_as_the_row_loop(path)


def test_load_csv_tokenizes_a_plain_file(tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a plain numeric file went through the row loop")

    monkeypatch.setattr(bench, "_parse_rows", never)
    path = tmp_path / "plain.csv"
    path.write_text('x_1,x_2\n1.5,-0.0\n"2",5e-324\n\n3e2,4\n', encoding="utf-8")
    points = load_csv(path).points
    assert points.tolist() == [[1.5, 0.0], [2.0, 5e-324], [300.0, 4.0]]
    assert np.signbit(points[0, 1])


def test_standardize_invariants():
    rng = np.random.default_rng(0)
    P = rng.standard_normal((500, 3)) * np.array([2.0, 0.5, 9.0]) + 4.0
    Z = standardize_points(P)
    assert np.max(np.abs(Z.mean(axis=0))) <= 1e-9
    assert np.max(np.abs(Z.var(axis=0) - 1.0)) <= 1e-6
    with pytest.raises(InputError, match="column 1"):
        standardize_points(np.array([[1.0, 1.0], [1.0, 2.0]]))


def test_standardize_huge_coordinates():
    # (1e300)^2 overflows: the unscaled std is inf and divides column 1 to zeros
    Z = standardize_points(np.array([[1e300, 0.0], [-1e300, 0.0], [0.0, 1.0], [5.0, 5.0]]))
    assert np.all(np.isfinite(Z))
    assert np.allclose(Z[:, 0], [np.sqrt(2.0), -np.sqrt(2.0), 0.0, 0.0], rtol=1e-15, atol=1e-290)
    assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-15)
    assert np.allclose(Z.var(axis=0), 1.0, rtol=1e-15)
    assert np.all(np.isfinite(standardize_points(np.array([[1.7e308], [-1.7e308], [1.0]]))))


@pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e-5, 1.0, 3.3, 1e10, 1e100, 1e150])
def test_standardize_keeps_the_unscaled_bits(scale):
    rng = np.random.default_rng(1)
    P = rng.standard_normal((1000, 3)) * scale + np.array([0.0, 7.0, -1e3]) * scale
    assert np.array_equal(standardize_points(P), (P - P.mean(axis=0)) / P.std(axis=0))


def test_gen_uniform_cube():
    ds = gen_synthetic("uniform_cube:d=1", 10_000, seed=5)
    assert ds.points.shape == (10_000, 1)
    assert np.all((0 <= ds.points) & (ds.points < 1))
    assert abs(ds.points.mean() - 0.5) < 0.02


def test_gen_deterministic():
    a = gen_synthetic("uniform_cube:d=3", 100, seed=9)
    b = gen_synthetic("uniform_cube:d=3", 100, seed=9)
    assert np.array_equal(a.points, b.points)
    c = gen_synthetic("uniform_cube:d=3", 100, seed=10)
    assert not np.array_equal(a.points, c.points)


def test_gen_mixture_clusters_recoverable():
    from kquad.bench import _mixture_centers

    ds = gen_synthetic("gaussian_mixture:d=2,k=3,sep=5", 3000, seed=3)
    # replay the generator's stream to recover the true component labels
    rng = np.random.default_rng(np.random.SeedSequence(3))
    centers = _mixture_centers(2, 3, 5.0, rng)
    true_labels = rng.integers(0, 3, size=3000)
    d2 = ((ds.points[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
    assigned = np.argmin(d2, axis=1)
    purity = float(np.mean(assigned == true_labels))
    assert purity >= 0.99


def test_mixture_centers_beyond_the_axes_lie_at_growing_radius():
    # k > 2d: the 2d signed axes at radius sep, then random directions at
    # sep * (1 + (j - 2d + 1) / 2d) for the j-th centre
    centers = bench._mixture_centers(1, 4, 5.0, np.random.default_rng(0))
    assert centers.shape == (4, 1)
    assert centers[:2, 0].tolist() == [5.0, -5.0]
    assert np.allclose(np.linalg.norm(centers, axis=1), [5.0, 5.0, 7.5, 10.0], rtol=0, atol=1e-12)


def test_gen_mixture_needs_k_at_most_n():
    # a huge k is refused before any of its centres is drawn
    message = "gaussian_mixture needs k <= n, got k = 100000000000, n = 300"
    with pytest.raises(InputError, match=message):
        gen_synthetic("gaussian_mixture:d=2,k=100000000000,sep=5", 300, seed=0)
    with pytest.raises(InputError, match="k = 3, n = 2"):  # the default k = 3
        gen_synthetic("gaussian_mixture:d=2", 2, seed=0)
    assert gen_synthetic("gaussian_mixture:d=2,k=4", 4, seed=0).points.shape == (4, 2)
    assert gen_synthetic("uniform_cube:d=2", 2, seed=0).points.shape == (2, 2)


def test_gen_errors():
    with pytest.raises(InputError):
        gen_synthetic("donut:d=2", 10, seed=0)
    with pytest.raises(InputError):
        gen_synthetic("uniform_cube:d=1", 0, seed=0)
    with pytest.raises(InputError):
        gen_synthetic("uniform_cube:d=1,extra=9", 5, seed=0)
    for sep in ("inf", "-inf", "nan"):  # the message names sep, not the points it would make
        with pytest.raises(InputError, match=f"finite sep, got sep = {sep}$"):
            gen_synthetic(f"gaussian_mixture:d=2,k=3,sep={sep}", 300, seed=0)


# ---------------------------------------------------------------- experiments


def test_run_experiment_row_count_and_order():
    res = run_experiment(small_config(methods=("uniform", "monte-carlo", "p-greedy")))
    assert len(res.rows) == 3 * 2 * 3  # methods x m_grid x trials
    keys = [(r.method, r.m, r.trial) for r in res.rows]
    assert keys == sorted(keys)
    assert all(r.error >= 0 and r.total_time_s >= 0 for r in res.rows)


def test_deterministic_methods_replicated():
    res = run_experiment(small_config(methods=("fp-greedy",), trials=4))
    for m in (8, 16):
        rows = [r for r in res.rows if r.m == m]
        assert len(rows) == 4
        assert all(r.trial == 0 for r in rows)
        assert len({r.error for r in rows}) == 1


def test_monte_carlo_full_size_is_multiset_error():
    # at m = n a with-replacement draw generically repeats points, and the
    # reported error must be exactly the multiset's worst-case error
    cfg = small_config(
        dataset="uniform_cube:d=1",
        kernel="sobolev:s=1,d=1",
        n=64,
        methods=("monte-carlo",),
        m_grid=(64,),
        trials=1,
    )
    res = run_experiment(cfg)
    row = res.rows[0]
    from kquad.bench import _DATA_STREAM, _METHOD_IDS

    seed = int(derive_rng(cfg.master_seed, _DATA_STREAM).integers(2**63))
    ds = gen_synthetic(cfg.dataset, cfg.n, seed)
    rng = derive_rng(cfg.master_seed, _METHOD_IDS["monte-carlo"], 64, 0)
    idx = rng.integers(0, 64, size=64)
    assert len(set(idx.tolist())) < 64  # a duplicated draw
    kern = parse_kernel(cfg.kernel)
    target = TargetMeasure.discrete(ds.points)
    from kquad.quadrature import QuadratureRule

    rule = QuadratureRule(nodes=ds.points[idx], weights=np.full(64, 1.0 / 64))
    assert abs(row.error - worst_case_error(rule, target, kern)) < 1e-12
    assert row.error > 1e-3


def test_reported_error_never_beats_optimal_weights():
    cfg = small_config(methods=("monte-carlo", "uniform", "arls"))
    res = run_experiment(cfg)
    from kquad.bench import _BANDWIDTH_STREAM, _METHOD_IDS, _resolve_dataset

    points, _, _ = _resolve_dataset(cfg)
    kern = parse_kernel(
        cfg.kernel, points=points, rng=derive_rng(cfg.master_seed, _BANDWIDTH_STREAM)
    )
    target = TargetMeasure.discrete(points)
    for row in res.rows:
        mid = _METHOD_IDS[row.method]
        draw = derive_rng(cfg.master_seed, mid, row.m, row.trial)
        if row.method == "arls":  # one pilot per trial, from the score stream
            pilot_rng = derive_rng(cfg.master_seed, mid, row.trial)
            scores = approx_rls_pilot(points, kern, rng=pilot_rng)
            idx = sample_proportional(scores, row.m, draw)
        else:
            idx = uniform_subsample(200, row.m, row.method != "uniform", draw)
        best = optimal_weights(kern, points[idx], target)
        assert row.error >= worst_case_error(best, target, kern) - 1e-10


def test_rows_do_not_depend_on_the_rest_of_the_grid():
    methods = ("uniform", "arls", "monte-carlo", "fp-greedy")
    both = run_experiment(small_config(methods=methods, m_grid=(16, 32)))
    alone = run_experiment(small_config(methods=methods, m_grid=(32,)))

    def key(r):
        return (r.method, r.m, r.trial, r.error)

    assert [key(r) for r in both.rows if r.m == 32] == [key(r) for r in alone.rows]


def test_greedy_rows_match_standalone_compress():
    from kquad.bench import _BANDWIDTH_STREAM, _resolve_dataset

    # both selections stop short of 64 nodes on this data
    cfg = small_config(methods=("fp-greedy", "p-greedy"), m_grid=(4, 16, 64), trials=1)
    res = run_experiment(cfg)
    points, _, _ = _resolve_dataset(cfg)
    kern = parse_kernel(
        cfg.kernel, points=points, rng=derive_rng(cfg.master_seed, _BANDWIDTH_STREAM)
    )
    for row in res.rows:
        assert repr(row.error) == repr(compress(points, kern, row.method, row.m).error)


def test_greedy_truncation_is_logged(caplog):
    cfg = small_config(methods=("fp-greedy",), m_grid=(16, 64, 128), trials=2)
    with caplog.at_level(logging.WARNING, logger="kquad"):
        res = run_experiment(cfg)
    [record] = caplog.records
    message = record.getMessage()
    used = int(re.search(r"stopped at (\d+) nodes", message).group(1))
    assert 16 < used < 64
    assert message.startswith("fp-greedy ")
    assert f"m = 64, 128 have {used} nodes" in message
    errors = {r.m: r.error for r in res.rows}
    assert errors[64] == errors[128]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="kquad"):
        run_experiment(small_config(methods=("fp-greedy",), m_grid=(8, 16)))
    assert not caplog.records


def test_timings_off_zeroes_the_row_times():
    res = run_experiment(small_config(methods=("uniform", "arls", "fp-greedy"), timings=False))
    assert res.rows
    for r in res.rows:
        assert (r.sample_time_s, r.weight_time_s, r.total_time_s) == (0.0, 0.0, 0.0)
    assert all(s.time_median == 0.0 for s in summarize(res))


def test_run_experiment_reproducible_bytes(tmp_path):
    cfg = small_config(
        methods=("uniform", "arls", "p-greedy"),
        timings=False,
        output=str(tmp_path / "a.csv"),
    )
    run_to_files(cfg)
    first_raw = (tmp_path / "a.csv").read_bytes()
    first_sum = (tmp_path / "a_summary.csv").read_bytes()
    cfg2 = small_config(
        methods=("uniform", "arls", "p-greedy"),
        timings=False,
        output=str(tmp_path / "b.csv"),
        workers=4,
    )
    run_to_files(cfg2)
    assert (tmp_path / "b.csv").read_bytes() == first_raw
    assert (tmp_path / "b_summary.csv").read_bytes() == first_sum


def test_validation_errors():
    with pytest.raises(InputError):
        run_experiment(small_config(m_grid=(16, 8)))
    with pytest.raises(InputError):
        run_experiment(small_config(m_grid=(8, 300)))  # m > n
    with pytest.raises(InputError):
        run_experiment(small_config(trials=0))
    with pytest.raises(InputError):
        run_experiment(small_config(methods=("herding",)))
    with pytest.raises(InputError):
        run_experiment(small_config(target="sphere"))
    with pytest.raises(InputError):
        run_experiment(small_config(dataset="uniform_cube:d=1", n=None))


def test_large_n_cap_on_quadratic_error():
    cfg = small_config(n=2**14 + 1, m_grid=(8,), trials=1, methods=("uniform",))
    with pytest.raises(InputError, match="allow_large_n"):
        run_experiment(cfg)
    # the analytic target has no quadratic error evaluation, so no cap applies
    cube = small_config(
        dataset="uniform_cube:d=1",
        kernel="sobolev:s=1,d=1",
        n=2**14 + 1,
        m_grid=(8,),
        trials=1,
        methods=("uniform",),
        target="unit-cube",
    )
    assert len(run_experiment(cube).rows) == 1


def test_synthetic_config_is_checked_before_the_points_are_drawn(monkeypatch):
    def never(*args):
        raise AssertionError("points drawn before the config was checked")

    monkeypatch.setattr(bench, "gen_synthetic", never)
    with pytest.raises(InputError, match="allow_large_n"):
        run_experiment(small_config(n=2**14 + 1))
    with pytest.raises(InputError, match="largest m 16 exceeds dataset size 8"):
        run_experiment(small_config(n=8))
    with pytest.raises(InputError, match="need n >= 1, got 0"):
        run_experiment(small_config(n=0))
    # the m cap holds under the unit-cube target too, where n is not capped
    cube = small_config(dataset="uniform_cube:d=1", kernel="sobolev:s=1,d=1", target="unit-cube",
                        n=16400, m_grid=(8, 2**14 + 1))
    with pytest.raises(InputError, match="m = 16385 exceeds 16384.*allow_large_n"):
        run_experiment(cube)


def test_allow_large_n_lifts_the_m_cap(monkeypatch):
    monkeypatch.setattr(bench, "LARGE_N", 8)  # a cap that a small Gram crosses
    cube = small_config(dataset="uniform_cube:d=1", kernel="sobolev:s=1,d=1", target="unit-cube",
                        n=32, m_grid=(4, 9), trials=1, methods=("uniform",))
    with pytest.raises(InputError, match="m = 9 exceeds 8"):
        run_experiment(cube)
    cube.allow_large_n = True
    assert len(run_experiment(cube).rows) == 2


def test_unit_cube_target_requires_sobolev():
    cfg = small_config(dataset="uniform_cube:d=1", kernel="gaussian:sigma=0.5", target="unit-cube")
    with pytest.raises(InputError):
        run_experiment(cfg)


def test_summarize_conventions():
    from kquad.bench import ExperimentResult, ResultRow

    rows = [ResultRow("u", 8, t, e, 0.0, 0.0, 0.0) for t, e in enumerate((1.0, 2.0, 3.0))]
    s = summarize(ExperimentResult(rows=rows))[0]
    assert s.error_median == 2.0
    rows = [ResultRow("u", 8, t, e, 0.0, 0.0, 0.0) for t, e in enumerate((1.0, 3.0))]
    s = summarize(ExperimentResult(rows=rows))[0]
    assert s.error_median == 2.0  # midpoint of two central values
    s = summarize(ExperimentResult(rows=rows[:1]))[0]
    assert s.error_std == 0.0  # single trial convention


def test_raw_csv_format(tmp_path):
    res = run_experiment(small_config(methods=("uniform",), m_grid=(8,), trials=2))
    path = tmp_path / "raw.csv"
    write_raw_csv(res, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "method,m,trial,error,sample_time_s,weight_time_s,total_time_s"
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert cells[0] == "uniform" and int(cells[1]) == 8
    assert float(cells[3]) >= 0.0


def test_csv_round_trip_with_comma_bearing_method(tmp_path):
    spec = "arls:lambda=auto,pilot=64"
    rows = [
        ResultRow(method, m, t, 0.5 / m + t * 1e-3, 0.0, 0.0, 0.0)
        for method in (spec, "uniform")
        for m in (8, 16)
        for t in range(2)
    ]
    result = ExperimentResult(rows=rows)
    raw, summary = tmp_path / "raw.csv", tmp_path / "raw_summary.csv"
    write_raw_csv(result, raw)
    write_summary_csv(summarize(result), summary)
    with open(raw, newline="", encoding="utf-8") as fh:
        back = [(r["method"], int(r["m"]), int(r["trial"]), float(r["error"]))
                for r in csv.DictReader(fh)]
    assert back == [(r.method, r.m, r.trial, r.error) for r in rows]
    assert read_summary_csv(summary) == summarize(result)
    # comma-free cells are written as plain text, one line per row
    lines = summary.read_text(encoding="utf-8").split("\n")
    assert lines[0] == "method,m,error_median,error_std,time_median" and lines[-1] == ""
    assert lines[1].startswith(f'"{spec}",8,') and lines[3].startswith("uniform,8,")


@pytest.mark.parametrize("reader", [load_csv, read_summary_csv, parse_config, load_rule])
def test_readers_name_a_file_that_is_not_utf8(tmp_path, reader):
    bad = tmp_path / "blob.bin"
    bad.write_bytes(b"method,m\n\x89PNG\r\n\x1a\n\xff\xfe")
    with pytest.raises(InputError, match=re.escape(f"{bad}: not UTF-8 text")):
        reader(bad)


@pytest.mark.parametrize("reader, text", [
    (load_csv, "x_1,x_2\n1.5,inf\n"),
    (load_rule, "index,x_1,weight\n0,inf,0.5\n"),
    (load_rule, "index,x_1,weight\n0,1.5,nan\n"),
], ids=["csv-inf", "rule-node-inf", "rule-weight-nan"])
def test_readers_refuse_non_finite_values(tmp_path, reader, text):
    path = tmp_path / "inf.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InputError, match=re.escape(f"{path}: non-finite values")):
        reader(path)


@pytest.mark.parametrize("text, problem", [
    ("x_1,weight\n0.5,1.0\n", ": not a quadrature-rule CSV"),
    ("index,x_1,weight\n1.5,0.5,1.0\n", ":2: non-integer index in column 1"),
], ids=["header", "index"])
def test_load_rule_refuses_a_file_it_did_not_write(tmp_path, text, problem):
    path = tmp_path / "rule.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InputError, match=re.escape(f"{path}{problem}") + "$"):
        load_rule(path)


# each reader with its header, one data row, and that row as plain values
_CSV_READERS = {
    "load_csv": (load_csv, "x_1,x_2", ["1.5", "-2"], lambda ds: ds.points.tolist()),
    "load_rule": (
        load_rule,
        "index,x_1,weight",
        ["3", "1.5", "-2"],
        lambda r: np.column_stack([r.indices, r.nodes, r.weights]).tolist(),
    ),
    "read_summary_csv": (
        read_summary_csv,
        SUMMARY_HEADER,
        ["uniform", "16", "0.5", "0.25", "0"],
        lambda rows: [dataclasses.astuple(r) for r in rows],
    ),
}


@pytest.mark.parametrize("name", sorted(_CSV_READERS))
def test_readers_share_one_csv_dialect(tmp_path, name):
    reader, header, cells, values = _CSV_READERS[name]
    plain, quoted = ",".join(cells), ",".join(f'"{c}"' for c in cells)
    reference = tmp_path / "plain.csv"
    reference.write_text(f"{header}\n{plain}\n{plain}\n", encoding="utf-8")
    expected = values(reader(reference))
    assert len(expected) == 2
    # quoted cells, CRLF line endings, a blank and a whitespace-only row
    path = tmp_path / "dialect.csv"
    path.write_bytes(f"{header}\r\n{quoted}\r\n\r\n \t \r\n{plain}\r\n".encode())
    assert values(reader(path)) == expected
    # a NUL byte is an input error at its line, whatever the csv module makes of it
    path.write_bytes(f"{header}\n{plain}\n{plain}\x00\n".encode())
    with pytest.raises(InputError, match=re.escape(f"{path}:3: ")):
        reader(path)


@pytest.mark.parametrize("indices", [[4, 0, 7], None])
def test_save_rule_bytes(tmp_path, indices):
    rule = QuadratureRule(
        nodes=[[0.1, -2.0], [1e-300, 3.5], [0.0, 1.0 / 3.0]],
        weights=[0.5, -0.25, 1e20],
        indices=None if indices is None else np.array(indices),
    )
    path = tmp_path / "rule.csv"
    save_rule(rule, path)
    i = indices or [-1, -1, -1]
    assert path.read_bytes() == (
        f"index,x_1,x_2,weight\n{i[0]},0.1,-2.0,0.5\n{i[1]},1e-300,3.5,-0.25\n"
        f"{i[2]},0.0,0.3333333333333333,1e+20\n"
    ).encode()


def test_parse_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        """
# benchmark config
dataset = uniform_cube:d=1
kernel = sobolev:s=1,d=1
methods = uniform, monte-carlo
m_grid = 8, 16
trials = 2
master_seed = 42
n = 100
target = unit-cube
timings = off
output = results.csv
""",
        encoding="utf-8",
    )
    cfg = parse_config(path)
    assert cfg.methods == ("uniform", "monte-carlo")
    assert cfg.m_grid == (8, 16)
    assert cfg.timings is False
    assert cfg.target == "unit-cube"
    run_experiment(cfg)  # parses into a runnable config


def test_config_keys_are_the_config_fields():
    assert set(bench._CONFIG_KEYS) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert all(map(callable, bench._CONFIG_KEYS.values()))


def test_parse_config_keeps_method_parameters(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        """
dataset = gaussian_mixture:d=2,k=3,sep=5
kernel = gaussian:sigma=median
methods = uniform, arls:lambda=auto,pilot=64, fp-greedy
m_grid = 8, 16
trials = 2
master_seed = 5
n = 200
timings = off
output = results.csv
""",
        encoding="utf-8",
    )
    cfg = parse_config(path)
    assert cfg.methods == ("uniform", "arls:lambda=auto,pilot=64", "fp-greedy")
    res = run_experiment(cfg)
    assert [r.method for r in res.rows].count("arls:lambda=auto,pilot=64") == 2 * 2


def test_parse_config_reads_a_first_key_after_a_bom(tmp_path):
    path = tmp_path / "bom.cfg"
    lines = ["dataset = uniform_cube:d=1", "kernel = sobolev:s=1,d=1", "methods = uniform",
             "m_grid = 8", "trials = 1", "master_seed = 3", "output = out.csv"]
    path.write_bytes(b"\xef\xbb\xbf" + "\n".join(lines).encode("utf-8"))
    assert parse_config(path).dataset == "uniform_cube:d=1"


def test_parse_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("dataset = uniform_cube:d=1\nwhat = 7\n", encoding="utf-8")
    with pytest.raises(InputError, match="unknown key"):
        parse_config(bad)
    bad.write_text("dataset uniform_cube\n", encoding="utf-8")
    with pytest.raises(InputError, match="key = value"):
        parse_config(bad)
    bad.write_text("dataset = uniform_cube:d=1\ntrials = soon\n", encoding="utf-8")
    with pytest.raises(InputError, match="bad value"):
        parse_config(bad)
    bad.write_text("dataset = uniform_cube:d=1\n", encoding="utf-8")
    missing = "missing required keys ['kernel', 'm_grid', 'master_seed', 'methods', 'output', 'trials']"
    with pytest.raises(InputError, match=re.escape(missing)):
        parse_config(bad)
    bad.write_text("dataset = uniform_cube:d=1\ntrials = 1\n\nTrials = 3\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"bad\.cfg:4: repeated key 'trials'"):
        parse_config(bad)


def test_summary_path_for():
    assert summary_path_for("out/results.csv") == "out/results_summary.csv"
    assert summary_path_for("results") == "results_summary.csv"

