import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kquad import InputError
from kquad.numerics import eig_sym, pinv_apply


def random_psd(rng, n):
    A = rng.standard_normal((n, n))
    return A @ A.T


def test_eig_identity():
    e = eig_sym(np.eye(3))
    assert np.allclose(e.values, [1.0, 1.0, 1.0])


def test_eig_2x2_known_spectra():
    e = eig_sym(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(e.values, [3.0, 1.0], atol=1e-12)
    e = eig_sym(np.ones((2, 2)))
    assert np.allclose(e.values, [2.0, 0.0], atol=1e-12)


def test_eig_descending_reconstruction_orthonormal():
    rng = np.random.default_rng(0)
    for n in (2, 5, 9):
        A = random_psd(rng, n) - 1.5 * np.eye(n)
        e = eig_sym(A)
        assert np.all(np.diff(e.values) <= 0)
        recon = e.vectors @ np.diag(e.values) @ e.vectors.T
        assert np.max(np.abs(recon - A)) <= 1e-8 * (1 + np.max(np.abs(A)))
        assert np.max(np.abs(e.vectors.T @ e.vectors - np.eye(n))) <= 1e-8


def test_eig_deterministic():
    A = random_psd(np.random.default_rng(1), 6)
    e1, e2 = eig_sym(A), eig_sym(A)
    assert np.array_equal(e1.values, e2.values)
    assert np.array_equal(e1.vectors, e2.vectors)


def test_eig_input_errors():
    with pytest.raises(InputError):
        eig_sym(np.ones((2, 3)))
    with pytest.raises(InputError):
        eig_sym(np.array([[1.0, np.inf], [np.inf, 1.0]]))


def test_pinv_identity():
    assert np.allclose(pinv_apply(np.eye(2), [1.0, 2.0]), [1.0, 2.0])


def test_pinv_zeroes_null_space():
    out = pinv_apply(np.diag([4.0, 0.0]), [8.0, 5.0])
    assert np.allclose(out, [2.0, 0.0], atol=1e-12)


def test_pinv_rank_one():
    # pseudo-inverse of the all-ones 2x2 matrix is itself divided by 4
    out = pinv_apply(np.ones((2, 2)), [2.0, 2.0])
    assert np.allclose(out, [1.0, 1.0], atol=1e-12)


def test_pinv_full_rank_matches_solve():
    rng = np.random.default_rng(2)
    A = random_psd(rng, 7) + np.eye(7)
    b = rng.standard_normal(7)
    x = pinv_apply(A, b)
    assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)


def test_pinv_penrose_conditions():
    rng = np.random.default_rng(3)
    for _ in range(5):
        B = rng.standard_normal((6, 3))
        A = B @ B.T  # rank 3 PSD
        X = np.column_stack([pinv_apply(A, e) for e in np.eye(6)])
        assert np.max(np.abs(A @ X @ A - A)) <= 1e-6
        assert np.max(np.abs(A @ X - (A @ X).T)) <= 1e-8
        assert np.max(np.abs(X @ A - (X @ A).T)) <= 1e-8


def test_pinv_minimum_norm_preimage():
    rng = np.random.default_rng(4)
    B = rng.standard_normal((6, 3))
    A = B @ B.T
    w = rng.standard_normal(6)
    x = pinv_apply(A, A @ w)
    # the recovered preimage carries nothing in the null space of A
    e = np.linalg.eigh(A)
    null = e.eigenvectors[:, e.eigenvalues < 1e-10 * e.eigenvalues.max()]
    assert np.linalg.norm(null.T @ x) <= 1e-8


def test_pinv_zero_matrix_convention():
    out = pinv_apply(np.zeros((3, 3)), [1.0, 2.0, 3.0])
    assert np.array_equal(out, np.zeros(3))


def test_pinv_validation():
    with pytest.raises(InputError):
        pinv_apply(np.eye(2), [1.0, 2.0, 3.0])
    with pytest.raises(InputError):
        pinv_apply(np.array([[1.0, np.nan], [np.nan, 1.0]]), [1.0, 1.0])
    with pytest.raises(InputError):
        pinv_apply(np.eye(2), [1.0, np.inf])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    rank_frac=st.floats(0.0, 1.0),
    log_scale=st.integers(-4, 4),
)
def test_pinv_recovers_row_space_component(seed, n, rank_frac, log_scale):
    # A = B B^T has rank r; x = A^+ (A w) must reproduce A w and, being the
    # minimum-norm preimage, carry nothing along the null space of A.
    rng = np.random.default_rng(seed)
    r = round(rank_frac * n)
    B = rng.standard_normal((n, r)) * 10.0**log_scale
    A = B @ B.T
    w = rng.standard_normal(n)
    x = pinv_apply(A, A @ w)
    eps = np.finfo(np.float64).eps
    lam, V = np.linalg.eigh(A)
    norm_a = max(float(lam[-1]), 0.0)
    assert np.linalg.norm(A @ x - A @ w) <= 100 * n * eps * norm_a * max(np.linalg.norm(x), 1.0)
    if 0 < r < n:
        cond = norm_a / float(lam[n - r])  # condition number on the row space
        null = V[:, : n - r]
        assert np.linalg.norm(null.T @ x) <= 100 * n * eps * cond * np.linalg.norm(w)
    elif r == 0:
        assert np.array_equal(x, np.zeros(n))
