import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpstrf

from kquad import InputError
from kquad.numerics import _pivoted_cholesky, matvec, pinv_apply, syrk


def random_psd(rng, n):
    A = rng.standard_normal((n, n))
    return A @ A.T


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
    for v in (np.inf, -np.inf):  # the check reads A's min and max
        with pytest.raises(InputError):
            pinv_apply(np.array([[1.0, v], [v, 1.0]]), [1.0, 1.0])
    with pytest.raises(InputError):
        pinv_apply(np.eye(2), [1.0, np.inf])


@pytest.mark.parametrize("rank", [3, 7])
def test_pinv_reads_only_the_upper_triangle(rank):
    rng = np.random.default_rng(6)
    B = rng.standard_normal((7, rank))
    A = B @ B.T
    b = rng.standard_normal(7)
    garbage = A.copy()
    garbage[np.tril_indices(7, -1)] = 1e3 * rng.standard_normal(21)
    kept = garbage.copy()
    assert np.array_equal(pinv_apply(garbage, b), pinv_apply(A, b))
    assert np.array_equal(garbage, kept)  # the caller's matrix is not overwritten


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


@pytest.mark.parametrize("size, rank", [(128, 128), (130, 130), (200, 100), (300, 64)])
def test_pivoted_cholesky_factors_in_place(size, rank):
    """The factor is the Fortran-contiguous view S.T[:, :r], whose lower
    trapezoid has the bits of dpstrf's factor, at full rank and below it."""
    rng = np.random.default_rng(size)
    A = rng.standard_normal((size, rank))
    S = A @ A.T
    tol = size * np.finfo(np.float64).eps * float(np.max(np.diag(S)))
    c, piv, r, info = dpstrf(S.copy().T, tol=tol, lower=1, overwrite_a=1)
    assert info >= 0 and r == rank
    F, perm = _pivoted_cholesky(S)
    assert F.flags.f_contiguous and F.shape == (size, rank)
    assert F.strides == S.T.strides and F.ctypes.data == S.ctypes.data  # a view of S.T
    assert np.array_equal(np.tril(F), np.tril(c[:, :r]))
    assert np.array_equal(perm, piv - 1)


@pytest.mark.parametrize("size, rank", [(2, 1), (130, 130), (200, 100), (300, 64)])
def test_pinv_apply_in_place_has_the_bits_of_the_copy(size, rank):
    rng = np.random.default_rng(size + rank)
    A = rng.standard_normal((size, rank))
    K, b = A @ A.T, rng.standard_normal(size)
    expected = pinv_apply(K, b)
    assert np.array_equal(pinv_apply(K.copy(), b, overwrite_a=True), expected)
    # an array that cannot be factored in place is copied and left as it was
    read_only = K.copy()
    read_only.flags.writeable = False
    for other in (np.asfortranarray(K), read_only):
        assert np.array_equal(pinv_apply(other, b, overwrite_a=True), expected)
        assert np.array_equal(other, K)


# 1x1, single rows and columns, odd shapes, and larger products: square, one row
# or column over a power of two, and several times that
MATVEC_SHAPES = [(1, 1), (1, 7), (7, 1), (3, 5), (256, 256), (1025, 700), (700, 1025),
                 (1024, 1024), (2048, 1025)]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", MATVEC_SHAPES)
def test_matvec_has_numpy_bits(shape, order):
    rng = np.random.default_rng(shape[0] * 4099 + shape[1])
    A = np.asarray(rng.standard_normal(shape), order=order)
    x = rng.standard_normal(shape[1])
    assert np.array_equal(matvec(A, x), A @ x)


def _peak_bytes(f, *args):
    """Peak bytes numpy allocated while f(*args) ran (numpy reports its
    buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pinv_apply_in_place_makes_no_m_by_m_array():
    # no copy of the Gram, and no boolean mask for its finiteness check
    A = np.random.default_rng(0).standard_normal((1024, 1024))
    K = A @ A.T  # 8 MiB, full rank
    assert _peak_bytes(pinv_apply, K, np.ones(1024), True) < K.nbytes // 8


def test_pivoted_cholesky_allocates_only_the_lapack_work_array():
    # dpstrf's 2m-double work array and the pivots: no copy of any part of F
    A = np.random.default_rng(0).standard_normal((1024, 1024))
    assert _peak_bytes(_pivoted_cholesky, A @ A.T) < 24 * 1024


def test_pinv_apply_below_full_rank_holds_under_half_a_gram():
    # the QR overwrites the factor in place; what is left is its r x r R
    A = np.random.default_rng(0).standard_normal((1024, 640))
    K = A @ A.T  # 8 MiB, rank 640
    assert _peak_bytes(pinv_apply, K, np.ones(1024), True) < K.nbytes // 2


@pytest.mark.parametrize("order", ["C", "F"])
def test_matvec_copies_no_contiguous_input(order):
    rng = np.random.default_rng(0)
    A = np.asarray(rng.standard_normal((1024, 1024)), order=order)  # 8 MiB
    x = rng.standard_normal(1024)
    assert _peak_bytes(matvec, A, x) < A.nbytes // 64
    # the measure sees a copy: a strided view has to be copied for dgemv
    assert _peak_bytes(matvec, A[:, ::2], x[::2]) >= A.nbytes // 2


def test_syrk_copies_no_fortran_ordered_input():
    B = np.asfortranarray(np.random.default_rng(0).standard_normal((64, 16384)))  # 8 MiB
    assert _peak_bytes(syrk, B) < B.nbytes // 64


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (40, 4096), (257, 3000)])
def test_syrk_lower_triangle_has_numpy_bits(shape, order):
    rng = np.random.default_rng(shape[0] * 4099 + shape[1])
    B = np.asarray(rng.standard_normal(shape), order=order)
    assert np.array_equal(np.tril(syrk(B)), np.tril(B @ B.T))
