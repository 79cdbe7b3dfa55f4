import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dpbtrf

from vortexlab.banded import count_below, lu_solver, sym_matvec, sym_to_full


def _dense(ab):
    """Dense matrix of full band storage ab[b + i - j, j] = A[i, j]."""
    b = ab.shape[0] // 2
    m = ab.shape[1]
    A = np.zeros((m, m))
    for k in range(2 * b + 1):
        for j in range(m):
            i = j + k - b
            if 0 <= i < m:
                A[i, j] = ab[k, j]
    return A


def _band(A, b):
    """Full band storage of the dense matrix A (zeros outside it)."""
    m = A.shape[0]
    ab = np.zeros((2 * b + 1, m))
    for k in range(2 * b + 1):
        for j in range(m):
            i = j + k - b
            if 0 <= i < m:
                ab[k, j] = A[i, j]
    return ab


def _graded_band(rng, b, m, decades):
    """Random diagonally dominant band matrix whose rows are scaled over
    `decades` decades (the weight spread of the Newton systems)."""
    ab = rng.uniform(-1.0, 1.0, (2 * b + 1, m))
    ab[b] = 2.0 * b + 1.0 + rng.uniform(0.0, 1.0, m)
    A = _dense(ab) * np.logspace(0.0, -decades, m)[:, None]
    return _band(A, b), A


def _reference_solver(ab, scale):
    """Row scaling by a per-diagonal loop, then scipy.linalg.solve_banded:
    the bits lu_solver must reproduce."""
    b = ab.shape[0] // 2
    m = ab.shape[1]
    ab = ab.copy()
    rs = np.ones(m)
    if scale:
        rs = np.zeros(m)
        for k in range(2 * b + 1):
            d = k - b                      # ab[k, j] holds A[j + d, j]
            j0, j1 = max(0, -d), min(m, m - d)
            rows = slice(j0 + d, j1 + d)
            rs[rows] = np.maximum(rs[rows], np.abs(ab[k, j0:j1]))
        rs = np.where(rs > 0, rs, 1.0)
        for k in range(2 * b + 1):
            d = k - b
            j0, j1 = max(0, -d), min(m, m - d)
            ab[k, j0:j1] /= rs[j0 + d:j1 + d]
    return lambda rhs: scipy.linalg.solve_banded((b, b), ab, rhs / rs)


@pytest.mark.parametrize("b", [1, 2])
@pytest.mark.parametrize("seed", range(5))
def test_lu_solver_matches_dense_solve(b, seed):
    rng = np.random.default_rng(seed)
    m = 40 + 7 * seed
    ab, A = _graded_band(rng, b, m, decades=40)
    x_true = rng.standard_normal(m)
    rhs = A @ x_true
    got = lu_solver(ab)(rhs)
    ref = np.linalg.solve(A, rhs)
    assert np.allclose(got, ref, rtol=1e-10, atol=1e-12)
    assert np.allclose(got, x_true, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("scale", [True, False])
@pytest.mark.parametrize("b", [1, 2])
@pytest.mark.parametrize("seed", range(3))
def test_lu_solver_matches_row_scaled_solve_banded(b, seed, scale):
    rng = np.random.default_rng(100 + seed)
    m = 50 + 9 * seed
    ab, _ = _graded_band(rng, b, m, decades=40)
    # entries outside the matrix are never read
    ab[:b, 0] = rng.standard_normal(b)
    ab[b + 1:, -1] = rng.standard_normal(b)
    solve, ref = lu_solver(ab, scale=scale), _reference_solver(ab, scale)
    for _ in range(3):                     # one factorization, three solves
        rhs = rng.standard_normal(m) * 10.0 ** rng.uniform(-20, 20, m)
        assert np.array_equal(solve(rhs), ref(rhs))


@pytest.mark.parametrize("scale", [True, False])
@pytest.mark.parametrize("b", [1, 2])
def test_lu_solver_rejects_singular_and_nonfinite(b, scale):
    rng = np.random.default_rng(b)
    m = 20
    ab, A = _graded_band(rng, b, m, decades=10)
    rhs = np.ones(m)
    singular = A.copy()
    singular[7] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        lu_solver(_band(singular, b), scale=scale)(rhs)
    bad = ab.copy()
    bad[b, 3] = np.nan
    with pytest.raises(ValueError):
        lu_solver(bad, scale=scale)(rhs)
    rhs[5] = np.nan
    with pytest.raises(ValueError):
        lu_solver(ab, scale=scale)(rhs)


def _graded_tridiagonal_pencil(rng, m, decades):
    """Symmetric tridiagonal A (indefinite) and SPD M in lower storage, both
    under one diagonal congruence spanning `decades` decades."""
    A = rng.uniform(-1.0, 1.0, (2, m))
    A[1, -1] = 0.0
    M = np.zeros((2, m))
    M[1, :-1] = rng.uniform(-1.0, 1.0, m - 1)
    M[0] = rng.uniform(0.1, 1.0, m)
    M[0, 1:] += np.abs(M[1, :-1])
    M[0, :-1] += np.abs(M[1, :-1])
    s = 10.0 ** np.linspace(-0.5 * decades, 0.5 * decades, m)
    for band in (A, M):
        band[0] *= s * s
        band[1, :-1] *= s[1:] * s[:-1]
    return A, M


@pytest.mark.parametrize("seed", range(20))
def test_tridiagonal_definiteness_matches_cholesky_and_ldl(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4, 80))
    A, M = _graded_tridiagonal_pencil(rng, m, decades=seed % 7)
    lam = scipy.linalg.eigh(_dense(sym_to_full(A)), _dense(sym_to_full(M)),
                            eigvals_only=True)
    shifts = np.concatenate([lam[:3] * (1.0 - 1e-6) - 1e-9,
                             lam[:3] * (1.0 + 1e-6) + 1e-9,
                             rng.uniform(lam[0] - 1.0, lam[-1], 10)])
    for sigma in shifts:
        got = count_below(A, M, sigma)
        cholesky = int(dpbtrf(A - sigma * M, lower=1)[1] > 0)
        ldl = min(count_below(A, M, sigma, which=1), 1)
        assert got == cholesky == ldl
        assert got == int(np.sum(lam <= sigma) > 0)


def test_lu_solver_leaves_its_input_alone():
    rng = np.random.default_rng(7)
    ab, _ = _graded_band(rng, 2, 30, decades=10)
    before = ab.copy()
    lu_solver(ab)(np.ones(30))
    assert np.array_equal(ab, before)


@pytest.mark.parametrize("b", [1, 2, 3])
def test_symmetric_storage_round_trip(b):
    rng = np.random.default_rng(b)
    m = 12
    band = rng.standard_normal((b + 1, m))
    for d in range(1, b + 1):
        band[d, m - d:] = 0.0              # outside the matrix
    A = _dense(sym_to_full(band))
    assert np.array_equal(A, A.T)
    for d in range(b + 1):
        assert np.array_equal(np.diag(A, -d), band[d, :m - d])
    x = rng.standard_normal(m)
    assert np.allclose(sym_matvec(band, x), A @ x, rtol=1e-14, atol=1e-14)
