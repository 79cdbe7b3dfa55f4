import numpy as np
import pytest

from vortexlab.banded import lu_solver, sym_matvec, sym_to_full


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


def _graded_band(rng, b, m, decades):
    """Random diagonally dominant band matrix whose rows are scaled over
    `decades` decades (the weight spread of the Newton systems)."""
    ab = rng.uniform(-1.0, 1.0, (2 * b + 1, m))
    ab[b] = 2.0 * b + 1.0 + rng.uniform(0.0, 1.0, m)
    A = _dense(ab) * np.logspace(0.0, -decades, m)[:, None]
    out = np.zeros_like(ab)
    for k in range(2 * b + 1):
        for j in range(m):
            i = j + k - b
            if 0 <= i < m:
                out[k, j] = A[i, j]
    return out, A


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
