import json
import os
import subprocess
import sys
from importlib.machinery import ExtensionFileLoader
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dpbtrf

from vortexlab import banded
from vortexlab.banded import (abs_matvec, count_below, lu_solver,
                              shifted_factor, sym_matvec, sym_solver)

from test_spectral import _dense as _sym_dense
from test_spectral import ldl_count_below

ROUTINES = ("dgbtrf", "dgbtrs", "dgtsv", "dpbtrf", "dpbtrs", "dpttrf",
            "dpttrs")


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


def _row_maxima(ab):
    """Largest |entry| of each matrix row, by a per-diagonal loop over the
    entries inside the matrix."""
    b = ab.shape[0] // 2
    m = ab.shape[1]
    rs = np.zeros(m)
    for k in range(2 * b + 1):
        d = k - b                          # ab[k, j] holds A[j + d, j]
        j0, j1 = max(0, -d), min(m, m - d)
        rows = slice(j0 + d, j1 + d)
        rs[rows] = np.maximum(rs[rows], np.abs(ab[k, j0:j1]))
    return rs


def _unit_rows(ab):
    """ab with each matrix row divided by its largest |entry| (by 1 for a
    row of zeros), by a per-diagonal loop, and the divisors."""
    b = ab.shape[0] // 2
    m = ab.shape[1]
    rs = _row_maxima(ab)
    rs = np.where(rs > 0, rs, 1.0)
    ab = ab.copy()
    for k in range(2 * b + 1):
        d = k - b
        j0, j1 = max(0, -d), min(m, m - d)
        ab[k, j0:j1] /= rs[j0 + d:j1 + d]
    return ab, rs


def _reference_solver(ab, scale):
    """Row scaling by _unit_rows (none if not scale), then
    scipy.linalg.solve_banded: the bits lu_solver must reproduce."""
    b = ab.shape[0] // 2
    ab, rs = _unit_rows(ab) if scale else (ab, np.ones(ab.shape[1]))
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
    # scale=False hands over rows that already peak at 1, which lu_solver
    # must solve as given: the bits of plain solve_banded
    rng = np.random.default_rng(100 + seed)
    m = 50 + 9 * seed
    ab, _ = _graded_band(rng, b, m, decades=40)
    # entries outside the matrix are never read
    ab[:b, 0] = rng.standard_normal(b)
    ab[b + 1:, -1] = rng.standard_normal(b)
    # a diagonal of structural zeros, as in the two-field Newton band
    sparse = ab.copy()
    sparse[b - 1, 1:] = 0.0
    for band in (ab, sparse):
        if not scale:
            band = _unit_rows(band)[0]
        solve = lu_solver(band)
        ref = _reference_solver(band, scale)
        for _ in range(3):                 # one factorization, three solves
            rhs = rng.standard_normal(m) * 10.0 ** rng.uniform(-20, 20, m)
            assert np.array_equal(solve(rhs), ref(rhs))


@pytest.mark.parametrize("scale", [True, False])
@pytest.mark.parametrize("b", [1, 2])
def test_lu_solver_rejects_singular_and_nonfinite(b, scale):
    rng = np.random.default_rng(b)
    m = 20
    ab, A = _graded_band(rng, b, m, decades=10)

    def given(band):                       # what lu_solver is handed
        return band if scale else _unit_rows(band)[0]

    rhs = np.ones(m)
    singular = A.copy()
    singular[7] = 0.0                      # a zero row: its maximum is 0
    singular = _band(singular, b)
    with pytest.raises(np.linalg.LinAlgError):
        lu_solver(given(singular))(rhs)
    bad = ab.copy()
    bad[b, 3] = np.nan
    with pytest.raises(ValueError):
        lu_solver(given(bad))(rhs)
    rhs[5] = np.nan
    with pytest.raises(ValueError):
        lu_solver(given(ab))(rhs)


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
    lam = scipy.linalg.eigh(_sym_dense(A), _sym_dense(M), eigvals_only=True)
    shifts = np.concatenate([lam[:3] * (1.0 - 1e-6) - 1e-9,
                             lam[:3] * (1.0 + 1e-6) + 1e-9,
                             rng.uniform(lam[0] - 1.0, lam[-1], 10)])
    for sigma in shifts:
        got = count_below(A, M, sigma)
        cholesky = int(dpbtrf(A - sigma * M, lower=1)[1] > 0)
        ldl = min(ldl_count_below(A, M, sigma), 1)
        assert got == cholesky == ldl
        assert got == int(np.sum(lam <= sigma) > 0)


@pytest.mark.parametrize("b", [1, 2, 3])
def test_shifted_factor_solves_where_definite(b):
    # below the smallest eigenvalue the factor solves A - sigma*M; at or
    # above it there is none
    rng = np.random.default_rng(20 + b)
    m = 30
    Ab, Mb = _banded_pencil(rng, b, m)
    A, M = _sym_dense(Ab), _sym_dense(Mb)
    lam = scipy.linalg.eigh(A, M, eigvals_only=True)
    rhs = rng.standard_normal(m)
    for sigma in (lam[0] - 1.0, lam[0] - 1e-3):
        x = shifted_factor(Ab, Mb, sigma)(rhs)
        assert np.allclose(x, np.linalg.solve(A - sigma * M, rhs),
                           rtol=1e-8, atol=1e-10)
    for sigma in (lam[0] + 1e-3, lam[1], lam[-1] + 1.0):
        assert shifted_factor(Ab, Mb, sigma) is None


def test_lu_solver_leaves_its_input_alone():
    rng = np.random.default_rng(7)
    ab, _ = _graded_band(rng, 2, 30, decades=10)
    before = ab.copy()
    lu_solver(ab)(np.ones(30))
    assert np.array_equal(ab, before)


def _symmetric_band(rng, b, m, decades, definite):
    """Random symmetric band matrix in lower storage, diagonally dominant
    and positive definite, or with one negative eigenvalue (one diagonal
    entry negated), under a diagonal congruence spanning `decades` decades
    (the weight spread of the Newton Hessians). Zero outside the matrix."""
    band = rng.uniform(-1.0, 1.0, (b + 1, m))
    band[0] = 2.0 * b + 1.0 + rng.uniform(0.0, 1.0, m)
    if not definite:
        band[0, m // 3] *= -1.0
    s = np.logspace(0.0, -0.5 * decades, m)
    for d in range(b + 1):
        band[d, :m - d] *= s[d:] * s[:m - d]
        band[d, m - d:] = 0.0
    return band


def _counting_lu(monkeypatch):
    """The bands that banded.sym_solver hands to lu_solver while the test
    runs."""
    handed, real = [], banded.lu_solver

    def counting(ab):
        handed.append(ab.copy())
        return real(ab)

    monkeypatch.setattr(banded, "lu_solver", counting)
    return handed


@pytest.mark.parametrize("definite", [True, False],
                         ids=["definite", "indefinite"])
@pytest.mark.parametrize("b", [1, 2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_sym_solver_matches_dense_solve(monkeypatch, b, definite, seed):
    # a positive definite band is solved by Cholesky alone; an indefinite
    # one by the LU of its mirror, to the bits of lu_solver on that mirror
    handed = _counting_lu(monkeypatch)
    rng = np.random.default_rng(30 + seed)
    m = 40 + 7 * seed
    band = _symmetric_band(rng, b, m, 10 * seed, definite)
    A = _sym_dense(band)
    assert (np.linalg.eigvalsh(A)[0] > 0) == definite
    before = band.copy()
    solve = sym_solver(band)
    x_true = rng.standard_normal(m)
    rhs = A @ x_true
    got = solve(rhs)
    assert np.allclose(got, np.linalg.solve(A, rhs), rtol=1e-9, atol=1e-12)
    assert np.allclose(got, x_true, rtol=1e-9, atol=1e-12)
    assert np.array_equal(band, before)             # the input is left alone
    if definite:
        assert handed == []
    else:
        assert len(handed) == 1 and np.array_equal(handed[0], _band(A, b))
        assert np.array_equal(got, lu_solver(_band(A, b))(rhs))


@pytest.mark.parametrize("definite", [True, False],
                         ids=["definite", "indefinite"])
@pytest.mark.parametrize("b", [1, 2, 3])
def test_sym_solver_rejects_singular_and_nonfinite(monkeypatch, b, definite):
    # dpttrf and dpbtrf pass a NaN or +inf diagonal without complaint, so
    # the band is checked before the Cholesky; a singular matrix fails it
    # and the LU finds the zero pivot
    handed = _counting_lu(monkeypatch)
    rng = np.random.default_rng(40 + b)
    m = 20
    band = _symmetric_band(rng, b, m, 10, definite)
    rhs = np.ones(m)
    singular = band.copy()
    singular[:, 7] = 0.0                       # row and column 7 of A
    for d in range(1, b + 1):
        singular[d, 7 - d] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        sym_solver(singular)(rhs)           # dgtsv factors on each solve
    assert len(handed) == 1
    for d, j in ((0, 3), (1, 3), (b, 0), (b, m - 1)):  # m - 1: outside A
        for value in (np.nan, np.inf, -np.inf):
            bad = band.copy()
            bad[d, j] = value
            with pytest.raises(ValueError):
                sym_solver(bad)
    solve = sym_solver(band)
    for value in (np.nan, np.inf):
        bad = rhs.copy()
        bad[5] = value
        with pytest.raises(ValueError):
            solve(bad)
    assert len(handed) == 1 + (not definite)


@pytest.mark.parametrize("b", [1, 2, 3])
def test_symmetric_storage_round_trip(b):
    rng = np.random.default_rng(b)
    m = 12
    band = rng.standard_normal((b + 1, m))
    for d in range(1, b + 1):
        band[d, m - d:] = 0.0              # outside the matrix
    A = _sym_dense(band)
    assert np.array_equal(A, A.T)
    for d in range(b + 1):
        assert np.array_equal(np.diag(A, -d), band[d, :m - d])
    x = rng.standard_normal(m)
    assert np.allclose(sym_matvec(band, x), A @ x, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("b", [1, 2, 3])
def test_abs_matvec_matches_dense(b):
    # entries of the storage outside the matrix are not read
    rng = np.random.default_rng(10 + b)
    m = 15
    band = rng.standard_normal((b + 1, m))
    x = rng.standard_normal(m)
    inside = band.copy()
    for d in range(1, b + 1):
        inside[d, m - d:] = 0.0
    ref = np.abs(_sym_dense(inside)) @ np.abs(x)
    assert np.allclose(abs_matvec(band, x), ref, rtol=1e-14, atol=0.0)


def test_package_import_leaves_scipy_linalg_out():
    """A fresh `import vortexlab.cli` loads the LAPACK wrappers from scipy's
    extension module alone; a later `import scipy.linalg` still works and
    re-exports the very same wrapper objects."""
    code = (
        "import json, sys\n"
        "import vortexlab.cli\n"
        "from vortexlab import banded\n"
        "heavy = [m for m in ('scipy.linalg', 'scipy._lib._array_api')\n"
        "         if m in sys.modules]\n"
        "import scipy.linalg\n"
        "x = scipy.linalg.solve_banded((1, 1), [[0., 1.], [2., 2.], [1., 0.]],\n"
        "                              [3., 3.])\n"
        "same = all(getattr(scipy.linalg.lapack, n) is getattr(banded, n)\n"
        f"           for n in {ROUTINES!r})\n"
        "print(json.dumps([heavy, banded.LAPACK.__name__,\n"
        "                  type(banded.dpttrf).__name__, same, list(x)]))\n")
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    heavy, name, kind, same, x = json.loads(proc.stdout)
    assert heavy == []
    assert name == "scipy.linalg._flapack" and kind == "fortran"
    assert same and x == [1.0, 1.0]


def _banded_pencil(rng, b, m):
    """Symmetric A (indefinite) and diagonally dominant SPD M, both with
    bandwidth b, in lower storage."""
    A = rng.uniform(-1.0, 1.0, (b + 1, m))
    M = rng.uniform(-1.0, 1.0, (b + 1, m))
    for d in range(1, b + 1):
        A[d, m - d:] = 0.0
        M[d, m - d:] = 0.0
    M[0] = 2.0 * b + rng.uniform(0.1, 1.0, m)
    return A, M


# every path through banded, with the LAPACK routines it calls in order on
# the inputs of _lapack_runs: lu_solver at bandwidth 1 (dgtsv, on each
# solve) and 2 (dgbtrf, then dgbtrs per solve); sym_solver by Cholesky
# where definite and by the LU of the mirror after a failed Cholesky where
# not; count_below at five shifts, and a shifted_factor solve
LAPACK_PATHS = {
    "lu_solver b=1": ["dgtsv", "dgtsv"],
    "sym_solver b=1 definite": ["dpttrf", "dpttrs", "dpttrs"],
    "sym_solver b=1 indefinite": ["dpttrf", "dgtsv", "dgtsv"],
    "lu_solver b=2": ["dgbtrf", "dgbtrs", "dgbtrs"],
    "sym_solver b=2 definite": ["dpbtrf", "dpbtrs", "dpbtrs"],
    "sym_solver b=2 indefinite": ["dpbtrf", "dgbtrf", "dgbtrs", "dgbtrs"],
    "count_below b=1": ["dpttrf"] * 5,
    "shifted_factor b=1": ["dpttrf", "dpttrs"],
    "factor b=1": ["dpttrf"],
    "count_below b=2": ["dpbtrf"] * 5,
    "shifted_factor b=2": ["dpbtrf", "dpbtrs"],
    "factor b=2": ["dpbtrf"],
}


def _lapack_runs(rng):
    """Run each path of LAPACK_PATHS on fixed inputs, in order, and yield
    (path, what it gave) after each; "factor" is the Cholesky factor
    itself."""
    for b in (1, 2):
        ab, _ = _graded_band(rng, b, 60, decades=30)
        solve = lu_solver(ab)
        yield f"lu_solver b={b}", [solve(rng.standard_normal(60))
                                   for _ in range(2)]
        for kind in ("definite", "indefinite"):
            band = _symmetric_band(rng, b, 60, 30, kind == "definite")
            solve = sym_solver(band)
            yield f"sym_solver b={b} {kind}", [solve(rng.standard_normal(60))
                                               for _ in range(2)]
    for Ab, Mb in (_graded_tridiagonal_pencil(rng, 50, decades=4),
                   _banded_pencil(rng, 2, 50)):
        b = Ab.shape[0] - 1
        lam = scipy.linalg.eigh(_sym_dense(Ab), _sym_dense(Mb),
                                eigvals_only=True)
        shifts = np.concatenate([lam[:2] - 1e-9, lam[:2] + 1e-9,
                                 [lam[0] - 1.0]])
        yield f"count_below b={b}", [
            np.array([count_below(Ab, Mb, s) for s in shifts])]
        yield f"shifted_factor b={b}", [shifted_factor(Ab, Mb, lam[0] - 1.0)(
            rng.standard_normal(Ab.shape[1]))]
        S = Ab - (lam[0] - 1.0) * Mb
        yield f"factor b={b}", list(banded.dpttrf(S[0], S[1, :-1]) if b == 1
                                    else banded.dpbtrf(S, lower=1))


def _lapack_outputs(monkeypatch, lapack):
    """{path: (what it gave, the routines it called)} over _lapack_runs,
    with banded's routines taken from the wrapper module lapack."""
    calls = []

    def recording(name):
        routine = getattr(lapack, name)

        def call(*args, **kwargs):
            calls.append(name)
            return routine(*args, **kwargs)
        return call

    for name in ROUTINES:
        monkeypatch.setattr(banded, name, recording(name))
    out = {}
    for path, outputs in _lapack_runs(np.random.default_rng(14)):
        out[path] = outputs, calls[:]
        calls.clear()
    return out


class _FailingLoader(ExtensionFileLoader):
    def create_module(self, spec):
        raise ImportError("extension could not be loaded")


@pytest.mark.parametrize("failure", [
    ("find_spec", lambda name: None),
    ("EXTENSION_SUFFIXES", []),
    ("ExtensionFileLoader", _FailingLoader),
], ids=["no_scipy_spec", "no_extension_file", "extension_fails_to_load"])
def test_lapack_fallback_gives_the_same_bits(monkeypatch, failure):
    assert banded.LAPACK.__name__ == "scipy.linalg._flapack"
    direct = _lapack_outputs(monkeypatch, banded.LAPACK)
    monkeypatch.setattr(banded, *failure)
    fallback = banded._load_lapack()
    assert fallback is scipy.linalg.lapack
    got = _lapack_outputs(monkeypatch, fallback)
    assert list(direct) == list(got) == list(LAPACK_PATHS)
    for path, routines in LAPACK_PATHS.items():
        (ours, called), (theirs, called_too) = direct[path], got[path]
        assert called == called_too == routines, path
        assert len(ours) == len(theirs)
        for a, b in zip(ours, theirs):
            assert np.array_equal(a, b), path
