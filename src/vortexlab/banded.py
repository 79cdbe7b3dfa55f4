"""Banded linear algebra shared by the Newton solvers and the eigen pencils.

Two storage forms:

* symmetric lower band, shape (b+1, m): band[d, j] = A[j+d, j]. This is
  LAPACK's lower storage (dpbtrf takes it as is);
* full band, shape (2b+1, m): ab[b + i - j, j] = A[i, j], the form of
  scipy.linalg.solve_banded with b sub- and b superdiagonals.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dpbtrf

from .core import InputError

__all__ = ["sym_matvec", "sym_to_full", "equilibrate", "count_below",
           "lu_solver"]


def sym_matvec(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for A in symmetric lower storage."""
    b = band.shape[0] - 1
    y = band[0] * x
    for d in range(1, b + 1):
        y[d:] += band[d, :-d] * x[:-d]
        y[:-d] += band[d, :-d] * x[d:]
    return y


def sym_to_full(band: np.ndarray) -> np.ndarray:
    """Expand symmetric lower storage to the full (2b+1, m) form."""
    b = band.shape[0] - 1
    m = band.shape[1]
    ab = np.zeros((2 * b + 1, m))
    ab[b] = band[0]
    for d in range(1, b + 1):
        ab[b + d, :m - d] = band[d, :m - d]      # subdiagonals
        ab[b - d, d:] = band[d, :m - d]          # superdiagonals
    return ab


def equilibrate(Ab: np.ndarray, Mb: np.ndarray):
    """Symmetric diagonal scaling making M unit-diagonal. A congruence, so
    pencil eigenvalues and inertia are untouched, but the 20 decades of
    r^(N-1) row imbalance on a graded grid disappear."""
    d = 1.0 / np.sqrt(Mb[0])
    b = Ab.shape[0] - 1
    m = Ab.shape[1]
    A2, M2 = Ab.copy(), Mb.copy()
    A2[0] *= d * d
    M2[0] *= d * d
    for k in range(1, b + 1):
        A2[k, :m - k] *= d[k:] * d[:m - k]
        M2[k, :m - k] *= d[k:] * d[:m - k]
    return A2, M2, d


def count_below(Ab: np.ndarray, Mb: np.ndarray, sigma: float,
                which: int = 0) -> int:
    """Eigenvalues of the pencil at or below sigma, capped at which + 1
    (Sylvester inertia of A - sigma*M).

    For which = 0 only definiteness matters: the banded Cholesky of LAPACK
    dpbtrf (same lower storage) fails exactly when A - sigma*M is not
    positive definite. Larger `which` needs the count itself, kept for
    tridiagonal pencils: LDL^T pivots, with pivots that vanish relative to
    their own row clamped negative (sigma numerically on an eigenvalue counts
    as at or below it).
    """
    S = Ab - sigma * Mb
    if which == 0:
        _, info = dpbtrf(S, lower=1)
        if info < 0:
            raise InputError(f"dpbtrf rejected argument {-info}")
        return int(info > 0)
    if S.shape[0] != 2:
        raise InputError("eigenpairs past the smallest need a tridiagonal "
                         "pencil")
    diag, off = S[0], S[1]
    rowmax = np.abs(diag)
    rowmax[1:] += np.abs(off[:-1])
    rowmax[:-1] += np.abs(off[:-1])
    pivmin = 2e-16 * np.maximum(rowmax, 1e-290)
    neg = 0
    d = diag[0]
    for j in range(diag.shape[0]):
        if j:
            d = diag[j] - off[j - 1] ** 2 / d
        if abs(d) < pivmin[j]:
            d = -pivmin[j]
        if d < 0:
            neg += 1
            if neg > which:
                break
    return neg


def lu_solver(ab: np.ndarray):
    """solve(rhs) for the square matrix in full band storage ab (equal sub-
    and superdiagonal counts), after scaling each row by its largest entry.

    The r^(N+1) weights of the Newton systems span ~50 decades at large N on
    a graded grid; without the row scaling the factorization loses the step.
    """
    b = ab.shape[0] // 2
    m = ab.shape[1]
    ab = ab.copy()
    rs = np.zeros(m)
    for k in range(2 * b + 1):
        d = k - b                          # ab[k, j] holds A[j + d, j]
        j0, j1 = max(0, -d), min(m, m - d)
        rows = slice(j0 + d, j1 + d)
        rs[rows] = np.maximum(rs[rows], np.abs(ab[k, j0:j1]))
    rs = np.where(rs > 0, rs, 1.0)
    for k in range(2 * b + 1):
        d = k - b
        j0, j1 = max(0, -d), min(m, m - d)
        ab[k, j0:j1] /= rs[j0 + d:j1 + d]

    def solve(rhs):
        return solve_banded((b, b), ab, rhs / rs)
    return solve
