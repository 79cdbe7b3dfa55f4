"""Banded linear algebra shared by the Newton solvers and the eigen pencils.

Two storage forms:

* symmetric lower band, shape (b+1, m): band[d, j] = A[j+d, j]. This is
  LAPACK's lower storage (dpbtrf takes it as is). The Newton Jacobians,
  which are the Hessians of their models' energies, and the eigen pencils
  are kept in it, and cholesky factors both;
* full band, shape (2b+1, m): ab[b + i - j, j] = A[i, j], LAPACK's general
  band (gb) layout with b sub- and b superdiagonals, without the b rows of
  fill-in space that dgbtrf adds on top. Only lu_solver takes it: it reads
  each row's scale off the band. sym_solver mirrors a Newton Jacobian into
  it when the Jacobian is not positive definite.

The LAPACK routines (dgbtrf, dgbtrs, dgtsv, dpbtrf, dpbtrs, dpttrf, dpttrs)
are scipy's own f2py wrappers, loaded from its extension module
scipy/linalg/_flapack without running the scipy.linalg package's __init__:
that package's array-API layer imports numpy.f2py, numpy.testing, numpy.ma
and numpy.random, which doubled the start-up of every command. They are the
very objects that scipy.linalg.lapack re-exports, so results are the same
bits. If the direct load fails, scipy.linalg.lapack is imported instead.
"""
from __future__ import annotations

import math
import os
from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                 FileFinder)
from importlib.util import find_spec, module_from_spec

import numpy as np

from .core import InputError


def _load_lapack():
    """scipy's LAPACK wrapper module: the extension scipy.linalg._flapack
    loaded on its own (find_spec of a top-level package does not import it),
    or scipy.linalg.lapack if that extension is not found or fails to load."""
    scipy = find_spec("scipy")
    if scipy is not None and scipy.origin:
        finder = FileFinder(os.path.join(os.path.dirname(scipy.origin),
                                         "linalg"),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec("scipy.linalg._flapack")
        if spec is not None:
            try:
                module = module_from_spec(spec)
                spec.loader.exec_module(module)
                return module
            except ImportError:
                pass
    from scipy.linalg import lapack
    return lapack


LAPACK = _load_lapack()
dgbtrf, dgbtrs, dgtsv, dpbtrf, dpbtrs, dpttrf, dpttrs = (
    LAPACK.dgbtrf, LAPACK.dgbtrs, LAPACK.dgtsv, LAPACK.dpbtrf, LAPACK.dpbtrs,
    LAPACK.dpttrf, LAPACK.dpttrs)

__all__ = ["sym_matvec", "abs_matvec", "equilibrate", "cholesky",
           "shifted_factor", "count_below", "sym_solver", "lu_solver"]


def sym_matvec(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for A in symmetric lower storage."""
    b = band.shape[0] - 1
    y = band[0] * x
    for d in range(1, b + 1):
        y[d:] += band[d, :-d] * x[:-d]
        y[:-d] += band[d, :-d] * x[d:]
    return y


def abs_matvec(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """|A| @ |x| for A in symmetric lower storage."""
    return sym_matvec(np.abs(band), np.abs(x))


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


def cholesky(band: np.ndarray, overwrite: bool = False):
    """solve(rhs) for the symmetric matrix in lower storage band if it is
    positive definite, else None: the definiteness test and, when it passes,
    the factorization to solve with.

    A factorization fails exactly when a pivot is <= 0, that is when the
    matrix is not positive definite. A tridiagonal matrix takes LAPACK
    dpttrf (LDL^T, O(n)) and dpttrs, a wider one the banded Cholesky dpbtrf
    (same lower storage) and dpbtrs. overwrite lets dpttrf factor a band
    the caller no longer needs in place. Neither routine looks for NaN or
    inf: a band that holds them can pass, so callers check it first.
    """
    if band.shape[0] == 2:
        d, e, info = dpttrf(band[0], band[1, :-1], overwrite_d=overwrite,
                            overwrite_e=overwrite)
        solve = lambda rhs: dpttrs(d, e, rhs)[0]
    else:
        c, info = dpbtrf(band, lower=1)
        solve = lambda rhs: dpbtrs(c, rhs, lower=1)[0]
    if info < 0:
        raise InputError(f"LAPACK rejected argument {-info}")
    return None if info > 0 else solve


def shifted_factor(Ab: np.ndarray, Mb: np.ndarray, sigma: float):
    """cholesky of A - sigma*M: its solve(rhs) if that matrix is positive
    definite, else None."""
    return cholesky(Ab - sigma * Mb, overwrite=True)


def count_below(Ab: np.ndarray, Mb: np.ndarray, sigma: float) -> int:
    """0 if the pencil has no eigenvalue at or below sigma, else 1 (Sylvester
    inertia, capped at one): shifted_factor's definiteness test."""
    return int(shifted_factor(Ab, Mb, sigma) is None)


def sym_solver(band: np.ndarray):
    """solve(rhs) for the symmetric matrix in lower storage band, factored
    once: by cholesky when it is positive definite, as every Newton
    Jacobian near a stable profile is (the Jacobian is the Hessian of the
    model's energy), else by lu_solver on the band mirrored to full storage.

    Cholesky needs no row scaling: its backward error does not depend on a
    diagonal scaling of the matrix (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 10), so the ~50 decades of r^(N+1) weight on
    a graded grid cost it nothing. A band (every entry of the storage) or
    right-hand side that is not finite raises ValueError, a singular matrix
    LinAlgError (its zero pivot fails the Cholesky, and the LU finds it).
    """
    if not np.isfinite(band).all():
        raise ValueError("band matrix must not contain infs or NaNs")
    solve = cholesky(band)
    if solve is None:
        return lu_solver(_full_band(band))

    def checked(rhs):
        if not np.isfinite(rhs).all():
            raise ValueError("right-hand side must not contain infs or NaNs")
        return solve(rhs)
    return checked


def _full_band(band: np.ndarray) -> np.ndarray:
    """The symmetric matrix in lower storage band, in full band storage."""
    b = band.shape[0] - 1
    m = band.shape[1]
    ab = np.zeros((2 * b + 1, m))
    ab[b] = band[0]
    for d in range(1, b + 1):
        ab[b + d, :m - d] = ab[b - d, d:] = band[d, :m - d]
    return ab


def lu_solver(ab: np.ndarray):
    """solve(rhs) for the square matrix in full band storage ab (equal sub-
    and superdiagonal counts), factored once.

    Each row and its right-hand side entry are first divided by the row's
    largest |entry| (by 1 where it is 0): the r^(N+1) weights of the Newton
    systems span ~50 decades at large N on a graded grid, and without the
    row scaling the factorization loses the step. The scaled band goes
    straight into LAPACK's storage: a tridiagonal matrix is solved by dgtsv
    on every call, a wider one factored by dgbtrf here and solved by dgbtrs
    per call, which gives the bits of one dgbsv call per right-hand side.
    Entries of ab outside the matrix are ignored. A matrix or right-hand
    side that is not finite raises ValueError, a zero pivot LinAlgError.
    """
    b = ab.shape[0] // 2
    m = ab.shape[1]
    mag = np.abs(ab)
    rs = mag[b].copy()
    for d in range(1, b + 1):       # superdiagonal d, then subdiagonal d
        np.maximum(rs[:m - d], mag[b - d, d:], out=rs[:m - d])
        np.maximum(rs[d:], mag[b + d, :m - d], out=rs[d:])
    # every entry inside the matrix enters one row maximum, and NaN
    # propagates through np.maximum and max
    if not math.isfinite(rs.max()):
        raise ValueError("band matrix must not contain infs or NaNs")
    rs[rs == 0] = 1.0
    lu = np.zeros((3 * b + 1, m), order="F")     # b rows of fill-in on top
    for k in range(2 * b + 1):                   # ab[k, j] holds A[j+k-b, j]
        j0, j1 = max(0, b - k), min(m, m + b - k)
        np.divide(ab[k, j0:j1], rs[j0 + k - b:j1 + k - b],
                  out=lu[b + k, j0:j1])

    def scaled(rhs):
        rhs = rhs / rs
        if not np.isfinite(rhs).all():
            raise ValueError("right-hand side must not contain infs or NaNs")
        return rhs

    if b == 1:
        dl, d, du = lu[3, :-1], lu[2], lu[1, 1:]

        def solve(rhs):
            *_, x, info = dgtsv(dl, d, du, scaled(rhs))
            if info > 0:
                raise np.linalg.LinAlgError("singular matrix")
            return x
        return solve

    lu, piv, info = dgbtrf(lu, b, b, overwrite_ab=1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")

    def solve(rhs):
        x, _ = dgbtrs(lu, b, b, scaled(rhs), piv)
        return x
    return solve
