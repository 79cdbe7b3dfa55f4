"""Banded linear algebra shared by the Newton solvers and the eigen pencils.

Every matrix is symmetric and kept in lower band storage, shape (b+1, m):
band[d, j] = A[j+d, j]. This is LAPACK's lower storage (dpbtrf takes it as
is). The Newton Jacobians, which are the Hessians of their models'
energies, and the eigen pencils are kept in it.

The LAPACK routines (dgbtrf, dgbtrs, dpbtrf, dpbtrs, dpttrf, dpttrs) are
scipy's own f2py wrappers, loaded from its extension module
scipy/linalg/_flapack without running the scipy.linalg package's __init__:
that package's array-API layer imports numpy.f2py, numpy.testing, numpy.ma
and numpy.random, which doubled the start-up of every command. They are the
very objects that scipy.linalg.lapack re-exports, so results are the same
bits. If the direct load fails, scipy.linalg.lapack is imported instead.
"""
from __future__ import annotations

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
dgbtrf, dgbtrs, dpbtrf, dpbtrs, dpttrf, dpttrs = (
    LAPACK.dgbtrf, LAPACK.dgbtrs, LAPACK.dpbtrf, LAPACK.dpbtrs, LAPACK.dpttrf,
    LAPACK.dpttrs)

__all__ = ["sym_matvec", "abs_matvec", "equilibrate", "cholesky",
           "shifted_factor", "count_below", "sym_solver"]


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
    model's energy), else by the row-scaled LU of _lu_solver.

    Cholesky needs no row scaling: its backward error does not depend on a
    diagonal scaling of the matrix (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 10), so the ~50 decades of r^(N+1) weight on
    a graded grid cost it nothing. A band (every entry of the storage) or
    right-hand side that is not finite raises ValueError, a singular matrix
    LinAlgError (its zero pivot fails the Cholesky, and the LU finds it).
    """
    if not np.isfinite(band).all():
        raise ValueError("band matrix must not contain infs or NaNs")
    solve = cholesky(band) or _lu_solver(band)

    def checked(rhs):
        if not np.isfinite(rhs).all():
            raise ValueError("right-hand side must not contain infs or NaNs")
        return solve(rhs)
    return checked


def _lu_solver(band: np.ndarray):
    """solve(rhs) for the symmetric matrix in lower storage band (finite),
    by LU with partial pivoting: dgbtrf here, dgbtrs per call, the bits of
    one dgbsv call per right-hand side.

    Each row and its right-hand side entry are first divided by the row's
    largest |entry| (by 1 where it is 0): the r^(N+1) weights of the Newton
    systems span ~50 decades at large N on a graded grid, and without the
    row scaling the factorization loses the step. Row i holds band[0, i],
    band[d, i-d] left of the diagonal and band[d, i] right of it; entries
    of band outside the matrix are not read. The scaled entries go straight
    into dgbtrf's storage, A[i, j] at lu[2b + i - j, j] below b rows of
    fill-in. A zero pivot raises LinAlgError.
    """
    b = band.shape[0] - 1
    m = band.shape[1]
    mag = np.abs(band)
    rs = mag[0].copy()
    for d in range(1, b + 1):
        np.maximum(rs[d:], mag[d, :m - d], out=rs[d:])
        np.maximum(rs[:m - d], mag[d, :m - d], out=rs[:m - d])
    rs[rs == 0] = 1.0
    lu = np.zeros((3 * b + 1, m), order="F")
    np.divide(band[0], rs, out=lu[2 * b])
    for d in range(1, b + 1):
        np.divide(band[d, :m - d], rs[d:], out=lu[2 * b + d, :m - d])
        np.divide(band[d, :m - d], rs[:m - d], out=lu[2 * b - d, d:])
    lu, piv, info = dgbtrf(lu, b, b, overwrite_ab=1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return lambda rhs: dgbtrs(lu, b, b, rhs / rs, piv)[0]
