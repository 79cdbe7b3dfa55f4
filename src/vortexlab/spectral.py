"""Radial Sturm-Liouville eigenproblems on the unit ball.

Assembles the weighted form  ∫ (q'^2 + (mu/r^2) q^2 + V q^2) r^(N-1) dr
against the mass  ∫ q^2 r^(N-1) dr  as a symmetric banded pencil (A, M) and
computes its smallest eigenpairs by inertia bisection plus inverse iteration.
The banded machinery is bandwidth-generic so the coupled stability blocks can
reuse it; here everything is tridiagonal.

Conventions: the stiffness is RadialGrid.stiffness (Dirichlet at r = 1,
zero-flux closure at r_min); its r_min row is kept when mu = 0 and dropped
(Dirichlet) when mu > 0, since a nonzero angular term forces q(0) = 0.
"""
from __future__ import annotations

import io
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .banded import (count_below, equilibrate, lu_solver, sym_matvec,
                     sym_to_full)
from .core import (ConvergenceError, InputError, NoThresholdError,
                   BracketError, Potential, RadialGrid, format_float,
                   make_grid)
from .profiles import GLProfile, solve_gl_profile, SolverOptions


def _abs_matvec(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    return sym_matvec(np.abs(band), np.abs(x))


def pencil_smallest(Ab: np.ndarray, Mb: np.ndarray, which: int = 0,
                    tol: float = 1e-9) -> tuple[float, np.ndarray, float, list]:
    """Smallest (or `which`-th) eigenpair of the symmetric banded pencil
    A q = lambda M q with M positive definite.

    The start vector x0 is the constant function in the caller's unknowns,
    M-normalized. Its Rayleigh quotient (a few times the smallest eigenvalue
    on the radial pencils) seeds the first bracket, which is widened until
    inertia counts straddle the eigenvalue. Inertia bisection narrows the
    bracket only to 1e-2 (relative), and inverse iteration from x0 with
    Rayleigh-quotient shifts delivers the pair. Two more inertia tests decide
    it: at most `which` eigenvalues lie at or below lambda - delta and more
    than `which` at or below lambda + delta, with delta = 1e-9 (1 + |lambda|).

    A miss is a bracket update: if the tests show that inverse iteration
    landed on another eigenvalue, the bracket moves past it; a Rayleigh
    quotient that leaves the bracket also ends the iteration as a miss, so
    every shift stays inside. The bracket is then bisected to 1e-6
    (relative) and inverse iteration restarts from x0. A second miss raises
    ConvergenceError, as does a backward error that stays above `tol`.

    Returns (eigenvalue, vector, residual, trace). The trace holds the
    bisection steps as (lo, hi, count) and every other event as a
    (tag, value) pair, among them ("missed", lambda), and ends with
    ("certified", (lambda - delta, lambda + delta)). Shared by the radial
    operators here and the coupled stability blocks; which > 0 needs a
    tridiagonal pencil.
    """
    if np.any(Mb[0] <= 0):
        raise InputError("mass diagonal must be positive")
    Ab, Mb, dscale = equilibrate(Ab, Mb)
    trace: list = []

    def count(sigma: float) -> int:
        return count_below(Ab, Mb, sigma, which)

    x0 = 1.0 / dscale                       # the constant function
    x0 /= math.sqrt(sym_matvec(Mb, x0) @ x0)
    hi = float(sym_matvec(Ab, x0) @ x0)    # Rayleigh quotient upper bound
    width = max(1.0, 0.1 * abs(hi))
    lo = hi - width
    while count(lo) > which:
        width *= 4.0
        lo -= width
        trace.append(("expand", lo))
        if width > 1e18:
            raise ConvergenceError("failed to bracket the eigenvalue from "
                                   "below", trace)
    while count(hi) <= which:
        hi += max(1.0, abs(hi))
        trace.append(("raise", hi))
        if hi > 1e18:
            raise ConvergenceError("failed to bracket the eigenvalue from "
                                   "above", trace)

    # invariant: count(lo) <= which < count(hi). The coarse bracket only
    # steers the shift; the inertia certificate decides the result
    for rel in (1e-2, 1e-6):
        while hi - lo > rel * (1.0 + max(abs(lo), abs(hi))):
            mid = 0.5 * (lo + hi)
            c = count(mid)
            trace.append((lo, hi, c))
            if c > which:
                hi = mid
            else:
                lo = mid
        sigma = 0.5 * (lo + hi)
        x = x0
        lam = sigma
        resid = math.inf
        for _ in range(8):
            try:
                # unscaled on purpose: with row scaling, inverse iteration
                # stalls at backward error ~3.5e-8 on stability blocks
                solve = lu_solver(sym_to_full(Ab - sigma * Mb), scale=False)
                for _ in range(3):
                    y = solve(sym_matvec(Mb, x))
                    nrm = math.sqrt(abs(sym_matvec(Mb, y) @ y))
                    if not np.isfinite(nrm) or nrm == 0.0:
                        raise np.linalg.LinAlgError(
                            "inverse iteration overflow")
                    x = y / nrm
            except (np.linalg.LinAlgError, ValueError):
                sigma += (hi - lo) * 1e-3 + abs(sigma) * 1e-13
                trace.append(("shift-jitter", sigma))
                continue
            lam = float(sym_matvec(Ab, x) @ x)        # x is M-normalized
            r = sym_matvec(Ab, x) - lam * sym_matvec(Mb, x)
            # normwise backward error: immune to the huge row-scale spread
            # and meaningful even when lam sits near zero
            denom = np.linalg.norm(_abs_matvec(Ab, x)
                                   + abs(lam) * _abs_matvec(Mb, x))
            resid = float(np.linalg.norm(r)) / max(denom, 1e-300)
            # a Rayleigh quotient that leaves the bracket is heading for
            # another eigenvalue: stop, so every shift stays inside
            if resid < tol or not lo < lam < hi:
                break
            sigma = lam
        if resid >= tol and lo < lam < hi:
            raise ConvergenceError(
                f"inverse iteration stalled (backward error {resid:.3e})",
                trace)

        # a small backward error alone does not say which eigenvalue lam is
        delta = 1e-9 * (1.0 + abs(lam))
        below, above = count(lam - delta), count(lam + delta)
        if resid < tol and below <= which < above:
            break
        trace.append(("missed", lam))
        if below > which:
            hi = min(hi, lam - delta)
        elif above <= which:
            lo = max(lo, lam + delta)
    else:
        raise ConvergenceError(
            f"eigenvalue {lam!r} (backward error {resid:.1e}) not certified "
            f"by inertia: counts {below} at lam - {delta:.1e} and {above} at "
            f"lam + {delta:.1e} (want <= {which} and > {which})", trace)
    trace.append(("certified", (lam - delta, lam + delta)))
    return lam, x * dscale, resid, trace


# ---------------------------------------------------------------------------
# radial operator assembly


@dataclass(frozen=True)
class SLOperator:
    """Discrete radial Sturm-Liouville pencil on (0, 1]."""
    grid: RadialGrid
    N: int
    mu: float
    V: np.ndarray          # node samples, full grid
    A: np.ndarray          # stiffness + zero-order terms, lower band (2, m)
    M: np.ndarray          # consistent P1 mass, lower band (2, m)
    start: int             # first active node index (0 if mu == 0 else 1)

    @property
    def size(self) -> int:
        return self.A.shape[1]

    def embed(self, x: np.ndarray) -> np.ndarray:
        """Active-node vector -> full-grid vector with Dirichlet zeros."""
        q = np.zeros(self.grid.n)
        q[self.start:self.start + self.size] = x
        return q


def assemble_radial_operator(N: int, grid: RadialGrid, mu: float,
                             V) -> SLOperator:
    """Banded pencil for ∫(q'^2 + (mu/r^2) q^2 + V q^2) r^(N-1) dr vs the
    r^(N-1)-weighted mass.

    Stiffness is the grid's flux form (RadialGrid.stiffness); the
    zero-order terms and the mass are consistent piecewise-linear matrices
    with exact radial moments (so the mu/r^2 weight needs no sampling near
    the origin, and a constant added to V shifts the discrete spectrum by
    exactly that constant). Consistent mass keeps the benchmark eigenvalues
    an order of magnitude tighter than lumping.
    """
    if grid.N != N:
        raise InputError("grid dimension does not match N")
    if mu < 0:
        raise InputError("mu must be nonnegative")
    if np.isscalar(V) or np.ndim(V) == 0:
        V = np.full(grid.n, float(V))
    V = np.asarray(V, dtype=float)
    if V.shape != grid.nodes.shape:
        raise InputError("V must be sampled on the grid nodes")
    if not np.all(np.isfinite(V)):
        raise InputError("V must be bounded on the nodes")

    n = grid.n
    start = 0 if mu == 0 else 1
    m = n - 1 - start
    if m < 2:
        raise InputError("grid too small for the eigenproblem")

    sd, so = grid.stiffness(N - 1)
    vd, vo = grid.p1_weighted_mass(V, 0)
    diag = sd[start:] + vd[start:start + m]
    off = so[start:] + vo[start:start + m - 1]
    if mu > 0:
        cd, co = grid.p1_mass(-2)
        diag += mu * cd[start:start + m]
        off += mu * co[start:start + m - 1]

    p1d, p1o = grid.p1_mass(0)
    A = np.array([diag, np.append(off, 0.0)])
    Mo = np.append(p1o[start:start + m - 1], 0.0)
    M = np.array([p1d[start:start + m], Mo])
    A.setflags(write=False)
    M.setflags(write=False)
    return SLOperator(grid=grid, N=N, mu=float(mu), V=V, A=A, M=M,
                      start=start)


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue with its node-sampled eigenfunction.

    q spans the full grid (Dirichlet zeros included), is normalized to
    ∫ q^2 r^(N-1) dr = 1 and sign-normalized positive near r_min. `residual`
    is the normwise backward error of the generalized eigen-residual on the
    assembled pencil.
    """
    eigenvalue: float
    q: np.ndarray
    grid: RadialGrid
    mu: float
    residual: float

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("r,q\n")
        for rr, qq in zip(self.grid.nodes, self.q):
            buf.write(f"{format_float(rr)},{format_float(qq)}\n")
        return buf.getvalue()


def smallest_eigenpair(op: SLOperator, which: int = 0) -> EigenPair:
    """Smallest (or next, which=1, for gap diagnostics) eigenpair of the
    assembled pencil via inertia bisection + inverse iteration."""
    if which not in (0, 1):
        raise InputError("only the smallest and second eigenpairs are "
                         "supported")
    lam, x, resid, trace = pencil_smallest(op.A, op.M, which=which)
    q = op.embed(x)
    nrm = math.sqrt(op.grid.quadrature(q * q))
    q = q / nrm
    first = q[op.start]
    if first < 0:
        q = -q
    if which == 0:
        interior = q[op.start:op.grid.n - 1]
        tiny = 1e-10 * float(np.max(np.abs(interior)))
        if np.any(interior < -tiny):
            raise ConvergenceError(
                "smallest mode came back with a sign change", trace)
    q.setflags(write=False)
    return EigenPair(eigenvalue=lam, q=q, grid=op.grid, mu=op.mu,
                     residual=resid)


# ---------------------------------------------------------------------------
# vortex linearization


def gl_linearization_eigenvalue(N: int, W, eps: float, grid: RadialGrid,
                                opts: SolverOptions = SolverOptions()
                                ) -> tuple[float, EigenPair, GLProfile]:
    """Smallest eigenvalue of the amplitude linearization around the vortex
    profile: potential V(r) = -W'(1 - f(r)^2)/eps^2, no angular term.

    The sign of (eigenvalue + transverse-well slope/eta^2) is what decides
    whether the symmetric branch can shed energy by escaping, so this value
    feeds both the phase diagram and the stability verdicts.
    """
    W = Potential.from_spec(W)
    profile = solve_gl_profile(N, W, eps, grid, opts)
    X = 1.0 - profile.f ** 2
    V = -W.eval(X, 1) / eps ** 2
    op = assemble_radial_operator(N, grid, 0.0, V)
    pair = smallest_eigenpair(op)
    lam = pair.eigenvalue
    lower = -W.eval(1.0, 1) / eps ** 2
    if lam <= lower - 1e-9 * (1.0 + abs(lower)):
        raise ConvergenceError(
            f"linearization eigenvalue {lam} under its lower bound {lower}",
            [("eps", eps)])
    return lam, pair, profile


def find_epsilon0(N: int, W, bracket: tuple[float, float], tol: float = 1e-8,
                  grid: RadialGrid | None = None,
                  opts: SolverOptions = SolverOptions()) -> float:
    """Coupling threshold: the eps at which the linearization eigenvalue
    crosses zero (negative below, positive above).

    Guarded regula-falsi in eps on the eigenvalue, valid because
    eps^2 * eigenvalue is strictly increasing. The result is accepted only if
    halving r_min moves the eigenvalue by under tol/10, confirming the
    zero-flux origin closure is not polluting the answer.
    """
    W = Potential.from_spec(W)
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise InputError("N must be an integer >= 2")
    if N >= 7:
        raise NoThresholdError(
            "no threshold: for N >= 7 the linearization eigenvalue stays "
            "positive at every eps")
    if W.eval(1.0, 1) <= 0.0:
        raise NoThresholdError(
            "no threshold: the well has zero slope at full depletion, so the "
            "linearization eigenvalue never turns negative")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0 < lo < hi):
        raise InputError("bracket must satisfy 0 < lo < hi")
    if tol <= 0:
        raise InputError("tol must be positive")
    if grid is None:
        grid = make_grid(N, 2000, {"graded": 2.0})

    def ell(e, g=grid):
        return gl_linearization_eigenvalue(N, W, e, g, opts)[0]

    flo, fhi = ell(lo), ell(hi)
    if not (flo < 0.0 < fhi):
        raise BracketError(
            f"bracket does not straddle the threshold: "
            f"eigenvalue({lo}) = {flo:.6g}, eigenvalue({hi}) = {fhi:.6g}")

    # Illinois variant: never leaves the bracket, superlinear once close
    e_mid, f_mid = lo, flo
    side = 0
    for _ in range(200):
        e_mid = (lo * fhi - hi * flo) / (fhi - flo)
        if not (lo < e_mid < hi):
            e_mid = 0.5 * (lo + hi)
        f_mid = ell(e_mid)
        if abs(f_mid) < tol:
            break
        if f_mid < 0:
            lo, flo = e_mid, f_mid
            if side == -1:
                fhi *= 0.5
            side = -1
        else:
            hi, fhi = e_mid, f_mid
            if side == 1:
                flo *= 0.5
            side = 1
    else:
        raise ConvergenceError(
            f"threshold search stalled at eigenvalue {f_mid:.3e}",
            [("bracket", (lo, hi))])

    shifted = ell(e_mid, grid.halve_rmin())
    if abs(shifted - f_mid) > 0.1 * tol:
        raise ConvergenceError(
            "threshold rejected: halving r_min moved the eigenvalue by "
            f"{abs(shifted - f_mid):.3e} (limit {0.1 * tol:.1e}); refine the "
            "grid near the origin", [("eps", e_mid)])
    return float(e_mid)


# ---------------------------------------------------------------------------
# sweeps and export


def _sweep_worker(args):
    N, wspec, eps, grid = args
    val, _, _ = gl_linearization_eigenvalue(N, Potential.from_spec(wspec),
                                            eps, grid)
    return val

def linearization_eigenvalue_sweep(N: int, W, eps_values,
                                   grid: RadialGrid | None = None,
                                   jobs: int = 1) -> list[tuple[float, float]]:
    """(eps, eigenvalue) rows across eps values; columns are independent so
    they parallelize across processes when jobs > 1."""
    W = Potential.from_spec(W)
    if grid is None:
        grid = make_grid(N, 2000, {"graded": 2.0})
    eps_values = [float(e) for e in eps_values]
    if jobs > 1:
        # the grid itself, not its spec: a spec does not rebuild every grid
        payload = [(N, W.spec(), e, grid) for e in eps_values]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            vals = list(pool.map(_sweep_worker, payload))
    else:
        vals = [gl_linearization_eigenvalue(N, W, e, grid)[0]
                for e in eps_values]
    return list(zip(eps_values, vals))


def sweep_to_csv(rows) -> str:
    buf = io.StringIO()
    buf.write("eps,eigenvalue,eps2_eigenvalue\n")
    for eps, val in rows:
        buf.write(f"{format_float(eps)},{format_float(val)},"
                  f"{format_float(eps * eps * val)}\n")
    return buf.getvalue()
