"""Radial profile boundary-value solvers and reduced energies.

Three models on the unit ball, reduced to r ∈ (0, 1]:

* the scalar vortex amplitude f with f(1)=1 (maps into R^N), solved in the
  regular variable v = f/r;
* the two-field extension (f, g) where g is the out-of-plane component,
  penalized by a transverse potential; branches: non_escaping (g ≡ 0) and
  escaping (g > 0);
* the sphere-valued polar angle θ with θ(1) = π/2 (g = cos θ escapes toward
  the pole at the origin).

All solvers are damped Newton on the finite-volume operator of
RadialGrid.flux_residual and RadialGrid.stiffness (stencil and boundary
conventions are documented there) plus pointwise well terms, with parameter
continuation for stiff regimes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .banded import lu_solver, sym_to_full
from .core import (
    ConvergenceError,
    InputError,
    Potential,
    RadialGrid,
    format_float,
    make_grid,
)

__all__ = [
    "SolverOptions",
    "GLProfile",
    "ExtendedProfile",
    "SphereProfile",
    "solve_gl_profile",
    "solve_extended_profile",
    "solve_sphere_profile",
    "reduced_energy_gl",
    "reduced_energy_extended",
    "reduced_energy_mm",
    "residual",
    "pohozaev_check",
    "profile_to_csv",
    "profile_to_json",
    "profile_from_json",
]


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-10            # sup-norm of the discrete residual
    max_iter: int = 60
    g_seed: float = 0.5           # escaping initial guess amplitude


MIN_DAMPING = 2.0**-16
ESCAPE_TOL = 1e-6                 # branch disambiguation threshold on max g
EPS_DIRECT = 0.25                 # solve directly for eps >= this, else continue
CONTINUATION_FACTOR = math.sqrt(2.0)
ETA_ANCHORS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
COLLAPSE_ANGLE = 0.5              # θ(r_min) above this = equator collapse
GLUE_GAP = 1e-4                   # π/2 − θ(1/2) below this = equator with a
                                  # spurious O(r_min) core; counts as collapse


# ---------------------------------------------------------------------------
# damped Newton driver


def _newton(assemble: Callable, u0: np.ndarray, opts: SolverOptions,
            stage: str, trace: list) -> tuple[np.ndarray, float]:
    """assemble(u) -> (residual vector, solve(rhs) -> Newton step)."""
    u = np.array(u0, dtype=float)
    res, solve = assemble(u)
    norm = float(np.max(np.abs(res)))
    for it in range(opts.max_iter):
        if norm <= opts.tol:
            return u, norm
        delta = solve(-res)
        alpha = 1.0
        while True:
            trial = u + alpha * delta
            res2, solve2 = assemble(trial)
            norm2 = float(np.max(np.abs(res2)))
            if norm2 <= (1.0 - 1e-4 * alpha) * norm or norm2 <= opts.tol:
                break
            alpha *= 0.5
            if alpha < MIN_DAMPING:
                trace.append((stage, it, norm, alpha))
                raise ConvergenceError(
                    f"Newton stalled in stage {stage!r} (residual {norm:.3e})",
                    trace)
        u, res, solve, norm = trial, res2, solve2, norm2
        trace.append((stage, it, norm, alpha))
    if norm <= opts.tol:
        return u, norm
    trace.append((stage, opts.max_iter, norm, 0.0))
    raise ConvergenceError(
        f"Newton did not reach tol in stage {stage!r} (residual {norm:.3e})",
        trace)


def _lazy_solver(jacobian: Callable) -> Callable:
    """solve(rhs) that builds and factors jacobian() (full band storage) when
    called. _newton calls it once for an iterate it steps from, so a
    rejected line-search trial and a stage's final iterate never pay for a
    Jacobian."""
    return lambda rhs: lu_solver(jacobian())(rhs)


# ---------------------------------------------------------------------------
# discrete operators (shared by solvers and the independent residual check)


def _gl_residual_full(grid, eps, well, v):
    """FV residual of (r^{N+1} v')' = -(r^{N+1}/eps²) W'(1-r²v²) v at nodes
    0..n-2 (node n-1 carries the Dirichlet value v=1), with the well's
    argument x and W'(x) at nodes 0..n-2."""
    mass = grid.hat_weights(2)[:-1]
    r = grid.nodes
    x = (1.0 - r * r * v * v)[:-1]
    wp = well.eval(x, 1, clamp=True)
    res = grid.flux_residual(v, grid.N + 1)
    res -= mass / eps**2 * wp * v[:-1]
    return res, x, wp


def _gl_assemble(grid, eps, well):
    sd, so = grid.stiffness(grid.N + 1)
    mass = grid.hat_weights(2)[:-1]
    r = grid.nodes[:-1]

    def assemble(vi):
        v = np.append(vi, 1.0)
        res, x, wp = _gl_residual_full(grid, eps, well, v)

        def jacobian():
            wpp = well.eval(x, 2, clamp=True)
            diag = sd - mass / eps**2 * (wp - 2 * r**2 * vi**2 * wpp)
            return sym_to_full(np.array([diag, np.append(so, 0.0)]))
        return res, _lazy_solver(jacobian)

    return assemble


def _extended_residual_full(grid, eps, eta, well, penalty, v, g):
    """Residuals of the v and g equations at nodes 0..n-2, with the well's
    argument x, W'(x) and Wt'(g²) at nodes 0..n-2."""
    mv = grid.hat_weights(2)[:-1]
    mg = grid.hat_weights(0)[:-1]
    r = grid.nodes
    x = (1.0 - r * r * v * v - g * g)[:-1]
    wp = well.eval(x, 1, clamp=True)
    tp = penalty.eval((g * g)[:-1], 1, clamp=True)
    res_v = grid.flux_residual(v, grid.N + 1)
    res_g = grid.flux_residual(g, grid.N - 1)
    res_v -= mv / eps**2 * wp * v[:-1]
    res_g -= mg * (wp / eps**2 - tp / eta**2) * g[:-1]
    return res_v, res_g, x, wp, tp


def _extended_assemble(grid, eps, eta, well, penalty):
    sv, ov = grid.stiffness(grid.N + 1)
    sg, og = grid.stiffness(grid.N - 1)
    mv = grid.hat_weights(2)[:-1]
    mg = grid.hat_weights(0)[:-1]
    r = grid.nodes[:-1]
    m = grid.n - 1

    def assemble(z):
        v = np.append(z[0::2], 1.0)
        g = np.append(z[1::2], 0.0)
        res_v, res_g, x, wp, tp = _extended_residual_full(
            grid, eps, eta, well, penalty, v, g)

        def jacobian():
            gg = z[1::2]
            g2 = gg * gg
            wpp = well.eval(x, 2, clamp=True)
            tpp = penalty.eval(g2, 2, clamp=True)
            rv = r * z[0::2]
            ab = np.zeros((5, 2 * m))
            ab[2, 0::2] = sv - mv / eps**2 * (wp - 2 * rv * rv * wpp)
            ab[2, 1::2] = sg - mg * ((wp - 2 * gg * gg * wpp) / eps**2
                                     - (tp + 2 * gg * gg * tpp) / eta**2)
            ab[1, 1::2] = mv / eps**2 * 2 * z[0::2] * gg * wpp  # (2j, 2j+1)
            ab[3, 0::2] = mg / eps**2 * 2 * r * rv * gg * wpp   # (2j+1, 2j)
            ab[0, 2::2] = ab[4, 0:-2:2] = ov      # (2j, 2j+2) and transpose
            ab[0, 3::2] = ab[4, 1:-2:2] = og      # (2j+1, 2j+3) and transpose
            return ab
        return _interleave(res_v, res_g), _lazy_solver(jacobian)

    return assemble


def _sphere_residual_full(grid, eta, penalty, theta):
    """Residual of the θ equation at nodes 0..n-2, with Wt'(cos²θ) at nodes
    0..n-2."""
    m_cent = grid.hat_weights(-2)[:-1]
    m0 = grid.hat_weights(0)[:-1]
    t = theta[:-1]
    sc = np.sin(t) * np.cos(t)
    tp = penalty.eval(np.cos(t)**2, 1, clamp=True)
    res = grid.flux_residual(theta, grid.N - 1)
    res += (grid.N - 1) * m_cent * sc - m0 / eta**2 * tp * sc
    return res, tp


def _sphere_assemble(grid, eta, penalty):
    sd, so = grid.stiffness(grid.N - 1)
    m_cent = grid.hat_weights(-2)[:-1]
    m0 = grid.hat_weights(0)[:-1]

    def assemble(ti):
        res, tp = _sphere_residual_full(grid, eta, penalty,
                                        np.append(ti, 0.5 * math.pi))

        def jacobian():
            cos2 = np.cos(2 * ti)
            sin2 = np.sin(2 * ti)
            tpp = penalty.eval(np.cos(ti)**2, 2, clamp=True)
            diag = sd + (grid.N - 1) * m_cent * cos2
            diag -= m0 / eta**2 * (tp * cos2 - 0.5 * tpp * sin2 * sin2)
            return sym_to_full(np.array([diag, np.append(so, 0.0)]))
        return res, _lazy_solver(jacobian)

    return assemble


# ---------------------------------------------------------------------------
# profile records


@dataclass(frozen=True)
class GLProfile:
    grid: RadialGrid
    eps: float
    well: Potential
    v: np.ndarray                 # f/r at nodes, the solved unknown
    f: np.ndarray                 # amplitude at nodes, f = r·v
    residual_norm: float
    solver_trace: list = field(repr=False, default_factory=list)


@dataclass(frozen=True)
class ExtendedProfile:
    grid: RadialGrid
    eps: float
    eta: float
    well: Potential
    penalty: Potential
    v: np.ndarray
    f: np.ndarray
    g: np.ndarray
    branch: str                   # "escaping" | "non_escaping"
    residual_norm: float
    solver_trace: list = field(repr=False, default_factory=list)
    flags: tuple = ()


@dataclass(frozen=True)
class SphereProfile:
    grid: RadialGrid
    eta: float
    penalty: Potential
    theta: np.ndarray
    residual_norm: float
    no_escape: bool = False       # True: collapsed to the equator branch
    solver_trace: list = field(repr=False, default_factory=list)


# ---------------------------------------------------------------------------
# solvers


def _check_potential(p: Potential, name: str, needs_cap: bool) -> None:
    if not isinstance(p, Potential):
        raise InputError(f"{name} must be a Potential")
    if needs_cap and p.hi < 1.0:
        raise InputError(f"{name} domain must reach 1 (solutions hit 1-f²-g²=0..1)")


def solve_gl_profile(N: int, W: Potential, eps: float, grid: RadialGrid,
                     opts: SolverOptions = SolverOptions()) -> GLProfile:
    """Vortex amplitude profile: unique solution with f(1)=1.

    Continuation marches eps downward from the mildly nonlinear regime; each
    Newton stage solves the v-form system to opts.tol in sup norm.
    """
    W = Potential.from_spec(W)
    _check_potential(W, "W", needs_cap=True)
    if eps <= 0:
        raise InputError("eps must be positive")
    if grid.N != N:
        raise InputError("grid dimension does not match N")
    trace: list = []
    v = _gl_continuation(grid, W, eps, opts, trace)
    vfull = np.append(v, 1.0)
    res, _, _ = _gl_residual_full(grid, eps, W, vfull)
    return GLProfile(grid=grid, eps=eps, well=W, v=vfull,
                     f=grid.nodes * vfull,
                     residual_norm=float(np.max(np.abs(res))),
                     solver_trace=trace)


def _gl_continuation(grid, W, eps, opts, trace, v_init=None):
    """Newton path to the v-unknowns (length n-1) at the target eps."""
    if v_init is not None:
        v = np.array(v_init, dtype=float)
        steps = [eps]
    else:
        v = np.ones(grid.n - 1)
        if eps >= EPS_DIRECT:
            steps = [eps]
        else:
            steps = []
            e = EPS_DIRECT
            while e > eps * CONTINUATION_FACTOR:
                steps.append(e)
                e /= CONTINUATION_FACTOR
            steps.append(eps)
    for e in steps:
        v, _ = _newton(_gl_assemble(grid, e, W), v, opts,
                       f"gl eps={e:.6g}", trace)
    return v


def solve_sphere_profile(N: int, Wt: Potential, eta: float, grid: RadialGrid,
                         opts: SolverOptions = SolverOptions()) -> SphereProfile:
    """Sphere-valued polar-angle profile with θ(1) = π/2.

    Seeks the escaping branch (θ(0)=0). If every attempt collapses to the
    equator θ ≡ π/2 (which happens for N ≥ 7), returns the equator profile
    with no_escape=True — detection, not assertion. For N = 2 the equator is
    not an admissible finite-energy state, so collapse is a solver failure.
    """
    Wt = Potential.from_spec(Wt)
    _check_potential(Wt, "Wt", needs_cap=False)
    if eta <= 0:
        raise InputError("eta must be positive")
    if grid.N != N:
        raise InputError("grid dimension does not match N")
    trace: list = []

    def stage(e, theta):
        return _newton(_sphere_assemble(grid, e, Wt), theta, opts,
                       f"sphere eta={e:.6g}", trace)[0]

    theta = None
    saw_collapse = False
    for anchor in (1.0, 4.0, 16.0, 64.0):
        try:
            theta = _eta_march(stage, lambda t: _theta_collapsed(grid, t),
                               eta, anchor * eta,
                               0.5 * math.pi * grid.nodes[:-1])
        except ConvergenceError:
            continue
        if theta is not None:
            break
        saw_collapse = True   # this anchor converged straight to the equator
    no_escape = theta is None or _theta_collapsed(grid, theta)
    if no_escape:
        if N == 2:
            raise ConvergenceError(
                "sphere solver collapsed to the equator at N=2 "
                "(no admissible equator branch)", trace)
        if theta is None and not saw_collapse:
            raise ConvergenceError("sphere solver failed to converge", trace)
        tfull = np.full(grid.n, 0.5 * math.pi)
    else:
        tfull = np.append(theta, 0.5 * math.pi)
    res, _ = _sphere_residual_full(grid, eta, Wt, tfull)
    return SphereProfile(grid=grid, eta=eta, penalty=Wt, theta=tfull,
                         residual_norm=float(np.max(np.abs(res))),
                         no_escape=no_escape, solver_trace=trace)


def _theta_collapsed(grid, theta):
    """True when an iterate has fallen onto the equator: either outright
    (θ(r_min) large) or glued to it away from a spurious mesh-scale core near
    the origin, which the zero-flux closure can sustain when no true escaping
    branch exists. Genuine branches keep a macroscopic gap at r = 1/2 (worst
    case, N=6: about 1e-2); the artifacts sit within ~1e-6 of π/2 there."""
    if theta[0] > COLLAPSE_ANGLE:
        return True
    mid = np.searchsorted(grid.nodes, 0.5)
    return bool(0.5 * math.pi - theta[min(mid, len(theta) - 1)] < GLUE_GAP)


def _eta_march(stage, collapsed, eta, start, u, warm=False):
    """March η from start down to eta in CONTINUATION_FACTOR strides, where
    stage(e, u) is one Newton stage at η = e from u and collapsed(u) says
    that an iterate has left the branch.

    Cold (warm False): u is a guess at the anchor η = start; None when the
    anchor itself collapsed (the caller tries a deeper one), and a Newton
    failure there propagates. Warm: u already solves the branch at
    η = start, so the march starts one stride below it. A failed stride
    other than a cold anchor is retried in two half-steps before its
    ConvergenceError propagates. Otherwise returns the iterate at eta, or
    the first collapsed one: definitive, since the η at which the branch
    exists form an up-set."""
    first = not warm
    prev, u_prev = start, u
    e = max(eta, start / CONTINUATION_FACTOR) if warm else start
    while True:
        try:
            u = stage(e, u)
        except ConvergenceError:
            if first:
                raise
            u = stage(e, stage(math.sqrt(e * prev), u_prev))
        if collapsed(u):
            return None if first else u
        if e == eta:
            return u
        first = False
        prev, u_prev = e, u
        e = max(eta, e / CONTINUATION_FACTOR)


def solve_extended_profile(N: int, W: Potential, Wt: Potential, eps: float,
                           eta: float, grid: RadialGrid,
                           branch_hint: str = "escaping",
                           opts: SolverOptions = SolverOptions(),
                           start=None) -> ExtendedProfile:
    """Two-field profile (f, g); branch per branch_hint.

    hint non_escaping: returns (f_gl, 0), always a solution. hint escaping:
    damped Newton with downward-in-η continuation from the first anchor in
    ETA_ANCHORS·η that sustains g > ESCAPE_TOL; if the branch collapses
    all the way to the target, the point has no escaping solution and the
    non-escaping profile is returned with a diagnostic flag (not an error).

    start reuses earlier work at the same eps, grid and potentials:

    * None: the GL profile comes from its own eps-continuation;
    * a GLProfile replaces that continuation; the anchor search runs as
      above, so the profile is the one start=None gives;
    * an escaping ExtendedProfile with start.eta >= eta: no anchor search.
      η marches down from start.eta in CONTINUATION_FACTOR strides,
      warm-started from (start.v, start.g). A collapse on the way is
      definitive (the escaping set is an up-set in η at fixed eps) and gives
      the non-escaping profile. A Newton failure, after the half-step retry,
      decides nothing about the point and raises ConvergenceError.
    """
    W = Potential.from_spec(W)
    Wt = Potential.from_spec(Wt)
    _check_potential(W, "W", needs_cap=True)
    _check_potential(Wt, "Wt", needs_cap=False)
    if eps <= 0 or eta <= 0:
        raise InputError("eps and eta must be positive")
    if grid.N != N:
        raise InputError("grid dimension does not match N")
    if branch_hint not in ("escaping", "non_escaping"):
        raise InputError("branch_hint must be 'escaping' or 'non_escaping'")
    _check_start(start, eps, eta, grid, W, Wt, branch_hint)

    trace: list = []

    def stage(e, z):
        return _newton(_extended_assemble(grid, eps, e, W, Wt), z, opts,
                       f"ext eta={e:.6g}", trace)[0]

    def collapsed(z):
        return float(np.max(np.abs(z[1::2]))) <= ESCAPE_TOL

    if isinstance(start, ExtendedProfile):
        try:
            z = _eta_march(stage, collapsed, eta, start.eta,
                           _interleave(start.v[:-1], start.g[:-1]), warm=True)
        except ConvergenceError:
            raise ConvergenceError(
                f"warm escaping march from eta={start.eta:.6g} to "
                f"eta={eta:.6g} failed at eps={eps:.6g}", trace) from None
        return _march_result(grid, eps, eta, W, Wt, z, None, opts, trace)

    if start is None:
        v_gl = _gl_continuation(grid, W, eps, opts, trace)
    else:
        v_gl = start.v[:-1]

    if branch_hint == "non_escaping":
        return _wrap_extended(grid, eps, eta, W, Wt,
                              np.append(v_gl, 1.0), np.zeros(grid.n),
                              "non_escaping", trace, ())

    for factor in ETA_ANCHORS:
        z = _interleave(v_gl, opts.g_seed * (1.0 - grid.nodes[:-1] ** 2))
        try:
            z = _eta_march(stage, collapsed, eta, factor * eta, z)
        except ConvergenceError:
            continue              # anchor stalled; go deeper
        if z is not None:         # else the anchor collapsed; go deeper
            return _march_result(grid, eps, eta, W, Wt, z, v_gl, opts, trace)
    return _wrap_extended(grid, eps, eta, W, Wt,
                          np.append(v_gl, 1.0), np.zeros(grid.n),
                          "non_escaping", trace, ("no_escape_found",))


def _interleave(v, g):
    """The extended unknowns (v_0, g_0, v_1, g_1, ...), as Newton sees them."""
    z = np.empty(2 * v.size)
    z[0::2] = v
    z[1::2] = g
    return z


def _check_start(start, eps, eta, grid, W, Wt, branch_hint) -> None:
    if start is None:
        return
    if not isinstance(start, (GLProfile, ExtendedProfile)):
        raise InputError("start must be a GLProfile or an ExtendedProfile")
    same_grid = start.grid is grid or (
        start.grid.spec() == grid.spec()
        and np.array_equal(start.grid.nodes, grid.nodes))
    if start.eps != eps or not same_grid or start.well.spec() != W.spec():
        raise InputError("start must share eps, grid and W with the solve")
    if isinstance(start, ExtendedProfile) and not (
            branch_hint == "escaping" and start.branch == "escaping"
            and start.penalty.spec() == Wt.spec() and start.eta >= eta):
        raise InputError("an ExtendedProfile start must be escaping, share Wt "
                         "and lie at eta >= the target, with "
                         "branch_hint='escaping'")


def _march_result(grid, eps, eta, W, Wt, z, v_gl, opts, trace):
    """The profile at the end of an escaping march: escaping if g survived,
    else (f_gl, 0); v_gl None (warm march) solves f_gl from z's v part."""
    v = np.append(z[0::2], 1.0)
    g = np.append(z[1::2], 0.0)
    gmax = float(np.max(np.abs(g)))
    if gmax > ESCAPE_TOL:
        if g[np.argmax(np.abs(g))] < 0:
            g = -g                # report the g > 0 representative
        return _wrap_extended(grid, eps, eta, W, Wt, v, g,
                              "escaping", trace, ())
    # the branch merged with g ≡ 0 on the way down: no escaping solution
    if v_gl is None:
        v_gl = _gl_continuation(grid, W, eps, opts, trace, v_init=z[0::2])
    flags = ("boundary_ambiguous",) if gmax > 0 else ()
    return _wrap_extended(grid, eps, eta, W, Wt,
                          np.append(v_gl, 1.0), np.zeros(grid.n),
                          "non_escaping", trace,
                          flags + ("no_escape_found",))


def _wrap_extended(grid, eps, eta, W, Wt, v, g, branch, trace, flags):
    res_v, res_g, *_ = _extended_residual_full(grid, eps, eta, W, Wt, v, g)
    rn = float(max(np.max(np.abs(res_v)), np.max(np.abs(res_g))))
    return ExtendedProfile(grid=grid, eps=eps, eta=eta, well=W, penalty=Wt,
                           v=v, f=grid.nodes * v, g=g, branch=branch,
                           residual_norm=rn, solver_trace=trace, flags=flags)


# ---------------------------------------------------------------------------
# reduced energies (the common 1/|S^{N-1}| normalization, ½∫[...] r^{N-1} dr)
# The centrifugal term ∫ f²/r² r^{N-1} dr is integrated through the smooth
# samples (f/r)², which stay bounded at the origin.


def reduced_energy_gl(p: GLProfile, W: Potential, eps: float) -> float:
    W = Potential.from_spec(W)
    grid = p.grid
    pot = W.eval(1.0 - p.f**2, 0, clamp=True)
    return 0.5 * (grid.gradient_energy(p.f, left_value=0.0)
                  + (grid.N - 1) * grid.quadrature(p.v**2)
                  + grid.quadrature(pot) / eps**2)


def reduced_energy_extended(p, W: Potential, Wt: Potential, eps: float,
                            eta: float) -> float:
    """Accepts an ExtendedProfile (or a GLProfile, treated as g ≡ 0)."""
    W = Potential.from_spec(W)
    Wt = Potential.from_spec(Wt)
    grid = p.grid
    g = getattr(p, "g", None)
    if g is None:
        g = np.zeros(grid.n)
    pot = W.eval(1.0 - p.f**2 - g**2, 0, clamp=True)
    pen = Wt.eval(g**2, 0, clamp=True)
    return 0.5 * (grid.gradient_energy(p.f, left_value=0.0)
                  + grid.gradient_energy(g, left_value=None)
                  + (grid.N - 1) * grid.quadrature(p.v**2)
                  + grid.quadrature(pot) / eps**2
                  + grid.quadrature(pen) / eta**2)


def reduced_energy_mm(p: SphereProfile, Wt: Potential, eta: float) -> float:
    Wt = Potential.from_spec(Wt)
    grid = p.grid
    s2 = np.sin(p.theta)**2
    if grid.N >= 3:
        cent = float(grid.product_weights(-2) @ s2)
    else:
        cent = grid.quadrature(s2 / grid.nodes**2)
    pen = Wt.eval(np.cos(p.theta)**2, 0, clamp=True)
    return 0.5 * (grid.gradient_energy(p.theta, left_value=None)
                  + (grid.N - 1) * cent
                  + grid.quadrature(pen) / eta**2)


# ---------------------------------------------------------------------------
# independent residual and Pohozaev identity check


def residual(profile) -> float:
    """Sup-norm of the discrete ODE residual, recomputed from the stored
    fields and potentials (independent of the solver's bookkeeping)."""
    if isinstance(profile, GLProfile):
        r, _, _ = _gl_residual_full(profile.grid, profile.eps, profile.well,
                                    profile.v)
        return float(np.max(np.abs(r)))
    if isinstance(profile, ExtendedProfile):
        rv, rg, *_ = _extended_residual_full(
            profile.grid, profile.eps, profile.eta, profile.well,
            profile.penalty, profile.v, profile.g)
        return float(max(np.max(np.abs(rv)), np.max(np.abs(rg))))
    if isinstance(profile, SphereProfile):
        r, _ = _sphere_residual_full(profile.grid, profile.eta,
                                     profile.penalty, profile.theta)
        return float(np.max(np.abs(r)))
    raise InputError(f"not a profile: {profile!r}")


def pohozaev_check(p: SphereProfile, Wt: Potential, eta: float) -> float:
    """Max-norm defect of the radial conservation identity

        d/dr [ r²(θ')² + (N-1)cos²θ - (r²/η²) Ṽ(cos²θ) ]
            = -2(N-2) r (θ')² - (2r/η²) Ṽ(cos²θ)

    evaluated with second-order node derivatives. Small values certify that
    θ solves the angle ODE; O(1) values reject non-solutions."""
    Wt = Potential.from_spec(Wt)
    grid = p.grid
    r = grid.nodes
    dtheta = grid.node_gradient(p.theta)
    c2 = np.cos(p.theta)**2
    pen = Wt.eval(c2, 0, clamp=True)
    P = r**2 * dtheta**2 + (grid.N - 1) * c2 - r**2 / eta**2 * pen
    dP = grid.node_gradient(P)
    rhs = -2.0 * (grid.N - 2) * r * dtheta**2 - 2.0 * r / eta**2 * pen
    return float(np.max(np.abs(dP - rhs)))


# ---------------------------------------------------------------------------
# serialization


def _meta(profile) -> dict:
    if isinstance(profile, GLProfile):
        return {"model": "gl", "N": profile.grid.N, "eps": profile.eps,
                "well": profile.well.spec(),
                "grid": profile.grid.spec(),
                "residual_norm": profile.residual_norm}
    if isinstance(profile, ExtendedProfile):
        return {"model": "extended", "N": profile.grid.N, "eps": profile.eps,
                "eta": profile.eta, "well": profile.well.spec(),
                "penalty": profile.penalty.spec(), "branch": profile.branch,
                "flags": list(profile.flags), "grid": profile.grid.spec(),
                "residual_norm": profile.residual_norm}
    if isinstance(profile, SphereProfile):
        return {"model": "sphere", "N": profile.grid.N, "eta": profile.eta,
                "penalty": profile.penalty.spec(),
                "no_escape": profile.no_escape, "grid": profile.grid.spec(),
                "residual_norm": profile.residual_norm}
    raise InputError(f"not a profile: {profile!r}")


def profile_to_csv(profile) -> str:
    """CSV text: one JSON metadata comment line, column header, 17-digit rows."""
    meta = _meta(profile)
    lines = ["# " + json.dumps(meta, sort_keys=True)]
    r = profile.grid.nodes
    if isinstance(profile, GLProfile):
        lines.append("r,f")
        cols = (r, profile.f)
    elif isinstance(profile, ExtendedProfile):
        lines.append("r,f,g")
        cols = (r, profile.f, profile.g)
    else:
        lines.append("r,theta")
        cols = (r, profile.theta)
    for row in zip(*cols):
        lines.append(",".join(format_float(x) for x in row))
    return "\n".join(lines) + "\n"


def profile_to_json(profile) -> str:
    meta = _meta(profile)
    if isinstance(profile, GLProfile):
        meta["fields"] = {"v": profile.v.tolist()}
    elif isinstance(profile, ExtendedProfile):
        meta["fields"] = {"v": profile.v.tolist(), "g": profile.g.tolist()}
    else:
        meta["fields"] = {"theta": profile.theta.tolist()}
    return json.dumps(meta, sort_keys=True)


def profile_from_json(text: str):
    data = json.loads(text)
    gs = data["grid"]
    grid = make_grid(data["N"], gs["n"], gs["grading"])

    def arr(key):
        return np.asarray(data["fields"][key], dtype=float)

    model = data["model"]
    if model == "gl":
        v = arr("v")
        return GLProfile(grid=grid, eps=data["eps"],
                         well=Potential.from_spec(data["well"]), v=v,
                         f=grid.nodes * v,
                         residual_norm=data["residual_norm"])
    if model == "extended":
        v, g = arr("v"), arr("g")
        return ExtendedProfile(grid=grid, eps=data["eps"], eta=data["eta"],
                               well=Potential.from_spec(data["well"]),
                               penalty=Potential.from_spec(data["penalty"]),
                               v=v, f=grid.nodes * v, g=g,
                               branch=data["branch"],
                               residual_norm=data["residual_norm"],
                               flags=tuple(data.get("flags", ())))
    if model == "sphere":
        return SphereProfile(grid=grid, eta=data["eta"],
                             penalty=Potential.from_spec(data["penalty"]),
                             theta=arr("theta"),
                             residual_norm=data["residual_norm"],
                             no_escape=data.get("no_escape", False))
    raise InputError(f"unknown profile model {model!r}")
