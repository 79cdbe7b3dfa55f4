"""Radial profile boundary-value solvers and reduced energies.

Three models on the unit ball, reduced to r ∈ (0, 1]:

* the scalar vortex amplitude f with f(1)=1 (maps into R^N), solved in the
  regular variable v = f/r;
* the two-field extension (f, g) where g is the out-of-plane component,
  penalized by a transverse potential; branches: non_escaping (g ≡ 0) and
  escaping (g > 0);
* the sphere-valued polar angle θ with θ(1) = π/2 (g = cos θ escapes toward
  the pole at the origin).

All solvers are damped Newton, with parameter continuation for stiff
regimes, on the gradient of the model's one lumped energy (reduced_energy_*):
the finite-volume operator of RadialGrid.flux_residual and
RadialGrid.stiffness (stencil and boundary conventions are documented there)
plus pointwise well terms. A solved profile is a critical point of the
energy it reports.

Each record class describes its model's Newton problem once, for one
assembler and one residual check (see above _derivative). The energy
functions and pohozaev_check refuse another model's record.
"""

from __future__ import annotations

import json
import math
import threading
from functools import partial
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .banded import abs_matvec, sym_solver
from .core import (
    ConvergenceError,
    InputError,
    Potential,
    RadialGrid,
    csv_rows,
    grid_from_spec,
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

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise InputError("tol must be positive and finite")
        if not self.max_iter >= 1:
            raise InputError("max_iter must be >= 1")


MIN_DAMPING = 2.0**-16
ESCAPE_TOL = 1e-6                 # branch disambiguation threshold on max g
EPS_DIRECT = 0.25                 # solve directly for eps >= this, else continue
CONTINUATION_FACTOR = math.sqrt(2.0)
PREDICTOR_POINTS = 3              # a warm η-stride extrapolates through these


# ---------------------------------------------------------------------------
# damped Newton driver


def _newton(assemble: Callable, u0: np.ndarray, opts: SolverOptions,
            stage: str, trace: list) -> tuple[np.ndarray, float]:
    """assemble(u) -> (residual vector, solve(rhs) -> Newton step).

    Damped Newton to a sup-norm residual <= opts.tol, then one simplified
    correction -J^{-1} F(u) with the factorization of the last step (a full
    Newton step when the start already meets tol), kept if its residual
    stays <= tol. The residual test alone stops wherever the last step
    happened to land, which depends on the path (start, r_min, grading);
    the correction takes the unknowns the rest of the way at the price of
    one residual. Returns the unknowns and their residual's sup norm. Each
    step is traced as (stage, it, norm, alpha), the correction as (stage,
    its sup norm). A line search that gives up at or below the rounding
    floor of the residual raises InputError: no step can meet such a tol."""
    u = np.array(u0, dtype=float)
    res, solve = assemble(u)
    norm = float(np.max(np.abs(res)))
    last = solve                # a start that meets tol takes a full step
    for it in range(opts.max_iter):
        if norm <= opts.tol:
            break
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
                floor = _rounding_floor(solve, u)
                if norm <= floor:
                    raise InputError(
                        f"tol {opts.tol:.3g} is below the rounding floor "
                        f"{floor:.3g} of the residual in stage {stage!r} "
                        f"(Newton stalled at {norm:.3e})")
                raise ConvergenceError(
                    f"Newton stalled in stage {stage!r} (residual {norm:.3e})",
                    trace)
        u, res, norm, last, solve = trial, res2, norm2, solve, solve2
        trace.append((stage, it, norm, alpha))
    if norm > opts.tol:
        trace.append((stage, opts.max_iter, norm, 0.0))
        raise ConvergenceError(
            f"Newton did not reach tol in stage {stage!r} (residual {norm:.3e})",
            trace)
    correction = last(-res)
    trial = u + correction
    norm2 = float(np.max(np.abs(assemble(trial)[0])))
    trace.append((stage, float(np.max(np.abs(correction)))))
    if norm2 <= opts.tol:
        return trial, norm2
    return u, norm


def _lazy_solver(jacobian: Callable) -> Callable:
    """solve(rhs) that builds jacobian() (symmetric lower storage) and
    factors it by sym_solver on its first call, and keeps the factorization
    for later ones. _newton calls it for an iterate it steps from (and
    again for the closing correction), so a rejected line-search trial and
    a stage's final iterate never pay for a Jacobian. solve.jacobian builds
    the band again."""
    factored = []               # one per assemble: lighter than a cache

    def solve(rhs):
        if not factored:
            factored.append(sym_solver(jacobian()))
        return factored[0](rhs)
    solve.jacobian = jacobian
    return solve


def _rounding_floor(solve, z) -> float:
    """u·max_i (|J||z|)_i at the iterate z whose solve(rhs) this is: the
    componentwise bound on the rounding error of evaluating its residual
    (u the unit roundoff). Converged profiles sit at 0.4-0.8 of it."""
    band = solve.jacobian()
    return float(np.max(abs_matvec(band, z))) * np.finfo(float).eps / 2


# ---------------------------------------------------------------------------
# discrete operators (shared by solvers and the independent residual check)


# Each record class below describes its model's Newton problem: each
# unknown's face power N + p (_powers) and value at r = 1 (_right), the
# hat_weights shifts its stage reads (_shifts), _stage and _reaction. The
# stage, _stage(grid, *params), is what stays fixed while Newton solves at
# one eps or eta (GL takes the two-field one): products of the grid's
# weights with the parameters, and each potential derivative as a function
# of its argument (clamped onto the domain), a Python float where
# Potential.constant says the derivative is one constant. A float enters
# the same expressions in the same order as an array of that value would,
# so every entry keeps its bits; no reaction branches on the potential.
# _gradient reads the description at the unknowns on nodes 0..n-2 and their
# values at node n-1 (Newton's iterate and _right, or a record's fields):
# _reaction(st, rows, *fields) subtracts the well and penalty gradient from
# the fields' flux rows, making them the gradient of the model's reduced
# energy, and returns hessian(jac), which adds the same terms' Hessian
# entries (the diagonal and, in the two-field model, the v-g coupling below
# it) to a copy of the grid's stiffness_band in symmetric lower storage.
# sym_solver factors it by Cholesky, as it is positive definite near every
# stable solution, and by the row-scaled LU only where a pivot fails.
# _newton returns the final iterate's sup norm, the very value residual()
# recomputes, and a solved record stores it.


def _derivative(pot: Potential, order: int) -> Callable:
    """t -> pot's derivative `order` at t clamped onto its domain: the float
    Potential.constant gives, where it gives one."""
    value = pot.constant(order)
    if value is None:
        return lambda t: pot.eval(t, order, clamp=True)
    return lambda t: value


def _checked_band(grid, powers, shifts):
    """grid.stiffness_band(*powers); InputError if it or a hat_weights(s),
    s in shifts, is not finite, or the band's diagonal has a zero: at large
    N or steep gradings mid^power / h underflows to 0, the P1 tables to 0/0."""
    band = grid.stiffness_band(*powers)
    if not (band[0].all() and all(np.isfinite(t).all() for t in (
            band, *map(grid.hat_weights, shifts)))):
        raise InputError(f"the grid N={grid.N}, n={grid.n}, grading "
                         f"{grid.grading['grading']} underflows near the "
                         "origin: take fewer nodes or a milder grading")
    return band


def _gradient(model, st, fields, rights):
    """The model's energy gradient at its fields on nodes 0..n-2 (values
    rights at node n-1), interleaved as Newton orders them, and hessian."""
    k = len(fields)
    res = np.empty(k * fields[0].size)
    rows = [st.grid.flux_residual(u, st.grid.N + p, out=res[i::k], right=r)
            for i, (u, p, r) in enumerate(zip(fields, model._powers, rights))]
    return res, model._reaction(st, rows, *fields)


def _assemble(model, grid, *params):
    """assemble(z) -> (gradient, solve) for _newton at the interleaved
    unknowns z, params the leading model.params: the stage and band are
    built once, and _lazy_solver builds and factors the Hessian."""
    st = model._stage(grid, *params)
    band = _checked_band(grid, [grid.N + p for p in model._powers],
                         model._shifts)
    k = len(model._right)

    def assemble(z):
        res, hessian = _gradient(model, st, [z[i::k] for i in range(k)],
                                 model._right)

        def jacobian():
            jac = band.copy()
            hessian(jac)
            return jac
        return res, _lazy_solver(jacobian)

    return assemble


# ---------------------------------------------------------------------------
# profile records


class _Record:
    """What a profile record states about its model, once: model (its name
    in JSON), params (the parameters its metadata carries), unknowns (the
    stored fields), columns (the CSV columns after r), and its Newton
    problem (see above _derivative), whose _stage ignores trailing params."""

    def _residual_parts(self):
        """Each field's gradient rows from the stored fields and params."""
        st = self._stage(self.grid, *(getattr(self, p) for p in self.params))
        fields = [getattr(self, u) for u in self.unknowns]
        res = _gradient(self, st, [u[:-1] for u in fields],
                        [u[-1] for u in fields])[0]
        return tuple(res[i::len(fields)] for i in range(len(fields)))


class _Amplitude(_Record):
    """A record that stores v = f/r."""

    @property
    def f(self) -> np.ndarray:
        """Amplitude at the nodes, f = r·v."""
        return self.grid.nodes * self.v


@dataclass(frozen=True)
class GLProfile(_Amplitude):
    model = "gl"
    params = ("eps", "well")
    unknowns = ("v",)
    columns = ("f",)
    _powers, _right, _shifts = (1,), (1.0,), (0,)

    grid: RadialGrid
    eps: float
    well: Potential
    v: np.ndarray                 # f/r at nodes, the solved unknown
    residual_norm: float
    solver_trace: list = field(repr=False, default_factory=list)

    @staticmethod
    def _stage(grid, eps, well):
        return ExtendedProfile._stage(grid, eps, 1.0, well, Potential.zero())

    @staticmethod
    def _reaction(st, rows, v):
        """(r^{N+1} v')' = -(r^{N+1}/eps²) W'(1-r²v²) v."""
        x = 1.0 - st.rr * v * v
        wp = st.wp(x)
        rows[0] -= st.mve * wp * v

        def hessian(jac):
            jac[0] -= st.mve * (wp - 2 * st.rr * v**2 * st.wpp(x))
        return hessian


@dataclass(frozen=True)
class ExtendedProfile(_Amplitude):
    model = "extended"
    params = ("eps", "eta", "well", "penalty", "branch", "flags")
    unknowns = ("v", "g")
    columns = ("f", "g")
    _powers, _right, _shifts = (1, -1), (1.0, 0.0), (0,)

    grid: RadialGrid
    eps: float
    eta: float
    well: Potential
    penalty: Potential
    v: np.ndarray
    g: np.ndarray
    branch: str                   # "escaping" | "non_escaping"
    residual_norm: float
    solver_trace: list = field(repr=False, default_factory=list)
    flags: tuple = ()

    @staticmethod
    def _stage(grid, eps, eta, well, penalty, *_):
        r = grid.nodes[:-1]
        mg = grid.hat_weights(0)[:-1]
        return SimpleNamespace(
            grid=grid, eps2=eps**2, eta2=eta**2, r=r, rr=r * r, mg=mg,
            mve=r * r * mg / eps**2,
            wp=_derivative(well, 1), wpp=_derivative(well, 2),
            tp=_derivative(penalty, 1), tpp=_derivative(penalty, 2))

    @staticmethod
    def _reaction(st, rows, v, g):
        """The v and g equations, W' at x = 1 - r²v² - g², Wt' at g²."""
        g2 = g * g
        x = 1.0 - st.rr * v * v - g2
        wp = st.wp(x)
        tp = st.tp(g2)
        rows[0] -= st.mve * wp * v
        rows[1] -= st.mg * (wp / st.eps2 - tp / st.eta2) * g

        def hessian(jac):
            wpp = st.wpp(x)
            tpp = st.tpp(g2)
            rv = st.r * v
            g2x2 = 2 * g * g
            jac[0, 0::2] -= st.mve * (wp - 2 * rv * rv * wpp)
            jac[0, 1::2] -= st.mg * ((wp - g2x2 * wpp) / st.eps2
                                     - (tp + g2x2 * tpp) / st.eta2)
            jac[1, 0::2] = 2 * st.mve * v * g * wpp    # A[2j+1, 2j]: v-g
        return hessian


@dataclass(frozen=True)
class SphereProfile(_Record):
    model = "sphere"
    params = ("eta", "penalty", "no_escape")
    unknowns = ("theta",)
    columns = ("theta",)
    _powers, _right, _shifts = (-1,), (0.5 * math.pi,), (0, -2)

    grid: RadialGrid
    eta: float
    penalty: Potential
    theta: np.ndarray
    residual_norm: float
    no_escape: bool = False       # True: theta is the equator θ ≡ π/2, as
                                  # no solution found beats its energy
    solver_trace: list = field(repr=False, default_factory=list)

    @staticmethod
    def _stage(grid, eta, penalty, *_):
        return SimpleNamespace(grid=grid,
                               cent=(grid.N - 1) * grid.hat_weights(-2)[:-1],
                               m0e=grid.hat_weights(0)[:-1] / eta**2,
                               tp=_derivative(penalty, 1),
                               tpp=_derivative(penalty, 2))

    @staticmethod
    def _reaction(st, rows, theta):
        """The θ equation, with Wt' at cos²θ."""
        c = np.cos(theta)
        c2 = c**2
        sc = np.sin(theta) * c
        tp = st.tp(c2)
        rows[0] += st.cent * sc - st.m0e * tp * sc

        def hessian(jac):
            cos2 = np.cos(2 * theta)
            sin2 = np.sin(2 * theta)
            jac[0] += st.cent * cos2
            jac[0] -= st.m0e * (tp * cos2 - 0.5 * st.tpp(c2) * sin2 * sin2)
        return hessian


_RECORDS = {cls.model: cls for cls in (GLProfile, ExtendedProfile,
                                       SphereProfile)}
# each model's assembler, its params in its class's params order
_gl_assemble = partial(_assemble, GLProfile)
_extended_assemble = partial(_assemble, ExtendedProfile)
_sphere_assemble = partial(_assemble, SphereProfile)


def _record(profile, *models):
    """profile, if it is a record, and one of models where they are given."""
    if not isinstance(profile, _Record):
        raise InputError(f"not a profile: {profile!r}")
    if models and not isinstance(profile, models):
        raise InputError(f"needs a {' or '.join(m.model for m in models)} "
                         f"profile, got model {profile.model!r}")
    return profile


def _solved(cls, residual_norm=None, **fields):
    """The record of solved fields. residual_norm is the sup norm _newton
    returned with them, the bits residual() would recompute; a record that
    is not a Newton result (residual_norm None) gets it from residual()."""
    if residual_norm is not None:
        return cls(residual_norm=residual_norm, **fields)
    record = cls(residual_norm=math.nan, **fields)
    return replace(record, residual_norm=residual(record))


# ---------------------------------------------------------------------------
# solvers


def _check_well(W: Potential) -> None:
    if W.hi < 1.0:
        raise InputError("W domain must reach 1 (solutions hit 1-f²-g²=0..1)")


def _check_scale(name: str, value) -> None:
    """InputError unless the length scale (eps or eta) is inf, or positive
    with a finite nonzero square whose inverse is finite too: the equations
    divide by its square. NaN fails too."""
    value = float(value)
    square = value * value
    if not (value == math.inf or value > 0 and 0 < square < math.inf
            and math.isfinite(1.0 / square)):
        raise InputError(f"{name} must be positive, with {name}^2 and "
                         f"1/{name}^2 finite (or {name} = inf), got {value!r}")


def solve_gl_profile(N: int, W: Potential, eps: float, grid: RadialGrid,
                     opts: SolverOptions = SolverOptions(),
                     v_init=None) -> GLProfile:
    """Vortex amplitude profile: unique solution with f(1)=1.

    Continuation marches eps downward from the mildly nonlinear regime; each
    Newton stage solves the v-form system to opts.tol in sup norm. v_init
    (node samples of v on grid, say a GLProfile's v at a nearby eps)
    replaces the continuation by one stage started from it.
    """
    W = Potential.from_spec(W)
    _check_well(W)
    _check_scale("eps", eps)
    if grid.N != N:
        raise InputError("grid dimension does not match N")
    if v_init is not None:
        v_init = np.asarray(v_init, dtype=float)
        if v_init.shape != grid.nodes.shape:
            raise InputError("v_init must be sampled on the grid nodes")
        v_init = v_init[:-1]
    trace: list = []
    v, norm = _gl_continuation(grid, W, eps, opts, trace, v_init)
    return _solved(GLProfile, norm, grid=grid, eps=eps, well=W,
                   v=np.append(v, 1.0), solver_trace=trace)


def gl_eps_tangent(p: GLProfile) -> np.ndarray:
    """dv/deps along the GL branch at the solved profile p, at every node
    (zero at the Dirichlet node): the solve of J dv = -dF/deps with the
    Newton Jacobian J at p.v, where dF/deps = 2 r² hat_w(0) W'(x) v / eps^3
    is the residual's derivative in eps at fixed v."""
    v = p.v[:-1]
    st = GLProfile._stage(p.grid, p.eps, p.well)
    wp = st.wp(1.0 - st.rr * v * v)
    solve = _gl_assemble(p.grid, p.eps, p.well)(v)[1]
    return np.append(solve(-2.0 * st.mve * wp * v / p.eps), 0.0)


_LADDER_LOCK = threading.Lock()


def _gl_continuation(grid, W, eps, opts, trace, v_init=None):
    """Newton path to the v-unknowns (length n-1) at the target eps, and
    their residual's sup norm.

    Cold (v_init None), eps below EPS_DIRECT is reached down the fixed
    ladder EPS_DIRECT / CONTINUATION_FACTOR^k from v = 1. The ladder does
    not depend on eps, so its rungs are solved once per grid, W and opts
    and kept in the grid's cache: a later cold solve on the grid solves
    only its own stage, from the same rung and to the same bits as a solve
    on a fresh grid. make_grid shares each grid across the process, so the
    rungs outlive a request; a lock keeps threads that extend one ladder at
    once from appending a rung twice."""
    if v_init is not None:
        start = v_init
    elif eps * CONTINUATION_FACTOR >= EPS_DIRECT:
        start = np.ones(grid.n - 1)
    else:
        key = ("gl_ladder", json.dumps(W.spec(), sort_keys=True), opts)
        e, k = EPS_DIRECT, 0
        with _LADDER_LOCK:
            rungs = grid._cached(key, list)
            while e > eps * CONTINUATION_FACTOR:
                if k == len(rungs):
                    v = _newton(_gl_assemble(grid, e, W),
                                rungs[-1] if rungs else np.ones(grid.n - 1),
                                opts, f"gl eps={e:.6g}", trace)[0]
                    v.setflags(write=False)
                    rungs.append(v)
                e /= CONTINUATION_FACTOR
                k += 1
        start = rungs[k - 1]
    return _newton(_gl_assemble(grid, eps, W), start, opts,
                   f"gl eps={eps:.6g}", trace)


def solve_sphere_profile(N: int, Wt: Potential, eta: float, grid: RadialGrid,
                         opts: SolverOptions = SolverOptions()) -> SphereProfile:
    """Sphere-valued polar-angle profile with θ(1) = π/2.

    One Newton stage at eta from θ₀ = (π/2)·atan(r/η)/atan(1/η), which rises
    from 0 on the core scale η (and tends to (π/2)·r as η grows). Energy
    decides the branch: for N ≥ 3 the result is the escaping profile when
    its reduced_energy_mm is below that of the equator θ ≡ π/2 on the same
    grid, and otherwise the equator is returned with no_escape=True (which
    happens for N ≥ 7) — detection, not assertion. For N = 2 the equator
    has infinite energy and is not admissible, so a result equal to it to
    rounding is a solver failure. A Newton stall raises ConvergenceError.
    """
    Wt = Potential.from_spec(Wt)
    _check_scale("eta", eta)
    if grid.N != N:
        raise InputError("grid dimension does not match N")
    trace: list = []
    r = grid.nodes[:-1]
    seed = (0.5 * math.pi * r if eta == math.inf   # the limit η → ∞
            else 0.5 * math.pi * np.arctan(r / eta) / math.atan(1.0 / eta))
    theta, norm = _newton(_sphere_assemble(grid, eta, Wt), seed, opts,
                          f"sphere eta={eta:.6g}", trace)
    theta = np.append(theta, 0.5 * math.pi)

    def profile(t, norm=None, no_escape=False):
        return _solved(SphereProfile, norm, grid=grid, eta=eta, penalty=Wt,
                       theta=t, no_escape=no_escape, solver_trace=trace)

    found = profile(theta, norm)
    if N == 2:
        if np.all(np.sin(theta) == 1.0):      # θ ≡ π/2 to rounding
            raise ConvergenceError(
                "sphere solver collapsed to the equator at N=2 "
                "(no admissible equator branch)", trace)
        return found
    flat = profile(np.full(grid.n, 0.5 * math.pi), no_escape=True)
    if reduced_energy_mm(found, Wt, eta) < reduced_energy_mm(flat, Wt, eta):
        return found
    return flat


def solve_extended_profile(N: int, W: Potential, Wt: Potential, eps: float,
                           eta: float, grid: RadialGrid,
                           branch_hint: str = "escaping",
                           opts: SolverOptions = SolverOptions(),
                           start=None, history=(),
                           ground_state=None) -> ExtendedProfile:
    """Two-field profile (f, g); branch per branch_hint.

    hint non_escaping: returns (f_gl, 0), always a solution. hint escaping,
    cold: Newton at the target η from (f_gl, g_seed·(1 - r²)) and, only if
    that collapses (max |g| <= ESCAPE_TOL) or stalls, from (f_gl, g_seed·q),
    q the ground state of the g-operator at (f_gl, 0) scaled to max|q| = 1:
    the direction in which the branch leaves g ≡ 0 at η*. q's eigenvalue
    (the criterion's sign) is not read: the solver is an independent check.
    No escape after a collapse gives (f_gl, 0) flagged "no_escape_found", a
    finding; two stalls, or no certified q, raise ConvergenceError.

    start reuses earlier work at the same eps, grid and potentials:

    * None: the GL profile comes from its own eps-continuation;
    * a GLProfile replaces that continuation, so the profile is the one
      start=None gives. ground_state, the EigenPair of the g-operator at
      (start.f, 0) (the pencil gl_linearization_eigenvalue solves for ell),
      replaces the solve behind the second seed, with the same result;
    * an escaping ExtendedProfile with start.eta >= eta: η marches down
      from start.eta in CONTINUATION_FACTOR strides. Each stride starts
      from the Lagrange extrapolation in 1/η² of (v, g) through the last
      PREDICTOR_POINTS solutions on the branch: history (earlier escaping
      profiles at distinct η >= eta, oldest first, say the last points of
      a column walk), then start, then the strides taken so far. Without
      history the first stride starts from (start.v, start.g) itself. A
      collapse on the way is definitive (the escaping set is an up-set in
      η at fixed eps) and gives the non-escaping profile. A failed stride
      decides nothing about the point and raises ConvergenceError; a
      caller can redo the point cold.
    """
    W = Potential.from_spec(W)
    Wt = Potential.from_spec(Wt)
    _check_well(W)
    _check_scale("eps", eps)
    _check_scale("eta", eta)
    if grid.N != N:
        raise InputError("grid dimension does not match N")
    if branch_hint not in ("escaping", "non_escaping"):
        raise InputError("branch_hint must be 'escaping' or 'non_escaping'")
    history = tuple(history)
    _check_start(start, history, ground_state, eps, eta, grid, W, Wt,
                 branch_hint)

    trace: list = []

    def stage(e, z):
        return _newton(_extended_assemble(grid, eps, e, W, Wt), z, opts,
                       f"ext eta={e:.6g}", trace)

    def collapsed(z):
        return float(np.max(np.abs(z[1::2]))) <= ESCAPE_TOL

    def result(v, g, norm, flags=()):
        """The profile from the v- and g-unknowns at nodes 0..n-2 and their
        residual's sup norm: escaping and reported with g > 0 (the residual
        is odd in g), or non-escaping (g ≡ 0) when g is None (the residual
        of (v, 0) is v's GL residual and zero)."""
        if g is None:
            branch, g = "non_escaping", np.zeros(grid.n)
        else:
            branch, g = "escaping", np.append(g, 0.0)
            if g[np.argmax(np.abs(g))] < 0:
                g = -g
        return _solved(ExtendedProfile, norm, grid=grid, eps=eps, eta=eta,
                       well=W, penalty=Wt, v=np.append(v, 1.0), g=g,
                       branch=branch, solver_trace=trace, flags=flags)

    if isinstance(start, ExtendedProfile):
        path = [(p.eta, _interleave(p.v[:-1], p.g[:-1]))
                for p in (*history, start)]
        e = start.eta
        while True:
            e = max(eta, e / CONTINUATION_FACTOR)
            try:
                z, norm = stage(e, _extrapolate(path[-PREDICTOR_POINTS:], e))
            except ConvergenceError:
                raise ConvergenceError(
                    f"warm escaping march from eta={start.eta:.6g} to "
                    f"eta={eta:.6g} failed at eps={eps:.6g}", trace) from None
            if collapsed(z):
                break
            if e == eta:
                return result(z[0::2], z[1::2], norm)
            path.append((e, z))
        # the branch merged with g ≡ 0 on the way down: no escaping solution
        v_gl, gl_norm = _gl_continuation(grid, W, eps, opts, trace,
                                         v_init=z[0::2])
    else:
        v_gl, gl_norm = (_gl_continuation(grid, W, eps, opts, trace)
                         if start is None
                         else (start.v[:-1], start.residual_norm))
        if branch_hint == "non_escaping":
            return result(v_gl, None, gl_norm)
        stalled = 0
        for seed in (lambda: 1.0 - grid.nodes[:-1] ** 2,
                     lambda: _kernel_direction(grid, eps, W, v_gl,
                                               ground_state)):
            z = _interleave(v_gl, opts.g_seed * seed())
            try:
                z, norm = stage(eta, z)
            except ConvergenceError:
                stalled += 1
                continue
            if not collapsed(z):
                return result(z[0::2], z[1::2], norm)
        if stalled == 2:
            raise ConvergenceError(f"escaping Newton stalled from both seeds "
                                   f"at eps={eps:.6g}, eta={eta:.6g}", trace)
    return result(v_gl, None, gl_norm, ("no_escape_found",))


def _extrapolate(path, e):
    """Lagrange extrapolation to η = e of the unknowns z through path, a
    list of (η_k, z_k) with distinct η_k. The interpolation variable is
    s = 1/η², in which the two-field equations are affine (η enters only
    through Wt'(g²)/η²). One pair gives its z_k itself, bit for bit (its
    weight is the empty product 1)."""
    z = None
    for k, (ek, zk) in enumerate(path):
        w = math.prod((e**-2 - ej**-2) / (ek**-2 - ej**-2)
                      for j, (ej, _) in enumerate(path) if j != k)
        z = w * zk if z is None else z + w * zk
    return z


def _kernel_direction(grid, eps, W, v_gl, pair=None):
    """Ground state q of the g-operator at (f_gl, 0), nodes 0..n-2, max|q|=1.
    pair, that operator's certified EigenPair, spares solving it again."""
    if pair is None:
        from .spectral import gl_linearization_operator, smallest_eigenpair
        f = grid.nodes * np.append(v_gl, 1.0)
        pair = smallest_eigenpair(gl_linearization_operator(W, eps, grid, f))
    q = pair.q[:-1]
    return q / np.max(np.abs(q))


def _interleave(v, g):
    """The extended unknowns (v_0, g_0, v_1, g_1, ...), as Newton sees them."""
    z = np.empty(2 * v.size)
    z[0::2] = v
    z[1::2] = g
    return z


def _same_grid(a: RadialGrid, b: RadialGrid) -> bool:
    return a is b or (a.spec() == b.spec()
                      and np.array_equal(a.nodes, b.nodes))


def _check_start(start, history, ground_state, eps, eta, grid, W, Wt,
                 branch_hint) -> None:
    if history and not isinstance(start, ExtendedProfile):
        raise InputError("history needs an ExtendedProfile start")
    if ground_state is not None and not isinstance(start, GLProfile):
        raise InputError("ground_state needs a GLProfile start")
    if start is None:
        return
    if not isinstance(start, (GLProfile, ExtendedProfile)):
        raise InputError("start must be a GLProfile or an ExtendedProfile")
    if not all(isinstance(p, ExtendedProfile) for p in history):
        raise InputError("history must hold ExtendedProfiles")
    profiles = (*history, start)
    if any(p.eps != eps or not _same_grid(p.grid, grid)
           or p.well.spec() != W.spec() for p in profiles):
        raise InputError("start must share eps, grid and W with the solve")
    if isinstance(start, ExtendedProfile):
        if not (branch_hint == "escaping" and all(
                p.branch == "escaping" and p.penalty.spec() == Wt.spec()
                and p.eta >= eta for p in profiles)):
            raise InputError("an ExtendedProfile start and its history must "
                             "be escaping, share Wt and lie at eta >= the "
                             "target, with branch_hint='escaping'")
        if len({p.eta for p in profiles}) < len(profiles):
            raise InputError("start and history must lie at distinct eta")
    if ground_state is not None and not (
            _same_grid(ground_state.grid, grid) and ground_state.mu == 0):
        raise InputError("ground_state must be an eigenpair of the "
                         "g-operator (mu = 0) on the solve's grid")


# ---------------------------------------------------------------------------
# reduced energies ½∫[...] r^{N-1} dr (normalized by 1/|S^{N-1}|), lumped on
# Newton's tables so that each residual is exactly its energy's gradient:
# face_coeffs on every face, hat_weights on all n nodes. In v = f/r the term
# |∇(f x/|x|)|² gives ∫ r^{N+1} v'² dr plus the boundary term v(1)².


def _dirichlet_energy(grid, u, power) -> float:
    """½Σ face_coeffs(power) (Δu)², whose gradient is flux_residual."""
    return 0.5 * float(grid.face_coeffs(power) @ np.diff(u)**2)


def reduced_energy_gl(p: GLProfile, W: Potential, eps: float) -> float:
    """The two-field energy at g ≡ 0 with no penalty: its g terms are exact
    zeros, so this is the GL energy bit for bit. Only a GLProfile has one."""
    return reduced_energy_extended(_record(p, GLProfile), W, Potential.zero(),
                                   eps, 1.0)


def reduced_energy_extended(p, W: Potential, Wt: Potential, eps: float,
                            eta: float) -> float:
    """Accepts an ExtendedProfile (or a GLProfile, treated as g ≡ 0)."""
    _record(p, ExtendedProfile, GLProfile)
    _check_scale("eps", eps)
    _check_scale("eta", eta)
    W = Potential.from_spec(W)
    Wt = Potential.from_spec(Wt)
    grid = p.grid
    g = getattr(p, "g", np.zeros(grid.n))
    r = grid.nodes
    w0 = grid.hat_weights(0)
    g2 = g * g
    pot = W.eval(1.0 - r * r * p.v * p.v - g2, 0, clamp=True)
    pen = Wt.eval(g2, 0, clamp=True)
    return (_dirichlet_energy(grid, p.v, grid.N + 1) + 0.5 * p.v[-1]**2
            + _dirichlet_energy(grid, g, grid.N - 1)
            + float(w0 @ pot) / (2 * eps**2)
            + float(w0 @ pen) / (2 * eta**2))


def reduced_energy_mm(p: SphereProfile, Wt: Potential, eta: float) -> float:
    _record(p, SphereProfile)
    _check_scale("eta", eta)
    Wt = Potential.from_spec(Wt)
    grid = p.grid
    pen = Wt.eval(np.cos(p.theta)**2, 0, clamp=True)
    return (_dirichlet_energy(grid, p.theta, grid.N - 1)
            + 0.5 * (grid.N - 1) * float(grid.hat_weights(-2)
                                         @ np.sin(p.theta)**2)
            + float(grid.hat_weights(0) @ pen) / (2 * eta**2))


# ---------------------------------------------------------------------------
# independent residual and Pohozaev identity check


def residual(profile) -> float:
    """Sup-norm of the discrete ODE residual, recomputed from the stored
    fields and potentials (independent of the solver's bookkeeping)."""
    parts = _record(profile)._residual_parts()
    return float(max(np.max(np.abs(p)) for p in parts))


def pohozaev_check(p: SphereProfile, Wt: Potential, eta: float) -> float:
    """Max-norm defect of the radial conservation identity

        d/dr [ r²(θ')² + (N-1)cos²θ - (r²/η²) Ṽ(cos²θ) ]
            = -2(N-2) r (θ')² - (2r/η²) Ṽ(cos²θ)

    evaluated with second-order node derivatives. Small values certify that
    θ solves the angle ODE; O(1) values reject non-solutions."""
    _record(p, SphereProfile)
    _check_scale("eta", eta)
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


# how a parameter is written to JSON and read back, where not as itself
_CODECS = {"well": (Potential.spec, Potential.from_spec),
           "penalty": (Potential.spec, Potential.from_spec),
           "flags": (list, tuple)}
_AS_IS = (lambda x: x, lambda x: x)


def _meta(profile) -> dict:
    meta = {name: _CODECS.get(name, _AS_IS)[0](getattr(profile, name))
            for name in _record(profile).params}
    return {**meta, "model": profile.model, "N": profile.grid.N,
            "grid": profile.grid.spec(),
            "residual_norm": profile.residual_norm}


def profile_to_csv(profile) -> str:
    """CSV text: one JSON metadata comment line, column header, 17-digit rows."""
    meta = _meta(profile)
    return ("# " + json.dumps(meta, sort_keys=True) + "\n"
            + ",".join(("r", *profile.columns)) + "\n"
            + csv_rows(profile.grid.nodes,
                       *(getattr(profile, c) for c in profile.columns)))


def profile_to_json(profile) -> str:
    meta = _meta(profile)
    meta["fields"] = {u: getattr(profile, u).tolist()
                      for u in profile.unknowns}
    return json.dumps(meta, sort_keys=True)


def profile_from_json(text: str):
    """The record profile_to_json wrote. A parameter missing from the text
    (flags or no_escape in older files) takes the record's default; text
    that is not such a record raises InputError."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"profile JSON does not parse: {exc}") from None
    if not isinstance(data, dict):
        raise InputError("profile JSON must be an object, not "
                         f"{type(data).__name__}")
    try:
        cls = _RECORDS.get(data["model"])
        if cls is None:
            raise InputError(f"unknown profile model {data['model']!r}")
        grid = grid_from_spec(data["N"], data["grid"])
        params = {name: _CODECS.get(name, _AS_IS)[1](data[name])
                  for name in cls.params if name in data}
        fields = {u: np.asarray(data["fields"][u], dtype=float)
                  for u in cls.unknowns}
        if any(a.shape != (grid.n,) for a in fields.values()):
            raise InputError(f"each field needs {grid.n} node values")
        return cls(grid=grid, residual_norm=data["residual_norm"], **params,
                   **fields)
    except KeyError as exc:
        raise InputError(f"profile JSON lacks {exc}") from None
    except (TypeError, ValueError) as exc:     # InputError is a ValueError
        raise InputError(f"profile JSON is malformed: {exc}") from None
