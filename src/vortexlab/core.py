"""Radial grids on (0,1], their integration tables for the measure
r^(N-1) dr, and convex potentials.

Everything downstream works on the unit ball in dimension N reduced to the
radial coordinate. A grid carries an inner cutoff r_min > 0 (the continuous
problems have singular coefficients at r = 0; boundary closures extrapolate
to the origin) and the two tables every integral is taken from: midpoint
face coefficients for the gradient terms (face_coeffs), and exact P1
moments against r^(N-1+shift) dr for every zero-order term
(p1_weighted_mass, p1_form, hat_weights).
"""

from __future__ import annotations

import copy
import functools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = [
    "VortexLabError",
    "InputError",
    "DomainError",
    "ConvergenceError",
    "NoThresholdError",
    "OutOfRangeError",
    "NoEscapingRegionError",
    "BracketError",
    "InconsistentError",
    "RadialGrid",
    "make_grid",
    "Potential",
    "potential_eval",
    "format_float",
]


class VortexLabError(Exception):
    """Base class for all package errors."""


class InputError(VortexLabError, ValueError):
    """Invalid argument or malformed input value."""


class DomainError(VortexLabError, ValueError):
    """Potential evaluated outside its stated domain."""


class ConvergenceError(VortexLabError):
    """Nonlinear or eigen iteration failed; carries the iteration trace."""

    def __init__(self, message: str, trace: list | None = None):
        super().__init__(message)
        self.trace = trace or []


class NoThresholdError(VortexLabError):
    """The sign-change threshold does not exist for these inputs."""


class OutOfRangeError(VortexLabError):
    """Parameter outside the regime where the requested quantity is defined."""


class NoEscapingRegionError(VortexLabError):
    """No escaping region exists for these inputs."""


class BracketError(VortexLabError):
    """A root bracket does not straddle a sign change."""


class InconsistentError(VortexLabError):
    """Two independent routes to the same answer disagree (a bug signal)."""


def format_float(x: float) -> str:
    """17 significant digits: guarantees binary round-trip of doubles."""
    return f"{float(x):.17g}"


def csv_rows(*cols) -> str:
    """CSV lines, each ending in a newline, from equal-length columns: string
    columns as they are, every other column as floats in format_float's text.
    One format string is mapped over the columns' .tolist(), so a long
    profile does not pay a Python-level join per row."""
    arrays = [np.asarray(c) for c in cols]
    text = [a.dtype.kind in "US" for a in arrays]
    fmt = ",".join("{}" if t else "{:.17g}" for t in text) + "\n"
    return "".join(map(fmt.format, *(
        (a if t else a.astype(float)).tolist() for a, t in zip(arrays, text))))


def map_jobs(fn, calls: list, jobs: int = 1) -> list:
    """[fn(*args) for args in calls], in call order; with jobs > 1 the same
    calls run over up to that many worker processes, never more than there
    are calls or CPUs this process may run on (fn and its arguments must
    pickle). No result can change."""
    workers = min(jobs, len(calls), len(os.sched_getaffinity(0)))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, *zip(*calls)))
    return [fn(*args) for args in calls]


# ---------------------------------------------------------------------------
# moments of r^p over intervals


def _moments(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """Integrals of r^p over the intervals [a_k, b_k] (p = -1 needs a > 0).
    Powers and logs come from libm one value at a time: numpy's vectorized
    pow and log differ from it in the last bit on some inputs and CPUs."""
    if p == -1:
        return np.array([math.log(t) for t in (b / a).tolist()])
    q = p + 1.0
    bq = np.array([t**q for t in b.tolist()])
    aq = np.array([t**q for t in a.tolist()])
    return (bq - aq) / q


def _cubes(x: np.ndarray) -> np.ndarray:
    """x**3 elementwise from libm, bit for bit with the scalar power (see
    _moments)."""
    return np.array([t**3 for t in x.tolist()])


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Graded mesh 0 < r_1 < ... < r_n = 1 with its face and P1 tables
    for r^(N-1) dr.

    Immutable after construction (frozen, arrays write-locked): make_grid
    hands the same grid to every caller in a process, and the derived tables
    in its cache are pure functions of the nodes. Safe to send to workers.
    """

    N: int
    nodes: np.ndarray
    grading: dict = field(default_factory=lambda: {"grading": "uniform"})
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.nodes.setflags(write=False)

    # -- basic queries ------------------------------------------------------

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def r_min(self) -> float:
        return float(self.nodes[0])

    @property
    def h(self) -> np.ndarray:
        """Cell widths between consecutive nodes (length n-1)."""
        return self._cached("h", lambda: np.diff(self.nodes))

    def _cached(self, key, builder):
        if key not in self._cache:
            value = builder()
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    a.setflags(write=False)
            self._cache[key] = value
        return self._cache[key]

    # -- P1 tables against r^(N-1+shift) dr ---------------------------------

    def hat_weights(self, shift: int = 0) -> np.ndarray:
        """Lumped hat-function moments against r^(N-1+shift) dr: the row
        sums of p1_mass(shift), since the hats sum to 1.

        Always positive; used for mass lumping and zero-order operator terms.
        For shift making the origin-segment moment divergent (power <= -1)
        the P1 tables drop the origin segment; callers in that regime hold
        Dirichlet data at r_min and never touch node 0.
        """
        def build():
            diag, off = self.p1_mass(shift)
            w = diag.copy()
            w[:-1] += off
            w[1:] += off
            return w

        return self._cached(("hw", shift), build)

    def p1_mass(self, shift: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Consistent P1 mass against r^(N-1+shift): (diagonal, off-diagonal)."""
        return self._cached(
            ("p1m", shift),
            lambda: self.p1_weighted_mass(np.ones(self.n), shift))

    def _p1_tables(self, shift: int):
        """Cell integrals T(s,t) = ∫ φ_left^s φ_right^t r^(N-1+shift) dr / 1
        for s+t = 3, in units of the local basis (already divided by h^3),
        plus the [0, r_min] origin moment.

        Hybrid evaluation: raw power moments amplify rounding by (b/h)^3 on
        fine cells far from the origin, so those cells use Gauss-Legendre in
        the local coordinate (machine-exact there); cells hugging the origin,
        where the weight is far from polynomial but b/h is O(1), keep the
        exact moment formulas.
        """
        def build():
            p = self.N - 1 + shift
            r = self.nodes
            h = self.h
            a = r[:-1]
            b = r[1:]
            t30 = np.empty(self.n - 1)
            t21 = np.empty(self.n - 1)
            t12 = np.empty(self.n - 1)
            t03 = np.empty(self.n - 1)
            near = a / h < 8.0
            an, bn = a[near], b[near]
            m0, m1, m2, m3 = (_moments(an, bn, p + k) for k in range(4))
            a3, b3, h3 = (_cubes(x) for x in (an, bn, h[near]))
            t30[near] = (b3 * m0 - 3 * bn * bn * m1 + 3 * bn * m2 - m3) / h3
            t21[near] = (-an * bn * bn * m0 + (bn * bn + 2 * an * bn) * m1
                         - (2 * bn + an) * m2 + m3) / h3
            t12[near] = (an * an * bn * m0 - (2 * an * bn + an * an) * m1
                         + (bn + 2 * an) * m2 - m3) / h3
            t03[near] = (-a3 * m0 + 3 * an * an * m1 - 3 * an * m2 + m3) / h3
            far = ~near
            if np.any(far):
                gx, gw = np.polynomial.legendre.leggauss(12)
                s = 0.5 * (gx + 1.0)                    # local coordinate
                ws = 0.5 * gw
                af = a[far, None]
                hf = h[far, None]
                rr = af + hf * s
                wgt = rr ** p * ws * hf
                t30[far] = (wgt * (1 - s) ** 3).sum(axis=1)
                t21[far] = (wgt * (1 - s) ** 2 * s).sum(axis=1)
                t12[far] = (wgt * (1 - s) * s ** 2).sum(axis=1)
                t03[far] = (wgt * s ** 3).sum(axis=1)
            orig = r[0] ** (p + 1.0) / (p + 1.0) if p > -1 else 0.0
            return t30, t21, t12, t03, orig

        # h^3 underflows to 0 on steep gradings: the profile solvers refuse
        # the NaN entries that gives (profiles._checked_band)
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._cached(("p1t", shift), build)

    def p1_weighted_mass(self, values, shift: int = 0
                         ) -> tuple[np.ndarray, np.ndarray]:
        """Consistent P1 matrix of ∫ w(r) φi φj r^(N-1+shift) dr, with w the
        piecewise-linear interpolant of `values` (held flat over [0, r_min]).

        With constant values this reproduces p1_mass bitwise, so adding a
        constant to a potential shifts discrete eigenvalues by exactly that
        constant.
        """
        t30, t21, t12, t03, orig = self._p1_tables(shift)
        V = np.asarray(values, dtype=float)
        if V.shape != self.nodes.shape:
            raise InputError("value array does not match the grid")
        diag = np.zeros(self.n)
        diag[:-1] += V[:-1] * t30 + V[1:] * t21
        diag[1:] += V[:-1] * t12 + V[1:] * t03
        diag[0] += V[0] * orig
        off = V[:-1] * t21 + V[1:] * t12
        return diag, off

    def p1_form(self, values, a: np.ndarray, b: np.ndarray,
                shift: int = 0) -> float:
        """a^T B b with B = p1_weighted_mass(values, shift) and a, b node
        samples: ∫ w a b r^(N-1+shift) dr for the P1 interpolants w, a and
        b of values, a and b, each held flat over [0, r_min]."""
        d, off = self.p1_weighted_mass(values, shift)
        return float(d @ (a * b) + off @ (a[:-1] * b[1:] + a[1:] * b[:-1]))

    def face_coeffs(self, power: int) -> np.ndarray:
        """Midpoint flux coefficients  mid^power / h  on the n-1 faces."""
        def build():
            mids = 0.5 * (self.nodes[:-1] + self.nodes[1:])
            return mids**power / self.h

        return self._cached(("fc", power), build)

    # -- the radial operator -(r^power u')' ---------------------------------
    # Conservative flux form with the face coefficients above. Rows are the
    # nodes 0..n-2: node 0 closes with zero flux across [0, r_min], and node
    # n-1 is a Dirichlet node (its value enters row n-2, it has no row).

    def flux_residual(self, u: np.ndarray, power: int, out=None,
                      right=None) -> np.ndarray:
        """Rows 0..n-2 of -(r^power u')': the face flux on the left of each
        node minus the one on its right. u holds the samples at all n nodes,
        or at nodes 0..n-2 when `right` gives the Dirichlet value at node
        n-1. The rows are written into out (length n-1; a strided view such
        as every other entry of a Newton vector will do) when it is given."""
        if right is None:
            u, right = u[:-1], u[-1]
        flux = np.empty(self.n - 1)
        np.subtract(u[1:], u[:-1], out=flux[:-1])
        flux[-1] = right - u[-1]
        flux *= self.face_coeffs(power)
        if out is None:
            out = np.empty(self.n - 1)
        out[0] = -flux[0]
        np.subtract(flux[:-1], flux[1:], out=out[1:])
        return out

    def stiffness(self, power: int) -> tuple[np.ndarray, np.ndarray]:
        """Jacobian of flux_residual on nodes 0..n-2: (diagonal, first
        subdiagonal). A Dirichlet node at r_min drops row and column 0:
        slice both with [1:]."""
        def build():
            c = self.face_coeffs(power)
            diag = c.copy()
            diag[1:] += c[:-1]
            return diag, -c[:-1]

        return self._cached(("stiff", power), build)

    def stiffness_band(self, *powers: int) -> np.ndarray:
        """The stiffness(power) of each of len(powers) = F fields, with the
        fields' unknowns interleaved per node (field o of node j is unknown
        o + F j), in symmetric lower storage of bandwidth F (shape
        (F + 1, F (n - 1)), banded.sym_solver's storage): the part of every
        Newton Jacobian that does not change with the iterate."""
        def build():
            F = len(powers)
            size = F * (self.n - 1)
            band = np.zeros((F + 1, size))
            for o, power in enumerate(powers):
                diag, off = self.stiffness(power)
                band[0, o::F] = diag
                band[F, o:size - F:F] = off
            return band

        return self._cached(("stiff_band", powers), build)

    # -- discrete calculus --------------------------------------------------

    def node_gradient(self, u: np.ndarray) -> np.ndarray:
        """Third-order derivative samples at the nodes.

        Sliding 4-point Lagrange stencils (clamped at the ends) — one stencil
        family across the whole grid, so the pointwise error varies smoothly
        and a second differentiation of the result still comes out second
        order instead of collapsing to first at the boundary nodes.
        """
        u = np.asarray(u, dtype=float)
        r = self.nodes
        n = len(r)
        s = np.clip(np.arange(n) - 1, 0, n - 4)
        cols = s[:, None] + np.arange(4)
        X = r[cols]
        xe = r[:, None]
        out = np.zeros(n)
        for k in range(4):
            idx = [p for p in range(4) if p != k]
            denom = (X[:, k, None] - X[:, idx]).prod(axis=1)
            numer = np.zeros(n)
            for m in range(3):
                pp = [p for p in idx if p != idx[m]]
                numer += (xe[:, 0] - X[:, pp[0]]) * (xe[:, 0] - X[:, pp[1]])
            out += numer / denom * u[cols[:, k]]
        return out

    def halve_rmin(self) -> "RadialGrid":
        """The same grid with one more node at r_min/2 (probes the origin
        cutoff; spec() is unchanged, so it does not rebuild this grid).
        Built once per grid and kept in its cache, so the halved grid's own
        tables and GL ladder live as long as this grid does."""
        def build():
            nodes = np.concatenate(([0.5 * self.r_min], self.nodes))
            return RadialGrid(N=self.N, nodes=nodes, grading=self.grading)

        return self._cached("halved", build)

    @staticmethod
    def onto_halved(u: np.ndarray) -> np.ndarray:
        """Node samples u on halve_rmin()'s grid, u(r_min) at r_min/2: u
        held flat over [0, r_min], as the P1 tables and the zero-flux
        closure hold it."""
        return np.concatenate(([u[0]], u))

    # -- serialization ------------------------------------------------------

    def spec(self) -> dict:
        """{"n": n, "grading": ...}; a copy, since the grid is shared."""
        return {"n": self.n, **copy.deepcopy(self.grading)}


def _parse_grading(grading) -> tuple[str, float]:
    """("uniform", 1.0) or ("graded", beta) from "uniform" (or None),
    {"graded": beta}, ("graded", beta), "graded:BETA" or "graded(BETA)"."""
    if grading is None or grading == "uniform":
        return "uniform", 1.0
    beta = None
    if isinstance(grading, dict) and "graded" in grading:
        beta = grading["graded"]
    elif isinstance(grading, (tuple, list)) and len(grading) == 2 and grading[0] == "graded":
        beta = grading[1]
    elif isinstance(grading, str) and grading.startswith("graded"):
        beta = grading.replace("graded", "").lstrip(":(").rstrip(")")
    try:
        return "graded", float(beta)
    except (TypeError, ValueError):
        raise InputError(f"unrecognized grading spec: {grading!r}") from None


# distinct grids kept alive per process (a benchmark workload uses at most 6)
GRID_CACHE_SIZE = 16

# the grid of every solve that names none: make_grid(N, **DEFAULT_GRID)
DEFAULT_GRID = {"n": 2000, "grading": {"graded": 2.0}}


def make_grid(N: int, n: int, grading="uniform") -> RadialGrid:
    """Mesh with n nodes in (0, 1], last node exactly 1.

    grading "uniform" gives r_j = j/n; {"graded": beta} clusters nodes near the
    origin via r_j = (j/n)^beta, beta >= 1 (keeps r_min <= 1/n).

    Every spelling of one (N, n, grading) returns the same shared, immutable
    grid for the life of the process (the last GRID_CACHE_SIZE distinct
    grids are kept), so its P1 and face tables, stencils, halved-r_min
    grid and GL ladder rungs are built once, not once per request.
    """
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise InputError("dimension N must be an integer >= 2")
    if not isinstance(n, (int, np.integer)) or n < 16:
        raise InputError("need at least 16 nodes")
    kind, beta = _parse_grading(grading)
    if not 1.0 <= beta < math.inf:       # NaN fails too
        raise InputError("grading exponent must be finite and >= 1")
    return _build_grid(int(N), int(n), kind, beta)


@functools.lru_cache(maxsize=GRID_CACHE_SIZE)
def _build_grid(N: int, n: int, kind: str, beta: float) -> RadialGrid:
    """The grid of a validated, normalized spec (kind "uniform" has beta 1.0).
    `_build_grid.__wrapped__` builds an unshared one."""
    j = np.arange(1, n + 1, dtype=float)
    nodes = (j / n)**beta if kind == "graded" else j / n
    nodes[-1] = 1.0
    spec = {"grading": "uniform"} if kind == "uniform" else {"grading": {"graded": beta}}
    return RadialGrid(N=N, nodes=nodes, grading=spec)


def grid_from_spec(N: int, spec: dict) -> RadialGrid:
    """Rebuild a grid from RadialGrid.spec() output."""
    return make_grid(N, spec["n"], spec.get("grading", "uniform"))


# ---------------------------------------------------------------------------
# potentials


_CONVEXITY_SAMPLES = 1000
_CONVEXITY_TOL = 1e-9
# derivative orders that are one constant on the domain, per kind
_CONSTANT_DERIVATIVES = {"quadratic": {2: 1.0},
                         "linear": {1: 1.0, 2: 0.0},
                         "zero": {0: 0.0, 1: 0.0, 2: 0.0}}


@dataclass(frozen=True)
class Potential:
    """Convex nonnegative potential vanishing at 0, with two derivatives.

    Two families appear: bulk potentials evaluated at 1 - |m|^2 (domain
    reaching down to -inf, capped at 1) and transverse penalties evaluated at
    the squared last component (domain [0, inf)). Presets plus user piecewise
    cubics; every instance passes a sampled convexity/positivity check at
    construction.
    """

    kind: str
    params: tuple = ()
    lo: float = -math.inf
    hi: float = math.inf

    # -- constructors -------------------------------------------------------

    @staticmethod
    def quadratic() -> "Potential":
        return Potential("quadratic", (), -math.inf, 1.0)

    @staticmethod
    def linear() -> "Potential":
        return Potential("linear", (), 0.0, math.inf)

    @staticmethod
    def zero() -> "Potential":
        return Potential("zero", (), -math.inf, math.inf)

    @staticmethod
    def flat_well(t0: float) -> "Potential":
        if not 0.0 <= t0 < 1.0:
            raise InputError("flat_well offset must lie in [0, 1)")
        return Potential("flat_well", (float(t0),), -math.inf, 1.0)

    @staticmethod
    def piecewise(breaks: Iterable[float], coeffs: Iterable[Iterable[float]],
                  hi: float | None = None) -> "Potential":
        br = tuple(float(b) for b in breaks)
        cf = tuple(tuple(float(c) for c in row) for row in coeffs)
        if len(br) < 2 or any(b2 <= b1 for b1, b2 in zip(br, br[1:])):
            raise InputError("piecewise breaks must be strictly increasing")
        if len(cf) != len(br) - 1 or any(len(row) != 4 for row in cf):
            raise InputError("need one cubic (4 coefficients) per segment")
        pot = Potential("piecewise", (br, cf), br[0], br[-1] if hi is None else hi)
        _check_conditions(pot)
        return pot

    @staticmethod
    def from_spec(spec) -> "Potential":
        """JSON form: "quadratic" | "linear" | "zero" | {"flat_well": t0}
        | {"piecewise": {"breaks": [...], "coeffs": [[...], ...]}}
        (optionally wrapped as {"kind": ...}), as an object or as JSON text;
        the string "flat_well:T0" is short for {"flat_well": T0}."""
        if isinstance(spec, Potential):
            return spec
        if isinstance(spec, str) and spec.strip().startswith("{"):
            try:
                spec = json.loads(spec)
            except ValueError:
                raise InputError(f"malformed potential JSON: {spec!r}") from None
        if isinstance(spec, dict) and "kind" in spec:
            spec = spec["kind"]
        try:
            if isinstance(spec, str):
                name = spec.strip()
                simple = {"quadratic": Potential.quadratic,
                          "linear": Potential.linear,
                          "zero": Potential.zero}
                if name in simple:
                    return simple[name]()
                if name.startswith("flat_well"):
                    inner = name[len("flat_well"):].strip(":() ")
                    return Potential.flat_well(float(inner))
            if isinstance(spec, dict) and "flat_well" in spec:
                return Potential.flat_well(float(spec["flat_well"]))
            if isinstance(spec, dict) and "piecewise" in spec:
                body = spec["piecewise"]
                return Potential.piecewise(body["breaks"], body["coeffs"],
                                           body.get("hi"))
        except InputError:
            raise
        except (TypeError, ValueError, KeyError):
            pass
        raise InputError(f"unknown potential spec: {spec!r}")

    def spec(self) -> dict:
        """JSON form {"kind": ...}; from_spec(spec()) round-trips."""
        if self.kind in ("quadratic", "linear", "zero"):
            return {"kind": self.kind}
        if self.kind == "flat_well":
            return {"kind": {"flat_well": self.params[0]}}
        return {"kind": {"piecewise": {
            "breaks": list(self.params[0]),
            "coeffs": [list(row) for row in self.params[1]],
            "hi": None if math.isinf(self.hi) else self.hi}}}

    # -- evaluation ---------------------------------------------------------

    def eval(self, t, order: int = 0, clamp: bool = False):
        """Value (order 0) or derivative (order 1, 2) at t; vectorized.

        clamp=True projects the argument onto the domain first (used by
        Newton iterates that may transiently leave it).
        """
        if order not in (0, 1, 2):
            raise InputError("order must be 0, 1 or 2")
        t = np.asarray(t, dtype=float)
        if clamp:               # np.clip's bits, without its dispatch cost
            if self.lo > -math.inf:
                t = np.maximum(t, self.lo)
            if self.hi < math.inf:
                t = np.minimum(t, self.hi)
        return self._eval_raw(t, order)

    def constant(self, order: int) -> float | None:
        """The value of derivative `order` (0, 1 or 2) where it is one
        constant on the domain, else None: W'' = 1 for quadratic, Wt' = 1
        and Wt'' = 0 for linear, 0 at every order for zero. eval(t, order,
        clamp=True) gives that value at every t."""
        if order not in (0, 1, 2):
            raise InputError("order must be 0, 1 or 2")
        return _CONSTANT_DERIVATIVES.get(self.kind, {}).get(order)

    def _eval_raw(self, t: np.ndarray, order: int):
        if self.kind == "zero":
            return np.zeros_like(t)
        if self.kind == "quadratic":
            if order == 0:
                return 0.5 * t * t
            return t if order == 1 else np.ones_like(t)
        if self.kind == "linear":
            if order == 0:
                return t
            return np.ones_like(t) if order == 1 else np.zeros_like(t)
        if self.kind == "flat_well":
            t0 = self.params[0]
            u = np.maximum(t - t0, 0.0)
            if order == 0:
                return 0.5 * u * u
            if order == 1:
                return u
            return np.where(t > t0, 1.0, 0.0)
        breaks, coeffs = self.params
        br = np.asarray(breaks)
        idx = np.clip(np.searchsorted(br, t, side="right") - 1, 0, len(coeffs) - 1)
        c = np.asarray(coeffs)[idx]
        u = t - br[idx]
        if order == 0:
            return c[..., 0] + u * (c[..., 1] + u * (c[..., 2] + u * c[..., 3]))
        if order == 1:
            return c[..., 1] + u * (2 * c[..., 2] + 3 * u * c[..., 3])
        return 2 * c[..., 2] + 6 * u * c[..., 3]


def _check_conditions(pot: Potential) -> None:
    """Sampled nonnegativity/convexity/anchoring check (rejects bad specs)."""
    lo = pot.lo if math.isfinite(pot.lo) else min(-4.0, pot.hi - 1.0)
    hi = pot.hi if math.isfinite(pot.hi) else max(4.0, pot.lo + 1.0)
    ts = np.linspace(lo, hi, _CONVEXITY_SAMPLES)
    v = pot.eval(ts, 0)
    v2 = pot.eval(ts, 2)
    if not (pot.lo <= 0.0 <= pot.hi):
        raise InputError("potential domain must contain 0")
    if abs(float(pot.eval(0.0, 0))) > _CONVEXITY_TOL:
        raise InputError("potential must vanish at 0")
    if np.min(v) < -_CONVEXITY_TOL:
        raise InputError("potential must be nonnegative on its domain")
    if np.min(v2) < -_CONVEXITY_TOL:
        raise InputError("potential must be convex on its domain")
    if pot.kind == "piecewise":
        breaks, coeffs = pot.params
        for i in range(1, len(coeffs)):
            u = breaks[i] - breaks[i - 1]
            c = coeffs[i - 1]
            left_v = c[0] + u * (c[1] + u * (c[2] + u * c[3]))
            left_d = c[1] + u * (2 * c[2] + 3 * u * c[3])
            if abs(left_v - coeffs[i][0]) > 1e-8 or abs(left_d - coeffs[i][1]) > 1e-8:
                raise InputError("piecewise potential must be C^1 at breakpoints")


def potential_eval(p: Potential, t: float, order: int = 0) -> float:
    """Domain-checked scalar evaluation of V, V' or V''."""
    t = float(t)
    if not (p.lo <= t <= p.hi):
        raise DomainError(
            f"argument {t} outside potential domain [{p.lo}, {p.hi}]")
    return float(p.eval(t, order))
