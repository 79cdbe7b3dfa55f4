"""Radial grids on (0,1], quadrature for the measure r^(N-1) dr, and convex
potentials.

Everything downstream works on the unit ball in dimension N reduced to the
radial coordinate. A grid carries an inner cutoff r_min > 0 (the continuous
problems have singular coefficients at r = 0; boundary closures extrapolate
to the origin), node weights that integrate smooth integrands against
r^(N-1) dr over the whole interval [0, 1], and helpers for the piecewise
moments the solvers and quadratic-form assemblies need.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

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


# ---------------------------------------------------------------------------
# moments of r^p over intervals


def _moment(a: float, b: float, p: float) -> float:
    """Integral of r^p over [a, b]; supports p = -1 (needs a > 0 then)."""
    if p == -1:
        return math.log(b / a)
    q = p + 1.0
    return (b**q - a**q) / q


def _moments(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """_moment over the intervals [a_k, b_k], bit for bit. Powers and logs
    come from libm one value at a time: numpy's vectorized pow and log differ
    from it in the last bit on some inputs and CPUs."""
    if p == -1:
        return np.array([math.log(t) for t in (b / a).tolist()])
    q = p + 1.0
    bq = np.array([t**q for t in b.tolist()])
    aq = np.array([t**q for t in a.tolist()])
    return (bq - aq) / q


def _lagrange_weights(x: Sequence[np.ndarray], a: np.ndarray, b: np.ndarray,
                      p: float) -> np.ndarray:
    """Weights w[i] with sum_i w[i] phi(x[i]) = integral over [a,b] of the
    quadratic interpolant of phi (through the three x) times r^p dr, for
    arrays of triples x[0], x[1], x[2] and intervals [a, b]."""
    m0 = _moments(a, b, p)
    m1 = _moments(a, b, p + 1)
    m2 = _moments(a, b, p + 2)
    w = np.empty((3, m0.size))
    for i in range(3):
        j, k = [s for s in range(3) if s != i]
        den = (x[i] - x[j]) * (x[i] - x[k])
        w[i] = (m2 - (x[j] + x[k]) * m1 + x[j] * x[k] * m0) / den
    return w


def _product_weights(nodes: np.ndarray, p: float) -> np.ndarray:
    """Node weights integrating phi against r^p dr over [0, 1], exact for
    polynomials phi of degree <= 2 (piecewise-quadratic reconstruction on
    node triples; the [0, nodes[0]] segment extrapolates the first triple)."""
    n = nodes.size
    w = np.zeros(n)
    # origin segment, quadratic through the first three nodes
    w[0:3] += _lagrange_weights(nodes[0:3, None], np.zeros(1), nodes[:1],
                                p)[:, 0]
    # pair up interior cells: triples (i, i+1, i+2) for even i <= n-3; a node
    # shared by two triples gets the left triple's weight first
    k = (n - 1) // 2
    x = (nodes[0:2 * k - 1:2], nodes[1:2 * k:2], nodes[2:2 * k + 1:2])
    tw = _lagrange_weights(x, x[0], x[2], p)
    w[1:2 * k:2] += tw[1]
    w[2:2 * k + 1:2] += tw[2]
    w[0:2 * k - 1:2] += tw[0]
    if n % 2 == 0:  # one unpaired trailing cell
        w[n - 3:] += _lagrange_weights(nodes[n - 3:, None], nodes[n - 2:n - 1],
                                       nodes[n - 1:], p)[:, 0]
    return w


@dataclass
class RadialGrid:
    """Graded mesh 0 < r_1 < ... < r_n = 1 with quadrature for r^(N-1) dr.

    Immutable after construction (arrays are write-locked); safe to share
    across workers.
    """

    N: int
    nodes: np.ndarray
    weights: np.ndarray          # degree-2 product rule against r^(N-1)
    grading: dict = field(default_factory=lambda: {"grading": "uniform"})
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

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

    # -- quadrature ---------------------------------------------------------

    def quadrature(self, values: np.ndarray) -> float:
        """Integral over [0,1] of phi r^(N-1) dr from node samples of phi."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.nodes.shape:
            raise InputError("value array does not match the grid")
        return float(self.weights @ values)

    def product_weights(self, shift: int = 0) -> np.ndarray:
        """Degree-2 node weights against r^(N-1+shift) dr."""
        return self._cached(("pw", shift),
                            lambda: _product_weights(self.nodes, self.N - 1 + shift))

    def hat_weights(self, shift: int = 0) -> np.ndarray:
        """Lumped hat-function moments against r^(N-1+shift) dr.

        Always positive; used for mass lumping and zero-order operator terms.
        For shift making the origin-segment moment divergent (power <= -1) the
        first node's origin contribution is dropped; callers in that regime
        hold Dirichlet data at r_min and never touch node 0.
        """
        def build():
            p = self.N - 1 + shift
            a, b = self.nodes[:-1], self.nodes[1:]
            mm0 = _moments(a, b, p)
            mm1 = _moments(a, b, p + 1)
            w = np.zeros(self.n)
            w[:-1] += (b * mm0 - mm1) / self.h
            w[1:] += (mm1 - a * mm0) / self.h
            if p > -1:
                w[0] += _moment(0.0, self.nodes[0], p)
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
            for j in np.nonzero(near)[0]:
                aj, bj = a[j], b[j]
                m0 = _moment(aj, bj, p)
                m1 = _moment(aj, bj, p + 1)
                m2 = _moment(aj, bj, p + 2)
                m3 = _moment(aj, bj, p + 3)
                h3 = h[j] ** 3
                t30[j] = (bj**3 * m0 - 3 * bj * bj * m1 + 3 * bj * m2 - m3) / h3
                t21[j] = (-aj * bj * bj * m0 + (bj * bj + 2 * aj * bj) * m1
                          - (2 * bj + aj) * m2 + m3) / h3
                t12[j] = (aj * aj * bj * m0 - (2 * aj * bj + aj * aj) * m1
                          + (bj + 2 * aj) * m2 - m3) / h3
                t03[j] = (-aj**3 * m0 + 3 * aj * aj * m1 - 3 * aj * m2 + m3) / h3
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
            orig = _moment(0.0, r[0], p) if p > -1 else 0.0
            return t30, t21, t12, t03, orig

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

    def cell_moments(self, shift: int = 0) -> np.ndarray:
        """Moments of r^(N-1+shift) over the n-1 cells [r_j, r_{j+1}]."""
        return self._cached(("cm", shift), lambda: _moments(
            self.nodes[:-1], self.nodes[1:], self.N - 1 + shift))

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

    def flux_residual(self, u: np.ndarray, power: int) -> np.ndarray:
        """Rows 0..n-2 of -(r^power u')' on full-grid samples u: the face
        flux on the left of each node minus the one on its right."""
        flux = self.face_coeffs(power) * (u[1:] - u[:-1])
        res = np.empty(self.n - 1)
        res[0] = -flux[0]
        res[1:] = flux[:-1] - flux[1:]
        return res

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

    def origin_moment(self, shift: int = 0) -> float:
        """Moment of r^(N-1+shift) over [0, r_min]."""
        p = self.N - 1 + shift
        if p <= -1:
            raise InputError("origin moment diverges for this power")
        return _moment(0.0, self.r_min, p)

    # -- discrete calculus --------------------------------------------------

    def gradient_energy(self, u: np.ndarray, left_value: float | None = None,
                        shift: int = 0) -> float:
        """Integral of (u')^2 r^(N-1+shift) dr for the piecewise-linear u.

        left_value: value at r = 0 closing the [0, r_min] segment; None means
        zero slope there (even/Neumann extension).
        """
        u = np.asarray(u, dtype=float)
        slopes = np.diff(u) / self.h
        total = float(self.cell_moments(shift) @ slopes**2)
        if left_value is not None:
            total += ((u[0] - left_value) / self.nodes[0])**2 * self.origin_moment(shift)
        return total

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
        cutoff; spec() is unchanged, so it does not rebuild this grid)."""
        nodes = np.concatenate(([0.5 * self.r_min], self.nodes))
        return RadialGrid(N=self.N, nodes=nodes,
                          weights=_product_weights(nodes, self.N - 1),
                          grading=dict(self.grading))

    # -- serialization ------------------------------------------------------

    def spec(self) -> dict:
        return {"n": self.n, **self.grading}


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


def make_grid(N: int, n: int, grading="uniform") -> RadialGrid:
    """Mesh with n nodes in (0, 1], last node exactly 1.

    grading "uniform" gives r_j = j/n; {"graded": beta} clusters nodes near the
    origin via r_j = (j/n)^beta, beta >= 1 (keeps r_min <= 1/n).
    """
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise InputError("dimension N must be an integer >= 2")
    if not isinstance(n, (int, np.integer)) or n < 16:
        raise InputError("need at least 16 nodes")
    kind, beta = _parse_grading(grading)
    if beta < 1.0:
        raise InputError("grading exponent must be >= 1")
    j = np.arange(1, n + 1, dtype=float)
    nodes = (j / n)**beta if kind == "graded" else j / n
    nodes[-1] = 1.0
    spec = {"grading": "uniform"} if kind == "uniform" else {"grading": {"graded": beta}}
    return RadialGrid(N=int(N), nodes=nodes,
                      weights=_product_weights(nodes, N - 1), grading=spec)


def grid_from_spec(N: int, spec: dict) -> RadialGrid:
    """Rebuild a grid from RadialGrid.spec() output."""
    return make_grid(N, spec["n"], spec.get("grading", "uniform"))


# ---------------------------------------------------------------------------
# potentials


_CONVEXITY_SAMPLES = 1000
_CONVEXITY_TOL = 1e-9


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
        if clamp:
            t = np.clip(t, self.lo, self.hi)
        out = self._eval_raw(t, order)
        return out

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
