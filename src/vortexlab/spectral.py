"""Radial pencils on the unit ball and their smallest eigenpairs.

Every quadratic form that vortexlab diagonalizes is radial: the GL
linearization  ∫ (q'^2 + (mu/r^2) q^2 + V q^2) r^(N-1) dr  behind the escape
criterion and the threshold eps0, and the per-harmonic second-variation
blocks of stability.py. Each is one RadialPencil: fields interleaved per
node, assembled by _assemble_pencil from RadialGrid.stiffness (one weight per
field) and consistent-P1 zero-order terms against the weighted P1 mass, as a
symmetric banded pencil (A, M). pencil_smallest computes its smallest
eigenpair: inverse iteration runs on the factor that certifies the bracket's
lower end and gives the vector, its Rayleigh quotients choose the next shifts
to test, and the inertia counts at those shifts pin the eigenvalue. Cold
solves start from RadialPencil.cold_start, 1 - r^2 in every field.

Conventions: Dirichlet at r = 1. At r_min the pencil's first active node
`start` is 0 (the zero-flux closure, which the radial operator keeps when
mu = 0) or 1 (Dirichlet, since a nonzero angular term forces q(0) = 0, and
in every mode block).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .banded import abs_matvec, equilibrate, shifted_factor, sym_matvec
from .core import (ConvergenceError, InputError, NoThresholdError,
                   BracketError, DEFAULT_GRID, Potential, RadialGrid, csv_rows,
                   make_grid, map_jobs)
from .profiles import (CONTINUATION_FACTOR, GLProfile, SolverOptions,
                       gl_eps_tangent, solve_gl_profile)

_BACKWARD_TOL = 1e-9        # normwise backward error an eigenpair must meet
# inverse iteration steps from the first definite shift; a step bisects at
# most once, and bisection alone takes the widest first bracket that the
# expansion allows, 1e18, to the 2e-9 of the window in about 90
_MAX_STEPS = 100


def pencil_smallest(Ab: np.ndarray, Mb: np.ndarray,
                    x0: np.ndarray | None = None
                    ) -> tuple[float, np.ndarray, float, list]:
    """Smallest eigenpair of the symmetric banded pencil A q = lambda M q
    with M positive definite.

    Inertia counts pin the eigenvalue in a bracket (lo, hi]: A - lo*M is
    positive definite and A - hi*M is not (banded.shifted_factor, exact for
    a nearby matrix), and the factor at lo also solves. The start vector x0
    is given in the caller's unknowns (default: the constant function). Its
    Rayleigh quotient less a width (0.1 (1 + |quotient|) for a supplied
    start, else the larger of 1 and a tenth of the quotient; four times
    wider at each retry) is the first lo, and every shift that fails on the
    way is hi; hi is unbounded until one does.

    Inverse iteration from x0 starts at once on the factor at lo, a shift
    below the smallest eigenvalue, so it can only converge to that
    eigenpair. From (A - lo M) y = M x, each step's quotient is
    lambda = lo + y^T M x / y^T M y, one matvec a step. The quotients only
    steer the shifts, by their falls and by the ratio r of two successive
    falls on one factor, with delta = 1e-9 (1 + |lambda|):

    * r >= 1/2 (a second eigenvalue close above the first): bisect
      (lo, min(hi, lambda + delta)]; a lambda above hi bisects (lo, hi];
    * lambda fell by less than delta, or the error left, about
      fall r / (1 - r), is under delta / 2: test lambda -+ delta where
      they lie inside the bracket;
    * else test lambda less twice the error left: a definite answer moves
      lo, and the factor to solve with, to just below the eigenvalue.

    Once the bracket lies within (lambda - delta, lambda + delta] or is
    2 delta wide, one more step gives the vector. The result is its
    quotient if that lies in the bracket, else the bracket's midpoint; a
    backward error above 1e-9, from explicit matvecs, raises
    ConvergenceError.

    Returns (eigenvalue, vector, residual, trace). The trace holds the
    bisection steps as (lo, top, count), the interval split at its midpoint,
    and every other event as a (tag, value) pair: a lower end that failed as
    ("expand", new lo), a tested shift as ("lo", sigma) or ("hi", sigma), the
    end it moved, the reason for a bisection as ("outside", lambda) or
    ("slow", lambda), and last ("certified", (a, b)), the bracket widened to
    at least delta on either side of the eigenvalue. Shared by the radial
    operators here and the coupled stability blocks.
    """
    if np.any(Mb[0] <= 0):
        raise InputError("mass diagonal must be positive")
    Ab, Mb, dscale = equilibrate(Ab, Mb)
    trace: list = []

    def window(sigma: float) -> float:
        return 1e-9 * (1.0 + abs(sigma))

    def split(sigma: float) -> int:
        """Move the bracket end that the test at sigma gives; 1 if A -
        sigma*M is not positive definite."""
        nonlocal lo, hi, solve
        factor = shifted_factor(Ab, Mb, sigma)
        if factor is None:
            hi = sigma
        else:
            lo, solve = sigma, factor
        return int(factor is None)

    def test(sigma: float) -> None:
        trace.append(("hi" if split(sigma) else "lo", sigma))

    def bisect(top: float) -> None:
        # the tuple takes lo before split moves it
        trace.append((lo, top, split(0.5 * (lo + top))))

    def step(x: np.ndarray, Mx: np.ndarray):
        """One inverse iteration step on the factor at lo, x M-normalized:
        the next x, its M x and its quotient."""
        y = solve(Mx)
        My = sym_matvec(Mb, y)
        nrm2 = float(My @ y)
        if not 0.0 < nrm2 < math.inf:
            raise ConvergenceError("inverse iteration overflow", trace)
        nrm = math.sqrt(nrm2)
        return y / nrm, My / nrm, lo + float(y @ Mx) / nrm2

    if x0 is None:
        x = 1.0 / dscale                        # the constant function
    else:
        x = np.asarray(x0, dtype=float)
        if x.shape != dscale.shape or not np.isfinite(x).all():
            raise InputError("start vector must be finite, one entry per "
                             "unknown")
        x = x / dscale
    Mx = sym_matvec(Mb, x)
    norm2 = Mx @ x
    if not norm2 > 0.0:
        raise InputError("start vector must not vanish")
    x, Mx = x / math.sqrt(norm2), Mx / math.sqrt(norm2)
    lam = float(sym_matvec(Ab, x) @ x)     # Rayleigh quotient upper bound
    width = (0.1 * (1.0 + abs(lam)) if x0 is not None
             else max(1.0, 0.1 * abs(lam)))
    lo, hi, solve = lam - width, math.inf, None
    while split(lo):
        width *= 4.0
        lo -= width
        trace.append(("expand", lo))
        if width > 1e18:
            raise ConvergenceError("failed to bracket the eigenvalue from "
                                   "below", trace)

    # the quotient's error contracts by ((lambda_1 - lo) / (lambda_2 - lo))^2
    # a step, and so does its fall, so the error left is about the geometric
    # tail fall r / (1 - r), r the ratio of two falls on one factor. A ratio
    # r >= 1/2 is slower than bisection, and it is tested first: the falls of
    # a second eigenvalue close above stay under delta long before the
    # quotient is within delta of lambda_1
    done, fall = False, math.inf
    for _ in range(_MAX_STEPS):
        last, shift = lam, lo
        x, Mx, lam = step(x, Mx)
        if done:
            break
        prev, fall = fall, last - lam
        ratio = fall / prev if 0.0 < prev < math.inf else None
        delta = window(lam)
        slow = ratio is not None and ratio >= 0.5
        if slow or lam >= hi:
            trace.append(("slow" if slow else "outside", lam))
            bisect(min(hi, lam + delta))
        else:
            tail = math.inf if ratio is None else fall * ratio / (1.0 - ratio)
            if fall < delta or 2.0 * tail < delta:
                for sigma in (lam - delta, lam + delta):
                    if lo < sigma < hi:
                        test(sigma)
            elif lo < lam - 2.0 * tail:
                test(lam - 2.0 * tail)
        if lo != shift:
            fall = math.inf         # the next step runs on a new factor
        done = hi < math.inf and (
            lam - delta <= lo and hi <= lam + delta
            or hi - lo <= 2.0 * window(0.5 * (lo + hi)))
    else:
        raise ConvergenceError(
            f"eigenvalue not certified by inertia in {_MAX_STEPS} steps: "
            f"bracket ({lo!r}, {hi!r}), last quotient {lam!r}", trace)
    if not lo <= lam <= hi:
        lam = 0.5 * (lo + hi)
    r = sym_matvec(Ab, x) - lam * sym_matvec(Mb, x)
    # normwise backward error: immune to the huge row-scale spread and
    # meaningful even when lam sits near zero
    denom = np.linalg.norm(abs_matvec(Ab, x) + abs(lam) * abs_matvec(Mb, x))
    resid = float(np.linalg.norm(r)) / max(denom, 1e-300)
    if resid >= _BACKWARD_TOL:
        raise ConvergenceError(
            f"inverse iteration stalled (backward error {resid:.3e})", trace)
    delta = window(lam)
    trace.append(("certified", (min(lo, lam - delta), max(hi, lam + delta))))
    return lam, x * dscale, resid, trace


# ---------------------------------------------------------------------------
# radial operator assembly


@dataclass(frozen=True)
class RadialPencil:
    """Symmetric banded pencil (A, M) of a radial quadratic form.

    The unknowns are the fields' values on the active nodes start..n-2,
    interleaved per node in field order. Each field u adds
    weights[u] * ∫ (u'^2 against the stiffness, u^2 against the mass)
    r^(N-1) dr, and each term (a, b, c, shift) adds c a b to the form's
    integrand against r^(N-1+shift), with c node samples or a constant. A and
    M are lower-band storage, assembled from those on construction. angular
    is the angular eigenvalue: lambda of a mode block, mu of a radial
    operator."""
    grid: RadialGrid
    fields: tuple
    weights: dict
    terms: tuple
    angular: float
    start: int = 1
    A: np.ndarray = field(init=False, repr=False)
    M: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        A, M = _assemble_pencil(self.grid, self.fields, self.weights,
                                self.terms, self.start)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "M", M)

    @property
    def size(self) -> int:
        return self.A.shape[1]

    def embed(self, x: np.ndarray) -> dict:
        """Unknowns -> per-field full-grid arrays, zero off the active
        nodes."""
        F = len(self.fields)
        out = {}
        for i, name in enumerate(self.fields):
            out[name] = np.zeros(self.grid.n)
            out[name][self.start:-1] = x[i::F]
        return out

    def interior(self, fields: dict) -> np.ndarray:
        """Per-field full-grid arrays -> unknowns (the inverse of embed on
        fields that vanish off the active nodes). InputError names each of
        the block's fields that is missing or not sampled on the grid."""
        bad = [k for k in self.fields
               if np.shape(fields.get(k)) != self.grid.nodes.shape]
        if bad:
            raise InputError(f"fields {bad} must be given as samples on the "
                             f"grid's {self.grid.n} nodes")
        F = len(self.fields)
        x = np.empty(self.size)
        for i, name in enumerate(self.fields):
            x[i::F] = np.asarray(fields[name])[self.start:-1]
        return x

    def cold_start(self) -> np.ndarray:
        """1 - r^2 in every field, as unknowns: a start for inverse
        iteration that meets the Dirichlet condition at r = 1, where the
        constant function jumps and has a Rayleigh quotient decades above
        the smallest eigenvalue."""
        return self.interior(dict.fromkeys(self.fields,
                                           1.0 - self.grid.nodes ** 2))

    def refined(self) -> "RadialPencil":
        """The same form on grid.halve_rmin(), each node-sampled coefficient
        held at its r_min value on the new node at r_min/2: the pencil holds
        coefficients flat over [0, r_min] already, so only the cutoff
        moves."""
        return replace(self, grid=self.grid.halve_rmin(), terms=tuple(
            (a, b, RadialGrid.onto_halved(c) if np.ndim(c) else c, shift)
            for a, b, c, shift in self.terms))

    def sector(self, *names) -> "RadialPencil":
        """Sub-pencil on a subset of fields; valid only when couplings to the
        dropped fields vanish (checked)."""
        keep = tuple(n for n in self.fields if n in names)
        if len(keep) != len(names):
            raise InputError(f"unknown fields {names} in block {self.fields}")
        for (a, b, c, _shift) in self.terms:
            if (a in keep) != (b in keep) and np.max(np.abs(c)) > 1e-14:
                raise InputError(f"cannot extract sector {keep}: coupling "
                                 f"{a}-{b} is nonzero")
        return replace(self, fields=keep, terms=tuple(
            t for t in self.terms if t[0] in keep and t[1] in keep))


def _assemble_pencil(grid, fields, weights, terms, start=1):
    """Lower bands (A, M) of the RadialPencil with these fields, weights and
    terms (see there); terms on other fields are skipped."""
    n = grid.n
    F = len(fields)
    pos = {name: i for i, name in enumerate(fields)}
    size = F * (n - 1 - start)
    A = np.zeros((2 * F, size))
    M = np.zeros((2 * F, size))
    act, cut = slice(start, n - 1), slice(start, n - 2)   # diagonal, offdiag

    sd, so = grid.stiffness(grid.N - 1)
    md, mo = grid.p1_mass(0)
    # field o of node j is column o + F*j: the field's nodes are the
    # stride-F slice [o::F], and all but its last node [o:size-F:F]; the
    # fields' slices are disjoint, so each is written once
    for name in fields:
        o = pos[name]
        w = weights[name]
        np.multiply(w, sd[act], out=A[0, o::F])
        np.multiply(w, so[cut], out=A[F, o:size - F:F])
        np.multiply(w, md[act], out=M[0, o::F])
        np.multiply(w, mo[cut], out=M[F, o:size - F:F])

    for (a, b, c, shift) in terms:
        if a not in pos or b not in pos:
            continue
        if np.ndim(c):
            d, off = grid.p1_weighted_mass(c, shift)
            di, offi = d[act], off[cut]
        else:
            d, off = grid.p1_mass(shift)
            di, offi = c * d[act], c * off[cut]
        oa, ob = pos[a], pos[b]
        if a == b:
            A[0, oa::F] += di
            A[F, oa:size - F:F] += offi
        else:
            # cross coupling c(r) a b: each undirected matrix entry is half the
            # form coefficient since x^T A x counts it twice; (a_j, b_{j+1})
            # and (a_{j+1}, b_j) sit F + ob - oa and F + oa - ob below the
            # diagonal
            lo, hi = min(oa, ob), max(oa, ob)
            A[hi - lo, lo::F] += 0.5 * di
            A[F + ob - oa, oa:size - F:F] += 0.5 * offi
            A[F + oa - ob, ob:size - F:F] += 0.5 * offi
    A.setflags(write=False)
    M.setflags(write=False)
    return A, M


def assemble_radial_operator(N: int, grid: RadialGrid, mu: float,
                             V) -> RadialPencil:
    """Pencil of ∫(q'^2 + (mu/r^2) q^2 + V q^2) r^(N-1) dr vs the
    r^(N-1)-weighted mass, in the one field q.

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

    start = 0 if mu == 0 else 1
    if grid.n - 1 - start < 2:
        raise InputError("grid too small for the eigenproblem")
    terms = (("q", "q", V, 0),) + ((("q", "q", mu, -2),) if mu > 0 else ())
    return RadialPencil(grid, ("q",), {"q": 1.0}, terms, float(mu), start)


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue with its node-sampled eigenfunction.

    q spans the full grid (Dirichlet zeros included), has q^T M q = 1 in
    its pencil's mass (the P1 interpolant of q has ∫ q^2 r^(N-1) dr = 1),
    and its largest |entry| is positive. `residual` is the normwise backward
    error of the generalized eigen-residual on the assembled pencil, and
    `bracket` the (a, b) that pencil_smallest's inertia counts certify to
    hold the eigenvalue.
    """
    eigenvalue: float
    q: np.ndarray
    grid: RadialGrid
    mu: float
    residual: float
    bracket: tuple

    def to_csv(self) -> str:
        return "r,q\n" + csv_rows(self.grid.nodes, self.q)


def smallest_eigenpair(op: RadialPencil,
                       q_init: np.ndarray | None = None) -> EigenPair:
    """Smallest eigenpair of the assembled pencil by pencil_smallest:
    inverse iteration whose shifts the inertia counts certify.

    Inverse iteration starts from q_init (node samples on the grid, say the
    eigenfunction at a nearby eps), or else from RadialPencil.cold_start.
    q keeps the normalization q^T M q = 1 that pencil_smallest gives it, and
    its largest |entry| is made positive (the entries near r_min are
    rounding noise when mu > 0, since q ~ r^k there).

    The inertia certificate says which eigenvalue the pair belongs to; the
    vector's entries are not tested for sign. (A Sturm-Liouville ground
    state has one sign, but inverse iteration leaves noise of the order of
    its backward error where the mode is exponentially small.)"""
    if q_init is None:
        x0 = op.cold_start()
    else:
        q_init = np.asarray(q_init, dtype=float)
        if q_init.shape != op.grid.nodes.shape:
            raise InputError("q_init must be sampled on the grid nodes")
        x0 = op.interior({"q": q_init})
    lam, x, resid, trace = pencil_smallest(op.A, op.M, x0=x0)
    q = op.embed(x)["q"]
    if q[np.argmax(np.abs(q))] < 0:
        q = -q
    q.setflags(write=False)
    return EigenPair(eigenvalue=lam, q=q, grid=op.grid, mu=op.angular,
                     residual=resid, bracket=trace[-1][1])


# ---------------------------------------------------------------------------
# vortex linearization


def gl_linearization_operator(W: Potential, eps: float, grid: RadialGrid,
                              f: np.ndarray) -> RadialPencil:
    """The amplitude linearization's pencil around node samples f of a
    vortex profile: potential V(r) = -W'(1 - f(r)^2)/eps^2, no angular
    term. At (f, 0) it is also the g-operator of the two-field model
    without its transverse term Wt'(0)/eta^2."""
    return assemble_radial_operator(grid.N, grid, 0.0,
                                    -W.eval(1.0 - f ** 2, 1) / eps ** 2)


def gl_linearization_eigenvalue(N: int, W, eps: float, grid: RadialGrid,
                                opts: SolverOptions = SolverOptions(),
                                start=None
                                ) -> tuple[float, EigenPair, GLProfile]:
    """Smallest eigenvalue of the amplitude linearization around the vortex
    profile: potential V(r) = -W'(1 - f(r)^2)/eps^2, no angular term.

    The sign of (eigenvalue + transverse-well slope/eta^2) is what decides
    whether the symmetric branch can shed energy by escaping, so this value
    feeds both the phase diagram and the stability verdicts.

    start, a pair (v, q) of node samples on grid (a GLProfile's v and an
    EigenPair's q at a nearby eps), warm-starts the profile's Newton and
    the pencil's inverse iteration; None solves cold.
    """
    W = Potential.from_spec(W)
    v_init, q_init = (None, None) if start is None else start
    profile = solve_gl_profile(N, W, eps, grid, opts, v_init=v_init)
    pair = smallest_eigenpair(gl_linearization_operator(W, eps, grid,
                                                        profile.f),
                              q_init=q_init)
    lam = pair.eigenvalue
    # for a convex W, V >= -W'(1)/eps^2 at every node (W' is nondecreasing
    # and 1 - f^2 <= 1), so the P1 pencil's smallest eigenvalue is at least
    # that: a certified bracket wholly below it is a solver fault
    lower = -W.eval(1.0, 1) / eps ** 2
    if pair.bracket[1] < lower:
        raise ConvergenceError(
            f"linearization eigenvalue {lam} under its lower bound {lower}",
            [("eps", eps), ("certified", pair.bracket)])
    return lam, pair, profile


def ell_never_negative(N: int, W) -> str | None:
    """Why the linearization eigenvalue ell(eps) is positive at every eps,
    or None when it turns negative for small eps. It stays positive for
    N >= 7 and for a well with W'(1) <= 0; no threshold eps0 and no escaping
    eta range exist then."""
    if N >= 7:
        return "for N >= 7 the linearization eigenvalue is positive at every eps"
    if Potential.from_spec(W).eval(1.0, 1) <= 0.0:
        return ("the well has zero slope at full depletion, so the "
                "linearization eigenvalue is positive at every eps")
    return None


def gl_linearization_slope(pair: EigenPair, profile: GLProfile) -> float:
    """d ell / d eps of the linearization eigenvalue ell = pair.eigenvalue
    around profile (both from gl_linearization_eigenvalue), exact for the
    discrete pencil: Hellmann-Feynman, q^T (dA/deps) q / q^T M q, with
    dA/deps the P1 mass weighted by

        dV/deps = 2 W'(x)/eps^3 + 2 W''(x) f (r dv/deps)/eps^2,   x = 1 - f^2,

    the derivative of the pencil's potential V = -W'(x)/eps^2 along the GL
    branch (dv/deps from profiles.gl_eps_tangent)."""
    grid, W, eps, f, q = (profile.grid, profile.well, profile.eps,
                          profile.f, pair.q)
    x = 1.0 - f ** 2
    dV = (2.0 * W.eval(x, 1) / eps ** 3
          + 2.0 * W.eval(x, 2) * f * grid.nodes * gl_eps_tangent(profile)
          / eps ** 2)

    return grid.p1_form(dV, q, q) / grid.p1_form(np.ones(grid.n), q, q)


def find_epsilon0(N: int, W, bracket: tuple[float, float], tol: float = 1e-8,
                  grid: RadialGrid | None = None,
                  opts: SolverOptions = SolverOptions(),
                  samples=()) -> float:
    """Coupling threshold: the eps at which the linearization eigenvalue
    crosses zero (negative below, positive above).

    Safeguarded Newton in log eps on the eigenvalue ell, valid because
    eps^2 * ell is strictly increasing: each eps solved inside the
    sign change also gives d ell/d eps (gl_linearization_slope), and the
    next eps is the Newton step from it. An Illinois bracket (regula falsi
    in log eps) is kept around the sign change; it gives the first eps, and
    the next one whenever a Newton step would leave the bracket. The search
    stops at |ell| < tol. The result is accepted only if halving r_min
    moves the eigenvalue by under tol/10, confirming the zero-flux origin
    closure is not polluting the answer. The move is the gap between the two
    certified brackets (0 where they overlap), each about 2e-9 wide.

    samples are (eps, eigenvalue) pairs that the caller has already
    computed on grid with opts (a sweep's rows, say). The search starts on
    the adjacent pair of samples and bracket ends where the eigenvalue
    changes sign, and never solves an eps it was given. Each eps it does
    solve is a continuation step: its profile and eigenvector start from
    the nearest eps solved so far, if that lies within one
    CONTINUATION_FACTOR (else from the cold ladder), and the halved-r_min
    solve starts from the accepted profile and eigenvector, stretched by
    one node at the origin.
    """
    W = Potential.from_spec(W)
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise InputError("N must be an integer >= 2")
    reason = ell_never_negative(N, W)
    if reason:
        raise NoThresholdError(f"no threshold: {reason}")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0 < lo < hi):
        raise InputError("bracket must satisfy 0 < lo < hi")
    if not tol > 0:
        raise InputError("tol must be positive")
    if grid is None:
        grid = make_grid(N, **DEFAULT_GRID)

    solved = {}                 # eps -> (v, q), the continuation's states

    def ell(e):
        near = min(solved, key=lambda s: abs(s - e), default=None)
        start = None
        if near is not None and max(near / e, e / near) <= CONTINUATION_FACTOR:
            start = solved[near]
        lam, eig, prof = gl_linearization_eigenvalue(N, W, e, grid, opts,
                                                     start=start)
        solved[e] = (prof.v, eig.q)
        return lam, eig, prof

    known = {float(e): float(v) for e, v in samples if lo <= e <= hi}
    for e in (lo, hi):
        if e not in known:
            known[e] = ell(e)[0]
    pts = sorted(known.items())
    pair = next(((a, b) for a, b in zip(pts, pts[1:])
                 if a[1] < 0.0 < b[1]), None)
    if pair is None:
        raise BracketError(
            f"bracket does not straddle the threshold: "
            f"eigenvalue({lo}) = {known[lo]:.6g}, "
            f"eigenvalue({hi}) = {known[hi]:.6g}")
    (lo, flo), (hi, fhi) = pair
    t_lo, t_hi = math.log(lo), math.log(hi)

    # Illinois variant in t = log eps: never leaves the bracket; a Newton
    # step from the last eps replaces its point while it stays inside
    t = (t_lo * fhi - t_hi * flo) / (fhi - flo)
    side = 0
    for _ in range(200):
        if not (t_lo < t < t_hi):
            t = 0.5 * (t_lo + t_hi)
        e_mid = math.exp(t)
        f_mid, eig, prof = ell(e_mid)
        if abs(f_mid) < tol:
            break
        if f_mid < 0:
            t_lo, flo = t, f_mid
            if side == -1:
                fhi *= 0.5
            side = -1
        else:
            t_hi, fhi = t, f_mid
            if side == 1:
                flo *= 0.5
            side = 1
        slope = e_mid * gl_linearization_slope(eig, prof)  # d ell / d t
        t = t - f_mid / slope if slope > 0 else math.nan
        if not (t_lo < t < t_hi):
            t = (t_lo * fhi - t_hi * flo) / (fhi - flo)
    else:
        raise ConvergenceError(
            f"threshold search stalled at eigenvalue {f_mid:.3e}",
            [("bracket", (math.exp(t_lo), math.exp(t_hi)))])

    # v and q are even at the origin: v'(0) = q'(0) = 0
    shifted = gl_linearization_eigenvalue(
        N, W, e_mid, grid.halve_rmin(), opts,
        start=tuple(map(grid.onto_halved, solved[e_mid])))[1]
    (a, b), (c, d) = eig.bracket, shifted.bracket
    gap = max(0.0, c - b, a - d)
    if gap > 0.1 * tol:
        raise ConvergenceError(
            "threshold rejected: halving r_min moved the eigenvalue's "
            f"certified bracket by {gap:.3e} (limit {0.1 * tol:.1e}); refine "
            "the grid near the origin", [("eps", e_mid)])
    return float(e_mid)


# ---------------------------------------------------------------------------
# sweeps and export


def _ell(N, W, eps, grid, opts) -> float:
    """ell(eps) alone: a worker process sends back no profile."""
    return gl_linearization_eigenvalue(N, W, eps, grid, opts)[0]


def linearization_eigenvalue_sweep(N: int, W, eps_values,
                                   grid: RadialGrid | None = None,
                                   jobs: int = 1,
                                   opts: SolverOptions = SolverOptions()
                                   ) -> list[tuple[float, float]]:
    """(eps, eigenvalue) rows across eps values, each profile solved with
    opts; the values are independent, so jobs > 1 spreads them over worker
    processes (core.map_jobs)."""
    W = Potential.from_spec(W)
    if grid is None:
        grid = make_grid(N, **DEFAULT_GRID)
    eps_values = [float(e) for e in eps_values]
    # the grid itself, not its spec: a spec does not rebuild every grid
    vals = map_jobs(_ell, [(N, W, e, grid, opts) for e in eps_values], jobs)
    return list(zip(eps_values, vals))


def sweep_to_csv(rows) -> str:
    eps = np.array([e for e, _ in rows], dtype=float)
    val = np.array([v for _, v in rows], dtype=float)
    return "eps,eigenvalue,eps2_eigenvalue\n" + csv_rows(eps, val,
                                                        eps * eps * val)
