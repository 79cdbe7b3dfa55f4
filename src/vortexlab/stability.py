"""Second-variation analysis of the radial profiles.

Perturbations decompose over sphere harmonics; each harmonic level lambda =
k(k+N-2) yields an independent radial block coupling an amplitude field s, a
tangential field psi (absent at lambda = 0), and — in the extended model — a
transverse field q. Blocks are assembled as symmetric banded pencils with the
same flux/consistent-P1 conventions as the scalar eigenproblems, so sector
identities (e.g. the decoupled q-sector against the scalar linearization
eigenvalue) hold at the discrete level, not just in the limit.

Boundary conventions: every mode field is Dirichlet at both r_min and 1 (the
admissible perturbations vanish near the origin puncture and on the sphere);
verdicts are only reported after an r_min-refinement stability check.
"""
from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .banded import sym_matvec
from .core import (ConvergenceError, InputError, Potential, RadialGrid,
                   format_float)
from .profiles import ExtendedProfile, GLProfile, SphereProfile
from .spectral import pencil_smallest

_CONVERGED_RESIDUAL = 1e-6


def _angular_check(N: int, lam: float) -> None:
    if lam == 0:
        return
    disc = (N - 2) ** 2 + 4.0 * lam
    if lam < 0 or disc < 0:
        raise InputError(
            f"lambda={lam} is not a sphere-Laplacian eigenvalue k(k+N-2)")
    k = 0.5 * (-(N - 2) + math.sqrt(disc))
    if abs(k - round(k)) > 1e-9 or round(k) < 1:
        raise InputError(
            f"lambda={lam} is not a sphere-Laplacian eigenvalue k(k+N-2)")


def sphere_eigenvalues(N: int, lam_max: float) -> list[float]:
    """Angular eigenvalues k(k+N-2) up to lam_max, k = 0, 1, 2, ..."""
    out, k = [], 0
    while True:
        lam = float(k * (k + N - 2))
        if lam > lam_max:
            return out
        out.append(lam)
        k += 1


# ---------------------------------------------------------------------------
# term lists: one shared description drives the banded assembly, the direct
# form evaluation, and sector extraction


def _profile_terms(profile, W, Wt, eps, eta, lam):
    """Fields, stiffness/mass weights and zero-order coefficient functions of
    the lambda-mode quadratic form for the given background profile.

    zero terms are (field_a, field_b, node values, radial shift): a == b adds
    values*a^2, a != b adds values*a*b to the integrand (against r^(N-1+shift)).
    """
    grid = profile.grid
    N = grid.N
    r = grid.nodes
    one = np.ones(grid.n)

    if isinstance(profile, SphereProfile):
        Wt = Potential.from_spec(Wt if Wt is not None else profile.penalty)
        eta = float(eta if eta is not None else profile.eta)
        th = profile.theta
        c2 = np.cos(th) ** 2
        s2 = 1.0 - c2
        wtp = Wt.eval(c2, 1)
        wtpp = Wt.eval(c2, 2)
        dth = grid.node_gradient(th)
        fields = ("p",) if lam == 0 else ("p", "psi")
        stiff = {"p": 1.0, "psi": lam}
        mass = {"p": 1.0, "psi": lam}
        terms = [
            ("p", "p", (lam + (N - 1) * (c2 - s2)) * one, -2),
            ("p", "p", (wtp * (s2 - c2) + 2.0 * wtpp * c2 * s2) / eta ** 2, 0),
        ]
        if lam > 0:
            mu0 = dth ** 2 + wtp * c2 / eta ** 2     # multiplier, 1/r^2 part split off
            terms += [
                ("psi", "psi", lam * (lam - N + 3) * one, -2),
                ("psi", "psi", -lam * (N - 1) * s2, -2),
                ("psi", "psi", -lam * mu0, 0),
                ("p", "psi", -4.0 * lam * np.cos(th), -2),
            ]
        return fields, stiff, mass, terms

    if isinstance(profile, GLProfile):
        W = Potential.from_spec(W if W is not None else profile.well)
        eps = float(eps if eps is not None else profile.eps)
        f = profile.f
        X = 1.0 - f ** 2
        wp = W.eval(X, 1)
        wpp = W.eval(X, 2)
        fields = ("s",) if lam == 0 else ("s", "psi")
        stiff = {"s": 1.0, "psi": lam}
        mass = {"s": 1.0, "psi": lam}
        terms = [
            ("s", "s", (lam + N - 1) * one, -2),
            ("s", "s", -wp / eps ** 2 + 2.0 * wpp * f ** 2 / eps ** 2, 0),
        ]
        if lam > 0:
            terms += [
                ("psi", "psi", lam * (lam - N + 3) * one, -2),
                ("psi", "psi", -lam * wp / eps ** 2, 0),
                ("s", "psi", -4.0 * lam * one, -2),
            ]
        return fields, stiff, mass, terms

    if isinstance(profile, ExtendedProfile):
        W = Potential.from_spec(W if W is not None else profile.well)
        Wt = Potential.from_spec(Wt if Wt is not None else profile.penalty)
        eps = float(eps if eps is not None else profile.eps)
        eta = float(eta if eta is not None else profile.eta)
        f, g = profile.f, profile.g
        X = 1.0 - f ** 2 - g ** 2
        wp = W.eval(X, 1)
        wpp = W.eval(X, 2)
        g2 = g ** 2
        wtp = Wt.eval(g2, 1)
        wtpp = Wt.eval(g2, 2)
        fields = ("s", "q") if lam == 0 else ("s", "psi", "q")
        stiff = {"s": 1.0, "psi": lam, "q": 1.0}
        mass = {"s": 1.0, "psi": lam, "q": 1.0}
        terms = [
            ("s", "s", (lam + N - 1) * one, -2),
            ("s", "s", (-wp + 2.0 * wpp * f ** 2) / eps ** 2, 0),
            ("q", "q", (-wp + 2.0 * wpp * g2) / eps ** 2
             + (wtp + 2.0 * wtpp * g2) / eta ** 2, 0),
            ("s", "q", 4.0 * wpp * f * g / eps ** 2, 0),
        ]
        if lam > 0:
            terms += [
                ("q", "q", lam * one, -2),
                ("psi", "psi", lam * (lam - N + 3) * one, -2),
                ("psi", "psi", -lam * wp / eps ** 2, 0),
                ("s", "psi", -4.0 * lam * one, -2),
            ]
        return fields, stiff, mass, terms

    raise InputError(f"unsupported profile type {type(profile).__name__}")


@dataclass(frozen=True)
class ModeBlock:
    """Symmetric banded pencil of one harmonic level's quadratic form.

    Unknowns are the interior nodes (Dirichlet at r_min and 1), interleaved
    per node in field order. A and M are lower-band storage."""
    lam: float
    fields: tuple
    grid: RadialGrid
    N: int
    A: np.ndarray
    M: np.ndarray
    profile_kind: str
    _terms: tuple                  # retained for sector extraction
    stiff: dict                    # field -> stiffness weight
    mass: dict                     # field -> mass weight

    @property
    def size(self) -> int:
        return self.A.shape[1]

    def embed(self, x: np.ndarray) -> dict:
        """Interleaved interior vector -> per-field full-grid arrays."""
        F = len(self.fields)
        m = self.size // F
        out = {}
        for i, name in enumerate(self.fields):
            q = np.zeros(self.grid.n)
            q[1:1 + m] = x[i::F]
            out[name] = q
        return out

    def sector(self, *names) -> "ModeBlock":
        """Sub-pencil on a subset of fields; valid only when couplings to the
        dropped fields vanish (checked)."""
        keep = tuple(n for n in self.fields if n in names)
        if len(keep) != len(names):
            raise InputError(f"unknown fields {names} in block {self.fields}")
        dropped = set(self.fields) - set(keep)
        for (a, b, vals, _shift) in self._terms:
            if a != b and ((a in dropped) != (b in dropped)):
                if float(np.max(np.abs(vals))) > 1e-14:
                    raise InputError(
                        f"cannot extract sector {keep}: coupling {a}-{b} "
                        "is nonzero")
        terms = tuple(t for t in self._terms
                      if t[0] in keep and t[1] in keep)
        A, M = _assemble_pencil(self.grid, keep, self.stiff, self.mass, terms)
        return replace(self, fields=keep, A=A, M=M, _terms=terms)


def _assemble_pencil(grid, fields, stiff, mass, terms):
    n = grid.n
    m = n - 2                       # interior nodes
    F = len(fields)
    pos = {name: i for i, name in enumerate(fields)}
    size = F * m
    bw = max(2 * F - 1, F)
    A = np.zeros((bw + 1, size))
    M = np.zeros((bw + 1, size))

    sd, so = grid.stiffness(grid.N - 1)
    sd, so = sd[1:], so[1:]         # Dirichlet at r_min too: interior nodes
    md, mo = grid.p1_mass(0)
    mdi, moi = md[1:n - 1], mo[1:n - 2]

    for name in fields:
        o = pos[name]
        w = stiff[name]
        idx = o + F * np.arange(m)
        A[0, idx] += w * sd
        A[F, idx[:-1]] += w * so
        M[0, idx] += mass[name] * mdi
        M[F, idx[:-1]] += mass[name] * moi

    for (a, b, vals, shift) in terms:
        if a not in pos or b not in pos:
            continue
        d, off = grid.p1_weighted_mass(vals, shift)
        di, offi = d[1:n - 1], off[1:n - 2]
        oa, ob = pos[a], pos[b]
        ia = oa + F * np.arange(m)
        ib = ob + F * np.arange(m)
        if a == b:
            A[0, ia] += di
            A[F, ia[:-1]] += offi
        else:
            # cross coupling c(r) a b: each undirected matrix entry is half the
            # form coefficient since x^T A x counts it twice; (a_j, b_{j+1})
            # and (a_{j+1}, b_j) sit F + ob - oa and F + oa - ob below the
            # diagonal
            lo, hi = min(oa, ob), max(oa, ob)
            A[hi - lo, lo + F * np.arange(m)] += 0.5 * di
            A[F + ob - oa, ia[:-1]] += 0.5 * offi
            A[F + oa - ob, ib[:-1]] += 0.5 * offi
    A.setflags(write=False)
    M.setflags(write=False)
    return A, M


def mode_block(profile, W, Wt, eps, eta, lam) -> ModeBlock:
    """Assemble the banded pencil of one harmonic level around a converged
    profile (see module docstring for conventions)."""
    grid = profile.grid
    _angular_check(grid.N, lam)
    if profile.residual_norm > _CONVERGED_RESIDUAL:
        raise InputError(
            f"profile residual {profile.residual_norm:.3e} too large: "
            "the second variation is only meaningful at a critical point")
    fields, stiff, mass, terms = _profile_terms(profile, W, Wt, eps, eta, lam)
    A, M = _assemble_pencil(grid, fields, stiff, mass, terms)
    return ModeBlock(lam=float(lam), fields=fields, grid=grid, N=grid.N,
                     A=A, M=M, profile_kind=type(profile).__name__,
                     _terms=tuple(terms), stiff=stiff, mass=mass)


def mode_form_value(profile, W, Wt, eps, eta, lam, trial: dict) -> float:
    """Direct evaluation of the lambda-mode quadratic form on full-grid trial
    fields (zero at r_min and 1): cell-by-cell flux sums plus weighted-P1
    contractions, sharing quadrature conventions with mode_block but none of
    its matrix plumbing."""
    grid = profile.grid
    _angular_check(grid.N, lam)
    fields, stiff, mass, terms = _profile_terms(profile, W, Wt, eps, eta, lam)
    missing = [f for f in fields if f not in trial]
    if missing:
        raise InputError(f"trial is missing fields {missing}")
    c = grid.face_coeffs(grid.N - 1)
    proj = {}
    for name in fields:
        u = np.array(trial[name], dtype=float)
        if u.shape != grid.nodes.shape:
            raise InputError("trial fields must be sampled on the grid")
        u[0] = u[-1] = 0.0          # endpoint values are not degrees of freedom
        proj[name] = u
    total = 0.0
    for name in fields:
        total += stiff[name] * float(c @ np.diff(proj[name]) ** 2)
    for (a, b, vals, shift) in terms:
        d, off = grid.p1_weighted_mass(vals, shift)
        ua, ub = proj[a], proj[b]
        total += float(d @ (ua * ub))
        total += float(off @ (ua[:-1] * ub[1:] + ua[1:] * ub[:-1]))
    return total


def mode_min_eigenvalue(block: ModeBlock) -> float:
    """Smallest generalized eigenvalue of the block pencil."""
    val, _, _, _ = pencil_smallest(block.A, block.M)
    return val


def _block_smallest(block: ModeBlock):
    val, x, resid, _ = pencil_smallest(block.A, block.M)
    return val, block.embed(x)


# ---------------------------------------------------------------------------
# Hardy-factored identity


def hardy_identity_check(profile: ExtendedProfile, W, Wt, eps, eta,
                         trial: dict) -> float:
    """Relative discrepancy between the direct lambda=0 form and its
    ground-state-factored representation

        ∫ r^(N-1) [ f^2 ((s/f)')^2 + g^2 ((q/g)')^2
                    + 2 W''(X)(fs+gq)^2/eps^2 + 2 Wt''(g^2) g^2 q^2/eta^2 ]

    in which every zero-order term has been absorbed by the profile
    equations. Requires the escaping branch (g > 0 in the interior)."""
    if not isinstance(profile, ExtendedProfile):
        raise InputError("hardy_identity_check needs an extended profile")
    if profile.branch != "escaping":
        raise InputError(
            "factored form divides by g: escaping profile required")
    W = Potential.from_spec(W if W is not None else profile.well)
    Wt = Potential.from_spec(Wt if Wt is not None else profile.penalty)
    eps = float(eps)
    eta = float(eta)
    grid = profile.grid
    s = np.array(trial["s"], dtype=float)
    q = np.array(trial["q"], dtype=float)
    s[0] = s[-1] = q[0] = q[-1] = 0.0
    direct = mode_form_value(profile, W, Wt, eps, eta, 0.0,
                             {"s": s, "q": q})

    f, g = profile.f, profile.g
    if np.any(g[:-1] <= 0):
        raise InputError("factored form divides by g: g must be positive "
                         "inside")
    u = np.zeros_like(s)
    w = np.zeros_like(q)
    u = s / f
    w[:-1] = q[:-1] / g[:-1]
    # g(1) = 0 exactly; the trial vanishes there too, so extend w by its
    # derivative ratio (both orders of the 0/0 limit)
    w[-1] = (grid.node_gradient(q)[-1] / grid.node_gradient(g)[-1])
    X = 1.0 - f ** 2 - g ** 2
    wpp = W.eval(X, 2)
    wtpp = Wt.eval(g ** 2, 2)
    mids = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
    cf = np.interp(mids, grid.nodes, f) ** 2 * mids ** (grid.N - 1) / grid.h
    cg = np.interp(mids, grid.nodes, g) ** 2 * mids ** (grid.N - 1) / grid.h
    factored = float(cf @ np.diff(u) ** 2) + float(cg @ np.diff(w) ** 2)
    rest = 2.0 * wpp * (f * s + g * q) ** 2 / eps ** 2 \
        + 2.0 * wtpp * g ** 2 * q ** 2 / eta ** 2
    factored += grid.quadrature(rest)
    scale = abs(direct) + abs(factored) + 1e-300
    return abs(direct - factored) / scale


# ---------------------------------------------------------------------------
# algebraic certificate for the divergence-free sector


def divfree_certificate(N: int, alpha: float) -> bool:
    """True when the weight r^(2 alpha) witnesses the Hardy-type bound that
    makes the divergence-free sector uniformly positive: alpha in
    (-(N-2), 0) and (alpha+1)(alpha+N-3) < N-3. Vacuous (True) for N=2,
    where that sector is empty."""
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise InputError("N must be an integer >= 2")
    if N == 2:
        return True
    a = float(alpha)
    return -(N - 2) < a < 0 and (a + 1) * (a + N - 3) < N - 3


# ---------------------------------------------------------------------------
# equator instability


@dataclass(frozen=True)
class EquatorInstability:
    """Trial-energy record for the equator map on an annulus (b, a).

    exact is the trial's energy in closed form; closed_form majorizes it by
    bounding the penalty's r^2 weight by a^2, so exact <= closed_form and a
    negative closed_form certifies instability. discrete is the same trial
    contracted with the assembled lambda=0 block, an approximation of exact.
    float() returns the closed form."""
    N: int
    eta: float
    a: float
    b: float
    closed_form: float
    exact: float
    discrete: float

    def __float__(self) -> float:
        return float(self.closed_form)


def equator_instability_value(N: int, Wt, eta: float, a: float, b: float,
                              grid: RadialGrid | None = None
                              ) -> EquatorInstability:
    """Value of the equator's second variation on the log-sine trial
    q(r) = sin(pi ln(r/b)/ln(a/b)) r^(-(N-2)/2) supported on (b, a).

    With L = ln(a/b) and omega = 2 pi/L the trial's energy is exactly

        (L/2)[(pi/L)^2 + (N^2-8N+8)/4]
            + (Wt'(0)/eta^2) (a^2-b^2) omega^2 / (4 (4 + omega^2)),

    the penalty being (Wt'(0)/eta^2) ∫ sin^2(pi t/L) r^2 dt in t = ln(r/b).
    The closed form bounds r^2 by a^2 there:
    (L/2)[(pi/L)^2 + (N^2-8N+8)/4 + Wt'(0) a^2/eta^2]. Negative values
    certify instability (possible only for N <= 6, since N^2-8N+8 >= 0 past
    that)."""
    Wt = Potential.from_spec(Wt)
    if not (0.0 < b < a < 1.0):
        raise InputError("need 0 < b < a < 1")
    if eta <= 0:
        raise InputError("eta must be positive")
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise InputError("N must be an integer >= 2")
    L = math.log(a / b)
    wt0 = Wt.eval(0.0, 1)
    gradient = (math.pi / L) ** 2 + (N * N - 8 * N + 8) / 4.0
    closed = 0.5 * L * (gradient + wt0 * a * a / eta ** 2)
    omega2 = (2.0 * math.pi / L) ** 2
    exact = 0.5 * L * gradient + (wt0 / eta ** 2) * (a * a - b * b) \
        * omega2 / (4.0 * (4.0 + omega2))

    if grid is None:
        from .core import make_grid
        grid = make_grid(N, 4000, {"graded": 2.0})
    r = grid.nodes
    q = np.zeros(grid.n)
    inside = (r > b) & (r < a)
    q[inside] = np.sin(math.pi * np.log(r[inside] / b) / L) \
        * r[inside] ** (-(N - 2) / 2.0)
    kinetic = float(grid.face_coeffs(N - 1) @ np.diff(q) ** 2)
    cd, co = grid.p1_mass(-2)
    cent = float(cd @ q ** 2) + float(co @ (2.0 * q[:-1] * q[1:]))
    md, mo = grid.p1_mass(0)
    mass = float(md @ q ** 2) + float(mo @ (2.0 * q[:-1] * q[1:]))
    discrete = kinetic - (N - 1) * cent + wt0 / eta ** 2 * mass
    return EquatorInstability(N=int(N), eta=float(eta), a=float(a),
                              b=float(b), closed_form=closed, exact=exact,
                              discrete=discrete)


# ---------------------------------------------------------------------------
# spectrum summary


@dataclass(frozen=True)
class StabilityReport:
    profile_kind: str
    lam_values: tuple
    min_eigenvalues: tuple
    refinement_shifts: tuple
    divfree_ok: bool
    band: float
    ell: float | None
    verdict: str                   # PositiveDefinite | Kernel(d) | Indefinite
    kernel_dim: int
    kernel: dict | None            # field name -> full-grid values

    def to_json(self) -> str:
        data = {
            "profile": self.profile_kind,
            "lambda": list(self.lam_values),
            "min_eigenvalues": list(self.min_eigenvalues),
            "refinement_shifts": list(self.refinement_shifts),
            "divfree_certificate": self.divfree_ok,
            "kernel_band": self.band,
            "ell": self.ell,
            "verdict": self.verdict,
            "kernel_dim": self.kernel_dim,
            "kernel_csv": self.kernel_csv() if self.kernel else None,
        }
        return json.dumps(data, indent=2)

    def kernel_csv(self) -> str:
        if not self.kernel:
            return ""
        buf = io.StringIO()
        names = sorted(k for k in self.kernel if k != "__r__")
        buf.write("r," + ",".join(names) + "\n")
        grid_r = self.kernel["__r__"]
        for i, rr in enumerate(grid_r):
            buf.write(format_float(rr) + ","
                      + ",".join(format_float(self.kernel[n][i])
                                 for n in names) + "\n")
        return buf.getvalue()


def _refined_profile(profile):
    """Insert a node at r_min/2 (fields extended by their leading-order
    behavior; no re-solve — this only probes the Dirichlet cutoff, and the
    coefficient perturbation is O(r_min^2))."""
    newgrid = profile.grid.halve_rmin()

    def stretch(u, like):
        if like == "linear":                    # u ~ c r near 0
            return np.concatenate(([0.5 * u[0]], u))
        return np.concatenate(([u[0]], u))      # u'(0) = 0

    if isinstance(profile, SphereProfile):
        return replace(profile, grid=newgrid,
                       theta=stretch(profile.theta,
                                     "flat" if profile.no_escape else "linear"))
    if isinstance(profile, GLProfile):
        return replace(profile, grid=newgrid, v=stretch(profile.v, "flat"),
                       f=newgrid.nodes * stretch(profile.v, "flat"))
    v = stretch(profile.v, "flat")
    return replace(profile, grid=newgrid, v=v, f=newgrid.nodes * v,
                   g=stretch(profile.g, "flat"))


def spectrum_summary(profile, W, Wt, eps, eta,
                     lam_max: float | None = None) -> StabilityReport:
    """Smallest eigenvalue of every harmonic block up to lam_max, with the
    divergence-free certificate, an r_min-refinement stability check, and the
    verdict {PositiveDefinite, Kernel(dim), Indefinite}."""
    grid = profile.grid
    N = grid.N
    if lam_max is None:
        lam_max = 3.0 * (N + 1)
    lams = sphere_eigenvalues(N, lam_max)

    ell = None
    if isinstance(profile, (GLProfile, ExtendedProfile)):
        from .spectral import gl_linearization_eigenvalue
        Wv = Potential.from_spec(W if W is not None else profile.well)
        epsv = float(eps if eps is not None else profile.eps)
        ell, _, _ = gl_linearization_eigenvalue(N, Wv, epsv, grid)
    band = 1e-4 * (1.0 + (abs(ell) if ell is not None else 0.0))

    refined = _refined_profile(profile)
    mins, shifts, vectors = [], [], []

    def sign_class(v):
        return -1 if v < -band else (1 if v > band else 0)

    for lam in lams:
        blk = mode_block(profile, W, Wt, eps, eta, lam)
        val, vecs = _block_smallest(blk)
        rblk = mode_block(refined, W, Wt, eps, eta, lam)
        rval = mode_min_eigenvalue(rblk)
        mins.append(val)
        shifts.append(rval - val)
        vectors.append(vecs)
        # the verdict may not depend on the origin cutoff: extrapolate the
        # halving shift (x4 covers slow, even logarithmic, relaxation) and
        # demand the sign classification survive it
        if sign_class(val) != sign_class(val + 4.0 * (rval - val)):
            raise ConvergenceError(
                f"r_min refinement moved the lambda={lam} eigenvalue by "
                f"{rval - val:.3e}, enough to change its sign class; refine "
                "the grid before trusting the verdict",
                [("lam", lam), ("min", val), ("refined", rval)])

    # ordering check: the lambda-dependent terms are nonnegative additions
    rest = [v for lam, v in zip(lams, mins) if lam >= N - 1]
    for a, b in zip(rest, rest[1:]):
        if b < a - max(1e-8, 1e-8 * abs(a)):
            raise ConvergenceError(
                "mode ordering violated: smallest eigenvalues must be "
                f"non-decreasing in lambda, got {rest}",
                [("lams", lams), ("mins", mins)])

    monotone_ok = True
    if isinstance(profile, (GLProfile, ExtendedProfile)):
        monotone_ok = bool(np.all(np.diff(profile.f) > -1e-12))
    else:
        monotone_ok = bool(np.all(np.diff(np.sin(profile.theta)) > -1e-9))
    cert = divfree_certificate(N, -(N - 2) / 2.0) and monotone_ok

    kernel_idx = [i for i, v in enumerate(mins) if abs(v) <= band]
    negative = [v for v in mins if v < -band]
    if negative:
        verdict = "Indefinite"
        kernel = None
        kdim = 0
    elif kernel_idx:
        kdim = len(kernel_idx)
        verdict = f"Kernel({kdim})"
        vecs = vectors[kernel_idx[0]]
        main = max(vecs, key=lambda k: float(np.max(np.abs(vecs[k]))))
        sgn = 1.0 if vecs[main][np.argmax(np.abs(vecs[main]))] > 0 else -1.0
        kernel = {k: sgn * v for k, v in vecs.items()}
        kernel["__r__"] = grid.nodes
    else:
        if not cert:
            raise ConvergenceError(
                "all blocks positive but the divergence-free certificate "
                "prerequisites failed (profile monotonicity)", [])
        verdict = "PositiveDefinite"
        kernel = None
        kdim = 0

    return StabilityReport(profile_kind=type(profile).__name__,
                           lam_values=tuple(lams),
                           min_eigenvalues=tuple(mins),
                           refinement_shifts=tuple(shifts),
                           divfree_ok=cert, band=band, ell=ell,
                           verdict=verdict, kernel_dim=kdim, kernel=kernel)


def decomposition_check(profile, W, Wt, eps, eta, trials: dict) -> tuple:
    """Discrete analogue of the harmonic orthogonal decomposition: the joint
    block-diagonal form on stacked per-mode trials equals the sum of the
    per-mode values. trials maps lambda -> {field: full-grid values}.
    Returns (joint, sum_of_modes)."""
    total = 0.0
    joint = 0.0
    for lam, tr in trials.items():
        blk = mode_block(profile, W, Wt, eps, eta, lam)
        F = len(blk.fields)
        m = blk.size // F
        x = np.zeros(blk.size)
        for i, name in enumerate(blk.fields):
            x[i::F] = np.asarray(tr[name])[1:1 + m]
        joint += float(sym_matvec(blk.A, x) @ x)
        total += mode_form_value(profile, W, Wt, eps, eta, lam, tr)
    return joint, total
