"""Second-variation analysis of the radial profiles.

Perturbations decompose over sphere harmonics; each harmonic level lambda =
k(k+N-2) yields an independent radial block coupling an amplitude field s, a
tangential field psi (absent at lambda = 0), and — in the extended model — a
transverse field q. The GL blocks are the two-field blocks at g ≡ 0 without
q. Each block is a spectral.RadialPencil, Dirichlet at r_min and 1 (the
admissible perturbations vanish near the origin puncture and on the sphere),
so sector identities (the decoupled q-sector against the scalar
linearization) hold at the discrete level. Verdicts are only reported after
an r_min-refinement stability check.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .banded import sym_matvec
from .core import (ConvergenceError, InputError, Potential, RadialGrid,
                   csv_rows, make_grid)
from .profiles import (ExtendedProfile, GLProfile, SolverOptions,
                       SphereProfile)
from .spectral import (RadialPencil, gl_linearization_eigenvalue,
                       pencil_smallest)

_CONVERGED_RESIDUAL = 1e-6
MAX_LEVELS = 1000     # block solves one report may take, 12 ms each at n=2000


def _top_level(N: int, lam: float) -> int:
    """The largest k with k(k+N-2) <= lam (finite, >= 0), in exact integer
    arithmetic: the root of k^2 + (N-2) k - floor(lam), rounded down."""
    return (math.isqrt((N - 2) ** 2 + 4 * math.floor(lam)) - (N - 2)) // 2


def _angular_check(N: int, lam: float) -> None:
    k = _top_level(N, lam) if 0 <= lam < math.inf else -1
    if k < 0 or float(k * (k + N - 2)) != lam:
        raise InputError(
            f"lambda={lam} is not a sphere-Laplacian eigenvalue k(k+N-2)")


def sphere_eigenvalues(N: int, lam_max: float) -> list[float]:
    """Angular eigenvalues k(k+N-2) up to lam_max, k = 0, 1, 2, ...;
    InputError for more than MAX_LEVELS of them."""
    if not (math.isfinite(lam_max) and lam_max >= 0):
        raise InputError(f"lambda_max must be finite and >= 0, got {lam_max}")
    levels = _top_level(N, lam_max) + 1
    if levels > MAX_LEVELS:
        raise InputError(
            f"--lambda-max {lam_max:g} spans {levels:.3g} harmonic levels "
            f"k(k+N-2), each a block solve; at most {MAX_LEVELS} are solved")
    return [float(k * (k + N - 2)) for k in range(levels)]


# ---------------------------------------------------------------------------
# term lists: one shared description drives the banded assembly, the direct
# form evaluation, and sector extraction


_FORM_PARAMS = (("well", Potential.from_spec),
                ("penalty", Potential.from_spec), ("eps", float), ("eta", float))


def _form_params(profile, W, Wt, eps, eta) -> tuple:
    """(W, Wt, eps, eta) of the profile's second variation: each the
    caller's where given, else the profile's own; None where the model has
    no such parameter."""
    params = getattr(profile, "params", ())
    return tuple(
        None if name not in params
        else parse(given if given is not None else getattr(profile, name))
        for (name, parse), given in zip(_FORM_PARAMS, (W, Wt, eps, eta)))


def _profile_terms(profile, W, Wt, eps, eta, lam):
    """Fields, per-field weights and zero-order coefficient functions of the
    lambda-mode quadratic form for the given background profile. One list
    serves both amplitude models: the GL terms are the two-field terms at
    g ≡ 0 with the q field and its terms left out.

    zero terms are (field_a, field_b, node values, radial shift): a == b adds
    values*a^2, a != b adds values*a*b to the integrand (against r^(N-1+shift)).
    """
    grid = profile.grid
    N = grid.N
    one = np.ones(grid.n)
    W, Wt, eps, eta = _form_params(profile, W, Wt, eps, eta)

    if isinstance(profile, SphereProfile):
        th = profile.theta
        c2 = np.cos(th) ** 2
        s2 = 1.0 - c2
        wtp = Wt.eval(c2, 1)
        wtpp = Wt.eval(c2, 2)
        dth = grid.node_gradient(th)
        fields = ("p",) if lam == 0 else ("p", "psi")
        weights = {"p": 1.0, "psi": lam}
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
        return fields, weights, terms

    # the amplitude models: GL is the two-field model at g ≡ 0 without q
    if not isinstance(profile, (GLProfile, ExtendedProfile)):
        raise InputError(f"unsupported profile type {type(profile).__name__}")
    two_field = isinstance(profile, ExtendedProfile)
    f = profile.f
    g = profile.g if two_field else 0.0
    X = 1.0 - f ** 2 - g ** 2
    wp = W.eval(X, 1)
    wpp = W.eval(X, 2)
    fields = ("s",) if lam == 0 else ("s", "psi")
    weights = {"s": 1.0, "psi": lam, "q": 1.0}
    terms = [
        ("s", "s", (lam + N - 1) * one, -2),
        ("s", "s", (-wp + 2.0 * wpp * f ** 2) / eps ** 2, 0),
    ]
    if two_field:
        fields += ("q",)
        g2 = g ** 2
        wtp = Wt.eval(g2, 1)
        wtpp = Wt.eval(g2, 2)
        terms += [
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
    # GL has no q: its angular term goes
    return fields, weights, [t for t in terms if t[0] in fields]


def mode_block(profile, W, Wt, eps, eta, lam) -> RadialPencil:
    """Assemble the banded pencil of one harmonic level around a converged
    profile (see module docstring for conventions)."""
    grid = profile.grid
    _angular_check(grid.N, lam)
    if profile.residual_norm > _CONVERGED_RESIDUAL:
        raise InputError(
            f"profile residual {profile.residual_norm:.3e} too large: "
            "the second variation is only meaningful at a critical point")
    fields, weights, terms = _profile_terms(profile, W, Wt, eps, eta, lam)
    return RadialPencil(grid, fields, weights, tuple(terms), float(lam))


def mode_form_value(profile, W, Wt, eps, eta, lam, trial: dict) -> float:
    """Direct evaluation of the lambda-mode quadratic form on full-grid trial
    fields (zero at r_min and 1): flux sums over face_coeffs plus
    RadialGrid.p1_form contractions, mode_block's two integration rules
    without its matrix plumbing."""
    grid = profile.grid
    _angular_check(grid.N, lam)
    fields, weights, terms = _profile_terms(profile, W, Wt, eps, eta, lam)
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
        total += weights[name] * float(c @ np.diff(proj[name]) ** 2)
    for (a, b, vals, shift) in terms:
        total += grid.p1_form(vals, proj[a], proj[b], shift)
    return total


def mode_min_eigenvalue(block: RadialPencil) -> float:
    """Smallest generalized eigenvalue of the block pencil."""
    return pencil_smallest(block.A, block.M, block.cold_start())[0]


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
    W, Wt, eps, eta = _form_params(profile, W, Wt, eps, eta)
    grid = profile.grid
    direct = mode_form_value(profile, W, Wt, eps, eta, 0.0, trial)
    s = np.array(trial["s"], dtype=float)
    q = np.array(trial["q"], dtype=float)
    s[0] = s[-1] = q[0] = q[-1] = 0.0

    f, g = profile.f, profile.g
    if np.any(g[:-1] <= 0):
        raise InputError("factored form divides by g: g must be positive "
                         "inside")
    w = np.zeros_like(q)
    u = s / f
    w[:-1] = q[:-1] / g[:-1]
    # g(1) = 0 exactly; the trial vanishes there too, so extend w by its
    # derivative ratio (both orders of the 0/0 limit)
    w[-1] = (grid.node_gradient(q)[-1] / grid.node_gradient(g)[-1])
    X = 1.0 - f ** 2 - g ** 2
    wpp = W.eval(X, 2)
    wtpp = Wt.eval(g ** 2, 2)
    c = grid.face_coeffs(grid.N - 1)
    fm, gm = 0.5 * (f[:-1] + f[1:]), 0.5 * (g[:-1] + g[1:])  # face values
    factored = (float(fm ** 2 * c @ np.diff(u) ** 2)
                + float(gm ** 2 * c @ np.diff(w) ** 2))
    fsgq = f * s + g * q
    factored += grid.p1_form(2.0 * wpp / eps ** 2, fsgq, fsgq)
    factored += grid.p1_form(2.0 * wtpp * g ** 2 / eta ** 2, q, q)
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
    if not eta > 0:
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
        grid = make_grid(N, 4000, {"graded": 2.0})
    r = grid.nodes
    q = np.zeros(grid.n)
    inside = (r > b) & (r < a)
    q[inside] = np.sin(math.pi * np.log(r[inside] / b) / L) \
        * r[inside] ** (-(N - 2) / 2.0)
    # the sphere model's lambda = 0 block at the equator theta = pi/2
    block = RadialPencil(grid, ("q",), {"q": 1.0},
                         (("q", "q", -(N - 1.0), -2),
                          ("q", "q", wt0 / eta ** 2, 0)), 0.0)
    x = block.interior({"q": q})
    discrete = float(sym_matvec(block.A, x) @ x)
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
        names = sorted(k for k in self.kernel if k != "__r__")
        return ("r," + ",".join(names) + "\n"
                + csv_rows(self.kernel["__r__"],
                           *(self.kernel[n] for n in names)))


def spectrum_summary(profile, W, Wt, eps, eta,
                     lam_max: float | None = None,
                     opts: SolverOptions = SolverOptions()) -> StabilityReport:
    """Smallest eigenvalue of every harmonic block up to max(lam_max, N-1)
    (lam_max finite and >= 0, else InputError; default N-1), with the
    divergence-free certificate, an r_min-refinement stability check, and
    the verdict {PositiveDefinite, Kernel(dim), Indefinite}. The amplitude
    models' linearization eigenvalue ell solves its GL profile with opts.

    The verdict and kernel_dim read only lambda = 0 and lambda = N-1 (k = 0
    and 1), which decide them for every harmonic. With phi = sqrt(lambda)
    psi, the lambda-dependent part of each block is C(lambda) ⊗ M_-2 on
    (s, phi) (sphere: (p, phi)), plus lambda q^2/r^2 for the two-field
    model; M_-2 is the positive definite r^-2-weighted mass, and
    C(lambda) = [[lambda+N-1, -2 sqrt(lambda) c], [-2 sqrt(lambda) c,
    lambda-N+3]] with c = 1, or cos(theta) for the sphere. The rest, phi's
    mass included, is free of lambda. C(lambda') - C(lambda) has
    eigenvalues >= (sqrt(lambda') - sqrt(lambda))(sqrt(lambda') +
    sqrt(lambda) - 2|c|) >= 0 for lambda' > lambda >= 1, so by
    Courant-Fischer the smallest eigenvalue does not decrease from N-1 on.
    The blocks stay in psi: a diagonal congruence, the same eigenvalues.

    The refinement check solves each block again as RadialPencil.refined
    (one more node next to the origin), from the block's certified
    eigenvector prolonged by RadialGrid.onto_halved, certified by inertia."""
    grid = profile.grid
    N = grid.N
    lams = sphere_eigenvalues(N, N - 1.0 if lam_max is None else lam_max)
    if len(lams) < 2:
        lams.append(N - 1.0)

    ell = None
    Wv, _, epsv, _ = _form_params(profile, W, Wt, eps, eta)
    if epsv is not None:            # the amplitude models
        ell, _, _ = gl_linearization_eigenvalue(N, Wv, epsv, grid, opts)
    band = 1e-4 * (1.0 + (abs(ell) if ell is not None else 0.0))

    mins, shifts, vectors = [], [], []

    def sign_class(v):
        return -1 if v < -band else (1 if v > band else 0)

    for lam in lams:
        blk = mode_block(profile, W, Wt, eps, eta, lam)
        val, x, _, _ = pencil_smallest(blk.A, blk.M, blk.cold_start())
        efun = blk.embed(x)
        rblk = blk.refined()
        # the refined pencil is this one plus a node at r_min/2: start it
        # from x, whose fields are 0 at the old r_min node, now interior
        x0 = rblk.interior({k: RadialGrid.onto_halved(u)
                            for k, u in efun.items()})
        rval = pencil_smallest(rblk.A, rblk.M, x0)[0]
        mins.append(val)
        shifts.append(rval - val)
        vectors.append(efun)
        # the verdict may not depend on the origin cutoff: extrapolate the
        # halving shift (x4 covers slow, even logarithmic, relaxation) and
        # demand the sign classification survive it
        if sign_class(val) != sign_class(val + 4.0 * (rval - val)):
            raise ConvergenceError(
                f"r_min refinement moved the lambda={lam} eigenvalue by "
                f"{rval - val:.3e}, enough to change its sign class; refine "
                "the grid before trusting the verdict",
                [("lam", lam), ("min", val), ("refined", rval)])

    if isinstance(profile, (GLProfile, ExtendedProfile)):
        monotone_ok = bool(np.all(np.diff(profile.f) > -1e-12))
    else:
        monotone_ok = bool(np.all(np.diff(np.sin(profile.theta)) > -1e-9))
    cert = divfree_certificate(N, -(N - 2) / 2.0) and monotone_ok

    # lams[:2] are lambda = 0 and N-1, which decide for every harmonic
    kernel_idx = [i for i, v in enumerate(mins[:2]) if abs(v) <= band]
    kernel, kdim = None, 0
    if min(mins[:2]) < -band:
        verdict = "Indefinite"
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
        x = blk.interior(tr)
        joint += float(sym_matvec(blk.A, x) @ x)
        total += mode_form_value(profile, W, Wt, eps, eta, lam, tr)
    return joint, total
