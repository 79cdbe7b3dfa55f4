"""Escaping/non-escaping phase diagram in the (eps, eta) plane.

A point is classified by the sign of the eigenvalue criterion
ell(eps) + Wt'(0)/eta^2, where ell is the smallest eigenvalue of the
amplitude linearization: negative means the symmetric branch is unstable
against transverse escape and an escaping minimizer exists; positive means
no escaping solution. The criterion is exact (not a heuristic), so the
nonlinear solver is used as cross-confirmation, and any disagreement is a
bug signal that aborts the sweep.
"""
from __future__ import annotations

import io
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (ConvergenceError, InconsistentError, InputError,
                   NoEscapingRegionError, OutOfRangeError, Potential,
                   RadialGrid, format_float, make_grid)
from .profiles import ExtendedProfile, SolverOptions, solve_extended_profile
from .spectral import gl_linearization_eigenvalue

BOUNDARY_BAND = 1e-6      # |criterion| < band*(1+|ell|) -> Boundary


@dataclass(frozen=True)
class PhasePoint:
    eps: float
    eta: float
    cls: str                       # Escaping | NonEscaping | Boundary
    criterion: float               # ell(eps) + Wt'(0)/eta^2
    ell: float
    confirmed: bool = False        # solver agreement was checked and held


@dataclass
class PhaseDiagram:
    N: int
    W_spec: dict
    Wt_spec: dict
    eps_samples: np.ndarray
    eta_samples: np.ndarray
    points: list                   # points[i][j] -> PhasePoint at (eps_i, eta_j)
    eps0: float | None             # threshold, when a sign change is swept
    eta0_samples: list             # per eps: sqrt(Wt'(0)/|ell|) or None

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("eps,eta,class,criterion\n")
        for row in self.points:
            for pt in row:
                buf.write(f"{format_float(pt.eps)},{format_float(pt.eta)},"
                          f"{pt.cls},{format_float(pt.criterion)}\n")
        return buf.getvalue()

    def to_svg(self) -> str:
        """Static region rendering: escaping cells hatched, non-escaping
        plain, boundary shaded. Deterministic output (no timestamps)."""
        w, h, margin = 640, 480, 50
        ne, na = len(self.eps_samples), len(self.eta_samples)
        cw = (w - 2 * margin) / ne
        ch = (h - 2 * margin) / na
        out = io.StringIO()
        out.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
                  f'height="{h}" viewBox="0 0 {w} {h}">\n')
        out.write('<defs><pattern id="hatch" width="6" height="6" '
                  'patternUnits="userSpaceOnUse" patternTransform="rotate(45)">'
                  '<line x1="0" y1="0" x2="0" y2="6" stroke="#444" '
                  'stroke-width="1.5"/></pattern></defs>\n')
        out.write(f'<rect x="{margin}" y="{margin}" width="{w - 2 * margin}" '
                  f'height="{h - 2 * margin}" fill="white" stroke="black"/>\n')
        for i, row in enumerate(self.points):
            for j, pt in enumerate(row):
                x = margin + i * cw
                y = h - margin - (j + 1) * ch
                if pt.cls == "Escaping":
                    fill = "url(#hatch)"
                elif pt.cls == "Boundary":
                    fill = "#bbbbbb"
                else:
                    continue                    # non-escaping: plain
                out.write(f'<rect x="{x:.2f}" y="{y:.2f}" width="{cw:.2f}" '
                          f'height="{ch:.2f}" fill="{fill}" '
                          'stroke="none"/>\n')
        ex0, ex1 = self.eps_samples[0], self.eps_samples[-1]
        ey0, ey1 = self.eta_samples[0], self.eta_samples[-1]
        out.write(f'<text x="{w / 2:.0f}" y="{h - 12}" text-anchor="middle" '
                  'font-size="14">eps</text>\n')
        out.write(f'<text x="14" y="{h / 2:.0f}" text-anchor="middle" '
                  f'font-size="14" transform="rotate(-90 14 {h / 2:.0f})">'
                  'eta</text>\n')
        for (val, x) in ((ex0, margin), (ex1, w - margin)):
            out.write(f'<text x="{x}" y="{h - margin + 18}" '
                      f'text-anchor="middle" font-size="11">{val:.3g}'
                      '</text>\n')
        for (val, y) in ((ey0, h - margin), (ey1, margin)):
            out.write(f'<text x="{margin - 6}" y="{y + 4}" '
                      f'text-anchor="end" font-size="11">{val:.3g}'
                      '</text>\n')
        out.write('</svg>\n')
        return out.getvalue()


def _classify(ell: float, wt0: float, eta: float,
              band: float = BOUNDARY_BAND) -> tuple[str, float]:
    crit = ell + wt0 / eta ** 2
    if abs(crit) < band * (1.0 + abs(ell)):
        return "Boundary", crit
    return ("Escaping" if crit < 0 else "NonEscaping"), crit


def _disagreement(eps, eta, cls, crit, ell, found: str) -> InconsistentError:
    return InconsistentError(
        f"criterion/solver disagreement at eps={eps}, eta={eta}: "
        f"criterion={crit:.6e} (ell={ell:.6e}) classifies {cls}, {found}")


def _confirm_against_solver(N, W, Wt, eps, eta, cls, crit, ell, grid, opts,
                            start=None, gl=None):
    """Escaping-branch solve from start must agree with the criterion sign.

    A warm solve (start an ExtendedProfile) whose Newton fails is redone
    from the GL profile gl with the anchor search: a failure is not a
    collapse. Returns the profile."""
    try:
        prof = solve_extended_profile(N, W, Wt, eps, eta, grid,
                                      branch_hint="escaping", opts=opts,
                                      start=start)
    except ConvergenceError:
        if not isinstance(start, ExtendedProfile):
            raise
        prof = solve_extended_profile(N, W, Wt, eps, eta, grid,
                                      branch_hint="escaping", opts=opts,
                                      start=gl)
    if (prof.branch == "escaping") != (cls == "Escaping"):
        gmax = float(np.max(np.abs(prof.g)))
        raise _disagreement(eps, eta, cls, crit, ell,
                            f"solver found branch={prof.branch!r} (max |g| = "
                            f"{gmax:.3e}, flags={prof.flags})")
    return prof


def eta0(N: int, W, Wt, eps: float, grid: RadialGrid | None = None,
         opts: SolverOptions = SolverOptions()) -> float:
    """Critical transverse stiffness: sqrt(Wt'(0)/|ell(eps)|).

    Above it the escaping branch exists; below it the symmetric branch is
    the minimizer. Requires the coupling to actually destabilize, i.e.
    ell(eps) < 0.
    """
    W = Potential.from_spec(W)
    Wt = Potential.from_spec(Wt)
    if N >= 7:
        raise NoEscapingRegionError(
            "no escaping region: the linearization eigenvalue is positive "
            "for every eps when N >= 7")
    if W.eval(1.0, 1) <= 0.0:
        raise NoEscapingRegionError(
            "no escaping region: the well has zero slope at full depletion, "
            "so the linearization eigenvalue is positive for every eps")
    if eps <= 0:
        raise InputError("eps must be positive")
    if grid is None:
        grid = make_grid(N, 2000, {"graded": 2.0})
    ell, _, _ = gl_linearization_eigenvalue(N, W, eps, grid, opts)
    if ell >= 0:
        raise OutOfRangeError(
            f"eps={eps} is at or above the threshold: linearization "
            f"eigenvalue {ell:.6e} >= 0, so there is no escaping eta range")
    return math.sqrt(Wt.eval(0.0, 1) / abs(ell))


def classify_point(N: int, W, Wt, eps: float, eta: float,
                   grid: RadialGrid | None = None, confirm: bool = False,
                   opts: SolverOptions = SolverOptions()) -> PhasePoint:
    """Classify one (eps, eta) point by the eigenvalue criterion; optionally
    cross-check against the nonlinear escaping-branch solver."""
    W = Potential.from_spec(W)
    Wt = Potential.from_spec(Wt)
    if eps <= 0 or eta <= 0:
        raise InputError("eps and eta must be positive")
    if grid is None:
        grid = make_grid(N, 2000, {"graded": 2.0})
    ell, _, _ = gl_linearization_eigenvalue(N, W, eps, grid, opts)
    cls, crit = _classify(ell, Wt.eval(0.0, 1), eta)
    confirmed = False
    if confirm and cls != "Boundary":
        _confirm_against_solver(N, W, Wt, eps, eta, cls, crit, ell, grid,
                                opts)
        confirmed = True
    return PhasePoint(eps=eps, eta=eta, cls=cls, criterion=crit, ell=ell,
                      confirmed=confirmed)


def _axis_samples(rng, count) -> np.ndarray:
    lo, hi = float(rng[0]), float(rng[1])
    if hi <= lo or lo < 0:
        raise InputError("range must satisfy 0 <= lo < hi")
    if count < 1:
        raise InputError("resolution must be at least 1")
    if lo == 0.0:
        return np.linspace(lo, hi, count + 1)[1:]    # open at 0
    return np.linspace(lo, hi, count)


def _column_worker(payload):
    (N, wspec, wtspec, eps, etas, grid, confirm_js) = payload
    W = Potential.from_spec(wspec)
    Wt = Potential.from_spec(wtspec)
    opts = SolverOptions()
    ell, _, gl = gl_linearization_eigenvalue(N, W, eps, grid, opts)
    wt0 = Wt.eval(0.0, 1)
    classes = [_classify(ell, wt0, eta_j) for eta_j in etas]
    confirmed = set()
    start, collapsed_at = gl, None
    # etas ascend: walk the confirmed points down in eta, each solve
    # warm-started from the last escaping profile
    for j in sorted(confirm_js, reverse=True):
        cls, crit = classes[j]
        if cls == "Boundary":
            continue
        if collapsed_at is None:
            prof = _confirm_against_solver(N, W, Wt, eps, etas[j], cls, crit,
                                           ell, grid, opts, start, gl)
            if prof.branch == "escaping":
                start = prof
            else:
                collapsed_at = etas[j]
        elif cls == "Escaping":   # below a collapse: the up-set property
            raise _disagreement(eps, etas[j], cls, crit, ell,
                                f"the solver's walk down the column collapsed "
                                f"at eta={collapsed_at}, above this point")
        confirmed.add(j)
    pts = [PhasePoint(eps=float(eps), eta=float(eta_j), cls=cls,
                      criterion=crit, ell=ell, confirmed=j in confirmed)
           for j, (eta_j, (cls, crit)) in enumerate(zip(etas, classes))]
    return ell, pts


def sweep(N: int, W, Wt, eps_range, eta_range, resolution,
          confirm_fraction: float = 0.0, grid: RadialGrid | None = None,
          jobs: int = 1, seed: int = 0) -> PhaseDiagram:
    """Classify a grid of (eps, eta) points.

    The eigenvalue is computed once per eps-column and reused across the
    eta-row. A seeded random confirm_fraction of non-boundary points is
    cross-checked against the nonlinear solver; any disagreement raises
    InconsistentError with full diagnostics (columns merge deterministically
    by index, so jobs > 1 cannot change the result).

    Each column walks its confirmed points down in eta. The first solve
    starts from the column's GL profile (the one behind ell), each later one
    from the last escaping profile (solve_extended_profile's start). Once a
    solve collapses to g ≡ 0, every lower point of the column is confirmed
    non-escaping without a solve: at fixed eps the escaping set is an up-set
    in eta, and the top point's anchor search reaches above any lower
    point's own. A warm solve whose Newton fails is redone from the GL
    profile with the anchor search; it never counts as a collapse.
    """
    W = Potential.from_spec(W)
    Wt = Potential.from_spec(Wt)
    if not 0.0 <= confirm_fraction <= 1.0:
        raise InputError("confirm_fraction must lie in [0, 1]")
    if isinstance(resolution, (tuple, list)):
        n_eps, n_eta = int(resolution[0]), int(resolution[1])
    else:
        n_eps = n_eta = int(resolution)
    eps_samples = _axis_samples(eps_range, n_eps)
    eta_samples = _axis_samples(eta_range, n_eta)
    if grid is None:
        grid = make_grid(N, 2000, {"graded": 2.0})

    rng = np.random.default_rng(seed)
    mask = rng.random((n_eps, len(eta_samples))) < confirm_fraction
    # the grid itself, not its spec: a spec does not rebuild every grid (a
    # refined r_min, say), and columns must solve on the caller's mesh
    payloads = [(N, W.spec(), Wt.spec(), float(e), eta_samples, grid,
                 set(np.nonzero(mask[i])[0].tolist()))
                for i, e in enumerate(eps_samples)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_column_worker, payloads))
    else:
        results = [_column_worker(p) for p in payloads]

    wt0 = Wt.eval(0.0, 1)
    ells = [r[0] for r in results]
    points = [r[1] for r in results]
    eta0s = [math.sqrt(wt0 / abs(l)) if l < 0 else None for l in ells]

    eps0 = None
    if N < 7 and W.eval(1.0, 1) > 0.0:
        sign_change = [(eps_samples[i], eps_samples[i + 1])
                       for i in range(len(ells) - 1)
                       if ells[i] < 0 <= ells[i + 1]]
        if sign_change:
            from .spectral import find_epsilon0
            # annotation only: a loose tolerance keeps coarse sweep grids
            # from tripping the threshold's refinement acceptance
            eps0 = find_epsilon0(N, W, sign_change[0], tol=1e-6, grid=grid)

    return PhaseDiagram(N=N, W_spec=W.spec(), Wt_spec=Wt.spec(),
                        eps_samples=eps_samples, eta_samples=eta_samples,
                        points=points, eps0=eps0, eta0_samples=eta0s)
