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
from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_GRID, ConvergenceError, InconsistentError,
                   InputError, NoEscapingRegionError, OutOfRangeError,
                   Potential, RadialGrid, csv_rows, make_grid, map_jobs)
from .profiles import (PREDICTOR_POINTS, SolverOptions, _check_scale,
                       solve_extended_profile)
from .spectral import (ell_never_negative, find_epsilon0,
                       gl_linearization_eigenvalue)

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
        pts = [pt for row in self.points for pt in row]
        return "eps,eta,class,criterion\n" + csv_rows(
            [pt.eps for pt in pts], [pt.eta for pt in pts],
            [pt.cls for pt in pts], [pt.criterion for pt in pts])

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


def _classify(ell: float, wt0: float, eta: float) -> tuple[str, float]:
    crit = ell + wt0 / eta ** 2
    if abs(crit) < BOUNDARY_BAND * (1.0 + abs(ell)):
        return "Boundary", crit
    return ("Escaping" if crit < 0 else "NonEscaping"), crit


def _disagreement(eps, eta, cls, crit, ell, found: str) -> InconsistentError:
    return InconsistentError(
        f"criterion/solver disagreement at eps={eps}, eta={eta}: "
        f"criterion={crit:.6e} (ell={ell:.6e}) classifies {cls}, {found}")


def _confirm_against_solver(N, W, Wt, eps, eta, cls, crit, ell, grid, opts,
                            gl, pair, path=()):
    """Escaping-branch solve that must agree with the criterion sign.

    path holds the column's last escaping profiles, oldest first: the solve
    marches warm from path[-1], and the earlier ones feed its predictor.
    Without a path, or when a warm solve's Newton fails (a failure is not a
    collapse), the point is solved cold from the GL profile gl, with
    solve_extended_profile's two seeds at this eta; pair, the ground state
    ell came from, is the second seed. The solver never reads the
    criterion, so agreement is an independent check. Returns the
    profile."""
    def solve(start, **kw):
        return solve_extended_profile(N, W, Wt, eps, eta, grid,
                                      branch_hint="escaping", opts=opts,
                                      start=start, **kw)
    prof = None
    if path:
        try:
            prof = solve(path[-1], history=path[:-1])
        except ConvergenceError:
            pass
    if prof is None:
        prof = solve(gl, ground_state=pair)
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
    reason = ell_never_negative(N, W)
    if reason:
        raise NoEscapingRegionError(f"no escaping region: {reason}")
    _check_scale("eps", eps)
    if grid is None:
        grid = make_grid(N, **DEFAULT_GRID)
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
    cross-check against the nonlinear escaping-branch solver.

    The point is a one-point column of sweep: the same solves, and the same
    PhasePoint as that point of a sweep over one column."""
    W = Potential.from_spec(W)
    Wt = Potential.from_spec(Wt)
    _check_scale("eps", eps)
    _check_scale("eta", eta)
    if grid is None:
        grid = make_grid(N, **DEFAULT_GRID)
    return _column(N, W, Wt, float(eps), [eta], grid,
                   {0} if confirm else set(), opts)[1][0]


def axis_samples(rng, count) -> np.ndarray:
    """count samples of the range (lo, hi); lo == 0 starts one step in (the
    axes are open at 0)."""
    lo, hi = float(rng[0]), float(rng[1])
    if not 0 <= lo < hi:            # NaN fails this test too
        raise InputError("range must satisfy 0 <= lo < hi")
    if hi == math.inf:
        raise InputError("range must be finite")
    if count < 1:
        raise InputError("resolution must be at least 1")
    if lo == 0.0:
        return np.linspace(lo, hi, count + 1)[1:]    # open at 0
    return np.linspace(lo, hi, count)


def _column(N, W, Wt, eps, etas, grid, confirm_js, opts):
    """(ell, PhasePoints) of the column at eps, over the ascending etas,
    with the points at the indices confirm_js cross-checked by the solver
    (see sweep)."""
    ell, pair, gl = gl_linearization_eigenvalue(N, W, eps, grid, opts)
    wt0 = Wt.eval(0.0, 1)
    classes = [_classify(ell, wt0, eta_j) for eta_j in etas]
    confirmed = set()
    path, collapsed_at = (), None
    # etas ascend: walk the confirmed points down in eta, each solve
    # predicted from the last escaping profiles
    for j in sorted(confirm_js, reverse=True):
        cls, crit = classes[j]
        if cls == "Boundary":
            continue
        if collapsed_at is None:
            prof = _confirm_against_solver(N, W, Wt, eps, etas[j], cls, crit,
                                           ell, grid, opts, gl, pair, path)
            if prof.branch == "escaping":
                path = (*path, prof)[-PREDICTOR_POINTS:]
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


def sweep(N: int, W, Wt, eps_range, eta_range, resolution: tuple[int, int],
          confirm_fraction: float = 0.0, grid: RadialGrid | None = None,
          jobs: int = 1, seed: int = 0,
          opts: SolverOptions = SolverOptions()) -> PhaseDiagram:
    """Classify the lattice of resolution = (n_eps, n_eta) points spanning
    eps_range x eta_range (axis_samples on each), every profile solved with
    opts.

    The eigenvalue is computed once per eps-column and reused across the
    eta-row. A seeded random confirm_fraction of non-boundary points is
    cross-checked against the nonlinear solver; any disagreement raises
    InconsistentError with full diagnostics (columns merge deterministically
    by index, so jobs > 1 cannot change the result).

    Each column walks its confirmed points down in eta. The first solve
    starts cold from the column's GL profile and takes its second seed
    from the ground state, both the ones behind ell, so that pencil is
    solved once per column. Each later solve marches warm from the
    column's last PREDICTOR_POINTS escaping profiles: the latest is
    solve_extended_profile's start, and all of them feed the extrapolation
    that starts each eta-stride. Once a solve collapses to g ≡ 0, the
    solver has found no escaping solution at that eta, and every lower
    point of the column is confirmed non-escaping without a solve: at fixed
    eps the escaping set is an up-set in eta, so no escaping solution
    exists below a point that has none. A warm solve whose Newton fails is
    redone cold from the GL profile; it never counts as a collapse.
    """
    W = Potential.from_spec(W)
    Wt = Potential.from_spec(Wt)
    if not 0.0 <= confirm_fraction <= 1.0:
        raise InputError("confirm_fraction must lie in [0, 1]")
    if seed < 0:
        raise InputError("seed must be >= 0")
    n_eps, n_eta = int(resolution[0]), int(resolution[1])
    eps_samples = axis_samples(eps_range, n_eps)
    eta_samples = axis_samples(eta_range, n_eta)
    for name, samples in (("eps", eps_samples), ("eta", eta_samples)):
        for value in (samples[0], samples[-1]):     # they ascend
            _check_scale(name, value)
    if grid is None:
        grid = make_grid(N, **DEFAULT_GRID)

    rng = np.random.default_rng(seed)
    mask = rng.random((n_eps, len(eta_samples))) < confirm_fraction
    # the grid itself, not its spec: a spec does not rebuild every grid (a
    # refined r_min, say), and columns must solve on the caller's mesh
    results = map_jobs(_column, [
        (N, W, Wt, float(e), eta_samples, grid,
         set(np.nonzero(mask[i])[0].tolist()), opts)
        for i, e in enumerate(eps_samples)], jobs)

    wt0 = Wt.eval(0.0, 1)
    ells = [r[0] for r in results]
    points = [r[1] for r in results]
    eta0s = [math.sqrt(wt0 / abs(l)) if l < 0 else None for l in ells]

    eps0 = None
    if ell_never_negative(N, W) is None:
        sign_change = [(eps_samples[i], eps_samples[i + 1])
                       for i in range(len(ells) - 1)
                       if ells[i] < 0 <= ells[i + 1]]
        if sign_change:
            # annotation only: a loose tolerance keeps coarse sweep grids
            # from tripping the threshold's refinement acceptance
            eps0 = find_epsilon0(N, W, sign_change[0], tol=1e-6, grid=grid,
                                 opts=opts, samples=zip(eps_samples, ells))

    return PhaseDiagram(N=N, W_spec=W.spec(), Wt_spec=Wt.spec(),
                        eps_samples=eps_samples, eta_samples=eta_samples,
                        points=points, eps0=eps0, eta0_samples=eta0s)
