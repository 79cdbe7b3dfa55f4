import json
import math

import numpy as np
import pytest

from vortexlab import (ConvergenceError, ExtendedProfile, InconsistentError,
                       InputError, NoEscapingRegionError, OutOfRangeError,
                       Potential, SolverOptions, classify_point, eta0,
                       make_grid, solve_extended_profile, solve_gl_profile,
                       sweep)

QUAD = Potential.quadratic()
LIN = Potential.linear()


def test_eta0_matches_eigenvalue(eps0_n3, grid_n3):
    eps = eps0_n3 / 2
    val = eta0(3, QUAD, LIN, eps, grid=grid_n3)
    from vortexlab import gl_linearization_eigenvalue
    ell, _, _ = gl_linearization_eigenvalue(3, QUAD, eps, grid_n3)
    assert ell < 0
    assert abs(val - math.sqrt(LIN.eval(0.0, 1) / abs(ell))) < 1e-12


def test_eta0_diverges_at_threshold(eps0_n3, grid_n3):
    vals = [eta0(3, QUAD, LIN, eps0_n3 - 10.0 ** (-k), grid=grid_n3)
            for k in (3, 5, 7)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 1e2


def test_eta0_out_of_range(eps0_n3, grid_n3):
    with pytest.raises(OutOfRangeError):
        eta0(3, QUAD, LIN, 2 * eps0_n3, grid=grid_n3)


def test_eta0_no_escaping_region(grid_n7):
    with pytest.raises(NoEscapingRegionError):
        eta0(7, QUAD, LIN, 0.5, grid=grid_n7)


def test_eta0_quadratic_penalty_vanishes(eps0_n3, grid_n3):
    # a penalty with zero slope at the origin never blocks escape
    assert eta0(3, QUAD, Potential.quadratic(), eps0_n3 / 2,
                grid=grid_n3) == 0.0


def test_classify_escaping_point(escaping_point, grid_n3):
    eps, eta, _ = escaping_point
    pt = classify_point(3, QUAD, LIN, eps, eta, grid=grid_n3, confirm=True)
    assert pt.cls == "Escaping"
    assert pt.confirmed
    assert pt.criterion < 0


def test_classify_non_escaping_point(grid_n3, eps0_n3):
    pt = classify_point(3, QUAD, LIN, 2 * eps0_n3, 0.5, grid=grid_n3,
                        confirm=True)
    assert pt.cls == "NonEscaping"
    assert pt.criterion > 0


def test_classify_high_dimension(grid_n7):
    pt = classify_point(7, QUAD, LIN, 0.4, 2.0, grid=grid_n7, confirm=True)
    assert pt.cls == "NonEscaping"


def test_classify_boundary_band(escaping_point, grid_n3):
    eps, _, eta_star = escaping_point
    pt = classify_point(3, QUAD, LIN, eps, eta_star, grid=grid_n3)
    assert pt.cls == "Boundary"


def test_sweep_structure_and_row_transitions(eps0_n3):
    grid = make_grid(3, 800, {"graded": 2.0})
    diagram = sweep(3, QUAD, LIN, (0.05, 0.4), (0.1, 1.2), (6, 6),
                    confirm_fraction=1.0, grid=grid, seed=1)
    assert diagram.eps0 is not None
    assert abs(diagram.eps0 - eps0_n3) < 1e-3
    # within each eps-column below threshold, class flips once in eta
    for i, eps in enumerate(diagram.eps_samples):
        classes = [diagram.points[i][j].cls
                   for j in range(len(diagram.eta_samples))]
        kinds = [c for c in classes if c != "Boundary"]
        flips = sum(a != b for a, b in zip(kinds, kinds[1:]))
        assert flips <= 1
    csv = diagram.to_csv()
    header, *rows = csv.splitlines()
    assert header == "eps,eta,class,criterion"
    assert len(rows) == 36
    svg = diagram.to_svg()
    assert svg.startswith("<svg") and "hatch" in svg
    assert "date" not in svg and "time" not in svg


def test_sweep_jobs_and_seed_deterministic():
    grid = make_grid(3, 600, {"graded": 2.0})
    kw = dict(confirm_fraction=0.4, grid=grid, seed=9)
    a = sweep(3, QUAD, LIN, (0.05, 0.3), (0.2, 1.0), (4, 4), jobs=1, **kw)
    b = sweep(3, QUAD, LIN, (0.05, 0.3), (0.2, 1.0), (4, 4), jobs=3, **kw)
    assert a.to_csv() == b.to_csv()
    conf_a = [(i, j) for i, row in enumerate(a.points)
              for j, pt in enumerate(row) if pt.confirmed]
    conf_b = [(i, j) for i, row in enumerate(b.points)
              for j, pt in enumerate(row) if pt.confirmed]
    assert conf_a == conf_b and conf_a


def test_sweep_solves_on_callers_grid():
    # halving r_min gives a grid that make_grid cannot rebuild from its spec
    from vortexlab import gl_linearization_eigenvalue
    grid = make_grid(3, 400, {"graded": 2.0}).halve_rmin()
    kw = dict(confirm_fraction=0.5, grid=grid, seed=2)
    one = sweep(3, QUAD, LIN, (0.1, 0.3), (0.5, 1.0), (2, 2), jobs=1, **kw)
    two = sweep(3, QUAD, LIN, (0.1, 0.3), (0.5, 1.0), (2, 2), jobs=2, **kw)
    assert one.to_csv() == two.to_csv()
    ell = gl_linearization_eigenvalue(3, QUAD, 0.1, grid)[0]
    assert one.points[0][0].ell == ell


@pytest.mark.xfail(strict=True, raises=InconsistentError,
                   reason="ROADMAP open item 1: Newton stops on an absolute "
                          "residual, leaving max g just over ESCAPE_TOL at a "
                          "point whose criterion is +3.1")
def test_confirmed_column_on_default_grid():
    # the README lattice's failing column (--confirm 1.0, n=2000)
    sweep(3, QUAD, LIN, (0.11315789473684211, 0.5), (0.1, 1.0), (1, 20),
          confirm_fraction=1.0, grid=make_grid(3, 2000, {"graded": 2.0}))


def test_sweep_axis_validation():
    with pytest.raises(InputError):
        sweep(3, QUAD, LIN, (0.4, 0.1), (0.1, 1.0), (4, 4))
    with pytest.raises(InputError):
        sweep(3, QUAD, LIN, (0.1, 0.4), (0.1, 1.0), (4, 4),
              confirm_fraction=1.5)


def test_sweep_open_axis_at_zero():
    grid = make_grid(3, 400, {"graded": 2.0})
    d = sweep(3, QUAD, LIN, (0.0, 0.2), (0.0, 0.5), (3, 3), grid=grid)
    assert d.eps_samples[0] > 0
    assert d.eta_samples[0] > 0


# the walk down each column: N=3, n=600; eps=0.1 crosses eta* ~ 0.29 inside
# the eta window, eps=0.3 lies above eps0 (ell > 0, no escaping point)
WALK_GRID = make_grid(3, 600, {"graded": 2.0})
WALK_LATTICE = ((0.1, 0.3), (0.15, 1.2), (2, 8))


def _record_solves(monkeypatch):
    """Profiles the sweep's solves return, keyed by (eps, eta)."""
    from vortexlab import phase
    seen = {}
    real = phase.solve_extended_profile

    def recording(N, W, Wt, eps, eta, grid, **kw):
        prof = real(N, W, Wt, eps, eta, grid, **kw)
        seen[(eps, float(eta))] = prof
        return prof

    monkeypatch.setattr(phase, "solve_extended_profile", recording)
    return seen


@pytest.mark.parametrize("fraction,seed", [(1.0, 0), (0.4, 3)])
def test_walk_matches_cold_solves(monkeypatch, fraction, seed):
    # Newton stops at a residual below tol, and near eta* the Jacobian is
    # nearly singular: at the default tol=1e-10 a walk and a cold solve of
    # the same point differ by up to 1.1e-7 in g (eta=0.3, 5% above eta*),
    # whichever path converged deeper. A tighter tol makes both land on the
    # discrete solution, so that 1e-8 tests the path, not the stopping rule.
    from vortexlab import phase
    opts = SolverOptions(tol=1e-12)
    monkeypatch.setattr(phase, "SolverOptions", lambda: opts)
    seen = _record_solves(monkeypatch)
    d = sweep(3, QUAD, LIN, *WALK_LATTICE, confirm_fraction=fraction,
              grid=WALK_GRID, seed=seed)
    classes = {pt.cls for row in d.points for pt in row}
    assert {"Escaping", "NonEscaping"} <= classes
    assert d.points[1][0].ell > 0
    confirmed = [pt for row in d.points for pt in row if pt.confirmed]
    assert confirmed and any(pt.cls == "Escaping" for pt in confirmed)
    for pt in confirmed:
        cold = solve_extended_profile(3, QUAD, LIN, pt.eps, pt.eta, WALK_GRID,
                                      opts=opts, start=None)
        assert cold.branch == ("escaping" if pt.cls == "Escaping"
                               else "non_escaping")
        walk = seen.get((pt.eps, pt.eta))
        if walk is None:            # inherited below the column's collapse
            assert pt.cls == "NonEscaping"
            continue
        assert walk.branch == cold.branch
        if cold.branch == "escaping":
            assert np.max(np.abs(walk.f - cold.f)) < 1e-8
            assert np.max(np.abs(walk.g - cold.g)) < 1e-8
    # the eps=0.3 column needs one solve, whatever its confirmed points
    assert sum(eps == 0.3 for eps, _ in seen) <= 1


@pytest.mark.parametrize("eta", [0.6, 0.2])       # escaping, non-escaping
def test_start_gl_profile_matches_cold(eta):
    gl = solve_gl_profile(3, QUAD, 0.1, WALK_GRID)
    warm = solve_extended_profile(3, QUAD, LIN, 0.1, eta, WALK_GRID, start=gl)
    cold = solve_extended_profile(3, QUAD, LIN, 0.1, eta, WALK_GRID)
    assert warm.branch == cold.branch
    assert warm.branch == ("escaping" if eta == 0.6 else "non_escaping")
    assert warm.flags == cold.flags
    assert np.array_equal(warm.f, cold.f) and np.array_equal(warm.g, cold.g)
    # no GL continuation stage in the warm trace
    assert not any(t[0].startswith("gl") for t in warm.solver_trace)


def test_warm_start_marches_and_collapses():
    top = solve_extended_profile(3, QUAD, LIN, 0.1, 1.0, WALK_GRID)
    down = solve_extended_profile(3, QUAD, LIN, 0.1, 0.5, WALK_GRID, start=top)
    cold = solve_extended_profile(3, QUAD, LIN, 0.1, 0.5, WALK_GRID)
    assert down.branch == "escaping"
    assert np.max(np.abs(down.g - cold.g)) < 1e-8
    # 1.0 -> 0.5 is two sqrt(2) strides, with no anchor search
    stages = {t[0] for t in down.solver_trace}
    assert stages == {"ext eta=0.707107", "ext eta=0.5"}
    gone = solve_extended_profile(3, QUAD, LIN, 0.1, 0.2, WALK_GRID, start=top)
    assert gone.branch == "non_escaping"
    assert "no_escape_found" in gone.flags
    gl = solve_gl_profile(3, QUAD, 0.1, WALK_GRID)
    assert np.max(np.abs(gone.f - gl.f)) < 1e-9 and not gone.g.any()


def test_start_validation():
    gl = solve_gl_profile(3, QUAD, 0.1, WALK_GRID)
    top = solve_extended_profile(3, QUAD, LIN, 0.1, 1.0, WALK_GRID)
    with pytest.raises(InputError):          # eps differs
        solve_extended_profile(3, QUAD, LIN, 0.2, 1.0, WALK_GRID, start=gl)
    with pytest.raises(InputError):          # start below the target eta
        solve_extended_profile(3, QUAD, LIN, 0.1, 1.5, WALK_GRID, start=top)
    with pytest.raises(InputError):          # grid differs
        solve_extended_profile(3, QUAD, LIN, 0.1, 1.0,
                               make_grid(3, 400, {"graded": 2.0}), start=gl)


def _fail_warm_newton(monkeypatch):
    """Every extended Newton stage of a solve started from an
    ExtendedProfile fails; returns the start type of each solve."""
    from vortexlab import phase, profiles
    kinds, state = [], {"warm": False}
    real_solve, real_newton = phase.solve_extended_profile, profiles._newton

    def solve(*args, start=None, **kw):
        kinds.append(type(start).__name__)
        state["warm"] = isinstance(start, ExtendedProfile)
        try:
            return real_solve(*args, start=start, **kw)
        finally:
            state["warm"] = False

    def newton(assemble, u0, opts, stage, trace):
        if state["warm"] and stage.startswith("ext"):
            trace.append((stage, 0, float("nan"), 0.0))
            raise ConvergenceError(f"forced failure in {stage!r}", trace)
        return real_newton(assemble, u0, opts, stage, trace)

    monkeypatch.setattr(phase, "solve_extended_profile", solve)
    monkeypatch.setattr(profiles, "_newton", newton)
    return kinds


def test_warm_failure_raises_not_collapses(monkeypatch):
    top = solve_extended_profile(3, QUAD, LIN, 0.1, 1.0, WALK_GRID)
    _fail_warm_newton(monkeypatch)
    from vortexlab import phase
    with pytest.raises(ConvergenceError):
        phase.solve_extended_profile(3, QUAD, LIN, 0.1, 0.6, WALK_GRID,
                                     start=top)


def test_warm_failure_redone_cold(monkeypatch):
    ref = sweep(3, QUAD, LIN, *WALK_LATTICE, confirm_fraction=1.0,
                grid=WALK_GRID)
    kinds = _fail_warm_newton(monkeypatch)
    d = sweep(3, QUAD, LIN, *WALK_LATTICE, confirm_fraction=1.0,
              grid=WALK_GRID)
    # every warm solve failed and was redone from the column's GL profile,
    # which decided the point: same classes, every point still confirmed
    assert d.to_csv() == ref.to_csv()
    assert all(pt.confirmed for row in d.points for pt in row
               if pt.cls != "Boundary")
    warm = kinds.count("ExtendedProfile")
    assert warm > 0
    assert kinds.count("GLProfile") == warm + 2      # + each column's top
    for a, b in zip(kinds, kinds[1:]):
        if a == "ExtendedProfile":
            assert b == "GLProfile"


def test_escaping_class_below_collapse_is_inconsistent(monkeypatch):
    # eps=0.3 has no escaping point; relabel the lowest eta Escaping, so the
    # walk's collapse at the top contradicts it through the up-set property
    from vortexlab import phase
    real = phase._classify

    def relabel(ell, wt0, eta, *args):
        cls, crit = real(ell, wt0, eta, *args)
        return ("Escaping" if eta < 0.2 else cls), crit

    monkeypatch.setattr(phase, "_classify", relabel)
    with pytest.raises(InconsistentError, match=r"collapsed at eta=1\.2"):
        sweep(3, QUAD, LIN, (0.3, 0.31), (0.15, 1.2), (1, 8),
              confirm_fraction=1.0, grid=WALK_GRID)
