import itertools
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexlab import (ConvergenceError, ExtendedProfile, GLProfile,
                       InputError, Potential, SolverOptions, SphereProfile,
                       make_grid, pohozaev_check, profile_from_json,
                       profile_to_csv, profile_to_json, reduced_energy_extended,
                       reduced_energy_gl, reduced_energy_mm, residual,
                       solve_extended_profile, solve_gl_profile,
                       solve_sphere_profile)

from test_banded import _counting_lu
from test_spectral import _dense as _sym_dense

QUAD = Potential.quadratic()
LIN = Potential.linear()


# ---------------------------------------------------------------------------
# amplitude equation


@pytest.mark.parametrize("N", [2, 3, 7])
def test_zero_well_identity_solution(N):
    grid = make_grid(N, 1000, {"graded": 2.0})
    prof = solve_gl_profile(N, Potential.zero(), 1.0, grid)
    assert np.max(np.abs(prof.f - grid.nodes)) < 1e-8


def test_gl_midpoint_oracle(grid_n2):
    # independent shooting oracle (tests/oracle_gen.py), frozen
    prof = solve_gl_profile(2, QUAD, 0.1, grid_n2)
    got = float(np.interp(0.5, grid_n2.nodes, prof.f))
    assert abs(got - 0.976629822907) < 2e-7


def test_gl_profile_shape(grid_n3):
    prof = solve_gl_profile(3, QUAD, 0.25, grid_n3)
    assert prof.f[-1] == 1.0
    assert np.all(prof.f >= -1e-14)
    assert np.all(np.diff(prof.f) > -1e-12)       # nondecreasing
    assert np.all(prof.f <= 1.0 + 1e-12)
    assert prof.residual_norm < 1e-9
    assert residual(prof) < 1e-9


def test_gl_small_eps_continuation(grid_n3):
    prof = solve_gl_profile(3, QUAD, 0.05, grid_n3)
    assert prof.residual_norm < 1e-9
    # sharper interface than eps = 0.25
    assert float(np.interp(0.2, grid_n3.nodes, prof.f)) > 0.9


def test_newton_ends_on_a_correction(grid_n3):
    # every stage ends on one simplified correction, traced as a
    # (stage, norm) pair; a start that already meets tol takes a full step
    p = solve_gl_profile(3, QUAD, 0.2, grid_n3)
    assert [len(t) for t in p.solver_trace][-1] == 2
    again = solve_gl_profile(3, QUAD, 0.2, grid_n3, v_init=p.v)
    assert [len(t) for t in again.solver_trace] == [2]
    assert again.solver_trace[0][0] == "gl eps=0.2"
    assert np.max(np.abs(again.v - p.v)) < 1e-12
    assert residual(again) <= SolverOptions().tol
    with pytest.raises(InputError):
        solve_gl_profile(3, QUAD, 0.2, grid_n3, v_init=p.v[1:])


def test_threads_extend_one_gl_ladder_once():
    # make_grid shares a grid across the process, so threads may cold-solve
    # on one grid at once: the ladder they build together must be the one a
    # single caller builds, rung for rung, and each answer keep its bits
    import sys
    import threading
    from vortexlab.core import _build_grid

    def unshared():
        return _build_grid.__wrapped__(3, 300, "graded", 2.0)

    eps = (0.02, 0.03, 0.015, 0.05) * 2
    serial = unshared()
    ref = {e: solve_gl_profile(3, QUAD, e, serial).v for e in sorted(eps)}

    def ladders(grid):
        return [v for k, v in grid._cache.items()
                if isinstance(k, tuple) and k[0] == "gl_ladder"]
    (mine,) = ladders(serial)
    assert len(mine) == 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            shared = unshared()
            out = {}

            def work(i, e):
                out[i] = solve_gl_profile(3, QUAD, e, shared).v

            threads = [threading.Thread(target=work, args=(i, e))
                       for i, e in enumerate(eps)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert all(np.array_equal(out[i], ref[e])
                       for i, e in enumerate(eps))
            (theirs,) = ladders(shared)
            assert len(theirs) == len(mine)
            assert all(np.array_equal(a, b) for a, b in zip(mine, theirs))
    finally:
        sys.setswitchinterval(interval)


def test_gl_warm_start_matches_cold(grid_n3):
    near = solve_gl_profile(3, QUAD, 0.11, grid_n3)
    warm = solve_gl_profile(3, QUAD, 0.1, grid_n3, v_init=near.v)
    cold = solve_gl_profile(3, QUAD, 0.1, grid_n3)
    assert {t[0] for t in warm.solver_trace} == {"gl eps=0.1"}
    assert np.max(np.abs(warm.v - cold.v)) < 1e-10


def test_gl_energy_zero_well_exact():
    # I[r -> r] with the quadratic well at eps = 1, N = 2:
    # 1/2 int (1 + 1 + (1-r^2)^2/2 r...) -- frozen closed form 0.5 + 1/24
    grid = make_grid(2, 2000, {"graded": 2.0})
    prof = solve_gl_profile(2, Potential.zero(), 1.0, grid)
    val = reduced_energy_gl(prof, QUAD, 1.0)
    assert abs(val - (0.5 + 1.0 / 24.0)) < 1e-6


def _three_term_gl_energy(p, W, eps):
    """The lumped GL energy written out: the face sum of v's gradient term,
    the boundary term v(1)² and the well term."""
    grid = p.grid
    r, v = grid.nodes, p.v
    pot = W.eval(1.0 - r * r * v * v, 0, clamp=True)
    return (0.5 * float(grid.face_coeffs(grid.N + 1) @ np.diff(v)**2)
            + 0.5 * v[-1]**2 + float(grid.hat_weights(0) @ pot) / (2 * eps**2))


def test_gl_energy_is_the_two_field_energy_at_zero_g():
    # reduced_energy_gl is the two-field energy with g = 0 and no penalty;
    # its extra terms are exact zeros, so the bits are the written-out sum's
    for N in (2, 3, 5):
        grid = make_grid(N, 800, {"graded": 2.0})
        for spec in ("quadratic", "flat_well:0.3", "zero"):
            W = Potential.from_spec(spec)
            for eps in (0.05, 0.1, 0.3, 1.0):
                prof = solve_gl_profile(N, W, eps, grid)
                assert (reduced_energy_gl(prof, W, eps)
                        == _three_term_gl_energy(prof, W, eps)), (N, spec, eps)


def test_gl_rejects_bad_input(grid_n3):
    with pytest.raises(InputError):
        solve_gl_profile(3, QUAD, 0.0, grid_n3)
    with pytest.raises(InputError):
        solve_gl_profile(3, QUAD, -1.0, grid_n3)


def test_nan_parameters_rejected():
    # NaN passed the old `eps <= 0` tests and died later in the ladder's
    # indexing or in the banded LU's finiteness check
    grid = make_grid(3, 200, {"graded": 2.0})
    nan = float("nan")
    cases = [
        lambda: solve_gl_profile(3, QUAD, nan, grid),
        lambda: solve_sphere_profile(3, LIN, nan, grid),
        lambda: solve_extended_profile(3, QUAD, LIN, nan, 1.0, grid),
        lambda: solve_extended_profile(3, QUAD, LIN, 0.1, nan, grid),
        lambda: solve_extended_profile(3, QUAD, LIN, 0.1, nan, grid,
                                       branch_hint="non_escaping"),
    ]
    for solve in cases:
        with pytest.raises(InputError, match="must be positive"):
            solve()


def test_solver_options_validation():
    # an infinite tol let Newton stop at its start, and a NaN tol or a
    # max_iter below 1 failed only after the work
    for kw in ({"tol": math.inf}, {"tol": math.nan}, {"tol": 0.0},
               {"tol": -1e-10}, {"max_iter": 0}, {"max_iter": -3}):
        with pytest.raises(InputError):
            SolverOptions(**kw)
    assert SolverOptions(tol=1e-20, max_iter=1).max_iter == 1


def test_scaling_comparison():
    # rescaled profiles are ordered in eps on the common inner range: the
    # larger eps sees the Dirichlet boundary sooner and lies above
    grids = {e: make_grid(3, 2000, {"graded": 2.0}) for e in (0.1, 0.2)}
    profs = {e: solve_gl_profile(3, QUAD, e, g) for e, g in grids.items()}
    s = np.linspace(0.01, 5.0, 400)
    f_small = np.interp(0.1 * s, grids[0.1].nodes, profs[0.1].f)
    f_large = np.interp(0.2 * s, grids[0.2].nodes, profs[0.2].f)
    assert np.min(f_large - f_small) > -1e-6


# ---------------------------------------------------------------------------
# two-field model


def test_extended_escaping_invariants(escaping_profile, grid_n3):
    p = escaping_profile
    assert p.branch == "escaping"
    assert np.max(p.g) > 1e-3
    inner = p.f ** 2 + p.g ** 2
    assert np.all(inner[:-1] < 1.0)
    assert np.all(np.diff(p.f) > -1e-12)
    assert np.all(np.diff(p.g) < 1e-12)
    assert p.g[-1] == 0.0 and p.f[-1] == 1.0
    assert p.residual_norm < 1e-9


def test_extended_energy_gap(escaping_profile, escaping_point, grid_n3):
    eps, eta, _ = escaping_point
    non = solve_extended_profile(3, QUAD, LIN, eps, eta, grid_n3,
                                 branch_hint="non_escaping")
    assert np.max(non.g) == 0.0
    e_esc = reduced_energy_extended(escaping_profile, QUAD, LIN, eps, eta)
    e_non = reduced_energy_extended(non, QUAD, LIN, eps, eta)
    assert e_non - e_esc > 0


def test_extended_no_escape_above_threshold(grid_n3, eps0_n3):
    # above the threshold the escaping seed falls back to the in-plane branch
    prof = solve_extended_profile(3, QUAD, LIN, 2 * eps0_n3, 1.0, grid_n3)
    assert prof.branch == "non_escaping"
    assert "no_escape_found" in prof.flags


# A coarse subset of the agreement lattice N 2-6 x {quadratic, flat_well:0.3}
# x {linear, quadratic} x eps {0.04..0.6} x eta {0.05..3.2}. It holds the two
# flat-well N=4 points whose first seed, g_seed*(1 - r^2), misses the branch
# on this grid, so the second seed (the kernel direction) decides them.
LATTICE_EPS = (0.04, 0.08, 0.3)
LATTICE_ETA = (0.05, 0.4, 3.2)
SECOND_SEED = {(4, "flat_well:0.3", "linear", 0.04, 0.4),
               (4, "flat_well:0.3", "quadratic", 0.08, 0.4)}


def _count_stages(monkeypatch):
    """Extended Newton stages run, and calls of the second seed."""
    from vortexlab import profiles
    seen = {"ext": 0, "kernel": 0}
    newton, kernel = profiles._newton, profiles._kernel_direction

    def counting_newton(assemble, u0, opts, stage, trace):
        seen["ext"] += stage.startswith("ext")
        return newton(assemble, u0, opts, stage, trace)

    def counting_kernel(*args):
        seen["kernel"] += 1
        return kernel(*args)

    monkeypatch.setattr(profiles, "_newton", counting_newton)
    monkeypatch.setattr(profiles, "_kernel_direction", counting_kernel)
    return seen


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_cold_branch_agrees_with_criterion(monkeypatch, N):
    from vortexlab.spectral import gl_linearization_eigenvalue
    grid = make_grid(N, 800, {"graded": 3.0})
    seen = _count_stages(monkeypatch)
    for wspec in ("quadratic", "flat_well:0.3"):
        W = Potential.from_spec(wspec)
        for eps in LATTICE_EPS:
            ell, _, gl = gl_linearization_eigenvalue(N, W, eps, grid)
            for wtspec in ("linear", "quadratic"):
                wt0 = Potential.from_spec(wtspec).eval(0.0, 1)
                for eta in LATTICE_ETA:
                    crit = ell + wt0 / eta ** 2
                    assert abs(crit) > 1e-2 * (1.0 + abs(ell))
                    seen.update(ext=0, kernel=0)
                    p = solve_extended_profile(N, W, wtspec, eps, eta, grid,
                                               start=gl)
                    point = (N, wspec, wtspec, eps, eta)
                    assert p.branch == ("escaping" if crit < 0
                                        else "non_escaping"), point
                    assert p.residual_norm < 1e-9
                    assert p.residual_norm == residual(p), point
                    assert seen["ext"] <= 2
                    if p.branch == "non_escaping":
                        assert p.flags == ("no_escape_found",)
                        assert seen["ext"] == 2 and not p.g.any()
                    else:
                        assert np.min(p.g[:-1]) > 0 and not p.flags
                    assert (seen["kernel"] == 1) == (
                        point in SECOND_SEED or p.branch == "non_escaping")


def _stall_ext(monkeypatch, which):
    """The extended Newton stages numbered in `which` (0, 1) fail."""
    from vortexlab import profiles
    newton, count = profiles._newton, [0]

    def stalling(assemble, u0, opts, stage, trace):
        if stage.startswith("ext"):
            count[0] += 1
            if count[0] - 1 in which:
                raise ConvergenceError(f"forced stall in {stage!r}", trace)
        return newton(assemble, u0, opts, stage, trace)

    monkeypatch.setattr(profiles, "_newton", stalling)


@pytest.mark.parametrize("eta", [0.6, 0.2])       # escaping, non-escaping
def test_cold_stall_from_both_seeds_raises(monkeypatch, eta):
    grid = make_grid(3, 600, {"graded": 2.0})
    _stall_ext(monkeypatch, {0, 1})
    with pytest.raises(ConvergenceError, match="both seeds"):
        solve_extended_profile(3, QUAD, LIN, 0.1, eta, grid)


@pytest.mark.parametrize("eta", [0.6, 0.2])
def test_cold_one_stall_falls_to_the_other_seed(monkeypatch, eta):
    grid = make_grid(3, 600, {"graded": 2.0})
    ref = solve_extended_profile(3, QUAD, LIN, 0.1, eta, grid)
    for which in ({0}, {1}):
        monkeypatch.undo()
        _stall_ext(monkeypatch, which)
        p = solve_extended_profile(3, QUAD, LIN, 0.1, eta, grid)
        assert p.branch == ref.branch and p.flags == ref.flags
        assert np.max(np.abs(p.g - ref.g)) < 1e-7


def test_cold_non_escaping_at_n2_small_eps(grid_n2):
    # the second seed's pencil at N=2, eps=0.02 once failed a sign test on
    # the rounding noise of its exponentially small tail
    p = solve_extended_profile(2, QUAD, LIN, 0.02, 0.03, grid_n2)
    assert p.branch == "non_escaping" and p.flags == ("no_escape_found",)


def test_extended_unique_solution_from_three_guesses(escaping_point, grid_n3):
    eps, eta, _ = escaping_point
    opts = [SolverOptions(g_seed=s) for s in (0.2, 0.5, 0.9)]
    profs = [solve_extended_profile(3, QUAD, LIN, eps, eta, grid_n3, opts=o)
             for o in opts]
    for p in profs[1:]:
        assert np.max(np.abs(p.f - profs[0].f)) < 1e-7
        assert np.max(np.abs(p.g - profs[0].g)) < 1e-7


# ---------------------------------------------------------------------------
# sphere-valued model


def test_sphere_escaping_profile(grid_n3):
    prof = solve_sphere_profile(3, LIN, 1.0, grid_n3)
    th = prof.theta
    assert not prof.no_escape
    assert th[0] < 1e-3 and abs(th[-1] - math.pi / 2) < 1e-14
    assert np.all(np.diff(th) > -1e-12)
    assert pohozaev_check(prof, LIN, 1.0) < 1e-4
    assert reduced_energy_mm(prof, LIN, 1.0) < 1.0     # beats the equator


def test_sphere_midpoint_oracle(grid_n3):
    # independent shooting oracle, frozen
    prof = solve_sphere_profile(3, LIN, 10.0, grid_n3)
    got = float(np.interp(0.5, grid_n3.nodes, prof.theta))
    assert abs(got - 1.087244338119) < 2e-7


def test_sphere_equator_exact(grid_n3):
    prof = solve_sphere_profile(7, LIN, 1.0, make_grid(7, 800, {"graded": 2.0}))
    assert prof.no_escape
    assert np.max(np.abs(prof.theta - math.pi / 2)) < 1e-12
    assert prof.residual_norm < 1e-12
    assert abs(reduced_energy_mm(prof, LIN, 1.0)
               - (7 - 1) / (2.0 * (7 - 2))) < 1e-10


@pytest.mark.parametrize("N", [3, 4, 5, 6, 7, 8])
def test_equator_energy_is_exact(N):
    # θ ≡ π/2 leaves only the centrifugal term ½(N-1) Σ hat_weights(-2),
    # whose weights sum to ∫ r^(N-3) dr = 1/(N-2)
    grid = make_grid(N, 2000, {"graded": 2.0})
    eq = SphereProfile(grid=grid, eta=1.0, penalty=LIN,
                       theta=np.full(grid.n, 0.5 * math.pi), residual_norm=0.0)
    assert abs(reduced_energy_mm(eq, LIN, 1.0)
               - (N - 1) / (2.0 * (N - 2))) < 1e-15


def test_sphere_n2_has_no_equator_branch():
    grid = make_grid(2, 800, {"graded": 2.0})
    prof = solve_sphere_profile(2, LIN, 1.0, grid)
    assert not prof.no_escape          # the flat branch is not admissible


SPHERE_ETAS = (0.02, 0.05, 0.1, 1.0, 100.0)


@pytest.mark.parametrize("grading", [2.0, 3.0])
def test_sphere_lattice_branches(grading):
    # one Newton stage per solve; the branch is the lower of the Newton
    # result's energy and the equator's
    for N in range(2, 9):
        grid = make_grid(N, 800, {"graded": grading})
        for wt in (LIN, QUAD):
            for eta in SPHERE_ETAS:
                point = (N, wt.kind, eta, grading)
                p = solve_sphere_profile(N, wt, eta, grid)
                assert p.residual_norm == residual(p), point
                assert len({t[0] for t in p.solver_trace}) == 1, point
                assert p.solver_trace[0][0] == f"sphere eta={eta:.6g}"
                if N >= 7:
                    assert p.no_escape, point
                    assert np.all(p.theta == 0.5 * math.pi)
                    continue
                if N <= 5 or not (wt is LIN and eta <= 0.05):
                    assert not p.no_escape, point
                if p.no_escape:
                    continue
                th = p.theta
                assert np.all(np.diff(th) >= 0), point
                assert th[0] >= 0 and th[-1] == 0.5 * math.pi, point
                if N >= 3:
                    flat = replace(p, theta=np.full(grid.n, 0.5 * math.pi))
                    assert (reduced_energy_mm(p, wt, eta)
                            < reduced_energy_mm(flat, wt, eta)), point


@pytest.mark.parametrize("N", [2, 3])
def test_sphere_stall_raises(N):
    # a tol below the residual's rounding floor makes the line search stall,
    # and the stall is reported as that input's fault
    grid = make_grid(N, 800, {"graded": 2.0})
    with pytest.raises(InputError, match="rounding floor"):
        solve_sphere_profile(N, LIN, 1.0, grid, SolverOptions(tol=1e-20))


def test_tol_below_rounding_floor_is_an_input_error(monkeypatch):
    # the line search gives up at 2.553e-13, under the bound u·max(|J||z|)
    # of the stalled iterate's band (4.41e-13); a stall above the bound is
    # still a ConvergenceError, and no step that converges pays for it
    from vortexlab import profiles
    grid = make_grid(3, 2000, {"graded": 2.0})
    floors = []
    real = profiles._rounding_floor

    def recording(solve, z):
        floors.append(real(solve, z))
        return floors[-1]

    monkeypatch.setattr(profiles, "_rounding_floor", recording)
    solve_gl_profile(3, QUAD, 0.05, grid, SolverOptions(tol=1e-12))
    assert not floors
    with pytest.raises(InputError, match=r"tol 1e-13 .* rounding floor "
                       r"4\.41e-13 .* 'gl eps=0\.25'"):
        solve_gl_profile(3, QUAD, 0.05, grid, SolverOptions(tol=1e-13))
    assert len(floors) == 1
    monkeypatch.setattr(profiles, "_rounding_floor", lambda solve, z: 1e-13)
    with pytest.raises(ConvergenceError, match="stalled"):
        solve_gl_profile(3, QUAD, 0.05, grid, SolverOptions(tol=1e-14))


def test_sphere_n2_equator_landing_raises(monkeypatch):
    from vortexlab import profiles
    newton = profiles._newton

    def from_equator(assemble, u0, *args):
        return newton(assemble, np.full_like(u0, 0.5 * math.pi), *args)

    monkeypatch.setattr(profiles, "_newton", from_equator)
    grid = make_grid(2, 800, {"graded": 2.0})
    with pytest.raises(ConvergenceError, match="equator at N=2"):
        solve_sphere_profile(2, LIN, 1.0, grid)
    # at N >= 3 the same landing is a finding: the equator, no_escape
    p = solve_sphere_profile(3, LIN, 1.0, make_grid(3, 800, {"graded": 2.0}))
    assert p.no_escape and np.all(p.theta == 0.5 * math.pi)


def test_equator_pohozaev_identity():
    grid = make_grid(5, 2000, {"graded": 2.0})
    prof = solve_sphere_profile(5, LIN, 0.25, grid)
    if not prof.no_escape:
        assert pohozaev_check(prof, LIN, 0.25) < 1e-3


# ---------------------------------------------------------------------------
# Newton Jacobians against central differences of their residuals


def _jacobians(monkeypatch, assemble, u):
    """Dense Jacobian that assemble(u) hands to banded.sym_solver (lower
    storage, mirrored above the diagonal), and the central difference of
    assemble's residual at u, column by column: the difference is not
    symmetric by construction, so it checks that the Hessian is."""
    from vortexlab import profiles
    captured = []
    real = profiles.sym_solver

    def capture(band):
        captured.append(band)
        return real(band)

    monkeypatch.setattr(profiles, "sym_solver", capture)
    res, solve = assemble(u)
    solve(-res)
    J = _sym_dense(captured[0])
    m = J.shape[0]
    fd = np.empty((m, m))
    for k in range(m):
        h = 1e-6 * max(1.0, abs(u[k]))
        up, dn = u.copy(), u.copy()
        up[k] += h
        dn[k] -= h
        fd[:, k] = (assemble(up)[0] - assemble(dn)[0]) / (2 * h)
    return J, fd


def _assert_rows_close(J, fd):
    scale = np.max(np.abs(J), axis=1, keepdims=True)
    assert np.all(np.abs(J - fd) <= 1e-6 * scale)


JAC_GRID = make_grid(3, 24, {"graded": 2.0})


def test_gl_jacobian_matches_differences(monkeypatch):
    from vortexlab.profiles import _gl_assemble
    r = JAC_GRID.nodes[:-1]
    v = 1.5 - 0.4 * r ** 2
    J, fd = _jacobians(monkeypatch, _gl_assemble(JAC_GRID, 0.3, QUAD), v)
    _assert_rows_close(J, fd)


def test_extended_jacobian_matches_differences(monkeypatch):
    from vortexlab.profiles import _extended_assemble, _interleave
    r = JAC_GRID.nodes[:-1]
    z = _interleave(1.2 - 0.3 * r ** 2, 0.6 * (1.0 - r ** 2))   # g > 0
    J, fd = _jacobians(monkeypatch,
                       _extended_assemble(JAC_GRID, 0.3, 0.7, QUAD, QUAD), z)
    _assert_rows_close(J, fd)


def test_sphere_jacobian_matches_differences(monkeypatch):
    from vortexlab.profiles import _sphere_assemble
    r = JAC_GRID.nodes[:-1]
    theta = 0.5 * math.pi * r + 0.2 * np.sin(math.pi * r)
    J, fd = _jacobians(monkeypatch, _sphere_assemble(JAC_GRID, 0.8, QUAD),
                       theta)
    _assert_rows_close(J, fd)


@pytest.mark.parametrize("N, grading", [(2, 2.0), (3, 2.0), (5, 3.0)])
@pytest.mark.parametrize("eps", [0.05, 0.1, 0.15])
def test_newton_takes_cholesky_iff_the_escape_criterion_is_positive(
        monkeypatch, N, grading, eps):
    # the two-field Jacobian at (v_gl, 0) is the λ = 0 block of the second
    # variation there: positive definite, so factored by Cholesky, exactly
    # when ℓ + Wt'(0)/η² > 0. Solved GL, escaping and sphere profiles are
    # minimizers, and their Jacobians take Cholesky too
    from vortexlab import profiles
    from vortexlab.spectral import gl_linearization_eigenvalue
    handed = _counting_lu(monkeypatch)

    def takes_cholesky(assemble, u):
        handed.clear()
        res, solve = assemble(u)
        solve(-res)
        return not handed

    grid = make_grid(N, 400, {"graded": grading})
    ell, _, gl = gl_linearization_eigenvalue(N, QUAD, eps, grid)
    assert takes_cholesky(profiles._gl_assemble(grid, eps, QUAD), gl.v[:-1])
    # Wt = LIN: Wt'(0) = 1, and the criterion changes sign at η* = 1/√-ℓ
    etas = (0.5, 2.0) if ell > 0 else (0.9 / math.sqrt(-ell),
                                       1.1 / math.sqrt(-ell))
    at_gl = profiles._interleave(gl.v[:-1], np.zeros(grid.n - 1))
    for eta in etas:
        point = (N, eps, eta, ell)
        assemble = profiles._extended_assemble(grid, eps, eta, QUAD, LIN)
        assert takes_cholesky(assemble, at_gl) == (ell + 1 / eta**2 > 0), point
        p = solve_extended_profile(N, QUAD, LIN, eps, eta, grid, start=gl)
        if p.branch == "escaping":
            z = profiles._interleave(p.v[:-1], p.g[:-1])
            assert takes_cholesky(assemble, z), point
        sphere = solve_sphere_profile(N, LIN, eta, grid)
        if not sphere.no_escape:
            assert takes_cholesky(profiles._sphere_assemble(grid, eta, LIN),
                                  sphere.theta[:-1]), point
    assert ell > 0 or p.branch == "escaping"


def test_newton_through_the_tridiagonal_lu(monkeypatch):
    # v = 0.5 is far from the profile: its GL Hessians are not positive
    # definite, so Newton steps through the row-scaled LU at bandwidth 1,
    # and still lands on the cold solve
    handed = _counting_lu(monkeypatch)
    grid = make_grid(3, 400, {"graded": 2.0})
    warm = solve_gl_profile(3, QUAD, 0.1, grid, v_init=np.full(400, 0.5))
    assert any(band.shape[0] == 2 for band in handed)
    cold = solve_gl_profile(3, QUAD, 0.1, grid)
    assert np.max(np.abs(warm.v - cold.v)) <= 1e-11 * np.max(np.abs(cold.v))


# ---------------------------------------------------------------------------
# Newton residuals against the full-array formulas they replaced: the face
# fluxes of np.append-ed fields (the Dirichlet value at node n-1) minus the
# well and penalty terms


def _flux_rows(grid, u, power):
    """Rows 0..n-2 of -(r^power u')' on full-grid samples u."""
    flux = grid.face_coeffs(power) * (u[1:] - u[:-1])
    res = np.empty(grid.n - 1)
    res[0] = -flux[0]
    res[1:] = flux[:-1] - flux[1:]
    return res


def _gl_oracle(grid, eps, well, v):
    r = grid.nodes
    x = (1.0 - r * r * v * v)[:-1]
    wp = well.eval(x, 1, clamp=True)
    res = _flux_rows(grid, v, grid.N + 1)
    res -= (r * r * grid.hat_weights(0))[:-1] / eps**2 * wp * v[:-1]
    return (res,)


def _extended_oracle(grid, eps, eta, well, penalty, v, g):
    r = grid.nodes
    x = (1.0 - r * r * v * v - g * g)[:-1]
    wp = well.eval(x, 1, clamp=True)
    tp = penalty.eval((g * g)[:-1], 1, clamp=True)
    res_v = _flux_rows(grid, v, grid.N + 1)
    res_g = _flux_rows(grid, g, grid.N - 1)
    res_v -= (r * r * grid.hat_weights(0))[:-1] / eps**2 * wp * v[:-1]
    res_g -= grid.hat_weights(0)[:-1] * (wp / eps**2 - tp / eta**2) * g[:-1]
    return res_v, res_g


def _sphere_oracle(grid, eta, penalty, theta):
    t = theta[:-1]
    sc = np.sin(t) * np.cos(t)
    tp = penalty.eval(np.cos(t)**2, 1, clamp=True)
    res = _flux_rows(grid, theta, grid.N - 1)
    res += ((grid.N - 1) * grid.hat_weights(-2)[:-1] * sc
            - grid.hat_weights(0)[:-1] / eta**2 * tp * sc)
    return (res,)


# every potential kind, each as a well and as a penalty: constant
# derivatives (quadratic W'', linear Wt' and Wt'', zero) enter the bodies as
# floats, the others as arrays
POTENTIALS = (QUAD, LIN, Potential.zero(), Potential.flat_well(0.3),
              Potential.from_spec({"piecewise": {
                  "breaks": [-4, 0, 1],
                  "coeffs": [[8, -4, 0.5, 0], [0, 0, 1, 0]]}}),
              Potential.from_spec({"piecewise": {
                  "breaks": [0, 1, 4],
                  "coeffs": [[0, 1, 0.5, 0], [1.5, 2, 1, 0]]}}))
ORACLE_GRIDS = pytest.mark.parametrize(
    "grid", [JAC_GRID, make_grid(5, 800, {"graded": 3.0})],
    ids=["jac_grid", "graded_800"])


def _iterates(grid, seed):
    """Iterates as Newton meets them, at two scales: the well's argument
    1 - r²v² - g² and the penalty's g² on both sides of each domain."""
    rng = np.random.default_rng(seed)
    m = grid.n - 1
    v = 1.0 + 0.5 * rng.standard_normal(m)
    g = 0.6 * rng.standard_normal(m)
    theta = rng.uniform(-0.5, 2.0, m)
    eps, eta = rng.uniform(0.05, 1.0, 2)
    return eps, eta, [(v, g, theta), (3.0 * v, 3.0 * g, 3.0 * theta)]


@ORACLE_GRIDS
@pytest.mark.parametrize("seed", range(3))
def test_newton_residuals_match_full_array_formulas(grid, seed):
    from vortexlab.profiles import (ExtendedProfile, GLProfile, SphereProfile,
                                    _extended_assemble, _gl_assemble,
                                    _interleave, _sphere_assemble)
    m = grid.n - 1
    eps, eta, iterates = _iterates(grid, seed)
    for (v, g, theta), well, penalty in itertools.product(
            iterates, POTENTIALS, POTENTIALS):
        cases = [
            (_extended_assemble(grid, eps, eta, well, penalty),
             _interleave(v, g),
             ExtendedProfile(grid=grid, eps=eps, eta=eta, well=well,
                             penalty=penalty, v=np.append(v, 1.0),
                             g=np.append(g, 0.0), branch="escaping",
                             residual_norm=math.nan),
             _extended_oracle(grid, eps, eta, well, penalty,
                              np.append(v, 1.0), np.append(g, 0.0))),
        ]
        if penalty is QUAD:
            cases.append(
                (_gl_assemble(grid, eps, well), v,
                 GLProfile(grid=grid, eps=eps, well=well, v=np.append(v, 1.0),
                           residual_norm=math.nan),
                 _gl_oracle(grid, eps, well, np.append(v, 1.0))))
        if well is QUAD:
            cases.append(
                (_sphere_assemble(grid, eta, penalty), theta,
                 SphereProfile(grid=grid, eta=eta, penalty=penalty,
                               theta=np.append(theta, 0.5 * math.pi),
                               residual_norm=math.nan),
                 _sphere_oracle(grid, eta, penalty,
                                np.append(theta, 0.5 * math.pi))))
        for assemble, u, record, oracle in cases:
            newton, k = assemble(u)[0], len(oracle)     # interleaved
            assert newton.size == k * m
            assert all(np.array_equal(newton[i::k], o)
                       for i, o in enumerate(oracle))
            parts = record._residual_parts()
            assert len(parts) == len(oracle)
            assert all(np.array_equal(p, o) for p, o in zip(parts, oracle))
            assert residual(record) == max(np.max(np.abs(o)) for o in oracle)


# ---------------------------------------------------------------------------
# Newton Jacobians against the full-array formulas they replaced: every
# derivative evaluated as an array, the lower band filled entry by entry


def _gl_jacobian_oracle(grid, eps, well, v):
    sd, off = grid.stiffness(grid.N + 1)
    r = grid.nodes[:-1]
    mass = r * r * grid.hat_weights(0)[:-1]
    x = 1.0 - r * r * v * v
    wp = well.eval(x, 1, clamp=True)
    wpp = well.eval(x, 2, clamp=True)
    band = np.zeros((2, v.size))
    band[1, :-1] = off
    band[0] = sd - mass / eps**2 * (wp - 2 * r**2 * v**2 * wpp)
    return band


def _extended_jacobian_oracle(grid, eps, eta, well, penalty, v, g):
    sv, ov = grid.stiffness(grid.N + 1)
    sg, og = grid.stiffness(grid.N - 1)
    r = grid.nodes[:-1]
    mg = grid.hat_weights(0)[:-1]
    mv = r * r * mg
    x = 1.0 - r * r * v * v - g * g
    wp = well.eval(x, 1, clamp=True)
    wpp = well.eval(x, 2, clamp=True)
    tp = penalty.eval(g * g, 1, clamp=True)
    tpp = penalty.eval(g * g, 2, clamp=True)
    rv = r * v
    band = np.zeros((3, 2 * v.size))
    band[2, 0:-2:2] = ov
    band[2, 1:-2:2] = og
    band[0, 0::2] = sv - mv / eps**2 * (wp - 2 * rv * rv * wpp)
    band[0, 1::2] = sg - mg * ((wp - 2 * g * g * wpp) / eps**2
                               - (tp + 2 * g * g * tpp) / eta**2)
    # the energy's Hessian: the v-g coupling, below the diagonal
    band[1, 0::2] = 2 * (mv / eps**2) * v * g * wpp
    return band


def _sphere_jacobian_oracle(grid, eta, penalty, theta):
    sd, off = grid.stiffness(grid.N - 1)
    m_cent = grid.hat_weights(-2)[:-1]
    m0 = grid.hat_weights(0)[:-1]
    tp = penalty.eval(np.cos(theta)**2, 1, clamp=True)
    tpp = penalty.eval(np.cos(theta)**2, 2, clamp=True)
    cos2, sin2 = np.cos(2 * theta), np.sin(2 * theta)
    band = np.zeros((2, theta.size))
    band[1, :-1] = off
    band[0] = sd + (grid.N - 1) * m_cent * cos2
    band[0] -= m0 / eta**2 * (tp * cos2 - 0.5 * tpp * sin2 * sin2)
    return band


@ORACLE_GRIDS
@pytest.mark.parametrize("seed", range(2))
def test_newton_jacobians_match_full_array_formulas(monkeypatch, grid, seed):
    from vortexlab import profiles
    captured = []

    def capture(band):                  # the band, unfactored
        captured.append(band)
        return lambda rhs: rhs

    monkeypatch.setattr(profiles, "sym_solver", capture)
    eps, eta, iterates = _iterates(grid, seed)
    for (v, g, theta), well, penalty in itertools.product(
            iterates, POTENTIALS, POTENTIALS):
        cases = [(profiles._extended_assemble(grid, eps, eta, well, penalty),
                  profiles._interleave(v, g),
                  _extended_jacobian_oracle(grid, eps, eta, well, penalty,
                                            v, g))]
        if penalty is QUAD:
            cases.append((profiles._gl_assemble(grid, eps, well), v,
                          _gl_jacobian_oracle(grid, eps, well, v)))
        if well is QUAD:
            cases.append((profiles._sphere_assemble(grid, eta, penalty), theta,
                          _sphere_jacobian_oracle(grid, eta, penalty, theta)))
        for assemble, u, oracle in cases:
            res, solve = assemble(u)
            solve(-res)
            point = (well.kind, penalty.kind, oracle.shape)
            assert np.array_equal(captured.pop(), oracle), point


# ---------------------------------------------------------------------------
# each model's Newton residual is the gradient of its reduced energy


@ORACLE_GRIDS
@pytest.mark.parametrize("seed", range(2))
def test_newton_residual_is_the_energy_gradient(grid, seed):
    # residual·d against the central difference of reduced_energy_* along a
    # random direction d of the unknowns at nodes 0..n-2; the samples keep
    # every potential's argument inside its domain, where no clamp acts
    rng = np.random.default_rng(seed)
    m = grid.n - 1

    def unknowns(lo, hi, right):
        return np.append(rng.uniform(lo, hi, m), right)

    v, g = unknowns(0.3, 0.8, 1.0), unknowns(-0.5, 0.5, 0.0)   # x in (0, 1)
    theta = unknowns(0.0, 0.5 * math.pi, 0.5 * math.pi)
    dv, dg = unknowns(-1.0, 1.0, 0.0), unknowns(-1.0, 1.0, 0.0)
    eps, eta = rng.uniform(0.05, 1.0, 2)
    h = 1e-5

    def check(record, directions, energy, point):
        slope = sum(float(part @ d[:-1]) for part, d in
                    zip(record._residual_parts(), directions))
        diff = (energy(h) - energy(-h)) / (2 * h)
        assert abs(diff - slope) <= 1e-8 * abs(slope), point

    for well, penalty in itertools.product(POTENTIALS, POTENTIALS):
        point = (well.kind, penalty.kind)
        ext = ExtendedProfile(grid=grid, eps=eps, eta=eta, well=well,
                              penalty=penalty, v=v, g=g, branch="escaping",
                              residual_norm=math.nan)
        check(ext, (dv, dg), lambda t: reduced_energy_extended(
            replace(ext, v=v + t * dv, g=g + t * dg), well, penalty, eps,
            eta), point)
        if penalty is QUAD:
            gl = GLProfile(grid=grid, eps=eps, well=well, v=v,
                           residual_norm=math.nan)
            check(gl, (dv,), lambda t: reduced_energy_gl(
                replace(gl, v=v + t * dv), well, eps), point)
        if well is QUAD:
            sph = SphereProfile(grid=grid, eta=eta, penalty=penalty,
                                theta=theta, residual_norm=math.nan)
            check(sph, (dv,), lambda t: reduced_energy_mm(
                replace(sph, theta=theta + t * dv), penalty, eta), point)


def test_solved_profiles_are_critical_points_of_their_energy():
    # a solved profile's energy is stationary to the solver's tolerance:
    # its slope along a random direction of the unknowns is below 1e-8
    grid = make_grid(3, 800, {"graded": 2.0})
    d = np.append(np.random.default_rng(0).standard_normal(grid.n - 1), 0.0)
    h = 1e-6
    gl = solve_gl_profile(3, QUAD, 0.1, grid)
    ext = solve_extended_profile(3, QUAD, LIN, 0.1, 1.0, grid)
    sph = solve_sphere_profile(3, LIN, 1.0, grid)
    assert ext.branch == "escaping" and not sph.no_escape
    energies = (
        lambda t: reduced_energy_gl(replace(gl, v=gl.v + t * d), QUAD, 0.1),
        lambda t: reduced_energy_extended(
            replace(ext, v=ext.v + t * d, g=ext.g + t * d), QUAD, LIN, 0.1,
            1.0),
        lambda t: reduced_energy_mm(replace(sph, theta=sph.theta + t * d),
                                    LIN, 1.0))
    for energy in energies:
        assert abs(energy(h) - energy(-h)) / (2 * h) < 1e-8


# ---------------------------------------------------------------------------
# serialization


def _grid400(N):
    return make_grid(N, 400, {"graded": 2.0})


ROUND_TRIP = {
    "gl": lambda: solve_gl_profile(3, QUAD, 0.3, _grid400(3)),
    "escaping": lambda: solve_extended_profile(3, QUAD, LIN, 0.1, 0.6,
                                               _grid400(3)),
    "no_escape_found": lambda: solve_extended_profile(3, QUAD, LIN, 1.0, 1.0,
                                                      _grid400(3)),
    "sphere": lambda: solve_sphere_profile(3, LIN, 1.0, _grid400(3)),
    "equator": lambda: solve_sphere_profile(7, LIN, 1.0, _grid400(7)),
}


@pytest.mark.parametrize("kind", ROUND_TRIP)
def test_profile_csv_and_json_round_trip(kind):
    prof = ROUND_TRIP[kind]()
    # flags and no_escape are set in exactly one case each
    assert (kind == "no_escape_found") == bool(getattr(prof, "flags", ()))
    assert (kind == "equator") == getattr(prof, "no_escape", False)
    header = profile_to_csv(prof).splitlines()[1]
    assert header == {"gl": "r,f", "sphere": "r,theta",
                      "equator": "r,theta"}.get(kind, "r,f,g")
    blob = profile_to_json(prof)
    back = profile_from_json(blob)
    assert type(back) is type(prof)
    for f in fields(prof):
        if f.name == "solver_trace":
            continue
        a, b = getattr(back, f.name), getattr(prof, f.name)
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b), f.name
        elif isinstance(b, Potential):
            assert a.spec() == b.spec(), f.name
        else:
            assert a == b, f.name
    assert profile_to_json(back) == blob
    # f is not stored: it is r·v on the record's grid, to the bit
    if hasattr(prof, "v"):
        assert np.array_equal(back.f, back.grid.nodes * back.v)
    assert header.split(",")[1:] == list(prof.columns)
    assert set(prof.unknowns) <= {f.name for f in fields(prof)}


# JSON texts as profile_to_json wrote them before the records described
# themselves, on a 16-node grid; the field values are arbitrary, since
# profile_from_json does not solve
_V = ("[1.0, 0.984375, 0.96875, 0.953125, 0.9375, 0.921875, 0.90625, "
      "0.890625, 0.875, 0.859375, 0.84375, 0.828125, 0.8125, 0.796875, "
      "0.78125, 0.765625]")
_GRID16 = '"grid": {"grading": {"graded": 2.0}, "n": 16}'
PINNED_JSON = {
    "gl": ('{"N": 3, "eps": 0.25, "fields": {"v": ' + _V + '}, ' + _GRID16
           + ', "model": "gl", "residual_norm": 1e-12, '
           '"well": {"kind": "quadratic"}}'),
    "extended": (
        '{"N": 3, "branch": "non_escaping", "eps": 0.1, "eta": 0.5, '
        '"fields": {"g": [1.0, 0.9375, 0.875, 0.8125, 0.75, 0.6875, 0.625, '
        '0.5625, 0.5, 0.4375, 0.375, 0.3125, 0.25, 0.1875, 0.125, 0.0625], '
        '"v": ' + _V + '}, "flags": ["no_escape_found"], ' + _GRID16
        + ', "model": "extended", "penalty": {"kind": "linear"}, '
        '"residual_norm": 2e-12, "well": {"kind": {"flat_well": 0.3}}}'),
    "sphere": (
        '{"N": 3, "eta": 0.75, "fields": {"theta": [0.0, 0.125, 0.25, 0.375, '
        '0.5, 0.625, 0.75, 0.875, 1.0, 1.125, 1.25, 1.375, 1.5, 1.625, 1.75, '
        '1.875]}, ' + _GRID16 + ', "model": "sphere", "no_escape": true, '
        '"penalty": {"kind": "quadratic"}, "residual_norm": 3e-12}'),
}


@pytest.mark.parametrize("model", PINNED_JSON)
def test_pinned_json_loads_and_writes_the_same_text(model):
    text = PINNED_JSON[model]
    prof = profile_from_json(text)
    assert prof.model == model and prof.grid.n == 16
    assert profile_to_json(prof) == text
    if model != "sphere":
        assert np.array_equal(prof.f, prof.grid.nodes * prof.v)


def test_json_without_flags_or_no_escape_takes_the_defaults():
    ext = PINNED_JSON["extended"].replace('"flags": ["no_escape_found"], ', "")
    sph = PINNED_JSON["sphere"].replace('"no_escape": true, ', "")
    assert ext != PINNED_JSON["extended"] and sph != PINNED_JSON["sphere"]
    assert profile_from_json(ext).flags == ()
    assert profile_from_json(sph).no_escape is False
    assert profile_from_json(PINNED_JSON["extended"]).flags == (
        "no_escape_found",)
    assert profile_from_json(PINNED_JSON["sphere"]).no_escape is True


def test_unknown_model_and_non_profiles_are_input_errors():
    text = PINNED_JSON["gl"].replace('"model": "gl"', '"model": "torus"')
    with pytest.raises(InputError, match="unknown profile model 'torus'"):
        profile_from_json(text)
    for bad, problem in (("{", "does not parse"),
                         ('{"model": "gl"}', "lacks 'N'"),
                         ("[]", "object, not list"),
                         ('{"model": "gl", "N": 3, "grid": [],'
                          ' "fields": {}, "residual_norm": 0}', "malformed"),
                         (PINNED_JSON["gl"].replace('"v": [', '"v": [0.5, '),
                          "node values")):
        with pytest.raises(InputError, match=problem):
            profile_from_json(bad)
    for call in (residual, profile_to_csv, profile_to_json):
        with pytest.raises(InputError, match="not a profile"):
            call(object())


@given(st.floats(0.3, 3.0))
@settings(max_examples=8)
def test_gl_refinement_consistency(eps):
    coarse = solve_gl_profile(3, QUAD, eps, make_grid(3, 250, {"graded": 2.0}))
    fine = solve_gl_profile(3, QUAD, eps, make_grid(3, 1000, {"graded": 2.0}))
    mid_c = float(np.interp(0.5, coarse.grid.nodes, coarse.f))
    mid_f = float(np.interp(0.5, fine.grid.nodes, fine.f))
    assert abs(mid_c - mid_f) < 5e-4


# ---------------------------------------------------------------------------
# the public energies and the Pohozaev check read only their own model's
# records, at a length scale the equations can divide by


@pytest.fixture(scope="module")
def three_models():
    grid = make_grid(3, 200, {"graded": 2.0})
    return (solve_gl_profile(3, QUAD, 0.3, grid),
            solve_extended_profile(3, QUAD, LIN, 0.1, 1.0, grid),
            solve_sphere_profile(3, LIN, 1.0, grid))


def test_energies_refuse_another_models_record(three_models):
    # an escaping record's g terms are no GL energy; reduced_energy_extended
    # keeps taking a GL record as g ≡ 0
    gl, ext, sph = three_models
    assert ext.branch == "escaping" and not sph.no_escape
    for call, args, takes in ((reduced_energy_gl, (QUAD, 0.3), (gl,)),
                              (reduced_energy_extended, (QUAD, LIN, 0.1, 1.0),
                               (gl, ext)),
                              (reduced_energy_mm, (LIN, 1.0), (sph,)),
                              (pohozaev_check, (LIN, 1.0), (sph,))):
        for p in three_models:
            if any(p is q for q in takes):
                assert math.isfinite(call(p, *args))
            else:
                with pytest.raises(InputError, match=f"got model '{p.model}'"):
                    call(p, *args)
        with pytest.raises(InputError, match="not a profile"):
            call(None, *args)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, 1e-160])
def test_energies_refuse_a_bad_length_scale(three_models, bad):
    gl, ext, sph = three_models
    for call in (lambda: reduced_energy_gl(gl, QUAD, bad),
                 lambda: reduced_energy_extended(ext, QUAD, LIN, bad, 1.0),
                 lambda: reduced_energy_extended(ext, QUAD, LIN, 0.1, bad),
                 lambda: reduced_energy_mm(sph, LIN, bad),
                 lambda: pohozaev_check(sph, LIN, bad)):
        with pytest.raises(InputError, match="must be positive"):
            call()


def test_energies_take_eta_inf(three_models):
    # eta = inf drops the penalty term, as the sphere solve at --eta inf uses
    gl, _, sph = three_models
    assert (reduced_energy_extended(gl, QUAD, LIN, 0.3, math.inf)
            == reduced_energy_gl(gl, QUAD, 0.3))
    assert reduced_energy_mm(sph, LIN, math.inf) < reduced_energy_mm(
        sph, LIN, 1.0)
    assert math.isfinite(pohozaev_check(sph, LIN, math.inf))
