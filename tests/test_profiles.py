import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexlab import (ConvergenceError, InputError, Potential, SolverOptions,
                       make_grid, pohozaev_check, profile_from_json,
                       profile_to_csv, profile_to_json, reduced_energy_extended,
                       reduced_energy_gl, reduced_energy_mm, residual,
                       solve_extended_profile, solve_gl_profile,
                       solve_sphere_profile)

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


def test_gl_energy_zero_well_exact():
    # I[r -> r] with the quadratic well at eps = 1, N = 2:
    # 1/2 int (1 + 1 + (1-r^2)^2/2 r...) -- frozen closed form 0.5 + 1/24
    grid = make_grid(2, 2000, {"graded": 2.0})
    prof = solve_gl_profile(2, Potential.zero(), 1.0, grid)
    val = reduced_energy_gl(prof, QUAD, 1.0)
    assert abs(val - (0.5 + 1.0 / 24.0)) < 1e-6


def test_gl_rejects_bad_input(grid_n3):
    with pytest.raises(InputError):
        solve_gl_profile(3, QUAD, 0.0, grid_n3)
    with pytest.raises(InputError):
        solve_gl_profile(3, QUAD, -1.0, grid_n3)


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


def test_sphere_n2_has_no_equator_branch():
    grid = make_grid(2, 800, {"graded": 2.0})
    prof = solve_sphere_profile(2, LIN, 1.0, grid)
    assert not prof.no_escape          # the flat branch is not admissible


def test_equator_pohozaev_identity():
    grid = make_grid(5, 2000, {"graded": 2.0})
    prof = solve_sphere_profile(5, LIN, 0.25, grid)
    if not prof.no_escape:
        assert pohozaev_check(prof, LIN, 0.25) < 1e-3


# ---------------------------------------------------------------------------
# Newton Jacobians against central differences of their residuals


def _jacobians(monkeypatch, assemble, u):
    """Dense Jacobian that assemble(u) hands to the banded LU, and the central
    difference of assemble's residual at u, column by column."""
    from vortexlab import profiles
    captured = []
    real = profiles.lu_solver

    def capture(ab):
        captured.append(ab)
        return real(ab)

    monkeypatch.setattr(profiles, "lu_solver", capture)
    res, solve = assemble(u)
    solve(-res)
    ab = captured[0]
    b, m = (ab.shape[0] - 1) // 2, ab.shape[1]
    J = np.zeros((m, m))
    for i in range(m):
        for j in range(max(0, i - b), min(m, i + b + 1)):
            J[i, j] = ab[b + i - j, j]
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


# ---------------------------------------------------------------------------
# serialization


def test_profile_csv_and_json_round_trip(escaping_profile):
    text = profile_to_csv(escaping_profile)
    assert text.splitlines()[1].startswith("r,")
    blob = profile_to_json(escaping_profile)
    back = profile_from_json(blob)
    assert np.array_equal(back.f, escaping_profile.f)
    assert np.array_equal(back.g, escaping_profile.g)
    assert back.branch == escaping_profile.branch
    assert np.array_equal(back.grid.nodes, escaping_profile.grid.nodes)


@given(st.floats(0.3, 3.0))
@settings(max_examples=8)
def test_gl_refinement_consistency(eps):
    coarse = solve_gl_profile(3, QUAD, eps, make_grid(3, 250, {"graded": 2.0}))
    fine = solve_gl_profile(3, QUAD, eps, make_grid(3, 1000, {"graded": 2.0}))
    mid_c = float(np.interp(0.5, coarse.grid.nodes, coarse.f))
    mid_f = float(np.interp(0.5, fine.grid.nodes, fine.f))
    assert abs(mid_c - mid_f) < 5e-4
