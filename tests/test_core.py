import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vortexlab import (DomainError, InputError, Potential, format_float,
                       grid_from_spec, make_grid, potential_eval)


# ---------------------------------------------------------------------------
# grids


def test_make_grid_validation():
    with pytest.raises(InputError):
        make_grid(1, 100)
    with pytest.raises(InputError):
        make_grid(3, 8)
    with pytest.raises(InputError):
        make_grid(3, 100, {"graded": 0.5})
    with pytest.raises(InputError):
        make_grid(2.5, 100)


@given(st.integers(2, 9), st.integers(16, 400),
       st.sampled_from(["uniform", {"graded": 2.0}, {"graded": 3.0}]))
def test_grid_structure(N, n, grading):
    g = make_grid(N, n, grading)
    assert g.nodes.shape == (n,)
    assert g.nodes[-1] == 1.0
    assert g.nodes[0] > 0
    assert np.all(np.diff(g.nodes) > 0)
    # quadrature weights integrate 1 against r^(N-1) dr to the exact volume
    total = g.quadrature(np.ones(n))
    assert abs(total - 1.0 / N) < 5e-12


@given(st.integers(2, 7), st.integers(0, 2))
def test_quadrature_polynomial_exactness(N, k):
    # node weights reconstruct piecewise quadratics exactly
    g = make_grid(N, 300, {"graded": 2.0})
    val = g.quadrature(g.nodes ** k)
    assert abs(val - 1.0 / (N + k)) < 1e-10


def test_grid_spec_round_trip():
    g = make_grid(4, 123, {"graded": 2.5})
    g2 = grid_from_spec(4, g.spec())
    assert np.array_equal(g.nodes, g2.nodes)
    gu = make_grid(2, 50, "uniform")
    gu2 = grid_from_spec(2, gu.spec())
    assert np.array_equal(gu.nodes, gu2.nodes)


def test_node_gradient_cubic_exact():
    g = make_grid(3, 200, {"graded": 2.0})
    r = g.nodes
    p = 2.0 - 3.0 * r + r ** 2 + 0.5 * r ** 3
    dp = -3.0 + 2.0 * r + 1.5 * r ** 2
    assert np.max(np.abs(g.node_gradient(p) - dp)) < 1e-10


def test_node_gradient_convergence():
    errs = []
    for n in (200, 400, 800):
        g = make_grid(3, n, {"graded": 2.0})
        err = np.max(np.abs(g.node_gradient(np.sin(3 * g.nodes))
                            - 3 * np.cos(3 * g.nodes)))
        errs.append(err)
    assert errs[2] < errs[0] / 30     # at least third order


def test_gradient_energy_matches_quadrature():
    g = make_grid(3, 2000, {"graded": 2.0})
    u = g.nodes ** 2
    exact = 4.0 / (3 + 1)             # int (2r)^2 r^2 dr = 4/5... recompute
    exact = g.quadrature((2 * g.nodes) ** 2)
    assert abs(g.gradient_energy(u) - exact) < 1e-5


# ---------------------------------------------------------------------------
# consistent P1 matrices


def test_p1_weighted_mass_constant_matches_p1_mass():
    g = make_grid(3, 500, {"graded": 2.0})
    d0, o0 = g.p1_mass(0)
    d1, o1 = g.p1_weighted_mass(np.ones(g.n), 0)
    assert np.array_equal(d0, d1) and np.array_equal(o0, o1)


@given(st.integers(2, 7), st.sampled_from([-2, -1, 0, 1]))
def test_p1_weighted_mass_integrates(N, shift):
    g = make_grid(N, 800, {"graded": 2.0})
    r = g.nodes
    vals = 1.0 + r ** 2
    u = r * (1 - r)
    d, off = g.p1_weighted_mass(vals, shift)
    got = float(d @ u ** 2) + 2.0 * float(off @ (u[:-1] * u[1:]))
    p = N - 1 + shift
    # exact integral of (1+r^2) r^2 (1-r)^2 r^p over [0,1]
    def mono(q):
        return 1.0 / (q + 1)
    exact = sum(c * mono(p + k)
                for k, c in [(2, 1.0), (3, -2.0), (4, 2.0), (5, -2.0),
                             (6, 1.0)])
    assert abs(got - exact) < 2e-4 * abs(exact) + 1e-9


def test_hat_weights_positive():
    g = make_grid(5, 300, {"graded": 3.0})
    for shift in (-2, 0, 2):
        assert np.all(g.hat_weights(shift) > 0)


# cell-by-cell references: one scalar moment per cell, powers and logs from
# libm, accumulated in node order


def _ref_moment(a, b, p):
    if p == -1:
        return math.log(b / a)
    q = p + 1.0
    return (b**q - a**q) / q


def _ref_lagrange(x, a, b, p):
    m0, m1, m2 = (_ref_moment(a, b, p + k) for k in range(3))
    w = np.empty(3)
    for i in range(3):
        j, k = [s for s in range(3) if s != i]
        w[i] = ((m2 - (x[j] + x[k]) * m1 + x[j] * x[k] * m0)
                / ((x[i] - x[j]) * (x[i] - x[k])))
    return w


def _ref_product_weights(r, p):
    n = r.size
    w = np.zeros(n)
    w[0:3] += _ref_lagrange(r[0:3], 0.0, r[0], p)
    i = 0
    while i + 2 <= n - 1:
        w[i:i + 3] += _ref_lagrange(r[i:i + 3], r[i], r[i + 2], p)
        i += 2
    if i == n - 2:
        w[n - 3:n] += _ref_lagrange(r[n - 3:n], r[n - 2], r[n - 1], p)
    return w


def _ref_hat_weights(r, p):
    w = np.zeros(r.size)
    for j in range(r.size - 1):
        a, b = r[j], r[j + 1]
        mm0, mm1 = _ref_moment(a, b, p), _ref_moment(a, b, p + 1)
        w[j] += (b * mm0 - mm1) / (b - a)
        w[j + 1] += (mm1 - a * mm0) / (b - a)
    if p > -1:
        w[0] += _ref_moment(0.0, r[0], p)
    return w


@pytest.mark.parametrize("N", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [16, 17, 401, 2000])
@pytest.mark.parametrize("grading", ["uniform", {"graded": 2.0}])
def test_moment_weights_match_cell_loops(N, n, grading):
    # bit for bit: numpy's vectorized pow/log differ from libm in the last
    # bit on some inputs, which would move every artifact
    g = make_grid(N, n, grading)
    r = g.nodes
    for shift in (-2, 0, 2):
        p = N - 1 + shift
        if p > -1:
            assert np.array_equal(g.product_weights(shift),
                                  _ref_product_weights(r, p))
        assert np.array_equal(g.hat_weights(shift), _ref_hat_weights(r, p))
        assert np.array_equal(
            g.cell_moments(shift),
            [_ref_moment(r[j], r[j + 1], p) for j in range(n - 1)])
    assert np.array_equal(g.weights, _ref_product_weights(r, N - 1))
    # the halved-r_min grid keeps the grid's N and mesh, one node deeper
    h = g.halve_rmin()
    assert h.nodes[0] == 0.5 * r[0] and np.array_equal(h.nodes[1:], r)
    assert np.array_equal(h.weights, _ref_product_weights(h.nodes, N - 1))


def _ref_flux_residual(c, u):
    res = np.zeros(u.size - 1)
    for j in range(u.size - 1):
        if j > 0:
            res[j] += c[j - 1] * (u[j] - u[j - 1])      # flux in from the left
        res[j] -= c[j] * (u[j + 1] - u[j])              # flux out to the right
    return res


def _ref_stiffness(c):
    """Face-by-face assembly on nodes 0..n-2; the last face couples to the
    Dirichlet node n-1, which has no row."""
    m = c.size
    diag, off = np.zeros(m), np.zeros(m - 1)
    for j in range(m):
        diag[j] += c[j]
        if j + 1 < m:
            diag[j + 1] += c[j]
            off[j] -= c[j]
    return diag, off


@pytest.mark.parametrize("N", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [16, 17, 401, 2000])
@pytest.mark.parametrize("grading", ["uniform", {"graded": 2.0}])
def test_flux_stencil_matches_face_loops(N, n, grading):
    g = make_grid(N, n, grading)
    for grid in (g, g.halve_rmin()):
        r = grid.nodes
        u = np.cos(3.0 * r) + r ** 2
        for power in (N + 1, N - 1):
            c = grid.face_coeffs(power)
            assert np.array_equal(grid.flux_residual(u, power),
                                  _ref_flux_residual(c, u))
            diag, off = grid.stiffness(power)
            ref_diag, ref_off = _ref_stiffness(c)
            assert np.array_equal(diag, ref_diag)
            assert np.array_equal(off, ref_off)
            # the stiffness is the residual's (constant) Jacobian
            ku = diag * u[:-1]
            ku[1:] += off * u[:-2]
            ku[:-1] += off * u[1:-1]
            ku[-1] -= c[-1] * u[-1]
            scale = np.max(diag) * np.max(np.abs(u))    # size of the terms
            assert np.allclose(ku, grid.flux_residual(u, power),
                               rtol=0, atol=1e-13 * scale)
            assert not diag.flags.writeable and not off.flags.writeable


# ---------------------------------------------------------------------------
# potentials


def test_potential_presets():
    W = Potential.quadratic()
    assert W.eval(0.0, 0) == 0.0
    assert W.eval(1.0, 1) > 0
    L = Potential.linear()
    assert abs(L.eval(0.3, 0) - 0.3) < 1e-15
    assert L.eval(0.0, 1) == 1.0
    Z = Potential.zero()
    assert Z.eval(0.7, 0) == 0.0 and Z.eval(0.7, 1) == 0.0
    F = Potential.flat_well(0.25)
    assert F.eval(0.1, 1) == 0.0          # flat inside the well
    assert F.eval(0.5, 1) > 0


def test_potential_requires_normalization():
    # W(0) = 0 and convexity are enforced on construction
    with pytest.raises(InputError):
        Potential.from_spec({"piecewise": {"breaks": [0.5],
                                           "coeffs": [[1.0, 0.0, 0.0, 0.0],
                                                      [1.0, 0.0, 0.0, 0.0]]}})


def test_potential_from_json_text():
    assert Potential.from_spec('{"flat_well": 0.2}') == Potential.flat_well(0.2)
    assert Potential.from_spec(' {"kind": "linear"}') == Potential.linear()
    for bad in ('{"flat_well": 0.2', '{"flat_well": "x"}', "flat_well:x",
                '{"piecewise": [1, 2]}', "nonsense"):
        with pytest.raises(InputError):
            Potential.from_spec(bad)


def test_potential_spec_round_trip():
    for spec in ("quadratic", "linear", "zero", {"flat_well": 0.3}):
        W = Potential.from_spec(spec)
        W2 = Potential.from_spec(W.spec())
        for t in (0.0, 0.2, 0.9):
            assert W.eval(t, 0) == W2.eval(t, 0)
            assert W.eval(t, 1) == W2.eval(t, 1)


def test_potential_domain_checks():
    W = Potential.quadratic()
    with pytest.raises(DomainError):
        potential_eval(W, 1.5, 0)
    assert potential_eval(W, -0.5, 0) == W.eval(-0.5, 0)  # 1 - f^2 < 0 is fine
    with pytest.raises(InputError):
        W.eval(0.5, 3)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_quadratic_well_values(t):
    W = Potential.quadratic()
    assert abs(W.eval(t, 0) - 0.5 * t * t) < 1e-15
    assert abs(W.eval(t, 1) - t) < 1e-15


# ---------------------------------------------------------------------------
# float formatting


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trip(x):
    assert float(format_float(x)) == x
