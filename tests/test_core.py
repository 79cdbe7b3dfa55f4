import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vortexlab import (DomainError, InputError, Potential, format_float,
                       grid_from_spec, make_grid, potential_eval)
from vortexlab.core import _build_grid, csv_rows


# ---------------------------------------------------------------------------
# grids


def test_make_grid_validation():
    with pytest.raises(InputError):
        make_grid(1, 100)
    with pytest.raises(InputError):
        make_grid(3, 8)
    with pytest.raises(InputError):
        make_grid(3, 100, {"graded": 0.5})
    for beta in ("nan", "inf"):         # would give NaN or zero nodes
        with pytest.raises(InputError):
            make_grid(3, 100, f"graded:{beta}")
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
    # the hat moments integrate 1 against r^(N-1) dr to the exact volume
    assert abs(g.hat_weights(0).sum() - 1.0 / N) < 5e-12


def test_grid_spec_round_trip():
    g = make_grid(4, 123, {"graded": 2.5})
    g2 = grid_from_spec(4, g.spec())
    assert np.array_equal(g.nodes, g2.nodes)
    gu = make_grid(2, 50, "uniform")
    gu2 = grid_from_spec(2, gu.spec())
    assert np.array_equal(gu.nodes, gu2.nodes)
    # the spec names the shared grid, and is a copy of the grid's own
    assert g2 is g and gu2 is gu
    spec = g.spec()
    spec["grading"]["graded"] = 9.0
    assert g.spec() == {"n": 123, "grading": {"graded": 2.5}}


def test_make_grid_shares_one_grid_per_spec():
    g = make_grid(3, 321, "graded:2.0")
    for N, n, grading in ((3, 321, {"graded": 2.0}), (3, 321, ("graded", 2)),
                          (np.int64(3), np.int64(321), "graded(2)")):
        assert make_grid(N, n, grading) is g
    assert make_grid(3, 321, None) is make_grid(3, 321, "uniform")
    assert make_grid(3, 321) is not g and make_grid(4, 321, "graded:2") is not g
    # the unshared builder gives a distinct grid with the same bits
    fresh = _build_grid.__wrapped__(3, 321, "graded", 2.0)
    assert fresh is not g and np.array_equal(fresh.nodes, g.nodes)
    assert np.array_equal(fresh.hat_weights(0), g.hat_weights(0))
    # the halved-r_min grid is built once per grid
    assert g.halve_rmin() is g.halve_rmin()
    assert fresh.halve_rmin() is not g.halve_rmin()


def test_grid_is_frozen():
    g = make_grid(3, 64, "graded:2.0")
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.N = 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.nodes = np.ones(64)
    with pytest.raises(ValueError):
        g.nodes[0] = 0.5
    with pytest.raises(ValueError):
        g.hat_weights(-2)[0] = 0.5
    assert g.N == 3 and g.nodes[0] == (1 / 64) ** 2


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


def _exact_hat_moments(r, p):
    """∫ φ_j r^p dr over [0, 1] for each hat φ_j of the nodes r (held at 1
    over [0, r_0]), exactly on the nodes' binary values, each rounded once.

    In integers X = D r over the nodes' common power-of-two denominator D,
    with S_k = (B^k - A^k)/(B - A) = Σ B^i A^(k-1-i), the cell [A, B] adds
    (p+2) B S_(p+1) - (p+1) S_(p+2) to its left node and
    (p+1) S_(p+2) - (p+2) A S_(p+1) to its right one, all over
    (p+1)(p+2) D^(p+1); the first node adds (p+2) X_0^(p+1)."""
    ratios = [t.as_integer_ratio() for t in r.tolist()]
    D = max(d for _, d in ratios)
    powers = [[x ** i for i in range(p + 2)]
              for x in (m * (D // d) for m, d in ratios)]
    num = [0] * len(powers)
    num[0] = (p + 2) * powers[0][1] ** (p + 1)
    for j, (a, b) in enumerate(zip(powers, powers[1:])):
        s1 = sum(b[i] * a[p - i] for i in range(p + 1))
        s2 = sum(b[i] * a[p + 1 - i] for i in range(p + 2))
        num[j] += (p + 2) * b[1] * s1 - (p + 1) * s2
        num[j + 1] += (p + 1) * s2 - (p + 2) * a[1] * s1
    den = (p + 1) * (p + 2) * D ** (p + 1)
    return np.array([k / den for k in num])


@pytest.mark.parametrize("N", [3, 5])
@pytest.mark.parametrize("beta", [2.0, 3.0])
def test_hat_weights_match_exact_moments_on_fine_grids(N, beta):
    # the row sums of the P1 mass: the hat moments to rounding, where the
    # raw-moment formula b·m0 - m1 lost up to 2.2e-9 to cancellation on the
    # fine cells far from the origin. The cells hugging it (r/h < 8) keep
    # the exact moment formulas of the P1 tables, which lose up to 1.8e-12
    # of their own, hence the looser bound node by node
    g = make_grid(N, 8000, {"graded": beta})
    for shift in (0, 2):
        exact = _exact_hat_moments(g.nodes, N - 1 + shift)
        err = np.abs(g.hat_weights(shift) - exact)
        assert np.max(err) <= 1e-12 * np.max(exact)
        assert np.max(err / exact) <= 1e-11


# cell-by-cell references: one scalar moment per cell, powers and logs from
# libm, accumulated in node order


def _ref_moment(a, b, p):
    if p == -1:
        return math.log(b / a)
    q = p + 1.0
    return (b**q - a**q) / q


@pytest.mark.parametrize("N", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [16, 17, 401, 2000])
@pytest.mark.parametrize("grading", ["uniform", {"graded": 2.0}])
def test_moment_weights_match_cell_loops(N, n, grading):
    # the moment tables of a grid and of its halved-r_min grid match the
    # cell loops in test_p1_tables_near_origin_match_cell_loop; the halved
    # grid keeps the grid's N and mesh, one node deeper
    g = make_grid(N, n, grading)
    r = g.nodes
    h = g.halve_rmin()
    assert h.N == N and h.grading == g.grading
    assert h.nodes[0] == 0.5 * r[0] and np.array_equal(h.nodes[1:], r)


def _ref_p1_near(r, p, j):
    """The cell integrals T(s,t) of one near-origin cell, as a scalar loop."""
    a, b = r[j], r[j + 1]
    m0, m1, m2, m3 = (_ref_moment(a, b, p + k) for k in range(4))
    h3 = (b - a) ** 3
    return ((b**3 * m0 - 3 * b * b * m1 + 3 * b * m2 - m3) / h3,
            (-a * b * b * m0 + (b * b + 2 * a * b) * m1
             - (2 * b + a) * m2 + m3) / h3,
            (a * a * b * m0 - (2 * a * b + a * a) * m1
             + (b + 2 * a) * m2 - m3) / h3,
            (-a**3 * m0 + 3 * a * a * m1 - 3 * a * m2 + m3) / h3)


@pytest.mark.parametrize("N", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [16, 401, 2000])
@pytest.mark.parametrize("grading", ["uniform", {"graded": 2.0},
                                     {"graded": 3.0}])
def test_p1_tables_near_origin_match_cell_loop(N, n, grading):
    g = make_grid(N, n, grading)
    for grid in (g, g.halve_rmin()):
        r = grid.nodes
        near = np.nonzero(r[:-1] / grid.h < 8.0)[0]
        assert near.size > 0
        for shift in (-2, 0, 2):
            tables = grid._p1_tables(shift)[:4]
            for j in near:
                ref = _ref_p1_near(r, N - 1 + shift, j)
                assert all(t[j] == x for t, x in zip(tables, ref))


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
            # the interior samples and the Dirichlet value, into a view
            out = np.full(2 * (grid.n - 1), np.nan)
            grid.flux_residual(u[:-1], power, out=out[1::2], right=u[-1])
            assert np.array_equal(out[1::2], _ref_flux_residual(c, u))
            assert np.isnan(out[0::2]).all()
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


PIECEWISE_WELL = {"piecewise": {"breaks": [-4, 0, 1],
                                "coeffs": [[8, -4, 0.5, 0], [0, 0, 1, 0]]}}
PIECEWISE_PENALTY = {"piecewise": {"breaks": [0, 1, 4],
                                   "coeffs": [[0, 1, 0.5, 0], [1.5, 2, 1, 0]]}}


def test_potential_constant_derivatives():
    # a constant derivative is what eval gives at every argument, inside the
    # domain and outside it (clamped); no other derivative is constant
    expected = {"quadratic": {2: 1.0}, "linear": {1: 1.0, 2: 0.0},
                "zero": {0: 0.0, 1: 0.0, 2: 0.0}}
    ts = np.linspace(-8.0, 8.0, 1601)
    for spec in ("quadratic", "linear", "zero", "flat_well:0.3",
                 PIECEWISE_WELL, PIECEWISE_PENALTY):
        W = Potential.from_spec(spec)
        assert W.lo > ts[0] or W.hi < ts[-1] or W.kind == "zero"
        for order in (0, 1, 2):
            value = W.constant(order)
            assert value == expected.get(W.kind, {}).get(order)
            if value is not None:
                assert type(value) is float
                assert np.all(W.eval(ts, order, clamp=True) == value)
    with pytest.raises(InputError):
        Potential.zero().constant(3)


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


def test_csv_rows_matches_format_float():
    x = np.array([-0.0, 1.0, 5e-324, 2.2250738585072014e-308 / 3, 0.1,
                  -1.7976931348623157e308, 1e22, np.inf, -np.inf, np.nan])
    y = x[::-1] / 3.0
    names = ["a", "b,c", "escaping", "", "x", "y", "z", "w", "v", "u"]
    ref = "".join(f"{format_float(p)},{s},{format_float(q)}\n"
                  for p, s, q in zip(x, names, y))
    assert csv_rows(x, names, y) == ref
    # lists and integer columns are written as floats, like format_float
    assert csv_rows([1, 2], np.array([3, -4])) == "1,3\n2,-4\n"
    assert csv_rows(np.array([]), []) == ""


def test_map_jobs_pool_never_outnumbers_calls_or_cpus(monkeypatch):
    # a stand-in executor records the pool size and starts no process
    from vortexlab import core
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *args):
            return map(fn, *args)

    monkeypatch.setattr(core, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    calls = [(k, 2) for k in range(10)]
    squares = [k * k for k in range(10)]
    assert core.map_jobs(pow, calls, 500) == squares
    assert core.map_jobs(pow, calls[:2], 500) == squares[:2]
    assert core.map_jobs(pow, calls, 1) == squares          # no pool
    assert sizes == [3, 2]
    monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0})
    assert core.map_jobs(pow, calls, 500) == squares        # no pool
    assert sizes == [3, 2]
