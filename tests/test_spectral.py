import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vortexlab import (BracketError, ConvergenceError, InputError,
                       NoThresholdError, Potential, assemble_radial_operator,
                       find_epsilon0, gl_linearization_eigenvalue,
                       linearization_eigenvalue_sweep, make_grid,
                       smallest_eigenpair, sweep_to_csv)
from vortexlab.banded import count_below, sym_matvec
from vortexlab.core import _build_grid
from vortexlab.spectral import pencil_smallest

QUAD = Potential.quadratic()

# frozen independent oracle: first zero of the order-zero Bessel function
J0_ZERO_SQ = 5.783185962946785


def ldl_count_below(Ab, Mb, sigma):
    """Inertia oracle: eigenvalues of the banded pencil (lower storage,
    band[d, j] = A[j+d, j]) strictly below sigma, counted as the negative
    pivots of a plain-Python LDL^T of A - sigma*M (Sylvester's law). Pivots
    that vanish relative to their own row are clamped negative."""
    S = Ab - sigma * Mb
    b = S.shape[0] - 1
    m = S.shape[1]
    rowmax = np.abs(S[0]).copy()
    for d in range(1, b + 1):
        rowmax[d:] += np.abs(S[d, :m - d])
        rowmax[:m - d] += np.abs(S[d, :m - d])
    pivmin = 2e-16 * np.maximum(rowmax, 1e-290)
    L = np.zeros((b, m))        # L[d-1, j] = L[j+d, j]
    dpiv = np.zeros(m)
    neg = 0
    for j in range(m):
        acc = S[0, j]
        for k in range(max(0, j - b), j):
            acc -= L[j - k - 1, k] ** 2 * dpiv[k]
        if abs(acc) < pivmin[j]:
            acc = -pivmin[j]
        if acc < 0:
            neg += 1
        dpiv[j] = acc
        for i in range(j + 1, min(j + b + 1, m)):
            s = S[i - j, j]
            for k in range(max(0, i - b), j):
                s -= L[i - k - 1, k] * L[j - k - 1, k] * dpiv[k]
            L[i - j - 1, j] = s / acc
    return neg


def _random_pencil(m, b, seed, decades):
    """Symmetric banded A (indefinite in general) and diagonally dominant
    SPD banded M, both under one diagonal congruence spanning `decades`
    orders of magnitude, like the r^(N-1) grading of the radial pencils."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, (b + 1, m))
    M = rng.uniform(-1.0, 1.0, (b + 1, m))
    for d in range(1, b + 1):
        A[d, m - d:] = 0.0
        M[d, m - d:] = 0.0
    A[0] *= 3.0
    M[0] = np.abs(M[0]) + 0.1
    for d in range(1, b + 1):
        M[0, d:] += np.abs(M[d, :m - d])
        M[0, :m - d] += np.abs(M[d, :m - d])
    s = 10.0 ** np.linspace(-0.5 * decades, 0.5 * decades, m)
    for d in range(b + 1):
        A[d, :m - d] *= s[d:] * s[:m - d]
        M[d, :m - d] *= s[d:] * s[:m - d]
    return A, M


def _dense(band):
    b = band.shape[0] - 1
    m = band.shape[1]
    D = np.diag(band[0])
    for d in range(1, b + 1):
        D += np.diag(band[d, :m - d], -d) + np.diag(band[d, :m - d], d)
    return D


pencils = st.tuples(st.integers(4, 40), st.integers(1, 3),
                    st.integers(0, 2 ** 32 - 1), st.floats(0.0, 6.0))


@given(pencils)
@settings(max_examples=40)
def test_pencil_smallest_in_oracle_bracket(pencil):
    m, b, seed, decades = pencil
    A, M = _random_pencil(m, b, seed, decades)
    lam, x, resid, trace = pencil_smallest(A, M)
    tag, (lo, hi) = trace[-1]
    assert tag == "certified" and lo < lam < hi
    assert ldl_count_below(A, M, lo) == 0
    assert ldl_count_below(A, M, hi) >= 1
    assert resid < 1e-9
    assert all(len(t) == 3 for t in trace if not isinstance(t[0], str))


def _assert_certified_by_oracle(A, M, lam, trace):
    tag, (lo, hi) = trace[-1]
    assert tag == "certified" and lo < lam < hi
    assert ldl_count_below(A, M, lo) == 0
    assert ldl_count_below(A, M, hi) >= 1
    assert all(len(t) == 3 or (len(t) == 2 and isinstance(t[0], str))
               for t in trace)


# pencils whose coarse bracket holds a second eigenvalue (tridiagonal and
# bandwidth 3)
MISSING_PENCILS = [(44, 1, 493631901, 4.374090702457856),
                   (35, 3, 626647812, 5.131102561603006)]


def test_second_eigenvalue_in_the_coarse_bracket():
    # inverse iteration starts at once on the factor at the first definite
    # shift lo, and the first interval it bisects, (lo, top], holds the
    # second eigenvalue too: the steered shifts still end on the first
    for pencil in MISSING_PENCILS:
        A, M = _random_pencil(*pencil)
        lam, x, resid, trace = pencil_smallest(A, M)
        lo, top, _ = next(t for t in trace if len(t) == 3)
        assert lo == [t[1] for t in trace if t[0] == "expand"][-1]
        assert ldl_count_below(A, M, lo) == 0
        assert ldl_count_below(A, M, top) >= 2
        _assert_certified_by_oracle(A, M, lam, trace)
        assert resid < 1e-9


@pytest.mark.parametrize("gap", [1e-4, 1e-6, 1e-8])
def test_close_second_eigenvalue_bisects(gap):
    # two uncoupled fields, interleaved per node as in a stability block: 1-D
    # Dirichlet Laplacians whose ground states lie a relative gap apart.
    # Inverse iteration on a shift 1e-2 below contracts the error by a
    # factor near 1 per step; the quotient's slow fall hands the bracket to
    # bisection
    n = 100
    h = 1.0 / (n + 1)
    A, M = np.zeros((4, 2 * n)), np.zeros((4, 2 * n))
    for f, s in ((0, 1.0), (1, 1.0 + gap)):
        A[0, f::2], A[2, f:2 * n - 2:2] = 2.0 * s / h, -s / h
        M[0, f::2], M[2, f:2 * n - 2:2] = 4.0 * h / 6.0, h / 6.0
    lam, x, resid, trace = pencil_smallest(A, M)
    assert any(t[0] == "slow" for t in trace)
    _assert_certified_by_oracle(A, M, lam, trace)
    assert resid < 1e-9
    ev = scipy.linalg.eigh(_dense(A), _dense(M), eigvals_only=True)
    assert abs(lam - ev[0]) <= 2e-9 * (1.0 + abs(ev[0]))


# fixed stand-in for a long random stress: 400 graded banded pencils, drawn
# once from a seeded generator (m 4-60, bandwidth 1-3, 0-6 decades)
_rng = np.random.default_rng(0)
STRESS_PENCILS = [(int(_rng.integers(4, 61)), int(_rng.integers(1, 4)),
                   int(_rng.integers(0, 2 ** 32)), float(_rng.uniform(0, 6)))
                  for _ in range(400)]


def test_pencil_smallest_stress_against_oracle():
    outside = 0
    for pencil in STRESS_PENCILS:
        A, M = _random_pencil(*pencil)
        lam, x, resid, trace = pencil_smallest(A, M)
        _assert_certified_by_oracle(A, M, lam, trace)
        assert resid < 1e-9
        outside += any(t[0] == "outside" for t in trace)
    assert outside > 0          # the bisection of a quotient outside it


def test_cold_start_factorization_bound(grid_n3, factorizations):
    # inverse iteration starts on the first definite shift and its quotients
    # choose the rest, so even the constant start needs few factorizations,
    # and 1 - r^2, which meets the Dirichlet condition, fewer still
    lap = assemble_radial_operator(3, grid_n3, 0.0, 0.0)
    prof = gl_linearization_eigenvalue(3, QUAD, 0.3, grid_n3)[2]
    V = -QUAD.eval(1.0 - prof.f ** 2, 1) / 0.3 ** 2
    gl = assemble_radial_operator(3, grid_n3, 0.0, V)
    for op in (lap, gl):
        for x0, bound in ((None, 16), (op.cold_start(), 6)):
            factorizations.clear()
            lam, x, resid, trace = pencil_smallest(op.A, op.M, x0)
            assert len(factorizations) <= bound, trace
            assert trace[-1][0] == "certified" and resid < 1e-9


@given(pencils, st.floats(-1.0, 1.0))
@settings(max_examples=40)
def test_definiteness_test_matches_oracle(pencil, t):
    m, b, seed, decades = pencil
    A, M = _random_pencil(m, b, seed, decades)
    ev = scipy.linalg.eigh(_dense(A), _dense(M), eigvals_only=True)
    sigma = ev[0] + t * (ev[-1] - ev[0])
    # a shift numerically on an eigenvalue has no certain inertia
    assume(np.min(np.abs(ev - sigma)) > 1e-6 * (1.0 + np.max(np.abs(ev))))
    assert count_below(A, M, sigma) == min(ldl_count_below(A, M, sigma), 1)


def test_dirichlet_laplacian_pi_squared(grid_n3):
    op = assemble_radial_operator(3, grid_n3, 0.0, 0.0)
    pair = smallest_eigenpair(op)
    assert abs(pair.eigenvalue - math.pi ** 2) < 1e-6
    assert pair.residual < 1e-9


def test_dirichlet_laplacian_bessel(grid_n2):
    op = assemble_radial_operator(2, grid_n2, 0.0, 0.0)
    pair = smallest_eigenpair(op)
    assert abs(pair.eigenvalue - J0_ZERO_SQ) < 1e-6
    assert pair.residual < 1e-9


def test_constant_shift_is_exact(grid_n3):
    op0 = assemble_radial_operator(3, grid_n3, 0.0, 0.0)
    op1 = assemble_radial_operator(3, grid_n3, 0.0, -10.0)
    v0 = smallest_eigenpair(op0).eigenvalue
    v1 = smallest_eigenpair(op1).eigenvalue
    assert abs((v0 - 10.0) - v1) < 1e-9


@given(st.floats(-5.0, 5.0))
@settings(max_examples=10)
def test_constant_shift_property(shift):
    grid = make_grid(3, 400, {"graded": 2.0})
    v0 = smallest_eigenpair(assemble_radial_operator(3, grid, 0.0,
                                                     0.0)).eigenvalue
    v1 = smallest_eigenpair(assemble_radial_operator(3, grid, 0.0,
                                                     shift)).eigenvalue
    assert abs(v1 - (v0 + shift)) < 1e-9 * (1 + abs(v0))


def test_angular_term_raises_eigenvalue(grid_n3):
    base = smallest_eigenpair(assemble_radial_operator(3, grid_n3, 0.0,
                                                       0.0)).eigenvalue
    with_mu = smallest_eigenpair(assemble_radial_operator(3, grid_n3, 2.0,
                                                          0.0)).eigenvalue
    assert with_mu > base + 1.0


def test_ground_state_positive(grid_n3):
    op = assemble_radial_operator(3, grid_n3, 0.0, 0.0)
    pair = smallest_eigenpair(op)
    assert np.all(pair.q[op.start:-1] > 0)
    assert pair.q[-1] == 0.0
    text = pair.to_csv()
    assert text.splitlines()[0] == "r,q"


@pytest.mark.parametrize("N", [2, 3, 5])
@pytest.mark.parametrize("grading", ["uniform", "graded:2.0", "graded:3.0"])
def test_angular_ground_states_positive_at_their_peak(N, grading):
    # with mu = k(k+N-2) > 0 the ground state goes like r^k, so its entries
    # next to r_min are rounding noise and cannot carry its sign
    grid = make_grid(N, 400, grading)
    for k in (1, 2, 3, 6):
        q = smallest_eigenpair(assemble_radial_operator(
            N, grid, float(k * (k + N - 2)), 0.0)).q
        peak = np.max(np.abs(q))
        assert q[np.argmax(np.abs(q))] == peak
        assert np.min(q) >= -1e-9 * peak


@pytest.mark.parametrize("mu", [0.0, 2.0])
@pytest.mark.parametrize("V", [0.0, "well"])
def test_eigenvector_is_unit_in_its_pencils_mass(grid_n3, mu, V):
    if V == "well":
        V = -40.0 * (1.0 - grid_n3.nodes ** 2)
    op = assemble_radial_operator(3, grid_n3, mu, V)
    x = op.interior({"q": smallest_eigenpair(op).q})
    assert abs(sym_matvec(op.M, x) @ x - 1.0) < 1e-12


def _loop_operator(N, grid, mu, V):
    """Node-by-node reference assembly of the radial pencil."""
    start = 0 if mu == 0 else 1
    m = grid.n - 1 - start
    mids = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
    c = mids ** (N - 1) / grid.h
    diag = np.zeros(m)
    off = np.zeros(m - 1)
    for k in range(m):
        j = start + k
        diag[k] = c[j]
        if j > 0:
            diag[k] += c[j - 1]
    for k in range(m - 1):
        off[k] = -c[start + k]
    vd, vo = grid.p1_weighted_mass(V, 0)
    diag += vd[start:start + m]
    off += vo[start:start + m - 1]
    if mu > 0:
        cd, co = grid.p1_mass(-2)
        diag += mu * cd[start:start + m]
        off += mu * co[start:start + m - 1]
    p1d, p1o = grid.p1_mass(0)
    A = np.zeros((2, m))
    M = np.zeros((2, m))
    for k in range(m):
        A[0, k] = diag[k]
        M[0, k] = p1d[start + k]
        if k < m - 1:
            A[1, k] = off[k]
            M[1, k] = p1o[start + k]
    return A, M


@pytest.mark.parametrize("N", [2, 3, 5])
@pytest.mark.parametrize("mu", [0.0, 2.0])
def test_operator_matches_loop_reference(N, mu):
    grid = make_grid(N, 300, {"graded": 2.0})
    V = np.sin(7.0 * grid.nodes)
    op = assemble_radial_operator(N, grid, mu, V)
    A, M = _loop_operator(N, grid, mu, V)
    assert np.array_equal(op.A, A) and np.array_equal(op.M, M)


def test_operator_validation(grid_n3):
    with pytest.raises(InputError):
        assemble_radial_operator(3, grid_n3, -1.0, 0.0)
    op = assemble_radial_operator(3, grid_n3, 0.0, 0.0)
    with pytest.raises(InputError):
        smallest_eigenpair(op, q_init=np.ones(grid_n3.n - 1))


def test_find_epsilon0_rejects_nan_tol():
    # NaN passed the old `tol <= 0` test: 200 evaluations, then "stalled"
    with pytest.raises(InputError, match="tol must be positive"):
        find_epsilon0(3, QUAD, (0.05, 1.0), tol=math.nan)


# ---------------------------------------------------------------------------
# linearization around the amplitude profile


def test_high_dimension_lower_bound(grid_n7):
    # (N-2)^2/4 - (N-1) = 0.25 at N = 7
    for eps in (0.25, 0.5, 1.0):
        ell, pair, prof = gl_linearization_eigenvalue(7, QUAD, eps, grid_n7)
        assert ell >= 0.25 - 1e-4
        assert pair.residual < 1e-9
        assert prof.residual_norm < 1e-9


def test_linearization_mode_certified_n2(grid_n2):
    # on this eps window the smallest mode once came back with a sign change:
    # bisection had stopped at a width set by a 1e14 starting bound
    W = QUAD
    for eps in np.linspace(0.0469, 0.0473, 5):
        ell, pair, prof = gl_linearization_eigenvalue(2, W, eps, grid_n2)
        assert np.all(pair.q[:-1] > 0)
        V = -W.eval(1.0 - prof.f ** 2, 1) / eps ** 2
        op = assemble_radial_operator(2, grid_n2, 0.0, V)
        delta = 1e-9 * (1.0 + abs(ell))
        assert ldl_count_below(op.A, op.M, ell - delta) == 0
        assert ldl_count_below(op.A, op.M, ell + delta) == 1


def test_threshold_value(eps0_n3, grid_n3):
    ell, _, _ = gl_linearization_eigenvalue(3, QUAD, eps0_n3, grid_n3)
    assert abs(ell) < 1e-6


def test_threshold_sign_pattern(eps0_n3, grid_n3):
    below, _, _ = gl_linearization_eigenvalue(3, QUAD, 0.9 * eps0_n3, grid_n3)
    above, _, _ = gl_linearization_eigenvalue(3, QUAD, 1.1 * eps0_n3, grid_n3)
    assert below < 0 < above


def test_scaled_eigenvalue_monotone(grid_n3):
    eps_values = np.linspace(0.08, 1.2, 10)
    rows = linearization_eigenvalue_sweep(3, QUAD, eps_values, grid=grid_n3)
    scaled = [eps * eps * ell for eps, ell in rows]
    assert all(b > a for a, b in zip(scaled, scaled[1:]))
    text = sweep_to_csv(rows)
    assert text.splitlines()[0] == "eps,eigenvalue,eps2_eigenvalue"
    assert len(text.splitlines()) == 11


def test_sweep_jobs_invariant(grid_n3):
    eps_values = np.array([0.1, 0.3, 0.6])
    one = linearization_eigenvalue_sweep(3, QUAD, eps_values, grid=grid_n3,
                                         jobs=1)
    two = linearization_eigenvalue_sweep(3, QUAD, eps_values, grid=grid_n3,
                                         jobs=2)
    assert sweep_to_csv(one) == sweep_to_csv(two)


def test_sweep_solves_on_callers_grid():
    # halving r_min gives a grid that make_grid cannot rebuild from its spec
    grid = make_grid(3, 400, {"graded": 2.0}).halve_rmin()
    eps_values = [0.1, 0.3]
    one = linearization_eigenvalue_sweep(3, QUAD, eps_values, grid=grid,
                                         jobs=1)
    two = linearization_eigenvalue_sweep(3, QUAD, eps_values, grid=grid,
                                         jobs=2)
    assert one == two
    assert one == [(e, gl_linearization_eigenvalue(3, QUAD, e, grid)[0])
                   for e in eps_values]


def test_no_threshold_high_dimension(grid_n7):
    with pytest.raises(NoThresholdError):
        find_epsilon0(7, QUAD, (0.05, 1.0), grid=grid_n7)


def test_no_threshold_flat_slope(grid_n3):
    with pytest.raises(NoThresholdError):
        find_epsilon0(3, Potential.zero(), (0.05, 1.0), grid=grid_n3)


def test_threshold_needs_bracket(grid_n3):
    with pytest.raises(BracketError):
        find_epsilon0(3, QUAD, (0.5, 1.0), grid=grid_n3)
    with pytest.raises(InputError):
        find_epsilon0(3, QUAD, (1.0, 0.5), grid=grid_n3)


def test_cold_ell_does_not_depend_on_earlier_solves():
    # the GL ladder's rungs are kept per grid: a cold solve on a grid that
    # has solved other eps must give the bits of a fresh grid (an unshared
    # one: make_grid would hand back the grid in use)
    def fresh():
        return _build_grid.__wrapped__(3, 600, "graded", 2.0)
    used = fresh()
    for e in (0.3, 0.06, 0.15):
        gl_linearization_eigenvalue(3, QUAD, e, used)
    for e in (0.1, 0.05, 0.2):
        lam, pair, prof = gl_linearization_eigenvalue(3, QUAD, e, used)
        ref, ref_pair, ref_prof = gl_linearization_eigenvalue(3, QUAD, e,
                                                              fresh())
        assert lam == ref
        assert np.array_equal(prof.v, ref_prof.v)
        assert np.array_equal(pair.q, ref_pair.q)
    # a later cold solve pays only its own stage
    prof = gl_linearization_eigenvalue(3, QUAD, 0.07, used)[2]
    assert {t[0] for t in prof.solver_trace} == {"gl eps=0.07"}


def test_threshold_never_solves_a_given_eps(grid_n3, monkeypatch):
    from vortexlab import spectral
    rows = linearization_eigenvalue_sweep(3, QUAD, [0.05, 0.15, 0.25, 0.6],
                                          grid=grid_n3)
    cold = find_epsilon0(3, QUAD, (0.05, 0.6), grid=grid_n3)
    seen = []
    real = spectral.gl_linearization_eigenvalue

    def spy(N, W, eps, grid, opts=None, start=None):
        seen.append((eps, grid is grid_n3, start is not None))
        return real(N, W, eps, grid, opts, start=start)

    monkeypatch.setattr(spectral, "gl_linearization_eigenvalue", spy)
    eps0 = find_epsilon0(3, QUAD, (0.05, 0.6), grid=grid_n3, samples=rows)
    assert abs(eps0 - cold) < 1e-8
    given = {e for e, _ in rows}
    assert seen and not given & {e for e, _, _ in seen}
    # it starts inside the sign change of the samples, and each solve after
    # the first continues from an earlier one
    assert all(0.15 < e < 0.25 for e, _, _ in seen)
    assert all(warm for _, _, warm in seen[1:])
    # the last solve is the halved-r_min check at the answer
    assert seen[-1][:2] == (eps0, False)


def test_lower_bound_gate_reads_the_certified_bracket(monkeypatch):
    # V >= -W'(1)/eps^2 for a convex W: an eigenvalue is refused only when
    # its whole certified bracket lies below that bound
    from dataclasses import replace

    from vortexlab import spectral
    grid = make_grid(3, 400, {"graded": 2.0})
    eps = 0.3
    lower = -QUAD.eval(1.0, 1) / eps ** 2
    pair = gl_linearization_eigenvalue(3, QUAD, eps, grid)[1]
    a, b = pair.bracket
    assert a <= pair.eigenvalue <= b and lower < a
    for bracket, refused in (((lower - 2.0, lower - 1.0), True),
                             ((lower - 2.0, lower + 1.0), False)):
        fake = replace(pair, eigenvalue=lower - 1.5, bracket=bracket)
        monkeypatch.setattr(spectral, "smallest_eigenpair",
                            lambda op, q_init=None: fake)
        if refused:
            with pytest.raises(ConvergenceError, match="under its lower"):
                gl_linearization_eigenvalue(3, QUAD, eps, grid)
        else:
            assert gl_linearization_eigenvalue(3, QUAD, eps,
                                               grid)[0] == lower - 1.5


@pytest.mark.parametrize("W", ["quadratic", "flat_well:0.3"])
@pytest.mark.parametrize("beta", [2.0, 3.0])
@pytest.mark.parametrize("N", [2, 3, 5])
def test_threshold_slope_matches_central_difference(N, beta, W):
    # Hellmann-Feynman with the GL tangent is exact for the discrete pencil:
    # it must agree with a central difference of ell itself
    from vortexlab import SolverOptions
    from vortexlab.spectral import gl_linearization_slope
    grid = make_grid(N, 800, {"graded": beta})
    opts = SolverOptions(tol=1e-12)
    eps = 0.15
    _, pair, prof = gl_linearization_eigenvalue(N, W, eps, grid, opts)
    h = 1e-4 * eps
    plus, minus = (gl_linearization_eigenvalue(N, W, e, grid, opts,
                                               start=(prof.v, pair.q))[0]
                   for e in (eps + h, eps - h))
    central = (plus - minus) / (2 * h)
    assert abs(gl_linearization_slope(pair, prof) - central) \
        <= 1e-6 * abs(central)


def _count_ell_solves(monkeypatch):
    from vortexlab import spectral
    seen = []
    real = spectral.gl_linearization_eigenvalue

    def spy(N, W, eps, grid, opts=None, start=None):
        seen.append(eps)
        return real(N, W, eps, grid, opts, start=start)

    monkeypatch.setattr(spectral, "gl_linearization_eigenvalue", spy)
    return seen


def test_threshold_newton_work_bound(grid_n3, monkeypatch):
    # Newton steps on ell: from the README sweep's samples at most four
    # solves plus the halved-r_min one, and at most 11 from the bare
    # bracket (0.05, 1.0)
    from vortexlab.phase import axis_samples
    rows = linearization_eigenvalue_sweep(3, QUAD, axis_samples((0.05, 1.0),
                                                                12),
                                          grid=grid_n3)
    seen = _count_ell_solves(monkeypatch)
    eps0 = find_epsilon0(3, QUAD, (0.05, 1.0), grid=grid_n3, samples=rows)
    assert len(seen) <= 4 + 1
    # the README eps0 (eigen.json) to 1e-10
    assert abs(eps0 - 0.20395971971684923) < 1e-10
    seen.clear()
    wide = find_epsilon0(3, QUAD, (0.05, 1.0), grid=grid_n3)
    assert len(seen) <= 11
    assert abs(wide - 0.20395971971684923) < 1e-10


@pytest.mark.parametrize("N, grading, continuum, tol", [
    (3, {"graded": 2.0}, 0.2039597322, 2e-8),
    (2, {"graded": 2.0}, 0.3239142015, 2e-8),
    (5, {"graded": 3.0}, 0.0666524869, 5e-7)])
def test_threshold_near_the_continuum(N, grading, continuum, tol):
    # the continuum values are Richardson limits from n = 2000 and 4000;
    # with the well lumped as the energy's gradient the 2000-node search
    # lands within tol of them (the hat_weights(2) lumping missed them by
    # 1.4e-7 to 1.8e-6)
    eps0 = find_epsilon0(N, QUAD, (0.05, 1.0), grid=make_grid(N, 2000, grading))
    assert abs(eps0 - continuum) < tol


def test_halved_rmin_gate_reads_certified_brackets():
    # on the uniform 2000-node grid at N = 2 the halving shift is about
    # 1e-9, within the eigenvalues' certified brackets: accepted. Comparing
    # the bare eigenvalues rejected it at 1.078e-9 against the 1e-9 limit
    eps0 = find_epsilon0(2, QUAD, (0.05, 1.0), grid=make_grid(2, 2000))
    assert abs(eps0 - 0.3239142015) < 1e-6
    # a coarse uniform grid still moves the bracket by more than the limit
    for N, n in ((2, 400), (3, 200)):
        with pytest.raises(ConvergenceError, match="certified bracket"):
            find_epsilon0(N, QUAD, (0.05, 1.0), grid=make_grid(N, n))


@pytest.mark.parametrize("slope", [1e-12, 0.0, -1.0, math.nan])
def test_threshold_newton_steps_stay_in_the_bracket(grid_n3, monkeypatch,
                                                    slope):
    # a Newton step that would leave the sign change, or a slope that gives
    # no step, falls back to the regula-falsi point inside the bracket
    from vortexlab import spectral
    rows = [(0.15, gl_linearization_eigenvalue(3, QUAD, 0.15, grid_n3)[0]),
            (0.25, gl_linearization_eigenvalue(3, QUAD, 0.25, grid_n3)[0])]
    newton = find_epsilon0(3, QUAD, (0.15, 0.25), grid=grid_n3, samples=rows)
    monkeypatch.setattr(spectral, "gl_linearization_slope",
                        lambda eig, prof: slope)
    seen = _count_ell_solves(monkeypatch)
    eps0 = find_epsilon0(3, QUAD, (0.15, 0.25), grid=grid_n3, samples=rows)
    assert abs(eps0 - newton) < 1e-9
    assert all(0.15 < e < 0.25 for e in seen)


def test_threshold_samples_must_straddle(grid_n3):
    rows = [(0.5, 10.0), (0.7, 12.0)]
    with pytest.raises(BracketError):
        find_epsilon0(3, QUAD, (0.5, 0.7), grid=grid_n3, samples=rows)


def test_ell_converged_in_the_unknowns(grid_n3):
    # the Newton stop must not leave the answer where the path happened to
    # end: at eps=0.05 the residual stop alone was off by 1.8e-7 (relative)
    from vortexlab import SolverOptions
    loose = gl_linearization_eigenvalue(3, QUAD, 0.05, grid_n3,
                                        SolverOptions(tol=1e-10))[0]
    tight = gl_linearization_eigenvalue(
        3, QUAD, 0.05, make_grid(3, 2000, {"graded": 2.0}),
        SolverOptions(tol=1e-12))[0]
    assert abs(loose - tight) < 1e-8 * abs(tight)


def test_start_vectors_give_the_certified_eigenvalue():
    # a random start, the exact eigenvector and the second eigenvector
    # (M-orthogonal to the wanted one) all end on the eigenvalue of the
    # constant start, certified by inertia
    rng = np.random.default_rng(1)
    for pencil in STRESS_PENCILS[:60] + MISSING_PENCILS:
        A, M = _random_pencil(*pencil)
        lam, _, _, _ = pencil_smallest(A, M)
        _, vecs = scipy.linalg.eigh(_dense(A), _dense(M))
        for x0 in (rng.standard_normal(A.shape[1]), vecs[:, 0], vecs[:, 1]):
            lam2, x, resid, trace = pencil_smallest(A, M, x0=x0)
            _assert_certified_by_oracle(A, M, lam2, trace)
            assert resid < 1e-9
            assert abs(lam2 - lam) <= 2e-9 * (1.0 + abs(lam))


def test_start_vector_validation():
    A, M = _random_pencil(12, 1, 0, 0.0)
    for bad in (np.zeros(12), np.ones(11), np.full(12, np.nan)):
        with pytest.raises(InputError):
            pencil_smallest(A, M, x0=bad)


def test_eigenpair_start_cuts_factorizations(grid_n3, factorizations):
    # 1 - r^2 meets the Dirichlet condition that the constant function
    # breaks, and a nearby eps's eigenvector lies closer still: one
    # factorization for the first shift and one for each end of the window
    lam, pair, prof = gl_linearization_eigenvalue(3, QUAD, 0.2, grid_n3)
    V = -QUAD.eval(1.0 - prof.f ** 2, 1) / 0.2 ** 2
    op = assemble_radial_operator(3, grid_n3, 0.0, V)
    near = gl_linearization_eigenvalue(3, QUAD, 0.21, grid_n3)[1]

    def count(x0):
        factorizations.clear()
        pencil_smallest(op.A, op.M, x0=x0)
        return len(factorizations)
    cold = count(op.cold_start())
    assert cold < count(None)
    assert cold <= 8
    assert count(near.q[:op.size]) <= 3
    warm = smallest_eigenpair(op, q_init=near.q)
    assert abs(warm.eigenvalue - lam) <= 2e-9 * (1.0 + abs(lam))
