import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from vortexlab import (InputError, Potential, decomposition_check,
                       divfree_certificate, equator_instability_value,
                       gl_linearization_eigenvalue, hardy_identity_check,
                       make_grid, mode_block, mode_form_value,
                       mode_min_eigenvalue, solve_extended_profile,
                       solve_gl_profile, solve_sphere_profile,
                       spectrum_summary, sphere_eigenvalues)
from vortexlab.banded import sym_matvec

QUAD = Potential.quadratic()
LIN = Potential.linear()


def _contract(block, trial):
    F = len(block.fields)
    m = block.size // F
    x = np.zeros(block.size)
    for i, name in enumerate(block.fields):
        x[i::F] = np.asarray(trial[name])[1:1 + m]
    return float(sym_matvec(block.A, x) @ x)


def _random_trial(rng, grid, fields):
    out = {}
    for f in fields:
        u = rng.standard_normal(grid.n)
        u[0] = u[-1] = 0.0
        out[f] = u
    return out


# ---------------------------------------------------------------------------
# assembly identities


def test_block_matches_direct_form(escaping_profile, escaping_point):
    eps, eta, _ = escaping_point
    rng = np.random.default_rng(3)
    grid = escaping_profile.grid
    for lam in (0.0, 2.0, 6.0, 12.0):
        blk = mode_block(escaping_profile, QUAD, LIN, eps, eta, lam)
        tr = _random_trial(rng, grid, blk.fields)
        qm = _contract(blk, tr)
        qd = mode_form_value(escaping_profile, QUAD, LIN, eps, eta, lam, tr)
        assert abs(qm - qd) <= 1e-8 * (abs(qm) + abs(qd))


def test_block_matches_direct_profile_trial(escaping_profile, escaping_point):
    # the two assembly routes agree on the profile-shaped trial too
    eps, eta, _ = escaping_point
    grid = escaping_profile.grid
    tr = {"s": escaping_profile.f * (1 - grid.nodes),
          "q": escaping_profile.g * (1 - grid.nodes)}
    tr["s"][0] = tr["q"][0] = 0.0
    blk = mode_block(escaping_profile, QUAD, LIN, eps, eta, 0.0)
    qm = _contract(blk, tr)
    qd = mode_form_value(escaping_profile, QUAD, LIN, eps, eta, 0.0, tr)
    assert abs(qm - qd) <= 1e-8 * (abs(qm) + abs(qd))


def test_gl_and_sphere_blocks_match_direct(grid_n3):
    rng = np.random.default_rng(5)
    glp = solve_gl_profile(3, QUAD, 0.3, grid_n3)
    sph = solve_sphere_profile(3, LIN, 1.0, grid_n3)
    for prof, W, Wt, eps, eta in ((glp, QUAD, None, 0.3, None),
                                  (sph, None, LIN, None, 1.0)):
        for lam in (0.0, 2.0, 6.0):
            blk = mode_block(prof, W, Wt, eps, eta, lam)
            tr = _random_trial(rng, grid_n3, blk.fields)
            qm = _contract(blk, tr)
            qd = mode_form_value(prof, W, Wt, eps, eta, lam, tr)
            assert abs(qm - qd) <= 1e-8 * (abs(qm) + abs(qd))


def test_gl_block_is_the_non_escaping_s_psi_sector():
    # the GL vortex is the two-field one at g ≡ 0: its blocks are the
    # (s, psi) sector of the non-escaping blocks, bit for bit
    for N in (2, 3, 5):
        for beta in (2.0, 3.0):
            grid = make_grid(N, 400, {"graded": beta})
            for eps in (0.05, 0.3):
                glp = solve_gl_profile(N, QUAD, eps, grid)
                non = solve_extended_profile(N, QUAD, LIN, eps, 1.0, grid,
                                             branch_hint="non_escaping")
                for lam in sphere_eigenvalues(N, 12.0):
                    blk = mode_block(glp, QUAD, None, eps, None, lam)
                    sub = mode_block(non, QUAD, LIN, eps, 1.0,
                                     lam).sector(*blk.fields)
                    assert np.array_equal(blk.A, sub.A), (N, beta, eps, lam)
                    assert np.array_equal(blk.M, sub.M), (N, beta, eps, lam)


def test_block_field_layout(escaping_profile, escaping_point):
    eps, eta, _ = escaping_point
    assert mode_block(escaping_profile, QUAD, LIN, eps, eta, 0.0).fields \
        == ("s", "q")
    assert mode_block(escaping_profile, QUAD, LIN, eps, eta, 2.0).fields \
        == ("s", "psi", "q")
    glp = solve_gl_profile(3, QUAD, 0.3, escaping_profile.grid)
    assert mode_block(glp, QUAD, None, 0.3, None, 0.0).fields == ("s",)
    assert mode_block(glp, QUAD, None, 0.3, None, 2.0).fields == ("s", "psi")
    sph = solve_sphere_profile(3, LIN, 1.0, escaping_profile.grid)
    assert mode_block(sph, None, LIN, None, 1.0, 0.0).fields == ("p",)
    assert mode_block(sph, None, LIN, None, 1.0, 2.0).fields == ("p", "psi")


@pytest.mark.parametrize("a, b", [("s", "psi"), ("psi", "s"), ("s", "q"),
                                  ("q", "s"), ("psi", "q")])
def test_cross_coupling_matches_entry_loop(a, b):
    # reference: one symmetric lower-band insert per matrix entry
    from vortexlab.spectral import _assemble_pencil
    grid = make_grid(3, 40, {"graded": 2.0})
    fields = ("s", "psi", "q")
    F, m = len(fields), grid.n - 2
    zero = dict.fromkeys(fields, 0.0)
    vals = np.random.default_rng(len(a + b)).standard_normal(grid.n)
    A, _ = _assemble_pencil(grid, fields, zero, [(a, b, vals, -2)])

    d, off = grid.p1_weighted_mass(vals, -2)
    di, offi = d[1:-1], off[1:-1]
    oa, ob = fields.index(a), fields.index(b)
    ia, ib = oa + F * np.arange(m), ob + F * np.arange(m)
    ref = np.zeros_like(A)
    for j in range(m):
        i, k = sorted((ia[j], ib[j]), reverse=True)
        ref[i - k, k] += 0.5 * di[j]
    for j in range(m - 1):
        for i, k in ((ia[j], ib[j + 1]), (ia[j + 1], ib[j])):
            i, k = max(i, k), min(i, k)
            ref[i - k, k] += 0.5 * offi[j]
    assert np.array_equal(A, ref)
    assert np.any(A[F + ob - oa] != 0) and np.any(A[F + oa - ob] != 0)


def _fancy_index_assemble(grid, fields, stiff, mass, terms):
    """Block assembly with index-array scatters: the oracle that the
    library's strided-slice assembly must match bit for bit."""
    n = grid.n
    m = n - 2
    F = len(fields)
    pos = {name: i for i, name in enumerate(fields)}
    size = F * m
    bw = max(2 * F - 1, F)
    A = np.zeros((bw + 1, size))
    M = np.zeros((bw + 1, size))
    sd, so = grid.stiffness(grid.N - 1)
    sd, so = sd[1:], so[1:]
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
            lo, hi = min(oa, ob), max(oa, ob)
            A[hi - lo, lo + F * np.arange(m)] += 0.5 * di
            A[F + ob - oa, ia[:-1]] += 0.5 * offi
            A[F + oa - ob, ib[:-1]] += 0.5 * offi
    return A, M


@pytest.fixture(scope="module")
def small_profiles():
    """(profile, W, Wt, eps, eta) for each model on one small N = 3 grid:
    GL, extended escaping, extended non-escaping (indefinite at this eta)
    and sphere."""
    grid = make_grid(3, 400, {"graded": 3.0})
    return {
        "gl": (solve_gl_profile(3, QUAD, 0.3, grid), QUAD, None, 0.3, None),
        "escaping": (solve_extended_profile(3, QUAD, LIN, 0.1, 1.0, grid),
                     QUAD, LIN, 0.1, 1.0),
        "non_escaping": (solve_extended_profile(
            3, QUAD, LIN, 0.1, 1.0, grid, branch_hint="non_escaping"),
            QUAD, LIN, 0.1, 1.0),
        "sphere": (solve_sphere_profile(3, LIN, 1.0, grid), None, LIN, None,
                   1.0),
    }


def _assert_same_pencil(blk):
    A, M = _fancy_index_assemble(blk.grid, blk.fields, blk.weights,
                                 blk.weights, blk.terms)
    assert np.array_equal(blk.A, A) and np.array_equal(blk.M, M)


def test_slice_assembly_matches_fancy_index_oracle(small_profiles):
    N = 3
    widths = set()
    for kind in ("gl", "escaping", "non_escaping", "sphere"):
        prof, W, Wt, eps, eta = small_profiles[kind]
        for lam in (0.0, N - 1.0, 2.0 * N):
            blk = mode_block(prof, W, Wt, eps, eta, lam)
            _assert_same_pencil(blk)
            widths.add(len(blk.fields))
            if kind == "non_escaping":
                # g = 0: q decouples from s and psi
                rest = tuple(f for f in blk.fields if f != "q")
                for sub in (blk.sector("q"), blk.sector(*rest)):
                    _assert_same_pencil(sub)
                    widths.add(len(sub.fields))
    assert widths == {1, 2, 3}

    # every cross term in both orders, with random weights
    from vortexlab.spectral import _assemble_pencil
    grid = make_grid(N, 40, {"graded": 2.0})
    rng = np.random.default_rng(18)
    fields = ("s", "psi", "q")
    weights = {f: float(rng.uniform(0.5, 2.0)) for f in fields}
    terms = [(a, b, rng.standard_normal(grid.n), int(rng.integers(-2, 1)))
             for a in fields for b in fields]
    for F in (1, 2, 3):
        got = _assemble_pencil(grid, fields[:F], weights, terms)
        ref = _fancy_index_assemble(grid, fields[:F], weights, weights, terms)
        assert np.array_equal(got[0], ref[0])
        assert np.array_equal(got[1], ref[1])


def test_q_sector_is_the_radial_operator(small_profiles):
    # on g = 0 the lambda = 0 block's q-sector is the g-operator's pencil
    # with its transverse term, bit for bit, less the zero-flux node r_min
    from vortexlab import assemble_radial_operator
    prof, W, Wt, eps, eta = small_profiles["non_escaping"]
    grid = prof.grid
    sub = mode_block(prof, W, Wt, eps, eta, 0.0).sector("q")
    V = -W.eval(1.0 - prof.f ** 2, 1) / eps ** 2 \
        + Wt.eval(prof.g ** 2, 1) / eta ** 2
    op = assemble_radial_operator(3, grid, 0.0, V)
    assert op.start == 0 and sub.start == 1
    assert np.array_equal(sub.A, op.A[:, 1:])
    assert np.array_equal(sub.M, op.M[:, 1:])


@pytest.mark.parametrize("start", [0, 1])
@pytest.mark.parametrize("F", [1, 2, 3])
def test_embed_interior_round_trip(start, F):
    from vortexlab import RadialPencil
    grid = make_grid(3, 30, {"graded": 2.0})
    fields = ("s", "psi", "q")[:F]
    blk = RadialPencil(grid, fields, dict.fromkeys(fields, 1.0), (), 0.0,
                       start)
    assert blk.size == F * (grid.n - 1 - start)
    x = np.random.default_rng(F + 10 * start).standard_normal(blk.size)
    full = blk.embed(x)
    assert sorted(full) == sorted(fields)
    for i, name in enumerate(fields):
        u = full[name]
        assert u.shape == grid.nodes.shape and u[-1] == 0.0
        assert np.all(u[:start] == 0.0)
        assert np.array_equal(u[start:-1], x[i::F])
    assert np.array_equal(blk.interior(full), x)


def test_interior_needs_every_field_on_the_grid():
    # a length-3 array used to broadcast one value over every unknown
    from vortexlab import RadialPencil
    grid = make_grid(3, 30, {"graded": 2.0})
    fields = ("s", "psi", "q")
    blk = RadialPencil(grid, fields, dict.fromkeys(fields, 1.0), (), 0.0)
    full = blk.embed(np.ones(blk.size))
    for q in (np.ones(3), np.ones(grid.n + 1), 1.0):
        with pytest.raises(InputError, match=r"\['q'\]"):
            blk.interior({**full, "q": q})
    del full["q"]
    with pytest.raises(InputError, match=r"\['q'\]"):
        blk.interior(full)


@pytest.mark.parametrize("kind", ["gl", "escaping", "non_escaping",
                                  "sphere"])
def test_refined_pencil_starts_warm(small_profiles, monkeypatch, kind):
    # spectrum_summary solves each block, then the same block on the
    # halved-r_min grid from the first eigenvector: the warm solve certifies
    # the cold solve's eigenvalue, in a few bisection steps
    import vortexlab.stability as stab
    from vortexlab.spectral import pencil_smallest
    calls = []

    def recording(Ab, Mb, x0=None):
        out = pencil_smallest(Ab, Mb, x0)
        calls.append((Ab, Mb, out))
        return out

    monkeypatch.setattr(stab, "pencil_smallest", recording)
    prof, W, Wt, eps, eta = small_profiles[kind]
    rep = spectrum_summary(prof, W, Wt, eps, eta, lam_max=6.0)
    assert rep.lam_values == (0.0, 2.0, 6.0)
    assert len(calls) == 2 * len(rep.lam_values)
    for val, shift, (Ab, Mb, warm) in zip(rep.min_eigenvalues,
                                          rep.refinement_shifts, calls[1::2]):
        lam, _, _, trace = warm
        assert shift == lam - val
        steps = [t for t in trace if len(t) == 3]
        assert len(steps) <= 5, trace
        cold = pencil_smallest(Ab, Mb)[0]
        assert abs(lam - cold) <= 2e-9 * (1.0 + abs(cold))


def _stretched_record(profile):
    """The record on the halved-r_min grid, each stored field extended by
    its leading order at the origin (v and g even, theta ~ c r off the
    equator), with no re-solve: the r_min probe that spectrum_summary
    passed through mode_block before RadialPencil.refined."""
    def stretch(name):
        u = getattr(profile, name)
        if name == "theta" and not profile.no_escape:
            return np.concatenate(([0.5 * u[0]], u))
        return np.concatenate(([u[0]], u))

    return dataclasses.replace(
        profile, grid=profile.grid.halve_rmin(),
        **{name: stretch(name) for name in profile.unknowns})


@pytest.mark.parametrize("kind", ["gl", "escaping", "non_escaping",
                                  "sphere"])
def test_refined_block_matches_the_stretched_record(small_profiles, kind):
    # refined() moves only the cutoff: the same terms, each node-sampled
    # coefficient held at its r_min value on the new node. The stretched
    # record re-derives every term (the sphere's through node_gradient) and
    # must give the same smallest eigenvalue within the window delta
    prof, W, Wt, eps, eta = small_profiles[kind]
    stretched = _stretched_record(prof)
    for lam in (0.0, 2.0, 6.0):
        blk = mode_block(prof, W, Wt, eps, eta, lam)
        refined = blk.refined()
        reference = mode_block(stretched, W, Wt, eps, eta, lam)
        assert refined.grid is reference.grid is prof.grid.halve_rmin()
        assert refined.fields == blk.fields and refined.start == blk.start
        for (a, b, c, shift), term in zip(refined.terms, blk.terms):
            assert (a, b, shift) == term[:2] + term[3:]
            assert np.array_equal(c[1:], term[2]) and c[0] == c[1]
        new = mode_min_eigenvalue(refined)
        old = mode_min_eigenvalue(reference)
        assert abs(new - old) <= 1e-9 * (1.0 + abs(old)), (lam, new, old)


@pytest.mark.parametrize("kind", ["gl", "escaping", "non_escaping",
                                  "sphere"])
def test_cold_block_factorization_bound(small_profiles, factorizations,
                                        kind):
    # a cold block starts from 1 - r^2 in every field (RadialPencil.
    # cold_start), in mode_min_eigenvalue as in spectrum_summary, and ends on
    # the constant start's eigenvalue in at most 12 factorizations
    from vortexlab.spectral import pencil_smallest
    prof, W, Wt, eps, eta = small_profiles[kind]
    for lam in (0.0, 2.0, 6.0):
        blk = mode_block(prof, W, Wt, eps, eta, lam)
        factorizations.clear()
        val = mode_min_eigenvalue(blk)
        assert len(factorizations) <= 12
        const = pencil_smallest(blk.A, blk.M)[0]
        assert abs(val - const) <= 2e-9 * (1.0 + abs(const))


def test_invalid_angular_eigenvalue(escaping_profile, escaping_point):
    eps, eta, _ = escaping_point
    with pytest.raises(InputError):
        mode_block(escaping_profile, QUAD, LIN, eps, eta, 3.0)
    with pytest.raises(InputError):
        mode_block(escaping_profile, QUAD, LIN, eps, eta, -2.0)
    # admissible means listed by sphere_eigenvalues, exactly
    for lam in (2.0 + 1e-12, math.nan, math.inf):
        with pytest.raises(InputError, match="not a sphere-Laplacian"):
            mode_block(escaping_profile, QUAD, LIN, eps, eta, lam)


def test_sphere_eigenvalue_list():
    assert sphere_eigenvalues(3, 12.0) == [0.0, 2.0, 6.0, 12.0]
    assert sphere_eigenvalues(2, 9.0) == [0.0, 1.0, 4.0, 9.0]
    assert sphere_eigenvalues(3, 0.0) == [0.0]


def test_sphere_eigenvalue_levels_are_capped():
    # the levels are counted in closed form before any is listed; past
    # MAX_LEVELS (k = 999 at N = 3) the request is refused, naming the flag
    from vortexlab.stability import MAX_LEVELS
    levels = sphere_eigenvalues(3, 999.0 * 1000.0)
    assert len(levels) == MAX_LEVELS
    assert levels == [float(k * (k + 1)) for k in range(MAX_LEVELS)]
    with pytest.raises(InputError, match="--lambda-max"):
        sphere_eigenvalues(3, 1000.0 * 1001.0)


def test_lambda_max_validation(guarded_python):
    # a negative lam_max gave no blocks (and so a verdict without evidence),
    # nan and inf an endless list: run in a capped child process
    out = guarded_python(
        "import json, math\n"
        "from vortexlab import (InputError, Potential, make_grid,\n"
        "                       solve_sphere_profile, spectrum_summary,\n"
        "                       sphere_eigenvalues)\n"
        "lin = Potential.linear()\n"
        "prof = solve_sphere_profile(3, lin, 1.0,\n"
        "                            make_grid(3, 200, {'graded': 2.0}))\n"
        "out = []\n"
        "for v in (-1.0, math.nan, math.inf):\n"
        "    for call in (lambda: sphere_eigenvalues(3, v),\n"
        "                 lambda: spectrum_summary(prof, None, lin, None, 1.0,\n"
        "                                          lam_max=v)):\n"
        "        try:\n"
        "            call()\n"
        "            out.append('returned')\n"
        "        except InputError as exc:\n"
        "            out.append(str(exc))\n"
        "print(json.dumps(out))\n")
    assert len(out) == 6
    assert all(msg.startswith("lambda_max must be finite and >= 0")
               for msg in out), out


def test_sector_requires_decoupling(escaping_profile, escaping_point,
                                    grid_n3, eps0_n3):
    eps, eta, _ = escaping_point
    blk = mode_block(escaping_profile, QUAD, LIN, eps, eta, 0.0)
    with pytest.raises(InputError):
        blk.sector("q")           # g > 0 couples s and q
    non = solve_extended_profile(3, QUAD, LIN, eps, eta, grid_n3,
                                 branch_hint="non_escaping")
    nblk = mode_block(non, QUAD, LIN, eps, eta, 0.0)
    sub = nblk.sector("q")
    assert sub.fields == ("q",)


# ---------------------------------------------------------------------------
# sector identity with the scalar linearization


def test_q_sector_matches_linearization(grid_n3_deep, eps0_n3):
    eps = eps0_n3 / 2
    ell, _, _ = gl_linearization_eigenvalue(3, QUAD, eps, grid_n3_deep)
    eta = 2.0 * math.sqrt(LIN.eval(0.0, 1) / abs(ell))
    non = solve_extended_profile(3, QUAD, LIN, eps, eta, grid_n3_deep,
                                 branch_hint="non_escaping")
    blk = mode_block(non, QUAD, LIN, eps, eta, 0.0)
    val = mode_min_eigenvalue(blk.sector("q"))
    target = ell + LIN.eval(0.0, 1) / eta ** 2
    assert target < 0
    assert abs(val - target) < 1e-5


# ---------------------------------------------------------------------------
# Hardy-factored identity


def test_hardy_identity_two_trials(escaping_profile, escaping_point):
    eps, eta, _ = escaping_point
    r = escaping_profile.grid.nodes
    trials = [
        {"s": r ** 2 * (1 - r) ** 2, "q": r * (1 - r)},
        {"s": r * (1 - r) ** 2, "q": r * (1 - r)},
    ]
    for tr in trials:
        assert hardy_identity_check(escaping_profile, QUAD, LIN, eps, eta,
                                    tr) < 1e-6


def test_hardy_proportional_trial(escaping_profile, escaping_point):
    # trial proportional to the profile itself: the factored gradient terms
    # vanish identically on the window plateau, leaving curvature terms only
    eps, eta, _ = escaping_point
    grid = escaping_profile.grid
    r = grid.nodes
    up = np.clip((r - 0.1) / 0.2, 0.0, 1.0)
    dn = np.clip((0.9 - r) / 0.2, 0.0, 1.0)
    w = up * up * (3 - 2 * up) * dn * dn * (3 - 2 * dn)
    tr = {"s": escaping_profile.f * w, "q": escaping_profile.g * w}
    assert hardy_identity_check(escaping_profile, QUAD, LIN, eps, eta,
                                dict(tr)) < 2e-7
    plateau = (r >= 0.3) & (r <= 0.7)
    u = tr["s"][plateau] / escaping_profile.f[plateau]
    assert np.all(np.diff(u) == 0.0)


def test_hardy_identity_names_a_missing_field(escaping_profile,
                                              escaping_point):
    eps, eta, _ = escaping_point
    r = escaping_profile.grid.nodes
    with pytest.raises(InputError, match=r"missing fields \['q'\]"):
        hardy_identity_check(escaping_profile, QUAD, LIN, eps, eta,
                             {"s": r * (1 - r)})


def test_hardy_identity_needs_escaping(escaping_point, grid_n3):
    eps, eta, _ = escaping_point
    non = solve_extended_profile(3, QUAD, LIN, eps, eta, grid_n3,
                                 branch_hint="non_escaping")
    r = grid_n3.nodes
    with pytest.raises(InputError):
        hardy_identity_check(non, QUAD, LIN, eps, eta,
                             {"s": r * (1 - r), "q": r * (1 - r)})


# ---------------------------------------------------------------------------
# divergence-free certificate


def test_divfree_certificate_region():
    for N in range(3, 9):
        for alpha in np.linspace(-(N - 2) + 1e-9, -1e-9, 41):
            expect = (alpha + 1) * (alpha + N - 3) < N - 3
            assert divfree_certificate(N, alpha) == expect
        assert not divfree_certificate(N, 0.5)
        assert not divfree_certificate(N, -(N - 2) - 0.5)
        # midpoint witness always works
        assert divfree_certificate(N, -(N - 2) / 2.0)
    assert divfree_certificate(2, 17.0)
    with pytest.raises(InputError):
        divfree_certificate(1, -0.5)


# ---------------------------------------------------------------------------
# equator instability


def test_equator_closed_form_frozen():
    rec = equator_instability_value(3, LIN, 1.0, 0.1, 0.1 * math.exp(-4.0))
    assert abs(rec.closed_form - (-2.2462994498638303)) < 1e-12
    assert float(rec) == rec.closed_form


def test_equator_negative_and_discrete():
    for N in (3, 4, 5, 6):
        rec = equator_instability_value(N, LIN, 1.0, 0.1, 0.1 * math.exp(-4.0))
        assert rec.closed_form < 0
        # the closed form majorizes the trial's true value (its penalty term
        # is an upper bound), so the discrete value sits just below it
        assert rec.discrete < rec.closed_form
        rel = abs(rec.discrete - rec.closed_form) / abs(rec.closed_form)
        assert rel < (0.03 if N == 6 else 0.02)


def _equator_trial_energy(N, wt0, eta, a, b):
    """The log-sine trial's second variation by adaptive quadrature."""
    L = math.log(a / b)
    k = (N - 2) / 2.0

    def integrand(r):
        t = math.pi * math.log(r / b) / L
        q = math.sin(t) * r ** -k
        dq = (math.pi / L * math.cos(t) - k * math.sin(t)) * r ** (-k - 1)
        return (dq * dq - (N - 1) * q * q / r ** 2
                + wt0 / eta ** 2 * q * q) * r ** (N - 1)

    return quad(integrand, b, a, limit=200, epsabs=0.0, epsrel=1e-12)[0]


def test_equator_exact_energy():
    a, b = 0.1, 0.1 * math.exp(-4.0)
    for N in range(2, 8):
        rec = equator_instability_value(N, LIN, 1.0, a, b)
        ref = _equator_trial_energy(N, 1.0, 1.0, a, b)
        assert abs(rec.exact - ref) < 1e-8 * abs(ref)
        assert rec.exact <= rec.closed_form
        # the assembled contraction converges to the exact energy
        assert abs(rec.discrete - rec.exact) < 3e-3 * abs(rec.exact)
    # a wider annulus and a steeper penalty, where the a^2 majorant is loose
    rec = equator_instability_value(4, LIN, 0.5, 0.5, 0.5 * math.exp(-3.0))
    ref = _equator_trial_energy(4, 1.0, 0.5, 0.5, 0.5 * math.exp(-3.0))
    assert abs(rec.exact - ref) < 1e-8 * abs(ref)
    assert rec.exact < rec.closed_form


def test_equator_positive_high_dimension():
    rec = equator_instability_value(7, LIN, 1.0, 0.1, 0.1 * math.exp(-4.0))
    assert rec.closed_form > 0


def test_equator_validation():
    with pytest.raises(InputError):
        equator_instability_value(3, LIN, 1.0, 0.9, 0.95)
    with pytest.raises(InputError):
        equator_instability_value(3, LIN, -1.0, 0.1, 0.01)
    with pytest.raises(InputError):
        equator_instability_value(1, LIN, 1.0, 0.1, 0.01)
    # NaN passed the old `eta <= 0` test and gave a record of NaNs
    with pytest.raises(InputError, match="eta must be positive"):
        equator_instability_value(3, "linear", math.nan, 0.5, 0.01)


# ---------------------------------------------------------------------------
# spectrum summaries


def test_summary_gl_stable():
    for N, eps in ((2, 0.3), (7, 0.5)):
        grid = make_grid(N, 800, {"graded": 2.0})
        prof = solve_gl_profile(N, QUAD, eps, grid)
        rep = spectrum_summary(prof, QUAD, None, eps, None,
                               lam_max=2.0 * N)
        assert rep.verdict == "PositiveDefinite"
        assert all(v > 0 for v in rep.min_eigenvalues)
        assert rep.divfree_ok
        assert rep.lam_values[0] == 0.0


def test_summary_sphere_stable():
    grid = make_grid(3, 800, {"graded": 2.0})
    prof = solve_sphere_profile(3, LIN, 1.0, grid)
    rep = spectrum_summary(prof, None, LIN, None, 1.0)
    assert rep.verdict == "PositiveDefinite"
    assert all(v > 0 for v in rep.min_eigenvalues)


def test_summary_kernel_at_boundary(eps0_n3):
    grid = make_grid(3, 800, {"graded": 2.0})
    eps = eps0_n3 / 2
    ell, _, _ = gl_linearization_eigenvalue(3, QUAD, eps, grid)
    eta_star = math.sqrt(LIN.eval(0.0, 1) / abs(ell))
    non = solve_extended_profile(3, QUAD, LIN, eps, eta_star, grid,
                                 branch_hint="non_escaping")
    rep = spectrum_summary(non, QUAD, LIN, eps, eta_star)
    assert rep.verdict == "Kernel(1)"
    assert rep.kernel_dim == 1
    q = rep.kernel["q"]
    inner = q[1:-1]
    assert np.all(inner > -1e-10 * np.max(np.abs(inner)))   # sign-definite
    data = json.loads(rep.to_json())
    assert data["verdict"] == "Kernel(1)"
    assert data["kernel_csv"].splitlines()[0].startswith("r,")


def test_summary_report_json(escaping_profile, escaping_point):
    eps, eta, _ = escaping_point
    rep = spectrum_summary(escaping_profile, QUAD, LIN, eps, eta, lam_max=2.0)
    data = json.loads(rep.to_json())
    assert data["verdict"] == "PositiveDefinite"
    assert data["lambda"] == [0.0, 2.0]
    assert len(data["min_eigenvalues"]) == 2
    assert len(data["refinement_shifts"]) == 2
    assert data["ell"] < 0
    assert data["kernel_csv"] is None


def test_mode_ordering(escaping_profile, escaping_point):
    eps, eta, _ = escaping_point
    rep = spectrum_summary(escaping_profile, QUAD, LIN, eps, eta,
                           lam_max=12.0)
    assert rep.lam_values == (0.0, 2.0, 6.0, 12.0)
    rest = [v for lam, v in zip(rep.lam_values, rep.min_eigenvalues)
            if lam >= 2.0]
    assert all(b >= a for a, b in zip(rest, rest[1:]))


@pytest.mark.parametrize("N", [2, 3, 5])
def test_blocks_grow_in_loewner_order_from_n_minus_1(N):
    # the argument behind spectrum_summary's verdict: with psi scaled to
    # phi = sqrt(lambda) psi, M does not depend on lambda >= N - 1 and
    # A(lambda') - A(lambda) is positive definite, so the smallest
    # eigenvalue of the blocks above N - 1 cannot fall below that at N - 1
    grid = make_grid(N, 120, {"graded": 2.0})
    eps = 0.1 if N < 5 else 0.04        # inside each N's escaping region
    models = {
        "gl": (solve_gl_profile(N, QUAD, 0.3, grid), QUAD, None, 0.3, None),
        "escaping": (solve_extended_profile(N, QUAD, LIN, eps, 1.0, grid),
                     QUAD, LIN, eps, 1.0),
        "non_escaping": (solve_extended_profile(
            N, QUAD, LIN, eps, 1.0, grid, branch_hint="non_escaping"),
            QUAD, LIN, eps, 1.0),
        "sphere": (solve_sphere_profile(N, LIN, 1.0, grid), None, LIN, None,
                   1.0),
    }
    assert models["escaping"][0].branch == "escaping"
    lams = [float(k * (k + N - 2)) for k in (1, 2, 3)]
    for kind, (prof, *params) in models.items():
        scaled = []
        for lam in lams:
            blk = mode_block(prof, *params, lam)
            d = np.ones(blk.size)
            d[blk.fields.index("psi")::len(blk.fields)] = 1.0 / math.sqrt(lam)
            D = np.diag(d)
            scaled.append([D @ np.column_stack([sym_matvec(X, c) for c in D])
                           for X in (blk.A, blk.M)])
        M0 = scaled[0][1]
        for _, M in scaled[1:]:
            assert np.all(np.abs(M - M0) <= 1e-15 * np.abs(M0)), kind
        e = 1.0 / np.sqrt(np.diag(M0))
        for (A, _), (A2, _) in zip(scaled, scaled[1:]):
            gap = np.linalg.eigvalsh(e[:, None] * (A2 - A) * e[None, :])[0]
            assert gap > 0, (kind, gap)


def test_translation_trial_small(escaping_profile, escaping_point):
    # d/dx of the solution generates a near-kernel field at the first
    # harmonic level; windowed to satisfy the boundary conditions it stays
    # within a small factor of the block minimum
    eps, eta, _ = escaping_point
    grid = escaping_profile.grid
    r = grid.nodes
    x = np.clip((0.95 - r) / 0.45, 0.0, 1.0)
    win = x * x * (3 - 2 * x)
    tr = {"s": grid.node_gradient(escaping_profile.f) * win,
          "psi": escaping_profile.f / r * win,
          "q": grid.node_gradient(escaping_profile.g) * win}
    val = mode_form_value(escaping_profile, QUAD, LIN, eps, eta, 2.0, tr)
    md, mo = grid.p1_mass(0)
    mass = 0.0
    for name, u in tr.items():
        w = 2.0 if name == "psi" else 1.0
        mass += w * (float(md @ (u * u)) + 2 * float(mo @ (u[:-1] * u[1:])))
    blk = mode_block(escaping_profile, QUAD, LIN, eps, eta, 2.0)
    lo = mode_min_eigenvalue(blk)
    assert val >= lo * mass * (1 - 1e-10)     # Rayleigh lower bound
    assert val / mass < 3.0 * lo              # and genuinely close to it


def test_unconverged_profile_rejected(escaping_profile, escaping_point):
    eps, eta, _ = escaping_point
    from dataclasses import replace
    bad = replace(escaping_profile, residual_norm=1.0)
    with pytest.raises(InputError):
        mode_block(bad, QUAD, LIN, eps, eta, 0.0)


def test_decomposition_of_combined_trial(escaping_profile, escaping_point):
    eps, eta, _ = escaping_point
    rng = np.random.default_rng(11)
    grid = escaping_profile.grid
    trials = {}
    for lam in (0.0, 2.0, 6.0):
        fields = ("s", "q") if lam == 0 else ("s", "psi", "q")
        trials[lam] = _random_trial(rng, grid, fields)
    joint, total = decomposition_check(escaping_profile, QUAD, LIN, eps, eta,
                                       trials)
    assert abs(joint - total) <= 1e-8 * (abs(joint) + abs(total))
    # a trial that lacks one of its level's fields is refused by name
    del trials[2.0]["psi"]
    with pytest.raises(InputError, match=r"\['psi'\]"):
        decomposition_check(escaping_profile, QUAD, LIN, eps, eta, trials)
