"""Workloads of the vortexlab benchmark: seeded CLI requests and their checks.

A run repeats one round of requests: every round of a run is the same list of
requests, so the rates and percentiles of a run do not depend on how many
rounds fit into it, and each repeat also checks that the program's output
does not change. The seed only generates inputs: `setup_inputs(workload,
seed)` and `round_ops(workload, seed, inputs)` give the same requests for the
same seed.

Each request is checked on its artifacts after it returns; `check` raises
`CheckError` when an output is wrong and returns the error against an analytic
reference for the requests that have one.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass, field

PI_SQ = math.pi ** 2
J0_ZERO_SQ = 5.783185962946785          # first zero of J0, squared
ANCHORS = {2: (J0_ZERO_SQ, 1e-3), 3: (PI_SQ, 1e-6)}   # tests/test_acceptance.py

# which end-to-end metric each layer metric should move, and where
MAPPING = [
    {"layer": ["spectral.pencil_block.self_s", "spectral.bisect_per_pencil_block"],
     "moves": ["ops_per_s", "op_p50_s"], "on": ["stability"],
     "not_on": ["phase", "requests"]},
    {"layer": ["spectral.pencil_tri.self_s", "spectral.ell_evals_per_threshold"],
     "moves": ["ops_per_s"], "on": ["threshold"], "not_on": ["requests"]},
    {"layer": ["profiles.newton_stages", "phase.newton_stages_per_confirm"],
     "moves": ["ops_per_s"], "on": ["phase"],
     "not_on": ["threshold", "stability"]},
    {"layer": ["stability.mode_block.self_s"], "moves": ["op_p50_s"],
     "on": ["stability"], "not_on": []},
    {"layer": ["core.make_grid.self_s", "cli.self_s", "cli.cache_hit_ratio"],
     "moves": ["op_p50_s", "setup_s"], "on": ["requests"],
     "not_on": ["threshold", "phase", "stability"]},
    {"layer": ["dense-eigensolver substitute"],
     "moves": ["peak_rss_mb", "ref_err"], "on": ["stability", "threshold"],
     "not_on": []},
]

# the stability grid (ROADMAP sizing) and mode range of the stability
# requests. lambda <= 2 (the radial and the first angular mode, where the
# verdicts are decided) keeps a request near 4 s, so a run holds two rounds;
# every extended block is still a bandwidth > 1 pencil
STAB_GRID = ["--grid-n", "400", "--grid-grading", "graded:3.0",
             "--lambda-max", "2.0"]
# the phase lattice of acceptance 06
PHASE_ARGS = ["phase", "sweep", "--N", "3", "--W", "quadratic", "--Wt",
              "linear", "--eps", "0.05:0.45:20", "--eta", "0.1:1.0:20",
              "--confirm", "1.0", "--grid-n", "800"]
REQUEST_REPEATS = 6      # cache-hit requests per round of `requests`


class CheckError(Exception):
    """An artifact is missing or wrong."""


@dataclass(frozen=True)
class Op:
    argv: tuple                  # CLI arguments without --outdir
    check: str                   # name of the check in CHECKS
    expect: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


# ---------------------------------------------------------------------------
# set-up: inputs that need a program result


def setup_inputs(workload: str, seed: int) -> dict:
    """Inputs computed before the first request (counted in setup_s)."""
    if workload != "stability":
        return {}
    from vortexlab import (Potential, find_epsilon0,
                           gl_linearization_eigenvalue, make_grid)
    W, Wt = Potential.quadratic(), Potential.linear()
    eps = find_epsilon0(3, W, (0.05, 1.0)) / 2
    grid = make_grid(3, int(STAB_GRID[1]), {"graded": 3.0})
    ell = gl_linearization_eigenvalue(3, W, eps, grid)[0]
    eta_star = math.sqrt(float(Wt.eval(0.0, 1)) / abs(ell))
    return {"eps": eps, "eta_star": eta_star}


# ---------------------------------------------------------------------------
# rounds


def _anchor(N: int) -> Op:
    return Op(("eigen", "--N", str(N), "--W", "zero", "--eps", "1.0"),
              "anchor", {"N": N})


def _threshold_round(seed, inputs):
    rng = _rng("threshold", seed)
    ops = []
    # two windows at N = 2 and 3, where the median request falls: their cost
    # moves by up to 20 % with the window's lower end, so the median rests
    # on four windows instead of two
    for N in (2, 2, 3, 3, 4, 5):
        lo, hi = rng.uniform(0.05, 0.06), rng.uniform(0.95, 1.05)
        argv = ["eigen", "--N", str(N), "--W", "quadratic", "--eps-sweep",
                f"{lo:.4f}:{hi:.4f}:12", "--find-threshold"]
        if N >= 4:      # the default grading fails find_epsilon0's r_min check
            argv += ["--grid-grading", "graded:3.0"]
        ops.append(Op(tuple(argv), "threshold"))
    ops += [_anchor(2), _anchor(3)]
    rng.shuffle(ops)
    return ops


def _phase_round(seed, inputs):
    # the lattice is pinned: shifting its eta window by 10-20 % changes the
    # confirmation cost by up to a third, which would swamp the bounds
    return [Op(tuple(PHASE_ARGS + ["--seed", str(seed)]), "phase")]


def _stability_round(seed, inputs):
    eps, es = inputs["eps"], inputs["eta_star"]
    ext = ["stability", "--N", "3", "--W", "quadratic", "--Wt", "linear"]
    ops = [
        Op(tuple(ext + ["--point", f"eps={eps!r},eta={2 * es!r}", "--branch",
                        "escaping"] + STAB_GRID), "stability",
           {"verdict": "PositiveDefinite"}),
        Op(tuple(ext + ["--point", f"eps={eps!r},eta={2 * es!r}", "--branch",
                        "non_escaping"] + STAB_GRID), "stability",
           {"verdict": "Indefinite"}),
        Op(tuple(ext + ["--point", f"eps={eps!r},eta={es!r}", "--branch",
                        "non_escaping"] + STAB_GRID), "stability",
           {"verdict": "Kernel(1)"}),
    ]
    rng = _rng("stability", seed)
    ops += [Op(("stability", "--N", "3", "--Wt", wt, "--point",
                f"eta={rng.uniform(0.9, 1.1):.4f}", *STAB_GRID),
               "stability", {"verdict": "PositiveDefinite"})
            for wt in ("linear", "quadratic")]
    rng.shuffle(ops)
    return ops


def _requests_round(seed, inputs):
    rng = _rng("requests", seed)
    u = lambda a, b: f"{rng.uniform(a, b):.4f}"     # noqa: E731
    ext = ["--N", "3", "--W", "quadratic", "--Wt", "linear"]
    unique = [
        Op(("profile", "--N", "3", "--W", "quadratic", "--eps", u(0.15, 0.6)),
           "gl_profile"),
        Op(("profile", "--N", "3", "--W", "quadratic", "--eps", u(0.15, 0.6)),
           "gl_profile"),
        Op(("profile", "--N", "2", "--W", "quadratic", "--eps", u(0.15, 0.6)),
           "gl_profile"),
        Op(("profile", *ext, "--eps", u(0.08, 0.12), "--eta", u(0.7, 1.0)),
           "ext_profile"),
        Op(("profile", *ext, "--eps", u(0.08, 0.12), "--eta", u(0.7, 1.0)),
           "ext_profile"),
        Op(("profile", "--N", "3", "--Wt", "linear", "--eta", u(0.7, 1.5)),
           "sphere_profile"),
        Op(("profile", "--N", "3", "--Wt", "quadratic", "--eta", u(0.7, 1.5)),
           "sphere_profile"),
        Op(("profile", "--N", "2", "--W", "zero", "--eps", "1.0"),
           "zero_profile"),
        Op(("profile", "--N", "3", "--W", "zero", "--eps", "1.0"),
           "zero_profile"),
        Op(("eigen", "--N", "3", "--W", "quadratic", "--eps", u(0.1, 0.6)),
           "eigen"),
        Op(("eigen", "--N", "3", "--W", "quadratic", "--eps", u(0.1, 0.6)),
           "eigen"),
        _anchor(2), _anchor(3),
    ]
    energy = [
        Op(("energy", "--N", "3", "--W", "quadratic", "--eps", u(0.15, 0.6)),
           "energy"),
        Op(("energy", *ext, "--eps", u(0.08, 0.12), "--eta", u(0.7, 1.0)),
           "ext_energy"),
        Op(("energy", "--N", "3", "--Wt", "linear", "--eta", u(0.7, 1.5)),
           "energy"),
    ]
    ops = unique + energy
    rng.shuffle(ops)
    # each repeat goes somewhere after its first occurrence: a cache hit
    for op in rng.sample(unique, REQUEST_REPEATS):
        first = ops.index(op)
        ops.insert(rng.randint(first + 1, len(ops)), op)
    return ops


ROUNDS = {"threshold": _threshold_round, "phase": _phase_round,
          "stability": _stability_round, "requests": _requests_round}
WORKLOADS = tuple(ROUNDS)
CACHED = {"requests"}        # workloads that run with VORTEXLAB_CACHE_DIR set
# The phase sweep has no analytic reference, but every run reports ref_err:
# phase runs take it from one pi^2 anchor after the timed rounds, which is
# checked but is not a latency sample.
REFERENCE = {"phase": (_anchor(3),)}


def round_ops(workload: str, seed: int, inputs: dict) -> list:
    return ROUNDS[workload](seed, inputs)


# ---------------------------------------------------------------------------
# output checks: each returns the reference error or None


def _rows(path: str) -> list:
    with open(path) as fh:
        text = "".join(line for line in fh if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(text)))


def _col(rows, name) -> list:
    return [float(r[name]) for r in rows]


def _json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def _increasing(xs, strict=True) -> bool:
    return all((b > a) if strict else (b >= a - 1e-12)
               for a, b in zip(xs, xs[1:]))


def _check_anchor(out, op):
    ev = _col(_rows(os.path.join(out, "eigen.csv")), "eigenvalue")[0]
    ref, tol = ANCHORS[op.expect["N"]]
    err = abs(ev - ref)
    _need(err < tol, f"anchor off by {err:.3e} (tol {tol:g})")
    return err


def _sign_change(eps, ev):
    for i in range(len(ev) - 1):
        if ev[i] < 0 <= ev[i + 1]:
            return eps[i], eps[i + 1]
    raise CheckError("no sign change in the sweep")


def _check_threshold(out, op):
    rows = _rows(os.path.join(out, "eigen.csv"))
    eps, ev = _col(rows, "eps"), _col(rows, "eigenvalue")
    _need(_increasing([e * e * v for e, v in zip(eps, ev)]),
          "eps^2 * eigenvalue not strictly increasing")
    lo, hi = _sign_change(eps, ev)
    eps0 = _json(os.path.join(out, "eigen.json"))["eps0"]
    _need(lo <= eps0 <= hi, f"eps0={eps0} outside the sign change [{lo}, {hi}]")
    return None


def _check_phase(out, op):
    rows = _rows(os.path.join(out, "phase.csv"))
    _need(len(rows) == 400, f"{len(rows)} phase points, expected 400")
    diag = _json(os.path.join(out, "phase.manifest.json"))["diagnostics"]
    non_boundary = sum(r["class"] != "Boundary" for r in rows)
    _need(diag["confirmed"] == non_boundary,
          f"{diag['confirmed']}/{non_boundary} non-boundary points confirmed")
    classes = {r["class"] for r in rows}
    _need({"Escaping", "NonEscaping"} <= classes, f"classes {sorted(classes)}")
    # Wt = linear, so ell = criterion - 1/eta^2 on every point of a column
    ell = {}
    for r in rows:
        ell.setdefault(float(r["eps"]),
                       float(r["criterion"]) - 1.0 / float(r["eta"]) ** 2)
    eps = sorted(ell)
    lo, hi = _sign_change(eps, [ell[e] for e in eps])
    eps0 = diag["eps0"]
    _need(eps0 is not None and lo <= eps0 <= hi,
          f"eps0={eps0} outside the sign change [{lo}, {hi}]")
    with open(os.path.join(out, "phase.svg")) as fh:
        _need(fh.read().rstrip().endswith("</svg>"), "truncated phase.svg")
    return None


def _check_stability(out, op):
    rep = _json(os.path.join(out, "stability.json"))
    want = op.expect["verdict"]
    _need(rep["verdict"] == want, f"verdict {rep['verdict']}, expected {want}")
    mins = rep["min_eigenvalues"]
    if want == "PositiveDefinite":
        _need(all(v > 1e-6 for v in mins), "a block minimum is not positive")
    if want.startswith("Kernel"):
        # at eta* the lambda=0 block has an exact zero eigenvalue
        _need(rep["kernel_csv"], "kernel profile missing")
        return min(abs(v) for v in mins)
    return None


def _profile(out):
    return _rows(os.path.join(out, "profile.csv"))


def _check_gl_profile(out, op):
    f = _col(_profile(out), "f")
    _need(_increasing(f, strict=False), "f not monotone")
    _need(f[-1] == 1.0 and min(f) >= 0.0, "f outside [0, 1] or f(1) != 1")
    return None


def _check_zero_profile(out, op):
    rows = _profile(out)
    err = max(abs(f - r) for f, r in zip(_col(rows, "f"), _col(rows, "r")))
    _need(err < 1e-8, f"zero-well profile off f=r by {err:.3e}")
    return err


def _check_ext_profile(out, op):
    rows = _profile(out)
    f, g = _col(rows, "f"), _col(rows, "g")
    _need(max(g) > 1e-3 and min(g) >= 0.0, "not on the escaping branch")
    _need(max(a * a + b * b for a, b in zip(f[:-1], g[:-1])) < 1.0,
          "f^2 + g^2 reaches 1 inside the ball")
    return None


def _check_sphere_profile(out, op):
    theta = _col(_profile(out), "theta")
    _need(_increasing(theta), "theta not increasing")
    _need(abs(theta[-1] - 0.5 * math.pi) < 1e-12, "theta(1) != pi/2")
    return None


def _check_eigen(out, op):
    ev = _col(_rows(os.path.join(out, "eigen.csv")), "eigenvalue")[0]
    eps = float(op.argv[op.argv.index("--eps") + 1])
    # quadratic well: W'(1) = 1 bounds the eigenvalue below by -1/eps^2
    _need(math.isfinite(ev) and ev > -1.0 / eps ** 2, f"eigenvalue {ev}")
    return None


def _check_energy(out, op):
    data = _json(os.path.join(out, "energy.json"))
    _need(math.isfinite(data["energy"]) and data["energy"] > 0,
          f"energy {data['energy']}")
    return None


def _check_ext_energy(out, op):
    data = _json(os.path.join(out, "energy.json"))
    _need(data["escaping_branch_found"] and data["gap"] > 0,
          f"gap {data['gap']}, escaping found {data['escaping_branch_found']}")
    return None


CHECKS = {"anchor": _check_anchor, "threshold": _check_threshold,
          "phase": _check_phase, "stability": _check_stability,
          "gl_profile": _check_gl_profile, "zero_profile": _check_zero_profile,
          "ext_profile": _check_ext_profile,
          "sphere_profile": _check_sphere_profile, "eigen": _check_eigen,
          "energy": _check_energy, "ext_energy": _check_ext_energy}


def check(op: Op, outdir: str):
    """Reference error of the request's output, or None; raises CheckError."""
    try:
        return CHECKS[op.check](outdir, op)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        raise CheckError(f"{type(exc).__name__}: {exc}") from exc
