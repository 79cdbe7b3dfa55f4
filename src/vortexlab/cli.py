"""Command-line surface: reproducible experiment runs emitting CSV/JSON/SVG.

Every run resolves its arguments into a RunConfig, emits the artifacts for
its subcommand, and writes a manifest echoing the fully resolved
configuration plus solver diagnostics. Outputs are deterministic: identical
configs give byte-identical CSV/JSON payloads (timestamps never appear).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import (InputError, Potential, VortexLabError, _parse_grading,
                   make_grid)
from .phase import axis_samples, sweep as phase_sweep
from .profiles import (SolverOptions, profile_to_csv, reduced_energy_extended,
                       reduced_energy_gl, reduced_energy_mm,
                       solve_extended_profile, solve_gl_profile,
                       solve_sphere_profile)
from .spectral import (find_epsilon0, linearization_eigenvalue_sweep,
                       sweep_to_csv)
from .stability import spectrum_summary

_COMMANDS = ("profile", "eigen", "phase", "stability", "energy")


@dataclass
class RunConfig:
    command: str
    N: int
    W: object = None                  # potential spec (Potential.from_spec)
    Wt: object = None
    eps: object = None                # float or {"lo","hi","count"}
    eta: object = None
    model: str | None = None          # gl | extended | sphere (profile/energy)
    branch: str = "escaping"
    lam_max: float | None = None
    grid: dict = field(default_factory=lambda: {"n": 2000,
                                                "grading": {"graded": 2.0}})
    tol: float = 1e-10
    max_iter: int = 60
    confirm: float = 0.0
    seed: int = 0
    find_threshold: bool = False
    jobs: int = 1
    outdir: str = "."

    def validate(self) -> None:
        if self.command not in _COMMANDS:
            raise InputError(f"unknown command {self.command!r}")
        if not isinstance(self.N, int) or self.N < 2:
            raise InputError("N must be an integer >= 2")
        if self.W is not None:
            Potential.from_spec(self.W)
        if self.Wt is not None:
            Potential.from_spec(self.Wt)
        if not 0.0 <= self.confirm <= 1.0:
            raise InputError("--confirm must lie in [0, 1]")
        if self.jobs < 1:
            raise InputError("--jobs must be >= 1")
        if self.tol <= 0:
            raise InputError("--tol must be positive")

    def resolved(self) -> dict:
        out = asdict(self)
        return out


def _number(text: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        raise InputError(f"not a number: {text!r}") from None


def _parse_range(text: str) -> dict:
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"range must be lo:hi:count, got {text!r}")
    lo, hi = _number(parts[0]), _number(parts[1])
    count = _number(parts[2], int)
    if not (hi > lo and count >= 1):
        raise InputError(f"empty range {text!r}")
    return {"lo": lo, "hi": hi, "count": count}


def _parse_grid(ns) -> dict:
    kind, beta = _parse_grading(ns.grid_grading)
    grading = "uniform" if kind == "uniform" else {"graded": beta}
    return {"n": ns.grid_n, "grading": grading}


def _parse_point(text: str) -> dict:
    out = {}
    for part in text.split(","):
        if "=" not in part:
            raise InputError(f"--point needs key=value pairs, got {text!r}")
        k, v = part.split("=", 1)
        out[k.strip()] = _number(v)
    unknown = set(out) - {"eps", "eta"}
    if unknown:
        raise InputError(f"--point keys must be eps/eta, got {sorted(unknown)}")
    return out


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError, so they reach the JSON error path and
    exit 1 like every other bad input; --help still exits 0."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="vortexlab",
        description="Radial vortex profiles, linearization spectra, phase "
                    "diagrams, and stability reports on the unit ball.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_wt=True):
        sp.add_argument("--N", type=int, required=True)
        sp.add_argument("--W", default=None,
                        help="bulk potential: quadratic|linear|zero|"
                             "flat_well:T0|JSON")
        if needs_wt:
            sp.add_argument("--Wt", default=None,
                            help="transverse penalty spec")
        sp.add_argument("--grid-n", type=int, default=2000)
        sp.add_argument("--grid-grading", default="graded:2.0",
                        help="uniform or graded:BETA")
        sp.add_argument("--tol", type=float, default=1e-10)
        sp.add_argument("--max-iter", type=int, default=60)
        sp.add_argument("--outdir", default=".")
        sp.add_argument("--jobs", type=int, default=1)

    sp = sub.add_parser("profile", help="solve a radial profile, emit CSV")
    common(sp)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--eta", type=float, default=None)
    sp.add_argument("--model", choices=("gl", "extended", "sphere"),
                    default=None, help="default: inferred from given params")
    sp.add_argument("--branch", choices=("escaping", "non_escaping"),
                    default="escaping")

    sp = sub.add_parser("eigen", help="linearization eigenvalue(s), emit CSV")
    common(sp, needs_wt=False)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--eps-sweep", default=None, metavar="LO:HI:COUNT")
    sp.add_argument("--find-threshold", action="store_true",
                    help="also bisect for the eigenvalue sign change eps0")

    sp = sub.add_parser("phase", help="phase-diagram commands")
    psub = sp.add_subparsers(dest="phase_command", required=True)
    sp2 = psub.add_parser("sweep", help="classify an (eps, eta) lattice")
    common(sp2)
    sp2.add_argument("--eps", required=True, metavar="LO:HI:COUNT")
    sp2.add_argument("--eta", required=True, metavar="LO:HI:COUNT")
    sp2.add_argument("--confirm", type=float, default=0.0,
                     help="fraction of points cross-checked by the solver")
    sp2.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("stability", help="second-variation spectrum report")
    common(sp)
    sp.add_argument("--point", required=True, metavar="eps=X,eta=Y")
    sp.add_argument("--branch", choices=("escaping", "non_escaping"),
                    default="escaping")
    sp.add_argument("--lambda-max", type=float, default=None, dest="lam_max")

    sp = sub.add_parser("energy", help="reduced energy of a profile, JSON")
    common(sp)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--eta", type=float, default=None)
    sp.add_argument("--model", choices=("gl", "extended", "sphere"),
                    default=None)
    return p


def _config_from_args(ns) -> RunConfig:
    cfg = RunConfig(command=ns.command, N=ns.N, grid=_parse_grid(ns),
                    tol=ns.tol, max_iter=ns.max_iter, outdir=ns.outdir,
                    jobs=ns.jobs)
    cfg.W = getattr(ns, "W", None)
    cfg.Wt = getattr(ns, "Wt", None)
    cfg.eps = getattr(ns, "eps", None)
    cfg.eta = getattr(ns, "eta", None)
    cfg.model = getattr(ns, "model", None)
    cfg.branch = getattr(ns, "branch", "escaping")
    cfg.lam_max = getattr(ns, "lam_max", None)
    cfg.confirm = getattr(ns, "confirm", 0.0)
    cfg.seed = getattr(ns, "seed", 0)
    cfg.find_threshold = getattr(ns, "find_threshold", False)
    if ns.command == "eigen":
        if getattr(ns, "eps_sweep", None) is not None:
            cfg.eps = _parse_range(ns.eps_sweep)
        elif cfg.eps is None:
            raise InputError("eigen needs --eps or --eps-sweep")
    if ns.command == "phase":
        cfg.eps = _parse_range(ns.eps)
        cfg.eta = _parse_range(ns.eta)
    if ns.command == "stability":
        pt = _parse_point(ns.point)
        cfg.eps = pt.get("eps")
        cfg.eta = pt.get("eta")
    return cfg


def _infer_model(cfg: RunConfig) -> str:
    if cfg.model:
        return cfg.model
    has_w = cfg.W is not None and cfg.eps is not None
    has_wt = cfg.Wt is not None and cfg.eta is not None
    if has_w and has_wt:
        return "extended"
    if has_w:
        return "gl"
    if has_wt:
        return "sphere"
    raise InputError("cannot infer the model: give --W/--eps for the "
                     "amplitude equation, --Wt/--eta for the sphere map, "
                     "or both for the two-field model")


def _solver_options(cfg: RunConfig) -> SolverOptions:
    return SolverOptions(tol=cfg.tol, max_iter=cfg.max_iter)


def _cache_key(cfg: RunConfig) -> str:
    subset = {k: cfg.resolved()[k]
              for k in ("command", "N", "W", "Wt", "eps", "eta", "model",
                        "branch", "grid", "tol", "max_iter",
                        "find_threshold")}
    blob = json.dumps(subset, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _cache_load(cfg: RunConfig) -> dict | None:
    root = os.environ.get("VORTEXLAB_CACHE_DIR")
    if not root or cfg.command not in ("profile", "eigen"):
        return None
    path = os.path.join(root, _cache_key(cfg) + ".json")
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    return None


def _cache_store(cfg: RunConfig, payload: dict) -> None:
    root = os.environ.get("VORTEXLAB_CACHE_DIR")
    if not root or cfg.command not in ("profile", "eigen"):
        return
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, _cache_key(cfg) + ".json")
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
    os.replace(tmp, path)


def _emit(cfg: RunConfig, artifacts: dict, diagnostics: dict) -> list:
    os.makedirs(cfg.outdir, exist_ok=True)
    written = []
    for name, text in artifacts.items():
        path = os.path.join(cfg.outdir, name)
        with open(path, "w") as fh:
            fh.write(text)
        written.append(name)
    manifest = {
        "config": cfg.resolved(),
        "artifacts": sorted(written),
        "diagnostics": diagnostics,
    }
    mpath = os.path.join(cfg.outdir, cfg.command + ".manifest.json")
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(cfg.command + ".manifest.json")
    return written


# ---------------------------------------------------------------------------
# subcommand runners


def _run_profile(cfg: RunConfig) -> tuple:
    model = cfg.model = _infer_model(cfg)   # resolve before the cache key
    cached = _cache_load(cfg)
    if cached is not None:
        return cached["artifacts"], cached["diagnostics"]
    grid = make_grid(cfg.N, cfg.grid["n"], cfg.grid["grading"])
    opts = _solver_options(cfg)
    if model == "gl":
        prof = solve_gl_profile(cfg.N, Potential.from_spec(cfg.W),
                                float(cfg.eps), grid, opts)
        diag = {"residual": prof.residual_norm}
    elif model == "sphere":
        prof = solve_sphere_profile(cfg.N, Potential.from_spec(cfg.Wt),
                                    float(cfg.eta), grid, opts)
        diag = {"residual": prof.residual_norm, "no_escape": prof.no_escape}
    else:
        prof = solve_extended_profile(cfg.N, Potential.from_spec(cfg.W),
                                      Potential.from_spec(cfg.Wt),
                                      float(cfg.eps), float(cfg.eta), grid,
                                      branch_hint=cfg.branch, opts=opts)
        diag = {"residual": prof.residual_norm, "branch": prof.branch,
                "flags": list(prof.flags)}
    artifacts = {"profile.csv": profile_to_csv(prof)}
    diag["model"] = model
    _cache_store(cfg, {"artifacts": artifacts, "diagnostics": diag})
    return artifacts, diag


def _run_eigen(cfg: RunConfig) -> tuple:
    cached = _cache_load(cfg)
    if cached is not None:
        return cached["artifacts"], cached["diagnostics"]
    W = Potential.from_spec(cfg.W if cfg.W is not None else "quadratic")
    grid = make_grid(cfg.N, cfg.grid["n"], cfg.grid["grading"])
    if isinstance(cfg.eps, dict):
        eps_values = axis_samples((cfg.eps["lo"], cfg.eps["hi"]),
                                  cfg.eps["count"])
    else:
        eps_values = np.array([float(cfg.eps)])
    rows = linearization_eigenvalue_sweep(cfg.N, W, eps_values, grid=grid,
                                          jobs=cfg.jobs)
    artifacts = {"eigen.csv": sweep_to_csv(rows)}
    diag = {"count": len(rows)}
    if cfg.find_threshold:
        lo = float(eps_values[0])
        hi = float(eps_values[-1])
        # the bisection's refinement acceptance must stay matched to what the
        # grid can resolve; the (much tighter) profile tol is not that knob
        eps0 = find_epsilon0(cfg.N, W, (lo, hi), grid=grid,
                             tol=max(cfg.tol, 1e-8))
        artifacts["eigen.json"] = json.dumps(
            {"eps0": eps0, "bracket": [lo, hi]}, indent=2) + "\n"
        diag["eps0"] = eps0
    _cache_store(cfg, {"artifacts": artifacts, "diagnostics": diag})
    return artifacts, diag


def _run_phase(cfg: RunConfig) -> tuple:
    W = Potential.from_spec(cfg.W if cfg.W is not None else "quadratic")
    Wt = Potential.from_spec(cfg.Wt if cfg.Wt is not None else "linear")
    grid = make_grid(cfg.N, cfg.grid["n"], cfg.grid["grading"])
    diagram = phase_sweep(cfg.N, W, Wt,
                          (cfg.eps["lo"], cfg.eps["hi"]),
                          (cfg.eta["lo"], cfg.eta["hi"]),
                          (cfg.eps["count"], cfg.eta["count"]),
                          confirm_fraction=cfg.confirm, grid=grid,
                          jobs=cfg.jobs, seed=cfg.seed)
    artifacts = {"phase.csv": diagram.to_csv(), "phase.svg": diagram.to_svg()}
    counts = {}
    for row in diagram.points:
        for pt in row:
            counts[pt.cls] = counts.get(pt.cls, 0) + 1
    diag = {"classes": counts, "eps0": diagram.eps0,
            "confirmed": sum(pt.confirmed for row in diagram.points
                             for pt in row)}
    return artifacts, diag


def _run_stability(cfg: RunConfig) -> tuple:
    W = Potential.from_spec(cfg.W if cfg.W is not None else "quadratic")
    Wt = Potential.from_spec(cfg.Wt if cfg.Wt is not None else "linear")
    grid = make_grid(cfg.N, cfg.grid["n"], cfg.grid["grading"])
    opts = _solver_options(cfg)
    if cfg.eps is None:          # sphere-map stability at eta
        prof = solve_sphere_profile(cfg.N, Wt, float(cfg.eta), grid, opts)
        report = spectrum_summary(prof, None, Wt, None, float(cfg.eta),
                                  lam_max=cfg.lam_max)
    else:
        prof = solve_extended_profile(cfg.N, W, Wt, float(cfg.eps),
                                      float(cfg.eta), grid,
                                      branch_hint=cfg.branch, opts=opts)
        report = spectrum_summary(prof, W, Wt, float(cfg.eps),
                                  float(cfg.eta), lam_max=cfg.lam_max)
    artifacts = {"stability.json": report.to_json() + "\n"}
    diag = {"verdict": report.verdict,
            "profile_residual": prof.residual_norm,
            "refinement_shifts": list(report.refinement_shifts)}
    return artifacts, diag


def _run_energy(cfg: RunConfig) -> tuple:
    model = cfg.model = _infer_model(cfg)
    grid = make_grid(cfg.N, cfg.grid["n"], cfg.grid["grading"])
    opts = _solver_options(cfg)
    out = {"model": model, "N": cfg.N}
    if model == "gl":
        W = Potential.from_spec(cfg.W)
        prof = solve_gl_profile(cfg.N, W, float(cfg.eps), grid, opts)
        out["energy"] = reduced_energy_gl(prof, W, float(cfg.eps))
        diag = {"residual": prof.residual_norm}
    elif model == "sphere":
        Wt = Potential.from_spec(cfg.Wt)
        prof = solve_sphere_profile(cfg.N, Wt, float(cfg.eta), grid, opts)
        out["energy"] = reduced_energy_mm(prof, Wt, float(cfg.eta))
        out["no_escape"] = prof.no_escape
        diag = {"residual": prof.residual_norm}
    else:
        W = Potential.from_spec(cfg.W)
        Wt = Potential.from_spec(cfg.Wt)
        eps, eta = float(cfg.eps), float(cfg.eta)
        esc = solve_extended_profile(cfg.N, W, Wt, eps, eta, grid,
                                     branch_hint="escaping", opts=opts)
        non = solve_extended_profile(cfg.N, W, Wt, eps, eta, grid,
                                     branch_hint="non_escaping", opts=opts)
        e_esc = reduced_energy_extended(esc, W, Wt, eps, eta)
        e_non = reduced_energy_extended(non, W, Wt, eps, eta)
        out["energy_escaping"] = e_esc
        out["energy_non_escaping"] = e_non
        out["gap"] = e_non - e_esc
        out["escaping_branch_found"] = esc.branch == "escaping"
        diag = {"residual_escaping": esc.residual_norm,
                "residual_non_escaping": non.residual_norm,
                "flags": list(esc.flags)}
    artifacts = {"energy.json": json.dumps(out, indent=2, sort_keys=True)
                 + "\n"}
    return artifacts, diag


def run(config: RunConfig) -> int:
    """Execute one resolved configuration; returns the exit status."""
    config.validate()
    runner = {"profile": _run_profile, "eigen": _run_eigen,
              "phase": _run_phase, "stability": _run_stability,
              "energy": _run_energy}[config.command]
    artifacts, diagnostics = runner(config)
    _emit(config, artifacts, diagnostics)
    return 0


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        cfg = _config_from_args(ns)
        return run(cfg)
    except VortexLabError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        trace = getattr(exc, "trace", None)
        if trace:
            payload["trace"] = [list(map(str, t)) if isinstance(t, tuple)
                                else str(t) for t in trace]
        sys.stderr.write(json.dumps(payload) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
