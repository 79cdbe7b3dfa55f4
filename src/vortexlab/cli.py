"""Command-line surface: reproducible experiment runs emitting CSV/JSON/SVG.

Every run resolves its arguments into a RunConfig, emits the artifacts for
its subcommand, and writes a manifest echoing the fully resolved
configuration plus solver diagnostics. Outputs are deterministic: identical
configs give byte-identical CSV/JSON payloads (timestamps never appear).
"""
from __future__ import annotations

import argparse
import copy
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .core import (DEFAULT_GRID, InputError, Potential, VortexLabError,
                   _parse_grading, make_grid)
from .phase import axis_samples, sweep as phase_sweep
from .profiles import (SolverOptions, profile_to_csv, reduced_energy_extended,
                       reduced_energy_gl, reduced_energy_mm,
                       solve_extended_profile, solve_gl_profile,
                       solve_sphere_profile)
from .spectral import (find_epsilon0, linearization_eigenvalue_sweep,
                       sweep_to_csv)
from .stability import sphere_eigenvalues, spectrum_summary

_COMMANDS = ("profile", "eigen", "phase", "stability", "energy")
# the commands whose payload VORTEXLAB_CACHE_DIR keeps
_CACHED = ("profile", "eigen")
# the potentials eigen, phase and stability take when --W or --Wt is not given
_DEFAULT_POTENTIALS = {"W": "quadratic", "Wt": "linear"}


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
    grid: dict = field(default_factory=lambda: copy.deepcopy(DEFAULT_GRID))
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
        if self.seed < 0:
            raise InputError("--seed must be >= 0")
        if self.lam_max is not None:    # refused before any solve
            sphere_eigenvalues(self.N, self.lam_max)
        _solver_options(self)
        if self.find_threshold and not (isinstance(self.eps, dict)
                                        and self.eps["count"] >= 2):
            raise InputError("--find-threshold needs a bracket: give "
                             "--eps-sweep LO:HI:COUNT with COUNT >= 2")


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
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InputError(f"range bounds must be finite, got {text!r}")
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
        k = k.strip()
        if k in out:
            raise InputError(f"--point repeats key {k!r}, in {text!r}")
        out[k] = _number(v)
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
        sp.add_argument("--grid-n", type=int, default=DEFAULT_GRID["n"])
        sp.add_argument("--grid-grading", default=DEFAULT_GRID["grading"],
                        help="uniform or graded:BETA")
        sp.add_argument("--tol", type=float, default=1e-10)
        sp.add_argument("--max-iter", type=int, default=60)
        sp.add_argument("--outdir", default=".")

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
                    help="also find the eigenvalue sign change eps0 "
                         "(needs --eps-sweep)")
    sp.add_argument("--jobs", type=int, default=1)

    sp = sub.add_parser("phase", help="phase-diagram commands")
    psub = sp.add_subparsers(dest="phase_command", required=True)
    sp2 = psub.add_parser("sweep", help="classify an (eps, eta) lattice")
    common(sp2)
    sp2.add_argument("--eps", required=True, metavar="LO:HI:COUNT")
    sp2.add_argument("--eta", required=True, metavar="LO:HI:COUNT")
    sp2.add_argument("--confirm", type=float, default=0.0,
                     help="fraction of points cross-checked by the solver")
    sp2.add_argument("--seed", type=int, default=0)
    sp2.add_argument("--jobs", type=int, default=1)

    sp = sub.add_parser("stability", help="second-variation spectrum report")
    common(sp)
    sp.add_argument("--point", required=True, metavar="eps=X,eta=Y")
    sp.add_argument("--branch", choices=("escaping", "non_escaping"),
                    default="escaping")
    sp.add_argument("--lambda-max", type=float, default=None, dest="lam_max",
                    help="also report the harmonics k(k+N-2) up to this "
                         "value; the verdict reads lambda = 0 and N-1, "
                         "which are always solved (default N-1)")

    sp = sub.add_parser("energy", help="reduced energy of a profile, JSON")
    common(sp)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--eta", type=float, default=None)
    sp.add_argument("--model", choices=("gl", "extended", "sphere"),
                    default=None)
    return p


def _config_from_args(ns) -> RunConfig:
    """RunConfig from the parsed flags whose names are its fields; the
    others keep their defaults. Ranges, --eps-sweep and --point are parsed
    here."""
    names = {f.name for f in fields(RunConfig)}
    cfg = RunConfig(grid=_parse_grid(ns),
                    **{k: v for k, v in vars(ns).items() if k in names})
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


# the flags each model's profile is solved from
_MODEL_FLAGS = {"gl": ("W", "eps"), "sphere": ("Wt", "eta"),
                "extended": ("W", "Wt", "eps", "eta")}


def _infer_model(cfg: RunConfig) -> str:
    """The profile model cfg names (--model) or implies by its flags; a
    potential or parameter flag the model does not read is refused."""
    if cfg.model:
        missing = [f"--{k}" for k in _MODEL_FLAGS[cfg.model]
                   if getattr(cfg, k) is None]
        if missing:
            raise InputError(f"--model {cfg.model} needs "
                             + " and ".join(missing))
        model = cfg.model
    else:
        has_w = cfg.W is not None and cfg.eps is not None
        has_wt = cfg.Wt is not None and cfg.eta is not None
        if not (has_w or has_wt):
            raise InputError("cannot infer the model: give --W/--eps for the "
                             "amplitude equation, --Wt/--eta for the sphere "
                             "map, or both for the two-field model")
        model = ("extended" if has_w and has_wt
                 else "gl" if has_w else "sphere")
    _refuse_unread(cfg, model)
    return model


def _stability_model(cfg: RunConfig) -> str:
    """stability's model: the sphere map when --point has no eps, GL when it
    has no eta, else the two-field model (unset potentials take their
    defaults)."""
    return ("sphere" if cfg.eps is None else "gl" if cfg.eta is None
            else "extended")


def _refuse_unread(cfg: RunConfig, model: str) -> None:
    """InputError naming each potential or parameter flag of cfg that the
    model does not read."""
    unread = [f"--{k}" for k in ("W", "Wt", "eps", "eta")
              if getattr(cfg, k) is not None and k not in _MODEL_FLAGS[model]]
    if unread:
        raise InputError(f"the {model} model does not read "
                         + " or ".join(unread))


def _solver_options(cfg: RunConfig) -> SolverOptions:
    return SolverOptions(tol=cfg.tol, max_iter=cfg.max_iter)


def _cache_key(cfg: RunConfig) -> str:
    """Hash of the configuration that decides a cached payload, with each
    potential in its canonical spec: flat_well:0.2, flat_well:0.20 and
    {"flat_well": 0.2} share one entry."""
    resolved = asdict(cfg)
    subset = {k: resolved[k]
              for k in ("command", "N", "eps", "eta", "model", "branch",
                        "grid", "tol", "max_iter", "find_threshold")}
    for k in ("W", "Wt"):
        spec = resolved[k]
        subset[k] = None if spec is None else Potential.from_spec(spec).spec()
    blob = json.dumps(subset, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _cache_load(cfg: RunConfig) -> dict | None:
    root = os.environ.get("VORTEXLAB_CACHE_DIR")
    path = root and os.path.join(root, _cache_key(cfg) + ".json")
    if path and os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    return None


def _cache_store(cfg: RunConfig, payload: dict) -> None:
    root = os.environ.get("VORTEXLAB_CACHE_DIR")
    if not root:
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
        "config": asdict(cfg),
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


def _potential(cfg: RunConfig, name: str) -> Potential:
    """cfg's potential W or Wt, or its default when the flag is not given."""
    return Potential.from_spec(getattr(cfg, name) or _DEFAULT_POTENTIALS[name])


def _solve_profile(cfg: RunConfig, model: str, grid, opts: SolverOptions,
                   branch: str):
    """The model's profile at cfg's potentials, eps and eta on grid (the
    two-field one on branch)."""
    if model == "gl":
        return solve_gl_profile(cfg.N, _potential(cfg, "W"), float(cfg.eps),
                                grid, opts)
    if model == "sphere":
        return solve_sphere_profile(cfg.N, _potential(cfg, "Wt"),
                                    float(cfg.eta), grid, opts)
    return solve_extended_profile(cfg.N, _potential(cfg, "W"),
                                  _potential(cfg, "Wt"), float(cfg.eps),
                                  float(cfg.eta), grid, branch_hint=branch,
                                  opts=opts)


def _run_profile(cfg: RunConfig, grid, opts: SolverOptions) -> tuple:
    prof = _solve_profile(cfg, cfg.model, grid, opts, cfg.branch)
    diag = {"residual": prof.residual_norm, "model": cfg.model}
    if cfg.model == "sphere":
        diag["no_escape"] = prof.no_escape
    elif cfg.model == "extended":
        diag.update(branch=prof.branch, flags=list(prof.flags))
    return {"profile.csv": profile_to_csv(prof)}, diag


def _run_eigen(cfg: RunConfig, grid, opts: SolverOptions) -> tuple:
    W = _potential(cfg, "W")
    if isinstance(cfg.eps, dict):
        eps_values = axis_samples((cfg.eps["lo"], cfg.eps["hi"]),
                                  cfg.eps["count"])
    else:
        eps_values = np.array([float(cfg.eps)])
    rows = linearization_eigenvalue_sweep(cfg.N, W, eps_values, grid=grid,
                                          jobs=cfg.jobs, opts=opts)
    artifacts = {"eigen.csv": sweep_to_csv(rows)}
    diag = {"count": len(rows)}
    if cfg.find_threshold:
        lo, hi = float(eps_values[0]), float(eps_values[-1])
        # the search's refinement acceptance must stay matched to what the
        # grid can resolve; the (much tighter) profile tol is not that knob
        eps0 = find_epsilon0(cfg.N, W, (lo, hi), grid=grid, opts=opts,
                             tol=max(cfg.tol, 1e-8), samples=rows)
        artifacts["eigen.json"] = json.dumps(
            {"eps0": eps0, "bracket": [lo, hi]}, indent=2) + "\n"
        diag["eps0"] = eps0
    return artifacts, diag


def _run_phase(cfg: RunConfig, grid, opts: SolverOptions) -> tuple:
    diagram = phase_sweep(cfg.N, _potential(cfg, "W"), _potential(cfg, "Wt"),
                          (cfg.eps["lo"], cfg.eps["hi"]),
                          (cfg.eta["lo"], cfg.eta["hi"]),
                          (cfg.eps["count"], cfg.eta["count"]),
                          confirm_fraction=cfg.confirm, grid=grid,
                          jobs=cfg.jobs, seed=cfg.seed, opts=opts)
    artifacts = {"phase.csv": diagram.to_csv(), "phase.svg": diagram.to_svg()}
    counts = {}
    for row in diagram.points:
        for pt in row:
            counts[pt.cls] = counts.get(pt.cls, 0) + 1
    diag = {"classes": counts, "eps0": diagram.eps0,
            "confirmed": sum(pt.confirmed for row in diagram.points
                             for pt in row)}
    return artifacts, diag


def _run_stability(cfg: RunConfig, grid, opts: SolverOptions) -> tuple:
    prof = _solve_profile(cfg, _stability_model(cfg), grid, opts, cfg.branch)
    report = spectrum_summary(prof, None, None, None, None,
                              lam_max=cfg.lam_max, opts=opts)
    artifacts = {"stability.json": report.to_json() + "\n"}
    diag = {"verdict": report.verdict,
            "profile_residual": prof.residual_norm,
            "refinement_shifts": list(report.refinement_shifts)}
    return artifacts, diag


def _run_energy(cfg: RunConfig, grid, opts: SolverOptions) -> tuple:
    model = cfg.model
    out = {"model": model, "N": cfg.N}
    if model != "extended":
        prof = _solve_profile(cfg, model, grid, opts, cfg.branch)
        if model == "gl":
            out["energy"] = reduced_energy_gl(prof, prof.well, prof.eps)
        else:
            out["energy"] = reduced_energy_mm(prof, prof.penalty, prof.eta)
            out["no_escape"] = prof.no_escape
        diag = {"residual": prof.residual_norm}
    else:
        esc, non = (_solve_profile(cfg, model, grid, opts, branch)
                    for branch in ("escaping", "non_escaping"))
        e_esc, e_non = (reduced_energy_extended(p, p.well, p.penalty, p.eps,
                                                p.eta) for p in (esc, non))
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


_RUNNERS = {"profile": _run_profile, "eigen": _run_eigen, "phase": _run_phase,
            "stability": _run_stability, "energy": _run_energy}


def run(config: RunConfig) -> int:
    """Execute one configuration; returns the exit status.

    Every command takes one path: validate, resolve the profile model
    (profile and energy; it is part of the cache key), look up the cache
    (profile and eigen), and on a miss build the grid and solver options
    once, run the command and store its payload; then emit."""
    config.validate()
    if config.command in ("profile", "energy"):
        config.model = _infer_model(config)
    elif config.command == "stability":
        _refuse_unread(config, _stability_model(config))
    payload = _cache_load(config) if config.command in _CACHED else None
    if payload is None:
        artifacts, diagnostics = _RUNNERS[config.command](
            config, make_grid(config.N, **config.grid),
            _solver_options(config))
        payload = {"artifacts": artifacts, "diagnostics": diagnostics}
        if config.command in _CACHED:
            _cache_store(config, payload)
    _emit(config, payload["artifacts"], payload["diagnostics"])
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process (it costs about 3 ms, a
    quarter of a short request). Parsing does not change the parser."""
    return build_parser()


def main(argv=None) -> int:
    try:
        ns = _parser().parse_args(argv)
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
