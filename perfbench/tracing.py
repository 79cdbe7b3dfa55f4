"""In-memory spans around vortexlab's layer functions, set from outside.

`Tracer.install()` replaces each traced function by a wrapper in every
vortexlab module that holds it (so `stability.pencil_smallest` and
`phase.solve_extended_profile` are wrapped as well as their defining names),
and `uninstall()` puts the originals back. Spans nest strictly (one thread),
so a span's self time is its duration minus that of its direct children.
"""
from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter
from dataclasses import dataclass, field

MODULES = ("core", "profiles", "spectral", "phase", "stability", "cli")

# (module, function) -> span name; None: counted, but no span of its own
TRACED = {
    ("cli", "main"): "cli.main",
    ("cli", "_cache_load"): None,
    ("core", "make_grid"): "core.make_grid",
    ("profiles", "solve_gl_profile"): "profiles.solve_gl",
    ("profiles", "solve_extended_profile"): "profiles.solve_extended",
    ("profiles", "solve_sphere_profile"): "profiles.solve_sphere",
    ("profiles", "reduced_energy_gl"): "profiles.reduced_energy",
    ("profiles", "reduced_energy_extended"): "profiles.reduced_energy",
    ("profiles", "reduced_energy_mm"): "profiles.reduced_energy",
    ("spectral", "gl_linearization_eigenvalue"):
        "spectral.gl_linearization_eigenvalue",
    ("spectral", "find_epsilon0"): "spectral.find_epsilon0",
    ("spectral", "assemble_radial_operator"):
        "spectral.assemble_radial_operator",
    ("spectral", "pencil_smallest"): "spectral.pencil",     # tri or block
    ("phase", "sweep"): "phase.sweep",
    ("stability", "spectrum_summary"): "stability.spectrum_summary",
    ("stability", "mode_block"): "stability.mode_block",
}


@dataclass
class Span:
    name: str
    op: int                       # request index; spans of a request share it
    parent: int | None            # index of the span that caused this one
    start: float
    end: float = 0.0
    child: float = 0.0            # time covered by direct children
    counts: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child


def _newton_counts(trace) -> dict:
    """Newton entries are (stage, it, norm, alpha), one per step. A stage is
    counted at its first step (it=0). A stage whose start point already meets
    the tolerance takes no step and leaves no entry, so it is not counted."""
    steps = [t for t in trace if len(t) == 4 and isinstance(t[0], str)]
    return {"newton_iters": len(steps),
            "newton_stages": sum(1 for t in steps if t[1] == 0)}


def _bisect_steps(trace) -> int:
    """Bisection entries of pencil_smallest are (lo, hi, count)."""
    return sum(1 for t in trace if len(t) == 3)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = -1
        self.cache: list = []         # (request index, hit) per cache lookup
        self._saved: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"vortexlab.{m}") for m in MODULES}
        for (mod, attr), name in TRACED.items():
            original = getattr(mods[mod], attr)
            wrapper = self._wrap(original, name)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._saved.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for m, key, original in reversed(self._saved):
            setattr(m, key, original)
        self._saved.clear()

    def _wrap(self, fn, name):
        if name is None:                      # cli._cache_load
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                if os.environ.get("VORTEXLAB_CACHE_DIR"):
                    self.cache.append((self.op, out is not None))
                return out
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if name == "spectral.pencil":
                span_name += "_tri" if args[0].shape[0] == 2 else "_block"
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            span = Span(span_name, self.op, parent, time.perf_counter())
            self.spans.append(span)
            self.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
                if parent is not None:
                    self.spans[parent].child += span.end - span.start
            if span_name.startswith("profiles.solve_"):
                span.counts = _newton_counts(out.solver_trace)
            elif span_name.startswith("spectral.pencil_"):
                span.counts = {"bisect": _bisect_steps(out[3])}
            return out
        return traced

    # -- reduction ---------------------------------------------------------

    def _under(self, span: Span, name: str) -> bool:
        p = span.parent
        while p is not None:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

    def _named(self, name: str) -> list:
        return [s for s in self.spans if s.name == name]

    def op_counters(self) -> list:
        """Exact work counters per request, in request order."""
        per = {}
        for op, hit in self.cache:
            per.setdefault(op, Counter())["cache_hits"] += hit
        for s in self.spans:
            c = per.setdefault(s.op, Counter())
            c.update(s.counts)
            if s.name == "stability.mode_block":
                c["blocks"] += 1
            if (s.name == "spectral.gl_linearization_eigenvalue"
                    and self._under(s, "spectral.find_epsilon0")):
                c["threshold_ell_evals"] += 1
        return [dict(sorted(per[k].items())) for k in sorted(per)]

    def layer_metrics(self) -> dict:
        """Per-layer metrics of BENCHMARK.json, as {name: value}."""
        def calls(name):
            return len(self._named(name))

        def self_s(name):
            return sum(s.self_s for s in self._named(name))

        def total(name, key, spans=None):
            spans = self._named(name) if spans is None else spans
            return sum(s.counts.get(key, 0) for s in spans)

        def ratio(a, b):
            return a / b if b else 0.0

        solvers = [s for s in self.spans if s.name.startswith("profiles.solve_")]
        sweep_ids = {i for i, s in enumerate(self.spans) if s.name == "phase.sweep"}
        confirms = [s for s in self._named("profiles.solve_extended")
                    if s.parent in sweep_ids]
        thresholds = calls("spectral.find_epsilon0")
        summaries = calls("stability.spectrum_summary")
        m = {
            "core.make_grid.calls": calls("core.make_grid"),
            "core.make_grid.self_s": self_s("core.make_grid"),
        }
        for short in ("gl", "extended", "sphere"):
            m[f"profiles.solve_{short}.calls"] = calls(f"profiles.solve_{short}")
            m[f"profiles.solve_{short}.self_s"] = self_s(f"profiles.solve_{short}")
        m["profiles.newton_iters"] = total(None, "newton_iters", solvers)
        m["profiles.newton_stages"] = total(None, "newton_stages", solvers)
        for fn in ("gl_linearization_eigenvalue", "find_epsilon0"):
            m[f"spectral.{fn}.calls"] = calls(f"spectral.{fn}")
            m[f"spectral.{fn}.self_s"] = self_s(f"spectral.{fn}")
        m["spectral.assemble_radial_operator.self_s"] = self_s(
            "spectral.assemble_radial_operator")
        for kind in ("tri", "block"):
            name = f"spectral.pencil_{kind}"
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.self_s"] = self_s(name)
            m[f"spectral.bisect_per_pencil_{kind}"] = ratio(
                total(name, "bisect"), calls(name))
        m["spectral.ell_evals_per_threshold"] = ratio(
            sum(1 for s in self._named("spectral.gl_linearization_eigenvalue")
                if self._under(s, "spectral.find_epsilon0")), thresholds)
        m["phase.sweep.self_s"] = self_s("phase.sweep")
        m["phase.columns"] = sum(
            1 for s in self._named("spectral.gl_linearization_eigenvalue")
            if s.parent in sweep_ids)
        m["phase.confirms"] = len(confirms)
        m["phase.newton_stages_per_confirm"] = ratio(
            total(None, "newton_stages", confirms), len(confirms))
        m["stability.spectrum_summary.calls"] = summaries
        m["stability.spectrum_summary.self_s"] = self_s("stability.spectrum_summary")
        m["stability.mode_block.calls"] = calls("stability.mode_block")
        m["stability.mode_block.self_s"] = self_s("stability.mode_block")
        m["stability.blocks_per_summary"] = ratio(
            sum(1 for s in self._named("stability.mode_block")
                if self._under(s, "stability.spectrum_summary")), summaries)
        m["cli.main.calls"] = calls("cli.main")
        m["cli.self_s"] = self_s("cli.main")
        hits = sum(hit for _, hit in self.cache)
        m["cli.cache_hits"] = hits
        m["cli.cache_hit_ratio"] = ratio(hits, len(self.cache))
        return m

    def layer_shares(self) -> dict:
        """Self time of each layer as a share of all request time."""
        top = sum(s.end - s.start for s in self.spans if s.parent is None)
        shares = Counter()
        for s in self.spans:
            shares[s.name] += s.self_s
        by_layer = Counter()
        for name, t in shares.items():
            by_layer[name.split(".")[0]] += t
        return {"spans": {k: v / top for k, v in sorted(shares.items())},
                "layers": {k: v / top for k, v in sorted(by_layer.items())},
                "total_s": top} if top else {}

    def dump(self) -> list:
        return [{"name": s.name, "op": s.op, "parent": s.parent,
                 "start": s.start, "end": s.end, "self_s": s.self_s,
                 **s.counts} for s in self.spans]
