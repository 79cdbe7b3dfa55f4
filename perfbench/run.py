"""vortexlab benchmark: closed-loop CLI requests from one client, in process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each request is one call of
`vortexlab.cli.main([...])` that writes its artifacts to a scratch directory
under `.perfbench/`, where they are checked and then removed. Requests come
in rounds (see workloads.py); every round of a run is the same list of
requests, and rounds repeat until the time is spent. Times are wall times
adjusted for machine speed (speed.py); the raw wall times are in the report.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 runs the
first round untraced and then again with spans around each layer's functions,
and prints the per-layer metrics; the difference of the two round times is
the tracing overhead. The last line of stdout is the result object; the line
before it is a report with the environment, sample counts and layer shares.
"""
import os

# one BLAS/OpenMP thread: pinned before numpy loads, inherited by set-up runs
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse                                         # noqa: E402
import hashlib                                          # noqa: E402
import json                                             # noqa: E402
import platform                                         # noqa: E402
import resource                                         # noqa: E402
import shutil                                           # noqa: E402
import statistics                                       # noqa: E402
import subprocess                                       # noqa: E402
import sys                                              # noqa: E402
import time                                             # noqa: E402
from dataclasses import dataclass                       # noqa: E402
from pathlib import Path                                # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads                                        # noqa: E402
from workloads import CheckError, Op                    # noqa: E402

SETUP_REPS = 5
SETUP_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here (no program, no BENCHMARK.json)."""


# ---------------------------------------------------------------------------
# set-up: a fresh interpreter imports vortexlab and makes the inputs


def _probe_setup(workload: str, seed: int) -> None:
    import vortexlab.cli      # numpy and scipy come with it
    if not Path(vortexlab.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"vortexlab imported from {vortexlab.cli.__file__}, not src/")
    print(json.dumps(workloads.setup_inputs(workload, seed)), flush=True)


def measure_setup(workload: str, seed: int, clock) -> tuple[list, list, dict]:
    """Wall time from interpreter start to the inputs being ready, SETUP_REPS
    times, raw and adjusted; every repetition must make the same inputs. The
    speed samples are taken between the set-up runs, not during them, so
    that they do not compete with the set-up for the CPUs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    spans, outputs = [], set()
    clock.burst()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            spans.append((t0, time.perf_counter() - t0))
            try:
                _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BenchError("set-up timed out") from None
        if proc.returncode != 0 or not line:
            raise BenchError(f"set-up failed: {err.strip()[-400:]}")
        outputs.add(line.strip())
        clock.burst()
    if len(outputs) != 1:
        raise BenchError("set-up produced different inputs on repetition")
    return ([s for _, s in spans], [clock.adjust(*s) for s in spans],
            json.loads(outputs.pop()))


# ---------------------------------------------------------------------------
# requests


@dataclass
class Record:
    op: Op
    start: float
    seconds: float
    ok: bool
    ref_err: float | None
    error: str | None
    nbytes: int


def _code_id() -> str:
    """Hash of the program and of this benchmark: stored results are only
    compared between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "vortexlab").glob("*.py"),
                        *HERE.glob("*.py")]):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Store:
    """JSON file in .perfbench/ that later runs of the same code compare
    against: artifact digests per request, work counters per seed."""

    def __init__(self, name: str):
        self.path = WORK / f"{name}-{_code_id()}.json"
        self.data = json.loads(self.path.read_text()) if self.path.exists() else {}

    def same(self, key: str, value) -> bool:
        return self.data.setdefault(key, value) == value

    def save(self) -> None:
        WORK.mkdir(exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.data, sort_keys=True))
        os.replace(tmp, self.path)


def _digest(outdir: Path) -> tuple[str, int]:
    """Digest of the artifacts (manifests echo the outdir, so they are left
    out) and the bytes of everything written."""
    h, nbytes = hashlib.sha256(), 0
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        nbytes += len(data)
        if not path.name.endswith(".manifest.json"):
            h.update(path.name.encode() + b"\0" + data)
    return h.hexdigest(), nbytes


def execute(cli, op: Op, outdir: Path, digests: Store) -> Record:
    argv = list(op.argv) + ["--outdir", str(outdir)]
    error = None
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception as exc:      # a crashed request is a failed op, not a crash
        rc, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    ok, ref_err, nbytes = rc == 0, None, 0
    if rc not in (0, None):
        error = f"exit status {rc}"
    if ok:
        try:
            ref_err = workloads.check(op, str(outdir))
            digest, nbytes = _digest(outdir)
            if not digests.same(op.key, digest):
                raise CheckError("artifacts differ from an earlier run")
        except CheckError as exc:
            ok, error = False, str(exc)
    shutil.rmtree(outdir, ignore_errors=True)
    return Record(op, t0, seconds, ok, ref_err, error, nbytes)


def run_round(cli, workload, seed, k, inputs, run_dir, digests, tag="",
              tracer=None) -> tuple[list, float]:
    """All requests of round k and their summed wall time. A fresh cache
    directory per round keeps the share of cache hits the same in every
    round."""
    if workload in workloads.CACHED:
        os.environ["VORTEXLAB_CACHE_DIR"] = str(run_dir / f"cache-{k}{tag}")
    else:
        os.environ.pop("VORTEXLAB_CACHE_DIR", None)
    records = []
    for i, op in enumerate(workloads.round_ops(workload, seed, inputs)):
        if tracer is not None:
            tracer.op = i
        records.append(execute(cli, op, run_dir / "out", digests))
    return records, sum(r.seconds for r in records)


# ---------------------------------------------------------------------------
# runs


def _quantile(xs: list, q: float) -> float:
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[round(q * 100) - 1]


def _latency_metrics(records, lat) -> dict:
    return {"ops_per_s": sum(r.ok for r in records) / sum(lat),
            "op_p50_s": statistics.median(lat),
            "op_p90_s": _quantile(lat, 0.90)}


def timed_run(cli, args, inputs, run_dir, digests, clock):
    """Rounds until the adjusted time is spent: the next round starts only
    while the run is expected to end within half a round of --seconds. On
    adjusted time a slow spell of the machine does not change the number of
    rounds. The workload's reference requests follow, outside the latency
    samples."""
    records, rounds, spent = [], 0, 0.0
    clock.burst()
    with clock:
        while True:
            recs, _ = run_round(cli, args.workload, args.seed, rounds, inputs,
                                run_dir, digests)
            records += recs
            rounds += 1
            spent += sum(clock.adjust(r.start, r.seconds) for r in recs)
            if spent + 0.5 * spent / rounds >= args.seconds:
                break
    lat = [clock.adjust(r.start, r.seconds) for r in records]
    refs = [execute(cli, op, run_dir / "out", digests)
            for op in workloads.REFERENCE.get(args.workload, ())]
    values = _latency_metrics(records, lat)
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    # no reference request succeeded: report a full-scale error
    values["ref_err"] = max((r.ref_err for r in records + refs
                             if r.ref_err is not None), default=1.0)
    report = {"rounds": rounds, "latency_samples": len(lat),
              "samples_beyond_p90": sum(x > values["op_p90_s"] for x in lat),
              "wall": _latency_metrics(records, [r.seconds for r in records]),
              "speed_samples": len(clock.samples),
              "probe_median_s": statistics.median(
                  d for _, d, _ in clock.samples)}
    return records + refs, values, report


def traced_run(cli, args, inputs, run_dir, digests):
    """Round 0 untraced and then traced, both in wall time: spans and the
    tracing overhead are wall times."""
    from tracing import Tracer
    base, base_s = run_round(cli, args.workload, args.seed, 0, inputs,
                             run_dir, digests)
    tracer = Tracer()
    tracer.install()
    try:
        records, traced_s = run_round(cli, args.workload, args.seed, 0,
                                      inputs, run_dir, digests, tag="t",
                                      tracer=tracer)
    finally:
        tracer.uninstall()
    values = tracer.layer_metrics()
    values["cli.artifact_bytes"] = sum(r.nbytes for r in records)
    counters = tracer.op_counters()
    store = Store(f"counters-{args.workload}")
    same = store.same(str(args.seed), counters)
    store.save()
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"spans-{args.workload}-{args.seed}.json").write_text(
        json.dumps(tracer.dump()))
    report = {"untraced_round_s": base_s, "traced_round_s": traced_s,
              "trace_overhead_s": traced_s - base_s,
              "counters_repeat": same, "op_counters": counters,
              "shares": tracer.layer_shares()}
    if not same:
        report["failures"] = ["work counters differ from an earlier traced run"]
    return base + records, values, report


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": BLAS_THREADS}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        _probe_setup(args.workload, args.seed)
        return 0

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        from speed import SpeedClock
        clock = SpeedClock()
        setup_wall, setup_adj, inputs = measure_setup(args.workload,
                                                      args.seed, clock)
    except (ImportError, OSError, ValueError, BenchError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import vortexlab.cli as cli

    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    digests = Store(f"digests-{args.workload}")
    try:
        if args.trace:
            records, values, report = traced_run(cli, args, inputs, run_dir,
                                                 digests)
        else:
            records, values, report = timed_run(cli, args, inputs, run_dir,
                                                digests, clock)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        os.environ.pop("VORTEXLAB_CACHE_DIR", None)
    digests.save()
    values["setup_s"] = statistics.median(setup_adj)

    failed = [r for r in records if not r.ok]
    failures = report.pop("failures", [])
    failures += [f"{r.op.key}: {r.error}" for r in failed]
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind]}
    report.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "why": next(w["why"] for w in spec["workloads"]
                    if w["name"] == args.workload),
        "mapping": workloads.MAPPING, "environment": environment(),
        "setup_wall_s": setup_wall, "setup_adjusted_s": setup_adj,
        "inputs": inputs, "error_rate": len(failed) / len(records),
        "failures": failures[:20],
    })
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-{args.seed}-trace{args.trace}.json"
    (WORK / "results" / name).write_text(
        json.dumps({"report": report, "metrics": metrics}, indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
