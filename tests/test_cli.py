import json
import math

import numpy as np
import pytest

from vortexlab.cli import main


def _run(tmp_path, *extra):
    return main([*extra, "--outdir", str(tmp_path)])


def _one_line_json(err):
    """The error payload: exactly one line of JSON on stderr."""
    assert err.endswith("\n") and err.count("\n") == 1, err
    return json.loads(err)


def _read_csv(path):
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(dict(zip(header, line.split(","))))
    return header, rows


def test_profile_zero_well(tmp_path):
    assert _run(tmp_path, "profile", "--N", "3", "--W", "zero",
                "--eps", "1.0", "--grid-n", "400") == 0
    header, rows = _read_csv(tmp_path / "profile.csv")
    assert header[0] == "r" and "f" in header
    err = max(abs(float(row["f"]) - float(row["r"])) for row in rows)
    assert err < 1e-8

    manifest = json.loads((tmp_path / "profile.manifest.json").read_text())
    assert manifest["config"]["command"] == "profile"
    assert manifest["config"]["N"] == 3
    assert manifest["config"]["eps"] == 1.0
    assert "profile.csv" in manifest["artifacts"]
    assert manifest["diagnostics"]["residual"] < 1e-9
    assert manifest["diagnostics"]["model"] == "gl"


def test_model_inference(tmp_path):
    assert _run(tmp_path, "profile", "--N", "3", "--Wt", "linear",
                "--eta", "10.0", "--grid-n", "400") == 0
    manifest = json.loads((tmp_path / "profile.manifest.json").read_text())
    assert manifest["config"]["model"] == "sphere"
    header, _ = _read_csv(tmp_path / "profile.csv")
    assert "theta" in header


def test_rerun_is_byte_identical(tmp_path):
    args = ("profile", "--N", "2", "--W", "quadratic", "--eps", "0.5",
            "--grid-n", "400")
    assert _run(tmp_path, *args) == 0
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert _run(tmp_path, *args) == 0
    second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert first == second


def test_cache_reuse(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("VORTEXLAB_CACHE_DIR", str(cache))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ("profile", "--N", "3", "--W", "quadratic", "--eps", "0.4",
            "--grid-n", "400")
    assert _run(out1, *args) == 0
    entries = list(cache.iterdir())
    assert len(entries) == 1
    # poison the cached artifact: a hit must reproduce the poisoned bytes,
    # proving the second run did not recompute
    blob = json.loads(entries[0].read_text())
    blob["artifacts"]["profile.csv"] = "# cached\nr,v,f\n"
    entries[0].write_text(json.dumps(blob))
    assert _run(out2, *args) == 0
    assert (out2 / "profile.csv").read_text() == "# cached\nr,v,f\n"
    assert len(list(cache.iterdir())) == 1


def test_corrupt_cache_entry_is_a_miss(tmp_path, monkeypatch):
    # a truncated entry and one without diagnostics are solved again, and
    # the entry is overwritten with the solved payload
    cache = tmp_path / "cache"
    monkeypatch.setenv("VORTEXLAB_CACHE_DIR", str(cache))
    args = ("profile", "--N", "3", "--W", "quadratic", "--eps", "0.3",
            "--grid-n", "100")
    assert _run(tmp_path / "cold", *args) == 0
    entry, = cache.iterdir()
    good = entry.read_text()
    csv = (tmp_path / "cold" / "profile.csv").read_text()
    for k, bad in enumerate((good[:len(good) // 2], '{"artifacts": {}}')):
        entry.write_text(bad)
        assert _run(tmp_path / f"again{k}", *args) == 0
        assert entry.read_text() == good
        assert (tmp_path / f"again{k}" / "profile.csv").read_text() == csv


def test_cache_only_for_profile_and_eigen(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("VORTEXLAB_CACHE_DIR", str(cache))
    for argv in (
            ["energy", "--N", "3", "--W", "quadratic", "--eps", "0.3"],
            ["phase", "sweep", "--N", "3", "--eps", "0.1:0.4:2", "--eta",
             "0.5:1.0:2"],
            ["stability", "--N", "3", "--Wt", "linear", "--point",
             "eta=1.0", "--lambda-max", "2"]):
        assert _run(tmp_path / argv[0], *argv, "--grid-n", "300") == 0
    assert not cache.exists()
    assert _run(tmp_path / "profile", "profile", "--N", "3", "--W",
                "quadratic", "--eps", "0.3", "--grid-n", "300") == 0
    assert len(list(cache.iterdir())) == 1


def test_cache_key_is_the_canonical_potential(tmp_path, monkeypatch):
    # three spellings of one potential share one cache entry; the manifest
    # still echoes each as given
    cache = tmp_path / "cache"
    monkeypatch.setenv("VORTEXLAB_CACHE_DIR", str(cache))
    base = ("profile", "--N", "3", "--eps", "0.3", "--grid-n", "200")
    csvs = []
    for i, spec in enumerate(("flat_well:0.2", "flat_well:0.20",
                              '{"flat_well": 0.2}')):
        out = tmp_path / str(i)
        assert main([*base, "--W", spec, "--outdir", str(out)]) == 0
        manifest = json.loads((out / "profile.manifest.json").read_text())
        assert manifest["config"]["W"] == spec
        csvs.append((out / "profile.csv").read_bytes())
        assert len(list(cache.iterdir())) == 1
    assert csvs[0] == csvs[1] == csvs[2]
    assert main([*base, "--W", "flat_well:0.3", "--outdir",
                 str(tmp_path / "other")]) == 0
    assert len(list(cache.iterdir())) == 2


def test_parser_built_once_and_reusable(tmp_path):
    from vortexlab import cli
    assert cli._parser() is cli._parser()
    args = ("eigen", "--N", "3", "--W", "quadratic", "--eps", "0.3",
            "--grid-n", "400")
    # another subcommand in between must leave no state in the parser
    assert _run(tmp_path / "a", *args) == 0
    assert _run(tmp_path / "p", "profile", "--N", "3", "--Wt", "linear",
                "--eta", "1.0", "--grid-n", "200") == 0
    assert _run(tmp_path / "b", *args) == 0
    for name in ("eigen.csv", "eigen.manifest.json"):
        a = (tmp_path / "a" / name).read_text()
        b = (tmp_path / "b" / name).read_text()
        assert a.replace(str(tmp_path / "a"), "") == \
            b.replace(str(tmp_path / "b"), "")
    assert isinstance(cli.build_parser(), type(cli._parser()))


def test_shared_grids_give_the_bytes_of_unshared_ones(tmp_path, monkeypatch):
    # make_grid shares each grid, its tables, halved-r_min grid and GL ladder
    # across the requests of a process: a mixed sequence, run twice, writes
    # the bytes of the same requests on grids built afresh for each
    from vortexlab import core
    monkeypatch.delenv("VORTEXLAB_CACHE_DIR", raising=False)
    grid = ("--grid-n", "600")
    requests = {
        "threshold": ("eigen", "--N", "3", "--W", "quadratic", "--eps-sweep",
                      "0.05:1.0:6", "--find-threshold"),
        "gl": ("profile", "--N", "3", "--W", "quadratic", "--eps", "0.03"),
        "extended": ("profile", "--N", "3", "--W", "quadratic", "--Wt",
                     "linear", "--eps", "0.1", "--eta", "0.6"),
        "sphere": ("profile", "--N", "3", "--Wt", "quadratic", "--eta",
                   "1.0"),
        "stability": ("stability", "--N", "3", "--Wt", "quadratic",
                      "--point", "eta=1.0", "--lambda-max", "6.0"),
        "stability_ext": ("stability", "--N", "3", "--point",
                          "eps=0.1,eta=0.6", "--lambda-max", "6.0"),
    }

    def run_all(tag):
        out = {}
        for name, args in requests.items():
            d = tmp_path / tag / name
            assert main([*args, *grid, "--outdir", str(d)]) == 0
            for p in d.iterdir():
                data = p.read_bytes()
                if p.name.endswith(".manifest.json"):
                    data = json.loads(data)
                    assert data["config"].pop("outdir") == str(d)
                out[name, p.name] = data
        return out

    shared = [run_all("a"), run_all("b")]
    g = core.make_grid(3, 600, {"graded": 2.0})
    assert "halved" in g._cache
    assert any(k[0] == "gl_ladder" for k in g._cache if isinstance(k, tuple))
    monkeypatch.setattr(core, "_build_grid", core._build_grid.__wrapped__)
    assert core.make_grid(3, 600, {"graded": 2.0}) is not g
    unshared = run_all("c")
    assert len(unshared) == 13
    assert shared[0] == unshared and shared[1] == unshared


def test_eigen_sweep_csv(tmp_path):
    assert _run(tmp_path, "eigen", "--N", "3", "--W", "quadratic",
                "--eps-sweep", "0.1:0.4:4", "--grid-n", "600") == 0
    header, rows = _read_csv(tmp_path / "eigen.csv")
    assert header == ["eps", "eigenvalue", "eps2_eigenvalue"]
    assert len(rows) == 4
    eps = [float(r["eps"]) for r in rows]
    assert eps == sorted(eps)
    scaled = [float(r["eps2_eigenvalue"]) for r in rows]
    assert all(b > a for a, b in zip(scaled, scaled[1:]))


def test_eigen_threshold(tmp_path):
    assert _run(tmp_path, "eigen", "--N", "3", "--W", "quadratic",
                "--eps-sweep", "0.05:1.0:6", "--find-threshold",
                "--tol", "1e-6", "--grid-n", "800") == 0
    data = json.loads((tmp_path / "eigen.json").read_text())
    assert abs(data["eps0"] - 0.2039594) < 1e-3
    assert data["bracket"] == [0.05, 1.0]


# eps0 at N = 3 extrapolated from grids n = 2000 to 16000; the n = 2000 value
# is 1.2e-8 below it
EPS0_N3 = 0.2039597322


def test_readme_threshold_on_a_fine_grid(tmp_path):
    # on fine grids the Rayleigh quotient's rounding outgrows the window
    # delta = 1e-9 (1 + |lambda|); the inertia counts still pin lambda
    assert _run(tmp_path, "eigen", "--N", "3", "--W", "quadratic",
                "--eps-sweep", "0.05:1.0:12", "--find-threshold",
                "--grid-n", "4000") == 0
    data = json.loads((tmp_path / "eigen.json").read_text())
    assert abs(data["eps0"] - EPS0_N3) < 2e-8


def test_readme_sweep_on_a_fine_grid(tmp_path):
    assert _run(tmp_path, "phase", "sweep", "--N", "3", "--W", "quadratic",
                "--Wt", "linear", "--eps", "0.05:0.45:20", "--eta",
                "0.1:1.0:20", "--confirm", "0.1", "--grid-n", "6000") == 0
    _, rows = _read_csv(tmp_path / "phase.csv")
    assert len(rows) == 400
    assert {r["class"] for r in rows} == {"Escaping", "NonEscaping"}
    diag = json.loads((tmp_path / "phase.manifest.json").read_text())
    assert abs(diag["diagnostics"]["eps0"] - EPS0_N3) < 2e-8


@pytest.mark.parametrize("eps", ["0.02", "0.018"])
def test_eigen_n2_small_eps(tmp_path, eps):
    # the ground state's exponentially small tail carries rounding noise of
    # either sign; the inertia certificate, not a sign test, decides
    assert _run(tmp_path, "eigen", "--N", "2", "--W", "quadratic",
                "--eps", eps) == 0
    _, rows = _read_csv(tmp_path / "eigen.csv")
    assert float(rows[0]["eigenvalue"]) < 0


def test_eigen_solver_options_reach_profiles(tmp_path, monkeypatch):
    from vortexlab import SolverOptions, spectral
    seen = []
    real = spectral.solve_gl_profile

    def recording(N, W, eps, grid, opts, **kw):
        seen.append(opts)
        return real(N, W, eps, grid, opts, **kw)

    monkeypatch.setattr(spectral, "solve_gl_profile", recording)
    assert _run(tmp_path, "eigen", "--N", "3", "--W", "quadratic",
                "--eps-sweep", "0.1:0.4:3", "--find-threshold",
                "--tol", "1e-11", "--max-iter", "40", "--grid-n", "600") == 0
    # three sweep rows, the threshold's own solves and its halved-r_min check
    assert len(seen) > 4
    assert set(seen) == {SolverOptions(tol=1e-11, max_iter=40)}


def test_eigen_max_iter_reaches_workers(tmp_path, capsys):
    # two Newton steps cannot solve the eps = 0.3 profile from v = 1, in this
    # process or in a worker
    for jobs in ("1", "2"):
        assert _run(tmp_path, "eigen", "--N", "3", "--W", "quadratic",
                    "--eps-sweep", "0.3:0.5:2", "--max-iter", "2",
                    "--jobs", jobs, "--grid-n", "400") == 1
        payload = _one_line_json(capsys.readouterr().err)
        assert payload["error"] == "ConvergenceError"


def test_phase_sweep_honours_tol_and_max_iter(tmp_path, capsys):
    # one Newton step cannot solve the columns' profiles, in this process or
    # in a worker, nor the threshold search's
    for jobs in ("1", "2"):
        assert _run(tmp_path, "phase", "sweep", "--N", "3", "--W",
                    "quadratic", "--Wt", "linear", "--eps", "0.05:0.45:4",
                    "--eta", "0.1:1.0:4", "--confirm", "1.0", "--grid-n",
                    "400", "--max-iter", "1", "--tol", "1e-14",
                    "--jobs", jobs) == 1
        payload = _one_line_json(capsys.readouterr().err)
        assert payload["error"] == "ConvergenceError"
    assert not (tmp_path / "phase.manifest.json").exists()


@pytest.mark.parametrize("command", [
    ("profile", "--N", "3", "--W", "quadratic", "--eps", "0.3"),
    ("energy", "--N", "3", "--W", "quadratic", "--eps", "0.3"),
    ("stability", "--N", "3", "--Wt", "linear", "--point", "eta=1.0"),
])
def test_jobs_only_where_it_is_read(tmp_path, capsys, command):
    assert _run(tmp_path, *command, "--jobs", "2") == 1
    payload = _one_line_json(capsys.readouterr().err)
    assert payload["error"] == "InputError"
    assert "--jobs" in payload["message"]


def test_sphere_profile_at_infinite_eta(tmp_path):
    # the start (π/2)·atan(r/η)/atan(1/η) is 0/0 at η = ∞; its limit
    # (π/2)·r starts the solve there, on the branch a huge finite η takes
    branches = {}
    for eta in ("inf", "1e12"):
        out = tmp_path / eta
        assert _run(out, "profile", "--N", "3", "--Wt", "linear",
                    "--eta", eta, "--grid-n", "400") == 0
        manifest = json.loads((out / "profile.manifest.json").read_text())
        assert manifest["diagnostics"]["residual"] < 1e-9
        branches[eta] = manifest["diagnostics"]["no_escape"]
    assert branches == {"inf": False, "1e12": False}


def test_error_report(tmp_path, capsys):
    # no sign change: the threshold search must fail loudly, as JSON
    assert _run(tmp_path, "eigen", "--N", "7", "--W", "quadratic",
                "--eps-sweep", "0.05:1.0:4", "--find-threshold",
                "--tol", "1e-6", "--grid-n", "600") == 1
    payload = _one_line_json(capsys.readouterr().err)
    assert payload["error"] == "NoThresholdError"
    assert payload["message"]


# an eps or eta whose square underflows or overflows, or whose 1/eps^2 or
# 1/eta^2 overflows: each ended in a traceback (a ValueError from the banded
# LU, a ZeroDivisionError in the two-field residual, an OverflowError in a
# Newton stage) or walked the eps ladder down to a misleading rounding-floor
# error
BAD_SCALES = [
    ("eta", ["profile", "--N", "3", "--Wt", "linear", "--eta", "1e-160",
             "--grid-n", "200"]),
    ("eta", ["profile", "--N", "3", "--W", "quadratic", "--Wt", "linear",
             "--eps", "0.1", "--eta", "1e-300", "--grid-n", "200"]),
    ("eps", ["profile", "--N", "3", "--W", "quadratic", "--eps", "1e-160",
             "--grid-n", "200"]),
    ("eps", ["profile", "--N", "3", "--W", "quadratic", "--eps", "1e200",
             "--grid-n", "200"]),
    ("eta", ["stability", "--N", "3", "--Wt", "linear", "--point",
             "eta=1e-160", "--grid-n", "200"]),
    ("eta", ["stability", "--N", "3", "--point", "eps=0.1,eta=1e-160",
             "--grid-n", "200"]),
    ("eta", ["energy", "--N", "3", "--W", "quadratic", "--Wt", "linear",
             "--eps", "0.1", "--eta", "1e-160", "--grid-n", "200"]),
    ("eta", ["phase", "sweep", "--N", "3", "--eps", "0.1:0.4:3", "--eta",
             "1e-160:1:3", "--confirm", "1", "--grid-n", "200"]),
]


def test_argument_validation(tmp_path, capsys, monkeypatch):
    # every malformed invocation reports structured JSON and exits 1
    cases = [
        ["profile", "--N", "3"],                            # no potentials
        ["eigen", "--N", "3", "--W", "quadratic",
         "--eps-sweep", "0.1:0.4"],                         # malformed range
        ["stability", "--N", "3", "--point", "nonsense"],
        ["phase", "sweep", "--N", "3", "--eps", "0.4:0.1:4",
         "--eta", "0.2:1.0:4"],                             # reversed range
        ["eigen", "--N", "3", "--W", "quadratic",
         "--eps-sweep=-0.1:0.4:4"],                         # negative lo
        ["eigen", "--N", "3", "--W", "quadratic",
         "--eps-sweep", "-0.1:0.4:4"],                      # ... after a space
        ["phase", "sweep", "--N", "3", "--W", "quadratic", "--Wt", "linear",
         "--eps", "-0.1:0.4:4", "--eta", "0.2:1.0:4"],
        ["eigen", "--N", "3", "--W", "quadratic", "--bogus"],
        ["transmogrify", "--N", "3"],
        # malformed numbers
        ["profile", "--N", "3", "--W", "quadratic", "--eps", "0.3",
         "--grid-grading", "graded:abc"],
        ["profile", "--N", "3", "--W", "quadratic", "--eps", "0.3",
         "--grid-grading", "nonsense"],
        ["eigen", "--N", "3", "--W", "quadratic",
         "--eps-sweep", "0.1:0.4:x"],
        ["stability", "--N", "3", "--point", "eta=x"],
        # Newton needs a finite positive tol and at least one step
        ["profile", "--N", "3", "--W", "quadratic", "--eps", "0.3",
         "--tol", "inf"],
        ["profile", "--N", "3", "--W", "quadratic", "--eps", "0.3",
         "--tol", "nan"],
        ["profile", "--N", "3", "--W", "quadratic", "--eps", "0.3",
         "--max-iter", "0"],
        ["profile", "--N", "3", "--W", "quadratic", "--eps", "0.3",
         "--max-iter", "-3"],
        # a tol below the rounding floor of the residual: the line search
        # stalls under u·max(|J||z|) (gl, two-field and sphere solves)
        ["profile", "--N", "3", "--W", "quadratic", "--eps", "0.05",
         "--tol", "1e-13"],
        ["profile", "--N", "3", "--W", "quadratic", "--Wt", "linear",
         "--eps", "0.1", "--eta", "0.8", "--tol", "1e-13"],
        ["profile", "--N", "3", "--Wt", "linear", "--eta", "0.5",
         "--tol", "1e-13"],
        # a negative seed, an infinite range end, a repeated --point key
        ["phase", "sweep", "--N", "3", "--eps", "0.1:0.4:3", "--eta",
         "0.1:1:3", "--grid-n", "400", "--seed", "-1"],
        ["phase", "sweep", "--N", "3", "--eps", "0.1:inf:3", "--eta",
         "0.1:1:3", "--grid-n", "400"],
        ["eigen", "--N", "3", "--eps-sweep", "0.1:inf:3", "--grid-n", "400"],
        ["stability", "--N", "3", "--point", "eta=1,eta=2", "--grid-n",
         "400", "--lambda-max", "2"],
        # a threshold search needs a bracket, which one eps does not give
        ["eigen", "--N", "3", "--eps", "0.3", "--find-threshold"],
        ["eigen", "--N", "3", "--eps-sweep", "0.1:0.4:1", "--find-threshold"],
        # a potential or parameter flag the model does not read
        ["profile", "--N", "3", "--W", "quadratic", "--eps", "0.3",
         "--eta", "0.5"],
        ["energy", "--N", "3", "--Wt", "linear", "--eta", "0.5",
         "--eps", "0.2"],
        ["stability", "--N", "3", "--W", "quadratic", "--Wt", "linear",
         "--point", "eta=1.0", "--lambda-max", "2", "--grid-n", "400"],
        # an explicit --model without its parameter
        ["profile", "--N", "3", "--model", "gl", "--W", "quadratic"],
        ["profile", "--N", "3", "--model", "sphere", "--Wt", "linear"],
        ["energy", "--N", "3", "--model", "extended", "--W", "quadratic",
         "--Wt", "linear", "--eps", "0.1"],
    ]
    for argv in cases:
        assert main(argv) == 1
        payload = _one_line_json(capsys.readouterr().err)
        assert payload["error"] == "InputError"
    assert payload["message"] == "--model extended needs --eta"
    # an unread flag is named with the model, inferred, given by --model
    # or implied by stability's --point
    for argv, msg in (
            (["energy", "--N", "3", "--Wt", "linear", "--eta", "0.5",
              "--eps", "0.2"], "the sphere model does not read --eps"),
            (["profile", "--N", "3", "--model", "gl", "--W", "quadratic",
              "--eps", "0.3", "--Wt", "linear", "--eta", "0.5"],
             "the gl model does not read --Wt or --eta"),
            # stability without eps in --point is the sphere map
            (["stability", "--N", "3", "--W", "quadratic", "--point",
              "eta=1.0", "--lambda-max", "2", "--grid-n", "400"],
             "the sphere model does not read --W")):
        assert main(argv) == 1
        assert _one_line_json(capsys.readouterr().err)["message"] == msg
    # an eps or eta too small to square and invert is refused before any
    # Newton step, by name; inf, the limit the models define, is solved
    from vortexlab import profiles

    def no_newton(*args):
        raise AssertionError("a Newton step before refusing")

    with monkeypatch.context() as patch:
        patch.setattr(profiles, "_newton", no_newton)
        for name, argv in BAD_SCALES:
            assert _run(tmp_path, *argv) == 1
            payload = _one_line_json(capsys.readouterr().err)
            assert payload["error"] == "InputError"
            assert payload["message"].startswith(f"{name} must be positive")
    assert _run(tmp_path, "profile", "--N", "3", "--W", "quadratic",
                "--eps", "inf", "--grid-n", "200") == 0


def test_stability_ell_solves_with_the_request_tol(tmp_path):
    # spectrum_summary's ell comes from the GL profile solved with the
    # request's --tol and --max-iter: the eigen command's value, bit for bit
    common = ("--N", "3", "--W", "quadratic", "--grid-n", "800", "--tol",
              "1e-12")
    assert _run(tmp_path / "stab", "stability", *common, "--Wt", "linear",
                "--point", "eps=0.1,eta=1.0", "--lambda-max", "2") == 0
    assert _run(tmp_path / "eigen", "eigen", *common, "--eps", "0.1") == 0
    ell = json.loads((tmp_path / "stab" / "stability.json").read_text())["ell"]
    _, rows = _read_csv(tmp_path / "eigen" / "eigen.csv")
    assert ell == float(rows[0]["eigenvalue"])


def test_threshold_without_a_sweep_is_refused_before_any_solve(
        capsys, monkeypatch):
    from vortexlab import cli

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before refusing")

    monkeypatch.setattr(cli, "linearization_eigenvalue_sweep", no_solve)
    monkeypatch.setattr(cli, "find_epsilon0", no_solve)
    assert main(["eigen", "--N", "3", "--eps", "0.3", "--find-threshold",
                 "--grid-n", "400"]) == 1
    payload = _one_line_json(capsys.readouterr().err)
    assert payload["error"] == "InputError"
    assert "--eps-sweep" in payload["message"]


def test_potential_text_forms(tmp_path, capsys):
    # the named flat_well form and its JSON object are one potential; the
    # manifest echoes each as given
    base = ("profile", "--N", "3", "--eps", "0.3", "--grid-n", "200")
    outs = []
    for spec in ("flat_well:0.2", '{"flat_well": 0.2}'):
        out = tmp_path / str(len(outs))
        assert main([*base, "--W", spec, "--outdir", str(out)]) == 0
        manifest = json.loads((out / "profile.manifest.json").read_text())
        assert manifest["config"]["W"] == spec
        outs.append((out / "profile.csv").read_bytes())
    assert outs[0] == outs[1]
    assert main([*base, "--W", '{"flat_well": 0.2', "--outdir",
                 str(tmp_path / "bad")]) == 1
    payload = _one_line_json(capsys.readouterr().err)
    assert payload["error"] == "InputError"


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["eigen", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: vortexlab" in capsys.readouterr().out


def test_error_payload_is_one_line(tmp_path, capsys):
    # a ConvergenceError carries its solver trace, on the same line
    assert _run(tmp_path, "profile", "--N", "3", "--W", "quadratic",
                "--eps", "0.05", "--max-iter", "1", "--grid-n", "200") == 1
    payload = _one_line_json(capsys.readouterr().err)
    assert payload["error"] == "ConvergenceError"
    assert payload["message"] and payload["trace"]


def test_phase_sweep(tmp_path):
    assert _run(tmp_path, "phase", "sweep", "--N", "3", "--W", "quadratic",
                "--Wt", "linear", "--eps", "0.05:0.45:4", "--eta",
                "0.2:1.2:4", "--grid-n", "800", "--seed", "7") == 0
    header, rows = _read_csv(tmp_path / "phase.csv")
    assert header == ["eps", "eta", "class", "criterion"]
    assert len(rows) == 16
    classes = {r["class"] for r in rows}
    assert "Escaping" in classes and "NonEscaping" in classes
    svg = (tmp_path / "phase.svg").read_text()
    assert svg.startswith("<svg") or svg.startswith("<?xml")
    manifest = json.loads((tmp_path / "phase.manifest.json").read_text())
    total = sum(manifest["diagnostics"]["classes"].values())
    assert total == 16


def test_stability_report(tmp_path):
    assert _run(tmp_path, "stability", "--N", "3", "--Wt", "linear",
                "--point", "eta=1.0", "--grid-n", "500",
                "--lambda-max", "6.0") == 0
    data = json.loads((tmp_path / "stability.json").read_text())
    assert data["verdict"] == "PositiveDefinite"
    assert data["lambda"] == [0.0, 2.0, 6.0]
    assert all(v > 0 for v in data["min_eigenvalues"])
    manifest = json.loads((tmp_path / "stability.manifest.json").read_text())
    assert manifest["diagnostics"]["verdict"] == "PositiveDefinite"


def test_stability_without_eta_is_the_gl_verdict(tmp_path, capsys):
    # claim (c): eps alone in --point solves the GL profile, which is
    # positive definite, decided from lambda = 0 and N - 1
    for N in (2, 3):
        out = tmp_path / f"n{N}"
        assert _run(out, "stability", "--N", str(N), "--point", "eps=0.1",
                    "--grid-n", "400") == 0
        rep = json.loads((out / "stability.json").read_text())
        assert rep["profile"] == "GLProfile"
        assert rep["lambda"] == [0.0, N - 1.0]
        assert rep["verdict"] == "PositiveDefinite"
        assert rep["kernel_dim"] == 0
        assert rep["ell"] < 0 and min(rep["min_eigenvalues"]) > 0
    # a penalty the GL model does not read is still refused
    assert _run(tmp_path / "wt", "stability", "--N", "3", "--Wt", "linear",
                "--point", "eps=0.1") == 1
    payload = _one_line_json(capsys.readouterr().err)
    assert payload == {"error": "InputError",
                       "message": "the gl model does not read --Wt"}


@pytest.mark.parametrize("argv", [
    ["profile", "--N", "3", "--W", "quadratic", "--eps", "nan"],
    ["eigen", "--N", "3", "--W", "quadratic", "--eps", "nan"],
    ["stability", "--N", "3", "--Wt", "linear", "--point", "eps=nan,eta=1"],
    ["stability", "--N", "3", "--Wt", "linear", "--point", "eta=nan"],
    ["profile", "--N", "3", "--Wt", "linear", "--eta", "nan"],
    ["energy", "--N", "3", "--W", "quadratic", "--Wt", "linear",
     "--eps", "0.1", "--eta", "nan"],
])
def test_nan_parameter_is_an_input_error(tmp_path, capsys, argv):
    # each one used to end in an IndexError or ValueError traceback
    assert _run(tmp_path, *argv, "--grid-n", "200") == 1
    payload = _one_line_json(capsys.readouterr().err)
    assert payload["error"] == "InputError"
    assert "must be positive" in payload["message"]


def test_stability_lambda_max_validation(tmp_path, guarded_python):
    # -1 gave zero blocks and a PositiveDefinite verdict; nan and inf never
    # ended. Each must take the JSON error path and exit 1
    out = guarded_python(
        "import contextlib, io, json\n"
        "from vortexlab.cli import main\n"
        "out = []\n"
        "for v in ('-1', 'nan', 'inf'):\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stderr(err):\n"
        "        code = main(['stability', '--N', '3', '--Wt', 'linear',\n"
        "                     '--point', 'eta=1.0', '--grid-n', '200',\n"
        "                     '--lambda-max', v,\n"
        f"                     '--outdir', {str(tmp_path)!r}])\n"
        "    out.append([code, err.getvalue()])\n"
        "print(json.dumps(out))\n")
    assert len(out) == 3
    for code, err in out:
        assert code == 1
        payload = _one_line_json(err)
        assert payload["error"] == "InputError"
        assert payload["message"].startswith("lambda_max must be finite")
    assert not (tmp_path / "stability.json").exists()


def test_stability_lambda_max_past_the_level_cap(tmp_path, guarded_python):
    # 1e300 asked for about 1e150 block solves and ran until killed; past
    # 1000 levels the request is refused before the profile is solved
    out = guarded_python(
        "import contextlib, io, json\n"
        "from vortexlab.cli import main\n"
        "out = []\n"
        "for v in ('1e300', '1001000'):\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stderr(err):\n"
        "        code = main(['stability', '--N', '3', '--point',\n"
        "                     'eps=0.1,eta=1', '--lambda-max', v,\n"
        f"                     '--outdir', {str(tmp_path)!r}])\n"
        "    out.append([code, err.getvalue()])\n"
        "print(json.dumps(out))\n")
    for code, err in out:
        assert code == 1
        payload = _one_line_json(err)
        assert payload["error"] == "InputError"
        assert "--lambda-max" in payload["message"]
    assert not (tmp_path / "stability.json").exists()


@pytest.mark.parametrize("argv", [
    ["--N", "55", "--W", "quadratic", "--eps", "0.3"],
    ["--N", "110", "--W", "quadratic", "--eps", "0.3", "--grid-grading",
     "uniform"],
    ["--N", "3", "--W", "quadratic", "--eps", "0.1", "--grid-grading",
     "graded:40"],
    ["--N", "105", "--Wt", "linear", "--eta", "1", "--grid-grading",
     "uniform"]])
def test_underflowing_grid_is_an_input_error(tmp_path, capsys, argv):
    # the first cells' face coefficients or P1 tables underflow: these ended
    # in a LinAlgError or a ValueError traceback (the sphere map at N = 105
    # solved with its first node cut off from the rest)
    assert _run(tmp_path, "profile", *argv) == 1
    payload = _one_line_json(capsys.readouterr().err)
    assert payload["error"] == "InputError"
    grading = ("uniform" if "uniform" in argv else
               "{'graded': 40.0}" if "graded:40" in argv else
               "{'graded': 2.0}")
    assert f"N={argv[1]}, n=2000, grading {grading}" in payload["message"]
    assert not (tmp_path / "profile.csv").exists()


@pytest.mark.parametrize("argv", [
    ["--N", "50", "--W", "quadratic", "--eps", "0.3"],
    ["--N", "100", "--W", "quadratic", "--eps", "0.3", "--grid-grading",
     "uniform"],
    ["--N", "3", "--W", "quadratic", "--eps", "0.1", "--grid-grading",
     "graded:25"]])
def test_grids_short_of_underflow_still_solve(tmp_path, argv):
    assert _run(tmp_path, "profile", *argv) == 0


@pytest.mark.parametrize("N", [2, 3, 4])
def test_stability_sphere_small_eta(tmp_path, N):
    # claim (d) at eta = 0.05, where the escaping angle comes within 1e-4
    # of pi/2 at r = 1/2 and must not be mistaken for the equator
    assert _run(tmp_path, "stability", "--N", str(N), "--Wt", "linear",
                "--point", "eta=0.05", "--lambda-max", "6.0") == 0
    data = json.loads((tmp_path / "stability.json").read_text())
    assert data["profile"] == "SphereProfile"
    assert data["verdict"] == "PositiveDefinite"


def test_energy_gl(tmp_path):
    # zero well, f = r: the energy has the closed value N/2 * (1/N) = 1/2
    assert _run(tmp_path, "energy", "--N", "5", "--W", "zero",
                "--eps", "1.0", "--grid-n", "400") == 0
    data = json.loads((tmp_path / "energy.json").read_text())
    assert data["model"] == "gl"
    assert abs(data["energy"] - 0.5) < 1e-8


def test_energy_extended_gap(tmp_path, eps0_n3):
    eta = 2.0 * math.sqrt(1.0 / 11.197786838)
    assert _run(tmp_path, "energy", "--N", "3", "--W", "quadratic",
                "--Wt", "linear", "--eps", str(eps0_n3 / 2), "--eta",
                str(eta), "--grid-n", "600") == 0
    data = json.loads((tmp_path / "energy.json").read_text())
    assert data["escaping_branch_found"]
    assert data["gap"] > 0
    assert data["energy_escaping"] < data["energy_non_escaping"]
