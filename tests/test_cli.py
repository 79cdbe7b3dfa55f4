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


def test_error_report(tmp_path, capsys):
    # no sign change: the threshold search must fail loudly, as JSON
    assert _run(tmp_path, "eigen", "--N", "7", "--W", "quadratic",
                "--eps-sweep", "0.05:1.0:4", "--find-threshold",
                "--tol", "1e-6", "--grid-n", "600") == 1
    payload = _one_line_json(capsys.readouterr().err)
    assert payload["error"] == "NoThresholdError"
    assert payload["message"]


def test_argument_validation(capsys):
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
    ]
    for argv in cases:
        assert main(argv) == 1
        payload = _one_line_json(capsys.readouterr().err)
        assert payload["error"] == "InputError"


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
