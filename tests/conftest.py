import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, settings

from vortexlab import (Potential, eta0, find_epsilon0, make_grid,
                       solve_extended_profile)

settings.register_profile(
    "ci", max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("ci")


def pytest_configure(config):
    config._acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def acceptance_report(request):
    """One pass/fail line per criterion, echoed after the run summary (the
    terminal reporter is outside output capture)."""
    lines = request.config._acceptance_lines

    def _report(num: int, ok: bool, detail: str) -> None:
        line = f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
        lines.append(line)
        print(line)
        assert ok, line

    return _report


@pytest.fixture(scope="session")
def grid_n3():
    return make_grid(3, 2000, {"graded": 2.0})


@pytest.fixture(scope="session")
def grid_n3_deep():
    # deeper grading: pushes the origin cutoff of Dirichlet mode spaces
    # below discretization error
    return make_grid(3, 2000, {"graded": 3.0})


@pytest.fixture(scope="session")
def grid_n2():
    return make_grid(2, 2000, {"graded": 2.0})


@pytest.fixture(scope="session")
def grid_n7():
    return make_grid(7, 2000, {"graded": 2.0})


@pytest.fixture(scope="session")
def eps0_n3(grid_n3):
    return find_epsilon0(3, Potential.quadratic(), (0.05, 1.0), grid=grid_n3)


@pytest.fixture(scope="session")
def escaping_point(eps0_n3, grid_n3):
    eps = eps0_n3 / 2
    eta_star = eta0(3, Potential.quadratic(), Potential.linear(), eps,
                    grid=grid_n3)
    return eps, 2.0 * eta_star, eta_star


@pytest.fixture(scope="session")
def escaping_profile(escaping_point, grid_n3):
    eps, eta, _ = escaping_point
    return solve_extended_profile(3, Potential.quadratic(),
                                  Potential.linear(), eps, eta, grid_n3)


@pytest.fixture
def factorizations(monkeypatch):
    """The shift of every inertia factorization that pencil_smallest makes
    while the test runs (spectral.shifted_factor, counted)."""
    import vortexlab.spectral as spectral
    shifts, real = [], spectral.shifted_factor

    def counting(Ab, Mb, sigma):
        shifts.append(sigma)
        return real(Ab, Mb, sigma)
    monkeypatch.setattr(spectral, "shifted_factor", counting)
    return shifts


@pytest.fixture
def guarded_python():
    """Run python code in a child process capped at 1 GiB of address space
    and 60 s, and return its stdout parsed as JSON: a regression to an
    unbounded loop fails the test instead of hanging the suite or exhausting
    memory."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    cap = ("import resource\n"
           "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n")

    def run(code: str):
        proc = subprocess.run([sys.executable, "-c", cap + code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    return run
