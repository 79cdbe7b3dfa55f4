"""Continuum facts that the discretization must converge to, each checked
at two grid sizes (an eigenvalue with its observed order). None of them
restates the discretization: the references are Bessel zeros and the Hardy
inequality.

Two anchors that the present pencils fail are left out until they get a
regular origin closure and a conforming stiffness: N = 2 at k = 1 comes out
9.3 % high (the blocks are Dirichlet at r_min, which a constant vector field
pays for only like 1/log n at N = 2), and the Hardy split on graded:3.0
counts one spurious eigenvalue below zero at N >= 7 (the midpoint stiffness
breaks the discrete Hardy inequality on the strongly graded cells at the
origin).
"""
import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import jv

from vortexlab import (Potential, RadialPencil, make_grid, mode_block,
                       mode_min_eigenvalue, solve_gl_profile)
from vortexlab.banded import count_below

ZERO = Potential.from_spec("zero")
LIN = Potential.linear()


def _first_bessel_zero(nu: float) -> float:
    """j_{nu,1}: J_nu is positive on (0, j_{nu,1}), so the first sign change
    on a fine lattice brackets it."""
    x = np.arange(0.1, 20.0, 0.1)
    i = int(np.argmax(jv(nu, x) < 0))
    return brentq(lambda t: jv(nu, t), x[i - 1], x[i], xtol=1e-15)


@pytest.mark.parametrize("N, k", [(2, 2), (3, 1), (3, 2), (4, 1), (4, 2),
                                  (5, 1)])
def test_vector_laplacian_bessel_anchor(N, k):
    # at W = zero the GL profile is f = r and the (s, psi) block at lambda =
    # k(k+N-2) is the vector Laplacian's: its smallest eigenvalue is
    # j_{k-1+(N-2)/2, 1}^2
    exact = _first_bessel_zero(k - 1 + (N - 2) / 2.0) ** 2
    lam = float(k * (k + N - 2))
    errors = []
    for n in (1000, 2000):
        prof = solve_gl_profile(N, ZERO, 1.0, make_grid(N, n, {"graded": 2.0}))
        val = mode_min_eigenvalue(mode_block(prof, ZERO, None, 1.0, None, lam))
        errors.append(abs(val - exact))
    order = math.log2(errors[0] / errors[1])
    assert 1.9 <= order <= 2.1, (errors, order)
    assert errors[1] < 1e-5 * exact


@pytest.mark.parametrize("n", [800, 2000])
@pytest.mark.parametrize("N, below", [(3, 1), (4, 1), (5, 1), (6, 1), (7, 0),
                                      (8, 0), (10, 0)])
def test_equator_hardy_split(N, below, n):
    # the equator's lambda = 0 form ∫ (q'^2 - (N-1) q^2/r^2 + Wt'(0) q^2/eta^2)
    # r^(N-1) dr is indefinite exactly when N - 1 > (N-2)^2/4, the Hardy
    # constant: for N <= 6
    eta = 1.0
    grid = make_grid(N, n, {"graded": 2.0})
    block = RadialPencil(grid, ("q",), {"q": 1.0},
                         (("q", "q", -(N - 1.0), -2),
                          ("q", "q", LIN.eval(0.0, 1) / eta ** 2, 0)), 0.0)
    assert count_below(block.A, block.M, 0.0) == below
