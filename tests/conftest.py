"""Shared numerical oracles for the test suite.

The quadrature oracle integrates <J',M'| f(theta,phi) |J,M> directly on the
sphere, written here from scratch (trapezoid in phi, Gauss-Legendre in
cos theta) so it shares no code with the closed-form matrix elements it
checks.
"""

import numpy as np
import pytest
from scipy.special import sph_harm_y


def _sphere_rule(n_theta: int = 80, n_phi: int = 80):
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    return theta, wx, phi, 2.0 * np.pi / n_phi


@pytest.fixture(scope="session")
def sphere_element():
    theta, wx, phi, wphi = _sphere_rule()
    tt, pp = np.meshgrid(theta, phi, indexing="ij")

    def element(jp, mp, j, m, f):
        vals = np.conj(sph_harm_y(jp, mp, tt, pp)) * f(tt, pp) * sph_harm_y(j, m, tt, pp)
        return complex(np.sum(vals * wx[:, None]) * wphi)

    return element


def dense_operator(triplets, n: int) -> np.ndarray:
    """The n x n matrix of a lattice operator's (rows, cols, values) triplets."""
    rows, cols, values = triplets
    dense = np.zeros((n, n))
    np.add.at(dense, (rows, cols), values)
    return dense


@pytest.fixture(scope="session")
def axis_weights():
    return {
        "z": lambda t, p: np.cos(t) ** 2,
        "x": lambda t, p: (np.sin(t) * np.cos(p)) ** 2,
        "y": lambda t, p: (np.sin(t) * np.sin(p)) ** 2,
    }


# One line per acceptance criterion, echoed after the pytest summary so the
# measured numbers are visible even on fully green runs.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
