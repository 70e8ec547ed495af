"""Shared numerical oracles and tracers for the test suite.

The quadrature oracle integrates <J',M'| f(theta,phi) |J,M> directly on the
sphere, written here from scratch (trapezoid in phi, Gauss-Legendre in
cos theta) so it shares no code with the closed-form matrix elements it
checks.  trace_propagations records what the drivers' basis loop checks and
allocates.  simulated_signal is simulate's sudden pipeline, the oracle of the
fit's forward model.
"""

import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from scipy.special import sph_harm_y

from rotorgrating import dynamics
from rotorgrating.field import PulseSpec
from rotorgrating.grating import diffracted_signal
from rotorgrating.observables import fourier_decompose, reconstruct, thermal_channel_set


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


class Propagation(NamedTuple):
    """One propagation the basis loop ran: its ensemble, the memory traced
    before it, its traced peak, the working-set estimate checked just before
    it, at its j_max, and its result."""

    ensemble: object
    before: int
    peak: int
    estimate: int
    cs: object


def trace_propagations(monkeypatch) -> tuple[list, list]:
    """(estimates, propagations): every working-set estimate the drivers
    check, and a Propagation for every attempt their one basis loop,
    dynamics._with_regrow, makes, in order: from its layout's build to its
    ChannelSet.  Memory is traced only while tracemalloc is."""
    estimates, propagations = [], []
    check, regrow, channel_set = dynamics.check_working_set, dynamics._with_regrow, dynamics.ChannelSet
    attempt = {}  # the running attempt's ensemble and the memory held before it
    monkeypatch.setattr(dynamics, "check_working_set",
                        lambda nbytes, what: estimates.append(nbytes) or check(nbytes, what))

    def traced_regrow(molecule, ensemble, xi, reference_time, j_max, layout_at, kick, *args, **kwargs):
        def traced_layout(j_max):
            attempt.update(ensemble=ensemble, before=tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return layout_at(j_max)

        return regrow(molecule, ensemble, xi, reference_time, j_max, traced_layout, kick, *args, **kwargs)

    def traced_set(*fields):
        cs = channel_set(*fields)
        propagations.append(Propagation(attempt["ensemble"], attempt["before"],
                                        tracemalloc.get_traced_memory()[1], estimates[-1], cs))
        return cs

    monkeypatch.setattr(dynamics, "_with_regrow", traced_regrow)
    monkeypatch.setattr(dynamics, "ChannelSet", traced_set)
    return estimates, propagations


def simulated_signal(problem, params: dict, delays) -> np.ndarray:
    """simulate's sudden pipeline at a fit problem's cell: the thermal
    ensemble kicked by the problem's pulse at params' (theoretical)
    intensity, arriving at t_offset, its series on y reconstructed at the
    delays and diffracted by the problem's scheme with params' background."""
    t0 = params.get("t_offset", 0.0)
    cs = thermal_channel_set(problem.molecule, params["temperature"],
                             PulseSpec(params["intensity"], problem.tau_fwhm_ps, t0), "sudden")
    values = reconstruct(fourier_decompose(cs, "y"), delays).values
    background = complex(params.get("background_re", 0.0), params.get("background_im", 0.0))
    return diffracted_signal(problem.scheme, values, delays, background, t0)


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
