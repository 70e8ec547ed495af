"""Pulse envelopes, kick strengths, and crossed-beam polarization patterns."""

import math

import numpy as np
import pytest
from scipy import constants as sc
from scipy.integrate import quad

from rotorgrating.field import (
    GAUSS_FWHM_INTEGRAL,
    XI_PER_A3_FLUENCE,
    PulseSpec,
    effective_area,
    elliptic_pulse,
    envelope_intensity,
    kick_rate,
    linear_pulse,
    polarization_at,
    pulse_window,
    xi_per_intensity,
)
from rotorgrating.rotor import CO2


def test_gaussian_fluence_matches_quadrature():
    pulse = linear_pulse(7.0, tau_fwhm_ps=0.13, t0_ps=0.4)
    val, err = quad(lambda t: envelope_intensity(pulse, t), -2.0, 3.0)
    assert pulse.fluence == pytest.approx(val, rel=1e-10)
    # frozen value for the unit pulse
    assert linear_pulse(1.0, 0.1).fluence == pytest.approx(0.10644670194312262, rel=1e-13)
    assert GAUSS_FWHM_INTEGRAL == pytest.approx(math.sqrt(math.pi / (4.0 * math.log(2.0))), rel=1e-15)


def test_envelope_peak_and_fwhm():
    pulse = linear_pulse(5.0, tau_fwhm_ps=0.2, t0_ps=1.0)
    assert envelope_intensity(pulse, 1.0) == pytest.approx(5.0, rel=1e-14)
    assert envelope_intensity(pulse, 1.1) == pytest.approx(2.5, rel=1e-12)
    assert envelope_intensity(pulse, 0.9) == pytest.approx(2.5, rel=1e-12)


def test_xi_per_intensity_frozen():
    # CO2, 100 fs pump: xi = 0.444 per TW/cm^2
    ratio = xi_per_intensity(CO2, 0.1)
    assert ratio == pytest.approx(0.444, abs=2e-3)
    assert ratio == pytest.approx(0.4442572352361686, rel=1e-12)
    # scales linearly with pulse duration
    assert xi_per_intensity(CO2, 0.2) == pytest.approx(2.0 * ratio, rel=1e-12)


def test_xi_constant_from_first_principles():
    # xi = (delta_alpha / 4 hbar) * integral of E^2 envelope, rebuilt here
    # from CODATA constants: fluence 1 TW/cm^2 ps, polarizability 1 A^3.
    delta_alpha_si = 1e-30 * 4.0 * math.pi * sc.epsilon_0  # 1 A^3 in C m^2 / V
    fluence_si = 1e16 * 1e-12  # 1 TW/cm^2 ps in J/m^2
    e2_integral = fluence_si / (0.5 * sc.c * sc.epsilon_0)  # V^2 s / m^2
    xi = delta_alpha_si * e2_integral / (4.0 * sc.hbar)
    assert XI_PER_A3_FLUENCE == pytest.approx(xi, rel=1e-8)


def test_effective_area_linear_in_both_factors():
    base = effective_area(linear_pulse(1.0, 0.1), CO2)
    assert effective_area(linear_pulse(3.0, 0.1), CO2) == pytest.approx(3 * base, rel=1e-12)
    assert effective_area(linear_pulse(1.0, 0.3), CO2) == pytest.approx(3 * base, rel=1e-12)
    assert base == pytest.approx(0.4442572352361686, rel=1e-12)


def test_kick_rate_integrates_to_xi():
    pulse = linear_pulse(4.0, tau_fwhm_ps=0.1, t0_ps=0.2)
    val, err = quad(lambda t: kick_rate(pulse, CO2, t), -1.0, 1.5, limit=200)
    assert val == pytest.approx(effective_area(pulse, CO2), rel=1e-9)


def test_pulse_window_contains_all_but_tail():
    pulse = linear_pulse(4.0, tau_fwhm_ps=0.1, t0_ps=0.5)
    lo, hi = pulse_window(pulse)
    assert lo == pytest.approx(0.2, abs=1e-12)
    assert hi == pytest.approx(0.8, abs=1e-12)
    inside, _ = quad(lambda t: envelope_intensity(pulse, t), lo, hi)
    assert inside / pulse.fluence > 1.0 - 1e-7


def test_pulse_validation():
    with pytest.raises(ValueError):
        linear_pulse(-1.0)
    with pytest.raises(ValueError):
        linear_pulse(1.0, tau_fwhm_ps=0.0)
    with pytest.raises(ValueError):
        elliptic_pulse(1.0, 0.7, 0.7)  # weights must sum to 1
    with pytest.raises(ValueError):
        elliptic_pulse(1.0, -0.1, 1.1)


def test_elliptic_pulse_weights():
    pulse = elliptic_pulse(2.0, 2.0 / 3.0, 1.0 / 3.0)
    assert pulse.a2 == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert pulse.b2 == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert pulse.a2 + pulse.b2 == pytest.approx(1.0, abs=1e-14)
    assert not pulse.is_linear()
    assert elliptic_pulse(2.0, 0.0, 1.0).is_linear()
    assert elliptic_pulse(2.0, 1.0, 0.0).is_linear()


def test_polarization_parallel_pattern():
    x = np.linspace(0.0, 4.0 * np.pi, 257)
    a, b, factor = polarization_at(x, "parallel", 1.0)
    assert np.all(a == 0.0)
    assert np.all(b == 1.0)
    assert np.allclose(factor, 4.0 * np.cos(x) ** 2, atol=1e-14)
    assert factor.min() >= 0.0 and factor.max() <= 4.0
    # mean fluence factor over a period is 2: two pumps worth
    assert np.mean(factor[:-1]) == pytest.approx(2.0, rel=1e-12)


def test_polarization_perpendicular_pattern():
    x = np.linspace(0.0, 2.0 * np.pi, 129)
    a, b, factor = polarization_at(x, "perpendicular", 1.0)
    assert np.allclose(factor, 2.0, atol=1e-15)  # constant intensity
    assert np.allclose(a * a + b * b, 1.0, atol=1e-14)  # unit polarization
    # linear at the nodes, circular-like quarter way between
    assert abs(a[0]) < 1e-14
    aq, bq, _ = polarization_at(np.pi / 4.0, "perpendicular", 1.0)
    assert aq**2 == pytest.approx(0.5, rel=1e-12)


def test_polarization_unknown_scheme():
    with pytest.raises(ValueError):
        polarization_at(0.0, "diagonal", 1.0)
