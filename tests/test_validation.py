"""Self-check suites: result formatting, selection, and failure reporting."""

import math

import numpy as np
import pytest
from scipy.special import ndtr, sph_harm_y

from rotorgrating import CO2, boltzmann_ensemble, fourier_decompose, kick_ensemble, xi_per_intensity
from rotorgrating.constants import thermal_wavenumber
from rotorgrating.validation import (
    SUITE_NAMES,
    CheckResult,
    _quadrature_grid,
    classical_permanent_alignment,
    normal_cdf,
    run_all,
    spherical_harmonic,
    suite_operators,
    suite_regimes,
)


def test_check_result_line_format():
    row = CheckResult("operators", "axis_sum", True, 3.2e-15, "< 1e-14", "j_max=4")
    assert row.line() == "[PASS] operators/axis_sum: measured 3.2e-15 (target < 1e-14) - j_max=4"
    row = CheckResult("hygiene", "norm", False, 0.5, "< 1e-9")
    assert row.line().startswith("[FAIL] hygiene/norm:")


def test_operator_suite_all_pass():
    rows = suite_operators()
    assert rows
    assert all(r.suite == "operators" for r in rows)
    assert all(r.passed for r in rows)
    names = {r.name for r in rows}
    assert {"fixed_m_vs_quadrature", "axis_sum_identity"} <= names


def test_run_all_suite_selection():
    rows = run_all(suites=("operators",))
    assert {r.suite for r in rows} == {"operators"}
    with pytest.raises(ValueError, match="unknown validation suite"):
        run_all(suites=("operators", "sorcery"))
    assert set(SUITE_NAMES) == {
        "operators", "sudden_vs_tdse", "elliptic", "regimes", "hygiene"
    }


def test_oracle_harmonics_match_scipy():
    # the numpy Y_JM on the oracle's own grid, every M of J <= 8
    tt, pp, _ = _quadrature_grid()
    for j in range(9):
        for m in range(-j, j + 1):
            assert np.max(np.abs(spherical_harmonic(j, m, tt, pp) - sph_harm_y(j, m, tt, pp))) <= 1e-14, (j, m)


def test_normal_cdf_matches_scipy():
    x = np.linspace(-8.0, 8.0, 16001)
    assert np.max(np.abs(normal_cdf(x) / ndtr(x) - 1.0)) <= 1e-13


def test_hygiene_suite_reports_tiny_basis_failure():
    rows = run_all(suites=("hygiene",), j_max=8)
    failed = [r for r in rows if not r.passed]
    assert failed
    assert any("norm" in r.name for r in failed)


@pytest.mark.parametrize("intensity", [math.inf, math.nan])
def test_run_all_rejects_a_hygiene_kick_that_is_not_finite_before_any_suite(monkeypatch, intensity):
    # on an explicit basis such a kick would fill the basis with NaN and
    # read as a basis too small; it is named before the first suite runs
    monkeypatch.setattr("rotorgrating.validation.suite_operators", lambda: pytest.fail("a suite ran"))
    with pytest.raises(ValueError, match=f"^kick strength must be finite, got {intensity}$"):
        run_all(intensity=intensity, j_max=60)


# ---------------------------------------------------------------------------
# Classical kicked-rotor oracle for the permanent alignment
# ---------------------------------------------------------------------------

def _thermal_sigma(temperature):
    return math.sqrt(thermal_wavenumber(temperature) / (2.0 * CO2.b_cm1))


def test_classical_oracle_vanishes_without_kick():
    for temperature in (30.0, 293.0):
        assert abs(classical_permanent_alignment(CO2, temperature, 0.0)) <= 1e-12
    with pytest.raises(ValueError, match="positive temperature"):
        classical_permanent_alignment(CO2, 0.0, 1.0)


def test_classical_oracle_tends_to_strong_kick_limit():
    # C depends on xi / sigma only; the deficit 1/6 - C falls like
    # sqrt(2 pi) sigma / (8 xi), set by the molecules with n nearly
    # perpendicular to y, which the kick cannot turn
    sigma = _thermal_sigma(293.0)
    ratio = np.array([2.5, 5.0, 10.0, 20.0])
    deficit = 1.0 / 6.0 - classical_permanent_alignment(CO2, 293.0, ratio * sigma)
    assert np.all(deficit > 0.0) and np.all(np.diff(deficit) < 0.0)
    assert ratio[-1] * deficit[-1] == pytest.approx(math.sqrt(2.0 * math.pi) / 8.0, rel=0.03)
    same = classical_permanent_alignment(CO2, 30.0, ratio * _thermal_sigma(30.0))
    assert np.allclose(1.0 / 6.0 - same, deficit, rtol=0.0, atol=1e-12)


def test_classical_oracle_angle_rule_matches_closed_moment():
    # the shifted 2-D Gaussian has <sin^2 phi> = (1 - exp(-a^2/2)) / a^2, so
    # C is also a single integral over u; the phi rule must agree with it
    sigma = _thermal_sigma(293.0)
    xi = np.array([0.5, 5.0, 35.0, 100.0, 160.0])
    u, wu = np.polynomial.legendre.leggauss(100)
    a2 = (2.0 * xi[:, None] * u * np.sqrt(1.0 - u * u) / sigma) ** 2
    closed = 1.0 / 6.0 - 0.25 * np.sum(wu * (1.0 - u * u) * -np.expm1(-0.5 * a2) / a2, axis=1)
    assert np.allclose(classical_permanent_alignment(CO2, 293.0, xi), closed, rtol=0.0, atol=1e-12)


def test_classical_oracle_matches_kicked_ensemble_at_room_temperature():
    per_i = xi_per_intensity(CO2)
    ens = boltzmann_ensemble(CO2, 293.0)
    intensities = np.array([2.0, 8.0, 20.0, 40.0, 80.0])
    quantum = np.array([
        fourier_decompose(kick_ensemble(CO2, ens, per_i * i), "y").constant for i in intensities
    ])
    classical = classical_permanent_alignment(CO2, 293.0, per_i * intensities)
    assert np.allclose(quantum / classical, 1.0, rtol=0.0, atol=0.01)


def test_regime_suite_checks_high_exponent_against_oracle():
    rows = {r.name: r for r in suite_regimes()}
    assert set(rows) == {"c_slope_low", "max_minus_c_slope", "c_slope_high"}
    high = rows["c_slope_high"]
    assert high.passed
    assert high.target.startswith("classical rotor 1.5")
    assert "affine R^2" in high.detail
