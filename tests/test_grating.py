"""Grating geometry, diffracted signals, heterodyning, and probe smearing."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter1d

from rotorgrating.dynamics import kick_ensemble
from rotorgrating.field import PulseSpec, xi_per_intensity
from rotorgrating.grating import (
    SATURATION_INTENSITY,
    GratingConfig,
    SignalTrace,
    grating_geometry,
    diffracted_signal,
    gaussian_wrap,
    grating_signal,
    intensity_grating_signal,
    polarization_grating_signal,
    probe_convolve,
    single_pump_intensity,
    write_signal_csv,
)
from rotorgrating.observables import (
    fourier_decompose,
    reconstruct,
    revival_time_grid,
    thermal_channel_set,
)
from rotorgrating.rotor import CO2, boltzmann_ensemble, suggest_j_max


def _perp(intensity=5.0, **kw):
    return GratingConfig("perpendicular", intensity, **kw)


def _par(intensity=5.0, **kw):
    return GratingConfig("parallel", intensity, **kw)


def _trace(theoretical_intensity, times, temperature=60.0):
    """y-axis linear-polarization trace of a sudden 0.1 ps pump at t = 0."""
    cs = thermal_channel_set(CO2, temperature, PulseSpec(theoretical_intensity))
    return reconstruct(fourier_decompose(cs, "y"), times)


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------

def test_fringe_period_800nm_1deg():
    geo = grating_geometry(_perp())
    assert geo.fringe_period_um == pytest.approx(45.84, abs=0.01)
    # independent recompute: Lambda = lambda / (2 sin(Theta/2))
    lam = 0.8
    expect = lam / (2.0 * math.sin(math.radians(0.5)))
    assert geo.fringe_period_um == pytest.approx(expect, rel=1e-12)


def test_plasma_angle_doubles_for_perpendicular():
    geo = grating_geometry(_perp())
    assert geo.plasma_period_um == pytest.approx(geo.fringe_period_um / 2.0, rel=1e-12)
    ratio = geo.plasma_order1_angle_deg / geo.alignment_order1_angle_deg
    assert ratio == pytest.approx(2.0, abs=0.01)
    assert geo.alignment_order1_angle_deg == pytest.approx(1.0, abs=0.001)


def test_parallel_plasma_shares_the_alignment_grating():
    geo = grating_geometry(_par())
    assert geo.plasma_period_um == geo.fringe_period_um
    assert geo.plasma_order1_angle_deg == geo.alignment_order1_angle_deg


def test_geometry_scales_with_wavelength_and_angle():
    a = grating_geometry(_perp(wavelength_nm=400.0))
    b = grating_geometry(_perp(wavelength_nm=800.0))
    assert b.fringe_period_um == pytest.approx(2.0 * a.fringe_period_um, rel=1e-12)
    wide = grating_geometry(_perp(crossing_angle_deg=2.0))
    assert wide.fringe_period_um == pytest.approx(
        b.fringe_period_um / 2.0, rel=1e-4
    )  # small-angle


# ---------------------------------------------------------------------------
# Config validation and intensity mapping
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        GratingConfig("diagonal", 5.0)
    with pytest.raises(ValueError):
        _perp(crossing_angle_deg=0.0)
    with pytest.raises(ValueError):
        _perp(crossing_angle_deg=180.0)
    with pytest.raises(ValueError):
        GratingConfig("parallel", -1.0)
    # a plasma heterodyne background only exists in the parallel scheme
    with pytest.raises(ValueError):
        _perp(plasma_background=0.1)


def test_theoretical_intensity_mapping():
    assert _par(6.0).theoretical_intensity == pytest.approx(6.0)
    assert _par(6.0, apply_transverse_factor=False).theoretical_intensity == pytest.approx(12.0)
    assert _perp(6.0).theoretical_intensity == pytest.approx(3.0)
    assert _perp(6.0, apply_transverse_factor=False).theoretical_intensity == pytest.approx(6.0)


@pytest.mark.parametrize("factor", [True, False])
@pytest.mark.parametrize("scheme", ["parallel", "perpendicular"])
def test_single_pump_intensity_inverts_the_mapping(scheme, factor):
    # the mapping only scales by powers of two, so the round trip is exact
    config = GratingConfig(scheme, 7.3, apply_transverse_factor=factor)
    assert single_pump_intensity(scheme, config.theoretical_intensity, factor) == 7.3


# ---------------------------------------------------------------------------
# Diffracted signals
# ---------------------------------------------------------------------------

def test_signals_are_nonnegative_and_scheme_checked():
    # one function serves both schemes and reads the branch from config.scheme
    assert intensity_grating_signal is grating_signal
    assert polarization_grating_signal is grating_signal
    times = np.linspace(0.0, 22.0, 301)
    for config in (_par(), _perp()):
        sig = grating_signal(_trace(config.theoretical_intensity, times), config)
        assert np.all(sig.values >= 0.0)
        assert sig.metadata["scheme"] == config.scheme


def test_polarization_signal_squares_the_anisotropy():
    times = np.linspace(0.0, 22.0, 301)
    config = _perp(8.0)
    # the linear trace at the mapped one-beam intensity; the anisotropy
    # difference is 3/2 of it, detected as its square
    assert config.theoretical_intensity == 4.0
    trace = _trace(4.0, times)
    sig = grating_signal(trace, config)
    assert np.max(np.abs(sig.values - (1.5 * trace.values) ** 2)) < 1e-12
    assert sig.metadata["scheme"] == "perpendicular"
    assert sig.metadata["heterodyned"] is False


def test_intensity_signal_squares_the_trace():
    times = np.linspace(0.0, 22.0, 301)
    config = _par(10.0)
    assert config.theoretical_intensity == 10.0
    trace = _trace(10.0, times)
    sig = grating_signal(trace, config)
    assert np.max(np.abs(sig.values - trace.values**2)) < 1e-12


def test_saturation_warning():
    times = np.linspace(0.0, 5.0, 32)
    # parallel pumps peak at 4 I0 in the bright fringe
    hot = _par(SATURATION_INTENSITY / 4.0 + 1.0)
    with pytest.warns(UserWarning, match="peak intensity 204 TW/cm"):
        grating_signal(_trace(hot.theoretical_intensity, times), hot)
    # perpendicular pumps write no intensity fringes: the two beams sum to a
    # constant 2 I0, so I0 = 60 (the 293 K TDSE benchmark case) stays below
    config = _perp(60.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grating_signal(_trace(config.theoretical_intensity, times), config)
    hot = _perp(SATURATION_INTENSITY / 2.0 + 1.0)
    with pytest.warns(UserWarning, match="peak intensity 202 TW/cm"):
        grating_signal(_trace(hot.theoretical_intensity, times), hot)


# ---------------------------------------------------------------------------
# Heterodyne algebra
# ---------------------------------------------------------------------------

def test_heterodyne_reduces_to_homodyne():
    times = np.linspace(-1.0, 5.0, 97)
    s = np.sin(times)
    assert np.allclose(diffracted_signal("parallel", s, times, 0.0, 0.0), s**2, atol=1e-15)


def test_heterodyne_switch_on_time():
    times = np.array([-1.0, -0.1, 0.0, 0.5])
    s = np.full(4, 0.2)
    out = diffracted_signal("parallel", s, times, 1.0, 0.0)
    assert out[0] == pytest.approx(0.04)
    assert out[1] == pytest.approx(0.04)
    assert out[2] == pytest.approx(1.44)
    assert out[3] == pytest.approx(1.44)


def test_heterodyne_linearizes_for_large_background():
    times = np.zeros(5)
    s = np.linspace(-0.01, 0.01, 5)
    b = 10.0
    out = diffracted_signal("parallel", s, times, b, 0.0)
    # |s+b|^2 = b^2 + 2 b s + s^2: cross term dominates the signal part
    assert np.allclose(out - b**2, 2 * b * s, atol=1e-4)


def test_heterodyne_complex_background():
    out = diffracted_signal("parallel", [0.3], [1.0], 1j, 0.0)
    assert out[0] == pytest.approx(0.09 + 1.0)


# ---------------------------------------------------------------------------
# Probe convolution
# ---------------------------------------------------------------------------

def test_probe_convolve_preserves_mean_and_flattens():
    times = np.linspace(0.0, 10.0, 2000, endpoint=False)
    values = 1.0 + np.cos(2.0 * np.pi * times)
    sig = SignalTrace(times, values, {})
    out = probe_convolve(sig, 0.5)
    assert np.mean(out.values) == pytest.approx(np.mean(values), rel=1e-9)
    # a Gaussian of FWHM tau damps a cosine of period T by exp(-2 (pi sigma / T)^2)
    sigma = 0.5 / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    damp = math.exp(-2.0 * (math.pi * sigma / 1.0) ** 2)
    assert np.max(out.values) - 1.0 == pytest.approx(damp, rel=1e-3)


def test_probe_convolve_constant_unchanged():
    times = np.linspace(0.0, 4.0, 128)
    sig = SignalTrace(times, np.full(128, 0.7), {})
    out = probe_convolve(sig, 0.3)
    assert np.allclose(out.values, 0.7, atol=1e-12)


def test_probe_convolve_needs_uniform_grid():
    times = np.array([0.0, 0.1, 0.3, 0.35])
    sig = SignalTrace(times, np.zeros(4), {})
    with pytest.raises(ValueError, match="uniform"):
        probe_convolve(sig, 0.1)
    with pytest.raises(ValueError):
        probe_convolve(SignalTrace(np.arange(4.0), np.zeros(4), {}), 0.0)


def test_gaussian_wrap_is_scipys_wrapped_filter_bit_for_bit():
    # random widths and grid sizes, kernels wider than the grid (r > n)
    # among them, and kernels of several chunks of taps
    rng = np.random.default_rng(7)
    cases = [(int(rng.integers(2, 300)), float(10.0 ** rng.uniform(-1.5, 2.5))) for _ in range(300)]
    cases += [(2, 1e4), (64, 3e3), (4096, 40.0), (5, 0.1), (5, 0.125)]
    assert sum(int(4.0 * sigma + 0.5) > n for n, sigma in cases) >= 50
    for n, sigma in cases:
        values = rng.random(n) * 10.0 ** rng.uniform(-3.0, 3.0)
        want = gaussian_filter1d(values, sigma, mode="wrap")
        assert gaussian_wrap(values, sigma).tobytes() == want.tobytes(), (n, sigma)


@pytest.mark.parametrize("probe, budget", [(1e9, "GB of working memory"), (3e4, "multiply-adds")])
def test_probe_convolve_prices_its_kernel(probe, budget):
    # on 4,096 delays 0.01 ps apart, 1e9 ps is a kernel of 3.4e11 taps, 2.7 TB,
    # and 3e4 ps one of 1e7 taps, 4.2e10 multiply-adds: both raise before the
    # kernel exists
    sig = SignalTrace(np.arange(4096) * 0.01, np.zeros(4096), {})
    with pytest.raises(ValueError, match=re.escape(f"probe_tau_fwhm_ps={probe:g} needs about ") + f".* {budget}"):
        probe_convolve(sig, probe)


# ---------------------------------------------------------------------------
# Separable-model quality across the grating
# ---------------------------------------------------------------------------

def _separable_deviations(temperature, single_pump_intensity, n_positions=9):
    """Fringe positions x / Lambda, the deviation |revival peak at the local
    intensity - fringe * peak at the mean| at each, and the largest deviation
    relative to the largest local peak over one grating period.

    Parallel pumps put the local intensity 2 I0 (1 + cos 2kx) at fringe
    position x; the separable model scales the trace at the mean 2 I0 by the
    fringe profile (1 + cos 2kx).  One basis, sized for the bright fringe,
    serves every position.
    """
    times = revival_time_grid(CO2, 2048, t_start=1.0)
    ens = boltzmann_ensemble(CO2, temperature)
    xi_mean = xi_per_intensity(CO2) * 2.0 * single_pump_intensity
    j_max = suggest_j_max(ens.j_thermal_max, 2.0 * xi_mean)

    def revival_peak(xi):
        dec = fourier_decompose(kick_ensemble(CO2, ens, xi, j_max), "y")
        return float(np.max(np.abs(reconstruct(dec, times).values)))

    positions = np.linspace(0.0, 1.0, n_positions, endpoint=False)
    fringes = 1.0 + np.cos(2.0 * np.pi * positions)
    peaks = np.array([revival_peak(xi_mean * f) for f in fringes])
    deviations = np.abs(peaks - fringes * revival_peak(xi_mean))
    return positions, deviations, float(deviations.max() / peaks.max())


def test_spatial_modulation_small_at_moderate_intensity():
    # the paper's single-pump reduction: at moderate intensity each fringe
    # position aligns in proportion to its local intensity.  Mean fringe
    # intensity 20 TW/cm^2 at room temperature
    positions, _, max_relative = _separable_deviations(293.0, 10.0)
    assert max_relative <= 0.10
    assert len(positions) == 9


def test_spatial_modulation_dark_fringe_and_weak_limit():
    positions, deviations, max_relative = _separable_deviations(60.0, 0.2, n_positions=4)
    # the dark fringe sees no pump at all: identically zero deviation
    dark = int(np.argmin(np.abs(positions - 0.5)))
    assert positions[dark] == pytest.approx(0.5, abs=1e-12)
    assert deviations[dark] == pytest.approx(0.0, abs=1e-14)
    # weak pumping is the exactly proportional regime
    assert max_relative < 0.01


# ---------------------------------------------------------------------------
# CSV writer
# ---------------------------------------------------------------------------

def test_signal_csv_format(tmp_path):
    times = np.linspace(0.0, 1.0, 5)
    sig = SignalTrace(times, times**2, {})
    path = tmp_path / "sig.csv"
    write_signal_csv(sig, str(path), header_metadata={"version": "x"})
    lines = path.read_text().splitlines()
    assert lines[0] == "# version: x"
    assert lines[1] == "delay_ps,signal_au"
    assert len(lines) == 2 + 5
    # fixed-format rows are byte-stable
    write_signal_csv(sig, str(tmp_path / "sig2.csv"), header_metadata={"version": "x"})
    assert (tmp_path / "sig2.csv").read_bytes() == path.read_bytes()
