"""Transient-grating signal model for crossed-pump, delayed-probe experiments.

Two pumps of single-beam peak intensity I0 cross at a small angle and write a
spatial modulation of molecular alignment; the order-1 diffracted probe
intensity versus delay is the signal.  After the spatial integrals collapse,
both polarization schemes reduce to the square of a single linear-polarization
alignment trace:

  parallel pumps:       signal ~ [trace at intensity 2*I0*f]^2, an intensity
                        grating, optionally heterodyned by a plasma background
  perpendicular pumps:  signal ~ [(3/2) * trace at intensity I0*f]^2, a pure
                        polarization grating (constant total intensity)

grating_signal picks the branch from GratingConfig.scheme, which
check_scheme validates for the config and the fit's FitProblem alike;
diffracted_signal, heterodyne included, is the per-sample model it shares
with the fit's forward model.

f is the transverse-averaging convention factor (default 1/2) applied to map
experimental to theoretical intensity; it is exposed in metadata and never
hidden inside fitted parameters.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dynamics import check_working_set
from .observables import AlignmentTrace, write_columns_csv

SATURATION_INTENSITY = 200.0  # TW/cm^2, ionization saturation for CO2-like gases
MAX_PROBE_WORK = 1e10  # probe kernel multiply-adds; a 3e3 ps probe on 4,096 delays needs 4e9 (~7 s)
PROBE_CHUNK = 1 << 16  # terms of the probe convolution summed per step


@dataclass(frozen=True)
class GratingConfig:
    """Geometry, scheme, and drive strength of the transient grating."""

    scheme: str
    single_pump_peak_intensity: float
    wavelength_nm: float = 800.0
    crossing_angle_deg: float = 1.0
    tau_fwhm_ps: float = 0.1
    t0_ps: float = 0.0
    probe_tau_fwhm_ps: float | None = None
    plasma_background: complex | None = None
    apply_transverse_factor: bool = True

    def __post_init__(self):
        check_scheme(self.scheme)
        if self.wavelength_nm <= 0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength_nm}")
        if not 0.0 < self.crossing_angle_deg < 20.0:
            raise ValueError(f"crossing angle must be in (0, 20) deg, got {self.crossing_angle_deg}")
        if self.single_pump_peak_intensity < 0:
            raise ValueError(f"pump intensity must be nonnegative, got {self.single_pump_peak_intensity}")
        if self.probe_tau_fwhm_ps is not None and not self.probe_tau_fwhm_ps > 0:
            raise ValueError(f"probe FWHM must be positive, got {self.probe_tau_fwhm_ps}")
        if self.plasma_background is not None and self.scheme != "parallel":
            raise ValueError("plasma background heterodyne applies to the parallel scheme only")

    @property
    def theoretical_intensity(self) -> float:
        """Peak intensity fed to the one-beam simulation for this scheme.

        Parallel pumps add coherently (bright-fringe intensity 4*I0, spatial
        mean 2*I0) and are simulated at 2*I0; perpendicular pumps write no
        intensity fringes and are simulated at the one-beam I0.  The
        transverse convention halves either figure-of-merit intensity.
        """
        f = transverse_factor(self.apply_transverse_factor)
        if self.scheme == "parallel":
            return 2.0 * self.single_pump_peak_intensity * f
        return self.single_pump_peak_intensity * f


def check_scheme(scheme: str):
    """ValueError unless scheme is 'parallel' or 'perpendicular'."""
    if scheme not in ("parallel", "perpendicular"):
        raise ValueError(f"scheme must be 'parallel' or 'perpendicular', got {scheme!r}")


def transverse_factor(apply_transverse_factor: bool) -> float:
    """The transverse-averaging convention factor f: 1/2 when applied, else 1."""
    return 0.5 if apply_transverse_factor else 1.0


def single_pump_intensity(scheme: str, theoretical_intensity: float,
                          apply_transverse_factor: bool) -> float:
    """Inverse of GratingConfig.theoretical_intensity: the one-beam I0."""
    f = transverse_factor(apply_transverse_factor)
    if scheme == "parallel":
        return theoretical_intensity / (2.0 * f)
    return theoretical_intensity / f


@dataclass(frozen=True)
class SignalTrace:
    """Diffracted-signal trace in arbitrary units on a delay grid."""

    times: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"signal must be finite, got {np.count_nonzero(~np.isfinite(self.values))} "
                             "non-finite values")
        if len(self.values) and self.values.min() < 0:
            raise ValueError(f"homodyne signal must be nonnegative, got min {self.values.min()}")


@dataclass(frozen=True)
class GratingGeometry:
    """Fringe periods and order-1 diffraction (deflection) angles."""

    fringe_period_um: float
    alignment_order1_angle_deg: float
    plasma_period_um: float
    plasma_order1_angle_deg: float


def grating_geometry(config: GratingConfig) -> GratingGeometry:
    """Fringe period and order-1 angles for both grating types.

    The alignment fringes have period Lambda = lambda / (2 sin(Theta/2));
    a probe picking up one grating wavevector deflects by asin(lambda /
    Lambda).  In the perpendicular scheme the ionization rate follows
    |A^2 - B^2|, which oscillates at twice the spatial frequency: the plasma
    grating period is Lambda/2 and its order-1 angle doubles (small angles).
    In the parallel scheme the plasma pattern follows the intensity grating
    itself.
    """
    lam_um = config.wavelength_nm * 1e-3
    half = math.radians(config.crossing_angle_deg) / 2.0
    period = lam_um / (2.0 * math.sin(half))
    align_angle = math.degrees(math.asin(lam_um / period))
    if not align_angle > 0:  # a vanishing crossing angle overflows the period
        raise ValueError("alignment_order1_angle_deg must be positive")
    if config.scheme == "perpendicular":
        plasma_period = period / 2.0
        plasma_angle = math.degrees(math.asin(lam_um / plasma_period))
    else:
        plasma_period = period
        plasma_angle = align_angle
    return GratingGeometry(period, align_angle, plasma_period, plasma_angle)


def _warn_if_saturated(config: GratingConfig):
    # parallel pumps add coherently in the bright fringe; perpendicular pumps
    # write no intensity fringes and keep the sum of the two beams everywhere
    factor = 4.0 if config.scheme == "parallel" else 2.0
    peak = factor * config.single_pump_peak_intensity
    if peak > SATURATION_INTENSITY:
        warnings.warn(
            f"peak intensity {peak:.0f} TW/cm^2 exceeds the "
            f"{SATURATION_INTENSITY:.0f} TW/cm^2 ionization saturation; "
            "neutral-depletion effects are not modeled",
            stacklevel=3,
        )


def diffracted_signal(scheme: str, trace_values, times, background: complex | None,
                      t_on: float) -> np.ndarray:
    """Per-sample diffracted signal from linear-polarization trace values.

    Perpendicular pumps diffract off (3/2) times the trace s, parallel pumps
    off the trace itself.  A nonzero plasma background b heterodynes it to
    |s(t) + b|^2: b models a long-lived plasma contribution, a single complex
    constant present from t_on onward and absent before.  grating_signal and
    the fit's model_signal both end here.
    """
    field_values = np.asarray(trace_values)
    if scheme == "perpendicular":
        field_values = 1.5 * field_values
    if not background:
        return field_values**2
    b = np.where(np.asarray(times, dtype=float) >= t_on, complex(background), 0.0)
    return np.abs(field_values + b) ** 2


def grating_signal(trace: AlignmentTrace, config: GratingConfig) -> SignalTrace:
    """Diffracted signal versus probe delay for the scheme in config.

    trace is the y-axis linear-polarization alignment trace at
    config.theoretical_intensity, with the pump at config.t0_ps.  Parallel
    pumps write an intensity grating, optionally heterodyned by the plasma
    background switched on at config.t0_ps.  Perpendicular pumps write a
    polarization grating: the x-y anisotropy difference carries (3/2) times
    the linear-polarization trace, and the plasma grating diffracts to a
    different angle, so no background enters at order 1.
    """
    _warn_if_saturated(config)
    times = np.asarray(trace.times, dtype=float)
    with np.errstate(over="ignore"):  # SignalTrace rejects a signal that overflows
        values = diffracted_signal(config.scheme, trace.values, times, config.plasma_background, config.t0_ps)
    meta = dict(trace.metadata)
    meta.update(
        theoretical_intensity=config.theoretical_intensity,
        scheme=config.scheme,
        single_pump_peak_intensity=config.single_pump_peak_intensity,
        apply_transverse_factor=config.apply_transverse_factor,
        heterodyned=config.plasma_background is not None,
    )
    signal = SignalTrace(times, values, meta)
    if config.probe_tau_fwhm_ps is not None:
        signal = probe_convolve(signal, config.probe_tau_fwhm_ps)
    return signal


# scheme-named aliases of grating_signal, which reads the branch from
# config.scheme either way; the package calls neither, perfbench/layers.py wraps both
intensity_grating_signal = polarization_grating_signal = grating_signal


def probe_sigma(times, probe_tau_fwhm_ps: float) -> float:
    """The probe's Gaussian width in steps of a grid of n >= 2 delays, its kernel priced.

    ValueError unless the grid is uniform (rtol 1e-9) and increasing.
    gaussian_wrap's kernel of 2r + 1 taps, r = int(4 sigma + 0.5), holds
    about 8 (4 (2r + 1) + n) bytes with its build and the wrapped line, and
    takes n (2r + 1) multiply-adds; a ValueError names probe_tau_fwhm_ps when
    either exceeds its budget (the working set's or MAX_PROBE_WORK).
    """
    dts = np.diff(times)
    if not (dts[0] > 0 and np.allclose(dts, dts[0], rtol=1e-9, atol=0.0)):
        raise ValueError("probe convolution needs a uniform, increasing delay grid")
    # over a Python float step, a width beyond the float range overflows to inf without a warning
    width, step = probe_tau_fwhm_ps / (2.0 * math.sqrt(2.0 * math.log(2.0))), float(dts[0])
    sigma = width / step
    what = f"the probe convolution at probe_tau_fwhm_ps={probe_tau_fwhm_ps:g}"
    if math.isfinite(sigma):
        taps = 2 * int(4.0 * sigma + 0.5) + 1
    else:  # counted exactly, so the estimate below prints a finite figure
        taps = 2 * int(4 * Fraction(width) / Fraction(step) + Fraction(1, 2)) + 1
    check_working_set(8 * (4 * taps + len(times)), what)
    if (work := len(times) * taps) > MAX_PROBE_WORK:
        raise ValueError(f"{what} needs about {work:.3g} multiply-adds, above the budget of {MAX_PROBE_WORK:g}")
    return sigma


def gaussian_wrap(values: np.ndarray, sigma: float) -> np.ndarray:
    """values smoothed by a normalized Gaussian of sigma samples, indices modulo n.

    scipy.ndimage.gaussian_filter1d(values, sigma, mode="wrap"), bit for bit:
    the same kernel, exp(-0.5 / sigma^2 x^2) over 2r + 1 taps, r = int(4 sigma
    + 0.5), divided by its sum, and the same symmetric summation order, out =
    v w_0, then out += (v[i - j] + v[i + j]) w_j for j = r down to 1.  Taps
    go in chunks of about PROBE_CHUNK terms, one tap per row, each chunk
    summed down its rows in order (numpy sums pairwise along the fast axis
    only).  A kernel of one tap (sigma < 1/8) returns the values unchanged.
    """
    radius = int(4.0 * sigma + 0.5)
    if radius == 0:
        return values.copy()
    x = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    weights = kernel[radius:] / kernel.sum()
    n = len(values)
    shifted = sliding_window_view(np.tile(values, 3), n)  # row n + s: v[i + s] for |s| <= n
    rows = max(1, PROBE_CHUNK // n)
    out = values * weights[0]
    for top in range(radius, 0, -rows):
        taps = np.arange(top, max(top - rows, 0), -1)
        terms = np.empty((len(taps) + 1, n))
        terms[0] = out
        np.add(shifted[n - taps % n], shifted[n + taps % n], out=terms[1:])
        terms[1:] *= weights[taps, None]
        out = terms.sum(axis=0)
    return out


def probe_convolve(signal: SignalTrace, probe_tau_fwhm_ps: float) -> SignalTrace:
    """Smear the signal with a normalized Gaussian probe of the given FWHM.

    Wrap-around boundary handling preserves both the integral and the
    revival periodicity of the underlying rotor signal.  Requires a uniform
    delay grid and a kernel within the budgets of probe_sigma.
    """
    if probe_tau_fwhm_ps <= 0:
        raise ValueError(f"probe FWHM must be positive, got {probe_tau_fwhm_ps}")
    if len(signal.times) < 2:
        return signal
    values = gaussian_wrap(signal.values, probe_sigma(signal.times, probe_tau_fwhm_ps))
    # the kernel is normalized but roundoff can leave tiny negatives
    values = np.maximum(values, 0.0)
    meta = dict(signal.metadata)
    meta["probe_tau_fwhm_ps"] = probe_tau_fwhm_ps
    return SignalTrace(signal.times, values, meta)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def write_signal_csv(signal: SignalTrace, path: str, header_metadata: dict | None):
    write_columns_csv(path, "delay_ps,signal_au", (signal.times, signal.values), header_metadata)
