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

grating_signal picks the branch from GratingConfig.scheme; diffracted_signal
is the per-sample model it shares with the fit's forward model.

f is the transverse-averaging convention factor (default 1/2) applied to map
experimental to theoretical intensity; it is exposed in metadata and never
hidden inside fitted parameters.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import gaussian_filter1d

from .field import PulseSpec
from .observables import (
    AlignmentTrace,
    FourierDecomposition,
    fourier_decompose,
    reconstruct,
    thermal_channel_set,
)
from .rotor import MoleculeSpec

SATURATION_INTENSITY = 200.0  # TW/cm^2, ionization saturation for CO2-like gases


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
        if self.scheme not in ("parallel", "perpendicular"):
            raise ValueError(f"scheme must be 'parallel' or 'perpendicular', got {self.scheme!r}")
        if not 0.0 < self.crossing_angle_deg < 20.0:
            raise ValueError(f"crossing angle must be in (0, 20) deg, got {self.crossing_angle_deg}")
        if self.single_pump_peak_intensity < 0:
            raise ValueError(f"pump intensity must be nonnegative, got {self.single_pump_peak_intensity}")
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
        if len(self.values) and self.values.min() < 0:
            raise ValueError(f"homodyne signal must be nonnegative, got min {self.values.min()}")


@dataclass(frozen=True)
class GratingGeometry:
    """Fringe periods and order-1 diffraction (deflection) angles."""

    fringe_period_um: float
    alignment_order1_angle_deg: float
    plasma_period_um: float
    plasma_order1_angle_deg: float

    def __post_init__(self):
        for name in ("fringe_period_um", "alignment_order1_angle_deg",
                     "plasma_period_um", "plasma_order1_angle_deg"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def to_dict(self) -> dict:
        return {
            "fringe_period_um": self.fringe_period_um,
            "alignment_order1_angle_deg": self.alignment_order1_angle_deg,
            "plasma_period_um": self.plasma_period_um,
            "plasma_order1_angle_deg": self.plasma_order1_angle_deg,
        }


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
    if config.scheme == "perpendicular":
        plasma_period = period / 2.0
        plasma_angle = math.degrees(math.asin(lam_um / plasma_period))
    else:
        plasma_period = period
        plasma_angle = align_angle
    return GratingGeometry(period, align_angle, plasma_period, plasma_angle)


def _warn_if_saturated(config: GratingConfig):
    peak = 4.0 * config.single_pump_peak_intensity
    if peak > SATURATION_INTENSITY:
        warnings.warn(
            f"bright-fringe intensity {peak:.0f} TW/cm^2 exceeds the "
            f"{SATURATION_INTENSITY:.0f} TW/cm^2 ionization saturation; "
            "neutral-depletion effects are not modeled",
            stacklevel=3,
        )


def _linear_trace(
    molecule: MoleculeSpec,
    temperature: float,
    intensity: float,
    config: GratingConfig,
    times,
    method: str,
    j_max: int | None,
    decomposition: FourierDecomposition | None = None,
) -> AlignmentTrace:
    if decomposition is None:
        pulse = PulseSpec(intensity, config.tau_fwhm_ps, config.t0_ps)
        cs = thermal_channel_set(molecule, temperature, pulse, method=method, j_max=j_max)
        decomposition = fourier_decompose(cs, "y")
    trace = reconstruct(decomposition, times)
    trace.metadata.update(theoretical_intensity=intensity, scheme=config.scheme)
    return trace


def heterodyne_with_background(times, field_values, background: complex, t_on: float = 0.0):
    """|s(t) + b|^2 with the background switched on from t_on onward.

    The background models a long-lived plasma contribution: a single complex
    constant present after the pump, absent before.
    """
    b = np.where(np.asarray(times, dtype=float) >= t_on, complex(background), 0.0)
    return np.abs(np.asarray(field_values) + b) ** 2


def diffracted_signal(scheme: str, trace_values, times, background: complex | None = None,
                      t_on: float = 0.0) -> np.ndarray:
    """Per-sample diffracted signal from linear-polarization trace values.

    Perpendicular pumps diffract off (3/2) times the trace, parallel pumps off
    the trace itself, heterodyned by a nonzero plasma background from t_on
    onward.  grating_signal and the fit's model_signal both end here.
    """
    field_values = np.asarray(trace_values)
    if scheme == "perpendicular":
        field_values = 1.5 * field_values
    if background:
        return heterodyne_with_background(times, field_values, background, t_on)
    return field_values**2


def grating_signal(
    molecule: MoleculeSpec,
    temperature: float,
    config: GratingConfig,
    times,
    method: str = "sudden",
    j_max: int | None = None,
    decomposition: FourierDecomposition | None = None,
) -> SignalTrace:
    """Diffracted signal versus probe delay for the scheme in config.

    Parallel pumps write an intensity grating, optionally heterodyned by the
    plasma background switched on at config.t0_ps.  Perpendicular pumps write
    a polarization grating: the x-y anisotropy difference carries (3/2) times
    the linear-polarization trace, and the plasma grating diffracts to a
    different angle, so no background enters at order 1.  A given
    decomposition (y axis, config.theoretical_intensity) replaces propagation.
    """
    _warn_if_saturated(config)
    times = np.asarray(times, dtype=float)
    trace = _linear_trace(
        molecule, temperature, config.theoretical_intensity, config, times, method, j_max,
        decomposition,
    )
    values = diffracted_signal(
        config.scheme, trace.values, times, config.plasma_background, config.t0_ps
    )
    meta = dict(trace.metadata)
    meta.update(
        scheme=config.scheme,
        single_pump_peak_intensity=config.single_pump_peak_intensity,
        apply_transverse_factor=config.apply_transverse_factor,
        heterodyned=config.plasma_background is not None,
    )
    signal = SignalTrace(times, values, meta)
    if config.probe_tau_fwhm_ps:
        signal = probe_convolve(signal, config.probe_tau_fwhm_ps)
    return signal


# scheme-named entry points; the branch is read from config.scheme either way
intensity_grating_signal = polarization_grating_signal = grating_signal


def probe_convolve(signal: SignalTrace, probe_tau_fwhm_ps: float) -> SignalTrace:
    """Smear the signal with a normalized Gaussian probe of the given FWHM.

    Wrap-around boundary handling preserves both the integral and the
    revival periodicity of the underlying rotor signal.  Requires a uniform
    delay grid.
    """
    if probe_tau_fwhm_ps <= 0:
        raise ValueError(f"probe FWHM must be positive, got {probe_tau_fwhm_ps}")
    dts = np.diff(signal.times)
    if len(dts) == 0:
        return signal
    dt = dts[0]
    if not np.allclose(dts, dt, rtol=1e-9, atol=0.0):
        raise ValueError("probe convolution needs a uniform delay grid")
    sigma = probe_tau_fwhm_ps / (2.0 * math.sqrt(2.0 * math.log(2.0))) / dt
    values = gaussian_filter1d(signal.values, sigma, mode="wrap")
    # the kernel is normalized but roundoff can leave tiny negatives
    values = np.maximum(values, 0.0)
    meta = dict(signal.metadata)
    meta["probe_tau_fwhm_ps"] = probe_tau_fwhm_ps
    return SignalTrace(signal.times, values, meta)


@dataclass(frozen=True)
class SpatialModulationReport:
    """Separable-model quality across one grating period (parallel scheme)."""

    positions: np.ndarray  # as fractions of the grating period
    deviations: np.ndarray  # |revival peak, full - separable| per position
    peak_amplitude: float  # max |full trace| over all positions and times
    max_relative_deviation: float

    def to_dict(self) -> dict:
        return {
            "positions_period_fraction": self.positions.tolist(),
            "deviations": self.deviations.tolist(),
            "peak_amplitude": self.peak_amplitude,
            "max_relative_deviation": self.max_relative_deviation,
        }


def spatial_modulation_check(
    molecule: MoleculeSpec,
    temperature: float,
    single_pump_intensity: float,
    n_positions: int = 9,
    tau_fwhm_ps: float = 0.1,
    times=None,
    j_max: int | None = None,
) -> SpatialModulationReport:
    """Test the separable approximation trace(x,t) = trace(t) (1 + cos 2 k x).

    The exact local trace uses the local fringe intensity 4 I0 cos^2(k x);
    the separable model scales the trace computed at the mean intensity 2 I0
    by the fringe profile.  What matters for the diffracted signal is the
    revival amplitude written at each position, so the comparison is between
    revival-peak amplitudes, normalized by the largest one over the period.
    """
    if times is None:
        from .observables import revival_time_grid

        times = revival_time_grid(molecule, 2048, t_start=1.0)
    times = np.asarray(times, dtype=float)
    config = GratingConfig("parallel", single_pump_intensity, tau_fwhm_ps=tau_fwhm_ps)
    mean_intensity = 2.0 * single_pump_intensity
    if j_max is None:
        # one basis for every local intensity, sized for the brightest fringe
        from .field import xi_per_intensity
        from .rotor import boltzmann_ensemble, suggest_j_max

        ens = boltzmann_ensemble(molecule, temperature, 1e-6)
        j_max = suggest_j_max(
            ens.j_thermal_max, xi_per_intensity(molecule, tau_fwhm_ps) * 2.0 * mean_intensity
        )
    reference = _linear_trace(
        molecule, temperature, mean_intensity, config, times, "sudden", j_max
    )
    reference_peak = float(np.max(np.abs(reference.values)))
    fractions = np.linspace(0.0, 1.0, n_positions, endpoint=False)
    deviations = np.empty(n_positions)
    peak = 0.0
    for i, frac in enumerate(fractions):
        fringe = 1.0 + math.cos(2.0 * math.pi * frac)  # (1 + cos 2 k x), period Lambda
        local_intensity = mean_intensity * fringe
        if local_intensity == 0.0:
            deviations[i] = 0.0
            continue
        full = _linear_trace(
            molecule, temperature, local_intensity, config, times, "sudden", j_max
        )
        peak_full = float(np.max(np.abs(full.values)))
        deviations[i] = abs(peak_full - fringe * reference_peak)
        peak = max(peak, peak_full)
    rel = float(deviations.max() / peak) if peak > 0 else 0.0
    return SpatialModulationReport(fractions, deviations, peak, rel)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def write_signal_csv(signal: SignalTrace, path: str, header_metadata: dict | None = None):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(header_metadata or {}):
            fh.write(f"# {key}: {header_metadata[key]}\n")
        fh.write("delay_ps,signal_au\n")
        for t, v in zip(signal.times, signal.values):
            fh.write(f"{t:.12e},{v:.12e}\n")
