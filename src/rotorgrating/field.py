"""Pump pulse description: envelope, polarization, and the effective kick area.

The rotor sees a nonresonant pulse only through the dimensionless kick
strength

    xi = (delta_alpha / 4 hbar) * integral E^2 dt
       = (2 pi 1e-26 / hbar c) * delta_alpha[A^3] * fluence[TW/cm^2 ps]

where the second form uses polarizability volume (alpha_SI = 4 pi eps0
alpha_vol) and cycle-averaged intensity I = eps0 c E^2 / 2.  For a Gaussian
intensity envelope the fluence is I_peak * tau_fwhm * sqrt(pi / 4 ln 2).
The carrier is never represented; everything downstream is cycle averaged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import GAUSS_FWHM_INTEGRAL, XI_PER_A3_FLUENCE
from .rotor import MoleculeSpec


# within 1 ms the float64 phases omega_J t of the fastest lines stay accurate
# to ~1e-5 rad; pump arrival times and probe delays both stay inside it
MAX_DELAY_PS = 1e9


@dataclass(frozen=True)
class PulseSpec:
    """Gaussian pump pulse.

    peak_intensity in TW/cm^2 (cycle averaged), tau_fwhm_ps the intensity
    FWHM, t0_ps the arrival time.
    pol_a and pol_b are the real field amplitudes along lab x and y,
    normalized to pol_a^2 + pol_b^2 = 1; (0, 1) is linear along y and
    (1/sqrt2, 1/sqrt2) circular.
    """

    peak_intensity: float
    tau_fwhm_ps: float = 0.1
    t0_ps: float = 0.0
    pol_a: float = 0.0
    pol_b: float = 1.0

    def __post_init__(self):
        if self.peak_intensity < 0:
            raise ValueError(f"peak intensity must be nonnegative, got {self.peak_intensity}")
        if self.tau_fwhm_ps <= 0:
            raise ValueError(f"pulse FWHM must be positive, got {self.tau_fwhm_ps}")
        if not abs(self.t0_ps) <= MAX_DELAY_PS:
            raise ValueError(f"pump arrival time {self.t0_ps:.6g} ps lies outside "
                             f"+-{MAX_DELAY_PS:.0e} ps")
        ta, tb = pulse_window(self)
        if not ta < self.t0_ps < tb:
            raise ValueError(f"pulse FWHM {self.tau_fwhm_ps:.6g} ps vanishes next to its "
                             f"arrival time {self.t0_ps:.6g} ps")
        if abs(self.pol_a**2 + self.pol_b**2 - 1.0) > 1e-12:
            raise ValueError(
                f"polarization must be normalized, got pol_a^2+pol_b^2 = "
                f"{self.pol_a**2 + self.pol_b**2!r}"
            )

    @property
    def a2(self) -> float:
        """Squared amplitude along x."""
        return self.pol_a**2

    @property
    def b2(self) -> float:
        """Squared amplitude along y."""
        return self.pol_b**2

    @property
    def fluence(self) -> float:
        """Time-integrated intensity in TW/cm^2 ps."""
        return self.peak_intensity * self.tau_fwhm_ps * GAUSS_FWHM_INTEGRAL


def elliptic_pulse(
    peak_intensity: float, a2: float, b2: float, tau_fwhm_ps: float = 0.1, t0_ps: float = 0.0
) -> PulseSpec:
    """Pulse built from squared polarization amplitudes (a2 along x, b2 along y)."""
    if a2 < 0 or b2 < 0 or abs(a2 + b2 - 1.0) > 1e-12:
        raise ValueError(f"squared amplitudes must be nonnegative with a2+b2=1, got {a2}, {b2}")
    return PulseSpec(peak_intensity, tau_fwhm_ps, t0_ps, pol_a=math.sqrt(a2), pol_b=math.sqrt(b2))


def effective_area(pulse: PulseSpec, molecule: MoleculeSpec) -> float:
    """Kick strength xi of the pulse; 0.444 per TW/cm^2 for the CO2 default at 0.1 ps."""
    return XI_PER_A3_FLUENCE * molecule.delta_alpha_a3 * pulse.fluence


def xi_per_intensity(molecule: MoleculeSpec, tau_fwhm_ps: float = 0.1) -> float:
    """xi per unit peak intensity (TW/cm^2) for a Gaussian pulse of given FWHM."""
    return XI_PER_A3_FLUENCE * molecule.delta_alpha_a3 * tau_fwhm_ps * GAUSS_FWHM_INTEGRAL


def envelope_intensity(pulse: PulseSpec, t):
    """Intensity envelope I(t) in TW/cm^2; accepts scalars or arrays of t in ps."""
    t = np.asarray(t, dtype=float)
    arg = 4.0 * math.log(2.0) * (t - pulse.t0_ps) ** 2 / pulse.tau_fwhm_ps**2
    return pulse.peak_intensity * np.exp(-arg)


def kick_rate(pulse: PulseSpec, molecule: MoleculeSpec, t):
    """Instantaneous d(xi)/dt in 1/ps, the coupling strength in the TDSE."""
    return XI_PER_A3_FLUENCE * molecule.delta_alpha_a3 * envelope_intensity(pulse, t)


def pulse_half_window(pulse: PulseSpec) -> float:
    """Half width of the interval outside which the pulse is negligible: 3 FWHM.

    The fluence fraction beyond 3 FWHM of a Gaussian intensity envelope is
    erfc(6 sqrt(ln 2)) = 1.6e-12, far under the norm and integrator tolerances.
    """
    return 3.0 * pulse.tau_fwhm_ps


def pulse_window(pulse: PulseSpec) -> tuple[float, float]:
    """The pulse's interval t0 +- pulse_half_window."""
    h = pulse_half_window(pulse)
    return (pulse.t0_ps - h, pulse.t0_ps + h)
