"""Physical constants and unit conversions.

Working units throughout the package: rotational constants in cm^-1, time in
ps, laser intensity in TW/cm^2, polarizability anisotropies in Angstrom^3
(polarizability volumes). Everything that crosses between these systems goes
through the constants below; no other module hard-codes a conversion factor.
"""

import math

# CODATA 2018
C_SI = 2.99792458e8            # speed of light [m/s]
HBAR_SI = 1.054571817e-34      # reduced Planck constant [J s]
KB_SI = 1.380649e-23           # Boltzmann constant [J/K]
H_SI = 6.62607015e-34          # Planck constant [J s]

C_CM_PER_PS = C_SI * 1e2 * 1e-12     # speed of light [cm/ps]

# Angular frequency per wavenumber: omega[rad/ps] = TWO_PI_C * E[cm^-1].
TWO_PI_C = 2.0 * math.pi * C_CM_PER_PS

# k_B T in wavenumbers: E[cm^-1] = KT_CM1_PER_K * T[K].
KT_CM1_PER_K = KB_SI / (H_SI * C_SI * 1e2)

# Dimensionless kick strength accumulated per unit pump fluence:
#   d(xi)/dt = XI_PER_A3_FLUENCE * delta_alpha[A^3] * I(t)[TW/cm^2]   [1/ps]
# Polarizability volumes convert to SI as alpha_SI = 4 pi eps0 * alpha * 1e-30,
# and the cycle-averaged field square is E^2 = 2 I / (eps0 c), which leaves
# 2 pi * 1e-26 / (hbar c) once the fluence is expressed in TW/cm^2 * ps.
XI_PER_A3_FLUENCE = 2.0 * math.pi * 1e-26 / (HBAR_SI * C_SI)

# FWHM-to-integral factor of a Gaussian: integral = peak * fwhm * GAUSS_FWHM_INTEGRAL.
GAUSS_FWHM_INTEGRAL = math.sqrt(math.pi / (4.0 * math.log(2.0)))


def revival_period(b_cm1: float) -> float:
    """Rotational revival period 1/(2 B c) in ps."""
    return 1.0 / (2.0 * b_cm1 * C_CM_PER_PS)


def thermal_wavenumber(temperature: float) -> float:
    """k_B T expressed in cm^-1."""
    return KT_CM1_PER_K * temperature
