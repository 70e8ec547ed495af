"""Self-contained invariant suites behind the `validate` subcommand.

Each suite returns CheckResult rows with the measured value next to its
target, so a failing run shows how far off the implementation is, not just
that it failed.  The suites are independent and side-effect-free; numerical
work stays small enough for an interactive run.  The oracles run on numpy
alone: the spherical harmonics from its Legendre series, the normal
distribution function from math.erfc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .constants import revival_period, thermal_wavenumber
from .dynamics import (
    BasisTooSmallError,
    PropagationError,
    check_strengths,
    kick_ensemble,
    tdse_ensemble,
    elliptic_tdse_ensemble,
)
from .field import PulseSpec, elliptic_pulse, xi_per_intensity
from .observables import (
    RegimeScanResult,
    alignment_trace,
    elliptic_approx,
    fourier_decompose,
    reconstruct,
    regime_scan,
    revival_time_grid,
)
from .rotor import (
    AXES,
    CO2,
    JMBasis,
    MoleculeSpec,
    boltzmann_ensemble,
    cos2theta_axis_matrix,
    cos2theta_diagonal,
    cos2theta_offdiag,
)


@dataclass(frozen=True)
class CheckResult:
    """One check: `measured` is None when the check could not measure (a failed propagation)."""

    suite: str
    name: str
    passed: bool
    measured: float | None
    target: str
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        value = "n/a" if self.measured is None else f"{self.measured:.6g}"
        out = f"[{status}] {self.suite}/{self.name}: measured {value} (target {self.target})"
        return out + (f" - {self.detail}" if self.detail else "")


# ---------------------------------------------------------------------------
# Quadrature oracle for angular matrix elements
# ---------------------------------------------------------------------------

@cache
def _quadrature_grid() -> tuple:
    """(theta, phi, Gauss-Legendre weights) of the oracle's grid, built on first use."""
    nodes = 64
    x, wx = np.polynomial.legendre.leggauss(nodes)
    theta = np.arccos(x)
    phi = 2.0 * math.pi * np.arange(nodes) / nodes
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    for grid in (tt, pp, wx):
        grid.flags.writeable = False
    return tt, pp, wx


def spherical_harmonic(j: int, m: int, theta, phi):
    """Y_J^M(theta, phi) from numpy's Legendre series, Condon-Shortley phase.

    The associated Legendre function is sin(theta)^|M| d^|M| P_J / dx^|M| at
    x = cos(theta), normalized by sqrt((2J + 1)/(4 pi) (J - |M|)!/(J + |M|)!),
    and Y_J^{-M} = (-1)^M conj(Y_J^M): the textbook definitions, sharing no
    code with rotor's closed forms.
    """
    a = abs(m)
    legendre = np.polynomial.legendre
    p = legendre.legval(np.cos(theta), legendre.legder([0] * j + [1], a))
    norm = math.sqrt((2 * j + 1) / (4.0 * math.pi) * math.factorial(j - a) / math.factorial(j + a))
    y = (-1) ** a * norm * np.sin(theta) ** a * p * np.exp(1j * a * phi)
    return y if m >= 0 else (-1) ** a * np.conj(y)


def quadrature_element(jp: int, mp: int, j: int, m: int, weight) -> complex:
    """<J',M'| f(theta,phi) |J,M> by Gauss-Legendre x uniform-phi quadrature.

    weight(theta, phi) is the multiplicative operator.  Gauss-Legendre in
    cos(theta) with 64 points is exact for the polynomial integrands here;
    the uniform phi rule is exact for the finite Fourier content.  The grid
    is built once, on the first call.
    """
    tt, pp, wx = _quadrature_grid()
    nodes = len(wx)
    integrand = (
        np.conj(spherical_harmonic(jp, mp, tt, pp))
        * weight(tt, pp)
        * spherical_harmonic(j, m, tt, pp)
    )
    # phi: trapezoid on a periodic grid = uniform weights 2 pi / nodes
    return complex(np.sum(integrand * wx[:, None]) * 2.0 * math.pi / nodes)


_AXIS_WEIGHT = {
    "z": lambda t, p: np.cos(t) ** 2,
    "x": lambda t, p: (np.sin(t) * np.cos(p)) ** 2,
    "y": lambda t, p: (np.sin(t) * np.sin(p)) ** 2,
}


# ---------------------------------------------------------------------------
# Classical oracle for the permanent alignment of a kicked rotor
# ---------------------------------------------------------------------------

_erfc = np.vectorize(math.erfc, otypes=[float])


def normal_cdf(x):
    """The standard normal distribution function, 0.5 erfc(-x / sqrt2), elementwise."""
    return 0.5 * _erfc(-np.asarray(x) / math.sqrt(2.0))


def _check_oracle_temperature(temperature: float):
    """ValueError unless the classical oracle's thermal spread is defined: temperature > 0."""
    if temperature <= 0:
        raise ValueError(f"classical oracle needs a positive temperature, got {temperature}")


def classical_permanent_alignment(molecule: MoleculeSpec, temperature: float, xi):
    """Permanent alignment C of a thermal classical rotor after a kick xi.

    A from-scratch oracle sharing no code with the propagators.  The axis n
    is isotropic, the angular momentum L (units of hbar) lies in the plane
    perpendicular to n with per-component variance kT/(2B), and the kick
    -xi cos^2 adds dL = 2 xi (n.y)(n x y).  The free rotor then sweeps its
    axis around the circle normal to L', so the time-averaged alignment is
    C = <(1 - (L'^.y)^2)/2> - 1/3: zero without a kick, 1/6 in the
    strong-kick limit where every L' ends up perpendicular to y.

    With u = n.y and L = L1 e1 + L2 e2 (e1 toward y in the plane, e2 = n x e1),
    (L'^.y)^2 = (1 - u^2) sin^2(phi), where phi is the angle of the 2-D
    Gaussian vector (L1, L2) shifted by a = 2 xi u sqrt(1 - u^2) / sigma
    standard deviations along e2, measured from that shift.  Its
    projected-normal density is closed-form, so C is a smooth double
    integral: Gauss-Legendre in u and a uniform periodic rule in phi.  The
    100 x 128 nodes converge C to ~1e-14 for kicks up to 10 sigma
    (sigma = sqrt(kT/2B); xi = 160 for CO2 at 293 K); stronger kicks narrow
    the density to ~1/a and need more nodes.  `xi` may be a scalar or an array.
    """
    _check_oracle_temperature(temperature)
    xi = np.asarray(xi, dtype=float)
    sigma = math.sqrt(thermal_wavenumber(temperature) / (2.0 * molecule.b_cm1))
    u, wu = np.polynomial.legendre.leggauss(100)
    n_phi = 128
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    a = (2.0 * xi[..., None] * u * np.sqrt(1.0 - u * u) / sigma)[..., None]
    b = a * np.cos(phi)
    density = (
        np.exp(-0.5 * a * a)
        + math.sqrt(2.0 * math.pi) * b * normal_cdf(b) * np.exp(-0.5 * (a * np.sin(phi)) ** 2)
    ) / (2.0 * math.pi)
    sin2 = np.sum(np.sin(phi) ** 2 * density, axis=-1) * 2.0 * math.pi / n_phi
    # u is uniform on [-1, 1]: <g(u)> = (1/2) sum w g
    return 0.5 - 0.25 * np.sum(wu * (1.0 - u * u) * sin2, axis=-1) - 1.0 / 3.0


def classical_c_high_slope(molecule: MoleculeSpec, scan: RegimeScanResult) -> float:
    """Log-log slope of the classical-oracle C on a scan's own high-window points."""
    lo, hi = scan.metadata["high_window"]
    sel = (scan.intensities >= lo) & (scan.intensities <= hi)
    xi = xi_per_intensity(molecule, scan.metadata["tau_fwhm_ps"]) * scan.intensities[sel]
    c = classical_permanent_alignment(molecule, scan.metadata["temperature_K"], xi)
    return float(np.polyfit(np.log(scan.intensities[sel]), np.log(c), 1)[0])


def suite_operators() -> list[CheckResult]:
    """Closed-form matrix elements against the quadrature oracle, plus the axis-sum identity."""
    rows: list[CheckResult] = []
    j_cap = 6
    worst = 0.0
    for m in range(0, j_cap + 1):
        for j in range(m, j_cap + 1):
            d = float(cos2theta_diagonal(j, m))
            q = quadrature_element(j, m, j, m, _AXIS_WEIGHT["z"]).real
            worst = max(worst, abs(d - q))
            if j + 2 <= j_cap:
                o = float(cos2theta_offdiag(j, m))
                q2 = quadrature_element(j + 2, m, j, m, _AXIS_WEIGHT["z"]).real
                worst = max(worst, abs(o - q2))
    rows.append(CheckResult("operators", "fixed_m_vs_quadrature", worst < 1e-10, worst, "< 1e-10"))

    basis = JMBasis(4)
    mats = {axis: np.zeros((len(basis), len(basis))) for axis in AXES}
    for axis, mat in mats.items():
        at, to, values = cos2theta_axis_matrix(basis, axis)
        mat[at, to] = values
    worst = 0.0
    for axis in ("x", "y"):
        for (jp, mp, j, m) in [(2, 2, 0, 0), (2, -2, 0, 0), (2, 0, 0, 0), (3, 1, 1, -1),
                               (4, 2, 2, 0), (3, -1, 3, 1), (2, 2, 2, 0), (4, 4, 4, 2)]:
            closed = float(mats[axis][basis.site(jp, mp), basis.site(j, m)])
            q = quadrature_element(jp, mp, j, m, _AXIS_WEIGHT[axis])
            worst = max(worst, abs(closed - q))
    rows.append(CheckResult("operators", "lab_axes_vs_quadrature", worst < 1e-10, worst, "< 1e-10"))

    total = mats["x"] + mats["y"] + mats["z"]
    dev = float(np.max(np.abs(total - np.eye(len(basis)))))
    rows.append(CheckResult("operators", "axis_sum_identity", dev < 1e-14, dev, "< 1e-14"))
    return rows


def suite_sudden_vs_tdse(molecule: MoleculeSpec = CO2, j_max: int | None = None) -> list[CheckResult]:
    """Post-pulse trace agreement between the delta-kick and finite-pulse routes.

    A 0.1 ps, 11 TW/cm^2 pump on the 30 K ensemble.
    """
    rows: list[CheckResult] = []
    pulse = PulseSpec(11.0)
    ens = boltzmann_ensemble(molecule, 30.0)
    xi = xi_per_intensity(molecule) * 11.0
    cs_kick = kick_ensemble(molecule, ens, xi, j_max)
    cs_tdse = tdse_ensemble(molecule, ens, pulse, j_max)
    times = revival_time_grid(molecule, 2048, t_start=1.0)
    tr_kick = reconstruct(fourier_decompose(cs_kick, "y"), times).values
    tr_tdse = reconstruct(fourier_decompose(cs_tdse, "y"), times).values
    peak = float(np.max(np.abs(tr_tdse)))
    rms = float(np.sqrt(np.mean((tr_kick - tr_tdse) ** 2))) / peak
    rows.append(CheckResult("sudden_vs_tdse", "rms_vs_peak", rms <= 0.02, rms,
                            "<= 0.02", f"xi={xi:.3f}"))

    dev = cs_tdse.norm_deviation()
    rows.append(CheckResult("sudden_vs_tdse", "norm_conservation", dev < 1e-9, dev, "< 1e-9"))
    return rows


def suite_elliptic(molecule: MoleculeSpec = CO2) -> list[CheckResult]:
    """Superposition approximation against the full elliptic integration.

    A 0.1 ps pump of kick strength 0.5 on the 30 K ensemble.
    """
    rows: list[CheckResult] = []
    xi = 0.5
    intensity = xi / xi_per_intensity(molecule)
    ens = boltzmann_ensemble(molecule, 30.0)
    times = revival_time_grid(molecule, 1024, t_start=1.0)

    linear = reconstruct(
        fourier_decompose(kick_ensemble(molecule, ens, xi), "y"), times
    )
    peak = float(np.max(np.abs(linear.values)))

    worst_x = 0.0
    for a2, b2 in ((1.0, 0.0), (2.0 / 3.0, 1.0 / 3.0)):
        pulse = elliptic_pulse(intensity, a2, b2)
        cs = elliptic_tdse_ensemble(molecule, ens, pulse)
        approx = elliptic_approx(linear, a2, b2)
        exact_x = alignment_trace(cs, "x", times).values
        worst_x = max(worst_x, float(np.max(np.abs(exact_x - approx["x"].values))) / peak)
        if (a2, b2) == (1.0, 0.0):
            y_ref_peak = float(np.max(np.abs(alignment_trace(cs, "y", times).values)))
        else:
            y_zero_peak = float(np.max(np.abs(alignment_trace(cs, "y", times).values)))
    rows.append(CheckResult("elliptic", "x_trace_vs_oracle", worst_x <= 0.05, worst_x, "<= 0.05"))
    ratio = y_zero_peak / y_ref_peak
    rows.append(CheckResult("elliptic", "y_suppression_at_two_thirds", ratio <= 0.05, ratio,
                            "<= 0.05", "A^2=2/3 zeroes the y response"))
    return rows


def suite_regimes(molecule: MoleculeSpec = CO2, temperature: float = 293.0) -> list[CheckResult]:
    """Intensity-scaling laws of the permanent and transient alignment."""
    rows: list[CheckResult] = []
    scan = regime_scan(molecule, temperature, [2.0, 4.0, 8.0, 14.0, 20.0, 30.0, 40.0, 56.0, 80.0])
    rows.append(CheckResult("regimes", "c_slope_low", abs(scan.slopes["c_low"] - 2.0) <= 0.1,
                            scan.slopes["c_low"], "2.0 +- 0.1"))
    rows.append(CheckResult(
        "regimes", "max_minus_c_slope",
        abs(scan.slopes["max_minus_c_below_knee"] - 1.0) <= 0.1,
        scan.slopes["max_minus_c_below_knee"], "1.0 +- 0.1"))
    # above the knee C bends toward its strong-kick limit 1/6, so its exponent
    # is no fixed number: compare it with the classical rotor on the same points
    c_high = scan.slopes["c_high"]
    oracle = classical_c_high_slope(molecule, scan)
    rows.append(CheckResult(
        "regimes", "c_slope_high", abs(c_high - oracle) <= 0.15, c_high,
        f"classical rotor {oracle:.3f} +- 0.15",
        f"affine R^2 {scan.slopes['c_high_affine_r2']:.6f} in the high window"))
    return rows


def suite_hygiene(
    molecule: MoleculeSpec = CO2,
    temperature: float = 293.0,
    intensity: float = 20.0,
    j_max: int | None = None,
) -> list[CheckResult]:
    """Norm, revival periodicity, and the basis-edge guard."""
    rows: list[CheckResult] = []
    xi = xi_per_intensity(molecule) * intensity
    ens = boltzmann_ensemble(molecule, temperature)
    try:
        cs = kick_ensemble(molecule, ens, xi, j_max)
    except BasisTooSmallError as exc:
        rows.append(CheckResult("hygiene", "norm_leak_guard", False, None,
                                "basis large enough", str(exc)))
        return rows
    dev = cs.norm_deviation()
    rows.append(CheckResult("hygiene", "ensemble_norm", dev < 1e-9, dev, "< 1e-9"))

    dec = fourier_decompose(cs, "y")
    times = revival_time_grid(molecule, 512, t_start=1.0)
    period = revival_period(molecule.b_cm1)
    a = reconstruct(dec, times).values
    b = reconstruct(dec, times + period).values
    perdev = float(np.max(np.abs(a - b)))
    rows.append(CheckResult("hygiene", "revival_periodicity", perdev < 1e-9, perdev, "< 1e-9"))

    # the guard must fire when the basis is deliberately too small
    try:
        kick_ensemble(molecule, boltzmann_ensemble(molecule, 0.0), 5.0, j_max=8)
        fired = False
    except BasisTooSmallError:
        fired = True
    rows.append(CheckResult("hygiene", "edge_guard_fires", fired, float(fired),
                            "guard raises on j_max=8, xi=5"))
    return rows


SUITE_NAMES = ("operators", "sudden_vs_tdse", "elliptic", "regimes", "hygiene")


def run_all(
    molecule: MoleculeSpec = CO2,
    temperature: float = 293.0,
    intensity: float = 20.0,
    j_max: int | None = None,
    suites=None,
) -> list[CheckResult]:
    """Selected suites, run one after another in a fixed order.

    A suite whose propagation fails reports that as one failed row.  Before
    any suite runs, ValueError rejects what a suite would reject: an empty
    or repeated selection, a negative j_max, a temperature whose Boltzmann
    ensemble cannot be built when hygiene or regimes is selected, one that is
    not positive for the regime suite's classical oracle, and a kick for
    hygiene that is negative or not finite (check_strengths).
    """
    jobs = {
        "operators": lambda: suite_operators(),
        "sudden_vs_tdse": lambda: suite_sudden_vs_tdse(molecule, j_max=j_max),
        "elliptic": lambda: suite_elliptic(molecule),
        "regimes": lambda: suite_regimes(molecule, temperature),
        "hygiene": lambda: suite_hygiene(molecule, temperature, intensity, j_max=j_max),
    }
    names = list(SUITE_NAMES) if suites is None else list(suites)
    # a tuple test, not a dict lookup: entries may be unhashable (a JSON list)
    unknown = [n for n in names if n not in SUITE_NAMES]
    if unknown:
        raise ValueError(f"unknown validation suites {unknown}; choose from {list(SUITE_NAMES)}")
    if not names or len(set(names)) < len(names):
        raise ValueError(f"validation suites must be distinct and at least one, got {names}")
    if j_max is not None and j_max < 0:
        raise ValueError(f"j_max must be nonnegative, got {j_max}")
    if "regimes" in names:
        _check_oracle_temperature(temperature)
    if {"hygiene", "regimes"} & set(names):
        boltzmann_ensemble(molecule, temperature)
    if "hygiene" in names:
        check_strengths(xi_per_intensity(molecule) * intensity)

    def run(name):
        try:
            return jobs[name]()
        except PropagationError as exc:
            return [CheckResult(name, "propagation", False, None, "no numerical failure",
                                str(exc))]

    return [row for name in names for row in run(name)]
