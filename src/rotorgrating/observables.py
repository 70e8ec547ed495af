"""Thermally averaged alignment observables.

Every post-pulse trace of a rigid rotor is a finite cosine series

    <cos^2 theta>(t) - 1/3 = C + sum_J |a_J| cos(omega_J (t - t0) + phi_J)

with omega_J = 2 pi c B (4J+6): the constant C comes from populations and
each component from the thermally weighted J <-> J+2 coherences.  The
decomposition here is exact bookkeeping of those coherences (no numerical
Fourier transform), and doubles as the fast trace evaluator.  A propagated
ChannelSet reduces itself to the per-block terms of the series, for either
layout and any lab axis (ChannelSet.series_terms); this module only sums and
evaluates them.

All trace values follow the <cos^2 theta> - 1/3 convention (0 = isotropic).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .constants import revival_period
from .dynamics import (
    ChannelSet, check_working_set, kick_ensemble, require_y_polarized, tdse_ensemble,
)
from .field import MAX_DELAY_PS, PulseSpec, check_squared_amplitudes, effective_area, xi_per_intensity
from .rotor import MoleculeSpec, boltzmann_ensemble, check_axis, raman_frequency, suggest_j_max

_VALUE_LO, _VALUE_HI = -1.0 / 3.0, 2.0 / 3.0


@dataclass(frozen=True)
class AlignmentTrace:
    """<cos^2 theta_axis> - 1/3 on a time grid, with run metadata."""

    times: np.ndarray
    values: np.ndarray
    axis: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        lo, hi = self.values.min(initial=0.0), self.values.max(initial=0.0)
        if lo < _VALUE_LO - 1e-9 or hi > _VALUE_HI + 1e-9:
            raise ValueError(f"trace values outside [-1/3, 2/3]: [{lo}, {hi}]")

    def scaled(self, factor: float, axis: str) -> "AlignmentTrace":
        return AlignmentTrace(self.times, factor * self.values, axis, dict(self.metadata))


@dataclass(frozen=True)
class FourierDecomposition:
    """Exact cosine-series form of a post-pulse alignment trace.

    phases follow trace(t) = constant + sum |a| cos(omega t + phi) with t
    absolute (any kick-time reference is folded into phi).
    """

    constant: float
    js: np.ndarray
    amplitudes: np.ndarray
    phases: np.ndarray
    omegas: np.ndarray
    axis: str = "y"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.js)
        if not (len(self.amplitudes) == len(self.phases) == len(self.omegas) == n):
            raise ValueError("component arrays must share one length")
        if n and self.amplitudes.min() < 0:
            raise ValueError("amplitudes must be nonnegative")
        # reconstruct relies on omega_J = 2 pi c B (4J + 6) over ascending J
        unit = self.omegas / (4.0 * self.js + 6.0)
        if n and (np.any(np.diff(self.js) <= 0) or np.ptp(unit) > 1e-12 * abs(unit[0])):
            raise ValueError("omegas must be 2 pi c B (4J+6) over ascending J")

    @property
    def components(self) -> list[tuple[int, float, float, float]]:
        """(J, amplitude, phase, omega) rows, ascending J."""
        return [
            (int(j), float(a), float(p), float(w))
            for j, a, p, w in zip(self.js, self.amplitudes, self.phases, self.omegas)
        ]

    def to_dict(self) -> dict:
        return {
            "C": self.constant,
            "axis": self.axis,
            "components": [
                {"J": j, "amp": a, "phase": p, "omega": w} for j, a, p, w in self.components
            ],
        }


def _metadata(cs: ChannelSet) -> dict:
    return {"molecule": cs.molecule.name, "temperature_K": cs.temperature,
            "xi": cs.xi, "j_max": cs.j_max}


def fourier_decompose(cs: ChannelSet, axis: str = "y") -> FourierDecomposition:
    """Exact cosine-series decomposition of the ensemble alignment trace.

    Each block's series terms (ChannelSet.series_terms, lab-axis factor
    applied) add onto one complex amplitude per lower J.  An unkicked thermal
    ensemble is isotropic, so its series is identically zero; that case
    returns exact zeros rather than summation roundoff.
    """
    check_axis(axis)
    if cs.xi == 0.0:
        empty = np.empty(0)
        return FourierDecomposition(0.0, np.empty(0, dtype=int), empty, empty, empty, axis,
                                    _metadata(cs))
    consts, _, js, z = cs.series_terms(axis)
    constant = 0.0
    for const in consts:
        constant += const
    acc = np.zeros(cs.j_max + 1, dtype=complex)
    np.add.at(acc, js, z)
    js = np.nonzero(acc)[0]
    zz = acc[js]
    omegas = raman_frequency(js, cs.molecule)
    # fold the kick-time reference into the phase: trace is a function of
    # absolute time; fmod and one exact 2 pi shift give IEEE remainder
    phases = np.fmod(np.arctan2(zz.imag, zz.real) - omegas * cs.reference_time, 2.0 * math.pi)
    phases -= np.where(np.abs(phases) > math.pi, np.copysign(2.0 * math.pi, phases), 0.0)
    return FourierDecomposition(constant, js, np.abs(zz), phases, omegas, axis,
                                _metadata(cs))


# phase tables reconstruct keeps: z and e^{i omega_J0 t} of the last grid, each
# of at most PHASE_CACHE_SAMPLES delays (a fit evaluates one grid hundreds of times)
PHASE_CACHE_SIZE, PHASE_CACHE_SAMPLES = 2, 65536
_PHASES: OrderedDict[tuple[bytes, float], np.ndarray] = OrderedDict()


def _phase_table(rate: float, times: np.ndarray) -> np.ndarray:
    """exp(i rate t) on `times`, read-only, from the cache of the latest tables."""
    if len(times) > PHASE_CACHE_SAMPLES:
        return np.exp(1j * (rate * times))
    key = (times.tobytes(), rate)
    table = _PHASES.pop(key, None)
    if table is None:
        table = np.exp(1j * (rate * times))
        table.flags.writeable = False
    _PHASES[key] = table
    while len(_PHASES) > PHASE_CACHE_SIZE:
        _PHASES.popitem(last=False)
    return table


def reconstruct(dec: FourierDecomposition, times) -> AlignmentTrace:
    """Evaluate the cosine series on a time grid by Horner's rule.

    omega_J = omega_J0 + (J - J0) dw with dw = 8 pi c B, so the series is
    Re(e^{i omega_J0 t} P(z)): P has the coefficient |a_J| e^{i phi_J} at power
    (J - J0)/g, with g the common J spacing and z = e^{i g dw t}.  Both phase
    tables come from a small cache keyed by the delays and the rate.
    """
    times = np.asarray(times, dtype=float)
    values = np.full(len(times), dec.constant)
    if len(dec.js):
        js = dec.js - dec.js[0]
        g = int(np.gcd.reduce(js[1:])) if len(js) > 1 else 1
        coef = np.zeros(js[-1] // g + 1, dtype=complex)
        coef[js // g] = dec.amplitudes * np.exp(1j * dec.phases)
        step = 4.0 * dec.omegas[0] / (4.0 * dec.js[0] + 6.0)  # 8 pi c B
        z = _phase_table(g * step, times)
        p = np.full(len(times), coef[-1])
        for c in coef[-2::-1]:
            p *= z
            p += c
        values += np.real(_phase_table(dec.omegas[0], times) * p)
    return AlignmentTrace(times, values, dec.axis, dict(dec.metadata))


def alignment_trace(cs: ChannelSet, axis: str, times) -> AlignmentTrace:
    """Direct evaluation of <cos^2 theta_axis> - 1/3 from the set's series terms.

    It shares the term reduction (ChannelSet.series_terms) with
    fourier_decompose and checks reconstruct's Horner evaluation against
    direct complex exponentials over the same terms, per chain shape, summed
    over time before the shapes are combined; agreement to 1e-10 is a
    contract between the two paths.
    """
    terms, bounds, all_js, all_z = cs.series_terms(axis)
    times = np.asarray(times, dtype=float)
    dt = times - cs.reference_time
    values = np.zeros(len(times))
    # accumulate per chain shape so each group shares one phase matrix
    groups: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    consts = 0.0
    for const, lo, hi in zip(terms, bounds[:-1].tolist(), bounds[1:].tolist()):
        consts += const
        js, z = all_js[lo:hi], all_z[lo:hi]
        if len(js):
            key = (int(js[0]), len(js))
            groups[key] = (js, groups[key][1] + z) if key in groups else (js, z)
    # a phase matrix peaks at 32 B per (line, time) entry: outer, 1j *, exp
    lines = max((len(js) for js, _ in groups.values()), default=0)
    check_working_set(32 * lines * len(times), f"a direct trace of {lines} lines x {len(times)} times")
    for js, z in groups.values():
        values += np.real(z @ np.exp(1j * np.outer(raman_frequency(js, cs.molecule), dt)))
    return AlignmentTrace(times, values + consts, axis, _metadata(cs))


# traced peak of a simulate run per delay sample (the grid, the trace, the
# signal and reconstruct's complex Horner accumulators)
GRID_BYTES_PER_SAMPLE = 80


def revival_time_grid(
    molecule: MoleculeSpec, n: int = 4096, t_start: float = 0.0, periods: float = 1.0
) -> np.ndarray:
    """Uniform grid covering `periods` revival periods from t_start.

    Before the grid exists, both of its ends must lie within MAX_DELAY_PS
    and a simulate run on it must fit the working-set budget; then its
    float64 samples must strictly increase.
    """
    tr = revival_period(molecule.b_cm1)
    end = t_start + periods * tr
    if not (abs(t_start) <= MAX_DELAY_PS and abs(end) <= MAX_DELAY_PS):
        raise ValueError(f"time grid [{t_start:.6g}, {end:.6g}] ps leaves the delays "
                         f"within +-{MAX_DELAY_PS:.0e} ps")
    check_working_set(GRID_BYTES_PER_SAMPLE * n, f"a time grid of {n} samples")
    grid = t_start + np.linspace(0.0, periods * tr, n, endpoint=False)
    if not np.all(grid[1:] > grid[:-1]):
        raise ValueError(f"time grid of {n} samples over [{t_start:.6g}, {end:.6g}] ps is not increasing")
    return grid


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

def thermal_channel_set(
    molecule: MoleculeSpec,
    temperature: float,
    pulse: PulseSpec,
    method: str = "sudden",
    j_max: int | None = None,
) -> ChannelSet:
    """Boltzmann ensemble propagated through a y-polarized pump by the chosen route."""
    ens = boltzmann_ensemble(molecule, temperature)
    if method == "sudden":
        require_y_polarized(pulse)
        return kick_ensemble(molecule, ens, effective_area(pulse, molecule), j_max,
                             reference_time=pulse.t0_ps)
    if method == "tdse":
        return tdse_ensemble(molecule, ens, pulse, j_max)
    raise ValueError(f"method must be 'sudden' or 'tdse', got {method!r}")


def max_over_period(dec: FourierDecomposition, t_start: float, period: float) -> float:
    """Maximum of the reconstructed trace over [t_start, t_start + period).

    Argmax on a 4096-point grid followed by two local grid refinements; the
    refinement window of one coarse step is ample because components are
    bounded in frequency.
    """
    ts = t_start + np.linspace(0.0, period, 4096, endpoint=False)
    vals = reconstruct(dec, ts).values
    k = int(np.argmax(vals))
    t_best, half = ts[k], period / 4096
    best = vals[k]
    for _ in range(2):
        ts = np.linspace(t_best - half, t_best + half, 65)
        vals = reconstruct(dec, ts).values
        k = int(np.argmax(vals))
        t_best, best = ts[k], vals[k]
        half = 2.0 * half / 64.0
    return float(best)


@dataclass(frozen=True)
class RegimeScanResult:
    """Permanent alignment and peak transient alignment versus intensity."""

    intensities: np.ndarray
    c_values: np.ndarray
    max_values: np.ndarray  # max of <cos^2 theta> - 1/3 over one revival
    slopes: dict
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (np.all(np.isfinite(self.c_values)) and np.all(np.isfinite(self.max_values))):
            raise ValueError("scan produced non-finite values")


def _loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def regime_scan(
    molecule: MoleculeSpec,
    temperature: float,
    intensities,
) -> RegimeScanResult:
    """Scan peak intensity: permanent alignment C and max-C per intensity.

    Uses the sudden-kick ensemble of a 0.1 ps pump at t = 0 (the regime laws
    are properties of the kicked-rotor model itself) with j_max pinned at the
    largest intensity so eigendecompositions are shared across the scan.
    Log-log slopes of C are fitted on 2-20 and 40-80 TW/cm^2, and of max-C
    below the saturation knee at 30 TW/cm^2.
    """
    intensities = np.asarray(sorted(float(i) for i in intensities))
    if len(intensities) < 3 or intensities[0] <= 0:
        raise ValueError("need at least 3 positive intensities")
    low_window, high_window, knee = (2.0, 20.0), (40.0, 80.0), 30.0
    ens = boltzmann_ensemble(molecule, temperature)
    per_i = xi_per_intensity(molecule)
    j_max = suggest_j_max(ens.j_thermal_max, per_i * intensities[-1])
    period = revival_period(molecule.b_cm1)

    def scan_point(ii: float) -> tuple[float, float]:
        cs = kick_ensemble(molecule, ens, per_i * ii, j_max)
        dec = fourier_decompose(cs, "y")
        return dec.constant, max_over_period(dec, 1.0, period)

    points = [scan_point(ii) for ii in intensities]
    c_vals = np.array([p[0] for p in points])
    max_vals = np.array([p[1] for p in points])

    def window_slope(values, lo, hi):
        sel = (intensities >= lo) & (intensities <= hi) & (values > 0)
        return _loglog_slope(intensities[sel], values[sel]) if sel.sum() >= 2 else float("nan")

    slopes = {
        "c_low": window_slope(c_vals, *low_window),
        "c_high": window_slope(c_vals, *high_window),
        "max_minus_c_below_knee": window_slope(max_vals - c_vals, intensities[0], knee),
    }
    # C above the knee is no power law: it saturates toward the strong-kick
    # limit 1/6, its local exponent falling from ~1.5 on 40-80 TW/cm^2 toward
    # 0.  Over a factor-2 window it is close to a line; the R^2 of the affine
    # fit is reported alongside the exponent
    sel = (intensities >= high_window[0]) & (intensities <= high_window[1])
    if sel.sum() >= 2:
        coef = np.polyfit(intensities[sel], c_vals[sel], 1)
        resid = c_vals[sel] - np.polyval(coef, intensities[sel])
        total = c_vals[sel] - c_vals[sel].mean()
        ss_tot = float(total @ total)
        slopes["c_high_affine_r2"] = (
            1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else float("nan")
        )
    meta = {
        "molecule": molecule.name,
        "temperature_K": temperature,
        "tau_fwhm_ps": 0.1,
        "low_window": list(low_window),
        "high_window": list(high_window),
        "knee": knee,
        "j_max": j_max,
    }
    return RegimeScanResult(intensities, c_vals, max_vals, slopes, meta)


def elliptic_approx(linear_trace: AlignmentTrace, a2: float, b2: float) -> dict[str, AlignmentTrace]:
    """Superposition approximation for an elliptic pump with amplitudes (A^2, B^2).

    Given the linear-polarization trace L(t) at the same peak intensity, the
    three lab-axis traces are (A^2 - B^2/2) L, (B^2 - A^2/2) L, and -L/2, and
    the x-y difference is (3/2)(A^2 - B^2) L.  Valid at low and moderate kick
    strength; the z trace is independent of ellipticity.
    """
    check_squared_amplitudes(a2, b2)
    return {
        "x": linear_trace.scaled(a2 - b2 / 2.0, "x"),
        "y": linear_trace.scaled(b2 - a2 / 2.0, "y"),
        "z": linear_trace.scaled(-0.5, "z"),
        "difference": linear_trace.scaled(1.5 * (a2 - b2), "x-y"),
    }


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def write_columns_csv(path: str, header: str, columns, header_metadata: dict | None):
    """CSV of equal-length numeric columns with fixed %.12e formatting for
    reproducible bytes.

    header_metadata entries become '# key: value' comment lines above the
    column header, in sorted key order.
    """
    row = ",".join(["{:.12e}"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(header_metadata or {}):
            fh.write(f"# {key}: {header_metadata[key]}\n")
        fh.write(header + "\n")
        for values in zip(*columns):
            fh.write(row.format(*values))


def write_trace_csv(trace: AlignmentTrace, path: str, value_header: str,
                    header_metadata: dict | None):
    """Two-column trace CSV: t_ps and the trace values under value_header."""
    write_columns_csv(path, f"t_ps,{value_header}", (trace.times, trace.values), header_metadata)
