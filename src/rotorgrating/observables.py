"""Thermally averaged alignment observables.

Every post-pulse trace of a rigid rotor is a finite cosine series

    <cos^2 theta>(t) - 1/3 = C + sum_J |a_J| cos(omega_J (t - t0) + phi_J)

with omega_J = 2 pi c B (4J+6): the constant C comes from populations and
each component from the thermally weighted J <-> J+2 coherences.  The
decomposition here is exact bookkeeping of those coherences (no numerical
Fourier transform), and doubles as the fast trace evaluator.  A propagated
ChannelSet reduces itself to the series, its constant and one complex
amplitude per lower J, for either layout and any lab axis
(ChannelSet.series_terms); this module only evaluates it.

All trace values follow the <cos^2 theta> - 1/3 convention (0 = isotropic).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .constants import revival_period
from .dynamics import (
    ChannelSet, check_working_set, kick_ensemble, require_y_polarized, tail_j_max, tdse_ensemble,
)
from .field import MAX_DELAY_PS, PulseSpec, check_squared_amplitudes, effective_area, xi_per_intensity
from .rotor import MoleculeSpec, boltzmann_ensemble, check_axis, raman_frequency

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

    The set's series (ChannelSet.series_terms, lab-axis factor applied) holds
    one complex amplitude per lower J; its nonzero ones are the components
    (series_decomposition).  An unkicked thermal ensemble is isotropic, so its
    series is identically zero; that case returns exact zeros rather than
    summation roundoff.
    """
    check_axis(axis)
    constant, z = (0.0, np.zeros(0, dtype=complex)) if cs.xi == 0.0 else cs.series_terms(axis)
    return series_decomposition(constant, z, cs.molecule, cs.reference_time, axis, _metadata(cs))


def series_decomposition(constant: float, z: np.ndarray, molecule: MoleculeSpec, reference_time: float,
                         axis: str, metadata: dict) -> FourierDecomposition:
    """The decomposition of the series constant + Re sum_J z[J] e^{i omega_J (t - reference_time)},
    z indexed by lower J: its nonzero lines are the components."""
    js = np.nonzero(z)[0]
    zz = z[js]
    omegas = raman_frequency(js, molecule)
    # fold the kick-time reference into the phase: trace is a function of
    # absolute time; fmod and one exact 2 pi shift give IEEE remainder
    phases = np.fmod(np.arctan2(zz.imag, zz.real) - omegas * reference_time, 2.0 * math.pi)
    phases -= np.where(np.abs(phases) > math.pi, np.copysign(2.0 * math.pi, phases), 0.0)
    return FourierDecomposition(constant, js, np.abs(zz), phases, omegas, axis, metadata)


# phase tables reconstruct keeps: the powers of z and e^{i omega_J0 t} of the
# last grid, each of at most PHASE_CACHE_SAMPLES delays (a fit evaluates one
# grid hundreds of times)
PHASE_CACHE_SIZE, PHASE_CACHE_SAMPLES = 2, 65536
_PHASES: OrderedDict[tuple[bytes, float], np.ndarray] = OrderedDict()
# reconstruct evaluates HORNER_BLOCK coefficients per GEMM, on at most
# HORNER_CHUNK (block, delay) entries at once
HORNER_BLOCK, HORNER_CHUNK = 8, 65536


def _powers(rate: float, times: np.ndarray, rows: int) -> np.ndarray:
    """exp(i k rate t) for k = 1..rows on `times`, rows x len(times): one
    exponential, then products."""
    table = np.empty((rows, len(times)), dtype=complex)
    table[0] = np.exp(1j * (rate * times))
    for k in range(1, rows):
        np.multiply(table[k - 1], table[0], out=table[k])
    return table


def _phase_table(rate: float, times: np.ndarray, rows: int) -> np.ndarray:
    """_powers(rate, times, rows), read-only, from the cache of the latest tables."""
    key = (times.tobytes(), rate)
    table = _PHASES.pop(key, None)
    if table is None:
        table = _powers(rate, times, rows)
        table.flags.writeable = False
    _PHASES[key] = table
    while len(_PHASES) > PHASE_CACHE_SIZE:
        _PHASES.popitem(last=False)
    return table


def reconstruct(dec: FourierDecomposition, times) -> AlignmentTrace:
    """Evaluate the cosine series on a time grid by blocked Horner's rule.

    omega_J = omega_J0 + (J - J0) dw with dw = 8 pi c B, so the series is
    Re(e^{i omega_J0 t} P(z)): P has the coefficient |a_J| e^{i phi_J} at power
    (J - J0)/g, with g the common J spacing and z = e^{i g dw t}.  P is cut
    into blocks of HORNER_BLOCK = b coefficients, P(z) = sum_i Q_i(z) z^(b i):
    one GEMM of the blocks against the table of z^1..z^(b-1) gives every Q_i,
    and Horner's rule runs over the blocks in z^b.  The delays go in chunks
    of at most HORNER_CHUNK (block, delay) entries.  The tables of z^1..z^b
    and of e^{i omega_J0 t} come from a small cache keyed by the delays and
    the rate; a grid of more than PHASE_CACHE_SAMPLES delays is not kept, and
    each chunk builds its own.
    """
    times = np.asarray(times, dtype=float)
    values = np.full(len(times), dec.constant)
    if len(dec.js):
        js = dec.js - dec.js[0]
        g = int(np.gcd.reduce(js[1:])) if len(js) > 1 else 1
        coef = np.zeros(-(-(js[-1] // g + 1) // HORNER_BLOCK) * HORNER_BLOCK, dtype=complex)
        coef[js // g] = dec.amplitudes * np.exp(1j * dec.phases)
        blocks = coef.reshape(-1, HORNER_BLOCK)  # block i: the coefficients of z^(b i) .. z^(b i + b - 1)
        rates = (g * (4.0 * dec.omegas[0] / (4.0 * dec.js[0] + 6.0)), dec.omegas[0])  # g 8 pi c B, omega_J0
        kept = len(times) <= PHASE_CACHE_SAMPLES
        if kept:
            tables = _phase_table(rates[0], times, HORNER_BLOCK), _phase_table(rates[1], times, 1)
        step = max(1, HORNER_CHUNK // len(blocks))
        for lo in range(0, len(times), step):
            part = slice(lo, lo + step)
            if kept:
                z, start = (table[:, part] for table in tables)
            else:
                z, start = _powers(rates[0], times[part], HORNER_BLOCK), _powers(rates[1], times[part], 1)
            q = blocks[:, 1:] @ z[:-1]
            q += blocks[:, :1]
            p = q[-1]
            for row in q[-2::-1]:
                p *= z[-1]
                p += row
            values[part] += np.real(start[0] * p)
    return AlignmentTrace(times, values, dec.axis, dict(dec.metadata))


def alignment_trace(cs: ChannelSet, axis: str, times) -> AlignmentTrace:
    """Direct evaluation of <cos^2 theta_axis> - 1/3 from the set's series.

    It shares the series (ChannelSet.series_terms) with fourier_decompose and
    checks reconstruct's Horner evaluation against direct complex
    exponentials of its nonzero lines, one phase matrix over both J parities;
    agreement to 1e-10 is a contract between the two paths.
    """
    constant, z = cs.series_terms(axis)
    times = np.asarray(times, dtype=float)
    js = np.nonzero(z)[0]
    # the phase matrix peaks at 32 B per (line, time) entry: outer, 1j *, exp
    check_working_set(32 * len(js) * len(times), f"a direct trace of {len(js)} lines x {len(times)} times")
    phases = np.exp(1j * np.outer(raman_frequency(js, cs.molecule), times - cs.reference_time))
    return AlignmentTrace(times, np.real(z[js] @ phases) + constant, axis, _metadata(cs))


# traced peak of a simulate run per delay sample (the grid, the trace and the
# signal; reconstruct's blocks and accumulators go by chunks of delays)
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
    largest intensity by the tail bound of its kick (dynamics.tail_j_max),
    which sizes the basis with no kick run, so every point is a kick on one
    explicit basis, with no regrow (a truncated kick that leaks past the
    edge contract raises BasisTooSmallError), and all share one chain
    layout.  Log-log slopes of C are fitted on 2-20 and 40-80 TW/cm^2, and
    of max-C below the saturation knee at 30 TW/cm^2.  At least 3 distinct
    intensities, all finite and positive, are required.
    """
    values = [float(i) for i in intensities]
    bad = [v for v in values if not (math.isfinite(v) and v > 0)]
    if bad:
        raise ValueError(f"intensities must be finite and positive, got {bad}")
    if len(set(values)) < 3:
        raise ValueError(f"need at least 3 distinct intensities, got {sorted(values)}")
    intensities = np.asarray(sorted(values))
    low_window, high_window, knee = (2.0, 20.0), (40.0, 80.0), 30.0
    ens = boltzmann_ensemble(molecule, temperature)
    per_i = xi_per_intensity(molecule)
    j_max = tail_j_max(ens, per_i * intensities[-1])
    period = revival_period(molecule.b_cm1)

    def scan_point(cs: ChannelSet) -> tuple[float, float]:
        dec = fourier_decompose(cs, "y")
        return dec.constant, max_over_period(dec, 1.0, period)

    points = [scan_point(kick_ensemble(molecule, ens, per_i * ii, j_max)) for ii in intensities]
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

# rows formatted per str.format call: a few thousand keep a block's strings
# small on any time grid and the calls few
CSV_BLOCK_ROWS = 4096


def write_columns_csv(path: str, header: str, columns, header_metadata: dict | None):
    """CSV of equal-length numeric columns with fixed %.12e formatting for
    reproducible bytes.

    header_metadata entries become '# key: value' comment lines above the
    column header, in sorted key order.  Rows are formatted CSV_BLOCK_ROWS at
    a time, one str.format over the block's values as Python floats, so the
    memory a block takes is bounded on any grid.
    """
    row = ",".join(["{:.12e}"] * len(columns)) + "\n"
    rows = min((len(column) for column in columns), default=0)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(header_metadata or {}):
            fh.write(f"# {key}: {header_metadata[key]}\n")
        fh.write(header + "\n")
        for lo in range(0, rows, CSV_BLOCK_ROWS):
            block = [np.asarray(column[lo:lo + CSV_BLOCK_ROWS]).tolist() for column in columns]
            fh.write((row * len(block[0])).format(*chain.from_iterable(zip(*block))))


def write_trace_csv(trace: AlignmentTrace, path: str, value_header: str,
                    header_metadata: dict | None):
    """Two-column trace CSV: t_ps and the trace values under value_header."""
    write_columns_csv(path, f"t_ps,{value_header}", (trace.times, trace.values), header_metadata)
