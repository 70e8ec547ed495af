"""Parameter retrieval from measured diffracted-signal traces.

The forward model is the grating signal pipeline: a sudden-kick thermal
ensemble at (intensity, temperature), its exact cosine-series decomposition,
evaluated at shifted delays, turned into a diffracted signal by the same
grating.diffracted_signal that simulate uses, and scaled.  The decomposition
per (intensity, temperature) cell is cached with quantized keys.  A fit kicks
the ensemble only at the Chebyshev nodes of one kick-strength surface
(KickSurface), at the top temperature of its box, all its nodes in one
batched call on one chain layout (dynamics.kick_level_series); every cell in
the box is read off it by interpolation in xi and Boltzmann weights of the
thermal levels.

The amplitude scale never enters the optimizer: for any trial of the other
parameters it is a linear least-squares subproblem solved in closed form.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .dynamics import check_working_set, kick_ensemble, kick_level_series, tail_j_max
from .field import MAX_DELAY_PS, xi_per_intensity
from .grating import check_scheme, diffracted_signal, single_pump_intensity
from .observables import (
    FourierDecomposition, fourier_decompose, reconstruct, series_decomposition, write_columns_csv,
)
from .rotor import MoleculeSpec, boltzmann_ensemble, suggest_j_max

PARAM_ORDER = ("intensity", "temperature", "t_offset", "background_re", "background_im")


@dataclass(frozen=True)
class ExperimentalTrace:
    """A measured delay scan with free-form metadata."""

    delays: np.ndarray
    signal: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.delays) != len(self.signal):
            raise ValueError("delays and signal must have equal length")
        if len(self.delays) < 50:
            raise ValueError(f"need at least 50 samples, got {len(self.delays)}")
        if not (np.all(np.isfinite(self.delays)) and np.all(np.isfinite(self.signal))):
            raise ValueError("delays and signal must be finite")
        if not np.all(np.diff(self.delays) > 0):
            raise ValueError("delays must be strictly increasing")
        if not np.all(np.abs(self.delays) <= MAX_DELAY_PS):
            raise ValueError(f"delays must lie within +-{MAX_DELAY_PS:.0e} ps")


_DELAY_UNITS = {"ps": 1.0, "fs": 1e-3, "ns": 1e3}


def load_trace(path: str) -> ExperimentalTrace:
    """Read a delay scan from CSV with a delay_<unit>,signal_au header.

    Lines starting with '#' before the header are parsed as 'key: value'
    metadata; delays are converted to ps from the unit tag in the header.
    """
    metadata: dict = {}
    header = None
    delays, signal = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                key, sep, value = body.partition(":")
                if sep:
                    value = value.strip()
                    try:
                        metadata[key.strip()] = float(value)
                    except ValueError:
                        metadata[key.strip()] = value
                continue
            if header is None:
                header = [c.strip() for c in line.split(",")]
                if len(header) < 2 or not header[0].startswith("delay_") or header[1] != "signal_au":
                    raise ValueError(
                        f"{path}:{lineno}: header must be delay_<unit>,signal_au, got {line!r}"
                    )
                unit = header[0][len("delay_"):]
                if unit not in _DELAY_UNITS:
                    raise ValueError(f"{path}:{lineno}: unknown delay unit {unit!r}")
                scale = _DELAY_UNITS[unit]
                continue
            cells = line.split(",")
            if len(cells) < 2:
                raise ValueError(f"{path}:{lineno}: expected two comma-separated columns")
            try:
                delays.append(float(cells[0]) * scale)
                signal.append(float(cells[1]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed row {line!r}") from exc
    if header is None:
        raise ValueError(f"{path}: missing delay_<unit>,signal_au header")
    return ExperimentalTrace(np.array(delays), np.array(signal), metadata)


@dataclass(frozen=True)
class FitProblem:
    """Free parameters (with bounds), fixed parameters, and the fixed physics.

    bounds maps a subset of {intensity, temperature, t_offset, background_re,
    background_im} to finite (lo, hi) ranges; everything else comes from
    `fixed` or its default (0 for t_offset and background).  The amplitude
    scale is always free and profiled analytically; scale_bounds only clips
    the profiled value.  Intensities are theoretical (one-beam) values; the
    experiment-facing convention factor is applied at reporting time.
    """

    molecule: MoleculeSpec
    scheme: str
    tau_fwhm_ps: float = 0.1
    bounds: dict = field(default_factory=dict)
    fixed: dict = field(default_factory=dict)
    scale_bounds: tuple[float, float] = (0.0, float("inf"))
    apply_transverse_factor: bool = True
    j_max: int | None = None
    cache_quantum: float = 1e-6

    def __post_init__(self):
        check_scheme(self.scheme)
        if not self.tau_fwhm_ps > 0:
            raise ValueError(f"pulse FWHM must be positive, got {self.tau_fwhm_ps}")
        if not self.cache_quantum > 0:
            raise ValueError(f"cache_quantum must be positive, got {self.cache_quantum}")
        if not self.bounds:
            raise ValueError("at least one free parameter is required")
        for name, pair in self.bounds.items():
            if name not in PARAM_ORDER:
                raise ValueError(f"unknown parameter {name!r}; choose from {PARAM_ORDER}")
            lo, hi = pair
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"bounds for {name!r} must be finite with lo < hi, got {pair}")
            # EnsembleCache keys a trial by round(value / cache_quantum)
            q = self.cache_quantum
            if name in ("intensity", "temperature"):
                self._check_cache_key(name, pair)
                if round(lo / q) == round(hi / q):
                    raise ValueError(f"cache_quantum {q:g} puts the {name!r} bounds in one cache cell")
        for name in self.fixed:
            if name not in PARAM_ORDER:
                raise ValueError(
                    f"unknown fixed parameter {name!r}; choose from {PARAM_ORDER} "
                    "(the scale is always profiled)"
                )
            if name in self.bounds:
                raise ValueError(f"{name!r} is both fixed and free; drop it from fixed or bounds")
            if name in ("intensity", "temperature"):
                self._check_cache_key(name, (self.fixed[name],))
        lo, hi = self.scale_bounds
        if not lo < hi:
            raise ValueError(f"scale_bounds must have lo < hi, got {self.scale_bounds}")
        for t in self.bounds.get("t_offset", (self.resolve({})["t_offset"],)):
            if not abs(t) <= MAX_DELAY_PS:
                raise ValueError(f"'t_offset' must lie within +-{MAX_DELAY_PS:.0e} ps, got {t:.6g}")
        if self.scheme != "parallel" and self._background_active():
            raise ValueError("background parameters apply to the parallel scheme only")
        for name in ("intensity", "temperature"):
            if name not in self.bounds and name not in self.fixed:
                raise ValueError(f"{name!r} must be either free (bounds) or fixed")

    def _check_cache_key(self, name: str, values):
        """A subnormal cache_quantum overflows value / cache_quantum to inf."""
        if not all(math.isfinite(v / self.cache_quantum) for v in values):
            raise ValueError(f"cache_quantum {self.cache_quantum!r} is too small: the {name!r} "
                             f"values {tuple(values)} overflow their cache keys")

    def _background_active(self) -> bool:
        names = set(self.bounds) | set(self.fixed)
        return bool({"background_re", "background_im"} & names)

    @property
    def free_names(self) -> tuple[str, ...]:
        return tuple(n for n in PARAM_ORDER if n in self.bounds)

    def resolve(self, free_values: dict) -> dict:
        """Full parameter dict from free values plus fixed/defaults."""
        params = {"t_offset": 0.0, "background_re": 0.0, "background_im": 0.0}
        params.update(self.fixed)
        params.update(free_values)
        return params


# A kick-strength surface starts on SURFACE_INTERVALS Chebyshev intervals of
# the intensity box and doubles them, up to SURFACE_MAX_INTERVALS, until the
# two highest Chebyshev coefficients of its series, at the box's lowest and
# highest temperature, are within SURFACE_TOL of its largest line.  Its
# series, not each level's, is what converges: on CO2's 5-30 TW/cm^2 box the
# single levels' tails read 6e-8 at 16 intervals, the 20 K series' 3e-11,
# and the latter falls to 6e-15 at 20
SURFACE_INTERVALS, SURFACE_MAX_INTERVALS, SURFACE_TOL = 20, 160, 1e-13


def _level_weights(ensemble, levels: np.ndarray) -> np.ndarray | None:
    """The ensemble's weight on each of `levels`, or None if it populates another level."""
    full = np.bincount(ensemble.j0, weights=ensemble.weights, minlength=levels[-1] + 1)
    return full[levels] if np.count_nonzero(full) == np.count_nonzero(full[levels]) else None


def _converged(constants: np.ndarray, lines: np.ndarray, level_weights: np.ndarray, weights: np.ndarray,
               x: np.ndarray) -> bool:
    """Whether the series at `level_weights`, given on the Chebyshev nodes x_k
    = cos(k pi / N) of barycentric weights w_k, has its two highest Chebyshev
    coefficients within SURFACE_TOL of its largest line: c_N = sum_k w_k f_k / N
    and c_(N-1) = 2 sum_k w_k x_k f_k / N, w_k being (-1)^k, halved at both ends."""
    values = np.column_stack((constants @ level_weights, lines @ level_weights))
    top = np.stack((weights, 2.0 * weights * x)) @ values / (len(x) - 1)
    return np.abs(top).max() <= SURFACE_TOL * np.abs(values[:, 1:]).max()


@dataclass(frozen=True)
class KickSurface:
    """Each thermal level's sudden-kick series at Chebyshev nodes in xi.

    The ensemble at the top temperature key `top` is kicked at every node on
    one chain layout of j_max, and its series is kept per thermal level and
    unit level weight (dynamics.kick_level_series): `constants` is nodes x
    levels, `lines` nodes x len(rows) x levels, on the lines J in `rows`
    that the chains hold (every other line is zero).  The nodes are Chebyshev
    points of the second kind on the xi of the intensity keys lo..hi,
    `weights` their barycentric weights; the surface serves the temperature
    keys bottom..top.  The kick's lines are trigonometric polynomials in
    xi of bandwidth at most 1 (cos^2 theta has its spectrum in [0, 1]), so
    barycentric interpolation (Berrut & Trefethen, SIAM Rev. 46, 501 (2004))
    converges geometrically in the node count.
    """

    lo: int
    hi: int
    bottom: int
    top: int
    j_max: int
    levels: np.ndarray
    rows: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    constants: np.ndarray
    lines: np.ndarray

    def series(self, key: tuple[int, int], ensemble, xi: float) -> tuple | None:
        """(constant, z) of the kick of strength xi at cache key `key`, the
        interpolant in xi times the ensemble's level weights; None unless the
        keys lie in lo..hi and bottom..top and the ensemble populates only the
        surface's levels."""
        if not (self.lo <= key[0] <= self.hi and self.bottom <= key[1] <= self.top):
            return None
        p = _level_weights(ensemble, self.levels)
        if p is None:
            return None
        gap = xi - self.nodes
        at = gap == 0.0
        if at.any():
            at = at / np.count_nonzero(at)
        else:
            at = self.weights / gap
            at /= at.sum()
        z = np.zeros(self.j_max + 1, dtype=complex)
        z[self.rows] = np.tensordot(at, self.lines, 1) @ p
        return float(at @ self.constants @ p), z


def kick_surface(problem: FitProblem) -> KickSurface | None:
    """The problem's kick-strength surface, or None when its box holds no
    positive intensity key or no nonnegative temperature key, or its nodes
    do not converge within SURFACE_MAX_INTERVALS.

    The box is padded to the quantized keys, so it covers every key the
    cache can ask for.  The ensemble at the top temperature is kicked on one
    layout: problem.j_max if set, else the tail bound of the (top, hi)
    corner's kick (dynamics.tail_j_max), which holds every node's edge; a
    truncated kick that leaks past the edge contract there raises
    BasisTooSmallError.
    Each set of nodes is one call of dynamics.kick_level_series: the first
    SURFACE_INTERVALS + 1, then the odd nodes that each doubling adds.  A
    fixed intensity makes one node.  The surface's bytes, at most a complex
    per node, level and line up to j_max and a float per node and level,
    are checked against the working-set budget before each set of nodes is
    kicked.
    """
    q = problem.cache_quantum
    (lo, hi), (bottom, top) = ([round(v / q) for v in problem.bounds.get(name, (problem.fixed.get(name),) * 2)]
                               for name in ("intensity", "temperature"))
    lo, bottom = max(lo, 1), max(bottom, 0)  # intensity key 0 keeps the direct path's exact zero series
    if hi < lo or top < bottom:
        return None
    molecule = problem.molecule
    a, b = (xi_per_intensity(molecule, problem.tau_fwhm_ps) * (k * q) for k in (lo, hi))
    ensemble = boltzmann_ensemble(molecule, top * q)
    j_max = problem.j_max if problem.j_max is not None else tail_j_max(ensemble, b)
    levels = np.flatnonzero(np.bincount(ensemble.j0))  # np.unique would import numpy.ma
    corners = [w for w in (_level_weights(boltzmann_ensemble(molecule, k * q), levels)
                           for k in {bottom, top}) if w is not None]
    intervals = SURFACE_INTERVALS if hi > lo else 0
    constants = lines = None
    while True:
        x = np.cos(math.pi * np.arange(intervals + 1) / max(intervals, 1))
        nodes = 0.5 * (a + b) + 0.5 * (b - a) * x
        nodes[0], nodes[-1] = b, a
        weights = np.where(np.arange(len(nodes)) % 2, -1.0, 1.0)
        weights[[0, -1]] *= 0.5
        check_working_set(len(nodes) * len(levels) * (16 * (j_max + 1) + 8),
                          f"a kick-strength surface of {len(nodes)} nodes x {len(levels)} levels at j_max={j_max}")
        fresh = slice(None) if constants is None else slice(1, None, 2)
        _, constant, rows, z = kick_level_series(ensemble, nodes[fresh], j_max, "y")
        if constants is None:
            constants, lines = constant, z
        else:  # the old nodes are the even ones of the doubled set
            old = constants, lines
            constants, lines = (np.empty((len(nodes), *new.shape[1:]), new.dtype) for new in (constant, z))
            constants[::2], lines[::2] = old
            constants[1::2], lines[1::2] = constant, z
        if intervals == 0 or all(_converged(constants, lines, w, weights, x) for w in corners):
            break
        if intervals >= SURFACE_MAX_INTERVALS:
            return None
        intervals *= 2
    return KickSurface(lo, hi, bottom, top, j_max, levels, rows, nodes, weights, constants, lines)


class EnsembleCache:
    """Decompositions keyed by quantized (intensity, temperature).

    A miss is evaluated at the quantized point, so equal keys mean equal
    results, and stored.  Every ensemble is simulate's, boltzmann_ensemble at
    its default cutoff.  The first miss builds the problem's kick-strength
    surface (kick_surface), and every miss it covers is read off it.  A miss
    it does not cover, with a key outside the box, an intensity key of 0 or
    a thermal level the surface lacks, is kicked directly on a basis sized
    at its own temperature and the larger of its intensity and the box's
    top: a cell above the box starts on simulate's basis.  A cache whose
    surface is set to None kicks every miss directly; model_signal makes
    such a cache for a single evaluation.  Cells read off the surface and
    kicked directly agree to about 1e-15 of the signal's peak (3.8e-15 at
    most over five cells of a 5-30 TW/cm^2, 20-150 K CO2 box).
    """

    def __init__(self, problem: FitProblem):
        self.problem = problem
        self._store: dict[tuple[int, int], FourierDecomposition] = {}
        self.misses = 0

    def _key(self, intensity: float, temperature: float) -> tuple[int, int]:
        q = self.problem.cache_quantum
        return (int(round(intensity / q)), int(round(temperature / q)))

    @cached_property
    def surface(self) -> KickSurface | None:
        return kick_surface(self.problem)

    def decomposition(self, intensity: float, temperature: float) -> FourierDecomposition:
        key = self._key(intensity, temperature)
        hit = self._store.get(key)
        if hit is None:
            self.misses += 1
            hit = self._store[key] = self._decompose(key)
        return hit

    def _decompose(self, key: tuple[int, int]) -> FourierDecomposition:
        p = self.problem
        q = p.cache_quantum
        ii, tt = key[0] * q, key[1] * q
        ens = boltzmann_ensemble(p.molecule, tt)
        xi = xi_per_intensity(p.molecule, p.tau_fwhm_ps) * ii
        surface = self.surface
        series = None if surface is None else surface.series(key, ens, xi)
        if series is not None:
            return series_decomposition(*series, p.molecule, 0.0, "y",
                                        {"molecule": p.molecule.name, "temperature_K": tt, "xi": xi,
                                         "j_max": surface.j_max})
        j_max = p.j_max
        if j_max is None:
            hi = max(ii, p.bounds.get("intensity", (ii, ii))[1])
            j_max = suggest_j_max(ens.j_thermal_max, xi_per_intensity(p.molecule, p.tau_fwhm_ps) * hi)
        return fourier_decompose(kick_ensemble(p.molecule, ens, xi, j_max), "y")


def model_signal(
    params: dict, problem: FitProblem, delays, cache: EnsembleCache | None = None
) -> np.ndarray:
    """Forward model: scaled diffracted signal at the given delays.

    params needs intensity, temperature, and optionally scale (default 1),
    t_offset, background_re/im.  The pump arrives at t_offset; background
    switches on there.  Without a cache of this problem the one cell is its
    direct kick, as simulate's sudden pipeline computes it, with no surface
    built; a cache serves the cell from its surface when the box covers it.
    """
    if cache is None or cache.problem is not problem:
        cache = EnsembleCache(problem)
        cache.surface = None  # one cell: one direct kick, where a surface kicks 21 nodes or more
    delays = np.asarray(delays, dtype=float)
    dec = cache.decomposition(params["intensity"], params["temperature"])
    t_off = params.get("t_offset", 0.0)
    b = complex(params.get("background_re", 0.0), params.get("background_im", 0.0))
    s = reconstruct(dec, delays - t_off).values
    values = diffracted_signal(problem.scheme, s, delays, b, t_off)
    return params.get("scale", 1.0) * values


def _profiled_scale(base: np.ndarray, data: np.ndarray, mask: np.ndarray, bounds) -> float:
    """Closed-form least-squares amplitude for model = scale * base."""
    bb = float(base[mask] @ base[mask])
    if bb == 0.0:
        return 0.0
    scale = float(base[mask] @ data[mask]) / bb
    return float(min(max(scale, bounds[0]), bounds[1]))


@dataclass(frozen=True)
class FitResult:
    """Best-fit parameters and fit diagnostics; evaluations counts the grid's,
    the refinement's (trials and Jacobian columns) and the sensitivity's, one
    per free parameter."""

    params: dict
    residual: float
    evaluations: int
    converged: bool
    flags: tuple[str, ...]
    sensitivity: dict
    reported: dict

    def to_dict(self) -> dict:
        return asdict(self)


def reported_intensities(problem: FitProblem, theoretical_intensity: float) -> dict:
    """Experiment-facing intensity figures for the fitted theoretical value.

    The single-pump equivalent inverts the scheme's mapping: parallel pumps
    simulate at 2 I0 f, perpendicular at I0 f, with f = 1/2 when the
    transverse convention factor is on.
    """
    return {
        "theoretical_intensity_TWcm2": theoretical_intensity,
        "single_pump_intensity_TWcm2": single_pump_intensity(
            problem.scheme, theoretical_intensity, problem.apply_transverse_factor),
        "transverse_factor_applied": problem.apply_transverse_factor,
        "scheme": problem.scheme,
    }


def fit_trace(
    problem: FitProblem,
    trace: ExperimentalTrace,
    max_evaluations: int = 4000,
    refine_starts: int = 3,
    n_intensity_starts: int = 6,
    n_temperature_starts: int = 4,
    cache: EnsembleCache | None = None,
) -> FitResult:
    """Least-squares retrieval: multistart grid, then bounded Levenberg-Marquardt.

    The objective is the mean squared residual, with the scale profiled out
    at every trial point, over one window fixed before the grid: the delays
    at least 2 tau from every pump time the problem allows (the fixed
    t_offset, or its whole bounds when it is free), normalized by the data's
    peak in that window.  A scan that leaves no delay in the window, or only
    zeros, is rejected before any evaluation.  From each of the best refine_starts grid points,
    Levenberg-Marquardt (More, LNM 630, 1978) with a forward-difference
    Jacobian converges in bounds-scaled [0,1] coordinates.  The grid always
    runs in full; max_evaluations caps the evaluations that the grid and the
    refinement make together, Jacobian columns included, and the refinement
    gets what is left, shared evenly between the starts the grid ranked.
    converged means the best run stopped
    on a trial step within one cache cell (intensity, temperature) or 1e-8 of
    the box on every coordinate, on a decrease of at most 1e-8 of the
    objective, or on a zero gradient.  The sensitivity of each free parameter is the Gauss-Newton
    curvature 2 sum_i J_ik^2 of the objective from one more Jacobian at the
    best point, which adds one evaluation per free parameter.
    """
    for name, n, least in (("n_intensity_starts", n_intensity_starts, 1),
                           ("n_temperature_starts", n_temperature_starts, 1),
                           ("refine_starts", refine_starts, 1), ("max_evaluations", max_evaluations, 0)):
        if n < least:
            raise ValueError(f"'{name}' must be at least {least}, got {n}")
    if cache is None or cache.problem is not problem:
        cache = EnsembleCache(problem)
    data = trace.signal
    # the delays at least 2 tau from every pump time the problem allows: one
    # window for every trial, so the data set does not move with t_offset
    lo, hi = problem.bounds.get("t_offset", (problem.resolve({})["t_offset"],) * 2)
    mask = np.maximum(lo - trace.delays, trace.delays - hi) >= 2.0 * problem.tau_fwhm_ps
    if not mask.any():
        raise ValueError(f"no delay lies at least 2 tau_fwhm_ps = {2.0 * problem.tau_fwhm_ps:g} ps "
                         f"from every pump time t_offset in [{lo:g}, {hi:g}] ps")
    # the window's own peak: a spike the window drops rescales nothing
    peak = float(np.max(np.abs(data[mask])))
    if peak == 0.0:
        raise ValueError("trace is identically zero in the fit window; nothing to fit")
    norm = peak * math.sqrt(mask.sum())
    free = problem.free_names
    lows = np.array([problem.bounds[n][0] for n in free])
    highs = np.array([problem.bounds[n][1] for n in free])
    span = highs - lows
    # difference steps of ~1e-3 of the box; on cache keys whole cells, at least two, at most half the box
    keyed = np.isin(free, ("intensity", "temperature"))
    cells = np.maximum(2, np.round(1e-3 * span / problem.cache_quantum)) * problem.cache_quantum / span
    steps = np.minimum(0.5, np.where(keyed, cells, 1e-3))
    # a move within one cache cell cannot change the cached model
    xtol = np.where(keyed, np.maximum(1e-8, problem.cache_quantum / span), 1e-8)
    counter = {"n": 0}

    def residuals(x: np.ndarray) -> tuple[np.ndarray, float]:
        """(residuals, profiled scale) at x in the box, zero outside the
        window; their squared norm is the objective."""
        params = problem.resolve(dict(zip(free, lows + span * x)))
        counter["n"] += 1
        base = model_signal({**params, "scale": 1.0}, problem, trace.delays, cache)
        scale = _profiled_scale(base, data, mask, problem.scale_bounds)
        return np.where(mask, scale * base - data, 0.0) / norm, scale

    def jacobian(x: np.ndarray, r0: np.ndarray) -> np.ndarray:
        """Forward differences by `steps`, backward where they would leave the box."""
        ys = x + np.diag(np.where(x + steps <= 1.0, steps, -steps))
        return np.column_stack([(residuals(y)[0] - r0) / (y[k] - x[k]) for k, y in enumerate(ys)])

    def refine(x, r, scale, max_nfev):
        """(x, r, scale, converged) of Levenberg-Marquardt from a grid point: each
        trial solves (J^T J + lam diag J^T J) d = -J^T r and clips x + d to the
        box; accepted, it divides lam by 3 and renews J, rejected, it multiplies
        lam by 4.  max_nfev counts the trials, the start included."""
        lam, nfev, jac = 1e-3, 1, None
        while nfev < max_nfev:
            jac = jacobian(x, r) if jac is None else jac
            grad, curv = jac.T @ r, jac.T @ jac
            if not grad.any():
                return x, r, scale, True
            damping = np.maximum(np.diag(curv), 1e-12 * np.max(np.diag(curv)))
            trial = np.clip(x + np.linalg.solve(curv + lam * np.diag(damping), -grad), 0.0, 1.0)
            if np.all(np.abs(trial - x) <= xtol):
                return x, r, scale, True
            nfev += 1
            r_trial, scale_trial = residuals(trial)
            if r_trial @ r_trial >= r @ r:
                lam *= 4.0
                continue
            small = r @ r - r_trial @ r_trial <= 1e-8 * (r @ r)
            x, r, scale, lam, jac = trial, r_trial, scale_trial, lam / 3.0, None
            if small:
                return x, r, scale, True
        return x, r, scale, False

    # multistart coarse grid over the physically multimodal axes
    grids = []
    for name in free:
        lo, hi = problem.bounds[name]
        if name == "intensity":
            pts = np.exp(np.linspace(math.log(max(lo, 1e-6)), math.log(hi), n_intensity_starts))
        elif name == "temperature":
            pts = np.linspace(lo, hi, n_temperature_starts)
        else:
            pts = np.array([0.5 * (lo + hi)])
        grids.append(np.clip((pts - lo) / (hi - lo), 0.0, 1.0))  # exp(log(hi)) may round above hi
    # the refine_starts best grid points, each with its residuals and scale
    starts = ((x, *residuals(x)) for x in map(np.array, itertools.product(*grids)))
    ranked = heapq.nsmallest(refine_starts, starts, key=lambda start: float(start[1] @ start[1]))

    # a Jacobian costs len(free) evaluations and follows each accepted trial
    max_nfev = max(max_evaluations - counter["n"], 0) // len(ranked) // (len(free) + 1)
    fits = [refine(*start, max_nfev) for start in ranked] if max_nfev else []
    best_x, resid, best_scale, converged = min(fits, key=lambda fit: float(fit[1] @ fit[1]),
                                               default=(*ranked[0], False))
    flags = [] if converged else ["budget_exhausted"]

    # flat-objective diagnostic: the Gauss-Newton curvature 2 sum_i J_ik^2 of
    # the objective along each free direction, from the Jacobian's steps
    sensitivity = dict(zip(free, map(float, 2.0 * np.sum(jacobian(best_x, resid) ** 2, axis=0))))
    if not all(math.isfinite(c) and c >= 1e-18 for c in sensitivity.values()):
        flags.append("degenerate_direction")

    values = dict(zip(free, lows + span * best_x))
    # the parallel model depends on (Im b)^2 only: of the two roots, return the non-negative one in bounds
    if values.get("background_im", 0.0) < 0.0 and -values["background_im"] <= problem.bounds["background_im"][1]:
        values["background_im"] = -values["background_im"]
    params = problem.resolve(values)
    params["scale"] = best_scale
    return FitResult(
        params=params,
        residual=float(resid @ resid),
        evaluations=counter["n"],
        converged=converged,
        flags=tuple(flags),
        sensitivity=sensitivity,
        reported=reported_intensities(problem, params["intensity"]),
    )


def synthesize_trace(
    problem: FitProblem,
    params: dict,
    delays,
    noise_fraction: float = 0.0,
    seed: int | None = None,
    cache: EnsembleCache | None = None,
) -> ExperimentalTrace:
    """Generate a synthetic measured trace from the forward model.

    Multiplicative Gaussian noise of the given fractional level is applied
    per sample.  The generator is model_signal, so a noiseless round trip is
    exact when the fit shares the generator's cache, and within about 1e-15
    of the signal's peak otherwise, where the fit reads off its surface the
    cell that the cache-less generator kicked directly.
    """
    delays = np.asarray(delays, dtype=float)
    clean = model_signal(params, problem, delays, cache)
    if noise_fraction > 0.0:
        rng = np.random.default_rng(seed)
        clean = clean * (1.0 + noise_fraction * rng.standard_normal(len(clean)))
    meta = {
        "synthetic": "true",
        "scheme": problem.scheme,
        "noise_fraction": noise_fraction,
    }
    return ExperimentalTrace(delays, clean, meta)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def write_fit_csv(
    result: FitResult, problem: FitProblem, trace: ExperimentalTrace, path: str,
    cache: EnsembleCache | None,
):
    """Side-by-side data/model/residual table for plotting."""
    model = model_signal(result.params, problem, trace.delays, cache)
    write_columns_csv(path, "delay_ps,data_au,model_au,residual_au",
                      (trace.delays, trace.signal, model, trace.signal - model), None)
