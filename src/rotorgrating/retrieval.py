"""Parameter retrieval from measured diffracted-signal traces.

The forward model is the grating signal pipeline: a sudden-kick thermal
ensemble at (intensity, temperature), its exact cosine-series decomposition,
evaluated at shifted delays, turned into a diffracted signal by the same
grating.diffracted_signal that simulate uses, and scaled.  The decomposition
per (intensity, temperature) cell is cached with quantized keys, so the
derivative-free simplex pays the propagation cost only once per visited cell.

The amplitude scale never enters the optimizer: for any trial of the other
parameters it is a linear least-squares subproblem solved in closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.optimize

from .dynamics import kick_ensemble
from .field import xi_per_intensity
from .grating import check_scheme, diffracted_signal, single_pump_intensity
from .observables import FourierDecomposition, fourier_decompose, reconstruct, write_columns_csv
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
    boltzmann_cutoff: float = 1e-6
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


class EnsembleCache:
    """Decompositions keyed by quantized (intensity, temperature)."""

    def __init__(self, problem: FitProblem):
        self.problem = problem
        self._store: dict[tuple[int, int], FourierDecomposition] = {}
        self.misses = 0

    def _key(self, intensity: float, temperature: float) -> tuple[int, int]:
        q = self.problem.cache_quantum
        return (int(round(intensity / q)), int(round(temperature / q)))

    def decomposition(self, intensity: float, temperature: float) -> FourierDecomposition:
        key = self._key(intensity, temperature)
        hit = self._store.get(key)
        if hit is None:
            self.misses += 1
            p = self.problem
            # evaluate at the quantized point so equal keys mean equal results
            q = p.cache_quantum
            ii, tt = key[0] * q, key[1] * q
            ens = boltzmann_ensemble(p.molecule, tt, p.boltzmann_cutoff)
            xi = xi_per_intensity(p.molecule, p.tau_fwhm_ps) * ii
            j_max = p.j_max
            if j_max is None:
                hi = p.bounds.get("intensity", (ii, ii))[1]
                j_max = suggest_j_max(
                    ens.j_thermal_max, xi_per_intensity(p.molecule, p.tau_fwhm_ps) * hi
                )
            cs = kick_ensemble(p.molecule, ens, xi, j_max)
            hit = fourier_decompose(cs, "y")
            self._store[key] = hit
        return hit


def model_signal(
    params: dict, problem: FitProblem, delays, cache: EnsembleCache | None = None
) -> np.ndarray:
    """Forward model: scaled diffracted signal at the given delays.

    params needs intensity, temperature, and optionally scale (default 1),
    t_offset, background_re/im.  The pump arrives at t_offset; background
    switches on there.
    """
    if cache is None or cache.problem is not problem:
        cache = EnsembleCache(problem)
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
    """Best-fit parameters and fit diagnostics."""

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
    """Least-squares retrieval: multistart grid, then Nelder-Mead refinement.

    The objective is the mean squared residual normalized by the data peak,
    over delays outside the pulse-overlap window |t - t_offset| < 2 tau; the
    simplex runs in bounds-scaled [0,1] coordinates with the scale profiled
    out at every trial point.
    """
    if cache is None or cache.problem is not problem:
        cache = EnsembleCache(problem)
    data = trace.signal
    peak = float(np.max(np.abs(data)))
    if peak == 0.0:
        raise ValueError("trace is identically zero; nothing to fit")
    free = problem.free_names
    lows = np.array([problem.bounds[n][0] for n in free])
    highs = np.array([problem.bounds[n][1] for n in free])
    span = highs - lows
    counter = {"n": 0}

    def objective(x_scaled: np.ndarray) -> tuple[float, float]:
        """(residual, profiled scale) at a scaled point; penalized outside the box."""
        x = np.clip(x_scaled, 0.0, 1.0)
        penalty = float(np.sum((x_scaled - x) ** 2))
        values = dict(zip(free, lows + span * x))
        params = problem.resolve(values)
        counter["n"] += 1
        base = model_signal({**params, "scale": 1.0}, problem, trace.delays, cache)
        mask = np.abs(trace.delays - params["t_offset"]) >= 2.0 * problem.tau_fwhm_ps
        if not mask.any():
            return float("inf"), 0.0
        scale = _profiled_scale(base, data, mask, problem.scale_bounds)
        resid = (scale * base[mask] - data[mask]) / peak
        return float(resid @ resid) / int(mask.sum()) + penalty, scale

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
        grids.append((pts - lo) / (hi - lo))
    starts = [np.array(combo) for combo in itertools.product(*grids)]
    scored = sorted((objective(x)[0], k) for k, x in enumerate(starts))
    if not math.isfinite(scored[0][0]):
        raise ValueError(
            "no fit start has a finite objective: the fit needs samples at least "
            f"2 tau_fwhm_ps = {2.0 * problem.tau_fwhm_ps:g} ps from the pump"
        )
    ranked = [starts[k] for _, k in scored]

    best_x, best_f = None, float("inf")
    converged = False
    flags: list[str] = []
    budget = max(max_evaluations - counter["n"], 50 * len(free))
    per_run = max(budget // max(refine_starts, 1), 100)
    for x0 in ranked[: max(refine_starts, 1)]:
        res = scipy.optimize.minimize(
            lambda x: objective(x)[0],
            x0,
            method="Nelder-Mead",
            options={
                "xatol": 1e-4,
                "fatol": 1e-14,
                "maxfev": per_run,
                "initial_simplex": _initial_simplex(x0, 0.08),
            },
        )
        if res.fun < best_f:
            best_x, best_f = np.clip(res.x, 0.0, 1.0), float(res.fun)
            converged = bool(res.success)
    if not converged:
        flags.append("budget_exhausted")
    best_f, best_scale = objective(best_x)

    # flat-objective diagnostic: curvature along each free direction
    sensitivity = {}
    h = 1e-3
    degenerate = False
    for k, name in enumerate(free):
        xp, xm = best_x.copy(), best_x.copy()
        xp[k] = min(xp[k] + h, 1.0)
        xm[k] = max(xm[k] - h, 0.0)
        fp, fm = objective(xp)[0], objective(xm)[0]
        denom = (xp[k] - xm[k]) / 2.0
        curv = (fp - 2.0 * best_f + fm) / denom**2 if denom > 0 else float("nan")
        sensitivity[name] = curv
        if not math.isfinite(curv) or abs(curv) < 1e-18:
            degenerate = True
    if degenerate:
        flags.append("degenerate_direction")

    values = dict(zip(free, lows + span * best_x))
    params = problem.resolve(values)
    params["scale"] = best_scale
    return FitResult(
        params=params,
        residual=best_f,
        evaluations=counter["n"],
        converged=converged,
        flags=tuple(flags),
        sensitivity=sensitivity,
        reported=reported_intensities(problem, params["intensity"]),
    )


def _initial_simplex(x0: np.ndarray, step: float) -> np.ndarray:
    n = len(x0)
    simplex = np.tile(x0, (n + 1, 1))
    for k in range(n):
        simplex[k + 1, k] = x0[k] + step if x0[k] + step <= 1.0 else x0[k] - step
    return simplex


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
    per sample; the generator and model_signal share code, so a noiseless
    round trip is exact by construction.
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
