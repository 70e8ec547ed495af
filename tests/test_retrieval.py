"""Trace loading and intensity/temperature retrieval from delay scans."""

import itertools
import json
import warnings

import numpy as np
import pytest
import scipy.optimize

from conftest import simulated_signal
from rotorgrating import dynamics, observables, retrieval
from rotorgrating.cli import EXIT_OK, main
from rotorgrating.constants import revival_period
from rotorgrating.grating import GratingConfig, grating_signal
from rotorgrating.observables import FourierDecomposition, reconstruct
from rotorgrating.retrieval import (
    EnsembleCache,
    ExperimentalTrace,
    FitProblem,
    fit_trace,
    load_trace,
    model_signal,
    reported_intensities,
    synthesize_trace,
    write_fit_csv,
)
from rotorgrating.rotor import CO2


def _write_rows(path, header, rows, comments=()):
    with open(path, "w") as fh:
        for line in comments:
            fh.write(line + "\n")
        fh.write(header + "\n")
        for r in rows:
            fh.write(r + "\n")


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------

def test_load_trace_round_trip(tmp_path):
    path = tmp_path / "scan.csv"
    t = np.linspace(0.0, 30.0, 80)
    s = np.cos(t) ** 2
    _write_rows(
        path,
        "delay_ps,signal_au",
        [f"{a:.9e},{b:.9e}" for a, b in zip(t, s)],
        comments=["# temperature: 293", "# note: run 12"],
    )
    trace = load_trace(str(path))
    assert np.allclose(trace.delays, t, rtol=1e-8)
    assert np.allclose(trace.signal, s, rtol=1e-8)
    assert trace.metadata["temperature"] == 293.0
    assert trace.metadata["note"] == "run 12"


def test_load_trace_femtosecond_unit(tmp_path):
    path = tmp_path / "scan.csv"
    t_fs = np.arange(60) * 500.0
    _write_rows(path, "delay_fs", [])  # placeholder, rewritten below
    _write_rows(
        path, "delay_fs,signal_au", [f"{a},1.0" for a in t_fs]
    )
    trace = load_trace(str(path))
    assert np.allclose(trace.delays, t_fs * 1e-3, rtol=1e-12)


def test_load_trace_error_reporting(tmp_path):
    bad_header = tmp_path / "h.csv"
    _write_rows(bad_header, "time,signal", ["0,1"])
    with pytest.raises(ValueError, match="header"):
        load_trace(str(bad_header))

    bad_unit = tmp_path / "u.csv"
    _write_rows(bad_unit, "delay_min,signal_au", ["0,1"])
    with pytest.raises(ValueError, match="unknown delay unit"):
        load_trace(str(bad_unit))

    empty = tmp_path / "e.csv"
    empty.write_text("# only comments\n")
    with pytest.raises(ValueError, match="missing"):
        load_trace(str(empty))

    malformed = tmp_path / "m.csv"
    rows = [f"{i * 0.1},{1.0}" for i in range(60)]
    rows[30] = "3.0,not-a-number"
    _write_rows(malformed, "delay_ps,signal_au", rows)
    with pytest.raises(ValueError, match=r"m\.csv:32"):
        load_trace(str(malformed))


def test_trace_validation():
    with pytest.raises(ValueError, match="equal length"):
        ExperimentalTrace(np.arange(60.0), np.zeros(59))
    with pytest.raises(ValueError, match="at least 50"):
        ExperimentalTrace(np.arange(10.0), np.zeros(10))
    t = np.arange(60.0)
    t[30] = t[29]
    with pytest.raises(ValueError, match="increasing"):
        ExperimentalTrace(t, np.zeros(60))
    # the bound simulate puts on its grid and pump time
    with pytest.raises(ValueError, match=r"delays must lie within \+-1e\+09 ps"):
        ExperimentalTrace(np.arange(60.0) + 1e14, np.ones(60))


# ---------------------------------------------------------------------------
# Problem validation and intensity bookkeeping
# ---------------------------------------------------------------------------

def test_fit_problem_validation():
    with pytest.raises(ValueError, match="scheme"):
        FitProblem(CO2, "diagonal", bounds={"intensity": (1, 10)}, fixed={"temperature": 60})
    with pytest.raises(ValueError, match="free parameter"):
        FitProblem(CO2, "parallel", bounds={}, fixed={"temperature": 60})
    with pytest.raises(ValueError, match="unknown parameter"):
        FitProblem(CO2, "parallel", bounds={"pressure": (0, 1)}, fixed={"temperature": 60})
    with pytest.raises(ValueError, match="lo < hi"):
        FitProblem(
            CO2, "parallel", bounds={"intensity": (10, 10)}, fixed={"temperature": 60}
        )
    with pytest.raises(ValueError, match="parallel scheme only"):
        FitProblem(
            CO2,
            "perpendicular",
            bounds={"intensity": (1, 10), "background_re": (0, 1)},
            fixed={"temperature": 60},
        )
    with pytest.raises(ValueError, match="temperature"):
        FitProblem(CO2, "parallel", bounds={"intensity": (1, 10)})
    # the bound simulate puts on its pump time
    with pytest.raises(ValueError, match=r"'t_offset' must lie within \+-1e\+09 ps, got 1e\+300"):
        FitProblem(CO2, "parallel", bounds={"intensity": (1, 10)}, fixed={"temperature": 60, "t_offset": 1e300})
    with pytest.raises(ValueError, match=r"'t_offset' must lie within \+-1e\+09 ps, got 2e\+09"):
        FitProblem(CO2, "parallel", bounds={"intensity": (1, 10), "t_offset": (0.0, 2e9)}, fixed={"temperature": 60})
    # a misspelled or unfittable fixed name would otherwise be silently ignored
    with pytest.raises(ValueError, match="unknown fixed parameter 't_ofset'"):
        FitProblem(CO2, "parallel", bounds={"intensity": (1, 10)},
                   fixed={"temperature": 60, "t_ofset": 1.0})
    with pytest.raises(ValueError, match="scale is always profiled"):
        FitProblem(CO2, "parallel", bounds={"intensity": (1, 10)},
                   fixed={"temperature": 60, "scale": 3})
    # ... and a fixed value next to bounds would be dropped for the free one
    with pytest.raises(ValueError, match="'intensity' is both fixed and free"):
        FitProblem(CO2, "parallel", bounds={"intensity": (1, 10)},
                   fixed={"temperature": 60, "intensity": 12})
    with pytest.raises(ValueError, match="scale_bounds"):
        FitProblem(CO2, "parallel", bounds={"intensity": (1, 10)},
                   fixed={"temperature": 60}, scale_bounds=(2.0, 1.0))
    # every trial temperature would share one cache cell
    with pytest.raises(ValueError, match="puts the 'temperature' bounds in one cache cell"):
        FitProblem(CO2, "parallel", bounds={"intensity": (1, 10), "temperature": (20.0, 20.0004)},
                   cache_quantum=1e-3)


def test_reported_intensities_mapping():
    def mk(scheme, factor):
        return FitProblem(
            CO2, scheme, bounds={"intensity": (1, 40)}, fixed={"temperature": 60},
            apply_transverse_factor=factor,
        )

    rep = reported_intensities(mk("parallel", True), 20.0)
    assert rep["single_pump_intensity_TWcm2"] == pytest.approx(20.0)
    rep = reported_intensities(mk("parallel", False), 20.0)
    assert rep["single_pump_intensity_TWcm2"] == pytest.approx(10.0)
    rep = reported_intensities(mk("perpendicular", True), 20.0)
    assert rep["single_pump_intensity_TWcm2"] == pytest.approx(40.0)
    rep = reported_intensities(mk("perpendicular", False), 20.0)
    assert rep["single_pump_intensity_TWcm2"] == pytest.approx(20.0)
    assert rep["theoretical_intensity_TWcm2"] == 20.0
    assert rep["scheme"] == "perpendicular"


# ---------------------------------------------------------------------------
# Forward model
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cold_problem():
    return FitProblem(
        CO2, "parallel", bounds={"intensity": (1.0, 12.0)}, fixed={"temperature": 0.0}
    )


def test_cache_quantization(cold_problem):
    problem = FitProblem(
        CO2, "parallel", bounds={"intensity": (1.0, 12.0)}, fixed={"temperature": 0.0},
        cache_quantum=1e-3,
    )
    cache = EnsembleCache(problem)
    a = cache.decomposition(5.0001, 0.0)
    b = cache.decomposition(5.0004, 0.0)
    assert cache.misses == 1
    assert a is b
    # evaluation happens at the quantized point itself
    c = cache.decomposition(5.000, 0.0)
    assert c is a
    cache.decomposition(5.002, 0.0)
    assert cache.misses == 2


def test_model_time_offset_shifts_the_signal(cold_problem):
    delays = np.linspace(0.0, 40.0, 400)
    base = model_signal({"intensity": 5.0, "temperature": 0.0}, cold_problem, delays)
    shifted = model_signal(
        {"intensity": 5.0, "temperature": 0.0, "t_offset": 1.3}, cold_problem, delays + 1.3
    )
    assert np.allclose(base, shifted, rtol=0.0, atol=1e-12)


def test_model_perpendicular_carries_the_anisotropy_factor(cold_problem):
    perp = FitProblem(
        CO2, "perpendicular", bounds={"intensity": (1.0, 12.0)}, fixed={"temperature": 0.0}
    )
    delays = np.linspace(0.0, 40.0, 300)
    params = {"intensity": 5.0, "temperature": 0.0}
    a = model_signal(params, cold_problem, delays)
    b = model_signal(params, perp, delays)
    assert np.allclose(b, 2.25 * a, rtol=1e-12)


def test_model_background_switch_on(cold_problem):
    delays = np.linspace(-2.0, 10.0, 240)
    params = {"intensity": 5.0, "temperature": 0.0, "background_re": 0.3,
              "background_im": -0.1, "t_offset": 0.0}
    vals = model_signal(params, cold_problem, delays)
    plain = model_signal({"intensity": 5.0, "temperature": 0.0}, cold_problem, delays)
    before = delays < 0.0
    assert np.allclose(vals[before], plain[before], rtol=1e-12)
    assert not np.allclose(vals[~before], plain[~before])
    assert np.all(vals >= 0.0)


def test_model_scale_is_multiplicative(cold_problem):
    delays = np.linspace(0.0, 20.0, 200)
    one = model_signal({"intensity": 4.0, "temperature": 0.0}, cold_problem, delays)
    five = model_signal({"intensity": 4.0, "temperature": 0.0, "scale": 5.0},
                        cold_problem, delays)
    assert np.allclose(five, 5.0 * one, rtol=1e-15)


@pytest.mark.parametrize("scheme", ["parallel", "perpendicular"])
def test_grating_and_fit_models_agree_bit_for_bit(scheme):
    # simulate's grating_signal and the fit's model_signal on one decomposition
    problem = FitProblem(CO2, scheme, bounds={"intensity": (1.0, 12.0)},
                         fixed={"temperature": 60.0})
    cache = EnsembleCache(problem)
    intensity = 8.0  # theoretical; the transverse factor maps it to the pump
    dec = cache.decomposition(intensity, 60.0)
    delays = np.linspace(-1.0, 40.0, 700)
    params = {"intensity": intensity, "temperature": 60.0}
    single = 2.0 * intensity if scheme == "perpendicular" else intensity
    if scheme == "parallel":
        background = complex(0.02, -0.01)
        params.update(t_offset=0.37, background_re=0.02, background_im=-0.01)
    else:
        background = None
    model = model_signal(params, problem, delays, cache)
    # the fit shifts the delays by t_offset; the grating's pump sits at t0_ps = 0
    t_off = params.get("t_offset", 0.0)
    config = GratingConfig(scheme, single, plasma_background=background)
    signal = grating_signal(reconstruct(dec, delays - t_off), config)
    assert config.theoretical_intensity == intensity
    assert np.array_equal(signal.values, model)
    if scheme == "parallel":
        # a pump at t0_ps folds the delay into the phases instead
        shifted = FourierDecomposition(dec.constant, dec.js, dec.amplitudes,
                                       dec.phases - dec.omegas * t_off, dec.omegas)
        config = GratingConfig(scheme, single, t0_ps=t_off, plasma_background=background)
        signal = grating_signal(reconstruct(shifted, delays), config)
        assert np.max(np.abs(signal.values - model)) <= 1e-12 * np.max(model)


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def test_synthesize_noiseless_equals_model(cold_problem):
    delays = np.linspace(0.5, 30.0, 120)
    params = {"intensity": 6.0, "temperature": 0.0, "scale": 2.0}
    trace = synthesize_trace(cold_problem, params, delays)
    assert np.array_equal(trace.signal, model_signal(params, cold_problem, delays))


def test_synthesize_noise_is_seeded(cold_problem):
    delays = np.linspace(0.5, 30.0, 120)
    params = {"intensity": 6.0, "temperature": 0.0}
    a = synthesize_trace(cold_problem, params, delays, noise_fraction=0.05, seed=11)
    b = synthesize_trace(cold_problem, params, delays, noise_fraction=0.05, seed=11)
    c = synthesize_trace(cold_problem, params, delays, noise_fraction=0.05, seed=12)
    assert np.array_equal(a.signal, b.signal)
    assert not np.array_equal(a.signal, c.signal)
    clean = synthesize_trace(cold_problem, params, delays)
    rms = np.sqrt(np.mean((a.signal - clean.signal) ** 2))
    assert 0.01 * clean.signal.max() < rms < 0.15 * clean.signal.max()


# ---------------------------------------------------------------------------
# Retrieval round trips
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fit_setup():
    problem = FitProblem(
        CO2, "perpendicular", bounds={"intensity": (5.0, 30.0)},
        fixed={"temperature": 60.0}, cache_quantum=1e-3,
    )
    cache = EnsembleCache(problem)
    tr = revival_period(CO2.b_cm1)
    delays = np.arange(0.5, 0.5 + tr, 0.02)
    truth = {"intensity": 18.0, "temperature": 60.0}
    trace = synthesize_trace(problem, truth, delays, cache=cache)
    return problem, cache, trace, truth


def test_noiseless_round_trip(fit_setup):
    problem, cache, trace, truth = fit_setup
    result = fit_trace(problem, trace, refine_starts=2, n_intensity_starts=4, cache=cache)
    assert result.converged
    assert result.params["intensity"] == pytest.approx(truth["intensity"], rel=0.01)
    assert result.params["scale"] == pytest.approx(1.0, rel=0.01)
    assert result.residual < 1e-8
    assert result.reported["single_pump_intensity_TWcm2"] == pytest.approx(
        2.0 * result.params["intensity"], rel=1e-12
    )


def test_fit_is_deterministic(fit_setup):
    problem, cache, trace, _ = fit_setup
    a = fit_trace(problem, trace, refine_starts=2, n_intensity_starts=4, cache=cache)
    b = fit_trace(problem, trace, refine_starts=2, n_intensity_starts=4, cache=cache)
    assert a.params == b.params
    assert a.residual == b.residual
    assert a.evaluations == b.evaluations


def test_fit_invariant_under_data_scaling(fit_setup):
    problem, cache, trace, _ = fit_setup
    # 128 is a power of two: scaling the data is exact in floating point
    big = ExperimentalTrace(trace.delays, 128.0 * trace.signal, dict(trace.metadata))
    a = fit_trace(problem, trace, refine_starts=2, n_intensity_starts=4, cache=cache)
    b = fit_trace(problem, big, refine_starts=2, n_intensity_starts=4, cache=cache)
    assert b.params["intensity"] == pytest.approx(a.params["intensity"], rel=1e-12)
    assert b.params["scale"] == pytest.approx(128.0 * a.params["scale"], rel=1e-12)


def test_process_caches_stay_bounded_after_a_fit(fit_setup):
    _, _, trace, _ = fit_setup
    wide = FitProblem(
        CO2, "perpendicular", bounds={"intensity": (5.0, 30.0), "temperature": (20.0, 200.0)},
        cache_quantum=0.5,
    )
    dynamics.clear_caches()
    cache = EnsembleCache(wide)
    fit_trace(wide, trace, max_evaluations=60, refine_starts=1,
              n_intensity_starts=2, n_temperature_starts=2, cache=cache)
    # the fit's own cache holds one decomposition per miss, each at most 32 B
    # per line (js, amplitudes, phases, omegas) for at most j_max + 1 lines
    assert 0 < len(cache._store) == cache.misses
    for dec in cache._store.values():
        lines = (dec.js, dec.amplitudes, dec.phases, dec.omegas)
        assert sum(a.nbytes for a in lines) <= 32 * len(dec.js) <= 32 * (dec.metadata["j_max"] + 1)
    # one chain layout, with its grouping and eigendecompositions, per visited
    # (level set, j_max)
    assert 0 < len(dynamics._LAYOUTS) <= dynamics.LAYOUT_CACHE_SIZE == 16
    # each holds its eigenvalues and eigenvectors, 8 sum n^2 bytes within its
    # share of the working-set budget, and the kick kernel's gather index, an
    # int32 per entry of its n x k blocks, k <= n since a chain's channels
    # start on distinct rows: at most twice the share in all
    share = dynamics.MAX_WORKING_SET_BYTES / dynamics.LAYOUT_CACHE_SIZE
    for layout in dynamics._LAYOUTS.values():
        n, k = layout.sizes, layout.counts
        held = sum(a.nbytes for a in layout.__dict__["eigen"]) + layout.__dict__["gather"].nbytes
        assert held == 8 * n.sum() + 8 * (n * n).sum() + 4 * (n * k).sum()
        assert 8 * (n * n).sum() <= share and np.all(k <= n) and held <= 2 * share
    # reconstruct's phase tables of the scan's delays: HORNER_BLOCK rows of
    # powers of z or one row of e^{i omega_J0 t}, a complex per row and delay,
    # their key 8 bytes per delay, at most PHASE_CACHE_SAMPLES delays
    assert 0 < len(observables._PHASES) <= observables.PHASE_CACHE_SIZE
    for (times, _), table in observables._PHASES.items():
        rows, samples = table.shape
        assert rows in (1, observables.HORNER_BLOCK) and table.nbytes == 16 * rows * samples
        assert len(times) == 8 * samples <= 8 * observables.PHASE_CACHE_SAMPLES
    # the fit's kick-strength surface: per node and level, a complex per line
    # the chains hold, at most j_max + 1 of them, and a float constant
    surface = cache.surface
    nodes, levels = len(surface.nodes), len(surface.levels)
    assert surface.lines.nbytes + surface.constants.nbytes == nodes * levels * (16 * len(surface.rows) + 8)
    assert len(surface.rows) <= surface.j_max + 1 and nodes <= retrieval.SURFACE_MAX_INTERVALS + 1


def test_a_fit_series_pair_kicks_only_the_surface_nodes(monkeypatch):
    # the fit-series workload's box and its first two fits on one cache:
    # every kick is a node of the one surface, all 21 in one batched call on
    # one chain layout at one j_max, and no cell is kicked on its own (one
    # kick per visited cell, 111 on 4 layouts, before the surface; 21 calls
    # of kick_ensemble, one per node, before the batched call)
    problem = FitProblem(CO2, "perpendicular", bounds={"intensity": (5.0, 30.0), "temperature": (20.0, 150.0)},
                         cache_quantum=1e-3)
    delays = np.arange(0.5, 0.5 + revival_period(CO2.b_cm1), 0.02)
    truth = {"intensity": 18.0, "temperature": 60.0, "scale": 2.5}
    scratch = EnsembleCache(problem)
    traces = [synthesize_trace(problem, truth, delays, noise, seed, scratch) for noise, seed in ((0.0, None), (0.05, 1))]
    dynamics.clear_caches()
    batches, batch = [], retrieval.kick_level_series
    monkeypatch.setattr(retrieval, "kick_level_series",
                        lambda *args: batches.append((len(args[1]), args[2])) or batch(*args))
    monkeypatch.setattr(retrieval, "kick_ensemble", lambda *args: pytest.fail("a cell was kicked on its own"))
    cache = EnsembleCache(problem)
    fits = [fit_trace(problem, traces[0], cache=cache),
            fit_trace(problem, traces[1], max_evaluations=600, refine_starts=2, cache=cache)]
    assert all(fit.converged for fit in fits) and cache.misses > 2 * len(cache.surface.nodes)
    assert batches == [(len(cache.surface.nodes), cache.surface.j_max)]
    assert len(cache.surface.nodes) == retrieval.SURFACE_INTERVALS + 1 == 21 and len(dynamics._LAYOUTS) == 1


def test_a_cacheless_synthesis_kicks_only_its_cell(monkeypatch):
    # one evaluation without a cache is one direct kick on one layout, not
    # the box's whole surface (21 kicks, when the throwaway cache built it)
    problem = FitProblem(CO2, "perpendicular", bounds={"intensity": (5.0, 30.0), "temperature": (20.0, 150.0)},
                         cache_quantum=1e-3)
    dynamics.clear_caches()
    kicks, kick = [], retrieval.kick_ensemble
    monkeypatch.setattr(retrieval, "kick_ensemble", lambda *args: kicks.append(args[2:]) or kick(*args))
    synthesize_trace(problem, {"intensity": 18.0, "temperature": 60.0}, np.arange(0.5, 20.0, 0.02))
    assert len(kicks) == 1 and len(dynamics._LAYOUTS) == 1


def test_a_cell_above_the_box_is_simulates_kick():
    # 300 TW/cm^2 on fit-series' 5-30 TW/cm^2 box: the direct kick starts on
    # simulate's basis, suggest_j_max at the cell's own kick, where a basis
    # sized at the box's top intensity (j_max 102) raised BasisTooSmallError
    problem = FitProblem(CO2, "perpendicular", bounds={"intensity": (5.0, 30.0), "temperature": (20.0, 150.0)},
                         cache_quantum=1e-3)
    cell = {"intensity": 300.0, "temperature": 60.0}
    delays = np.arange(0.5, 0.5 + revival_period(CO2.b_cm1), 0.02)
    want = simulated_signal(problem, cell, delays)
    for cache in (None, EnsembleCache(problem)):
        assert np.array_equal(model_signal(cell, problem, delays, cache), want)


def test_the_surface_is_checked_against_the_budget_before_its_kicks(monkeypatch):
    problem = FitProblem(CO2, "perpendicular", bounds={"intensity": (5.0, 30.0), "temperature": (20.0, 150.0)})
    # the surface's bytes are checked once, then its 21 nodes are kicked in
    # one batched call on the tail bound's basis at the box's (top, hi)
    # corner; with a budget one byte short, none is
    estimates, check = [], retrieval.check_working_set
    monkeypatch.setattr(retrieval, "check_working_set",
                        lambda nbytes, what: estimates.append(nbytes) or check(nbytes, what))
    batches, batch = [], retrieval.kick_level_series
    monkeypatch.setattr(retrieval, "kick_level_series", lambda *args: batches.append(len(args[1])) or batch(*args))
    surface = retrieval.kick_surface(problem)
    nodes, levels = len(surface.nodes), len(surface.levels)
    assert batches == [nodes] and estimates == [nodes * levels * (16 * (surface.j_max + 1) + 8)]
    corner = retrieval.boltzmann_ensemble(CO2, 150.0), retrieval.xi_per_intensity(CO2) * 30.0
    assert surface.j_max == dynamics.tail_j_max(*corner) == 82
    assert surface.lines.nbytes + surface.constants.nbytes <= estimates[0]
    monkeypatch.setattr(dynamics, "MAX_WORKING_SET_BYTES", estimates[0] - 1)
    monkeypatch.setattr(retrieval, "kick_level_series", lambda *args: pytest.fail("a node was kicked"))
    with pytest.raises(ValueError, match="a kick-strength surface of 21 nodes x 31 levels at j_max=82"):
        retrieval.kick_surface(problem)


@pytest.mark.parametrize("j_max, error", [
    (60, dynamics.BasisTooSmallError("kick populates the basis edge at j_max=60; enlarge j_max")),
    (40, dynamics.BasisTooSmallError("thermal origin J=60 exceeds j_max=40; the basis cannot hold the initial "
                                     "ensemble")),
    (-5, ValueError("j_max must be nonnegative, got -5")),
])
def test_a_surface_on_an_explicit_basis_fails_as_its_direct_kick(j_max, error):
    # fit-series' box on too small an explicit basis: the batched kicks of
    # the surface check it as kick_ensemble does its own, and fail as the
    # direct kick of the box's top corner, the surface's first node, fails
    problem = FitProblem(CO2, "perpendicular", bounds={"intensity": (5.0, 30.0), "temperature": (20.0, 150.0)},
                         cache_quantum=1e-3, j_max=j_max)
    xi = retrieval.xi_per_intensity(CO2, problem.tau_fwhm_ps) * 30.0
    for build in (lambda: EnsembleCache(problem).surface,
                  lambda: retrieval.kick_ensemble(CO2, retrieval.boltzmann_ensemble(CO2, 150.0), xi, j_max)):
        with pytest.raises(type(error)) as failure:
            build()
        assert str(failure.value) == str(error)


def test_a_spike_the_window_drops_rescales_nothing():
    # the coherent artifact at pump-probe overlap: a sample the window drops,
    # 1e3 or 1e6 times the scan's peak, leaves the residual, the sensitivities
    # and every other field of the fit as they are
    problem = FitProblem(CO2, "perpendicular", bounds={"intensity": (5.0, 30.0)},
                         fixed={"temperature": 60.0}, cache_quantum=1e-3)
    cache = EnsembleCache(problem)
    trace = synthesize_trace(problem, {"intensity": 15.0, "temperature": 60.0}, np.arange(0.0, 20.0, 0.02),
                             noise_fraction=0.05, seed=3, cache=cache)
    fits = []
    for spike in (None, 1e3, 1e6):
        signal = trace.signal.copy()
        if spike:
            signal[0] = spike * np.max(np.abs(trace.signal))
        fits.append(fit_trace(problem, ExperimentalTrace(trace.delays, signal), refine_starts=1,
                              n_intensity_starts=3, cache=cache).to_dict())
    assert fits[0]["converged"] and fits[0]["residual"] > 1e-6
    assert fits[1] == fits[0] and fits[2] == fits[0]


# ---------------------------------------------------------------------------
# The Gauss-Newton refinement on the acceptance-10 box
# ---------------------------------------------------------------------------

def _box_fit(truth, cache_quantum=1e-3, noise_fraction=0.0, seed=None, **search):
    problem = FitProblem(CO2, "perpendicular", cache_quantum=cache_quantum,
                         bounds={"intensity": (5.0, 30.0), "temperature": (20.0, 150.0)})
    delays = np.arange(0.5, 0.5 + revival_period(CO2.b_cm1), 0.02)
    trace = synthesize_trace(problem, truth, delays, noise_fraction=noise_fraction, seed=seed)
    return fit_trace(problem, trace, **search)


def test_cold_acceptance_10_fit_makes_at_most_138_evaluations():
    # 60% of the 230 that Nelder-Mead alone made on this fit
    truth = {"intensity": 18.0, "temperature": 60.0, "scale": 2.5}
    result = _box_fit(truth)
    assert result.converged
    assert result.evaluations <= 138
    for key, value in truth.items():
        assert result.params[key] == pytest.approx(value, rel=0.01)


@pytest.mark.parametrize("cache_quantum, intensity, temperature", [
    (0.05, 18.0, 60.0), (0.05, 14.6, 40.0), (0.05, 8.0, 60.0), (0.1, 14.6, 40.0), (0.1, 14.6, 60.0),
])
def test_fit_converges_on_coarse_cache_cells(cache_quantum, intensity, temperature):
    # cache_quantum 0.05 holds the model constant over 0.05 TW/cm^2 x 0.05 K
    # cells; finite differences over whole cells keep Gauss-Newton on course.
    # Over a fixed 1e-3 of the box (half a cell in intensity) it misses 14.6
    # TW/cm^2 by 1%; over 1e-3 of the coordinate itself it misses 8 by 5%.
    # The curvature diagnostic reads the Jacobian of the same steps; probes
    # of a fixed 1e-3 of the box stayed inside a 0.1 cell, read zero and
    # flagged the fit degenerate_direction
    result = _box_fit({"intensity": intensity, "temperature": temperature}, cache_quantum=cache_quantum)
    assert result.converged
    assert result.flags == ()
    assert result.params["intensity"] == pytest.approx(intensity, rel=0.005)
    assert result.params["temperature"] == pytest.approx(temperature, rel=0.005)


def test_fit_leaves_the_lower_temperature_bound():
    # with this seed the two best grid starts lie on the 20 K bound, where a
    # finite-difference step relative to the box coordinate would vanish
    result = _box_fit({"intensity": 14.6, "temperature": 36.0}, noise_fraction=0.05, seed=0,
                      max_evaluations=600, refine_starts=2)
    assert result.converged
    assert result.params["intensity"] == pytest.approx(14.6, rel=0.02)
    assert result.params["temperature"] == pytest.approx(36.0, rel=0.02)


def test_a_flat_direction_is_flagged_degenerate():
    # from 0.01 to 0.2 K CO2's ensemble is the ground level alone (boltzmann
    # cutoff 1e-6), so the model does not move with temperature in this box:
    # that Jacobian column, and with it the curvature, is exactly zero
    problem = FitProblem(CO2, "perpendicular",
                         bounds={"intensity": (5.0, 30.0), "temperature": (0.01, 0.1)})
    delays = np.arange(0.5, 0.5 + revival_period(CO2.b_cm1), 0.02)
    trace = synthesize_trace(problem, {"intensity": 18.0, "temperature": 0.05}, delays)
    result = fit_trace(problem, trace)
    assert result.flags == ("degenerate_direction",)
    assert result.sensitivity["temperature"] == 0.0
    assert result.sensitivity["intensity"] > 1e-6
    assert result.params["intensity"] == pytest.approx(18.0, rel=1e-3)


def test_background_im_is_returned_as_its_non_negative_root():
    # the parallel model heterodynes as |s + b|^2 = (s + Re b)^2 + (Im b)^2,
    # bit for bit even in Im b: a truth of -0.002 in symmetric bounds comes
    # back as +0.002, at the residual of the model at -0.002
    problem = FitProblem(CO2, "parallel", cache_quantum=1e-3, fixed={"temperature": 60.0},
                         bounds={"intensity": (5.0, 30.0), "background_im": (-0.01, 0.01)})
    delays = np.arange(0.5, 20.0, 0.02)
    truth = {"intensity": 18.0, "temperature": 60.0, "background_im": -0.002}
    result = fit_trace(problem, synthesize_trace(problem, truth, delays))
    assert result.converged and result.residual <= 1e-12
    assert result.params["background_im"] == pytest.approx(0.002, rel=1e-4)
    mirror = {**result.params, "background_im": -result.params["background_im"]}
    assert np.array_equal(model_signal(mirror, problem, delays), model_signal(result.params, problem, delays))


@pytest.mark.parametrize("bounds, cache_quantum", [
    ({"intensity": (5.0, 30.0), "background_re": (-0.01, 0.01)}, 1e-3),
    ({"intensity": (5.0, 30.0), "temperature": (20.0, 150.0)}, 1e-15),
])
def test_fit_keeps_the_default_xtol_unless_a_cell_bounds_the_step(bounds, cache_quantum):
    # only intensity and temperature key the cache, so only their steps stop
    # on one cache cell: a free background_re stops on 1e-8 of its box, not
    # on the 0.05 of it that one 1e-3 cell spans, and a cell below 1e-8 of
    # the box stops on 1e-8, without a warning.  The noiseless fits then
    # reach residuals of 1e-19 and less; stopped on background_re's cell,
    # they ended at 5e-16 to 2e-11
    problem = FitProblem(CO2, "parallel", cache_quantum=cache_quantum, bounds=bounds,
                         fixed={} if "temperature" in bounds else {"temperature": 60.0})
    delays = np.arange(0.5, 20.0, 0.02)
    search = {"refine_starts": 1, "n_intensity_starts": 2, "n_temperature_starts": 2}
    for background_re in (0.003, -0.004, 0.0071) if "background_re" in bounds else (0.0,):
        truth = {"intensity": 18.0, "temperature": 60.0, "background_re": background_re}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fit_trace(problem, synthesize_trace(problem, truth, delays), **search)
        assert result.converged
        assert result.residual <= 1e-18, background_re


@pytest.mark.parametrize("budget", [1, 30, 60, 120, 600])
def test_max_evaluations_caps_the_search(budget):
    # the 24 grid starts always run and refinement spends at most the rest,
    # Jacobian columns included; the curvature diagnostic then adds one
    # Jacobian column per free parameter.  Up to 30, each of the three runs
    # is cut before it meets a tolerance; from 60 on the best run stops on a
    # step below one cache cell (xtol) within the budget, after 52
    # evaluations in all at 60 and 56 from 90 on
    result = _box_fit({"intensity": 18.0, "temperature": 60.0}, noise_fraction=0.05, seed=1,
                      max_evaluations=budget)
    assert result.evaluations <= max(budget, 24) + 2
    assert result.converged == (budget >= 60)


@pytest.mark.parametrize("name", ["n_intensity_starts", "n_temperature_starts"])
@pytest.mark.parametrize("starts", [0, -2])
def test_a_grid_without_starts_is_rejected(name, starts):
    problem = FitProblem(CO2, "perpendicular", bounds={"intensity": (5.0, 30.0), "temperature": (20.0, 150.0)})
    trace = ExperimentalTrace(np.linspace(0.5, 10.0, 60), np.ones(60))
    with pytest.raises(ValueError, match=f"'{name}' must be at least 1, got {starts}"):
        fit_trace(problem, trace, **{name: starts})


@pytest.mark.parametrize("name, value, least", [
    ("refine_starts", 0, 1), ("refine_starts", -2, 1), ("max_evaluations", -3, 0),
])
def test_a_refinement_without_starts_or_budget_is_rejected(monkeypatch, name, value, least):
    # rejected before any evaluation, where refine_starts 0 ran one
    # refinement and a negative max_evaluations none
    problem = FitProblem(CO2, "perpendicular", bounds={"intensity": (5.0, 30.0), "temperature": (20.0, 150.0)})
    trace = ExperimentalTrace(np.linspace(0.5, 10.0, 60), np.ones(60))
    monkeypatch.setattr(retrieval, "model_signal", lambda *args: pytest.fail("an evaluation ran"))
    with pytest.raises(ValueError, match=f"'{name}' must be at least {least}, got {value}"):
        fit_trace(problem, trace, **{name: value})


def test_the_refinement_budget_is_shared_between_the_ranked_starts():
    # t_offset alone is free, so the grid ranks one start, and the 39
    # evaluations the grid leaves are all its own: a third of them, as if
    # refine_starts = 3 starts shared them, cut it after 12 evaluations
    problem = FitProblem(CO2, "perpendicular", bounds={"t_offset": (-0.2, 0.2)},
                         fixed={"intensity": 15.0, "temperature": 60.0}, cache_quantum=1e-3)
    trace = synthesize_trace(problem, {"intensity": 15.0, "temperature": 60.0, "t_offset": 0.15},
                             np.arange(0.5, 20.0, 0.02), noise_fraction=0.05, seed=2)
    capped, full = fit_trace(problem, trace, max_evaluations=40), fit_trace(problem, trace)
    assert full.converged and full.evaluations > 12
    assert capped.to_dict() == full.to_dict()


# ---------------------------------------------------------------------------
# The pulse-overlap window
# ---------------------------------------------------------------------------

def _hazard_problem(box):
    """The non-physical |sin 7t| + 0.1 on 50 delays from 0 to 0.98 ps, with
    intensity and t_offset in `box` free."""
    problem = FitProblem(CO2, "perpendicular", bounds={"intensity": (5.0, 30.0), "t_offset": box},
                         fixed={"temperature": 60.0})
    delays = np.arange(50) * 0.02
    return problem, ExperimentalTrace(delays, np.abs(np.sin(7.0 * delays)) + 0.1)


def test_samples_inside_the_window_leave_the_fit_unchanged():
    # t_offset free in (-0.2, 0.2): the window drops the delays within 0.2 ps
    # of that range, for every trial t_offset alike
    problem = FitProblem(CO2, "perpendicular", bounds={"intensity": (5.0, 30.0), "t_offset": (-0.2, 0.2)},
                         fixed={"temperature": 60.0}, cache_quantum=1e-3)
    cache = EnsembleCache(problem)
    trace = synthesize_trace(problem, {"intensity": 15.0, "temperature": 60.0, "t_offset": 0.05},
                             np.arange(0.0, 20.0, 0.02), noise_fraction=0.05, seed=3, cache=cache)
    inside = trace.delays < 0.39
    peak = np.max(np.abs(trace.signal))
    assert np.max(np.abs(trace.signal[~inside])) == peak
    signal = trace.signal.copy()
    signal[inside] = peak * np.random.default_rng(0).uniform(0.0, 0.9, inside.sum())
    fits = [fit_trace(problem, ExperimentalTrace(trace.delays, s), refine_starts=1, n_intensity_starts=3,
                      cache=cache).to_dict() for s in (trace.signal, signal)]
    assert fits[0]["converged"]
    assert json.dumps(fits[0], sort_keys=True) == json.dumps(fits[1], sort_keys=True)


@pytest.mark.parametrize("box", [(-1.0, 1.0), (-0.5, 1.5), (-5.0, 5.0)])
def test_a_window_covering_the_scan_is_rejected_before_any_evaluation(monkeypatch, box):
    problem, trace = _hazard_problem(box)
    monkeypatch.setattr(retrieval, "model_signal", lambda *args: pytest.fail("an evaluation ran"))
    with pytest.raises(ValueError, match=rf"no delay lies at least 2 tau_fwhm_ps = 0.2 ps from every pump "
                                         rf"time t_offset in \[{box[0]:g}, {box[1]:g}\] ps"):
        fit_trace(problem, trace)


def test_the_hazard_trace_converges_where_the_window_keeps_delays():
    # (-0.5, 0.5) keeps the delays from 0.7 ps; a window that moved with the
    # trial t_offset would make the objective jump, and the refinement would
    # creep toward the jump for over a thousand evaluations
    problem, trace = _hazard_problem((-0.5, 0.5))
    result = fit_trace(problem, trace, max_evaluations=300)
    assert result.converged and result.flags == ()


# ---------------------------------------------------------------------------
# scipy's trust-region reflective least squares as the oracle
# ---------------------------------------------------------------------------

def _trf_fit(problem, trace, max_evaluations=4000, refine_starts=3, n_intensity_starts=6,
             n_temperature_starts=4):
    """(residual, converged) of fit_trace's grid and objective refined by
    scipy's least_squares(method="trf"), with the same difference steps and
    evaluation budget and a step tolerance of one cache cell when
    intensity and temperature alone are free (trf bounds the whole step)."""
    cache = EnsembleCache(problem)
    free = problem.free_names
    lows, highs = (np.array([problem.bounds[n][k] for n in free]) for k in (0, 1))
    span, q, peak = highs - lows, problem.cache_quantum, np.max(np.abs(trace.signal))
    keyed = np.isin(free, ("intensity", "temperature"))
    steps = np.minimum(0.5, np.where(keyed, np.maximum(2, np.round(1e-3 * span / q)) * q / span, 1e-3))
    xtol = max(1e-8, float(np.min(q / span))) if keyed.all() else 1e-8
    count = [0]
    # fit_trace's window: the delays at least 2 tau from every allowed pump time
    pump = problem.bounds.get("t_offset", (problem.resolve({})["t_offset"],) * 2)
    mask = np.maximum(pump[0] - trace.delays, trace.delays - pump[1]) >= 2.0 * problem.tau_fwhm_ps

    def fun(x):
        count[0] += 1
        params = {**problem.resolve(dict(zip(free, lows + span * x))), "scale": 1.0}
        base = model_signal(params, problem, trace.delays, cache)
        scale = min(max(base[mask] @ trace.signal[mask] / (base[mask] @ base[mask]), problem.scale_bounds[0]),
                    problem.scale_bounds[1])
        return np.where(mask, scale * base - trace.signal, 0.0) / (peak * np.sqrt(mask.sum()))

    def jac(x):
        r0 = fun(x)
        ys = x + np.diag(np.where(x + steps <= 1.0, steps, -steps))
        return np.column_stack([(fun(y) - r0) / (y[k] - x[k]) for k, y in enumerate(ys)])

    grids = []
    for name, lo, hi in zip(free, lows, highs):
        if name == "intensity":
            pts = np.exp(np.linspace(np.log(lo), np.log(hi), n_intensity_starts))
        elif name == "temperature":
            pts = np.linspace(lo, hi, n_temperature_starts)
        else:
            pts = np.array([0.5 * (lo + hi)])
        grids.append(np.clip((pts - lo) / (hi - lo), 0.0, 1.0))
    starts = [np.array(x) for x in itertools.product(*grids)]
    scored = sorted((float(r @ r), k) for k, r in enumerate(map(fun, starts)))
    max_nfev = max(max_evaluations - count[0], 0) // refine_starts // (len(free) + 1)
    fits = [scipy.optimize.least_squares(fun, starts[k], jac, bounds=(0.0, 1.0), method="trf", xtol=xtol,
                                         max_nfev=max_nfev) for _, k in scored[:refine_starts]]
    best = min(fits, key=lambda res: float(res.fun @ res.fun))
    return float(best.fun @ best.fun), best.status > 0


# corpus A: truths drawn from numpy seed 7 (intensity U(6, 28) TW/cm^2,
# temperature U(25, 140) K, t_offset U(-0.1, 0.1) ps, Re b U(-0.005, 0.005),
# Im b U(0, 0.005)), one fit of each free set at 5% noise
@pytest.mark.parametrize("scheme, extra, draw", [
    ("perpendicular", {}, 0),
    ("perpendicular", {"t_offset": (-0.2, 0.2)}, 1),
    ("parallel", {"t_offset": (-0.2, 0.2), "background_re": (-0.01, 0.01), "background_im": (-0.01, 0.01)}, 2),
], ids=["I_T", "I_T_offset", "parallel_five"])
def test_fit_converges_where_trf_does_at_no_higher_residual(scheme, extra, draw):
    truths = np.random.default_rng(7).uniform([6.0, 25.0, -0.1, -0.005, 0.0], [28.0, 140.0, 0.1, 0.005, 0.005],
                                              size=(8, 5))
    truth = dict(zip(("intensity", "temperature", "t_offset", "background_re", "background_im"), truths[draw]))
    problem = FitProblem(CO2, scheme, cache_quantum=1e-3,
                         bounds={"intensity": (5.0, 30.0), "temperature": (20.0, 150.0), **extra})
    used = {k: v for k, v in truth.items() if k in ("intensity", "temperature") or k in extra}
    delays = np.arange(0.5, 0.5 + revival_period(CO2.b_cm1), 0.02)
    trace = synthesize_trace(problem, used, delays, noise_fraction=0.05, seed=draw)
    result = fit_trace(problem, trace)
    residual, converged = _trf_fit(problem, trace)
    assert result.converged or not converged
    # the objective is normalized by the data peak already
    assert result.residual <= residual + 1e-9
# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------

def test_fit_writers(tmp_path, fit_setup):
    problem, cache, trace, _ = fit_setup
    result = fit_trace(problem, trace, refine_starts=2, n_intensity_starts=4, cache=cache)
    # the fit subcommand's fit.json for the same problem and scan
    (tmp_path / "scan.csv").write_text("delay_ps,signal_au\n" + "".join(
        f"{t:.17g},{v:.17g}\n" for t, v in zip(trace.delays, trace.signal)))
    cfg = tmp_path / "fit_config.json"
    cfg.write_text(json.dumps({
        "molecule": "CO2", "scheme": "perpendicular", "trace_path": "scan.csv",
        "bounds": {"intensity": [5.0, 30.0]}, "fixed": {"temperature": 60.0},
        "cache_quantum": 1e-3, "refine_starts": 2, "n_intensity_starts": 4,
    }))
    assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    doc = json.loads((tmp_path / "out" / "fit.json").read_text())["fit"]
    assert doc["converged"] is True
    assert doc["params"]["intensity"] == pytest.approx(result.params["intensity"])
    assert doc["reported"]["scheme"] == "perpendicular"

    cpath = tmp_path / "fit.csv"
    write_fit_csv(result, problem, trace, str(cpath), cache=cache)
    lines = cpath.read_text().splitlines()
    assert lines[0] == "delay_ps,data_au,model_au,residual_au"
    assert len(lines) == 1 + len(trace.delays)
    cells = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
    assert np.allclose(cells[:, 1], trace.signal, rtol=1e-10)
    assert np.allclose(cells[:, 3], cells[:, 1] - cells[:, 2], atol=1e-15)
