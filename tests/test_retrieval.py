"""Trace loading and intensity/temperature retrieval from delay scans."""

import json

import numpy as np
import pytest

from rotorgrating import dynamics
from rotorgrating.cli import EXIT_OK, main
from rotorgrating.constants import revival_period
from rotorgrating.grating import GratingConfig, grating_signal
from rotorgrating.observables import FourierDecomposition
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
    signal = grating_signal(CO2, 60.0, config, delays - t_off, decomposition=dec)
    assert config.theoretical_intensity == intensity
    assert np.array_equal(signal.values, model)
    if scheme == "parallel":
        # a pump at t0_ps folds the delay into the phases instead
        shifted = FourierDecomposition(dec.constant, dec.js, dec.amplitudes,
                                       dec.phases - dec.omegas * t_off, dec.omegas)
        config = GratingConfig(scheme, single, t0_ps=t_off, plasma_background=background)
        signal = grating_signal(CO2, 60.0, config, delays, decomposition=shifted)
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


def test_budget_exhausted_flag(fit_setup):
    problem, cache, trace, _ = fit_setup
    wide = FitProblem(
        CO2, "perpendicular", bounds={"intensity": (5.0, 30.0), "temperature": (20.0, 200.0)},
        cache_quantum=0.5,
    )
    result = fit_trace(
        wide, trace, max_evaluations=60, refine_starts=1,
        n_intensity_starts=2, n_temperature_starts=2,
    )
    if not result.converged:
        assert "budget_exhausted" in result.flags
    else:  # a lucky start can still converge inside the floor budget
        assert "budget_exhausted" not in result.flags


def test_process_caches_stay_bounded_after_a_fit(fit_setup):
    _, _, trace, _ = fit_setup
    wide = FitProblem(
        CO2, "perpendicular", bounds={"intensity": (5.0, 30.0), "temperature": (20.0, 200.0)},
        cache_quantum=0.5,
    )
    dynamics.clear_caches()
    fit_trace(wide, trace, max_evaluations=60, refine_starts=1,
              n_intensity_starts=2, n_temperature_starts=2)
    for cache in (dynamics.chain_operator, dynamics._chain_eig):
        info = cache.cache_info()
        assert info.maxsize == dynamics.CHAIN_CACHE_SIZE == 1024
        assert 0 < info.currsize <= info.maxsize


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
