"""Command-line entry points: exit codes, output files, reproducibility."""

import json
import math
import os
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from rotorgrating import dynamics, observables, rotor
from rotorgrating.cli import (
    EXIT_CONFIG,
    EXIT_NO_CONVERGENCE,
    EXIT_NUMERICAL,
    EXIT_OK,
    _stamp,
    main,
)
from rotorgrating.retrieval import FitProblem, synthesize_trace
from rotorgrating.field import PulseSpec
from rotorgrating.grating import GratingConfig, grating_signal, write_signal_csv
from rotorgrating.observables import (
    fourier_decompose,
    reconstruct,
    revival_time_grid,
    thermal_channel_set,
)
from rotorgrating.rotor import CO2


def _cfg(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _read_csv_values(path):
    rows = [
        line.split(",") for line in path.read_text().splitlines()
        if line and not line.startswith("#") and not line[0].isalpha()
    ]
    return np.array(rows, dtype=float)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def test_geometry_stdout_defaults(capsys):
    assert main(["geometry"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    geo = doc["geometry"]
    assert geo["fringe_period_um"] == pytest.approx(45.84, abs=0.01)
    assert geo["plasma_period_um"] == pytest.approx(geo["fringe_period_um"], rel=1e-12)
    assert doc["config"]["scheme"] == "parallel"
    assert "version" in doc


def test_geometry_perpendicular_out_dir(tmp_path, capsys):
    cfg = _cfg(tmp_path, {"scheme": "perpendicular", "crossing_angle_deg": 1.0})
    out = tmp_path / "geo"
    assert main(["geometry", "--config", cfg, "--out", str(out)]) == EXIT_OK
    doc = json.loads((out / "geometry.json").read_text())
    geo = doc["geometry"]
    ratio = geo["plasma_order1_angle_deg"] / geo["alignment_order1_angle_deg"]
    assert ratio == pytest.approx(2.0, abs=0.01)


def test_geometry_rejects_nonpositive_wavelength(tmp_path, capsys):
    cfg = _cfg(tmp_path, {"wavelength_nm": 0})
    out = tmp_path / "geo"
    assert main(["geometry", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "wavelength must be positive, got 0.0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("geometry", [{"crossing_angle_deg": 1e-320},
                                      {"crossing_angle_deg": 1e-300, "wavelength_nm": 1e10}])
def test_geometry_rejects_an_overflowing_fringe_period(tmp_path, capsys, geometry):
    # the fringe period overflows to inf, and the order-1 angle to 0
    cfg = _cfg(tmp_path, geometry)
    out = tmp_path / "geo"
    assert main(["geometry", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "alignment_order1_angle_deg must be positive" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

SIM_BASE = {
    "molecule": "CO2",
    "temperature_K": 30.0,
    "scheme": "perpendicular",
    "single_pump_intensity_tw_cm2": 3.0,
    "time_grid": {"n": 64},
}


def test_simulate_zero_intensity_writes_flat_files(tmp_path, capsys):
    cfg = _cfg(tmp_path, {**SIM_BASE, "single_pump_intensity_tw_cm2": 0.0})
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    trace = _read_csv_values(out / "alignment_trace.csv")
    signal = _read_csv_values(out / "signal.csv")
    assert len(trace) == 64 and len(signal) == 64
    assert np.all(trace[:, 1] == 0.0)
    assert np.all(signal[:, 1] == 0.0)
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["xi"] == 0.0


def test_simulate_unknown_molecule_leaves_no_output(tmp_path, capsys):
    cfg = _cfg(tmp_path, {**SIM_BASE, "molecule": "unobtainium"})
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "unobtainium" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"molecule": "CO2",,}')
    out = tmp_path / "run"
    rc = main(["simulate", "--config", str(path), "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert "invalid JSON" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_requires_one_intensity_key(tmp_path, capsys):
    doc = {**SIM_BASE, "theoretical_intensity_tw_cm2": 5.0}
    cfg = _cfg(tmp_path, doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    doc.pop("single_pump_intensity_tw_cm2")
    doc.pop("theoretical_intensity_tw_cm2")
    cfg = _cfg(tmp_path, doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == EXIT_CONFIG


def test_simulate_intensity_mapping_metadata(tmp_path, capsys):
    doc = dict(SIM_BASE)
    doc.pop("single_pump_intensity_tw_cm2")
    doc["theoretical_intensity_tw_cm2"] = 5.0
    cfg = _cfg(tmp_path, doc)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    meta = json.loads((out / "metadata.json").read_text())
    mapping = meta["intensity_mapping"]
    # perpendicular with the transverse factor on: I0 = I_theory / 0.5
    assert mapping["single_pump_peak_intensity_tw_cm2"] == pytest.approx(10.0)
    assert mapping["theoretical_intensity_tw_cm2"] == pytest.approx(5.0)
    assert meta["config"]["apply_transverse_factor"] is True


def test_simulate_reruns_are_byte_identical(tmp_path, capsys):
    cfg = _cfg(tmp_path, SIM_BASE)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == EXIT_OK
    assert main(["simulate", "--config", cfg, "--out", str(b)]) == EXIT_OK
    for name in ("alignment_trace.csv", "signal.csv", "metadata.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_simulate_rejects_non_finite_numbers(tmp_path, capsys, value):
    cfg = _cfg(tmp_path, {**SIM_BASE, "temperature_K": value})  # JSON Infinity / NaN
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "'temperature_K' must be a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_temperature_beyond_channel_budget(tmp_path, capsys):
    cfg = _cfg(tmp_path, {"molecule": "CO2", "temperature_K": 1e9, "scheme": "parallel",
                          "theoretical_intensity_tw_cm2": 10.0})
    start = time.perf_counter()
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert time.perf_counter() - start < 1.0
    assert "thermal channels" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_simulate_rejects_kick_beyond_working_set_budget(tmp_path, monkeypatch, capsys):
    # this kick's chain eigenvectors, amplitudes and gather index are
    # estimated at 48.5 MB; a budget just below that keeps the input small
    monkeypatch.setattr(dynamics, "MAX_WORKING_SET_BYTES", 48e6)
    cfg = _cfg(tmp_path, {"molecule": "CO2", "temperature_K": 30.0, "scheme": "parallel",
                          "theoretical_intensity_tw_cm2": 500.0, "time_grid": {"n": 64}})
    out = tmp_path / "run"
    start = time.perf_counter()
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert time.perf_counter() - start < 1.0
    assert "needs about 0.0485 GB of working memory" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid, message", [
    ({"n": 10**11}, "a time grid of 100000000000 samples needs about 8e+03 GB"),
    ({"n": 64, "periods": 1e308}, "time grid [0.5, inf] ps leaves the delays within +-1e+09 ps"),
    ({"n": 64, "t_start_ps": -2e9}, "time grid [-2e+09, -2e+09] ps leaves the delays"),
])
def test_simulate_rejects_grid_before_allocating_it(tmp_path, capsys, grid, message):
    cfg = _cfg(tmp_path, {**SIM_BASE, "time_grid": grid})
    out = tmp_path / "run"
    tracemalloc.start()
    try:
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert tracemalloc.get_traced_memory()[1] < 10e6
    finally:
        tracemalloc.stop()
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_degenerate_time_grid(tmp_path, capsys):
    # a step far below the spacing of float64 near t_start would write 64
    # rows at one delay
    cfg = _cfg(tmp_path, {**SIM_BASE, "time_grid": {"n": 64, "periods": 1e-300}})
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "time grid of 64 samples over [0.5, 0.5] ps is not increasing" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def no_propagation(monkeypatch):
    """Fail any TDSE the test starts: the chains and the lattice share one stepper."""
    def propagate(*args, **kwargs):
        raise AssertionError("a propagation started")

    monkeypatch.setattr(dynamics, "_chain_steps", propagate)


@pytest.mark.parametrize("probe", [0.0, -0.1])
def test_simulate_rejects_probe_fwhm_before_propagating(tmp_path, no_propagation, capsys, probe):
    cfg = _cfg(tmp_path, {**SIM_BASE, "method": "tdse", "probe_tau_fwhm_ps": probe})
    out = tmp_path / "run"
    start = time.perf_counter()
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert time.perf_counter() - start < 1.0
    assert f"probe FWHM must be positive, got {probe}" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_checks_the_probe_grid_before_propagating(tmp_path, no_propagation, capsys):
    # float64 quantizes a grid starting at 1e8 ps unevenly, which the probe
    # convolution cannot smear
    cfg = _cfg(tmp_path, {**SIM_BASE, "temperature_K": 293.0, "method": "tdse",
                          "probe_tau_fwhm_ps": 0.1, "time_grid": {"t_start_ps": 1e8}})
    out = tmp_path / "run"
    start = time.perf_counter()
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert time.perf_counter() - start < 1.0
    assert "probe convolution needs a uniform, increasing delay grid" in capsys.readouterr().err
    assert not out.exists()


FOURIER_ELLIPTIC = {"molecule": "CO2", "temperature_K": 10.0, "intensity_tw_cm2": 1.0,
                    "method": "tdse", "polarization": [0.8, 0.6], "time_grid": {"n": 64}}


@pytest.mark.parametrize("pump, message", [
    ({"t0_ps": 1e300}, "pump arrival time 1e+300 ps lies outside +-1e+09 ps"),
    ({"t0_ps": -2e9}, "pump arrival time -2e+09 ps lies outside +-1e+09 ps"),
    # 3 FWHM = 3e-8 ps is below half the float64 spacing at 1e9 ps
    ({"t0_ps": 1e9, "tau_fwhm_ps": 1e-8},
     "pulse FWHM 1e-08 ps vanishes next to its arrival time 1e+09 ps"),
], ids=["far", "far_negative", "collapsed_window"])
@pytest.mark.parametrize("subcommand, run", [
    ("simulate", {**SIM_BASE, "method": "tdse"}),
    ("fourier", FOURIER_ELLIPTIC),
], ids=["simulate_tdse", "fourier_elliptic"])
def test_pump_arrival_time_is_bounded(tmp_path, no_propagation, capsys, subcommand, run, pump,
                                      message):
    cfg = _cfg(tmp_path, {**run, **pump})
    out = tmp_path / "run"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_parallel_background_and_probe(tmp_path, capsys):
    base = {**SIM_BASE, "scheme": "parallel", "t0_ps": 0.3, "time_grid": {"n": 256}}
    runs = {
        "number": {"plasma_background": 0.01},
        "pair": {"plasma_background": {"re": 0.01}},
        "complex": {"plasma_background": {"re": 0.01, "im": -0.02}},
        "probed": {"plasma_background": {"re": 0.01, "im": -0.02}, "probe_tau_fwhm_ps": 0.2},
    }
    for name, extra in runs.items():
        cfg = _cfg(tmp_path, {**base, **extra}, name=f"{name}.json")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / name)]) == EXIT_OK
    # a number is the background {re: number, im: 0}
    for f in ("alignment_trace.csv", "signal.csv", "metadata.json"):
        assert (tmp_path / "number" / f).read_bytes() == (tmp_path / "pair" / f).read_bytes()
    meta = json.loads((tmp_path / "probed" / "metadata.json").read_text())["config"]
    assert meta["plasma_background"] == [0.01, -0.02]
    assert meta["probe_tau_fwhm_ps"] == 0.2
    # the background is on from the pump at t0 onward
    trace = _read_csv_values(tmp_path / "complex" / "alignment_trace.csv")
    on = trace[:, 0] >= 0.3
    want = np.where(on, np.abs(trace[:, 1] + complex(0.01, -0.02)) ** 2, trace[:, 1] ** 2)
    sharp, smooth = (_read_csv_values(tmp_path / name / "signal.csv")[:, 1]
                     for name in ("complex", "probed"))
    assert np.allclose(sharp, want, rtol=1e-11, atol=0.0)
    # the normalized periodic probe kernel smooths the signal, keeping its sum
    assert np.ptp(smooth) < np.ptp(sharp)
    assert smooth.sum() == pytest.approx(sharp.sum(), rel=1e-11)


@pytest.mark.parametrize("background, message", [
    (math.inf, "'plasma_background' must be a finite number, got inf"),
    (math.nan, "'plasma_background' must be a finite number, got nan"),
    ({"re": 1e308, "im": 1e308}, "signal must be finite, got 64 non-finite values"),
], ids=["inf", "nan", "overflow"])
def test_simulate_rejects_a_nonfinite_background_or_signal(tmp_path, capsys, background, message):
    # a bare number is checked as the {re, im} parts are; a finite background
    # whose heterodyne overflows is caught before any file is written
    cfg = _cfg(tmp_path, {**SIM_BASE, "scheme": "parallel", "plasma_background": background})
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_tdse_propagates_once(tmp_path, monkeypatch, capsys):
    calls = []
    propagate = observables.tdse_ensemble

    def counted(*args, **kwargs):
        calls.append(args)
        return propagate(*args, **kwargs)

    monkeypatch.setattr(observables, "tdse_ensemble", counted)
    cfg = _cfg(tmp_path, {**SIM_BASE, "method": "tdse"})
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert len(calls) == 1

    # the signal equals the grating model's on a propagation of its own
    resolved = json.loads((out / "metadata.json").read_text())["config"]
    grating = GratingConfig("perpendicular", resolved["single_pump_intensity_tw_cm2"])
    grid = resolved["time_grid"]
    times = revival_time_grid(CO2, grid["n"], grid["t_start_ps"], grid["periods"])
    cs = thermal_channel_set(CO2, 30.0, PulseSpec(grating.theoretical_intensity),
                             method="tdse")
    signal = grating_signal(reconstruct(fourier_decompose(cs, "y"), times), grating)
    assert len(calls) == 2
    write_signal_csv(signal, str(tmp_path / "signal.csv"), header_metadata=_stamp(resolved))
    assert (out / "signal.csv").read_bytes() == (tmp_path / "signal.csv").read_bytes()


def test_simulate_time_grid_flag_overrides_config(tmp_path, capsys):
    cfg = _cfg(tmp_path, SIM_BASE)
    out = tmp_path / "run"
    rc = main(["simulate", "--config", cfg, "--out", str(out), "--time-grid", "32"])
    assert rc == EXIT_OK
    assert len(_read_csv_values(out / "alignment_trace.csv")) == 32
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["config"]["time_grid"]["n"] == 32


@pytest.mark.parametrize("flag", ["--time-grid", "--threads"])
@pytest.mark.parametrize("subcommand", ["geometry", "validate", "fit"])
def test_flags_only_where_read(subcommand, flag, capsys):
    # --time-grid belongs to the subcommands that sample a time grid
    # (simulate, fourier); no subcommand takes --threads
    with pytest.raises(SystemExit) as exc:
        main([subcommand, flag, "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fourier
# ---------------------------------------------------------------------------

def test_fourier_reports_exact_reconstruction(tmp_path, capsys):
    cfg = _cfg(tmp_path, {
        "molecule": "CO2", "temperature_K": 30.0, "intensity_tw_cm2": 2.0,
        "time_grid": {"n": 128},
    })
    out = tmp_path / "four"
    assert main(["fourier", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "reconstruction_report.json").read_text())
    assert report["passed"] is True
    assert report["max_abs_reconstruction_error"] < 1e-10
    dec = json.loads((out / "decomposition.json").read_text())
    comps = dec["decomposition"]["components"]
    assert comps
    assert all(c["J"] % 2 == 0 for c in comps)


def test_fourier_elliptic_zero_intensity(tmp_path, capsys):
    # the lattice solve of an unkicked ensemble returns its initial state
    cfg = _cfg(tmp_path, {**FOURIER_ELLIPTIC, "intensity_tw_cm2": 0.0})
    out = tmp_path / "four"
    assert main(["fourier", "--config", cfg, "--out", str(out)]) == EXIT_OK
    dec = json.loads((out / "decomposition.json").read_text())
    assert dec["xi"] == 0.0
    assert dec["decomposition"]["components"] == [] and dec["decomposition"]["C"] == 0.0
    report = json.loads((out / "reconstruction_report.json").read_text())
    assert report["passed"] is True


@pytest.mark.parametrize("run, axis", [
    ({"molecule": "CO2", "temperature_K": 10.0, "intensity_tw_cm2": 1.0}, "parallel"),
    ({"molecule": "CO2", "temperature_K": 10.0, "intensity_tw_cm2": 1.0}, "w"),
    ({**FOURIER_ELLIPTIC, "intensity_tw_cm2": 0.0}, "perpendicular"),
], ids=["chain_alias", "chain", "lattice"])
def test_fourier_rejects_an_unknown_axis(tmp_path, capsys, run, axis):
    cfg = _cfg(tmp_path, {**run, "axis": axis, "time_grid": {"n": 64}})
    out = tmp_path / "four"
    assert main(["fourier", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"axis must be x, y, or z, got {axis!r}" in capsys.readouterr().err
    assert not out.exists()


def test_fourier_checks_the_axis_before_propagating(tmp_path, no_propagation, capsys):
    cfg = _cfg(tmp_path, {"molecule": "CO2", "temperature_K": 293.0, "intensity_tw_cm2": 30.0,
                          "method": "tdse", "axis": "w"})
    out = tmp_path / "four"
    assert main(["fourier", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "'axis'" in capsys.readouterr().err
    assert not out.exists()


def test_fourier_basis_too_small_exits_3(tmp_path, capsys):
    # j_max = 1 leaves the 0 K ground state's kick no room above J = 0
    cfg = _cfg(tmp_path, {"molecule": "CO2", "temperature_K": 0.0, "intensity_tw_cm2": 1.0,
                          "j_max": 1})
    out = tmp_path / "four"
    assert main(["fourier", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert not out.exists()


def test_fourier_elliptic_needs_tdse(tmp_path, capsys):
    cfg = _cfg(tmp_path, {
        "molecule": "CO2", "temperature_K": 10.0, "intensity_tw_cm2": 1.0,
        "polarization": [0.8164965809277261, 0.5773502691896257],
    })
    rc = main(["fourier", "--config", cfg, "--out", str(tmp_path / "x")])
    assert rc == EXIT_CONFIG
    assert "tdse" in capsys.readouterr().err


@pytest.mark.parametrize("pol, key", [
    ([None, 1], "polarization[0]"),
    ([True, 1], "polarization[0]"),
    (["a", 1], "polarization[0]"),
    ([1, None], "polarization[1]"),
])
def test_fourier_rejects_bad_polarization_naming_the_key(tmp_path, capsys, pol, key):
    cfg = _cfg(tmp_path, {
        "molecule": "CO2", "temperature_K": 10.0, "intensity_tw_cm2": 1.0,
        "method": "tdse", "polarization": pol,
    })
    out = tmp_path / "x"
    assert main(["fourier", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_elliptic_fourier_names_pump_errors_as_a_linear_run(tmp_path, capsys):
    # only the polarization's own errors name it; a bad arrival time reads as it does for a linear pump
    cfg = _cfg(tmp_path, {"molecule": "CO2", "temperature_K": 10.0, "intensity_tw_cm2": 1.0,
                          "method": "tdse", "polarization": [0.8, 0.6], "t0_ps": 1e300})
    out = tmp_path / "x"
    assert main(["fourier", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "pump arrival time 1e+300 ps lies outside" in err
    assert "'polarization':" not in err
    assert not out.exists()


@pytest.mark.parametrize("intensity", [1e12, 1e300, 1.7e308])
def test_fourier_rejects_kicks_too_large_to_size(tmp_path, capsys, intensity):
    # the basis these need cannot be sized, let alone allocated
    cfg = _cfg(tmp_path, {"molecule": "CO2", "temperature_K": 30.0, "intensity_tw_cm2": intensity})
    out = tmp_path / "x"
    start = time.perf_counter()
    assert main(["fourier", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("pump", [{"intensity_tw_cm2": 1e12}, {"intensity_tw_cm2": 1e300},
                                  {"intensity_tw_cm2": 5.0, "tau_fwhm_ps": 1e7}])
def test_fourier_rejects_tdse_too_large_to_size(tmp_path, capsys, pump):
    # the stepper's kick count enters the estimate before any of its arrays exist
    cfg = _cfg(tmp_path, {"molecule": "CO2", "temperature_K": 0.0, "method": "tdse", **pump})
    out = tmp_path / "x"
    start = time.perf_counter()
    assert main(["fourier", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_fourier_elliptic_beyond_working_set_budget(tmp_path, no_propagation, capsys):
    # 293 K at 60 TW/cm^2 needs j_max 201: the two groups' results plus the
    # larger + sector's stepper arrays come to ~3.1 GB
    cfg = _cfg(tmp_path, {
        "molecule": "CO2", "temperature_K": 293.0, "intensity_tw_cm2": 60.0, "method": "tdse",
        "polarization": [0.8164965809277261, 0.5773502691896257],
    })
    out = tmp_path / "x"
    start = time.perf_counter()
    assert main(["fourier", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert time.perf_counter() - start < 1.0
    assert "propagation at j_max=201 needs about 3.12 GB of working memory" in capsys.readouterr().err
    assert not out.exists()


def test_fourier_rejects_direct_trace_beyond_working_set_budget(tmp_path, monkeypatch, capsys):
    # 21 Raman lines x 4096 delays peak at 2.75 MB in the direct trace
    monkeypatch.setattr(dynamics, "MAX_WORKING_SET_BYTES", 1e6)
    cfg = _cfg(tmp_path, {"molecule": "CO2", "temperature_K": 30.0, "intensity_tw_cm2": 3.0})
    out = tmp_path / "x"
    assert main(["fourier", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "a direct trace of 21 lines x 4096 times needs about 0.00275 GB" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_every_suite_passes(tmp_path, capsys):
    rotor._wigner_3j.cache_clear()
    out = tmp_path / "val"
    assert main(["validate", "--out", str(out)]) == EXIT_OK
    assert "validate: 13/13 checks passed" in capsys.readouterr().out
    doc = json.loads((out / "validation.json").read_text())
    assert doc["passed"] is True
    assert [c["suite"] for c in doc["checks"]] == (
        ["operators"] * 3 + ["sudden_vs_tdse"] * 2 + ["elliptic"] * 2 + ["regimes"] * 3
        + ["hygiene"] * 3
    )
    # the lattice operators are closed forms: validate evaluates no Wigner symbol
    assert rotor._wigner_3j.cache_info().currsize == 0

def test_validate_operator_suite(tmp_path, capsys):
    cfg = _cfg(tmp_path, {"suites": ["operators"]})
    assert main(["validate", "--config", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[PASS] operators/" in out
    assert "[FAIL]" not in out
    assert "checks passed" in out


def test_validate_reports_norm_leak_on_tiny_basis(tmp_path, capsys):
    cfg = _cfg(tmp_path, {"suites": ["hygiene"], "j_max": 8})
    out = tmp_path / "val"
    rc = main(["validate", "--config", cfg, "--out", str(out)])
    assert rc == EXIT_NUMERICAL
    printed = capsys.readouterr().out
    assert "[FAIL]" in printed
    doc = json.loads((out / "validation.json").read_text())
    assert doc["passed"] is False


def _strict_json(path):
    """The JSON document at path, refusing the NaN and Infinity that strict parsers reject."""
    def refuse(name):
        raise AssertionError(f"non-standard JSON constant {name}")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_validate_reports_a_failed_propagation(tmp_path, capsys):
    # the 30 K ensemble starts above J = 8, so neither propagation can run
    cfg = _cfg(tmp_path, {"j_max": 8, "suites": ["sudden_vs_tdse"]})
    out = tmp_path / "val"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
    (row,) = _strict_json(out / "validation.json")["checks"]
    assert (row["suite"], row["name"], row["passed"], row["measured"]) == (
        "sudden_vs_tdse", "propagation", False, None)
    assert "exceeds j_max=8" in row["detail"]


def test_validate_writes_strict_json_when_the_edge_guard_fires(tmp_path, capsys):
    # at j_max 90 the 293 K, 20 TW/cm^2 kick populates the basis edge: the
    # guard's row has no measured value and says so with null
    cfg = _cfg(tmp_path, {"j_max": 90, "suites": ["hygiene"]})
    out = tmp_path / "val"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
    assert "[FAIL] hygiene/norm_leak_guard: measured n/a" in capsys.readouterr().out
    (row,) = _strict_json(out / "validation.json")["checks"]
    assert (row["name"], row["passed"], row["measured"]) == ("norm_leak_guard", False, None)
    assert "enlarge j_max" in row["detail"]


def test_validate_unknown_suite_name(tmp_path, capsys):
    # entries that are not names, unhashable ones included, are unknown too
    for entry in ("conjuring", ["operators"], {"name": "operators"}, 1):
        cfg = _cfg(tmp_path, {"suites": [entry]})
        assert main(["validate", "--config", cfg]) == EXIT_CONFIG
        assert "unknown validation suites" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_missing_trace_file(tmp_path, capsys):
    cfg = _cfg(tmp_path, {
        "molecule": "CO2",
        "scheme": "perpendicular",
        "trace_path": "no_such_scan.csv",
        "bounds": {"intensity": [5.0, 30.0]},
        "fixed": {"temperature": 60.0},
    })
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert "no_such_scan" in capsys.readouterr().err


@pytest.mark.parametrize("override, key", [
    ({"scale_bounds": [1]}, "scale_bounds"),
    ({"scale_bounds": [0, None]}, "scale_bounds[1]"),
    ({"scale_bounds": [True, 5]}, "scale_bounds[0]"),
    ({"fixed": {"temperature": None}}, "fixed.temperature"),
    ({"fixed": {"temperature": True}}, "fixed.temperature"),
    ({"fixed": {"temperature": "60"}}, "fixed.temperature"),
    ({"bounds": {"intensity": [5, None]}}, "bounds.intensity[1]"),
    ({"bounds": {"intensity": [True, 30]}}, "bounds.intensity[0]"),
    ({"bounds": {"intensity": 5}}, "bounds.intensity"),
])
def test_fit_rejects_bad_numbers_naming_the_key(tmp_path, capsys, override, key):
    scan = tmp_path / "scan.csv"
    scan.write_text("delay_ps,signal_au\n" + "".join(f"{k * 0.1},1.0\n" for k in range(60)))
    cfg = _cfg(tmp_path, {
        "molecule": "CO2",
        "scheme": "perpendicular",
        "trace_path": "scan.csv",
        "bounds": {"intensity": [5.0, 30.0]},
        "fixed": {"temperature": 60.0},
        **override,
    })
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("setting, message", [
    ({"tau_fwhm_ps": 0}, "pulse FWHM must be positive, got 0.0"),
    ({"tau_fwhm_ps": -0.1}, "pulse FWHM must be positive, got -0.1"),
    ({"cache_quantum": 0}, "cache_quantum must be positive, got 0.0"),
    # every trial would land on the (0, 0) cell
    ({"cache_quantum": 1e300}, "cache_quantum 1e+300 puts the 'intensity' bounds in one cache cell"),
    # a subnormal quantum overflows every bound's cache key
    ({"cache_quantum": 1e-320}, "cache_quantum 1e-320 is too small: the 'intensity' values (5.0, 30.0) "
                                "overflow their cache keys"),
], ids=["tau_zero", "tau_negative", "quantum_zero", "quantum_one_cell", "quantum_subnormal"])
def test_fit_problem_rejects_pump_and_cache_settings(tmp_path, capsys, setting, message):
    scan = tmp_path / "scan.csv"
    scan.write_text("delay_ps,signal_au\n" + "".join(f"{k * 0.1},1.0\n" for k in range(60)))
    cfg = _cfg(tmp_path, {
        "molecule": "CO2", "scheme": "perpendicular", "trace_path": "scan.csv",
        "bounds": {"intensity": [5.0, 30.0]}, "fixed": {"temperature": 60.0}, **setting,
    })
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fit", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_fit_out_of_budget_exits_4_and_writes_its_best(tmp_path, capsys):
    # five free parameters and a floor budget of 250 evaluations for one
    # Nelder-Mead run: the simplex cannot settle on a noisy trace
    problem = FitProblem(CO2, "parallel", bounds={"intensity": (5.0, 30.0)},
                         fixed={"temperature": 60.0})
    truth = {"intensity": 15.0, "temperature": 60.0, "t_offset": 0.05,
             "background_re": 0.002, "background_im": -0.001}
    trace = synthesize_trace(problem, truth, np.arange(0.5, 40.0, 0.05), noise_fraction=0.05, seed=7)
    (tmp_path / "scan.csv").write_text(
        "delay_ps,signal_au\n" + "".join(f"{t:.17g},{v:.17g}\n" for t, v in zip(trace.delays, trace.signal)))
    cfg = _cfg(tmp_path, {
        "molecule": "CO2", "scheme": "parallel", "trace_path": "scan.csv",
        "bounds": {"intensity": [5.0, 30.0], "temperature": [20.0, 150.0], "t_offset": [-0.2, 0.2],
                   "background_re": [-0.01, 0.01], "background_im": [-0.01, 0.01]},
        "cache_quantum": 1e-3, "max_evaluations": 1, "refine_starts": 1,
        "n_intensity_starts": 2, "n_temperature_starts": 2,
    })
    out = tmp_path / "fit"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == EXIT_NO_CONVERGENCE
    assert "did not converge" in capsys.readouterr().out
    fit = json.loads((out / "fit.json").read_text())["fit"]
    assert fit["converged"] is False and fit["flags"] == ["budget_exhausted"]
    assert len((out / "fit_curve.csv").read_text().splitlines()) == 1 + len(trace.delays)


def test_fit_rejects_a_trace_inside_the_pulse_overlap(tmp_path, capsys):
    # every sample lies within 2 tau of the pump, so no objective is finite
    scan = tmp_path / "scan.csv"
    scan.write_text("delay_ps,signal_au\n" + "".join(f"{k * 0.15 / 59},{1.0 + k}\n" for k in range(60)))
    cfg = _cfg(tmp_path, {
        "molecule": "CO2", "scheme": "perpendicular", "trace_path": "scan.csv",
        "bounds": {"intensity": [5.0, 30.0]}, "fixed": {"temperature": 60.0},
    })
    out = tmp_path / "x"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "no fit start has a finite objective" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scheme, sim_extra, free, fixed, truth", [
    # the pump arrives at 0.2 ps: the fit starts t_offset mid-range
    ("perpendicular", {"t0_ps": 0.2}, {"t_offset": [0.0, 0.4]}, {},
     {"intensity": 15.0, "t_offset": 0.2}),
    # a plasma background of 0.002 heterodynes the parallel signal
    ("parallel", {"plasma_background": 0.002}, {"background_re": [-0.01, 0.01]},
     {"background_im": 0.0}, {"intensity": 15.0, "background_re": 0.002}),
], ids=["t_offset", "background_re"])
def test_fit_frees_offset_and_background(tmp_path, capsys, scheme, sim_extra, free, fixed, truth):
    sim_cfg = _cfg(tmp_path, {
        "molecule": "CO2", "temperature_K": 60.0, "scheme": scheme,
        "theoretical_intensity_tw_cm2": 15.0, "time_grid": {"n": 1024, "t_start_ps": 0.0},
        **sim_extra,
    }, name="sim.json")
    assert main(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "sim")]) == EXIT_OK
    fit_cfg = _cfg(tmp_path, {
        "molecule": "CO2", "scheme": scheme, "trace_path": os.path.join("sim", "signal.csv"),
        "bounds": {"intensity": [5.0, 30.0], **free}, "fixed": {"temperature": 60.0, **fixed},
        "cache_quantum": 1e-3, "max_evaluations": 400, "refine_starts": 1, "n_intensity_starts": 3,
    }, name="fit.json")
    assert main(["fit", "--config", fit_cfg, "--out", str(tmp_path / "fit")]) == EXIT_OK
    params = json.loads((tmp_path / "fit" / "fit.json").read_text())["fit"]["params"]
    for name, value in truth.items():
        assert params[name] == pytest.approx(value, rel=1e-3), name


def test_fit_round_trip_from_simulated_signal(tmp_path, capsys):
    sim_cfg = _cfg(tmp_path, {
        "molecule": "CO2",
        "temperature_K": 60.0,
        "scheme": "perpendicular",
        "single_pump_intensity_tw_cm2": 36.0,  # theoretical 18 after mapping
        "time_grid": {"n": 2048},
    }, name="sim.json")
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", sim_cfg, "--out", str(sim_out)]) == EXIT_OK

    fit_cfg = _cfg(tmp_path, {
        "molecule": "CO2",
        "scheme": "perpendicular",
        "trace_path": os.path.join("sim", "signal.csv"),
        "bounds": {"intensity": [5.0, 30.0]},
        "fixed": {"temperature": 60.0},
        "cache_quantum": 1e-3,
        "max_evaluations": 1500,
        "refine_starts": 2,
        "n_intensity_starts": 4,
    }, name="fit.json")
    fit_out = tmp_path / "fit"
    assert main(["fit", "--config", fit_cfg, "--out", str(fit_out)]) == EXIT_OK
    doc = json.loads((fit_out / "fit.json").read_text())
    fit = doc["fit"]
    assert fit["converged"] is True
    assert fit["params"]["intensity"] == pytest.approx(18.0, rel=0.01)
    # the report echoes the experiment-facing convention
    assert fit["reported"]["single_pump_intensity_TWcm2"] == pytest.approx(
        2.0 * fit["params"]["intensity"], rel=1e-9
    )
    curve = (fit_out / "fit_curve.csv").read_text().splitlines()
    assert curve[0] == "delay_ps,data_au,model_au,residual_au"
    assert len(curve) == 1 + 2048


def test_fit_echoes_every_setting(tmp_path, capsys):
    problem = FitProblem(CO2, "perpendicular", bounds={"intensity": (5.0, 30.0)},
                         fixed={"temperature": 60.0})
    delays = np.arange(0.5, 40.0, 0.05)
    trace = synthesize_trace(problem, {"intensity": 12.0, "temperature": 60.0}, delays)
    scan = tmp_path / "scan.csv"
    scan.write_text("delay_ps,signal_au\n"
                    + "".join(f"{t:.17g},{v:.17g}\n" for t, v in zip(trace.delays, trace.signal)))
    settings = {
        "scale_bounds": [0.5, 4.0],
        "boltzmann_cutoff": 1e-5,
        "cache_quantum": 1e-3,
        "max_evaluations": 120,
        "refine_starts": 1,
        "n_intensity_starts": 2,
        "n_temperature_starts": 3,
    }
    cfg = _cfg(tmp_path, {
        "molecule": "CO2",
        "scheme": "perpendicular",
        "trace_path": "scan.csv",
        "bounds": {"intensity": [5.0, 30.0]},
        "fixed": {"temperature": 60.0},
        **settings,
    })
    out = tmp_path / "fit"
    assert main(["fit", "--config", cfg, "--out", str(out)]) in (EXIT_OK, EXIT_NO_CONVERGENCE)
    echoed = json.loads((out / "fit.json").read_text())["config"]
    assert {key: echoed[key] for key in settings} == settings


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "rotorgrating" in capsys.readouterr().out


N2 = {"name": "N2", "B_cm1": 1.98958, "delta_alpha_A3": 0.93, "g_even": 2.0, "g_odd": 1.0}


def test_molecule_inline_and_by_path(tmp_path, capsys):
    (tmp_path / "n2.json").write_text(json.dumps(N2))
    grid = {"temperature_K": 10.0, "intensity_tw_cm2": 0.5, "time_grid": {"n": 32}}
    for name, molecule in (("inline", N2), ("path", {"path": str(tmp_path / "n2.json")})):
        cfg = _cfg(tmp_path, {"molecule": molecule, **grid}, name=f"{name}.json")
        assert main(["fourier", "--config", cfg, "--out", str(tmp_path / name)]) == EXIT_OK
    for f in ("decomposition.json", "reconstruction_report.json"):
        assert (tmp_path / "inline" / f).read_bytes() == (tmp_path / "path" / f).read_bytes()
    doc = json.loads((tmp_path / "inline" / "decomposition.json").read_text())
    assert doc["config"]["molecule"] == "N2"


def test_molecule_library_env_var(tmp_path, monkeypatch, capsys):
    lib = tmp_path / "library"
    lib.mkdir()
    (lib / "n2.json").write_text(json.dumps({
        "name": "N2", "B_cm1": 1.98958, "delta_alpha_A3": 0.93,
        "g_even": 2.0, "g_odd": 1.0,
    }))
    monkeypatch.setenv("ROTORGRATING_MOLECULE_PATH", str(lib))
    cfg = _cfg(tmp_path, {
        "molecule": "N2", "temperature_K": 10.0, "intensity_tw_cm2": 0.5,
        "time_grid": {"n": 32},
    })
    out = tmp_path / "four"
    assert main(["fourier", "--config", cfg, "--out", str(out)]) == EXIT_OK
    doc = json.loads((out / "decomposition.json").read_text())
    assert doc["config"]["molecule"] == "N2"
    # N2 keeps odd-J lines: nuclear-spin weights allow both parities
    comps = doc["decomposition"]["components"]
    assert any(c["J"] % 2 == 1 for c in comps)
