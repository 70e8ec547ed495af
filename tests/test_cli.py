"""Command-line entry points: exit codes, output files, reproducibility."""

import contextlib
import json
import math
import os
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from rotorgrating import cli, dynamics, observables, rotor
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
from rotorgrating.rotor import CO2, molecule_from_dict


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


@pytest.fixture
def no_propagation(monkeypatch):
    """Fail any propagation the test starts at its first step: a nonzero chain
    propagation's kick kernel, a lattice one's operator build, or the
    stepper both share."""
    def propagate(*args, **kwargs):
        raise AssertionError("a propagation started")

    for name in ("_kicks", "cos2theta_axis_matrix", "_chain_steps"):
        monkeypatch.setattr(dynamics, name, propagate)


def _exits_2_in_little_memory(argv, peak_bytes=1e6):
    """main(argv) exits 2 with under peak_bytes traced at its peak, so it
    rejected the input before allocating for it."""
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_CONFIG
        assert tracemalloc.get_traced_memory()[1] < peak_bytes
    finally:
        tracemalloc.stop()


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


def test_simulate_rejects_temperature_beyond_channel_budget(tmp_path, no_propagation, capsys):
    cfg = _cfg(tmp_path, {"molecule": "CO2", "temperature_K": 1e9, "scheme": "parallel",
                          "theoretical_intensity_tw_cm2": 10.0})
    _exits_2_in_little_memory(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert "thermal channels" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_simulate_rejects_kick_beyond_working_set_budget(tmp_path, monkeypatch, no_propagation,
                                                       capsys):
    # this kick's chain eigenvectors, amplitudes, gather index, per-row,
    # per-column and per-block arrays and the kick kernel's arrays on its
    # largest run are estimated at 49.6 MB; a budget below that keeps the
    # input small.  The estimate counts the eigensolver's copy of a chain
    # per worker: one worker keeps it the same on any number of CPUs
    monkeypatch.setattr(dynamics, "MAX_WORKING_SET_BYTES", 48e6)
    monkeypatch.setattr(dynamics, "_workers", lambda: 1)
    cfg = _cfg(tmp_path, {"molecule": "CO2", "temperature_K": 30.0, "scheme": "parallel",
                          "theoretical_intensity_tw_cm2": 500.0, "time_grid": {"n": 64}})
    out = tmp_path / "run"
    _exits_2_in_little_memory(["simulate", "--config", cfg, "--out", str(out)])
    assert "needs about 0.0496 GB of working memory" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_chain_tdse_beyond_kick_work_budget(tmp_path, no_propagation, capsys):
    # 0.1 TW/cm^2 for 100 ps at 293 K: its basis, j_max 272, fits the
    # working-set budget (0.96 GB), but 86,215 kicks of its chains need
    # 2.4e12 complex multiply-adds, about 9 minutes of GEMMs; it is
    # rejected at once, before anything is allocated
    cfg = _cfg(tmp_path, {"molecule": "CO2", "temperature_K": 293.0, "scheme": "perpendicular",
                          "theoretical_intensity_tw_cm2": 0.1, "tau_fwhm_ps": 100.0, "method": "tdse",
                          "time_grid": {"n": 64}})
    out = tmp_path / "run"
    start = time.perf_counter()
    _exits_2_in_little_memory(["simulate", "--config", cfg, "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert ("propagation at j_max=272 needs about 2.42e+12 complex multiply-adds of kicks, "
            "above the budget of 1e+12") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid, message", [
    ({"n": 10**11},"a time grid of 100000000000 samples needs about 8e+03 GB"),
    ({"n": 64, "periods": 1e308}, "time grid [0.5, inf] ps leaves the delays within +-1e+09 ps"),
    ({"n": 64, "t_start_ps": -2e9}, "time grid [-2e+09, -2e+09] ps leaves the delays"),
])
def test_simulate_rejects_grid_before_allocating_it(tmp_path, capsys, grid, message):
    cfg = _cfg(tmp_path, {**SIM_BASE, "time_grid": grid})
    out = tmp_path / "run"
    _exits_2_in_little_memory(["simulate", "--config", cfg, "--out", str(out)], peak_bytes=10e6)
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


@pytest.mark.parametrize("probe", [0.0, -0.1])
def test_simulate_rejects_probe_fwhm_before_propagating(tmp_path, no_propagation, capsys, probe):
    cfg = _cfg(tmp_path, {**SIM_BASE, "method": "tdse", "probe_tau_fwhm_ps": probe})
    out = tmp_path / "run"
    _exits_2_in_little_memory(["simulate", "--config", cfg, "--out", str(out)])
    assert f"probe FWHM must be positive, got {probe}" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_checks_the_probe_grid_before_propagating(tmp_path, no_propagation, capsys):
    # float64 quantizes a grid starting at 1e8 ps unevenly, which the probe
    # convolution cannot smear
    cfg = _cfg(tmp_path, {**SIM_BASE, "temperature_K": 293.0, "method": "tdse",
                          "probe_tau_fwhm_ps": 0.1, "time_grid": {"t_start_ps": 1e8}})
    out = tmp_path / "run"
    _exits_2_in_little_memory(["simulate", "--config", cfg, "--out", str(out)])
    assert "probe convolution needs a uniform, increasing delay grid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("probe, grid, message", [
    # 4,096 delays times a kernel of 1e7 taps: about a minute of work
    (3e4, 4096, "needs about 4e+10 multiply-adds, above the budget of 1e+10"),
    # a kernel of 5e9 taps: 40 GB for numpy's kernel array alone
    (1e9, 64, "needs about 163 GB of working memory, above the budget of 2 GB"),
])
def test_simulate_prices_the_probe_kernel_before_propagating(tmp_path, no_propagation, capsys, probe,
                                                             grid, message):
    cfg = _cfg(tmp_path, {**SIM_BASE, "single_pump_intensity_tw_cm2": 5.0, "probe_tau_fwhm_ps": probe,
                          "time_grid": {"n": grid}})
    out = tmp_path / "run"
    _exits_2_in_little_memory(["simulate", "--config", cfg, "--out", str(out)])
    assert capsys.readouterr().err == f"error: the probe convolution at probe_tau_fwhm_ps={probe:g} {message}\n"
    assert not out.exists()


def test_simulate_prices_a_probe_beyond_the_float_range_in_finite_gigabytes(tmp_path, no_propagation,
                                                                            capsys):
    # 1e308 ps is about 4e309 delay steps, beyond the float range: the taps are counted exactly
    cfg = _cfg(tmp_path, {**SIM_BASE, "single_pump_intensity_tw_cm2": 5.0, "probe_tau_fwhm_ps": 1e308,
                          "time_grid": {"n": 4096}})
    out = tmp_path / "run"
    _exits_2_in_little_memory(["simulate", "--config", cfg, "--out", str(out)])
    err = capsys.readouterr().err
    assert err == ("error: the probe convolution at probe_tau_fwhm_ps=1e+308 needs about 1.04e+303 GB "
                   "of working memory, above the budget of 2 GB\n")
    assert "inf" not in err
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


@pytest.mark.parametrize("probe", [1e-300, 1e-150])
def test_simulate_with_a_probe_narrower_than_a_tap_keeps_the_signal(tmp_path, probe):
    # a probe under 1/8 of a delay step is a kernel of one tap, which leaves
    # the signal as it is: 1e-300 ps used to fail on its width squared, 0
    base = {**SIM_BASE, "scheme": "parallel", "single_pump_intensity_tw_cm2": 5.0}
    signals = []
    for name, extra in (("bare", {}), ("probed", {"probe_tau_fwhm_ps": probe})):
        cfg = _cfg(tmp_path, {**base, **extra}, name=f"{name}.json")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / name)]) == EXIT_OK
        signals.append(_read_csv_values(tmp_path / name / "signal.csv")[:, 1])
    assert np.array_equal(*signals)


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


@pytest.mark.parametrize("extra, message", [
    ({"plasma_background": {"re": math.inf}}, "'plasma_background.re' must be a finite number, got inf"),
    ({"plasma_background": {"im": True}}, "'plasma_background.im' must be a number, got a boolean"),
    ({"plasma_background": {"real": 0.002}}, "'plasma_background' takes the keys re and im, got ['real']"),
    ({"time_grid": {"n": 64.5}}, "'time_grid.n' must be int, got float"),
    ({"time_grid": {"n": 64, "periods": "1"}}, "'time_grid.periods' must be float, got str"),
], ids=["re_inf", "im_bool", "unknown_key", "n_float", "periods_str"])
def test_simulate_names_nested_keys_in_full(tmp_path, no_propagation, capsys, extra, message):
    # a key inside an object is named with its parent, as fit names 'fixed.temperature'
    cfg = _cfg(tmp_path, {**SIM_BASE, "scheme": "parallel", "method": "tdse", **extra})
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
    ([1e200, 1], "polarization"),  # squaring it overflows
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


# the budget names an estimate beyond the float range, and a j_max past 15
# digits in .3g form; a finite kick whose headroom 4 xi overflows names the
# kick, on the chains and the lattice alike; simulate sizes its basis through
# the same checks; a TDSE pump so long that its step count is past the float
# range reaches the budget too; and a kick that is not finite, on an
# unsized or an explicit basis, names the kick before any basis is sized
_BUDGET = "GB of working memory, above the budget of 2 GB"
_UNSIZABLE_KICK = "is too large to size a basis: 4 xi is not finite"


@pytest.mark.parametrize("subcommand, pump, message", [
    pytest.param("fourier", {"intensity_tw_cm2": 1e12},
                 f"propagation at j_max=1777028940981 needs about 1.77e+17 {_BUDGET}", id="1000000000000.0"),
    pytest.param("fourier", {"intensity_tw_cm2": 1e300},
                 f"propagation at j_max=1.78e+300 needs about 1.77e+593 {_BUDGET}", id="1e+300"),
    pytest.param("fourier", {"intensity_tw_cm2": 1.7e308}, f"kick strength xi = 7.55e+307 {_UNSIZABLE_KICK}",
                 id="1.7e+308"),
    pytest.param("simulate", {"scheme": "parallel", "theoretical_intensity_tw_cm2": 1e300},
                 f"propagation at j_max=1.78e+300 needs about 1.77e+593 {_BUDGET}", id="simulate-1e+300"),
    pytest.param("simulate", {"scheme": "parallel", "theoretical_intensity_tw_cm2": 1.7e308},
                 "kick strength must be finite, got inf", id="simulate-1.7e+308"),
    pytest.param("fourier", {"intensity_tw_cm2": 30.0, "method": "tdse", "tau_fwhm_ps": 1e200},
                 f"propagation at j_max=5.33e+202 needs about 3.61e+598 {_BUDGET}", id="tdse-tau-1e+200"),
    pytest.param("fourier", {"intensity_tw_cm2": 30.0, "method": "tdse", "tau_fwhm_ps": 1e300},
                 f"propagation at j_max=5.33e+302 needs about 3.61e+898 {_BUDGET}", id="tdse-tau-1e+300"),
    pytest.param("simulate", {"scheme": "parallel", "theoretical_intensity_tw_cm2": 30.0, "method": "tdse",
                              "tau_fwhm_ps": 1e200},
                 f"propagation at j_max=5.33e+202 needs about 3.61e+598 {_BUDGET}", id="simulate-tdse-tau-1e+200"),
    pytest.param("simulate", {"scheme": "parallel", "theoretical_intensity_tw_cm2": 30.0, "method": "tdse",
                              "tau_fwhm_ps": 1e300},
                 f"propagation at j_max=5.33e+302 needs about 3.61e+898 {_BUDGET}", id="simulate-tdse-tau-1e+300"),
    pytest.param("fourier", {"intensity_tw_cm2": 1.7e308, "method": "tdse", "tau_fwhm_ps": 1.0,
                             "polarization": [0.8, 0.6]},
                 "kick strength must be finite, got inf", id="elliptic-1.7e+308"),
    pytest.param("fourier", {"intensity_tw_cm2": 1e300, "method": "tdse", "polarization": [0.8, 0.6]},
                 f"propagation at j_max=6.04e+299 needs about 1.99e+1190 {_BUDGET}", id="elliptic-1e+300"),
    pytest.param("fourier", {"intensity_tw_cm2": 1.7e308, "method": "tdse", "polarization": [0.8, 0.6]},
                 f"kick strength xi = 7.55e+307 {_UNSIZABLE_KICK}", id="elliptic-finite-1.7e+308"),
    pytest.param("fourier", {"intensity_tw_cm2": 1.7e308, "tau_fwhm_ps": 1.0, "j_max": 60},
                 "kick strength must be finite, got inf", id="j_max-60-1.7e+308"),
    pytest.param("simulate", {"scheme": "parallel", "theoretical_intensity_tw_cm2": 1e308, "j_max": 60},
                 "kick strength must be finite, got inf", id="simulate-j_max-60-1e+308"),
])
def test_fourier_rejects_kicks_too_large_to_size(tmp_path, monkeypatch, no_propagation, capsys, subcommand,
                                                 pump, message):
    # the basis these need cannot be sized, let alone allocated, and an
    # explicit basis cannot hold a kick that is not finite.  A TDSE's budget
    # counts a composed run's stack per worker: one worker keeps the printed
    # estimate the same on any number of CPUs
    monkeypatch.setattr(dynamics, "_workers", lambda: 1)
    cfg = _cfg(tmp_path, {"molecule": "CO2", "temperature_K": 30.0, **pump})
    out = tmp_path / "x"
    _exits_2_in_little_memory([subcommand, "--config", cfg, "--out", str(out)])
    err = capsys.readouterr().err
    assert err == f"error: {message}\n" and len(err) < 120
    assert not out.exists()


@pytest.mark.parametrize("pump", [{"intensity_tw_cm2": 1e12}, {"intensity_tw_cm2": 1e300},
                                  {"intensity_tw_cm2": 5.0, "tau_fwhm_ps": 1e7}])
def test_fourier_rejects_tdse_too_large_to_size(tmp_path, no_propagation, capsys, pump):
    # the stepper's kick count enters the estimate before any of its arrays exist
    cfg = _cfg(tmp_path, {"molecule": "CO2", "temperature_K": 0.0, "method": "tdse", **pump})
    out = tmp_path / "x"
    _exits_2_in_little_memory(["fourier", "--config", cfg, "--out", str(out)])
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


_ELLIPTIC = {"molecule": "CO2", "method": "tdse", "time_grid": {"n": 64},
             "polarization": [0.8164965809277261, 0.5773502691896257]}


def test_fourier_elliptic_beyond_working_set_budget(tmp_path, monkeypatch, no_propagation, capsys):
    # at 1100 K (J_thermal_max = 164) the tail bound sizes the lattice at
    # j_max 172, which already needs ~2.9 GB for the two groups' results plus
    # the larger + sector's stepper arrays: rejected before any kick runs.
    # The estimate counts a running group's arrays per worker: one worker
    # keeps it the same on any number of CPUs
    monkeypatch.setattr(dynamics, "_workers", lambda: 1)
    cfg = _cfg(tmp_path, {**_ELLIPTIC, "temperature_K": 1100.0, "intensity_tw_cm2": 5.0})
    out = tmp_path / "x"
    _exits_2_in_little_memory(["fourier", "--config", cfg, "--out", str(out)])
    assert "propagation at j_max=172 needs about 2.9 GB of working memory" in capsys.readouterr().err
    assert not out.exists()


def test_fourier_elliptic_beyond_working_set_budget_at_the_measured_basis(tmp_path, monkeypatch, no_propagation,
                                                                          capsys):
    # 30 K fits at J_thermal_max = 26 (4.2 MB), but the tail bound of the
    # kick at 400 TW/cm^2 sizes the lattice at j_max 276, where it needs
    # ~9.4 GB: rejected before any kick runs.  One worker keeps the estimate
    # the same on any number of CPUs
    monkeypatch.setattr(dynamics, "_workers", lambda: 1)
    cfg = _cfg(tmp_path, {**_ELLIPTIC, "temperature_K": 30.0, "intensity_tw_cm2": 400.0})
    out = tmp_path / "x"
    _exits_2_in_little_memory(["fourier", "--config", cfg, "--out", str(out)])
    assert "propagation at j_max=276 needs about 9.41 GB of working memory" in capsys.readouterr().err
    assert not out.exists()


def test_fourier_elliptic_beyond_kick_work_budget(tmp_path, no_propagation, capsys):
    # 500 K fits the memory budget at the tail bound's j_max 134, but 109
    # kicks of the four sectors' free propagators there come to 3.6e12
    # complex multiply-adds: rejected before any kick runs.  60 K at 30
    # TW/cm^2 needs 2.51e10 at j_max 64
    cfg = _cfg(tmp_path, {**_ELLIPTIC, "temperature_K": 500.0, "intensity_tw_cm2": 30.0})
    out = tmp_path / "x"
    _exits_2_in_little_memory(["fourier", "--config", cfg, "--out", str(out)])
    assert ("propagation at j_max=134 needs about 3.6e+12 complex multiply-adds of kicks, above the "
            "budget of 1e+12") in capsys.readouterr().err
    assert not out.exists()


def test_fourier_elliptic_beyond_kick_work_budget_at_the_measured_basis(tmp_path, no_propagation, capsys):
    # 100 K fits both budgets at J_thermal_max = 50, and at the basis the
    # tail bound of the kick at 140 TW/cm^2 takes, 142, the memory budget on
    # any number of workers, but not the kick work
    cfg = _cfg(tmp_path, {**_ELLIPTIC, "temperature_K": 100.0, "intensity_tw_cm2": 140.0})
    out = tmp_path / "x"
    _exits_2_in_little_memory(["fourier", "--config", cfg, "--out", str(out)])
    assert ("propagation at j_max=142 needs about 2.59e+12 complex multiply-adds of kicks, above the "
            "budget of 1e+12") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand, doc", [
    ("simulate", {"scheme": "parallel", "theoretical_intensity_tw_cm2": 1.0}),
    ("fourier", {"intensity_tw_cm2": 1.0, "time_grid": {"n": 64}}),
    ("fourier", {**_ELLIPTIC, "intensity_tw_cm2": 1.0}),
    ("fit", {"scheme": "perpendicular", "trace_path": "scan.csv", "bounds": {"intensity": [5.0, 30.0]},
             "fixed": {"temperature": 60.0}}),
], ids=["simulate", "fourier", "fourier_elliptic", "fit"])
def test_a_negative_j_max_is_a_config_error(tmp_path, capsys, subcommand, doc):
    # a basis below 0 is no size at all: exit 2 naming it, where a basis of 0
    # or more below J_thermal_max is a numerical failure (exit 3)
    (tmp_path / "scan.csv").write_text("delay_ps,signal_au\n" + "".join(f"{k * 0.1},1.0\n" for k in range(60)))
    cfg = _cfg(tmp_path, {"molecule": "CO2", "temperature_K": 0.0, **doc, "j_max": -5})
    out = tmp_path / "x"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: j_max must be nonnegative, got -5\n"
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


def test_validate_rejects_a_zero_temperature_before_any_suite(tmp_path, no_propagation, capsys):
    # the regime suite's classical oracle needs a positive temperature: with
    # that suite selected, validate exits 2 before any suite runs, prints no
    # row and writes nothing
    out = tmp_path / "val"
    for suites in ({}, {"suites": ["regimes"]}, {"suites": ["hygiene", "regimes"]}):
        cfg = _cfg(tmp_path, {"temperature_K": 0, **suites})
        assert main(["validate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == "error: classical oracle needs a positive temperature, got 0.0\n"
        assert captured.out == ""
        assert not out.exists()


@pytest.mark.parametrize("doc, message", [
    ({"temperature_K": 1e6}, "temperature 1000000.0 K exceeds the budget of 100000 thermal channels"),
    ({"intensity_tw_cm2": -5}, "kick strength must be nonnegative, got -2.221286176180843"),
    ({"j_max": -5}, "j_max must be nonnegative, got -5"),
    ({"suites": []}, "validation suites must be distinct and at least one, got []"),
    ({"suites": ["hygiene", "operators", "hygiene"]},
     "validation suites must be distinct and at least one, got ['hygiene', 'operators', 'hygiene']"),
], ids=["ensemble", "intensity", "j_max", "no_suite", "repeated_suite"])
def test_validate_rejects_what_a_suite_would_before_any_suite(tmp_path, no_propagation, capsys, doc, message):
    # the suites' inputs are checked up front: no row is printed, nothing is
    # written and no suite has run
    out = tmp_path / "val"
    cfg = _cfg(tmp_path, doc)
    assert main(["validate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_validate_rejects_a_kick_beyond_the_budget_inside_the_hygiene_suite(tmp_path, no_propagation, capsys):
    # the working-set estimate of the hygiene kick is taken in the suite
    # itself, still before its propagation allocates: 1e300 TW/cm^2 exits 2
    # there, after the suites before it have run
    out = tmp_path / "val"
    cfg = _cfg(tmp_path, {"intensity_tw_cm2": 1e300, "suites": ["operators", "hygiene"]})
    assert main(["validate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "GB of working memory" in captured.err and captured.out == ""
    assert not out.exists()


def test_validate_runs_the_other_suites_at_zero_temperature(tmp_path, capsys):
    cfg = _cfg(tmp_path, {"temperature_K": 0, "suites": ["hygiene"]})
    out = tmp_path / "val"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert "validate: 3/3 checks passed" in capsys.readouterr().out
    assert json.loads((out / "validation.json").read_text())["passed"] is True


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


@pytest.mark.parametrize("key", ["n_intensity_starts", "n_temperature_starts"])
@pytest.mark.parametrize("starts", [0, -2])
def test_fit_rejects_a_grid_without_starts(tmp_path, capsys, key, starts):
    scan = tmp_path / "scan.csv"
    scan.write_text("delay_ps,signal_au\n" + "".join(f"{k * 0.1},1.0\n" for k in range(60)))
    cfg = _cfg(tmp_path, {
        "molecule": "CO2", "scheme": "perpendicular", "trace_path": "scan.csv",
        "bounds": {"intensity": [5.0, 30.0], "temperature": [20.0, 150.0]}, key: starts,
    })
    out = tmp_path / "x"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"'{key}' must be at least 1, got {starts}" in capsys.readouterr().err
    assert not out.exists()


def test_fit_out_of_budget_exits_4_and_writes_its_best(tmp_path, capsys):
    # five free parameters and a budget of one evaluation: the four grid
    # starts spend it, so no refinement runs and the best start is written
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
    # every sample lies within 2 tau of the pump, so the window keeps none
    scan = tmp_path / "scan.csv"
    scan.write_text("delay_ps,signal_au\n" + "".join(f"{k * 0.15 / 59},{1.0 + k}\n" for k in range(60)))
    cfg = _cfg(tmp_path, {
        "molecule": "CO2", "scheme": "perpendicular", "trace_path": "scan.csv",
        "bounds": {"intensity": [5.0, 30.0]}, "fixed": {"temperature": 60.0},
    })
    out = tmp_path / "x"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert ("no delay lies at least 2 tau_fwhm_ps = 0.2 ps from every pump time t_offset in [0, 0] ps"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("box", [[-1.0, 1.0], [-0.5, 1.5], [-5.0, 5.0]])
def test_fit_rejects_a_t_offset_range_whose_window_covers_the_scan(tmp_path, capsys, box):
    # the window keeps the delays at least 2 tau from the whole range
    scan = tmp_path / "scan.csv"
    scan.write_text("delay_ps,signal_au\n" + "".join(
        f"{k * 0.02},{abs(math.sin(7.0 * k * 0.02)) + 0.1}\n" for k in range(50)))
    cfg = _cfg(tmp_path, {
        "molecule": "CO2", "scheme": "perpendicular", "trace_path": "scan.csv",
        "bounds": {"intensity": [5.0, 30.0], "t_offset": box}, "fixed": {"temperature": 60.0},
    })
    out = tmp_path / "x"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"from every pump time t_offset in [{box[0]:g}, {box[1]:g}] ps" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("shift, setting, message", [
    (1e14, {}, "delays must lie within +-1e+09 ps"),
    (0.0, {"fixed": {"temperature": 60.0, "t_offset": 1e300}},
     "'t_offset' must lie within +-1e+09 ps, got 1e+300"),
    (0.0, {"bounds": {"intensity": [5.0, 30.0], "t_offset": [-2e9, 0.0]}},
     "'t_offset' must lie within +-1e+09 ps, got -2e+09"),
], ids=["delays", "fixed_t_offset", "t_offset_bounds"])
def test_fit_keeps_delays_and_pump_time_within_the_delay_bound(tmp_path, capsys, shift, setting, message):
    # the bound simulate puts on its grid and pump time
    scan = tmp_path / "scan.csv"
    scan.write_text("delay_ps,signal_au\n" + "".join(f"{shift + 0.5 + k * 0.1!r},1.0\n" for k in range(60)))
    cfg = _cfg(tmp_path, {
        "molecule": "CO2", "scheme": "perpendicular", "trace_path": "scan.csv",
        "bounds": {"intensity": [5.0, 30.0]}, "fixed": {"temperature": 60.0}, **setting,
    })
    out = tmp_path / "x"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
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


N2 = {"name": "N2", "B_cm1": 1.98958, "delta_alpha_A3": 0.93, "g_even": 2.0, "g_odd": 1.0}


# Every key each subcommand reads, set away from its default.  N2 comes from
# a molecule library so that "molecule" echoes as given.
ECHO_RUNS = {
    "simulate": {
        "molecule": "N2", "temperature_K": 5.0, "scheme": "parallel",
        "single_pump_intensity_tw_cm2": 2.0, "apply_transverse_factor": False,
        "wavelength_nm": 700.0, "crossing_angle_deg": 2.0, "tau_fwhm_ps": 0.08, "t0_ps": 0.1,
        "probe_tau_fwhm_ps": 0.2, "plasma_background": {"re": 0.01, "im": -0.02},
        "method": "tdse", "j_max": 30, "time_grid": {"n": 64, "t_start_ps": 1.0, "periods": 0.5},
    },
    "fourier": {
        "molecule": "N2", "temperature_K": 5.0, "intensity_tw_cm2": 2.0, "tau_fwhm_ps": 0.08,
        "t0_ps": 0.1, "method": "tdse", "axis": "x", "j_max": 30, "polarization": [0.8, 0.6],
        "time_grid": {"n": 64, "t_start_ps": 1.0, "periods": 0.5},
    },
    "geometry": {
        "scheme": "perpendicular", "single_pump_intensity_tw_cm2": 3.0, "wavelength_nm": 400.0,
        "crossing_angle_deg": 3.5,
    },
    "validate": {
        "molecule": "N2", "temperature_K": 30.0, "intensity_tw_cm2": 5.0, "j_max": 40,
        "suites": ["operators"],
    },
    "fit": {
        "molecule": "N2", "scheme": "perpendicular", "trace_path": "scan.csv", "tau_fwhm_ps": 0.12,
        "bounds": {"intensity": [5.0, 30.0]}, "fixed": {"temperature": 30.0},
        "apply_transverse_factor": False, "j_max": 40, "scale_bounds": [0.5, 4.0],
        "cache_quantum": 1e-3, "max_evaluations": 120,
        "refine_starts": 1, "n_intensity_starts": 2, "n_temperature_starts": 3,
    },
}
ECHO_FILES = {"simulate": "metadata.json", "fourier": "decomposition.json", "geometry": "geometry.json",
              "validate": "validation.json", "fit": "fit.json"}


@pytest.mark.parametrize("subcommand", list(ECHO_RUNS))
def test_every_setting_is_echoed(tmp_path, monkeypatch, capsys, subcommand):
    (tmp_path / "n2.json").write_text(json.dumps(N2))
    monkeypatch.setenv("ROTORGRATING_MOLECULE_PATH", str(tmp_path))
    run = ECHO_RUNS[subcommand]
    if subcommand == "fit":
        problem = FitProblem(molecule_from_dict(N2), "perpendicular", tau_fwhm_ps=0.12,
                             bounds={"intensity": (5.0, 30.0)}, fixed={"temperature": 30.0})
        trace = synthesize_trace(problem, {"intensity": 12.0, "temperature": 30.0},
                                 np.arange(0.5, 20.0, 0.05))
        (tmp_path / "scan.csv").write_text("delay_ps,signal_au\n" + "".join(
            f"{t:.17g},{v:.17g}\n" for t, v in zip(trace.delays, trace.signal)))
    # entries derived from what was read, and geometry's intensity, which only
    # GratingConfig's check reads
    derived = {
        "simulate": {"theoretical_intensity_tw_cm2": 4.0, "plasma_background": [0.01, -0.02]},
        "fit": {"trace_path": str(tmp_path / "scan.csv")},
    }.get(subcommand, {})
    unechoed = {"single_pump_intensity_tw_cm2"} if subcommand == "geometry" else set()
    want = {"subcommand": subcommand, **{k: v for k, v in run.items() if k not in unechoed}, **derived}

    out = tmp_path / "out"
    cfg = _cfg(tmp_path, run)
    assert main([subcommand, "--config", cfg, "--out", str(out)]) in (EXIT_OK, EXIT_NO_CONVERGENCE)
    assert json.loads((out / ECHO_FILES[subcommand]).read_text())["config"] == want
    if subcommand == "simulate":
        for name in ("alignment_trace.csv", "signal.csv"):
            assert f"# config: {json.dumps(want, sort_keys=True)}\n" in (out / name).read_text()
    if subcommand == "fourier":
        assert json.loads((out / "reconstruction_report.json").read_text())["config"] == want


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def test_a_run_holds_openblas_to_one_thread_from_its_calling_thread(tmp_path, monkeypatch, capsys):
    # main holds every OpenBLAS to one thread for the whole run.  Every hold
    # a run takes, main's and the propagations' nested ones, is taken on the
    # calling thread: a worker that asked for it would wait on the lock the
    # calling thread keeps while it joins the workers.  Three workers run
    # the chain TDSE's runs and the lattice's groups; reconstruct's GEMM
    # sees one BLAS thread; and after runs that exit 0, 2 and 3 OpenBLAS
    # reads the count it had before, here 2
    hold, compose, reconstruct_ = dynamics._one_blas_thread, dynamics._compose, cli.reconstruct
    libraries = dynamics._openblas()
    holders, steppers, during = [], set(), []

    @contextlib.contextmanager
    def recorded():
        holders.append(threading.current_thread())
        with hold():
            yield

    def stepped(*args):
        steppers.add(threading.current_thread())
        return compose(*args)

    def counted(*args):
        during.append([get() for get, _ in libraries])
        return reconstruct_(*args)

    for module in (cli, dynamics):
        monkeypatch.setattr(module, "_one_blas_thread", recorded)
    monkeypatch.setattr(dynamics, "_compose", stepped)
    monkeypatch.setattr(dynamics, "_workers", lambda: 3)
    monkeypatch.setattr(cli, "reconstruct", counted)
    runs = [
        (["simulate"], {"molecule": "CO2", "temperature_K": 30.0, "scheme": "perpendicular",
                        "theoretical_intensity_tw_cm2": 10.0, "method": "tdse", "time_grid": {"n": 64}}, EXIT_OK),
        (["fourier"], {**_ELLIPTIC, "temperature_K": 10.0, "intensity_tw_cm2": 10.0}, EXIT_OK),
        (["validate"], {}, EXIT_OK),
        (["fourier"], {"molecule": "CO2", "temperature_K": 30.0, "intensity_tw_cm2": 1e300, "method": "tdse"},
         EXIT_CONFIG),
        (["fourier"], {"molecule": "CO2", "temperature_K": 0.0, "intensity_tw_cm2": 100.0, "j_max": 10},
         EXIT_NUMERICAL),
    ]
    counts = [get() for get, _ in libraries]
    try:
        for _, put in libraries:
            put(2)
        for k, (subcommand, doc, code) in enumerate(runs):
            cfg = _cfg(tmp_path, doc, name=f"{k}.json")
            assert main([*subcommand, "--config", cfg, "--out", str(tmp_path / str(k))]) == code
            assert [get() for get, _ in libraries] == [2] * len(libraries)
    finally:
        for (_, put), count in zip(libraries, counts):
            put(count)
    assert holders and set(holders) == {threading.current_thread()}
    assert len(steppers) > 1
    assert len(during) == 2 and all(count == 1 for counts in during for count in counts)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "rotorgrating" in capsys.readouterr().out


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


@pytest.mark.parametrize("molecule, message", [
    # open(0) would read stdin, so a run at a terminal would never end
    ({"path": 0}, "'molecule': 'path' must be a string, got 0"),
    # open(True) would take fd 1 and close stdout on its way out
    ({"path": True}, "'molecule': 'path' must be a string, got True"),
    # w > 0 is false for NaN: every even J level would drop out unseen
    ({**N2, "g_even": math.nan}, "'molecule': g_even must be finite, got nan"),
    # each regrow would leave the edge populated: exit 3 after three
    ({**N2, "g_odd": math.inf}, "'molecule': g_odd must be finite, got inf"),
    ({**N2, "B_cm1": math.inf}, "'molecule': b_cm1 must be finite, got inf"),
    ({**N2, "delta_alpha_A3": math.nan}, "'molecule': delta_alpha_a3 must be finite, got nan"),
    # metadata.json would echo the name as given: "molecule": 5
    ({**N2, "name": 5}, "'molecule': name must be a string, got 5"),
    ({**N2, "name": None}, "'molecule': name must be a string, got None"),
    ({**N2, "name": [1]}, "'molecule': name must be a string, got [1]"),
], ids=["path_zero", "path_true", "g_even_nan", "g_odd_inf", "b_inf", "delta_alpha_nan", "name_int", "name_null",
        "name_list"])
def test_molecule_fields_are_checked_before_use(tmp_path, no_propagation, capsys, molecule, message):
    cfg = _cfg(tmp_path, {**SIM_BASE, "molecule": molecule})
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("subcommand, doc, message", [
    ("simulate", None, "config file not found: {config}"),
    ("simulate", [SIM_BASE], "{config}: top-level config must be a JSON object"),
    ("simulate", {k: v for k, v in SIM_BASE.items() if k != "temperature_K"},
     "missing required key 'temperature_K'"),
    ("simulate", {**SIM_BASE, "molecule": 5},
     "'molecule' must be a name, an object with 'path', or an inline spec"),
    ("simulate", {**SIM_BASE, "time_grid": {"periods": -1}}, "'time_grid.periods' must be positive"),
    ("simulate", {**SIM_BASE, "scheme": "parallel", "plasma_background": "big"},
     "'plasma_background' must be a number or {re, im}"),
    ("simulate", SIM_BASE, "this subcommand writes files; pass --out DIR"),
    ("fourier", {**FOURIER_ELLIPTIC, "polarization": [0.8, 0.8]},
     "'polarization': squared amplitudes must be nonnegative with a2+b2=1, "
     "got 0.6400000000000001, 0.6400000000000001"),
    ("fourier", {**FOURIER_ELLIPTIC, "polarization": "circular"},
     "'polarization' must be 'linear' or a two-component [A, B] list"),
], ids=["missing_file", "top_level_list", "missing_temperature", "molecule_number",
        "negative_periods", "background_string", "no_out", "elliptic_unnormalized", "circular"])
def test_config_errors_exit_2_before_writing(tmp_path, no_propagation, capsys, subcommand, doc,
                                             message):
    config = tmp_path / "config.json"
    if doc is not None:
        config.write_text(json.dumps(doc))
    argv = [subcommand, "--config", str(config)]
    if message != "this subcommand writes files; pass --out DIR":
        argv += ["--out", str(tmp_path / "run")]
    before = sorted(tmp_path.iterdir())
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message.replace('{config}', str(config))}\n"
    assert sorted(tmp_path.iterdir()) == before


# one cheap run of each subcommand that writes; fit spends its one evaluation
# on the grid and would exit 4
_WRITERS = {
    "simulate": SIM_BASE,
    "fourier": {"molecule": "CO2", "temperature_K": 30.0, "intensity_tw_cm2": 3.0, "time_grid": {"n": 64}},
    "geometry": {},
    "validate": {"suites": ["hygiene"]},
    "fit": {"molecule": "CO2", "scheme": "perpendicular", "trace_path": "scan.csv",
            "bounds": {"intensity": [5.0, 30.0]}, "fixed": {"temperature": 60.0},
            "max_evaluations": 1, "refine_starts": 1, "n_intensity_starts": 2},
}


@pytest.mark.parametrize("below", [False, True], ids=["a_file", "below_a_file"])
@pytest.mark.parametrize("subcommand", list(_WRITERS))
def test_out_naming_a_file_exits_2(tmp_path, capsys, subcommand, below):
    # the output directory cannot be made where a file is: the run exits 2
    # naming the path, and the file is left as it was
    (tmp_path / "scan.csv").write_text(
        "delay_ps,signal_au\n" + "".join(f"{t},{1.0 + math.cos(t)}\n" for t in np.arange(0.5, 40.0, 0.5)))
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "sub" if below else taken
    cfg = _cfg(tmp_path, _WRITERS[subcommand])
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno") and f"'{out}'" in err
    assert taken.read_text() == "kept\n"
