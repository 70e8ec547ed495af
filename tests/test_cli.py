"""Command-line entry points: exit codes, output files, reproducibility."""

import json
import os
import time

import numpy as np
import pytest

from rotorgrating import dynamics, observables
from rotorgrating.cli import (
    EXIT_CONFIG,
    EXIT_NO_CONVERGENCE,
    EXIT_NUMERICAL,
    EXIT_OK,
    _stamp,
    main,
)
from rotorgrating.retrieval import FitProblem, synthesize_trace
from rotorgrating.grating import GratingConfig, grating_signal, write_signal_csv
from rotorgrating.observables import revival_time_grid
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
    # this kick's chain eigenvectors and amplitudes are estimated at 48.1 MB;
    # a budget just below that keeps the input small
    monkeypatch.setattr(dynamics, "MAX_WORKING_SET_BYTES", 48e6)
    cfg = _cfg(tmp_path, {"molecule": "CO2", "temperature_K": 30.0, "scheme": "parallel",
                          "theoretical_intensity_tw_cm2": 500.0, "time_grid": {"n": 64}})
    out = tmp_path / "run"
    start = time.perf_counter()
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert time.perf_counter() - start < 1.0
    assert "needs about 0.0481 GB of working memory" in capsys.readouterr().err
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

    # the signal equals the one the grating model computes with its own propagation
    resolved = json.loads((out / "metadata.json").read_text())["config"]
    grating = GratingConfig("perpendicular", resolved["single_pump_intensity_tw_cm2"])
    grid = resolved["time_grid"]
    times = revival_time_grid(CO2, grid["n"], grid["t_start_ps"], grid["periods"])
    signal = grating_signal(CO2, 30.0, grating, times, method="tdse")
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


def test_fourier_elliptic_beyond_working_set_budget(tmp_path, monkeypatch, capsys):
    # 293 K at 30 TW/cm^2 stacks 10.3 M lattice entries in two groups: their
    # results plus the larger group's solver state come to ~3.5 GB
    def solve_ivp(*args, **kwargs):
        raise AssertionError("a propagation started")

    monkeypatch.setattr(dynamics, "solve_ivp", solve_ivp)
    cfg = _cfg(tmp_path, {
        "molecule": "CO2", "temperature_K": 293.0, "intensity_tw_cm2": 30.0, "method": "tdse",
        "polarization": [0.8164965809277261, 0.5773502691896257],
    })
    out = tmp_path / "x"
    start = time.perf_counter()
    assert main(["fourier", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert time.perf_counter() - start < 1.0
    assert "needs about 3.49 GB of working memory" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

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


def test_validate_unknown_suite_name(tmp_path, capsys):
    cfg = _cfg(tmp_path, {"suites": ["conjuring"]})
    assert main(["validate", "--config", cfg]) == EXIT_CONFIG


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
