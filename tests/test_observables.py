"""Alignment traces, Raman-line decompositions, and intensity-regime scans."""

import json

import numpy as np
import pytest

from rotorgrating import dynamics, observables
from rotorgrating.cli import EXIT_OK, main
from rotorgrating.constants import revival_period
from rotorgrating.dynamics import elliptic_tdse_ensemble, kick_ensemble
from rotorgrating.field import PulseSpec, elliptic_pulse, xi_per_intensity
from rotorgrating.observables import (
    AlignmentTrace,
    FourierDecomposition,
    alignment_trace,
    elliptic_approx,
    fourier_decompose,
    max_over_period,
    reconstruct,
    regime_scan,
    revival_time_grid,
    thermal_channel_set,
    write_trace_csv,
)
from rotorgrating.rotor import CO2, boltzmann_ensemble, suggest_j_max


@pytest.fixture(scope="module")
def kicked_30k():
    return kick_ensemble(CO2, boltzmann_ensemble(CO2, 30.0), 2.0)


@pytest.fixture(scope="module")
def elliptic_30k():
    ens = boltzmann_ensemble(CO2, 30.0)
    pulse = elliptic_pulse(xi_to_intensity(1.0), 2.0 / 3.0, 1.0 / 3.0)
    return elliptic_tdse_ensemble(CO2, ens, pulse)


def xi_to_intensity(xi: float) -> float:
    return xi / xi_per_intensity(CO2, 0.1)


# ---------------------------------------------------------------------------
# Decomposition against the direct expectation value
# ---------------------------------------------------------------------------

def test_reconstruction_matches_direct_trace(kicked_30k):
    dec = fourier_decompose(kicked_30k)
    times = revival_time_grid(CO2, n=601, t_start=0.3)
    direct = alignment_trace(kicked_30k, "y", times)
    rebuilt = reconstruct(dec, times)
    assert np.max(np.abs(direct.values - rebuilt.values)) < 1e-10


def test_reconstruction_matches_direct_trace_jm(elliptic_30k):
    times = np.linspace(0.0, 21.0, 301)
    for axis in ("x", "y", "z"):
        dec = fourier_decompose(elliptic_30k, axis)
        direct = alignment_trace(elliptic_30k, axis, times)
        rebuilt = reconstruct(dec, times)
        assert np.max(np.abs(direct.values - rebuilt.values)) < 1e-10, axis


@pytest.mark.parametrize("kind", ["chain", "jm"])
def test_horner_reconstruct_matches_explicit_cosine_sum(kind, kicked_30k, elliptic_30k):
    dec = fourier_decompose(kicked_30k, "y") if kind == "chain" else fourier_decompose(elliptic_30k, "x")
    times = np.linspace(0.0, 10.0 * revival_period(CO2.b_cm1), 4001)
    explicit = dec.constant + dec.amplitudes @ np.cos(
        np.outer(dec.omegas, times) + dec.phases[:, None]
    )
    assert np.max(np.abs(reconstruct(dec, times).values - explicit)) <= 1e-12


def test_reconstruct_reuses_its_phase_tables(kicked_30k, monkeypatch):
    # the tables are keyed by the delays' bytes and the rate: a grid edited in
    # place gets its own, each result equals one from an empty cache, bit for
    # bit, and the cache keeps the latest PHASE_CACHE_SIZE tables of grids up
    # to PHASE_CACHE_SAMPLES delays
    dec = fourier_decompose(kicked_30k)
    times = revival_time_grid(CO2, n=601, t_start=0.3)

    def uncached():
        observables._PHASES.clear()
        return reconstruct(dec, times).values.tobytes()

    for _ in range(2):
        want = uncached()
        assert reconstruct(dec, times).values.tobytes() == want
        assert len(observables._PHASES) == observables.PHASE_CACHE_SIZE == 2
        assert not any(table.flags.writeable for table in observables._PHASES.values())
        times += 1.0
    monkeypatch.setattr(observables, "PHASE_CACHE_SAMPLES", len(times) - 1)
    want = uncached()
    assert not observables._PHASES
    assert reconstruct(dec, times).values.tobytes() == want


def test_decomposition_rejects_non_raman_frequencies(kicked_30k):
    dec = fourier_decompose(kicked_30k)
    with pytest.raises(ValueError, match="4J\\+6"):
        FourierDecomposition(dec.constant, dec.js, dec.amplitudes, dec.phases, 1.01 * dec.omegas
                             + np.linspace(0.0, 1e-3, len(dec.js)))


def test_trace_is_revival_periodic(kicked_30k):
    dec = fourier_decompose(kicked_30k)
    tr = revival_period(CO2.b_cm1)
    times = np.linspace(0.0, 0.9 * tr, 257)
    a = reconstruct(dec, times)
    b = reconstruct(dec, times + tr)
    assert np.max(np.abs(a.values - b.values)) < 1e-9


def test_zero_kick_gives_flat_trace():
    cs = kick_ensemble(CO2, boltzmann_ensemble(CO2, 30.0), 0.0)
    dec = fourier_decompose(cs)
    assert np.max(dec.amplitudes, initial=0.0) < 1e-12
    assert dec.constant == pytest.approx(0.0, abs=1e-12)
    times = np.linspace(0.0, 10.0, 64)
    assert np.max(np.abs(reconstruct(dec, times).values)) < 1e-12


def test_components_live_on_even_j_lines(kicked_30k):
    dec = fourier_decompose(kicked_30k)
    assert np.all(dec.js % 2 == 0)
    assert np.all(np.diff(dec.js) > 0)
    # line frequencies follow the rigid-rotor Raman progression
    from rotorgrating.rotor import raman_frequency

    for j, omega in zip(dec.js, dec.omegas):
        assert omega == pytest.approx(raman_frequency(int(j), CO2), rel=1e-12)


def test_dominant_phases_sit_near_minus_half_pi():
    cs = kick_ensemble(CO2, boltzmann_ensemble(CO2, 293.0), 2.0)
    dec = fourier_decompose(cs)
    strong = dec.amplitudes >= 0.1 * dec.amplitudes.max()
    err = np.abs(dec.phases[strong] + np.pi / 2.0)
    assert np.max(err) < 0.15


def test_constant_term_equals_time_average(kicked_30k):
    dec = fourier_decompose(kicked_30k)
    tr = revival_period(CO2.b_cm1)
    times = revival_time_grid(CO2, n=4096)
    mean = float(np.mean(reconstruct(dec, times).values))
    # oscillating terms average out over one revival on a commensurate grid
    assert mean == pytest.approx(dec.constant, abs=1e-12)


# ---------------------------------------------------------------------------
# Trace utilities
# ---------------------------------------------------------------------------

def test_max_over_period_matches_brute_force(kicked_30k):
    dec = fourier_decompose(kicked_30k)
    tr = revival_period(CO2.b_cm1)
    coarse = max_over_period(dec, 0.0, tr)
    dense = reconstruct(dec, np.linspace(0.0, tr, 262144, endpoint=False)).values.max()
    assert coarse >= dense - 1e-9
    assert coarse == pytest.approx(dense, abs=1e-6)


def test_revival_time_grid_shape():
    grid = revival_time_grid(CO2, n=512, t_start=1.0, periods=2.0)
    tr = revival_period(CO2.b_cm1)
    assert len(grid) == 512
    assert grid[0] == 1.0
    assert grid[-1] < 1.0 + 2.0 * tr  # endpoint excluded
    assert np.allclose(np.diff(grid), grid[1] - grid[0], rtol=1e-12)


def test_alignment_trace_validation():
    with pytest.raises(ValueError, match="equal length"):
        AlignmentTrace(np.arange(3.0), np.zeros(4), "y")
    with pytest.raises(ValueError, match="outside"):
        AlignmentTrace(np.arange(3.0), np.full(3, 0.9), "y")
    AlignmentTrace(np.arange(3.0), np.array([0.0, 0.1, -0.1]), "y")


@pytest.mark.parametrize("kind", ["chain", "lattice", "zero_kick"])
def test_series_reject_an_unknown_axis(kind, kicked_30k, elliptic_30k):
    cs = {"chain": kicked_30k, "lattice": elliptic_30k,
          "zero_kick": kick_ensemble(CO2, boltzmann_ensemble(CO2, 30.0), 0.0)}[kind]
    with pytest.raises(ValueError, match="axis must be x, y, or z, got 'w'"):
        fourier_decompose(cs, "w")
    with pytest.raises(ValueError, match="axis must be x, y, or z, got 'w'"):
        alignment_trace(cs, "w", np.linspace(0.0, 1.0, 4))


def test_chain_transverse_terms_are_minus_half_the_field_axis_terms(kicked_30k):
    # <cos^2 theta_perp> = (1 - <cos^2 theta>)/2, and the -1/2 scaling is
    # exact (array_equal: the lines no block reaches read +0.0, not -0.5 * 0.0)
    y_constant, y_z = kicked_30k.series_terms("y")
    for axis in ("x", "z"):
        constant, z = kicked_30k.series_terms(axis)
        assert constant == -0.5 * y_constant
        assert np.array_equal(z, -0.5 * y_z)


def test_thermal_channel_set_method_validation():
    with pytest.raises(ValueError, match="method"):
        thermal_channel_set(CO2, 30.0, PulseSpec(1.0), method="magic")


# ---------------------------------------------------------------------------
# Elliptic superposition algebra
# ---------------------------------------------------------------------------

def test_elliptic_approx_sum_rule(kicked_30k):
    times = np.linspace(0.0, 21.0, 301)
    lin = alignment_trace(kicked_30k, "y", times)
    traces = elliptic_approx(lin, 2.0 / 3.0, 1.0 / 3.0)
    total = traces["x"].values + traces["y"].values + traces["z"].values
    assert np.max(np.abs(total)) < 1e-14
    diff = traces["x"].values - traces["y"].values
    assert np.allclose(diff, traces["difference"].values, atol=1e-14)


def test_elliptic_approx_limits(kicked_30k):
    times = np.linspace(0.0, 5.0, 64)
    lin = alignment_trace(kicked_30k, "y", times)
    # pure y polarization reproduces the input on the y axis
    traces = elliptic_approx(lin, 0.0, 1.0)
    assert np.allclose(traces["y"].values, lin.values, atol=1e-14)
    assert np.allclose(traces["x"].values, -0.5 * lin.values, atol=1e-14)
    with pytest.raises(ValueError):
        elliptic_approx(lin, 0.6, 0.6)


# ---------------------------------------------------------------------------
# Intensity regime scan
# ---------------------------------------------------------------------------

def test_regime_scan_slopes_and_affine_fit():
    scan = regime_scan(
        CO2, 293.0, [2.0, 4.0, 8.0, 14.0, 20.0, 40.0, 60.0, 80.0],
    )
    assert scan.slopes["c_low"] == pytest.approx(2.0, abs=0.1)
    assert scan.slopes["max_minus_c_below_knee"] == pytest.approx(1.0, abs=0.1)
    # above the knee C bends toward saturation; over 40-80 TW/cm^2 it is
    # close to a line with a negative intercept, not proportional to I
    assert scan.slopes["c_high_affine_r2"] > 0.999
    high = scan.intensities >= 40.0
    slope, intercept = np.polyfit(scan.intensities[high], scan.c_values[high], 1)
    assert slope > 0.0
    assert intercept < 0.0
    assert np.all(np.diff(scan.c_values) > 0.0)
    assert np.all(scan.max_values >= scan.c_values - 1e-12)
    # the basis pinned at the largest intensity is its kick's tail bound,
    # below suggest_j_max's headroom; it holds that kick to the edge
    # contract, and every point matches the same kick on suggest_j_max's basis
    ens, per_i = boltzmann_ensemble(CO2, 293.0), xi_per_intensity(CO2)
    wide = suggest_j_max(ens.j_thermal_max, per_i * 80.0)
    j_max = scan.metadata["j_max"]
    assert j_max == dynamics.tail_j_max(ens, per_i * 80.0) < wide
    assert kick_ensemble(CO2, ens, per_i * 80.0, j_max).edge_leak() <= dynamics.EDGE_POPULATION_TOL
    period = revival_period(CO2.b_cm1)
    for i, c, top in zip(scan.intensities, scan.c_values, scan.max_values):
        dec = fourier_decompose(kick_ensemble(CO2, ens, per_i * i, wide), "y")
        assert c == pytest.approx(dec.constant, rel=1e-9, abs=0.0)
        assert top - c == pytest.approx(max_over_period(dec, 1.0, period) - dec.constant, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("intensities, message", [
    ([2.0, 2.0, 2.0], r"need at least 3 distinct intensities, got \[2.0, 2.0, 2.0\]"),
    ([2.0, 4.0], r"need at least 3 distinct intensities, got \[2.0, 4.0\]"),
    ([2.0, 4.0, float("nan")], r"intensities must be finite and positive, got \[nan\]"),
    ([float("inf"), 4.0, 0.0, -1.0, 8.0], r"intensities must be finite and positive, got \[inf, 0.0, -1.0\]"),
])
def test_regime_scan_rejects_intensities_before_kicking(monkeypatch, intensities, message):
    # a log-log fit through one distinct x is no slope, and a NaN is no
    # intensity: both are named before any kick runs
    def kick(*args, **kwargs):
        raise AssertionError("a kick ran")

    monkeypatch.setattr(dynamics, "_kicks", kick)
    with pytest.raises(ValueError, match=message):
        regime_scan(CO2, 293.0, intensities)


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------

def test_trace_csv_bytes_and_metadata(tmp_path, kicked_30k):
    times = np.linspace(0.0, 2.0, 8)
    trace = alignment_trace(kicked_30k, "y", times)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    meta = {"version": "0.1.0", "config": "{}"}
    write_trace_csv(trace, str(p1), value_header="cos2_minus_third", header_metadata=meta)
    write_trace_csv(trace, str(p2), value_header="cos2_minus_third", header_metadata=meta)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "# config: {}"
    assert lines[1] == "# version: 0.1.0"
    assert lines[2] == "t_ps,cos2_minus_third"
    assert len(lines) == 3 + len(times)


def _rows_one_by_one(path, header, columns, header_metadata):
    """The CSV writer as it wrote row by row: the bytes a blocked writer keeps."""
    row = ",".join(["{:.12e}"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(header_metadata or {}):
            fh.write(f"# {key}: {header_metadata[key]}\n")
        fh.write(header + "\n")
        for values in zip(*columns):
            fh.write(row.format(*values))


@pytest.mark.parametrize("rows", [0, 1, 7, observables.CSV_BLOCK_ROWS, 2 * observables.CSV_BLOCK_ROWS + 3])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_columns_csv_blocks_write_the_row_by_row_bytes(tmp_path, rows, count):
    # nan, both infinities, -0.0, subnormals and values near the float
    # range among random ones of every scale, on an empty file, one block
    # and more than two
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.0 / 3.0])
    rng = np.random.default_rng(rows + count)
    columns = []
    for _ in range(count):
        values = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        values[rng.integers(0, rows, min(rows, 32))] = rng.choice(special, min(rows, 32))
        columns.append(values)
    meta = {"version": "0.1.0", "config": "{}"}
    header = ",".join(f"c{i}" for i in range(count))
    observables.write_columns_csv(str(tmp_path / "blocks.csv"), header, columns, meta)
    _rows_one_by_one(str(tmp_path / "rows.csv"), header, columns, meta)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_decomposition_json_round_trip(tmp_path):
    # the fourier subcommand's file against the in-process decomposition
    cfg = tmp_path / "fourier.json"
    cfg.write_text(json.dumps({"molecule": "CO2", "temperature_K": 30.0, "intensity_tw_cm2": 4.0,
                               "time_grid": {"n": 16}}))
    assert main(["fourier", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    doc = json.loads((tmp_path / "out" / "decomposition.json").read_text())["decomposition"]
    dec = fourier_decompose(thermal_channel_set(CO2, 30.0, PulseSpec(4.0)))
    assert doc["axis"] == dec.axis
    assert doc["C"] == pytest.approx(dec.constant, rel=1e-15)
    assert [c["J"] for c in doc["components"]] == list(map(int, dec.js))
    assert np.allclose([c["amp"] for c in doc["components"]], dec.amplitudes)
    assert np.allclose([c["phase"] for c in doc["components"]], dec.phases)
