"""Sudden-kick and TDSE propagation: unitarity, selection rules, guards.

Reference results come from dense matrix exponentials of the rotor's cos^2
theta matrices and from the drivers run on single-channel ensembles.
"""

import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from rotorgrating import dynamics, observables, rotor
from rotorgrating.dynamics import (
    BasisTooSmallError,
    elliptic_tdse_ensemble,
    kick_ensemble,
    tdse_ensemble,
)
from rotorgrating.field import PulseSpec, effective_area, elliptic_pulse
from rotorgrating.observables import (
    alignment_trace,
    fourier_decompose,
    reconstruct,
    revival_time_grid,
    thermal_channel_set,
)
from rotorgrating.rotor import (
    CO2,
    JMBasis,
    ThermalEnsemble,
    boltzmann_ensemble,
    cos2theta_axis_matrix,
    cos2theta_diagonal,
    cos2theta_offdiag,
)

GROUND = boltzmann_ensemble(CO2, 0.0)  # the single channel |0,0>


def _dense_kick(xi, m, j_max):
    """exp(i xi cos^2 theta) on the full fixed-M ladder J = |m| .. j_max, both parities."""
    js = np.arange(abs(m), j_max + 1)
    off = cos2theta_offdiag(js[:-2], m)
    ladder = np.diag(cos2theta_diagonal(js, m)) + np.diag(off, 2) + np.diag(off, -2)
    return scipy.linalg.expm(1j * xi * ladder)


def _level_populations(cs):
    """Weighted population of each J, summed over channels and M."""
    pops = np.zeros(cs.j_max + 1)
    for b in cs.blocks:
        np.add.at(pops, b.js, np.abs(b.amplitudes) ** 2 @ b.weights)
    return pops


# ---------------------------------------------------------------------------
# Sudden kick on fixed-M chains
# ---------------------------------------------------------------------------

def test_zero_kick_is_identity():
    cs = kick_ensemble(CO2, boltzmann_ensemble(CO2, 60.0), 0.0, j_max=40)
    for b in cs.blocks:
        unit = np.zeros_like(b.amplitudes)
        unit[np.searchsorted(b.js, b.j0), np.arange(len(b.j0))] = 1.0
        assert np.array_equal(b.amplitudes, unit)


def test_kick_is_unitary():
    # at 293 K a block holds up to ~40 channels: its columns stay orthonormal
    cs = kick_ensemble(CO2, boltzmann_ensemble(CO2, 293.0), 3.0)
    for b in cs.blocks:
        gram = b.amplitudes.conj().T @ b.amplitudes
        assert np.max(np.abs(gram - np.eye(len(b.j0)))) < 1e-12


def test_kick_is_linear():
    # a superposition of a block's origins kicks into the same superposition
    # of its columns
    cs = kick_ensemble(CO2, boltzmann_ensemble(CO2, 60.0), 2.0)
    rng = np.random.default_rng(1)
    dense = {}
    for b in cs.blocks:
        m = int(b.m0[0])
        if m not in dense:
            dense[m] = _dense_kick(cs.xi, m, cs.j_max)
        coef = rng.normal(size=len(b.j0)) + 1j * rng.normal(size=len(b.j0))
        start = np.zeros(cs.j_max + 1 - m, dtype=complex)
        start[b.j0 - m] = coef
        want = (dense[m] @ start)[b.js - m]
        assert np.max(np.abs(b.amplitudes @ coef - want)) < 1e-9


def test_kick_preserves_j_parity():
    cs = kick_ensemble(CO2, GROUND, 2.0, j_max=30)
    (block,) = cs.blocks
    assert np.all(block.js % 2 == 0)
    full = _dense_kick(2.0, 0, 30)[:, 0]
    # the dense exponential on both parities leaves odd J exactly empty ...
    assert np.all(full[1::2] == 0.0)
    # ... and its even-J part is the driver's chain
    assert np.max(np.abs(full[0::2] - block.amplitudes[:, 0])) < 1e-12


def test_first_order_amplitude():
    # <2,0|exp(i xi C)|0,0> -> i xi <2,0|C|0,0> as xi -> 0
    xi = 1e-4
    (block,) = kick_ensemble(CO2, GROUND, xi, j_max=30).blocks
    expect = 1j * xi * cos2theta_offdiag(0, 0)
    assert abs(block.amplitudes[1, 0] - expect) / abs(expect) < 1e-3


def test_second_order_population():
    # P(J=2) = (4/45) xi^2 to leading order; within a percent at xi = 0.444
    xi = 0.444
    (block,) = kick_ensemble(CO2, GROUND, xi, j_max=30).blocks
    p2 = abs(block.amplitudes[1, 0]) ** 2
    assert p2 == pytest.approx((4.0 / 45.0) * xi**2, rel=0.02)


def test_chain_drivers_require_y_polarization():
    # the chains quantize along y: a pump along x is linear too, but its
    # field-axis response is not the y trace, so only the lattice takes it
    along_x = elliptic_pulse(10.0, 1.0, 0.0)
    ens = boltzmann_ensemble(CO2, 30.0)
    with pytest.raises(ValueError, match="along y only.*use elliptic_tdse_ensemble"):
        thermal_channel_set(CO2, 30.0, along_x, method="sudden")
    with pytest.raises(ValueError, match="along y only.*use elliptic_tdse_ensemble"):
        tdse_ensemble(CO2, ens, along_x)
    along_y = elliptic_pulse(10.0, 0.0, 1.0)
    assert thermal_channel_set(CO2, 30.0, along_y).xi == effective_area(along_y, CO2)


def test_elliptic_kick_rejected_on_chain():
    # fixed-M chains quantize along a linear field; elliptic pumps need the lattice
    pulse = elliptic_pulse(1.0, 0.5, 0.5)
    with pytest.raises(ValueError, match="linear polarization"):
        thermal_channel_set(CO2, 0.0, pulse, method="sudden")
    with pytest.raises(ValueError, match="linear polarization"):
        tdse_ensemble(CO2, GROUND, pulse)


# ---------------------------------------------------------------------------
# The (J,M) lattice
# ---------------------------------------------------------------------------

def test_jm_kick_unitary_and_parity():
    # the lab-axis operators couple only equal J and equal M parities, so the
    # parity-filtered lattice of each block is closed ...
    full = JMBasis(12)
    for axis in ("x", "y"):
        coo = cos2theta_axis_matrix(full, axis).tocoo()
        assert np.all((full.j_of[coo.row] - full.j_of[coo.col]) % 2 == 0)
        assert np.all((full.m_of[coo.row] - full.m_of[coo.col]) % 2 == 0)
    # ... and a near-sudden circular kick keeps its norm there
    cs = elliptic_tdse_ensemble(CO2, GROUND, elliptic_pulse(1.0, 0.5, 0.5, tau_fwhm_ps=0.01),
                                j_max=12)
    (block,) = cs.blocks
    assert (block.basis.j_parity, block.basis.m_parity) == (0, 0)
    assert cs.norm_deviation() < 1e-10


def test_jm_linear_kick_matches_chain():
    # b2 = 1 on the lattice (quantized along z) gives the thermal J-level
    # populations of the fixed-M chains (quantized along the field)
    ens = boltzmann_ensemble(CO2, 10.0)
    lattice = elliptic_tdse_ensemble(
        CO2, ens, elliptic_pulse(2.0, 0.0, 1.0, tau_fwhm_ps=0.05), j_max=24
    )
    chain = tdse_ensemble(CO2, ens, PulseSpec(2.0, tau_fwhm_ps=0.05), j_max=24)
    assert np.max(np.abs(_level_populations(lattice) - _level_populations(chain))) < 1e-10


# ---------------------------------------------------------------------------
# TDSE propagation
# ---------------------------------------------------------------------------

def test_tdse_approaches_sudden_for_short_pulse():
    pulse = PulseSpec(2.0, tau_fwhm_ps=0.01)
    sudden = kick_ensemble(CO2, GROUND, effective_area(pulse, CO2), j_max=30)
    tdse = tdse_ensemble(CO2, GROUND, pulse, j_max=30)
    pops_s = np.abs(sudden.blocks[0].amplitudes) ** 2
    pops_t = np.abs(tdse.blocks[0].amplitudes) ** 2
    assert np.max(np.abs(pops_s - pops_t)) < 1e-6
    assert tdse.norm_deviation() < 1e-9


def test_elliptic_tdse_reduces_to_linear():
    we = elliptic_tdse_ensemble(
        CO2, GROUND, elliptic_pulse(2.0, 0.0, 1.0, tau_fwhm_ps=0.05), j_max=14
    )
    wl = tdse_ensemble(CO2, GROUND, PulseSpec(2.0, tau_fwhm_ps=0.05), j_max=14)
    assert np.max(np.abs(_level_populations(we) - _level_populations(wl))) < 1e-8


def test_circular_pump_keeps_xy_symmetry():
    pulse = elliptic_pulse(3.0, 0.5, 0.5, tau_fwhm_ps=0.05)
    cs = elliptic_tdse_ensemble(CO2, GROUND, pulse, j_max=14)
    times = np.linspace(0.2, 45.0, 400)
    ex = alignment_trace(cs, "x", times).values
    ey = alignment_trace(cs, "y", times).values
    assert np.max(np.abs(ex - ey)) < 1e-8


# ---------------------------------------------------------------------------
# Thermal ensemble drivers
# ---------------------------------------------------------------------------

def test_kick_ensemble_norms_and_metadata():
    ens = boltzmann_ensemble(CO2, 60.0)
    cs = kick_ensemble(CO2, ens, 2.0)
    assert cs.kind == "chain"
    assert cs.xi == 2.0
    assert cs.temperature == 60.0
    total = sum(ch.weight for ch in cs.channels)
    assert total == pytest.approx(1.0, abs=1e-12)
    for ch in cs.channels:
        assert abs(np.linalg.norm(ch.amplitudes) - 1.0) < 1e-12


def test_kick_ensemble_auto_basis_handles_strong_kick():
    ens = boltzmann_ensemble(CO2, 30.0)
    cs = kick_ensemble(CO2, ens, 10.0)
    leak = max(
        abs(ch.amplitudes[-1]) ** 2 + abs(ch.amplitudes[-2]) ** 2 for ch in cs.channels
    )
    assert leak < 1e-8


def test_explicit_small_basis_raises():
    ens = boltzmann_ensemble(CO2, 0.0)
    with pytest.raises(BasisTooSmallError, match="basis edge"):
        kick_ensemble(CO2, ens, 5.0, j_max=8)


def test_basis_must_hold_thermal_origins():
    ens = boltzmann_ensemble(CO2, 293.0)
    with pytest.raises(BasisTooSmallError, match="thermal origin"):
        kick_ensemble(CO2, ens, 0.5, j_max=10)


def test_tdse_ensemble_deterministic():
    ens = boltzmann_ensemble(CO2, 20.0)
    pulse = PulseSpec(5.0)
    one = tdse_ensemble(CO2, ens, pulse)
    two = tdse_ensemble(CO2, ens, pulse)
    for a, b in zip(one.channels, two.channels):
        assert np.array_equal(a.amplitudes, b.amplitudes)


def test_tdse_ensemble_matches_one_channel_solves():
    # every channel is a column of its block under the same kicks and free
    # propagators, so each agrees with its own one-channel run to roundoff
    ens = boltzmann_ensemble(CO2, 30.0)
    pulse = PulseSpec(3.0)
    cs = tdse_ensemble(CO2, ens, pulse)
    for ch in cs.channels:
        alone = ThermalEnsemble(ens.temperature, ((ch.j0, ch.m0, 1.0),))
        (block,) = tdse_ensemble(CO2, alone, pulse, j_max=cs.j_max).blocks
        assert np.array_equal(block.js, ch.js)
        assert np.max(np.abs(block.amplitudes[:, 0] - ch.amplitudes)) <= 1e-12


@pytest.mark.parametrize("tau", [1e-7, 1e-6, 1e-5, 1e-4])
def test_kick_schedule_far_from_zero_sums_to_xi(tau):
    # the stepper's kick times count from t0: at t0 = 1e9 ps a short pulse
    # keeps the schedule it has at t0 = 0, bit for bit, whose kicks sum to
    # the window's share of xi (the +-3 FWHM window holds erf(6 sqrt(ln 2))
    # of the fluence, 1 - 1.6e-12)
    far, zero = PulseSpec(30.0, tau, 1e9), PulseSpec(30.0, tau, 0.0)
    schedule = dynamics._rkn_schedule(far, CO2, 60)
    for got, want in zip(schedule, dynamics._rkn_schedule(zero, CO2, 60)):
        assert got.tobytes() == want.tobytes()
    inside = effective_area(far, CO2) * math.erf(6.0 * math.sqrt(math.log(2.0)))
    assert abs(schedule[1].sum() / inside - 1.0) <= 1e-12


def _traces_at(monkeypatch, ens, pulse, factors):
    """Reconstructed TDSE traces at each of `factors` times the step rule's steps."""
    times = revival_time_grid(CO2, 2048, t_start=0.5)
    steps = dynamics._rkn_steps
    traces = []
    for f in factors:
        monkeypatch.setattr(dynamics, "_rkn_steps", lambda *args, f=f: f * steps(*args))
        traces.append(reconstruct(fourier_decompose(tdse_ensemble(CO2, ens, pulse), "y"), times).values)
    return traces


def test_tdse_step_doubling(monkeypatch):
    # the 4th-order splitting at twice the rule's steps moves the 293 K,
    # 30 TW/cm^2 trace by at most 2e-8 of its transient peak (3.6e-9)
    one, two = _traces_at(monkeypatch, boltzmann_ensemble(CO2, 293.0), PulseSpec(30.0), (1, 2))
    assert 0.0 < np.max(np.abs(one - two)) <= 2e-8 * np.max(np.abs(two))


def test_rkn_splitting_is_fourth_order(monkeypatch):
    # on the 0 K chain at 30 TW/cm^2, against 16 times the rule's steps,
    # going from 2 to 4 times the steps shrinks the trace error 14-fold; a
    # mistyped coefficient leaves a 2nd-order step (4-fold) or none
    two, four, ref = _traces_at(monkeypatch, GROUND, PulseSpec(30.0), (2, 4, 16))
    assert np.max(np.abs(two - ref)) >= 10.0 * np.max(np.abs(four - ref)) > 0.0


def test_step_rule_holds_strong_kicks_at_zero_temperature(monkeypatch):
    # the rule counts no kick strength: at 0 K, 30 TW/cm^2 (xi = 13) its trace
    # is within 1e-7 of the peak of one at 4 times the steps (1.3e-8; Yoshida's
    # triple jump under its own rule gave 7.8e-7)
    one, four = _traces_at(monkeypatch, GROUND, PulseSpec(30.0), (1, 4))
    assert np.max(np.abs(one - four)) <= 1e-7 * np.max(np.abs(four))


def test_step_rule_holds_the_lattice(monkeypatch):
    # the lattice runs the chain's rule: at 0 K, 30 TW/cm^2 with A^2 = 2/3
    # both axes' traces are within 1e-7 of their peaks of the traces at 4
    # times the steps (6.3e-9 on x and 7.7e-9 on y)
    times = revival_time_grid(CO2, 2048, t_start=0.5)
    steps = dynamics._rkn_steps
    traces = []
    for f in (1, 4):
        monkeypatch.setattr(dynamics, "_rkn_steps", lambda *args, f=f: f * steps(*args))
        cs = elliptic_tdse_ensemble(CO2, GROUND, elliptic_pulse(30.0, 2 / 3, 1 / 3))
        assert cs.norm_deviation() < 1e-12
        traces.append([reconstruct(fourier_decompose(cs, axis), times).values for axis in "xy"])
    for one, four in zip(*traces):
        assert np.max(np.abs(one - four)) <= 1e-7 * np.max(np.abs(four))


def _trace_chain_runs(monkeypatch, excess):
    # a chain run builds a table of one phase per kick and level, at most 40 B
    # an entry as it is built (real phases, numpy's complex cast of them and
    # the exponentials); one that kept its step history would also hold a
    # state matrix per kick, so twice the kicks may add no more than the
    # longer table and one state matrix, for every block of a stack
    steps = dynamics._chain_steps

    def peak(*args):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        amps = steps(*args)
        return amps, tracemalloc.get_traced_memory()[1] - start

    def traced(evals, evecs, rhs, kicks, free):
        amps, one = peak(evals, evecs, rhs, kicks, free)
        _, two = peak(evals, evecs, rhs, np.tile(kicks, 2), [*free, free[0], *free])
        n, k, m = rhs.shape[-2], rhs.shape[-1] // 2, math.prod(rhs.shape[:-2])
        excess.append((two - one - 40 * m * n * len(kicks)) / (16 * m * n * k) - 1)
        return amps

    monkeypatch.setattr(dynamics, "_chain_steps", traced)


@pytest.mark.parametrize("propagate", [
    lambda: tdse_ensemble(CO2, boltzmann_ensemble(CO2, 60.0), PulseSpec(30.0)),
    lambda: elliptic_tdse_ensemble(CO2, boltzmann_ensemble(CO2, 10.0), elliptic_pulse(10.0, 0.5, 0.5)),
], ids=["linear", "elliptic"])
def test_tdse_keeps_no_step_history(monkeypatch, propagate):
    # both routes run the same stepper: the chains run by run, the lattice
    # sector by sector
    excess = []
    _trace_chain_runs(monkeypatch, excess)
    tracemalloc.start()
    try:
        propagate()
    finally:
        tracemalloc.stop()
    assert excess and max(excess) <= 0


def test_lattice_size_counts_the_basis():
    for j_max in (2, 3, 10, 31):
        for jp in (0, 1):
            for mp in (0, 1):
                assert dynamics._lattice_size(j_max, jp, mp) == len(JMBasis(j_max, jp, mp))


def test_elliptic_working_set_bounds_the_peak_allocation(monkeypatch):
    # the groups run one after another: the estimate counts every group's
    # result plus the largest sector's stepper arrays: its operator and
    # eigenvectors, three free propagators and their build's two
    # temporaries, the kick phase table and 3 state matrices
    estimates = []
    check = dynamics.check_working_set
    monkeypatch.setattr(dynamics, "check_working_set",
                        lambda nbytes, what: estimates.append(nbytes) or check(nbytes, what))
    dynamics.clear_caches()
    pulse = elliptic_pulse(10.0, 2 / 3, 1 / 3)
    tracemalloc.start()
    try:
        cs = elliptic_tdse_ensemble(CO2, boltzmann_ensemble(CO2, 20.0), pulse)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    shapes = [b.amplitudes.shape for b in cs.blocks]
    assert len(shapes) == 2
    # the + sector, the larger, holds a group's M >= 0 sites
    halves = [dynamics._reflection_sectors(b.basis)[0][0].shape[1] for b in cs.blocks]
    kicks = 6 * dynamics._rkn_steps(pulse, CO2, cs.j_max) + 1
    assert estimates == [sum(16 * n * k for n, k in shapes)
                         + max(16 * (6 * h * h + 3 * h * k) + 40 * kicks * h
                               for h, (_, k) in zip(halves, shapes))]
    assert peak <= estimates[0]


def test_linear_working_set_bounds_the_peak_allocation(monkeypatch):
    # the stepper runs one run of equal-shape blocks at a time: the estimate
    # counts every block's cached eigenvectors, result and gather index of
    # its first kick plus the costliest run's stepper arrays, for each of its
    # blocks three free propagators and their build's two temporaries, the
    # kick phase table and 3 state vectors
    estimates = []
    check = dynamics.check_working_set
    monkeypatch.setattr(dynamics, "check_working_set",
                        lambda nbytes, what: estimates.append(nbytes) or check(nbytes, what))
    dynamics.clear_caches()
    pulse = PulseSpec(30.0)
    tracemalloc.start()
    try:
        cs = tdse_ensemble(CO2, boltzmann_ensemble(CO2, 60.0), pulse)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sizes = [b.amplitudes.shape for b in cs.blocks]
    kicks = 6 * dynamics._rkn_steps(pulse, CO2, cs.j_max) + 1
    assert estimates == [sum(8 * n * n + 20 * n * k for n, k in sizes) + 8 * dynamics.GATHER_CHUNK
                         + 8 * max(n for n, _ in sizes) ** 2
                         + max(len(list(run)) * (16 * (5 * n * n + 3 * n * k) + 40 * kicks * n)
                               for (n, k), run in itertools.groupby(sizes))]
    assert peak <= estimates[0]


def test_chain_tdse_leaves_no_state():
    # after a propagation its result, the cached chain eigendecompositions
    # and the chain layout with the index of its gathered first kick remain,
    # as after the zero-width step: no kick phases, free propagators or state
    # vectors outlive the stepper
    ens = boltzmann_ensemble(CO2, 60.0)
    pulse = PulseSpec(30.0)

    def kept(propagate):
        dynamics.clear_caches()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cs = propagate()
            gc.collect()
            return cs, tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    tdse_ensemble(CO2, ens, pulse)  # numpy's lazily built tables are not the stepper's
    cs, tdse = kept(lambda: tdse_ensemble(CO2, ens, pulse))
    _, kick = kept(lambda: kick_ensemble(CO2, ens, cs.xi, cs.j_max, reference_time=pulse.t0_ps))
    # ~1 MB each; the largest block's state vector alone is 16.6 kB
    assert abs(tdse - kick) <= 4096


def test_chain_cache_keeps_only_chains_within_its_share_of_the_budget(monkeypatch):
    # a 0 K kick at xi = 300 needs one chain of 606 levels, whose 2.9 MB of
    # eigenvectors exceed a 32 MB budget's share of 2 MB per cached layout;
    # xi = 2 needs 10 levels
    monkeypatch.setattr(dynamics, "MAX_WORKING_SET_BYTES", dynamics.LAYOUT_CACHE_SIZE * 2e6)
    dynamics.clear_caches()
    strong = kick_ensemble(CO2, GROUND, 300.0)
    assert len(strong.blocks[0].js) == 606
    assert strong.norm_deviation() < 1e-9
    assert not dynamics._LAYOUTS
    weak = kick_ensemble(CO2, GROUND, 2.0)
    assert list(dynamics._LAYOUTS) == [(GROUND.chains, weak.j_max)]
    assert weak.chains.layout is dynamics._LAYOUTS[GROUND.chains, weak.j_max]


def test_zero_kick_builds_no_eigendecomposition():
    dynamics.clear_caches()
    cs = kick_ensemble(CO2, boltzmann_ensemble(CO2, 30.0), 0.0)
    assert "eigen" not in vars(cs.chains.layout)
    kick_ensemble(CO2, boltzmann_ensemble(CO2, 30.0), 1.0, cs.j_max)
    assert "eigen" in vars(cs.chains.layout)


def test_clear_caches_empties_every_cache_of_the_sudden_and_fit_path():
    cs = kick_ensemble(CO2, boltzmann_ensemble(CO2, 30.0), 3.0)
    reconstruct(fourier_decompose(cs, "y"), revival_time_grid(CO2, 64))
    assert dynamics._LAYOUTS and observables._PHASES and rotor._chain_groups.cache_info().currsize
    dynamics.clear_caches()
    assert not dynamics._LAYOUTS and not observables._PHASES
    assert rotor._chain_groups.cache_info().currsize == 0


def test_working_set_budget_raises_before_propagating(monkeypatch):
    ens = boltzmann_ensemble(CO2, 30.0)
    pulse = PulseSpec(30.0)
    # any propagation would fail: both TDSE routes run the chain stepper
    monkeypatch.setattr(dynamics, "_chain_steps", None)
    # the 30 K TDSE needs about 1.0 MB
    monkeypatch.setattr(dynamics, "MAX_WORKING_SET_BYTES", 5e5)
    for propagate in (
        lambda: kick_ensemble(CO2, ens, 50.0),
        lambda: tdse_ensemble(CO2, ens, pulse),
        lambda: elliptic_tdse_ensemble(CO2, ens, elliptic_pulse(30.0, 0.5, 0.5)),
    ):
        with pytest.raises(ValueError, match="GB of working memory, above the budget of 0.0005 GB"):
            propagate()


def test_working_set_budget_checks_each_regrow(monkeypatch):
    # a basis sized too small for the kick regrows once, from 30 to 55
    monkeypatch.setattr(dynamics, "suggest_j_max", lambda j_thermal, xi: 30)
    checks = []
    check = dynamics.check_working_set
    monkeypatch.setattr(dynamics, "check_working_set",
                        lambda nbytes, what: checks.append((what, nbytes)) or check(nbytes, what))
    ens = boltzmann_ensemble(CO2, 30.0)
    assert kick_ensemble(CO2, ens, 3.0).j_max == 55
    (_, small), (_, large) = checks
    monkeypatch.setattr(dynamics, "MAX_WORKING_SET_BYTES", (small + large) / 2)
    with pytest.raises(ValueError, match="j_max=55"):
        kick_ensemble(CO2, ens, 3.0)


def test_elliptic_ensemble_folded_weights():
    ens = boltzmann_ensemble(CO2, 20.0)
    cs = elliptic_tdse_ensemble(CO2, ens, elliptic_pulse(3.0, 0.5, 0.5))
    assert cs.kind == "jm"
    assert sum(ch.weight for ch in cs.channels) == pytest.approx(1.0, abs=1e-12)
    for ch in cs.channels:
        assert abs(np.linalg.norm(ch.amplitudes) - 1.0) < 1e-8
        assert ch.js is ch.basis.j_of


def test_kick_blocks_match_dense_expm():
    ens = boltzmann_ensemble(CO2, 60.0)
    cs = kick_ensemble(CO2, ens, 6.0)
    views = cs.channels
    assert sorted((ch.j0, ch.m0, ch.weight) for ch in views) == sorted(
        (j0, abs(m0), w) for j0, m0, w in ens.channels
    )
    dense = {m: _dense_kick(cs.xi, m, cs.j_max) for m in {ch.m0 for ch in views}}
    for ch in views:
        want = dense[ch.m0][ch.js - ch.m0, ch.j0 - ch.m0]
        assert np.max(np.abs(ch.amplitudes - want)) <= 1e-13


def _per_channel_edge_leak(cs):
    leak = 0.0
    for ch in cs.channels:
        leak += ch.weight * float(np.sum(np.abs(ch.amplitudes[ch.js >= cs.j_max - 1]) ** 2))
    return leak


def test_block_edge_leak_equals_per_channel_sum():
    ens = boltzmann_ensemble(CO2, 30.0)
    # an explicit basis just large enough keeps the edge population measurable
    chain = kick_ensemble(CO2, ens, 3.0, j_max=34)
    lattice = elliptic_tdse_ensemble(CO2, ens, elliptic_pulse(3.0, 0.5, 0.5), j_max=30)
    for cs in (chain, lattice):
        want = _per_channel_edge_leak(cs)
        assert 0.0 < want <= 1e-8
        assert cs.edge_leak() == pytest.approx(want, rel=1e-12)
