"""Sudden-kick and TDSE propagation: unitarity, selection rules, guards.

Reference results come from dense matrix exponentials of the rotor's cos^2
theta matrices and from the drivers run on single-channel ensembles.
"""

import gc
import itertools
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from conftest import trace_propagations
from rotorgrating import dynamics, observables
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
    MoleculeSpec,
    ThermalEnsemble,
    boltzmann_ensemble,
    cos2theta_axis_matrix,
    cos2theta_diagonal,
    cos2theta_offdiag,
    suggest_j_max,
)

GROUND = boltzmann_ensemble(CO2, 0.0)  # the single channel |0,0>


def _dense_kick(xi, m, j_max):
    """exp(i xi cos^2 theta) on the full fixed-M ladder J = |m| .. j_max, both parities."""
    js = np.arange(abs(m), j_max + 1)
    off = cos2theta_offdiag(js[:-2], m)
    ladder = np.diag(cos2theta_diagonal(js, m)) + np.diag(off, 2) + np.diag(off, -2)
    return scipy.linalg.expm(1j * xi * ladder)


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
    # these chains quantize along y: a pump along x is linear too, but its
    # field-axis response is not the y trace, so only elliptic_tdse_ensemble
    # takes it, on chains quantized along x
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
        rows, cols, _ = cos2theta_axis_matrix(full, axis)
        assert np.all((full.j_of[rows] - full.j_of[cols]) % 2 == 0)
        assert np.all((full.m_of[rows] - full.m_of[cols]) % 2 == 0)
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
    lattice = dynamics._lattice_propagation(CO2, ens, elliptic_pulse(2.0, 0.0, 1.0, tau_fwhm_ps=0.05), 24)
    chain = tdse_ensemble(CO2, ens, PulseSpec(2.0, tau_fwhm_ps=0.05), j_max=24)
    assert np.max(np.abs(lattice.level_populations() - chain.level_populations())) < 1e-10


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
    # the lattice, which elliptic_tdse_ensemble keeps for elliptic pumps
    we = dynamics._lattice_propagation(CO2, GROUND, elliptic_pulse(2.0, 0.0, 1.0, tau_fwhm_ps=0.05), 14)
    wl = tdse_ensemble(CO2, GROUND, PulseSpec(2.0, tau_fwhm_ps=0.05), j_max=14)
    assert np.max(np.abs(we.level_populations() - wl.level_populations())) < 1e-8


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

def test_chain_eigenpairs_agree_with_the_tridiagonal_solver():
    # one dense eigh per run of equal-size chains against scipy's
    # tridiagonal solver, chain by chain, one-site chains at the top of the
    # thermal basis included: eigenvalues within 1e-13 of the spectral norm,
    # and V Lambda V^T the tridiagonal within 1e-13
    for temperature, j_max in ((0.0, 2), (30.0, 26), (293.0, 148)):
        dynamics.clear_caches()
        ens = boltzmann_ensemble(CO2, temperature)
        layout = dynamics._chain_layout(ens, j_max, dynamics._chains(ens))
        evals, evecs = layout.eigen
        diag, _, coupling = layout.operator
        first, lows, square = (dynamics._starts(x) for x in (layout.sizes, layout.sizes - 1, layout.sizes ** 2))
        if j_max == ens.j_thermal_max:  # the top chains hold one site
            assert layout.sizes.min() == 1
        for b, n in enumerate(layout.sizes.tolist()):
            d, e = diag[first[b]:first[b + 1]], coupling[lows[b]:lows[b + 1]] / 2.0
            want = scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True)
            lam, vecs = evals[first[b]:first[b + 1]], evecs[square[b]:square[b + 1]].reshape(n, n, order="F")
            assert np.max(np.abs(lam - want)) <= 1e-13 * np.max(np.abs(want))
            assert np.max(np.abs((vecs * lam) @ vecs.T - (np.diag(d) + np.diag(e, 1) + np.diag(e, -1)))) <= 1e-13


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
    # 30 TW/cm^2 trace by at most 2e-8 of its transient peak (5.3e-9 at 18 steps)
    one, two = _traces_at(monkeypatch, boltzmann_ensemble(CO2, 293.0), PulseSpec(30.0), (1, 2))
    assert 0.0 < np.max(np.abs(one - two)) <= 2e-8 * np.max(np.abs(two))


def test_rkn_splitting_is_fourth_order(monkeypatch):
    # on the 0 K chain at 30 TW/cm^2, against 16 times the rule's steps,
    # going from 2 to 4 times the steps shrinks the trace error 13-fold; a
    # mistyped coefficient leaves a 2nd-order step (4-fold) or none
    two, four, ref = _traces_at(monkeypatch, GROUND, PulseSpec(30.0), (2, 4, 16))
    assert np.max(np.abs(two - ref)) >= 10.0 * np.max(np.abs(four - ref)) > 0.0


def test_step_rule_holds_strong_kicks_at_zero_temperature(monkeypatch):
    # at 0 K, 30 TW/cm^2 (xi = 13), with no thermal average to soften it, the
    # rule's 18 steps leave the trace within 1e-7 of the peak of one at 4 times
    # the steps (1.4e-8; Yoshida's triple jump under its own rule gave 7.8e-7)
    one, four = _traces_at(monkeypatch, GROUND, PulseSpec(30.0), (1, 4))
    assert np.max(np.abs(one - four)) <= 1e-7 * np.max(np.abs(four))


def test_step_rule_holds_the_lattice(monkeypatch):
    # the lattice runs the chain's rule: at 0 K, 30 TW/cm^2 with A^2 = 2/3
    # both axes' traces are within 1e-7 of their peaks of the traces at 4
    # times the steps (3.5e-9 on x and 5.5e-9 on y)
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
    # longer table and one state matrix, for every block of a stack.  The
    # traced memory is the process's, so the runs go one at a time, on one
    # worker
    monkeypatch.setattr(dynamics, "_workers", lambda: 1)
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
    # the groups go to the workers: the estimate counts what every group
    # keeps, its result, basis and x and y operators, plus, for as many of
    # the groups as there are workers, those with the most, a running
    # group's coupling and sectors and its larger sector's stepper arrays:
    # its operator and eigenvectors, three free propagators and their
    # build's two temporaries, the kick phase table and 3 state matrices,
    # plus the schedule.  Unsized, the lattice takes its basis from the tail
    # bound (tail_j_max), with no kick run: it checks and runs that basis
    # alone, and its peak stays under its estimate
    estimates, runs = trace_propagations(monkeypatch)
    pulse = elliptic_pulse(10.0, 2 / 3, 1 / 3)
    ens = boltzmann_ensemble(CO2, 20.0)
    kick_ensemble(CO2, ens, 1.0)  # numpy's lazily built tables are not the lattice's
    dynamics.clear_caches()
    estimates.clear()
    runs.clear()
    tracemalloc.start()
    try:
        cs = elliptic_tdse_ensemble(CO2, ens, pulse)
    finally:
        tracemalloc.stop()
    shapes = [b.amplitudes.shape for b in cs.blocks]
    assert len(shapes) == 2
    # the + sector, the larger, holds a group's M >= 0 sites
    halves = [len(dynamics._reflection_sectors(b.basis)[0][2]) for b in cs.blocks]
    kicks = 6 * dynamics._rkn_steps(pulse, CO2, cs.j_max) + 1
    sites = 8 * (cs.j_max + 1) * (2 * cs.j_max + 1)
    running = sorted(16 * (6 * h * h + 3 * h * k) + 40 * kicks * h + 120 * n for h, (n, k) in zip(halves, shapes))
    assert estimates == [sum(16 * n * k + 448 * n + sites for n, k in shapes)
                         + sum(running[-dynamics._workers():]) + 48 * kicks]
    assert ens.j_thermal_max < cs.j_max == dynamics.tail_j_max(ens, cs.xi, dynamics.LATTICE_START_TOL)
    assert [run.estimate for run in runs] == estimates and runs[-1].cs is cs
    for run in runs:
        assert run.peak - run.before <= run.estimate


def test_linear_working_set_bounds_the_peak_allocation(monkeypatch):
    # the estimate counts every block's cached eigenvectors, result and gather
    # index, the layout's per-row, per-column and per-block arrays, 16 kB
    # that a propagation of any size takes, the eigensolver's copies of as many
    # of the largest chains as there are workers, each solving one chain at
    # a time, and the kick kernel's arrays on each run that runs at once:
    # its gathered eigenvector entries, its phases as they are built and its
    # right-hand sides, twice over for numpy's buffers.  The sudden kick
    # runs one run at a time; the stepper's workers each run one run of
    # equal-shape blocks at a time and it adds the schedule and the arrays
    # of as many of the costliest runs, for each of their blocks three free
    # propagators and their build's two temporaries, the kick phase table
    # and 3 state vectors.  Without the 16 kB, a kick of one chain of one
    # column peaked 10 kB above its estimate
    estimates = []
    check = dynamics.check_working_set
    monkeypatch.setattr(dynamics, "check_working_set",
                        lambda nbytes, what: estimates.append(nbytes) or check(nbytes, what))

    def estimate(sizes, kicks):
        running = 1 if kicks == 1 else dynamics._workers()
        runs = [(len(list(run)) * n, k) for (n, k), run in itertools.groupby(sizes)]  # rows and columns
        kernel = sorted(48 * rows * k + 40 * rows for rows, k in runs)
        total = (sum(8 * n * n + 20 * n * k + 40 * n + 48 * k + 576 for n, k in sizes) + 16384
                 + sum(kernel[-running:]) + sum(sorted(8 * n * n for n, _ in sizes)[-dynamics._workers():]))
        if kicks > 1:
            stacks = sorted(len(list(run)) * (16 * (5 * n * n + 3 * n * k) + 40 * kicks * n)
                            for (n, k), run in itertools.groupby(sizes))
            total += sum(stacks[-running:]) + 48 * kicks
        return total

    def traced_peak(propagate):
        estimates.clear()
        dynamics.clear_caches()
        tracemalloc.start()
        try:
            cs = propagate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return cs, [b.amplitudes.shape for b in cs.blocks], peak

    pulse = PulseSpec(30.0)
    cs, sizes, peak = traced_peak(lambda: tdse_ensemble(CO2, boltzmann_ensemble(CO2, 60.0), pulse))
    assert estimates == [estimate(sizes, 6 * dynamics._rkn_steps(pulse, CO2, cs.j_max) + 1)]
    assert peak <= estimates[0]
    for temperature, xi, j_max in ((293.0, 13.0, 148), (60.0, 8.0, None), (293.0, 3.0, None)):
        ens = boltzmann_ensemble(CO2, temperature)
        kick_ensemble(CO2, ens, xi, j_max)  # numpy's lazily built tables are not the kick's
        cs, sizes, peak = traced_peak(lambda: kick_ensemble(CO2, ens, xi, j_max))
        assert estimates == [estimate(sizes, 1)], temperature
        assert peak <= estimates[0], (temperature, xi)


def test_chain_tdse_leaves_no_state():
    # after a propagation its result, the cached chain eigendecompositions
    # and the chain layout with the index of its gathered first kick remain,
    # as after the zero-width step: no kick phases, free propagators or state
    # stacks outlive the stepper.  Compared as the numpy buffers of at least
    # one block's state that survive each call: the interpreter's own small
    # allocations move the traced total by a few kB either way
    ens = boltzmann_ensemble(CO2, 60.0)
    pulse = PulseSpec(30.0)

    def surviving_buffers(propagate):
        dynamics.clear_caches()
        gc.collect()
        tracemalloc.start()
        try:
            cs = propagate()
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        numpy_only = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
        return cs, [trace.size for trace in snapshot.filter_traces([numpy_only]).traces]

    tdse_ensemble(CO2, ens, pulse)  # numpy's lazily built tables are not the stepper's
    cs, tdse = surviving_buffers(lambda: tdse_ensemble(CO2, ens, pulse))
    _, kick = surviving_buffers(lambda: kick_ensemble(CO2, ens, cs.xi, cs.j_max,
                                                      reference_time=pulse.t0_ps))
    # the smallest block's n x k amplitudes, 528 B; the last run of blocks'
    # state stack is 1,056 B
    smallest = min(b.amplitudes.nbytes for b in cs.blocks)
    assert sorted(n for n in tdse if n >= smallest) == sorted(n for n in kick if n >= smallest)


def test_a_failed_run_reaches_the_caller_and_leaves_no_thread(monkeypatch):
    # three workers each take a run while OpenBLAS is held to one thread;
    # one worker thread raises while the other two are still running: the
    # caller gets that exception itself, once every worker is joined, and
    # OpenBLAS gets back the thread count it had, here set to 2
    error, arrived, lock = RuntimeError("a run failed"), threading.Barrier(3, timeout=10), threading.Lock()
    takers, raisers, held, compose = [], [], [], dynamics._compose

    def failing(*args):
        held.append([get() for get, _ in dynamics._openblas()])
        takers.append(threading.current_thread())
        arrived.wait()
        with lock:
            if threading.current_thread() is not threading.main_thread() and not raisers:
                raisers.append(threading.current_thread())
                raise error
        # the caller's own run ends after the error, the other worker's later
        time.sleep(0.2 if threading.current_thread() is threading.main_thread() else 0.4)
        return compose(*args)

    monkeypatch.setattr(dynamics, "_compose", failing)
    monkeypatch.setattr(dynamics, "_workers", lambda: 3)
    libraries = dynamics._openblas()
    counts = [get() for get, _ in libraries]
    threads = threading.active_count()
    try:
        for _, put in libraries:
            put(2)
        with pytest.raises(RuntimeError) as caught:
            tdse_ensemble(CO2, boltzmann_ensemble(CO2, 60.0), PulseSpec(30.0))
        assert caught.value is error and len(set(takers)) == 3 and len(raisers) == 1
        assert threading.active_count() == threads
        assert [get() for get, _ in libraries] == [2] * len(libraries)
    finally:
        for (_, put), count in zip(libraries, counts):
            put(count)
    assert len(held) == 3 and all(count == 1 for during in held for count in during)


def test_without_openblas_the_runs_take_one_worker(monkeypatch):
    # where no OpenBLAS is found (MKL, Accelerate, another OS) the composed
    # kick runs its runs on the calling thread alone, to the same amplitudes
    ens, pulse = boltzmann_ensemble(CO2, 60.0), PulseSpec(30.0)
    threaded = tdse_ensemble(CO2, ens, pulse)
    workers, on_workers = [], dynamics._on_workers
    monkeypatch.setattr(dynamics, "_openblas", lambda: ())
    monkeypatch.setattr(dynamics, "_on_workers",
                        lambda items, step, count: workers.append(count) or on_workers(items, step, count))
    alone = tdse_ensemble(CO2, ens, pulse)
    assert dynamics._workers() == 1 and workers == [1]
    assert len(alone.layout.runs) > 1 and np.array_equal(alone.amplitudes, threaded.amplitudes)


def test_eigendecompositions_on_three_workers_are_one_workers(monkeypatch):
    # the 293 K layout at j_max 148, simulate-tdse's 85 chains: three
    # workers, each holding its first chain until all three have one, solve
    # them with OpenBLAS held to one thread, each writing its own slices, to
    # the eigenpairs of one worker bit for bit
    ens, eigh = boltzmann_ensemble(CO2, 293.0), np.linalg.eigh
    arrived, solvers, held = threading.Barrier(3, timeout=10), [], []

    def solve(matrix):
        held.append([get() for get, _ in dynamics._openblas()])
        if threading.current_thread() not in solvers:
            solvers.append(threading.current_thread())
            arrived.wait()
        return eigh(matrix)

    layouts = []
    for workers in (1, 3):
        monkeypatch.setattr(dynamics, "_workers", lambda: workers)
        if workers == 3:
            monkeypatch.setattr(np.linalg, "eigh", solve)
        dynamics.clear_caches()
        layouts.append(dynamics._chain_layout(ens, 148, dynamics._chains(ens)))
        layouts[-1].eigen
    one, three = layouts
    assert len(one.sizes) == len(held) == 85 and len(solvers) == 3
    assert all(count == 1 for during in held for count in during)
    assert all(np.array_equal(a, b) for a, b in zip(one.eigen, three.eigen))


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
    key = (GROUND.j0.tobytes(), GROUND.m0.tobytes(), weak.j_max)
    assert list(dynamics._LAYOUTS) == [key]
    assert weak.layout is dynamics._LAYOUTS[key]


def test_ensembles_with_equal_channels_share_one_chain_layout():
    # the cache is keyed by the channels, not by the ensemble object: 59 K and
    # 61 K keep the same 400 levels with other weights, and a copy from the
    # channel tuples is another object again; 30 K keeps fewer levels
    dynamics.clear_caches()
    warm = boltzmann_ensemble(CO2, 59.0)
    first = kick_ensemble(CO2, warm, 2.0)
    for ens in (boltzmann_ensemble(CO2, 61.0), ThermalEnsemble(warm.temperature, warm.channels)):
        assert np.array_equal(ens.j0, warm.j0) and np.array_equal(ens.m0, warm.m0)
        cs = kick_ensemble(CO2, ens, 2.0, first.j_max)
        assert cs.layout is first.layout
        assert np.array_equal(cs.weights, ens.weights[cs.layout.order])
    assert not np.array_equal(boltzmann_ensemble(CO2, 61.0).weights, warm.weights)
    cold = kick_ensemble(CO2, boltzmann_ensemble(CO2, 30.0), 2.0, first.j_max)
    assert cold.layout is not first.layout
    assert len(dynamics._LAYOUTS) == 2


def test_a_kick_at_a_new_basis_reuses_a_cached_grouping(monkeypatch):
    # a chain grouping holds at every j_max: a cached layout of the same
    # channels at another j_max gives it, and the kick matches one grouped
    # afresh bit for bit
    dynamics.clear_caches()
    ens = boltzmann_ensemble(CO2, 30.0)
    first = kick_ensemble(CO2, ens, 2.0)

    def refuse(*args):
        raise AssertionError("the channels were grouped again")

    with monkeypatch.context() as mp:
        mp.setattr(dynamics, "_group_channels", refuse)
        cs = tdse_ensemble(CO2, boltzmann_ensemble(CO2, 30.0), PulseSpec(10.0), first.j_max + 10)
    assert cs.layout is not first.layout and np.array_equal(cs.layout.order, first.layout.order)
    dynamics.clear_caches()
    fresh = tdse_ensemble(CO2, ens, PulseSpec(10.0), first.j_max + 10)
    assert np.array_equal(cs.amplitudes, fresh.amplitudes)


def test_zero_kick_builds_no_eigendecomposition():
    dynamics.clear_caches()
    cs = kick_ensemble(CO2, boltzmann_ensemble(CO2, 30.0), 0.0)
    assert "eigen" not in vars(cs.layout)
    kick_ensemble(CO2, boltzmann_ensemble(CO2, 30.0), 1.0, cs.j_max)
    assert "eigen" in vars(cs.layout)


def test_clear_caches_empties_every_cache_of_the_sudden_and_fit_path():
    cs = kick_ensemble(CO2, boltzmann_ensemble(CO2, 30.0), 3.0)
    reconstruct(fourier_decompose(cs, "y"), revival_time_grid(CO2, 64))
    assert dynamics._LAYOUTS and observables._PHASES
    dynamics.clear_caches()
    assert not dynamics._LAYOUTS and not observables._PHASES


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


@pytest.mark.parametrize("j_max", [None, 40])
@pytest.mark.parametrize("strength", [math.nan, math.inf])
def test_a_kick_that_is_not_finite_is_named_before_any_basis_is_sized(monkeypatch, j_max, strength):
    # the sudden kick, the chain TDSE and the lattice, unsized or on an
    # explicit basis, name the kick strength alone: no sizing rule, budget or
    # step count sees it
    def unsized(*args):
        raise AssertionError("a basis was sized")

    for name in ("suggest_j_max", "tail_j_max", "_check_budgets", "_rkn_steps"):
        monkeypatch.setattr(dynamics, name, unsized)
    ens = boltzmann_ensemble(CO2, 30.0)
    for propagate in (
        lambda: kick_ensemble(CO2, ens, strength, j_max),
        lambda: tdse_ensemble(CO2, ens, PulseSpec(strength), j_max),
        lambda: elliptic_tdse_ensemble(CO2, ens, elliptic_pulse(strength, 0.5, 0.5), j_max),
    ):
        with pytest.raises(ValueError) as failure:
            propagate()
        assert str(failure.value) == f"kick strength must be finite, got {strength}"


def test_a_leaking_edge_fails_on_the_one_basis_sized(monkeypatch):
    # an unsized basis is a contract, as an explicit one is: the sudden
    # kick, the chain TDSE and the elliptic lattice each propagate once, on
    # the basis their sizing rule gives, and name it when its edge leaks
    monkeypatch.setattr(dynamics.ChannelSet, "edge_leak", lambda self: 1.0)
    ens = boltzmann_ensemble(CO2, 30.0)
    pulse, elliptic = PulseSpec(1.0), elliptic_pulse(1.0, 2 / 3, 1 / 3)
    for propagate, j_max in (
        (lambda: kick_ensemble(CO2, ens, 3.0), suggest_j_max(ens.j_thermal_max, 3.0)),
        (lambda: tdse_ensemble(CO2, ens, pulse), suggest_j_max(ens.j_thermal_max, effective_area(pulse, CO2))),
        (lambda: elliptic_tdse_ensemble(CO2, ens, elliptic),
         dynamics.tail_j_max(ens, effective_area(elliptic, CO2), dynamics.LATTICE_START_TOL)),
    ):
        with pytest.MonkeyPatch.context() as mp:
            _, propagations = trace_propagations(mp)
            with pytest.raises(BasisTooSmallError) as failure:
                propagate()
        assert [p.cs.j_max for p in propagations] == [j_max]
        assert str(failure.value) == f"kick populates the basis edge at j_max={j_max}; enlarge j_max"


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


def test_lattice_layout_builds_each_operator_once(monkeypatch):
    # the propagation builds each group's x and y operators; the series of
    # every axis, read twice, reuse them and build each group's z once
    built = []
    build = dynamics.cos2theta_axis_matrix
    monkeypatch.setattr(dynamics, "cos2theta_axis_matrix",
                        lambda basis, axis: built.append((basis, axis)) or build(basis, axis))
    cs = elliptic_tdse_ensemble(CO2, boltzmann_ensemble(CO2, 20.0), elliptic_pulse(3.0, 0.64, 0.36))
    assert built == [(b.basis, axis) for b in cs.blocks for axis in "xy"]
    times = revival_time_grid(CO2, 64)
    for axis in "xyzxyz":
        fourier_decompose(cs, axis)
        alignment_trace(cs, axis, times)
    assert built[2 * len(cs.blocks):] == [(b.basis, "z") for b in cs.blocks]


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
        # the per-J populations hold the whole weight, and their top two shells the edge leak
        pops, total = cs.level_populations(), float(cs.weights.sum())
        assert len(pops) == cs.j_max + 1
        assert abs(pops.sum() - total) <= cs.norm_deviation() * total + 1e-15
        assert pops[cs.j_max - 1:].sum() == pytest.approx(cs.edge_leak(), rel=1e-12)


@pytest.mark.parametrize("axis", "xyz")
def test_level_series_of_chains_out_of_step(axis):
    # a hand-built ensemble whose chains break the Boltzmann pattern: the
    # unfolded pair |2, +-1> puts level 2 twice in one chain, and the odd
    # chain from J = 1 beside the even one from J = 6 skips lines 2 and 4
    # in the lines' index.  Each level's share of the kick still recombines
    # to the kicked set's series
    molecule = MoleculeSpec("random", 0.5, 2.0)
    ens = ThermalEnsemble(30.0, [(2, 1, 0.2), (2, -1, 0.2), (1, 1, 0.3), (6, 6, 0.3)])
    cs = kick_ensemble(molecule, ens, 2.0, j_max=24)
    levels, (constants,), lines, (z,) = dynamics.kick_level_series(ens, [2.0], 24, axis)
    assert levels.tolist() == [1, 2, 6]
    constant, want = cs.series_terms(axis)
    weights = np.array([0.3, 0.4, 0.3])
    scale = np.max(np.abs(want))
    assert abs(constants @ weights - constant) <= 1e-14 * scale
    assert np.max(np.abs(z @ weights - want[lines])) <= 1e-14 * scale
