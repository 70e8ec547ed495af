"""Sudden-kick and TDSE propagation: unitarity, selection rules, guards.

Reference results come from dense matrix exponentials of the rotor's cos^2
theta matrices and from the drivers run on single-channel ensembles.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from rotorgrating import dynamics
from rotorgrating.dynamics import (
    BasisTooSmallError,
    elliptic_tdse_ensemble,
    kick_ensemble,
    sudden_ensemble,
    tdse_ensemble,
)
from rotorgrating.field import effective_area, elliptic_pulse, linear_pulse
from rotorgrating.observables import alignment_trace
from rotorgrating.rotor import (
    CO2,
    BasisSpec,
    JMBasis,
    ThermalEnsemble,
    boltzmann_ensemble,
    cos2theta_axis_matrix,
    cos2theta_matrix,
    cos2theta_offdiag,
)

GROUND = boltzmann_ensemble(CO2, 0.0)  # the single channel |0,0>


def _dense_kick(xi, m, j_max):
    """exp(i xi cos^2 theta) on the full fixed-M ladder J = |m| .. j_max, both parities."""
    return scipy.linalg.expm(1j * xi * cos2theta_matrix(BasisSpec(j_max, m)))


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


def test_elliptic_kick_rejected_on_chain():
    # fixed-M chains quantize along a linear field; elliptic pumps need the lattice
    pulse = elliptic_pulse(1.0, 0.5, 0.5)
    with pytest.raises(ValueError, match="linear polarization"):
        sudden_ensemble(CO2, GROUND, pulse)
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
    chain = tdse_ensemble(CO2, ens, linear_pulse(2.0, tau_fwhm_ps=0.05), j_max=24)
    assert np.max(np.abs(_level_populations(lattice) - _level_populations(chain))) < 1e-10


# ---------------------------------------------------------------------------
# TDSE propagation
# ---------------------------------------------------------------------------

def test_tdse_approaches_sudden_for_short_pulse():
    pulse = linear_pulse(2.0, tau_fwhm_ps=0.01)
    sudden = sudden_ensemble(CO2, GROUND, pulse, j_max=30)
    tdse = tdse_ensemble(CO2, GROUND, pulse, j_max=30)
    pops_s = np.abs(sudden.blocks[0].amplitudes) ** 2
    pops_t = np.abs(tdse.blocks[0].amplitudes) ** 2
    assert np.max(np.abs(pops_s - pops_t)) < 1e-6
    assert tdse.norm_deviation() < 1e-9


def test_elliptic_tdse_reduces_to_linear():
    we = elliptic_tdse_ensemble(
        CO2, GROUND, elliptic_pulse(2.0, 0.0, 1.0, tau_fwhm_ps=0.05), j_max=14
    )
    wl = tdse_ensemble(CO2, GROUND, linear_pulse(2.0, tau_fwhm_ps=0.05), j_max=14)
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


def test_sudden_ensemble_matches_kick_ensemble():
    ens = boltzmann_ensemble(CO2, 30.0)
    pulse = linear_pulse(4.0)
    direct = kick_ensemble(CO2, ens, effective_area(pulse, CO2))
    via_pulse = sudden_ensemble(CO2, ens, pulse)
    assert via_pulse.xi == pytest.approx(direct.xi, rel=1e-15)
    for a, b in zip(direct.channels, via_pulse.channels):
        assert np.allclose(a.amplitudes, b.amplitudes, atol=1e-14)


def test_tdse_ensemble_deterministic():
    ens = boltzmann_ensemble(CO2, 20.0)
    pulse = linear_pulse(5.0)
    one = tdse_ensemble(CO2, ens, pulse)
    two = tdse_ensemble(CO2, ens, pulse)
    for a, b in zip(one.channels, two.channels):
        assert np.array_equal(a.amplitudes, b.amplitudes)


def test_tdse_ensemble_matches_one_channel_solves(monkeypatch):
    # the stacked Raman-phase system against each channel solved alone; a
    # step cap below the adaptive choice gives every solve the same steps, so
    # they agree to roundoff
    solve = dynamics.solve_ivp
    monkeypatch.setattr(dynamics, "solve_ivp",
                        lambda fun, t_span, y0, **kwargs: solve(fun, t_span, y0, **kwargs, max_step=0.01))
    ens = boltzmann_ensemble(CO2, 30.0)
    pulse = linear_pulse(3.0)
    cs = tdse_ensemble(CO2, ens, pulse)
    for ch in cs.channels:
        alone = ThermalEnsemble(ens.temperature, ((ch.j0, ch.m, 1.0),))
        (block,) = tdse_ensemble(CO2, alone, pulse, j_max=cs.j_max).blocks
        assert np.array_equal(block.js, ch.js)
        assert np.max(np.abs(block.amplitudes[:, 0] - ch.amplitudes)) <= 1e-12


@pytest.mark.parametrize("propagate", [
    lambda: tdse_ensemble(CO2, boltzmann_ensemble(CO2, 60.0), linear_pulse(30.0)),
    lambda: elliptic_tdse_ensemble(CO2, boltzmann_ensemble(CO2, 20.0), elliptic_pulse(10.0, 0.5, 0.5)),
], ids=["linear", "elliptic"])
def test_tdse_keeps_no_step_history(monkeypatch, propagate):
    # a solve holds DOP853's stages, the last step's dense output and the
    # result, 36 state vectors; a solve that keeps its step history holds
    # one more per step (126 and 70 here)
    peaks = []
    solve = dynamics.solve_ivp

    def traced(fun, t_span, y0, **kwargs):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sol = solve(fun, t_span, y0, **kwargs)
        peaks.append((tracemalloc.get_traced_memory()[1] - start) / (16 * len(y0)))
        return sol

    monkeypatch.setattr(dynamics, "solve_ivp", traced)
    tracemalloc.start()
    try:
        propagate()
    finally:
        tracemalloc.stop()
    assert peaks and max(peaks) <= 45


def test_tdse_final_state_equals_full_history_solve(monkeypatch):
    last = []
    solve = dynamics.solve_ivp

    def both(fun, t_span, y0, **kwargs):
        full = solve(fun, t_span, y0, **{k: v for k, v in kwargs.items() if k != "t_eval"})
        last.append(full.y[:, -1].copy())
        return solve(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(dynamics, "solve_ivp", both)
    cs = tdse_ensemble(CO2, boltzmann_ensemble(CO2, 30.0), linear_pulse(30.0))
    (want,) = last
    assert np.array_equal(np.concatenate([b.amplitudes.T.ravel() for b in cs.blocks]), want)
    cs = elliptic_tdse_ensemble(CO2, boltzmann_ensemble(CO2, 10.0), elliptic_pulse(10.0, 0.5, 0.5))
    assert len(last) == 1 + len(cs.blocks)
    for b, want in zip(cs.blocks, last[1:]):
        assert np.array_equal(b.amplitudes.ravel(), want)


def test_lattice_size_counts_the_basis():
    for j_max in (2, 3, 10, 31):
        for jp in (0, 1):
            for mp in (0, 1):
                assert dynamics._lattice_size(j_max, jp, mp) == len(JMBasis(j_max, jp, mp))


def test_elliptic_working_set_bounds_the_peak_allocation(monkeypatch):
    # the groups integrate one after another: the estimate counts every
    # group's result plus the solver state of the largest group
    estimates = []
    check = dynamics._check_working_set
    monkeypatch.setattr(dynamics, "_check_working_set",
                        lambda nbytes, j_max: estimates.append(nbytes) or check(nbytes, j_max))
    dynamics.clear_caches()
    tracemalloc.start()
    try:
        cs = elliptic_tdse_ensemble(CO2, boltzmann_ensemble(CO2, 20.0), elliptic_pulse(10.0, 2 / 3, 1 / 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dims = [b.amplitudes.size for b in cs.blocks]
    assert len(dims) == 2
    assert estimates == [16 * (sum(dims) + (dynamics.TDSE_STATE_VECTORS - 1) * max(dims))]
    assert peak <= estimates[0]


def test_chain_cache_keeps_only_chains_within_its_share_of_the_budget():
    # a 0 K kick at xi = 300 needs one chain of 606 levels, whose 2.9 MB of
    # eigenvectors exceed 2 GB / 1024 cache entries; xi = 2 needs 10 levels
    dynamics.clear_caches()
    strong = kick_ensemble(CO2, GROUND, 300.0)
    assert len(strong.blocks[0].js) == 606
    assert strong.norm_deviation() < 1e-9
    assert dynamics._chain_eig.cache_info().currsize == 0
    kick_ensemble(CO2, GROUND, 2.0)
    assert dynamics._chain_eig.cache_info().currsize == 1


def test_working_set_budget_raises_before_propagating(monkeypatch):
    ens = boltzmann_ensemble(CO2, 30.0)
    pulse = linear_pulse(30.0)
    monkeypatch.setattr(dynamics, "solve_ivp", None)  # any propagation would fail
    monkeypatch.setattr(dynamics, "MAX_WORKING_SET_BYTES", 1e6)
    for propagate in (
        lambda: kick_ensemble(CO2, ens, 50.0),
        lambda: tdse_ensemble(CO2, ens, pulse),
        lambda: elliptic_tdse_ensemble(CO2, ens, elliptic_pulse(30.0, 0.5, 0.5)),
    ):
        with pytest.raises(ValueError, match="GB of working memory, above the budget of 0.001 GB"):
            propagate()


def test_working_set_budget_checks_each_regrow(monkeypatch):
    # a basis sized too small for the kick regrows once, from 30 to 55
    monkeypatch.setattr(dynamics, "suggest_j_max", lambda j_thermal, xi: 30)
    checks = []
    check = dynamics._check_working_set
    monkeypatch.setattr(dynamics, "_check_working_set",
                        lambda nbytes, j_max: checks.append((j_max, nbytes)) or check(nbytes, j_max))
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


def test_kick_blocks_match_dense_expm():
    ens = boltzmann_ensemble(CO2, 60.0)
    cs = kick_ensemble(CO2, ens, 6.0)
    views = cs.channels
    assert sorted((ch.j0, ch.m, ch.weight) for ch in views) == sorted(
        (j0, abs(m0), w) for j0, m0, w in ens.channels
    )
    dense = {m: _dense_kick(cs.xi, m, cs.j_max) for m in {ch.m for ch in views}}
    for ch in views:
        want = dense[ch.m][ch.js - ch.m, ch.j0 - ch.m]
        assert np.max(np.abs(ch.amplitudes - want)) <= 1e-13


def _per_channel_edge_leak(cs):
    leak = 0.0
    for ch in cs.channels:
        j_of = ch.js if cs.kind == "chain" else ch.basis.j_of
        leak += ch.weight * float(np.sum(np.abs(ch.amplitudes[j_of >= cs.j_max - 1]) ** 2))
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
