"""Sudden-kick and TDSE propagation: unitarity, selection rules, guards."""

import numpy as np
import pytest

from rotorgrating.dynamics import (
    BasisTooSmallError,
    PropagationGrid,
    Wavepacket,
    basis_state,
    elliptic_tdse_ensemble,
    kick_chain,
    kick_ensemble,
    propagate_elliptic_tdse,
    propagate_sudden,
    propagate_tdse_linear,
    sudden_ensemble,
    tdse_ensemble,
)
from rotorgrating.field import EffectiveArea, effective_area, elliptic_pulse, linear_pulse
from rotorgrating.rotor import (
    CO2,
    BasisSpec,
    JMBasis,
    boltzmann_ensemble,
    cos2theta_axis_matrix,
    cos2theta_offdiag,
    rotational_omega,
)


def _random_chain_state(basis, seed=0):
    # support confined to the lower third so kicks stay clear of the edge guard
    rng = np.random.default_rng(seed)
    n = len(basis.j_values)
    k = max(4, n // 3)
    amps = np.zeros(n, dtype=complex)
    amps[:k] = rng.normal(size=k) + 1j * rng.normal(size=k)
    amps /= np.linalg.norm(amps)
    return Wavepacket(basis, (int(basis.j_values[0]), basis.m), amps, 0.0)


# ---------------------------------------------------------------------------
# Sudden kick on a fixed-M ladder
# ---------------------------------------------------------------------------

def test_zero_kick_is_identity():
    basis = BasisSpec(20, m=1)
    wp = _random_chain_state(basis, seed=3)
    out = propagate_sudden(wp, EffectiveArea(0.0))
    assert np.array_equal(out.amplitudes, wp.amplitudes)


def test_kick_is_unitary():
    basis = BasisSpec(60, m=2)
    wp = _random_chain_state(basis, seed=5)
    out = propagate_sudden(wp, EffectiveArea(3.0))
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_kick_is_linear():
    basis = BasisSpec(40, m=0)
    a = _random_chain_state(basis, seed=1)
    b = _random_chain_state(basis, seed=2)
    summed = a.amplitudes + b.amplitudes
    scale = np.linalg.norm(summed)
    mixed = Wavepacket(basis, a.origin, summed / scale, 0.0)
    area = EffectiveArea(2.0)
    lhs = propagate_sudden(mixed, area).amplitudes * scale
    rhs = propagate_sudden(a, area).amplitudes + propagate_sudden(b, area).amplitudes
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_kick_preserves_j_parity():
    basis = BasisSpec(30, m=0)
    out = propagate_sudden(basis_state(basis, 0, 0), EffectiveArea(2.0))
    odd = out.amplitudes[basis.j_values % 2 == 1]
    assert np.all(odd == 0.0)


def test_first_order_amplitude():
    # <2,0|exp(i xi C)|0,0> -> i xi <2,0|C|0,0> as xi -> 0
    basis = BasisSpec(30, m=0)
    xi = 1e-4
    out = propagate_sudden(basis_state(basis, 0, 0), EffectiveArea(xi))
    expect = 1j * xi * cos2theta_offdiag(0, 0)
    assert abs(out.amplitudes[2] - expect) / abs(expect) < 1e-3


def test_second_order_population():
    # P(J=2) = (4/45) xi^2 to leading order; within a percent at xi = 0.444
    basis = BasisSpec(30, m=0)
    xi = 0.444
    out = propagate_sudden(basis_state(basis, 0, 0), EffectiveArea(xi))
    p2 = abs(out.amplitudes[2]) ** 2
    assert p2 == pytest.approx((4.0 / 45.0) * xi**2, rel=0.02)


def test_elliptic_kick_rejected_on_chain():
    basis = BasisSpec(20, m=0)
    with pytest.raises(ValueError, match="full \\(J,M\\) basis"):
        propagate_sudden(basis_state(basis, 0, 0), EffectiveArea(1.0), a2=0.5, b2=0.5)


def test_unnormalized_state_rejected():
    basis = BasisSpec(20, m=0)
    wp = basis_state(basis, 0, 0)
    bad = Wavepacket(basis, wp.origin, wp.amplitudes * 0.5, 0.0)
    with pytest.raises(ValueError):
        propagate_sudden(bad, EffectiveArea(1.0))


# ---------------------------------------------------------------------------
# Sudden kick on the (J,M) lattice
# ---------------------------------------------------------------------------

def test_jm_kick_unitary_and_parity():
    basis = JMBasis(12)
    out = propagate_sudden(basis_state(basis, 0, 0), EffectiveArea(1.0), a2=0.5, b2=0.5)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10
    for idx, (j, m) in enumerate(basis.pairs):
        if j % 2 == 1 or m % 2 == 1:
            assert out.amplitudes[idx] == 0.0


def test_jm_linear_kick_matches_chain():
    # b2=1 kick from the isotropic (0,0) state must give the same J-level
    # populations as the fixed-M ladder, which quantizes along the field
    jm = JMBasis(16)
    chain = BasisSpec(16, m=0)
    wl = propagate_sudden(basis_state(jm, 0, 0), EffectiveArea(1.5), a2=0.0, b2=1.0)
    wc = propagate_sudden(basis_state(chain, 0, 0), EffectiveArea(1.5))
    pop_l = np.zeros(17)
    for idx, (j, m) in enumerate(jm.pairs):
        pop_l[j] += abs(wl.amplitudes[idx]) ** 2
    pop_c = np.zeros(17)
    for idx, j in enumerate(chain.j_values):
        pop_c[j] += abs(wc.amplitudes[idx]) ** 2
    assert np.max(np.abs(pop_l - pop_c)) < 1e-10


# ---------------------------------------------------------------------------
# TDSE propagation
# ---------------------------------------------------------------------------

def test_tdse_approaches_sudden_for_short_pulse():
    basis = BasisSpec(30, m=0)
    pulse = linear_pulse(2.0, tau_fwhm_ps=0.01)
    area = effective_area(pulse, CO2)
    ws = propagate_sudden(basis_state(basis, 0, 0), area)
    wt = propagate_tdse_linear(basis_state(basis, 0, 0, t=-0.03), pulse, CO2)
    pops_s = np.abs(ws.amplitudes) ** 2
    pops_t = np.abs(wt.amplitudes) ** 2
    assert np.max(np.abs(pops_s - pops_t)) < 1e-6
    assert abs(np.linalg.norm(wt.amplitudes) - 1.0) < 1e-9


def test_elliptic_tdse_reduces_to_linear():
    jm = JMBasis(14)
    chain = BasisSpec(14, m=0)
    we = propagate_elliptic_tdse(
        basis_state(jm, 0, 0, t=-0.15), elliptic_pulse(2.0, 0.0, 1.0, tau_fwhm_ps=0.05), CO2
    )
    wl = propagate_tdse_linear(
        basis_state(chain, 0, 0, t=-0.15), linear_pulse(2.0, tau_fwhm_ps=0.05), CO2
    )
    pop_e = np.zeros(15)
    for idx, (j, m) in enumerate(jm.pairs):
        pop_e[j] += abs(we.amplitudes[idx]) ** 2
    pop_l = np.zeros(15)
    for idx, j in enumerate(chain.j_values):
        pop_l[j] += abs(wl.amplitudes[idx]) ** 2
    assert np.max(np.abs(pop_e - pop_l)) < 1e-8


def test_circular_pump_keeps_xy_symmetry():
    jm = JMBasis(14)
    pulse = elliptic_pulse(3.0, 0.5, 0.5, tau_fwhm_ps=0.05)
    wp = propagate_elliptic_tdse(basis_state(jm, 0, 0, t=-0.15), pulse, CO2)
    cx = cos2theta_axis_matrix(jm, "x")
    cy = cos2theta_axis_matrix(jm, "y")
    ex = np.vdot(wp.amplitudes, cx @ wp.amplitudes).real
    ey = np.vdot(wp.amplitudes, cy @ wp.amplitudes).real
    assert abs(ex - ey) < 1e-8


def test_propagation_grid_validation():
    with pytest.raises(ValueError):
        PropagationGrid(1.0, 0.5)
    with pytest.raises(ValueError):
        PropagationGrid(0.0, 1.0, relative_tolerance=0.0)


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
    direct = kick_ensemble(CO2, ens, effective_area(pulse, CO2).xi)
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


def test_tdse_ensemble_matches_single_wavepacket_tdse():
    # the stacked Raman-phase system against one chain at a time; a step cap
    # below the adaptive choice gives both solves the same step sequence, so
    # they agree to roundoff once freely evolved to a common time
    ens = boltzmann_ensemble(CO2, 30.0)
    pulse = linear_pulse(3.0)
    grid = PropagationGrid(-0.3, 0.3, max_step=0.01)
    cs = tdse_ensemble(CO2, ens, pulse, grid=grid)
    t = 1.0
    for ch in cs.channels:
        basis = BasisSpec(cs.j_max, m=ch.m)
        wp = propagate_tdse_linear(basis_state(basis, ch.j0, ch.m, t=pulse.t0_ps), pulse, CO2, grid)
        want = wp.freely_evolved(t, CO2)[basis.j_values % 2 == ch.j0 % 2]
        got = ch.amplitudes * np.exp(-1j * rotational_omega(ch.js, CO2) * (t - cs.reference_time))
        assert np.max(np.abs(got - want)) <= 1e-12


def test_elliptic_ensemble_folded_weights():
    ens = boltzmann_ensemble(CO2, 20.0)
    cs = elliptic_tdse_ensemble(CO2, ens, elliptic_pulse(3.0, 0.5, 0.5))
    assert cs.kind == "jm"
    assert sum(ch.weight for ch in cs.channels) == pytest.approx(1.0, abs=1e-12)
    for ch in cs.channels:
        assert abs(np.linalg.norm(ch.amplitudes) - 1.0) < 1e-8


def test_kick_blocks_match_per_channel_kick_chain():
    ens = boltzmann_ensemble(CO2, 60.0)
    cs = kick_ensemble(CO2, ens, 6.0)
    views = cs.channels
    assert sorted((ch.j0, ch.m, ch.weight) for ch in views) == sorted(
        (j0, abs(m0), w) for j0, m0, w in ens.channels
    )
    for ch in views:
        unit = np.zeros(len(ch.js), dtype=complex)
        unit[np.searchsorted(ch.js, ch.j0)] = 1.0
        want = kick_chain(unit, cs.xi, ch.m, ch.js, cs.j_max)
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
