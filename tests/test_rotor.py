"""Rotor basis, energies, thermal ensembles, and angular matrix elements."""

import math
import warnings

import numpy as np
import pytest

from rotorgrating.constants import TWO_PI_C, revival_period, thermal_wavenumber
from rotorgrating.rotor import (
    CO2,
    BasisSpec,
    JMBasis,
    MoleculeSpec,
    _wigner_3j,
    boltzmann_ensemble,
    cos2theta_axis_element,
    cos2theta_axis_matrix,
    cos2theta_diagonal,
    cos2theta_matrix,
    cos2theta_offdiag,
    molecule_from_dict,
    raman_frequency,
    rotational_omega,
    suggest_j_max,
)

N2 = MoleculeSpec("N2", 1.98958, 0.93, g_even=2.0, g_odd=1.0)


def _level_weights(ens):
    """Total weight per J0, summed over M0 channels."""
    out = {}
    for j, _, w in ens.channels:
        out[j] = out.get(j, 0.0) + w
    return out


# ---------------------------------------------------------------------------
# Energies and frequencies
# ---------------------------------------------------------------------------

def test_rotational_energy_frozen():
    # B J(J+1): J=2 level of CO2 sits at 6B
    assert rotational_omega(2, CO2) / TWO_PI_C == pytest.approx(2.34126, abs=1e-10)
    assert rotational_omega(0, CO2) == 0.0


def test_revival_period_co2():
    # T_R = 1/(2 B c) with B in cm^-1
    assert revival_period(CO2.b_cm1) == pytest.approx(42.74161287, abs=1e-6)


def test_raman_frequencies_form_arithmetic_progression():
    freqs = np.array([raman_frequency(j, CO2) for j in range(12)])
    steps = np.diff(freqs)
    assert np.allclose(steps, steps[0], rtol=1e-14)
    # common difference 8 pi c B, lowest line at 6 times 2 pi c B / (2 pi) ...
    assert steps[0] == pytest.approx(4.0 * TWO_PI_C * CO2.b_cm1, rel=1e-14)
    assert freqs[0] == pytest.approx(6.0 * TWO_PI_C * CO2.b_cm1, rel=1e-14)


def test_raman_frequency_commensurate_with_revival():
    # omega_J T_R = 2 pi (2J+3): every beat completes whole cycles per revival
    tr = revival_period(CO2.b_cm1)
    for j in (0, 2, 8, 30):
        cycles = raman_frequency(j, CO2) * tr / (2.0 * math.pi)
        assert cycles == pytest.approx(2 * j + 3, rel=1e-12)


# ---------------------------------------------------------------------------
# Molecule specs
# ---------------------------------------------------------------------------

def test_molecule_validation():
    with pytest.raises(ValueError):
        MoleculeSpec("bad", -1.0, 2.0)
    with pytest.raises(ValueError):
        MoleculeSpec("bad", 1.0, 0.0)
    with pytest.raises(ValueError):
        MoleculeSpec("bad", 1.0, 1.0, g_even=0.0, g_odd=0.0)


def test_molecule_from_dict_roundtrip():
    doc = {"name": "CO2", "B_cm1": 0.39021, "delta_alpha_A3": 2.1,
           "alpha_bar_A3": 2.911, "g_even": 1.0, "g_odd": 0.0}
    assert molecule_from_dict(doc) == CO2
    with pytest.raises(ValueError, match="missing field"):
        molecule_from_dict({"name": "x"})


def test_spin_weight():
    # g_J multiplies the level weights: CO2 has no odd J, and N2's even
    # levels weigh twice their bare Boltzmann factor relative to odd ones
    co2 = _level_weights(boltzmann_ensemble(CO2, 293.0))
    assert 4 in co2 and 3 not in co2
    n2 = _level_weights(boltzmann_ensemble(N2, 100.0))
    kt = thermal_wavenumber(100.0)
    bare = {j: (2 * j + 1) * math.exp(-N2.b_cm1 * j * (j + 1) / kt) for j in (2, 3)}
    assert n2[2] / n2[3] == pytest.approx(2.0 * bare[2] / bare[3], rel=1e-12)


# ---------------------------------------------------------------------------
# Thermal ensembles
# ---------------------------------------------------------------------------

def test_boltzmann_zero_temperature():
    ens = boltzmann_ensemble(CO2, 0.0)
    assert ens.channels == ((0, 0, 1.0),)
    odd = MoleculeSpec("odd", 1.0, 1.0, g_even=0.0, g_odd=1.0)
    ens = boltzmann_ensemble(odd, 0.0)
    assert ens.j_thermal_max == 1
    assert sum(w for _, _, w in ens.channels) == pytest.approx(1.0, abs=1e-15)


def test_boltzmann_weights_normalized_and_even_only():
    ens = boltzmann_ensemble(CO2, 293.0)
    assert sum(w for _, _, w in ens.channels) == pytest.approx(1.0, abs=1e-12)
    assert all(j % 2 == 0 for j, _, _ in ens.channels)
    assert all(m >= 0 for _, m, _ in ens.channels)  # folded


def test_boltzmann_most_populated_level_co2_room_temperature():
    # classic CO2 benchmark: J = 16 carries the largest level weight at 293 K
    weights = _level_weights(boltzmann_ensemble(CO2, 293.0))
    assert max(weights, key=weights.get) == 16


def test_boltzmann_matches_direct_ratio():
    # level weight ratio is g (2J+1) exp(-dE/kT), independent recompute
    weights = _level_weights(boltzmann_ensemble(CO2, 150.0))
    kt = 150.0 * 0.6950348004  # cm^-1 per K
    expect = (5.0 / 1.0) * math.exp(-6.0 * CO2.b_cm1 / kt)
    assert weights[2] / weights[0] == pytest.approx(expect, rel=1e-9)


def test_boltzmann_cutoff_semantics():
    loose = boltzmann_ensemble(CO2, 293.0, cutoff=1e-3)
    tight = boltzmann_ensemble(CO2, 293.0, cutoff=1e-9)
    assert tight.j_thermal_max > loose.j_thermal_max
    # omitted tail below cutoff: reconstruct unnormalized weights
    kt = 293.0 * 0.6950348004
    js = np.arange(0, 400, 2)
    w = (2 * js + 1) * np.exp(-CO2.b_cm1 * js * (js + 1.0) / kt)
    total = w.sum()
    omitted = w[js > loose.j_thermal_max].sum()
    assert omitted < 1e-3 * total
    omitted_next = w[js > loose.j_thermal_max - 2].sum()
    assert omitted_next > 1e-3 * total  # minimal kept set


def test_boltzmann_fold_m():
    folded = boltzmann_ensemble(CO2, 30.0)
    flat = boltzmann_ensemble(CO2, 30.0, fold_m=False)
    wf = sum(w for _, _, w in folded.channels)
    assert wf == pytest.approx(sum(w for _, _, w in flat.channels), abs=1e-12)
    assert len(flat.channels) > len(folded.channels)
    # M=+2 folded channel carries the +-2 pair weight
    def get(ens, j, m):
        return sum(w for jj, mm, w in ens.channels if (jj, mm) == (j, m))
    assert get(folded, 2, 2) == pytest.approx(get(flat, 2, 2) + get(flat, 2, -2), rel=1e-12)


def test_boltzmann_near_zero_temperature_is_the_ground_state():
    # kT underflows below B J(J+1): the excited weights are exactly 0, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ens = boltzmann_ensemble(CO2, 1.1e-308)
    assert ens.channels == ((0, 0, 1.0),)


def test_boltzmann_validation():
    with pytest.raises(ValueError):
        boltzmann_ensemble(CO2, -1.0)
    with pytest.raises(ValueError):
        boltzmann_ensemble(CO2, 293.0, cutoff=0.0)


def test_suggest_j_max_monotone():
    assert suggest_j_max(10, 0.0) == 20
    assert suggest_j_max(10, 5.0) == 40
    assert suggest_j_max(20, 5.0) > suggest_j_max(10, 5.0)
    assert suggest_j_max(10, 6.0) > suggest_j_max(10, 5.0)


# ---------------------------------------------------------------------------
# Fixed-M ladder matrix elements
# ---------------------------------------------------------------------------

def test_cos2_diagonal_frozen_values():
    assert cos2theta_diagonal(0, 0) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert cos2theta_diagonal(1, 0) == pytest.approx(3.0 / 5.0, rel=1e-14)
    assert cos2theta_diagonal(1, 1) == pytest.approx(1.0 / 5.0, rel=1e-14)
    # M = 0 diagonal tends to 1/2 from above at large J
    assert cos2theta_diagonal(200, 0) == pytest.approx(0.5, abs=1e-4)


def test_cos2_offdiag_frozen_values():
    # <2,0|cos^2|0,0> = 2/(3 sqrt 5)
    assert cos2theta_offdiag(0, 0) == pytest.approx(2.0 / (3.0 * math.sqrt(5.0)), rel=1e-14)
    assert cos2theta_offdiag(0, 0) == pytest.approx(0.2981423970, abs=1e-10)


def test_cos2_fixed_m_vs_quadrature(sphere_element, axis_weights):
    worst = 0.0
    for m in range(0, 11):
        for j in range(m, 11):
            d = float(cos2theta_diagonal(j, m))
            q = sphere_element(j, m, j, m, axis_weights["z"]).real
            worst = max(worst, abs(d - q))
            o = float(cos2theta_offdiag(j, m))
            q2 = sphere_element(j + 2, m, j, m, axis_weights["z"]).real
            worst = max(worst, abs(o - q2))
    assert worst < 1e-10


def test_cos2_matrix_structure():
    basis = BasisSpec(10, m=1)
    mat = cos2theta_matrix(basis)
    assert mat.shape == (10, 10)
    assert np.allclose(mat, mat.T, atol=1e-15)
    # tridiagonal in J steps of 2: |dJ| = 1 entries vanish
    js = basis.j_values
    for a in range(len(js)):
        for b in range(len(js)):
            if abs(js[a] - js[b]) not in (0, 2):
                assert mat[a, b] == 0.0


def test_basis_spec_validation():
    with pytest.raises(ValueError):
        BasisSpec(1)
    with pytest.raises(ValueError):
        BasisSpec(4, m=5)
    assert BasisSpec(6, m=-2).j_values.tolist() == [2, 3, 4, 5, 6]


# ---------------------------------------------------------------------------
# Wigner coefficients and lab-axis operators
# ---------------------------------------------------------------------------

def test_wigner3j_against_sympy():
    sympy_wigner = pytest.importorskip("sympy.physics.wigner")
    rng = np.random.default_rng(7)
    for _ in range(60):
        j1, j3 = rng.integers(0, 9, size=2)
        m1 = rng.integers(-j1, j1 + 1) if j1 else 0
        m3 = rng.integers(-j3, j3 + 1) if j3 else 0
        m2 = -m1 - m3
        if abs(m2) > 2:
            continue
        ours = _wigner_3j(int(j1), 2, int(j3), int(m1), int(m2), int(m3))
        ref = float(sympy_wigner.wigner_3j(int(j1), 2, int(j3), int(m1), int(m2), int(m3)))
        assert ours == pytest.approx(ref, abs=1e-14)


def test_axis_elements_vs_quadrature(sphere_element, axis_weights):
    cases = [(2, 2, 0, 0), (2, -2, 0, 0), (2, 0, 0, 0), (3, 1, 1, -1),
             (4, 2, 2, 0), (3, -1, 3, 1), (2, 2, 2, 0), (5, 3, 3, 3),
             (4, 0, 4, 2), (6, -4, 4, -2)]
    for axis in ("x", "y", "z"):
        for jp, mp, j, m in cases:
            closed = cos2theta_axis_element(jp, mp, j, m, axis)
            q = sphere_element(jp, mp, j, m, axis_weights[axis])
            assert abs(closed - q) < 1e-10, (axis, jp, mp, j, m)


def test_axis_element_frozen_value():
    # <2,2|cos^2 theta_x|0,0> = sqrt(1/30)
    val = cos2theta_axis_element(2, 2, 0, 0, "x")
    assert val == pytest.approx(math.sqrt(1.0 / 30.0), rel=1e-14)
    # and the y element flips sign
    assert cos2theta_axis_element(2, 2, 0, 0, "y") == pytest.approx(-val, rel=1e-14)


def test_axis_matrices_sum_to_identity():
    basis = JMBasis(4)
    total = sum(cos2theta_axis_matrix(basis, ax) for ax in ("x", "y", "z")).toarray()
    assert np.max(np.abs(total - np.eye(len(basis)))) < 1e-14


def test_axis_matrices_hermitian():
    basis = JMBasis(6)
    for ax in ("x", "y", "z"):
        mat = cos2theta_axis_matrix(basis, ax).toarray()
        assert np.max(np.abs(mat - mat.T.conj())) < 1e-14


def test_x_matrix_selection_rules():
    basis = JMBasis(5)
    mat = cos2theta_axis_matrix(basis, "x").toarray()
    for a, (ja, ma) in enumerate(basis.pairs):
        for b, (jb, mb) in enumerate(basis.pairs):
            if abs(ja - jb) not in (0, 2) or abs(ma - mb) not in (0, 2):
                assert mat[a, b] == 0.0


def test_jm_basis_parity_filter():
    even = JMBasis(6, j_parity=0, m_parity=0)
    assert all(j % 2 == 0 and m % 2 == 0 for j, m in even.pairs)
    full = JMBasis(4)
    assert len(full) == sum(2 * j + 1 for j in range(5))
    j, m = full.pairs[full.index[(3, -2)]]
    assert (j, m) == (3, -2)
