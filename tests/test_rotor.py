"""Rotor basis, energies, thermal ensembles, and angular matrix elements."""

import math
import warnings

import numpy as np
import pytest
import scipy.sparse

from conftest import dense_operator
from rotorgrating.constants import TWO_PI_C, revival_period, thermal_wavenumber
from rotorgrating.rotor import (
    CO2,
    JMBasis,
    MoleculeSpec,
    _wigner_3j,
    boltzmann_ensemble,
    cos2theta_axis_matrix,
    cos2theta_diagonal,
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
    # at 1e-3 K every Boltzmann factor underflows (J = 1 lies 2B = 2,900 kT
    # up): the same ground level, at the asked temperature
    cold = boltzmann_ensemble(odd, 1e-3)
    assert cold.channels == ens.channels
    assert cold.temperature == 1e-3


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
    # the -M0 channels mirror +M0 exactly and are folded into them: each level
    # J carries M0 = 0 .. J, the M0 > 0 channels with 2/(2J+1) of its weight
    ens = boltzmann_ensemble(CO2, 30.0)
    levels = {}
    for j, m, w in ens.channels:
        levels.setdefault(j, {})[m] = w
    assert sum(w for _, _, w in ens.channels) == pytest.approx(1.0, abs=1e-12)
    assert len(levels) > 3
    for j, by_m in levels.items():
        assert sorted(by_m) == list(range(j + 1))
        level = sum(by_m.values())
        assert by_m[0] == pytest.approx(level / (2 * j + 1), rel=1e-12)
        for m in range(1, j + 1):
            assert by_m[m] == pytest.approx(2.0 * level / (2 * j + 1), rel=1e-12)


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


def _y2_element(jp, mp, j, m, mu):
    """Gaunt integral <J',M'| Y_2^mu |J,M> from the exact 3-j symbol."""
    pref = (-1) ** mp * math.sqrt(5.0 * (2 * j + 1) * (2 * jp + 1) / (4.0 * math.pi))
    return pref * _wigner_3j(jp, 2, j, 0, 0, 0) * _wigner_3j(jp, 2, j, -mp, mu, m)


def _axis_element(jp, mp, j, m, axis):
    """<J',M'| cos^2(theta_axis) |J,M> as rank-0 and rank-2 parts:
    cos^2 theta_z = 1/3 + (4/3) sqrt(pi/5) Y_2^0 and
    cos^2 theta_x,y = (1 - cos^2 theta_z)/2 +- sqrt(2 pi/15) (Y_2^2 + Y_2^-2)."""
    val = 0.0
    if mp == m:
        czz = (1.0 / 3.0 if jp == j else 0.0) + (4.0 / 3.0) * math.sqrt(math.pi / 5.0) * _y2_element(
            jp, m, j, m, 0)
        if axis == "z":
            return czz
        val += 0.5 * ((1.0 if jp == j else 0.0) - czz)
    elif axis == "z":
        return 0.0
    if abs(mp - m) == 2:
        term = math.sqrt(2.0 * math.pi / 15.0) * _y2_element(jp, mp, j, m, mp - m)
        val += term if axis == "x" else -term
    return val


@pytest.mark.parametrize("j_max", range(2, 13))
def test_axis_matrix_entries_vs_exact_gaunt(j_max):
    # every entry of every parity filter, the J = 0 and |M| = J edges included
    full = JMBasis(j_max)
    pairs = list(zip(full.j_of.tolist(), full.m_of.tolist()))
    for axis in ("x", "y", "z"):
        ref = np.zeros((len(full), len(full)))
        for a, (jp, mp) in enumerate(pairs):
            for b, (j, m) in enumerate(pairs):
                if abs(jp - j) <= 2 and abs(mp - m) <= 2:
                    ref[a, b] = _axis_element(jp, mp, j, m, axis)
        for j_parity in (None, 0, 1):
            for m_parity in (None, 0, 1):
                basis = JMBasis(j_max, j_parity, m_parity)
                sites = full.site(basis.j_of, basis.m_of)
                mat = dense_operator(cos2theta_axis_matrix(basis, axis), len(basis))
                assert np.max(np.abs(mat - ref[np.ix_(sites, sites)])) <= 1e-15, (axis, j_parity, m_parity)


def test_axis_elements_vs_quadrature(sphere_element, axis_weights):
    cases = [(2, 2, 0, 0), (2, -2, 0, 0), (2, 0, 0, 0), (3, 1, 1, -1),
             (4, 2, 2, 0), (3, -1, 3, 1), (2, 2, 2, 0), (5, 3, 3, 3),
             (4, 0, 4, 2), (6, -4, 4, -2)]
    basis = JMBasis(6)
    for axis in ("x", "y", "z"):
        mat = dense_operator(cos2theta_axis_matrix(basis, axis), len(basis))
        for jp, mp, j, m in cases:
            closed = mat[basis.site(jp, mp), basis.site(j, m)]
            q = sphere_element(jp, mp, j, m, axis_weights[axis])
            assert abs(closed - q) < 1e-10, (axis, jp, mp, j, m)


def test_axis_element_frozen_value():
    # <2,2|cos^2 theta_x|0,0> = sqrt(1/30)
    basis = JMBasis(2)
    a, b = basis.site(2, 2), basis.site(0, 0)
    val = dense_operator(cos2theta_axis_matrix(basis, "x"), len(basis))[a, b]
    assert val == pytest.approx(math.sqrt(1.0 / 30.0), rel=1e-14)
    # and the y element flips sign
    assert dense_operator(cos2theta_axis_matrix(basis, "y"), len(basis))[a, b] == pytest.approx(-val, rel=1e-14)


def test_axis_matrices_sum_to_identity():
    basis = JMBasis(4)
    total = sum(dense_operator(cos2theta_axis_matrix(basis, ax), len(basis)) for ax in ("x", "y", "z"))
    assert np.max(np.abs(total - np.eye(len(basis)))) < 1e-14


def test_axis_matrices_hermitian():
    basis = JMBasis(6)
    for ax in ("x", "y", "z"):
        mat = dense_operator(cos2theta_axis_matrix(basis, ax), len(basis))
        assert np.max(np.abs(mat - mat.T.conj())) < 1e-14


def test_x_matrix_selection_rules():
    basis = JMBasis(5)
    mat = dense_operator(cos2theta_axis_matrix(basis, "x"), len(basis))
    pairs = list(zip(basis.j_of.tolist(), basis.m_of.tolist()))
    for a, (ja, ma) in enumerate(pairs):
        for b, (jb, mb) in enumerate(pairs):
            if abs(ja - jb) not in (0, 2) or abs(ma - mb) not in (0, 2):
                assert mat[a, b] == 0.0


def test_axis_triplets_match_a_sparse_build():
    # each entry once, none zero and every one inside the basis: the csr
    # matrix scipy.sparse builds from the triplets, summing duplicates and
    # sorting, holds exactly the triplets; x and y share their entries
    for j_parity in (None, 0, 1):
        for m_parity in (None, 0, 1):
            basis = JMBasis(9, j_parity, m_parity)
            n = len(basis)
            triplets = {axis: cos2theta_axis_matrix(basis, axis) for axis in ("x", "y", "z")}
            for rows, cols, values in triplets.values():
                coo = scipy.sparse.csr_matrix((values, (rows, cols)), shape=(n, n)).tocoo()
                order = np.lexsort((cols, rows))
                assert coo.nnz == len(values) and np.all(values != 0.0)
                assert np.array_equal(coo.row, rows[order]) and np.array_equal(coo.col, cols[order])
                assert np.array_equal(coo.data, values[order])
            for k in range(2):
                assert np.array_equal(triplets["x"][k], triplets["y"][k])


def test_jm_basis_parity_filter():
    even = JMBasis(6, j_parity=0, m_parity=0)
    assert np.all(even.j_of % 2 == 0) and np.all(even.m_of % 2 == 0)
    full = JMBasis(4)
    assert len(full) == sum(2 * j + 1 for j in range(5))
    i = full.site(3, -2)
    assert (full.j_of[i], full.m_of[i]) == (3, -2)
    # sites the basis lacks: off the shell, beyond j_max, or of the wrong parity
    assert full.site(3, 4) == full.site(5, 0) == full.site(-1, 0) == -1
    assert even.site(2, 1) == even.site(3, 0) == -1
    sites = even.site(even.j_of, even.m_of)
    assert np.array_equal(sites, np.arange(len(even)))
