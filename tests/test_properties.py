"""Property tests: the kicked thermal ensemble over temperature and kick
strength, the chain stepper's kick schedule over pulses, the chain stepper,
the warm chain cache and the revivals over random molecules, the lattice's
+-M mirror symmetry and reflection sectors, and the CLI's exit codes over
generated configs."""

import json
import math
import os
import tempfile

import numpy as np
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from rotorgrating.cli import main
from rotorgrating import dynamics
from rotorgrating.constants import revival_period
from rotorgrating.dynamics import kick_ensemble, tdse_ensemble
from rotorgrating.field import PulseSpec, effective_area, elliptic_pulse, xi_per_intensity
from rotorgrating.observables import alignment_trace, fourier_decompose, reconstruct, revival_time_grid
from rotorgrating.rotor import (
    CO2, JMBasis, MoleculeSpec, boltzmann_ensemble, cos2theta_axis_matrix, cos2theta_diagonal,
    cos2theta_offdiag, raman_frequency, rotational_omega,
)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(temperature=st.floats(5.0, 400.0), xi=st.floats(0.0, 40.0))
def test_kicked_ensemble_norm_and_series_exactness(temperature, xi):
    cs = kick_ensemble(CO2, boltzmann_ensemble(CO2, temperature), xi)
    assert cs.norm_deviation() < 1e-9
    times = revival_time_grid(CO2, 257, t_start=0.3, periods=1.5)
    series = reconstruct(fourier_decompose(cs, "y"), times).values
    direct = alignment_trace(cs, "y", times).values
    assert np.max(np.abs(series - direct)) <= 1e-10


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tau=st.floats(-7.0, 0.0).map(lambda e: 10.0**e), t0=st.floats(0.0, 1e9),
       j_max=st.integers(0, 400))
def test_kick_schedule_spans_the_window_and_sums_to_xi(tau, t0, j_max):
    # without propagating: the RKN schedule's 6n + 1 kicks add up to the
    # +-3 FWHM window's share of xi, erf(6 sqrt(ln 2)), and its free times
    # (a3 < 0 a backward flow) to the window, at any FWHM and arrival time
    try:
        pulse = PulseSpec(30.0, tau, t0)
    except ValueError:  # a FWHM that vanishes next to its arrival time
        assume(False)
    offsets, kicks, gaps, order = dynamics._rkn_schedule(pulse, CO2, j_max)
    assert len(kicks) == len(offsets) == len(order) + 1 == 6 * dynamics._rkn_steps(pulse, CO2, j_max) + 1
    inside = effective_area(pulse, CO2) * math.erf(6.0 * math.sqrt(math.log(2.0)))
    assert abs(kicks.sum() / inside - 1.0) <= 1e-12
    window = 6.0 * tau
    assert offsets[-1] - offsets[0] == window
    assert abs(gaps[order].sum() / window - 1.0) <= 1e-12


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(b=st.floats(0.2, 2.0), delta_alpha=st.floats(0.5, 5.0),
       spins=st.sampled_from([(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (1.0, 3.0)]),
       temperature=st.floats(0.0, 30.0), xi=st.floats(0.1, 3.0))
def test_chain_stepper_over_random_molecules(b, delta_alpha, spins, temperature, xi):
    # sudden against TDSE for short pulses: at a fixed kick area the TDSE
    # approaches the kick at the pulse's effective area linearly in the FWHM
    molecule = MoleculeSpec("random", b, delta_alpha, *spins)
    ens = boltzmann_ensemble(molecule, temperature)
    j_max = kick_ensemble(molecule, ens, xi).j_max
    omega_max = raman_frequency(j_max - 2, molecule)
    gaps = []
    for c in (0.1, 0.05, 0.025):  # FWHM x the fastest Raman frequency of the basis
        pulse = PulseSpec(xi / xi_per_intensity(molecule, c / omega_max), c / omega_max)
        cs = tdse_ensemble(molecule, ens, pulse, j_max)
        assert cs.norm_deviation() < 1e-9
        kick = kick_ensemble(molecule, ens, effective_area(pulse, molecule), j_max)
        gaps.append(max(np.max(np.abs(t.amplitudes - k.amplitudes)) for t, k in zip(cs.blocks, kick.blocks)))
        assert gaps[-1] <= 0.01 * c * xi * (1.0 + xi)
        # a run of equal-shape blocks steps as one stack: each TDSE block is
        # the stepper run on that block alone, bit for bit
        schedule = dynamics._rkn_schedule(pulse, molecule, j_max)
        for t in cs.blocks:
            m, rows = int(t.m0[0]), (t.j0 - t.js[0]) // 2
            evals, evecs = scipy.linalg.eigh_tridiagonal(cos2theta_diagonal(t.js, m),
                                                         cos2theta_offdiag(t.js[:-1], m))
            rot = np.exp(1j * schedule[1][0] * evals).view(float).reshape(-1, 1, 2)
            rhs = (evecs[rows].T[:, :, None] * rot).reshape(len(t.js), -1)
            omega = rotational_omega(t.js, molecule)
            dynamics._compose(evals, evecs, omega, omega[rows], rhs, schedule)
            assert rhs.view(complex).tobytes() == t.amplitudes.tobytes()
        # the kick is the stepper's zero-width step, V (e^{i xi Lambda} * V^T E)
        # as one real GEMM on the (re, im) column pairs, bit for bit
        for k in kick.blocks:
            m = int(k.m0[0])
            evals, evecs = scipy.linalg.eigh_tridiagonal(cos2theta_diagonal(k.js, m),
                                                         cos2theta_offdiag(k.js[:-1], m))
            rot = np.exp(1j * kick.xi * evals).view(float).reshape(-1, 1, 2)
            rhs = (evecs[(k.j0 - k.js[0]) // 2].T[:, :, None] * rot).reshape(len(k.js), -1)
            assert (evecs @ rhs).view(complex).tobytes() == k.amplitudes.tobytes()
    assert gaps[1] <= 0.6 * gaps[0] and gaps[2] <= 0.6 * gaps[1]


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(b=st.floats(0.2, 2.0), delta_alpha=st.floats(0.5, 5.0),
       spins=st.sampled_from([(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (1.0, 3.0)]),
       temperatures=st.lists(st.floats(0.0, 40.0), min_size=2, max_size=3), xi=st.floats(0.1, 5.0),
       data=st.data())
def test_warm_chain_cache_kicks_as_an_empty_one(b, delta_alpha, spins, temperatures, xi, data):
    # kicks at one explicit j_max, in random order through the warm layout
    # cache, are byte-equal to the same kicks from an empty cache
    molecule = MoleculeSpec("random", b, delta_alpha, *spins)
    ensembles = [boltzmann_ensemble(molecule, t) for t in temperatures]
    j_max = max(kick_ensemble(molecule, ens, xi).j_max for ens in ensembles)
    kicks = [(i, x) for i in range(len(ensembles)) for x in (xi, xi / 2)]
    fresh = {}
    for i, x in kicks:
        dynamics.clear_caches()
        fresh[i, x] = kick_ensemble(molecule, ensembles[i], x, j_max).chains.amplitudes.tobytes()
    dynamics.clear_caches()
    for i, x in data.draw(st.lists(st.sampled_from(kicks), min_size=len(kicks), max_size=2 * len(kicks))):
        assert kick_ensemble(molecule, ensembles[i], x, j_max).chains.amplitudes.tobytes() == fresh[i, x]


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(b=st.floats(0.2, 2.0), delta_alpha=st.floats(0.5, 5.0),
       spins=st.sampled_from([(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (1.0, 3.0)]),
       temperature=st.floats(0.0, 100.0), xi=st.floats(0.1, 10.0))
def test_revival_periodicity_over_random_molecules(b, delta_alpha, spins, temperature, xi):
    # omega_J T_rev = 2 pi (2J + 3): the series repeats after one revival period
    molecule = MoleculeSpec("random", b, delta_alpha, *spins)
    dec = fourier_decompose(kick_ensemble(molecule, boltzmann_ensemble(molecule, temperature), xi), "y")
    period = revival_period(b)
    times = np.linspace(0.0, 1.5 * period, 257)
    one, two = reconstruct(dec, times).values, reconstruct(dec, times + period).values
    assert np.max(np.abs(one - two)) <= 1e-9


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(b=st.floats(0.2, 2.0), delta_alpha=st.floats(0.5, 5.0), j0=st.integers(1, 6), data=st.data(),
       intensity=st.floats(0.5, 10.0), a2=st.floats(0.0, 1.0))
def test_lattice_mirrors_plus_and_minus_m(b, delta_alpha, j0, data, intensity, a2):
    # the lattice driver folds -M0 onto +M0: its stepper carries |J0, -M0>
    # into the mirror image, M -> -M, of what |J0, +M0> becomes
    molecule = MoleculeSpec("random", b, delta_alpha)
    m0 = data.draw(st.integers(1, j0))
    pulse = elliptic_pulse(intensity, a2, 1.0 - a2)
    basis = JMBasis(10, j0 % 2, m0 % 2)
    coupling = pulse.a2 * cos2theta_axis_matrix(basis, "x") + pulse.b2 * cos2theta_axis_matrix(basis, "y")
    origins = basis.site(j0, [m0, -m0])
    schedule = dynamics._rkn_schedule(pulse, molecule, basis.j_max)
    amps = dynamics._lattice_steps(basis, coupling, molecule, origins, schedule)
    mirror = basis.site(basis.j_of, -basis.m_of)
    assert np.max(np.abs(amps[mirror, 1] - amps[:, 0])) <= 1e-12
    assert abs(np.linalg.norm(amps[:, 0]) - 1.0) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(j_max=st.integers(2, 30), j_parity=st.integers(0, 1), m_parity=st.integers(0, 1))
def test_reflection_sectors_split_the_lattice(j_max, j_parity, m_parity):
    # the sectors of R|J,M> = (-1)^M |J,-M> together form an orthogonal basis
    # of the group, R commutes with both axis operators and is +-1 on the
    # sectors, so no axis operator couples them
    basis = JMBasis(j_max, j_parity, m_parity)
    (plus, _), (minus, _) = dynamics._reflection_sectors(basis)
    assert plus.shape[1] + minus.shape[1] == dynamics._lattice_size(j_max, j_parity, m_parity) == len(basis)
    w = np.hstack([plus.toarray(), minus.toarray()])
    assert np.max(np.abs(w.T @ w - np.eye(len(basis)))) <= 1e-15
    reflection = np.zeros((len(basis), len(basis)))
    reflection[basis.site(basis.j_of, -basis.m_of), np.arange(len(basis))] = (-1.0) ** basis.m_of
    assert np.array_equal(reflection @ plus.toarray(), plus.toarray())
    assert np.array_equal(reflection @ minus.toarray(), -minus.toarray())
    for axis in "xy":
        c = cos2theta_axis_matrix(basis, axis).toarray()
        assert np.max(np.abs(reflection @ c - c @ reflection)) <= 1e-15
        assert np.all(np.abs(plus.T @ c @ minus) <= 1e-15)


_POLARIZATION_ENTRY = st.one_of(st.none(), st.booleans(), st.text(max_size=2), st.floats(-2.0, 2.0))


@st.composite
def _sudden_configs(draw):
    """(subcommand, config) for geometry, or simulate or fourier with the sudden kick."""
    # each range mixed with its working range, so that runs also get through
    subcommand = draw(st.sampled_from(["simulate", "fourier", "geometry"]))
    if subcommand == "geometry":
        return subcommand, {
            "scheme": draw(st.sampled_from(["parallel", "perpendicular", "crossed"])),
            "wavelength_nm": draw(st.one_of(st.floats(200.0, 2000.0), st.floats())),
            "crossing_angle_deg": draw(st.one_of(st.floats(0.1, 10.0), st.floats())),
        }
    intensity = draw(st.one_of(st.floats(0.0, 100.0), st.floats(-10.0, 1e6)))
    cfg = {
        "molecule": "CO2",
        "method": "sudden",
        "temperature_K": draw(st.one_of(st.floats(0.0, 400.0), st.floats(-10.0, 1e9))),
        "t0_ps": draw(st.one_of(st.floats(-1.0, 1.0), st.floats())),
        # grids between 64 samples and the working-set budget (~2.5e7) are
        # valid but slow runs; the extremes lie beyond that budget
        "time_grid": {
            "n": draw(st.one_of(st.integers(0, 64), st.integers(10**8, 10**15),
                                st.integers(-(10**15), -1))),
            "t_start_ps": draw(st.one_of(st.floats(-1.0, 5.0), st.floats())),
            "periods": draw(st.one_of(st.floats(0.1, 2.0), st.floats())),
        },
    }
    if subcommand == "simulate":
        cfg["scheme"] = draw(st.sampled_from(["parallel", "perpendicular", "crossed"]))
        key = draw(st.sampled_from(["single_pump_intensity_tw_cm2", "theoretical_intensity_tw_cm2"]))
        cfg[key] = intensity
    else:
        cfg["intensity_tw_cm2"] = intensity
        cfg["polarization"] = draw(
            st.one_of(st.just("linear"), st.lists(_POLARIZATION_ENTRY, min_size=2, max_size=2),
                      st.lists(_POLARIZATION_ENTRY, max_size=3))
        )
    return subcommand, cfg


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(run=_sudden_configs())
def test_cli_exit_codes_over_generated_configs(run):
    # every input ends in 0 (done), 2 (bad config or over a budget), 3
    # (numerical failure) or 4 (fit not converged), never a traceback
    subcommand, cfg = run
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        assert main([subcommand, "--config", path, "--out", os.path.join(tmp, "out")]) in (0, 2, 3, 4)
