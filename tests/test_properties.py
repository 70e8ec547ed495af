"""Property tests: the kicked thermal ensemble over temperature and kick
strength, the chain stepper's kick schedule over pulses, its step count over
temperature, kick strength and pulse length, the chain stepper and the
lattice's groups, on one worker and on many, the warm chain cache, the revivals and the packed
reductions of both routes over random molecules, the lattice's +-M mirror
symmetry and reflection sectors, the bound of the probe that sizes the
lattice and its kicks' peak memory, the chain series split by thermal level,
the fit's kick-strength surface against direct kicks, the fit's forward
model against simulate's sudden pipeline, and the CLI's exit codes over
generated configs."""

import json
import math
import os
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st

from conftest import dense_operator, simulated_signal, trace_propagations
from rotorgrating.cli import main
from rotorgrating import dynamics
from rotorgrating.constants import revival_period
from rotorgrating.dynamics import elliptic_tdse_ensemble, kick_ensemble, tdse_ensemble
from rotorgrating.field import PulseSpec, effective_area, elliptic_pulse, xi_per_intensity
from rotorgrating.observables import alignment_trace, fourier_decompose, reconstruct, revival_time_grid
from rotorgrating.retrieval import EnsembleCache, FitProblem, model_signal
from rotorgrating.rotor import (
    CO2, JMBasis, MoleculeSpec, boltzmann_ensemble, cos2theta_axis_matrix, cos2theta_diagonal,
    cos2theta_offdiag, raman_frequency, rotational_omega, suggest_j_max,
)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(temperature=st.floats(5.0, 400.0), xi=st.floats(0.0, 40.0),
       spins=st.sampled_from([(1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 3.0)]), axis=st.sampled_from("xyz"))
def test_kicked_ensemble_norm_and_series_exactness(temperature, xi, spins, axis):
    # CO2's rotor with each spin statistics: the direct trace's one phase
    # matrix holds the even and the odd lines of a molecule together
    molecule = MoleculeSpec(CO2.name, CO2.b_cm1, CO2.delta_alpha_a3, *spins)
    cs = kick_ensemble(molecule, boltzmann_ensemble(molecule, temperature), xi)
    assert cs.norm_deviation() < 1e-9
    times = revival_time_grid(molecule, 257, t_start=0.3, periods=1.5)
    series = reconstruct(fourier_decompose(cs, axis), times).values
    direct = alignment_trace(cs, axis, times).values
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


_RANDOM_MOLECULES = st.tuples(st.floats(0.2, 2.0), st.sampled_from([(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (1.0, 3.0)])
                              ).map(lambda m: MoleculeSpec("random", m[0], 2.0, *m[1]))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(molecule=st.one_of(st.just(CO2), _RANDOM_MOLECULES), temperature=st.floats(0.0, 40.0),
       xi=st.floats(0.1, 15.0), tau=st.floats(0.05, 0.2))
@example(molecule=CO2, temperature=0.0, xi=14.0, tau=0.1)  # the worst of a 0 K scan below the split: 1.6e-8
@example(molecule=CO2, temperature=0.0, xi=15.0, tau=0.135)  # and past it, 27 steps: 1.6e-8
@example(molecule=CO2, temperature=0.0, xi=26.65, tau=0.05)  # past it at simulate-tdse's phi: 22 steps, 1.5e-8
@example(molecule=MoleculeSpec("random", 0.39021, 2.0, 0.0, 1.0), temperature=0.0, xi=15.0, tau=0.092)
@example(molecule=CO2, temperature=293.0, xi=0.4443, tau=0.5)
def test_step_rule_holds_over_kicks_and_pulse_lengths(molecule, temperature, xi, tau):
    # the rule counts the kick strength and the pulse length in rotational
    # units, on either side of LIBRATION_SPLIT (18 steps would leave 2.1e-8
    # on the third example, whose libration phase is simulate-tdse's) and for
    # other molecules (the fourth starts from J = 1 at the split, 1.6e-8),
    # and the basis' fastest Raman phase: the weak 0.5 ps pulse at 293 K
    # takes 27 steps (5.0e-10), where the libration count's 18 alias the
    # populated Raman lines and leave 1.9e-7.  The trace at the rule's steps
    # is within 2e-8 of its peak of the trace at 8 times the steps
    pulse = PulseSpec(xi / xi_per_intensity(molecule, tau), tau)
    ens = boltzmann_ensemble(molecule, temperature)
    times = revival_time_grid(molecule, 2048, t_start=0.5)
    steps = dynamics._rkn_steps
    traces = []
    with pytest.MonkeyPatch.context() as mp:
        for f in (1, 8):
            mp.setattr(dynamics, "_rkn_steps", lambda *args, f=f: f * steps(*args))
            traces.append(reconstruct(fourier_decompose(tdse_ensemble(molecule, ens, pulse), "y"), times).values)
    one, ref = traces
    assert np.max(np.abs(one - ref)) <= 2e-8 * np.max(np.abs(ref))


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
        fresh[i, x] = kick_ensemble(molecule, ensembles[i], x, j_max).amplitudes.tobytes()
    dynamics.clear_caches()
    for i, x in data.draw(st.lists(st.sampled_from(kicks), min_size=len(kicks), max_size=2 * len(kicks))):
        assert kick_ensemble(molecule, ensembles[i], x, j_max).amplitudes.tobytes() == fresh[i, x]


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
@given(b=st.floats(0.2, 2.0), delta_alpha=st.floats(0.5, 5.0),
       spins=st.sampled_from([(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (1.0, 3.0)]),
       temperature=st.floats(0.0, 20.0), xi=st.floats(0.0, 5.0), a2=st.floats(0.0, 1.0),
       lattice=st.booleans())
def test_packed_reductions_match_the_channels(b, delta_alpha, spins, temperature, xi, a2, lattice):
    # edge_leak and norm_deviation reduce the packed amplitudes of either
    # route at once; the same sums channel by channel, as the benchmark's
    # tracer forms them, agree
    molecule = MoleculeSpec("random", b, delta_alpha, *spins)
    ens = boltzmann_ensemble(molecule, temperature)
    if lattice:
        pulse = elliptic_pulse(xi / xi_per_intensity(molecule, 0.1), a2, 1.0 - a2)
        cs = dynamics.elliptic_tdse_ensemble(molecule, ens, pulse)
    else:
        cs = kick_ensemble(molecule, ens, xi)
    assert cs.kind == ("jm" if lattice else "chain")
    leak = norm = total = 0.0
    for ch in cs.channels:
        pops = np.abs(ch.amplitudes) ** 2
        leak += ch.weight * float(pops[ch.js >= cs.j_max - 1].sum())
        norm += ch.weight * float(pops.sum())
        total += ch.weight
    assert cs.edge_leak() == pytest.approx(leak, rel=1e-12, abs=1e-300)
    assert abs(cs.norm_deviation() - abs(norm / total - 1.0)) <= 1e-13


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(molecule=st.one_of(st.just(CO2), _RANDOM_MOLECULES), temperature=st.floats(0.0, 150.0),
       xi=st.floats(0.1, 15.0), axis=st.sampled_from("xyz"))
def test_level_series_recombine_to_the_series(molecule, temperature, xi, axis):
    # each level's share of a kick's series, recombined with the ensemble's
    # own level weights, is the kicked set's series on every lab axis, to
    # roundoff; the lines the chains do not hold are zero
    ens = boltzmann_ensemble(molecule, temperature)
    cs = kick_ensemble(molecule, ens, xi)
    levels, (constants,), lines, (z,) = dynamics.kick_level_series(ens, [xi], cs.j_max, axis)
    weights = np.bincount(ens.j0, weights=ens.weights)
    assert np.array_equal(levels, np.flatnonzero(weights))
    constant, want = cs.series_terms(axis)
    scale = np.max(np.abs(want))
    assert abs(constants @ weights[levels] - constant) <= 1e-14 * scale + 4.0 * np.finfo(float).eps
    assert np.max(np.abs(z @ weights[levels] - want[lines])) <= 1e-14 * scale
    assert not np.delete(want, lines).any()


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(molecule=st.one_of(st.just(CO2), _RANDOM_MOLECULES), temperature=st.floats(0.0, 150.0),
       top=st.floats(0.1, 10.0), nodes=st.sampled_from(["one", "all", "odd"]), axis=st.sampled_from("xyz"))
@example(molecule=CO2, temperature=150.0, top=3.2, nodes="all", axis="y")  # fit-series' surface
@example(molecule=MoleculeSpec("random", 0.7, 2.0, 1.0, 3.0), temperature=60.0, top=5.0, nodes="odd", axis="x")
@example(molecule=CO2, temperature=293.0, top=3.2, nodes="all", axis="z")  # one node per chunk
def test_batched_kicks_are_the_kicks_level_series(molecule, temperature, top, nodes, axis):
    # kick_level_series on the basis of the strongest node's kick, at 1
    # node, at 21 Chebyshev nodes on [top / 6, top] or at the odd nodes of
    # 41 (a surface's first set and the nodes its doubling adds; odd-J spin
    # weights step each chain's lines and levels by 2).  The bound is bit
    # for bit: each node's constants and lines equal those of a one-node
    # call under np.array_equal (-0.0 == 0.0).  The kick work checked is
    # every node's, and the traced peak, less the memory held before it,
    # stays under the bytes checked
    ens = boltzmann_ensemble(molecule, temperature)
    x = np.cos(np.pi * np.arange(41) / 40)
    xis = top * (7.0 + 5.0 * x) / 12.0
    xis = {"one": xis[:1], "all": xis[::2], "odd": xis[1::2]}[nodes]
    j_max = kick_ensemble(molecule, ens, top).j_max
    checked = []
    with pytest.MonkeyPatch.context() as mp:
        check = dynamics._check_budgets
        mp.setattr(dynamics, "_check_budgets", lambda j, budgets: checked.append(budgets(j)) or check(j, budgets))
        dynamics.kick_level_series(ens, xis, j_max, axis)  # numpy's lazily built tables are not the kicks'
        dynamics.clear_caches()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            levels, constants, lines, z = dynamics.kick_level_series(ens, xis, j_max, axis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    (nbytes, work), = set(checked)
    layout = dynamics._chain_layout(ens, j_max, dynamics._chains(ens))
    assert work == len(xis) * int(np.sum(layout.sizes ** 2 * layout.counts))
    assert peak - before <= nbytes
    if temperature == 293.0:  # the largest run, 2 blocks of 75 x 33, takes its nodes one by one
        assert max(run[5] - run[4] for run in layout.runs) > dynamics.GATHER_CHUNK // 2
    assert constants.shape == (len(xis), len(levels)) and z.shape == (len(xis), len(lines), len(levels))
    for node, xi in enumerate(xis):
        want = dynamics.kick_level_series(ens, [xi], j_max, axis)
        assert np.array_equal(levels, want[0]) and np.array_equal(lines, want[2])
        assert np.array_equal(constants[node], want[1][0]) and np.array_equal(z[node], want[3][0])


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
    rows, cols, x = cos2theta_axis_matrix(basis, "x")
    coupling = rows, cols, pulse.a2 * x + pulse.b2 * cos2theta_axis_matrix(basis, "y")[2]
    origins = basis.site(j0, [m0, -m0])
    schedule = dynamics._rkn_schedule(pulse, molecule, basis.j_max)
    amps = np.zeros((len(basis), 2), dtype=complex)
    dynamics._lattice_steps(basis, coupling, molecule, origins, schedule, amps)
    mirror = basis.site(basis.j_of, -basis.m_of)
    assert np.max(np.abs(amps[mirror, 1] - amps[:, 0])) <= 1e-12
    assert abs(np.linalg.norm(amps[:, 0]) - 1.0) <= 1e-12


def _sector_basis(column, coefficient, js):
    """A reflection sector's n x n_s W, dense: each site's coefficient on its column."""
    w = np.zeros((len(column), len(js)))
    inside = np.flatnonzero(column >= 0)
    w[inside, column[inside]] = coefficient[inside]
    return w


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(j_max=st.integers(2, 30), j_parity=st.integers(0, 1), m_parity=st.integers(0, 1))
def test_reflection_sectors_split_the_lattice(j_max, j_parity, m_parity):
    # the sectors of R|J,M> = (-1)^M |J,-M> together form an orthogonal basis
    # of the group, R commutes with both axis operators and is +-1 on the
    # sectors, so no axis operator couples them
    basis = JMBasis(j_max, j_parity, m_parity)
    plus, minus = (_sector_basis(*sector) for sector in dynamics._reflection_sectors(basis))
    assert plus.shape[1] + minus.shape[1] == dynamics._lattice_size(j_max, j_parity, m_parity) == len(basis)
    w = np.hstack([plus, minus])
    assert np.max(np.abs(w.T @ w - np.eye(len(basis)))) <= 1e-15
    reflection = np.zeros((len(basis), len(basis)))
    reflection[basis.site(basis.j_of, -basis.m_of), np.arange(len(basis))] = (-1.0) ** basis.m_of
    assert np.array_equal(reflection @ plus, plus)
    assert np.array_equal(reflection @ minus, -minus)
    for axis in "xy":
        c = dense_operator(cos2theta_axis_matrix(basis, axis), len(basis))
        assert np.max(np.abs(reflection @ c - c @ reflection)) <= 1e-15
        assert np.all(np.abs(plus.T @ c @ minus) <= 1e-15)


@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(temperature=st.floats(0.0, 40.0), xi=st.floats(0.1, 6.0), a2=st.floats(0.0, 1.0))
@example(temperature=20.0, xi=3.0, a2=1.0)  # moved 3.3e-9 when sized to the edge contract, 1e-8
@example(temperature=20.0, xi=0.1, a2=2 / 3)  # y suppressed
def test_measured_lattice_basis_holds_its_edge_and_traces(temperature, xi, a2):
    # the unsized lattice propagates at the basis its sudden chain kick
    # measures, without regrowing, inside the edge contract, and its traces
    # match those at the fixed headroom of suggest_j_max within 1e-9 of the
    # larger axis peak: at A^2 near 2/3 the y trace stays near zero, and its
    # own peak scales roundoff up to 7e-9
    ens = boltzmann_ensemble(CO2, temperature)
    pulse = elliptic_pulse(xi / xi_per_intensity(CO2), a2, 1.0 - a2)
    cs = elliptic_tdse_ensemble(CO2, ens, pulse)
    assert cs.j_max == dynamics._reach(dynamics._measured_kick(CO2, ens, cs.xi), ens.j_thermal_max)
    assert cs.edge_leak() <= dynamics.EDGE_POPULATION_TOL
    wide = elliptic_tdse_ensemble(CO2, ens, pulse, suggest_j_max(ens.j_thermal_max, cs.xi))
    times = revival_time_grid(CO2, 256, t_start=0.5)
    got, want = ([reconstruct(fourier_decompose(s, axis), times).values for axis in "xy"] for s in (cs, wide))
    peak = max(np.max(np.abs(w)) for w in want)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-9 * peak


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(molecule=st.one_of(st.just(CO2), _RANDOM_MOLECULES), temperature=st.floats(0.0, 300.0),
       xi=st.floats(0.1, 35.0))
@example(molecule=MoleculeSpec("random", 0.2, 2.0, 1.0, 1.0), temperature=5.0, xi=13.0)
@example(molecule=MoleculeSpec("random", 0.2, 2.0, 1.0, 3.0), temperature=300.0, xi=35.0)
def test_probe_bound_holds_the_measured_reach(molecule, temperature, xi):
    # the probe's first kick, each level's M0 = 0 origin with the level's
    # weight, bounds the reach of the whole ensemble's kick on
    # suggest_j_max's basis from above, and its second kick, on the bound
    # plus 2, measures exactly that reach (measured on the bound itself, the
    # first example reads 39, not 38).  Every kick's traced peak, less the
    # memory held before it, stays under the working-set estimate checked
    # for it
    ens = boltzmann_ensemble(molecule, temperature)
    with pytest.MonkeyPatch.context() as mp:
        _, runs = trace_propagations(mp)
        tracemalloc.start()
        try:
            measured = dynamics._reach(dynamics._measured_kick(molecule, ens, xi), ens.j_thermal_max)
        finally:
            tracemalloc.stop()
    for run in runs:
        assert run.peak - run.before <= run.estimate
    first = [run.cs for run in runs if run.ensemble is not ens][-1]
    rest = [run.cs for run in runs if run.ensemble is ens]
    assert np.all(first.layout.m0 == 0) and len(first.weights) == len(np.unique(ens.j0))
    bound = dynamics._reach(first, ens.j_thermal_max)
    oracle = dynamics._reach(kick_ensemble(molecule, ens, xi), ens.j_thermal_max)
    assert bound >= oracle and measured == oracle
    assert rest[0].j_max == bound + 2 and rest[-1].edge_leak() <= dynamics.PROBE_EDGE_TOL


def _direct_decomposition(problem: FitProblem, key: tuple[int, int]):
    """The cache's decomposition of a key as one direct kick, on a basis
    sized at the key's temperature and the larger of its intensity and the
    top of the intensity box."""
    q, molecule = problem.cache_quantum, problem.molecule
    ens = boltzmann_ensemble(molecule, key[1] * q)
    per_i = xi_per_intensity(molecule, problem.tau_fwhm_ps)
    j_max = suggest_j_max(ens.j_thermal_max, per_i * max(key[0] * q, problem.bounds["intensity"][1]))
    return fourier_decompose(kick_ensemble(molecule, ens, per_i * (key[0] * q), j_max), "y")


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(molecule=st.one_of(st.just(CO2), _RANDOM_MOLECULES), intensities=st.tuples(st.floats(0.0, 20.0),
       st.floats(0.5, 20.0)), temperatures=st.tuples(st.floats(0.0, 100.0), st.floats(1.0, 100.0)),
       points=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=3, max_size=3))
@example(molecule=CO2, intensities=(5.0, 25.0), temperatures=(20.0, 130.0),  # fit-series' box
         points=[(0.52, 0.31), (0.11, 0.02), (0.97, 0.74)])
@example(molecule=CO2, intensities=(5.0, 25.0), temperatures=(0.0, 2.0),  # its nodes double to 41
         points=[(0.52, 0.31), (0.11, 0.02), (0.97, 0.74)])
def test_kick_surface_matches_direct_kicks(molecule, intensities, temperatures, points):
    # in the box, the surface's lines and constant lie within 1e-12 of the
    # largest line of a direct kick of the same ensemble on its basis (or,
    # for the weakest kicks, within the direct kick's own roundoff);
    # outside it, the cache's decomposition is the direct path's, bit for bit
    lo, width = intensities
    bottom, span = temperatures
    problem = FitProblem(molecule, "perpendicular", cache_quantum=1e-3,
                         bounds={"intensity": (lo, lo + width), "temperature": (bottom, bottom + span)})
    cache = EnsembleCache(problem)
    surface = cache.surface
    q, per_i = problem.cache_quantum, xi_per_intensity(molecule, problem.tau_fwhm_ps)
    keys = [(surface.lo, surface.top), (surface.hi, surface.bottom)]
    keys += [(round(surface.lo + a * (surface.hi - surface.lo)), round(surface.bottom + b * (surface.top - surface.bottom)))
             for a, b in points]
    for key in keys:
        ens = boltzmann_ensemble(molecule, key[1] * q)
        xi = per_i * (key[0] * q)
        constant, z = surface.series(key, ens, xi)
        want_constant, want_z = kick_ensemble(molecule, ens, xi, surface.j_max).series_terms("y")
        # a weak kick's constant and lines are sums of terms of order 1 that
        # cancel: the direct kick's own roundoff, a few eps, is the floor
        tol = 1e-12 * np.max(np.abs(want_z)) + 4.0 * np.finfo(float).eps
        assert abs(constant - want_constant) <= tol
        assert np.max(np.abs(z - want_z)) <= tol
    outside = [(0, surface.top), (surface.hi + 1, surface.bottom), (surface.lo, surface.top + 1000)]
    outside += [(surface.lo, surface.bottom - 1000)] if surface.bottom >= 1000 else []
    for key in outside:
        dec, want = cache.decomposition(key[0] * q, key[1] * q), _direct_decomposition(problem, key)
        assert dec.to_dict() == want.to_dict() and dec.metadata == want.metadata
        assert all(np.array_equal(getattr(dec, name), getattr(want, name))
                   for name in ("js", "amplitudes", "phases", "omegas"))


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(molecule=st.one_of(st.just(CO2), _RANDOM_MOLECULES), scheme=st.sampled_from(["perpendicular", "parallel"]),
       intensities=st.tuples(st.floats(1.0, 20.0), st.floats(0.5, 20.0)),
       temperatures=st.tuples(st.floats(0.0, 100.0), st.floats(1.0, 100.0)),
       cells=st.lists(st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)), min_size=2, max_size=2),
       t0=st.floats(-0.3, 0.3), background=st.tuples(st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)))
@example(molecule=CO2, scheme="perpendicular", intensities=(5.0, 25.0), temperatures=(20.0, 130.0),
         cells=[(0.52, 0.31), (1.3, 0.31)], t0=0.0, background=(0.0, 0.0))  # fit-series' box, in it and above
def test_model_signal_is_simulates_sudden_pipeline(molecule, scheme, intensities, temperatures, cells, t0,
                                                   background):
    # ROADMAP item 6's sudden, no-probe quadrant: at cells on the cache's
    # grid, in the box (the surface) and outside it (the direct kick), with
    # a shared cache and without one, the fit's forward model is simulate's
    # sudden pipeline within EDGE_POPULATION_TOL of the signal's peak, the
    # edge population both bases stay under
    lo, width = intensities
    bottom, span = temperatures
    fixed = {"t_offset": t0}
    if scheme == "parallel":
        fixed.update(background_re=background[0], background_im=background[1])
    problem = FitProblem(molecule, scheme, cache_quantum=1e-3, fixed=fixed,
                         bounds={"intensity": (lo, lo + width), "temperature": (bottom, bottom + span)})
    q, cache = problem.cache_quantum, EnsembleCache(problem)
    delays = np.linspace(t0 - 0.5, t0 + revival_period(molecule.b_cm1), 500)
    for a, b in cells:
        cell = {"intensity": round(max(lo + a * width, 0.05) / q) * q,
                "temperature": round(max(bottom + b * span, 0.0) / q) * q}
        params = problem.resolve(cell)
        want = simulated_signal(problem, params, delays)
        tol = dynamics.EDGE_POPULATION_TOL * np.max(np.abs(want))
        for shared in (cache, None):
            assert np.max(np.abs(model_signal(params, problem, delays, shared) - want)) <= tol


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(molecule=st.one_of(st.just(CO2), _RANDOM_MOLECULES), lattice=st.booleans(), data=st.data())
def test_budgets_bound_every_propagation_and_count_its_kicks(molecule, lattice, data):
    # the chain TDSE from 0 to 300 K, and the unsized elliptic lattice with
    # the probe's sudden kicks that size it up to 40 K (at 300 K one lattice
    # propagation takes 1-30 s).  Every propagation's traced peak, less the
    # memory held before it, stays under the working-set estimate checked
    # for it, and the kick work checked for it is the kicks of the schedule
    # that ran (one for a sudden kick) times the n x n products with k
    # columns of each chain or reflection sector
    temperature = data.draw(st.floats(0.0, 40.0 if lattice else 300.0), label="temperature")
    xi = data.draw(st.floats(0.1, 6.0 if lattice else 15.0), label="xi")
    tau = data.draw(st.floats(0.05, 0.3 if lattice else 0.5), label="tau")
    ens = boltzmann_ensemble(molecule, temperature)
    intensity = xi / xi_per_intensity(molecule, tau)
    if lattice:
        a2 = data.draw(st.floats(0.0, 1.0), label="a2")
        pulse = elliptic_pulse(intensity, a2, 1.0 - a2, tau)
    else:
        pulse = PulseSpec(intensity, tau)
    counted = []
    with pytest.MonkeyPatch.context() as mp:
        _, runs = trace_propagations(mp)
        check, schedule, channel_set = dynamics._check_budgets, dynamics._rkn_schedule, dynamics.ChannelSet
        attempt = {}

        def counted_check(j_max, budgets):
            attempt.update(work=budgets(j_max)[1], kicks=1)  # a sudden kick builds no schedule
            check(j_max, budgets)

        def counted_schedule(*args):
            plan = schedule(*args)
            attempt["kicks"] = len(plan[1])
            return plan

        def counted_set(*fields):
            cs = channel_set(*fields)
            counted.append((attempt["work"], attempt["kicks"]))
            return cs

        mp.setattr(dynamics, "_check_budgets", counted_check)
        mp.setattr(dynamics, "_rkn_schedule", counted_schedule)
        mp.setattr(dynamics, "ChannelSet", counted_set)
        tracemalloc.start()
        try:
            (elliptic_tdse_ensemble if lattice else tdse_ensemble)(molecule, ens, pulse)
        finally:
            tracemalloc.stop()
    assert len(runs) == len(counted) >= (3 if lattice else 1)
    for run, (work, kicks) in zip(runs, counted):
        assert run.peak - run.before <= run.estimate
        lay = run.cs.layout
        if lay.bases:
            unit = sum(k * sum(len(js) ** 2 for *_, js in dynamics._reflection_sectors(basis))
                       for basis, k in zip(lay.bases, lay.counts.tolist()))
        else:
            unit = int(np.sum(lay.sizes ** 2 * lay.counts))
        assert work == kicks * unit


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(molecule=st.one_of(st.just(CO2), _RANDOM_MOLECULES), temperature=st.floats(0.0, 300.0),
       xi=st.floats(0.1, 15.0), tau=st.floats(0.05, 0.5))
@example(molecule=CO2, temperature=0.0, xi=5.0, tau=0.1)  # one chain: a layout of one run
@example(molecule=CO2, temperature=293.0, xi=13.33, tau=0.1)  # simulate-tdse's 293 K cell at 30 TW/cm^2
def test_threaded_tdse_is_the_one_worker_tdse(molecule, temperature, xi, tau):
    # each run writes its own slice and makes its BLAS calls on one thread,
    # so three workers, more than the machine's cores, switching threads
    # every 10 microseconds, give the amplitudes of one worker bit for bit
    ens = boltzmann_ensemble(molecule, temperature)
    pulse = PulseSpec(xi / xi_per_intensity(molecule, tau), tau)
    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_workers", lambda: 1)
        one = tdse_ensemble(molecule, ens, pulse)
        mp.setattr(dynamics, "_workers", lambda: 3)
        sys.setswitchinterval(1e-5)
        try:
            three = tdse_ensemble(molecule, ens, pulse)
        finally:
            sys.setswitchinterval(interval)
    assert one.j_max == three.j_max and np.array_equal(one.amplitudes, three.amplitudes)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(molecule=st.one_of(st.just(CO2), _RANDOM_MOLECULES), temperature=st.floats(0.0, 60.0),
       xi=st.floats(0.1, 5.0), tau=st.floats(0.05, 0.2), a2=st.floats(0.0, 1.0))
@example(molecule=MoleculeSpec("random", 0.5, 2.0, 1.0, 3.0), temperature=20.0, xi=3.0, tau=0.1,
         a2=2 / 3)  # four groups, both J parities
def test_threaded_lattice_is_the_one_worker_lattice(molecule, temperature, xi, tau, a2):
    # each group's two sectors run in order on one worker and add into the
    # group's own slice, with every BLAS call on one thread, so three
    # workers, switching threads every 10 microseconds, give the amplitudes
    # of one worker bit for bit, from A^2 = 0 (a pump along y) to 1 (along x)
    ens = boltzmann_ensemble(molecule, temperature)
    pulse = elliptic_pulse(xi / xi_per_intensity(molecule, tau), a2, 1.0 - a2, tau)
    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_workers", lambda: 1)
        one = elliptic_tdse_ensemble(molecule, ens, pulse)
        mp.setattr(dynamics, "_workers", lambda: 3)
        sys.setswitchinterval(1e-5)
        try:
            three = elliptic_tdse_ensemble(molecule, ens, pulse, one.j_max)
        finally:
            sys.setswitchinterval(interval)
    assert np.array_equal(one.layout.sizes, three.layout.sizes)
    assert np.array_equal(one.amplitudes, three.amplitudes)


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
