"""Property tests: the kicked thermal ensemble over temperature and kick
strength, the chain stepper's kick schedule over pulses, its step count over
temperature, kick strength and pulse length, the chain stepper and the
lattice's groups, on one worker and on many, the warm chain cache, the revivals and the packed
reductions of both routes over random molecules, the lattice's +-M mirror
symmetry and reflection sectors, the tail bound that sizes the lattice,
the regime scan and the fit's surface, the chain series split by thermal
level, the fit's kick-strength surface against direct kicks, the fit's forward
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
@example(temperature=24.4, xi=0.1, a2=0.0)  # moved 1.3e-9 when sized to the edge contract, 1e-8
def test_bound_lattice_basis_holds_its_edge_and_traces(temperature, xi, a2):
    # the unsized lattice propagates at the tail bound of the sudden kick of
    # its xi (tail_j_max) at LATTICE_START_TOL, without regrowing, inside the
    # edge contract, and its traces match those at the fixed headroom of
    # suggest_j_max within 1e-9 of the larger axis peak: at A^2 near 2/3 the
    # y trace stays near zero, and its own peak scales roundoff up to 7e-9
    ens = boltzmann_ensemble(CO2, temperature)
    pulse = elliptic_pulse(xi / xi_per_intensity(CO2), a2, 1.0 - a2)
    cs = elliptic_tdse_ensemble(CO2, ens, pulse)
    assert cs.j_max == dynamics.tail_j_max(ens, cs.xi, dynamics.LATTICE_START_TOL)
    assert cs.edge_leak() <= dynamics.EDGE_POPULATION_TOL
    wide = elliptic_tdse_ensemble(CO2, ens, pulse, suggest_j_max(ens.j_thermal_max, cs.xi))
    times = revival_time_grid(CO2, 256, t_start=0.5)
    got, want = ([reconstruct(fourier_decompose(s, axis), times).values for axis in "xy"] for s in (cs, wide))
    peak = max(np.max(np.abs(w)) for w in want)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-9 * peak


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(molecule=st.one_of(st.just(CO2), _RANDOM_MOLECULES), temperature=st.floats(0.0, 300.0),
       xi=st.floats(0.1, 35.0), weaker=st.floats(0.0, 1.0))
@example(molecule=MoleculeSpec("random", 0.2, 2.0, 1.0, 1.0), temperature=5.0, xi=13.0, weaker=0.5)
@example(molecule=MoleculeSpec("random", 0.2, 2.0, 1.0, 3.0), temperature=300.0, xi=35.0, weaker=0.99)
def test_tail_bound_holds_the_edge_and_the_measured_reach(molecule, temperature, xi, weaker):
    # the ensemble's sudden kick on the tail bound's basis holds the edge
    # contract; the bound is at least the reach of the same kick on
    # suggest_j_max's basis, the smallest j_max >= J_thermal_max whose top two
    # shells hold at most EDGE_POPULATION_TOL of its population; and a weaker
    # kick takes no larger basis.  Every kick's traced peak, less the memory
    # held before it, stays under the working-set estimate checked for it
    ens = boltzmann_ensemble(molecule, temperature)
    bound = dynamics.tail_j_max(ens, xi)
    with pytest.MonkeyPatch.context() as mp:
        _, runs = trace_propagations(mp)
        tracemalloc.start()
        try:
            tight = kick_ensemble(molecule, ens, xi, bound)
            wide = kick_ensemble(molecule, ens, xi)
        finally:
            tracemalloc.stop()
    for run in runs:
        assert run.peak - run.before <= run.estimate
    assert tight.edge_leak() <= dynamics.EDGE_POPULATION_TOL
    assert wide.j_max == suggest_j_max(ens.j_thermal_max, xi)
    beyond = np.cumsum(wide.level_populations()[::-1])[::-1]  # population at J >= j, non-increasing in j
    reach = max(ens.j_thermal_max, int(np.count_nonzero(beyond > dynamics.EDGE_POPULATION_TOL)) + 1)
    assert reach <= bound
    assert dynamics.tail_j_max(ens, weaker * xi) <= bound


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
    # the chain TDSE from 0 to 300 K, and the unsized elliptic lattice, sized
    # by the tail bound with no kick, up to 40 K (at 300 K one lattice
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
    assert len(runs) == len(counted) >= 1
    if lattice:  # one attempt, at the tail bound, holds the edge
        assert [run.cs.j_max for run in runs] == [dynamics.tail_j_max(ens, runs[0].cs.xi, dynamics.LATTICE_START_TOL)]
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


_ANY_NUMBER = st.one_of(st.none(), st.booleans(), st.text(max_size=2), st.floats(), st.integers(-5, 5))


@st.composite
def _configs(draw):
    """(subcommand, config) for any subcommand: geometry; simulate or
    fourier with the sudden kick or the TDSE, linear or elliptic, with an
    explicit basis, a probe and a background; validate; and a fit of the
    scan beside the config.  About half the configs keep every value in its
    working range, so that runs also get through; the others mix each range
    with values beyond it."""
    working = draw(st.booleans())

    def pick(good, bad):
        return draw(good if working else st.one_of(good, good, bad))

    subcommand = draw(st.sampled_from(["simulate", "fourier", "geometry", "validate", "fit"]))
    if subcommand == "geometry":
        return subcommand, {
            "scheme": draw(st.sampled_from(["parallel", "perpendicular", "crossed"])),
            "wavelength_nm": pick(st.floats(200.0, 2000.0), st.floats()),
            "crossing_angle_deg": pick(st.floats(0.1, 10.0), st.floats()),
        }
    # elliptic lattices and explicit bases run up to 40 K: a lattice takes
    # seconds at 293 K even stubbed, in its operators
    temperature = pick(st.floats(0.0, 40.0), st.floats(-10.0, 1e9))
    intensity = pick(st.floats(0.0, 100.0), st.one_of(st.floats(-10.0, 1e6), st.floats(1e6, 1e300)))
    cfg = {"molecule": "CO2", "temperature_K": temperature}
    options = {
        "j_max": lambda: pick(st.integers(0, 120), st.one_of(st.integers(-5, -1), st.integers(10**6, 10**18),
                                                             _ANY_NUMBER)),
        "tau_fwhm_ps": lambda: pick(st.floats(0.02, 0.5), st.floats()),
    }
    if subcommand == "validate":
        cfg["intensity_tw_cm2"] = intensity
        suites = st.lists(st.sampled_from(["operators", "sudden_vs_tdse", "elliptic", "regimes", "hygiene"]),
                          min_size=1, max_size=2, unique=True)
        options["suites"] = lambda: pick(suites, st.one_of(st.lists(st.text(max_size=2), max_size=2), _ANY_NUMBER))
    elif subcommand == "fit":
        cfg.update(scheme=pick(st.sampled_from(["parallel", "perpendicular"]), st.just("crossed")),
                   trace_path="scan.csv")
        free = draw(st.lists(st.sampled_from(["intensity", "temperature"]), min_size=1, max_size=2, unique=True))
        pair = st.tuples(st.floats(0.0, 40.0), st.floats(0.0, 40.0)).map(sorted)
        cfg["bounds"] = {name: pick(pair, st.lists(_ANY_NUMBER)) for name in free}
        cfg["fixed"] = {name: pick(st.floats(0.0, 40.0), _ANY_NUMBER)
                        for name in ("intensity", "temperature") if name not in free}
        options.update(max_evaluations=lambda: draw(st.integers(-1, 20)),
                       refine_starts=lambda: draw(st.integers(0, 2)),
                       n_intensity_starts=lambda: draw(st.integers(0, 3)),
                       n_temperature_starts=lambda: draw(st.integers(0, 3)),
                       cache_quantum=lambda: pick(st.floats(1e-6, 1.0), st.floats()))
    else:
        cfg["t0_ps"] = pick(st.floats(-1.0, 1.0), st.floats())
        # grids between 64 samples and the working-set budget (~2.5e7) are
        # valid but slow runs; the extremes lie beyond that budget
        cfg["time_grid"] = {
            "n": pick(st.integers(2, 64), st.one_of(st.integers(10**8, 10**15), st.integers(-(10**15), 1))),
            "t_start_ps": pick(st.floats(-1.0, 5.0), st.floats()),
            "periods": pick(st.floats(0.1, 2.0), st.floats()),
        }
        if subcommand == "simulate":
            cfg["method"] = pick(st.sampled_from(["sudden", "tdse"]), st.text(max_size=2))
            cfg["scheme"] = draw(st.sampled_from(["parallel", "perpendicular", "crossed"]))
            cfg[draw(st.sampled_from(["single_pump_intensity_tw_cm2", "theoretical_intensity_tw_cm2"]))] = intensity
            options["probe_tau_fwhm_ps"] = lambda: pick(st.floats(0.01, 1.0), st.floats())
            options["plasma_background"] = lambda: pick(
                st.one_of(st.floats(-1.0, 1.0), st.fixed_dictionaries({}, optional={"re": st.floats(-1.0, 1.0),
                                                                                    "im": st.floats(-1.0, 1.0)})),
                st.one_of(st.fixed_dictionaries({}, optional={"re": st.floats(), "im": _ANY_NUMBER}), _ANY_NUMBER))
        else:
            cfg["intensity_tw_cm2"] = intensity
            if draw(st.booleans()):  # elliptic, on the lattice, up to 1e300 TW/cm^2
                a2 = draw(st.floats(0.0, 1.0))
                cfg.update(method="tdse", polarization=[math.sqrt(a2), math.sqrt(1.0 - a2)],
                           intensity_tw_cm2=draw(st.one_of(st.floats(0.0, 20.0), st.floats(0.0, 1e300))))
            else:
                cfg["method"] = pick(st.sampled_from(["sudden", "tdse"]), st.text(max_size=2))
                cfg["polarization"] = pick(st.just("linear"), st.lists(_POLARIZATION_ENTRY, max_size=3))
    for key, value in options.items():
        if draw(st.booleans()):
            cfg[key] = value()
    return subcommand, cfg


@pytest.fixture(scope="module")
def stubbed_propagations():
    """Every chain kicks as the identity, eigendecompositions and steps
    skipped, and every lattice group stays on its origins: sizing, budgets,
    layouts, series and files run as they do, at the cost of one GEMM per
    kick."""
    def identity_eigen(layout):
        square = dynamics._starts(layout.sizes * layout.sizes)
        evecs = np.zeros(square[-1])
        for n, s in zip(layout.sizes.tolist(), square[:-1].tolist()):
            evecs[s:s + n * n:n + 1] = 1.0
        return np.zeros(int(layout.sizes.sum())), evecs

    def on_origins(basis, coupling, molecule, origins, schedule, amps):
        amps[origins, np.arange(len(origins))] = 1.0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics.BlockLayout, "eigen", property(identity_eigen))
        mp.setattr(dynamics, "_compose", lambda *args: None)
        mp.setattr(dynamics, "_lattice_steps", on_origins)
        yield


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(run=_configs())
@example(run=("fourier", {"molecule": "CO2", "temperature_K": 30.0, "intensity_tw_cm2": 1e300, "method": "tdse",
                          "polarization": [0.8, 0.6]}))  # sized by the tail bound, then over the budget
def test_cli_exit_codes_over_generated_configs(stubbed_propagations, run):
    # every input ends in 0 (done), 2 (bad config or over a budget), 3
    # (numerical failure) or 4 (fit not converged), never a traceback
    subcommand, cfg = run
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        with open(os.path.join(tmp, "scan.csv"), "w", encoding="utf-8") as fh:
            fh.write("delay_ps,signal_au\n" + "".join(f"{0.5 + 0.1 * k},{1.0 + 0.01 * k}\n" for k in range(60)))
        assert main([subcommand, "--config", path, "--out", os.path.join(tmp, "out")]) in (0, 2, 3, 4)
