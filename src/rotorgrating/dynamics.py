"""Propagation of thermal rotor ensembles through the pump interaction.

Three drivers with one physical model, each returning a ChannelSet:

  * kick_ensemble: instantaneous kick exp(i xi cos^2 theta) of a pump
    polarized along y, the zero-width step of the chain stepper.
  * tdse_ensemble: finite pulse polarized along y, the chain stepper
    composed over the pulse window.
  * elliptic_tdse_ensemble: finite elliptic pulse, interaction
    A^2 cos^2 theta_x + B^2 cos^2 theta_y on the coupled (J,M) lattice, the
    same stepper in each reflection sector.

On a fixed-M (|M|, J-parity) chain d psi/dt = i (g(t) C - omega) psi, with
g = dxi/dt and C = cos^2 theta = V Lambda V^T cached per chain.  The free part
is quadratic in L and C acts as a potential, so [C, [C, [C, omega]]] = 0 and
the Runge-Kutta-Nystrom splittings apply: tdse_ensemble runs Blanes & Moan's
symmetric 4th-order SRKN_6^b (J. Comput. Appl. Math. 142, 313 (2002)),
b1 a1 b2 a2 b3 a3 b4 a3 b3 a2 b2 a1 b1, where a kick of weight b is the exact
V e^{i b H g(t) Lambda} V^T at the time t the free flows have reached and a
free flow of weight a is exp(-i omega a H) (a3 < 0 flows back).  n uniform
steps of width H span the pulse window, counted from the basis' fastest
Raman frequency and the pulse FWHM; adjacent steps share their end kick, so
n steps make 6n + 1 kicks.  Free flows act as V^T e^{-i omega d} V, so the
state stays in the eigenbasis between kicks, one complex GEMM per kick.

On a (J parity, M parity) lattice group C = A^2 cos^2 theta_x + B^2 cos^2
theta_y is one fixed operator too.  The reflection R|J,M> = (-1)^M |J,-M>
(phi -> -phi) commutes with C and omega: each sector, spanned by Wang's
signed combinations (Phys. Rev. 34, 243 (1929)), runs the same stepper on its
dense W^T C W with one eigh, and the group's state is the sum of the W a.

The drivers batch all thermal channels that share a (|M|, J-parity) chain or
a (J-parity, M-parity) lattice group into single linear-algebra calls, one
block per chain or group: an amplitude matrix with one column per channel.
The reduction order is fixed, so reruns are bit-identical.  Before it
allocates, each driver estimates its working set at the chosen j_max (and
again after every regrow) and raises ValueError naming the estimate when it
exceeds MAX_WORKING_SET_BYTES.

The chain blocks are packed.  A ChainLayout lays the n x k blocks end to end
in one amplitude array, in C order, in the order of the ensemble's chain
grouping (ThermalEnsemble.chains), and packs the eigendecompositions of
those chains the same way, built on the first kick.  One layout serves every
ensemble with the same channels at one j_max; _chain_layout, the one cache of
chain data, keeps the latest few that fit a share of the working-set budget.
The sudden kick fills every block's right-hand side V^T[:, rows] e^{i xi
Lambda} with one exponential of the eigenvalues, one repeat and one gather by
the layout's int32 index.  Then both linear drivers walk the layout's runs of
consecutive equal-shape blocks, each run one stack of matrices: the kick
runs one GEMM per block, tdse_ensemble composes the rest of its kicks, in
place in the packed array.  Every BLAS call sees the operands a
block-by-block loop would, so the packed kernel is bit-identical to it.
ChannelSet.series_terms(axis) reduces either layout to the terms of
observables' cosine series, lab-axis factor applied: PackedChains.series_terms
reduces the packed blocks per run, the lattice reduces each group's
lab-axis operator.  No other module reads a set's layout.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import groupby

import numpy as np
import scipy.linalg
import scipy.sparse
# no propagator calls it; perfbench/layers.py reads and rebinds dynamics.solve_ivp
from scipy.integrate import solve_ivp  # noqa: F401

from .field import PulseSpec, effective_area, kick_rate, pulse_half_window
from .rotor import (
    ChannelGroups,
    JMBasis,
    MoleculeSpec,
    ThermalEnsemble,
    _chain_groups,
    _starts,
    _within,
    check_axis,
    cos2theta_axis_matrix,
    cos2theta_diagonal,
    cos2theta_offdiag,
    raman_frequency,
    rotational_omega,
    suggest_j_max,
)

EDGE_POPULATION_TOL = 1e-8  # max weighted population allowed in the top two J shells
# Working-set budget of one propagation, checked before it allocates.  The
# 293 K, 30 TW/cm^2 linear TDSE needs ~5 MB, the 60 K elliptic one ~0.22 GB.
MAX_WORKING_SET_BYTES = 2e9
# Blanes & Moan's SRKN_6^b step b1 a1 b2 a2 b3 a3 b4 a3 b3 a2 b2 a1 b1: kick
# weights b1..b4 and free weights a1..a3 (a3 < 0), symmetric and 4th order
_B1, _B2, _B3 = 0.0829844064174052, 0.396309801498368, -0.0390563049223486
_A1, _A2 = 0.245298957184271, 0.604872665711080
RKN_KICKS = (_B1, _B2, _B3, 1.0 - 2.0 * (_B1 + _B2 + _B3))
RKN_FREE = (_A1, _A2, 0.5 - _A1 - _A2)
# RKN steps per ps, STEPS_PER_RADIAN * omega_R,max + STEPS_PER_FWHM / tau:
# both the fastest Raman phase of the basis and the envelope are resolved
STEPS_PER_RADIAN, STEPS_PER_FWHM = 0.3, 3.0


class PropagationError(RuntimeError):
    """Base class for numerical propagation failures."""


class BasisTooSmallError(PropagationError):
    """Norm leaked into the top rotational shells; j_max must grow."""


# ---------------------------------------------------------------------------
# Fixed-M parity chains and their kick eigendecompositions
# ---------------------------------------------------------------------------

def _chain_start(m, parity):
    """Lowest J of the chain at |M| = m with the given J parity; accepts arrays."""
    m = np.abs(m)
    return m + (m % 2 != parity)


LAYOUT_CACHE_SIZE = 16  # one layout per (level set, j_max); a fit visits ~8
GATHER_CHUNK = 8192  # eigenvector entries gathered per step of the sudden kick
_LAYOUTS: OrderedDict[tuple, ChainLayout] = OrderedDict()


def clear_caches():
    """Empty the caches of the sudden and fit path: the chain layouts with their
    eigendecompositions, the ensembles' chain groupings and reconstruct's phase
    tables."""
    from .observables import _PHASES  # imported here: observables imports this module

    for cache in (_LAYOUTS, _PHASES):
        cache.clear()
    _chain_groups.cache_clear()


# ---------------------------------------------------------------------------
# The chain stepper: kicks and free flows of Blanes & Moan's RKN splitting
# ---------------------------------------------------------------------------

def _rkn_steps(pulse: PulseSpec, molecule: MoleculeSpec, j_max: int) -> int:
    """RKN steps over the pulse window for a chain basis up to j_max."""
    width = 2.0 * pulse_half_window(pulse)
    omega_max = raman_frequency(max(j_max - 2, 0), molecule)
    return max(1, math.ceil(width * (STEPS_PER_RADIAN * omega_max + STEPS_PER_FWHM / pulse.tau_fwhm_ps)))


def _rkn_schedule(pulse: PulseSpec, molecule: MoleculeSpec, j_max: int):
    """(times from t0, strengths G, distinct free times d, each gap's index into d) of the kicks.

    n steps of width H make 6n + 1 kicks: a step's last kick merges with the
    next step's first.  Kick i of weight b_i sits at the cumulative free
    weights, t_i, with G = b_i H g(t_i); the gaps are a1 H, a2 H and a3 H, in
    the order a1 a2 a3 a3 a2 a1 per step.  Times count from t0, so a short
    pulse far from t = 0 keeps its kicks apart.
    """
    h = pulse_half_window(pulse)
    n = _rkn_steps(pulse, molecule, j_max)
    step = 2.0 * h / n
    order = np.tile([0, 1, 2, 2, 1, 0], n)
    nodes = np.concatenate(([0.0], np.cumsum(np.take(RKN_FREE, order[:5]))))
    weights = np.append(np.tile(np.take(RKN_KICKS, [0, 1, 2, 3, 2, 1]), n), _B1)
    weights[6:-1:6] = 2.0 * _B1
    offsets = np.append(-h + step * (np.arange(n)[:, None] + nodes).ravel(), h)
    strengths = kick_rate(replace(pulse, t0_ps=0.0), molecule, offsets) * (weights * step)
    return offsets, strengths, np.multiply(RKN_FREE, step), order


def _gathered_kicks(layout: "ChainLayout", g: float) -> np.ndarray:
    """Right-hand sides of every block's kick, as packed amplitudes.

    Block b's n x k slice is V^T[:, rows] e^{i g Lambda} for its columns'
    origin rows; its float view is the n x 2k matrix of (re, im) column pairs
    that one real GEMM with V kicks.  One repeat of the phases and one gather
    from the layout's eigenvectors, by its int32 index, fill every block at
    once.
    """
    evals, evecs = layout.eigen
    row_counts, entries = layout.gather
    amps = np.repeat(np.exp(1j * g * evals), row_counts)
    rhs = amps.view(float).reshape(-1, 2)
    for lo in range(0, len(entries), GATHER_CHUNK):  # keeps the gathered factors small
        factors = np.take(evecs, entries[lo:lo + GATHER_CHUNK])
        rhs[lo:lo + GATHER_CHUNK, 0] *= factors
        rhs[lo:lo + GATHER_CHUNK, 1] *= factors
    return amps


def _chain_steps(evals, evecs, rhs, kicks, free):
    """Blocks' amplitudes, as ... x n x 2k floats: the kicks after the first, free[k] between, then V.

    rhs is the ... x n x 2k float view of the first kick's right-hand sides,
    V^T[:, rows] e^{i G Lambda}; free[k] = V^T e^{-i omega d} V for the free
    time d after kick k.  Leading axes stack blocks of one shape; each
    product is one BLAS call per block.  The state stays in the eigenbasis
    until the last GEMM with V.
    """
    z = rhs.view(complex)
    for rot, f in zip(np.exp(1j * np.multiply.outer(kicks[1:], evals))[..., None], free):
        z = f @ z
        z *= rot
    return evecs @ z.view(float)


def _compose(evals, vecs, omega, omega0, block, schedule):
    """Run a schedule in place on block, ... x n x 2k floats: the first kick's
    right-hand sides in, the amplitudes at the reference time out.  omega is
    each row's free frequency, omega0 each column origin's, for the free phases
    from the reference time to the first kick and back from the last."""
    offsets, kicks, gaps, order = schedule
    free = [(vecs.swapaxes(-1, -2) * np.exp(-1j * omega * d)[..., None, :]) @ vecs for d in gaps]
    block[...] = _chain_steps(evals, vecs, block, kicks, [free[k] for k in order])
    block = block.view(complex)
    block *= np.exp(1j * ((omega * offsets[-1])[..., :, None] - (omega0 * offsets[0])[..., None, :]))


# ---------------------------------------------------------------------------
# The (J,M) lattice: reflection sectors on the same stepper
# ---------------------------------------------------------------------------

def _reflection_sectors(basis: JMBasis) -> list:
    """The + and - sectors of R|J,M> = (-1)^M |J,-M> on a lattice group: per
    sector, the n x n_s sparse W whose orthonormal columns are (|J,M> +- (-1)^M
    |J,-M>)/sqrt2, one per M > 0 site (the + sector also holds |J,0>), and their J."""
    j, m = basis.j_of, basis.m_of
    mirror = basis.site(j, -m)
    sectors = []
    for sign, sites in ((1.0, np.flatnonzero(m >= 0)), (-1.0, np.flatnonzero(m > 0))):
        paired = m[sites] > 0
        cols = np.arange(len(sites))
        values = np.where(paired, math.sqrt(0.5), 1.0)
        mirrored = sign * values[paired] * (-1.0) ** m[sites[paired]]
        entries = (np.concatenate((sites, mirror[sites[paired]])), np.concatenate((cols, cols[paired])))
        w = scipy.sparse.csr_matrix((np.concatenate((values, mirrored)), entries), shape=(len(j), len(sites)))
        sectors.append((w, j[sites]))
    return sectors


def _lattice_steps(basis: JMBasis, coupling, molecule: MoleculeSpec, origins: np.ndarray, schedule):
    """Amplitudes at the reference time of the columns started on the basis sites
    `origins`, after the schedule's kicks of `coupling`: sum W a over the sectors.

    A column's sector component is W's row at its origin; a sector skips the
    columns it does not hold (an M0 = 0 origin lies in the + sector only).
    """
    omega0 = rotational_omega(basis.j_of[origins], molecule)
    first = schedule[1][0]
    amps = np.zeros((len(basis), len(origins)), dtype=complex)
    for w, js in _reflection_sectors(basis):
        start = w[origins]
        cols = np.flatnonzero(start.getnnz(axis=1))
        evals, vecs = np.linalg.eigh((w.T @ coupling @ w).toarray())
        # the first kick's right-hand side e^{i G Lambda} V^T a0, n x k in C order
        rhs = np.ascontiguousarray((start[cols] @ vecs).T, dtype=complex)
        rhs *= np.exp(1j * first * evals)[:, None]
        _compose(evals, vecs, rotational_omega(js, molecule), omega0[cols], rhs.view(float), schedule)
        amps[:, cols] += w @ rhs
    return amps


# ---------------------------------------------------------------------------
# Thermal-ensemble drivers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Channel:
    """One propagated channel, a column of its ChannelBlock: amplitudes over js."""

    j0: int
    m0: int
    weight: float
    js: np.ndarray
    basis: JMBasis | None
    amplitudes: np.ndarray


@dataclass(frozen=True)
class ChannelBlock:
    """Propagated channels sharing one basis, as the columns of one matrix.

    A fixed-M set has one block per (|M|, J parity) chain (basis None, js the
    chain); a (J,M)-lattice set has one per (J parity, M parity) group (js =
    basis.j_of).  Column k of the n x k `amplitudes` started on
    |j0[k], m0[k]> (m0 = |M0|) with thermal weight weights[k].
    """

    js: np.ndarray
    basis: JMBasis | None
    j0: np.ndarray
    m0: np.ndarray
    weights: np.ndarray
    amplitudes: np.ndarray


@dataclass(frozen=True, eq=False)
class ChainLayout:
    """Where the chains of a fixed-M ChannelSet lie in its packed amplitudes,
    and the chains' eigendecompositions.

    Block b holds group b of `origins`, the ensemble's channels on the chain
    (|M|, J parity) = origins.keys[b]: sizes[b] levels from J = starts[b] and
    counts[b] columns, its n x k amplitude matrix in C order at entries
    bounds[b] to bounds[b + 1].  One layout serves every ensemble with the
    same channels at j_max (_chain_layout) and builds its eigendecompositions
    and index arrays on first use.
    """

    origins: ChannelGroups
    j_max: int
    starts: np.ndarray
    sizes: np.ndarray
    counts: np.ndarray
    bounds: np.ndarray

    @cached_property
    def levels(self) -> np.ndarray:
        """J of every block row, block by block."""
        return np.repeat(self.starts, self.sizes) + 2 * _within(self.sizes)

    @cached_property
    def rows(self) -> np.ndarray:
        """Row of each column's origin in its block."""
        return (self.origins.j0 - np.repeat(self.starts, self.counts)) // 2

    def entries(self, rows: np.ndarray) -> np.ndarray:
        """Index of each column's entry in the given row of its block."""
        return np.repeat(self.bounds[:-1] - self.origins.bounds[:-1], self.counts) + (
            rows * np.repeat(self.counts, self.counts) + np.arange(len(rows)))

    @cached_property
    def eigen(self) -> tuple:
        """(evals, evecs) of every block's chain, packed in block order: block b's
        eigenvalues lie on its rows, its eigenvector matrix on its eigenvector
        entries (`runs`) in Fortran order, as LAPACK returns it, so that every
        GEMM with it keeps its BLAS path.  Each block's tridiagonal is its slice
        of `operator`, the doubled couplings halved exactly."""
        diag, _, coupling = self.operator
        first, lows, square = _starts(self.sizes), _starts(self.sizes - 1), _starts(self.sizes * self.sizes)
        evals, evecs = np.empty(first[-1]), np.empty(square[-1])
        for b in range(len(self.sizes)):
            evals[first[b]:first[b + 1]], vec = scipy.linalg.eigh_tridiagonal(
                diag[first[b]:first[b + 1]], coupling[lows[b]:lows[b + 1]] / 2.0)
            evecs[square[b]:square[b + 1]] = vec.ravel(order="F")
        return evals, evecs

    @cached_property
    def runs(self) -> list:
        """Runs of consecutive blocks of one shape n x k.

        Per run as Python ints: n, k, then the first and end of its blocks,
        amplitudes, columns, rows (and eigenvalues) and eigenvector entries.
        A run is one stacked BLAS batch, whose items match the per-block calls
        bit for bit.
        """
        n, k = self.sizes, self.counts
        first = np.flatnonzero(np.concatenate(([True], (n[1:] != n[:-1]) | (k[1:] != k[:-1]))))
        ends = np.append(first[1:], len(n))
        ranges = [np.arange(len(n) + 1), _starts(n * k), self.origins.bounds, _starts(n), _starts(n * n)]
        columns = [n[first], k[first]] + [x for r in ranges for x in (r[first], r[ends])]
        return list(zip(*(c.tolist() for c in columns)))

    @cached_property
    def gather(self) -> tuple:
        """The sudden kick's indices into `eigen`: per block row, its column count;
        per entry (i, c), the eigenvector entry V[rows[c], i], built run by run into int32."""
        entries = np.empty(self.bounds[-1], dtype=np.int32)
        for n, k, b0, b1, a0, a1, c0, c1, *_, v0, _ in self.runs:
            # V is stored in Fortran order: a block's V[r, i] lies at its first entry + n i + r
            first = v0 + n * n * np.arange(b1 - b0)[:, None, None] + n * np.arange(n)[:, None]
            np.add(first, self.rows[c0:c1].reshape(-1, 1, k), out=entries[a0:a1].reshape(-1, n, k))
        return np.repeat(self.counts, self.sizes), entries

    @cached_property
    def operator(self) -> tuple:
        """cos^2 theta on the blocks: its diagonal on every row, and, on every row
        but the last, J and twice the off-diagonal <J+2,M| cos^2 theta |J,M>.
        The one evaluation of the closed forms, for `eigen` and the series."""
        levels, m = self.levels, np.repeat(self.origins.keys[:, 0], self.sizes)
        lower = np.delete(np.arange(len(levels)), np.cumsum(self.sizes) - 1)
        return cos2theta_diagonal(levels, m), levels[lower], 2.0 * cos2theta_offdiag(levels[lower], m[lower])


def _chain_layout(origins: ChannelGroups, j_max: int) -> ChainLayout:
    """The layout of `origins` at j_max, built or taken from the cache.

    The cache keeps the LAYOUT_CACHE_SIZE most recently used layouts, each
    only while its eigenvectors, 8 sum n^2 bytes, fit that share of the
    working-set budget.
    """
    layout = _LAYOUTS.pop((origins, j_max), None)
    if layout is None:
        m, parity = origins.keys[:, 0], origins.keys[:, 1]
        starts = _chain_start(m, parity)
        sizes = (j_max - starts) // 2 + 1
        counts = np.diff(origins.bounds)
        layout = ChainLayout(origins, j_max, starts, sizes, counts, _starts(sizes * counts))
    if 8 * int(np.sum(layout.sizes ** 2)) <= MAX_WORKING_SET_BYTES / LAYOUT_CACHE_SIZE:
        _LAYOUTS[origins, j_max] = layout
        while len(_LAYOUTS) > LAYOUT_CACHE_SIZE:
            _LAYOUTS.popitem(last=False)
    return layout


@dataclass(frozen=True)
class PackedChains:
    """The blocks of a fixed-M ChannelSet: packed amplitudes, their layout and column weights."""

    layout: ChainLayout
    weights: np.ndarray
    amplitudes: np.ndarray

    def series_terms(self):
        """ChannelSet.series_terms of the field axis (y) on the chains.

        Per run of equal-shape blocks, |c|^2 and the products of adjacent
        rows reduced over the weighted columns, two GEMVs and a dot product
        per block, batched; the diagonal and couplings come with the layout.
        """
        lay, amps, weights = self.layout, self.amplitudes, self.weights
        diag, js, coupling = lay.operator
        complex_weights = weights.astype(complex)
        z = np.empty(len(js), dtype=complex)
        weighted, totals = np.empty(len(lay.sizes)), np.empty(len(lay.sizes))
        lows = _starts(lay.sizes - 1)
        for n, k, b0, b1, a0, a1, c0, c1, r0, r1, *_ in lay.runs:
            m, l0, l1 = b1 - b0, lows[b0], lows[b1]
            c = amps[a0:a1].reshape(m, n, k)
            cross = np.conj(c[:, 1:])
            cross *= c[:, :-1]
            np.matmul(cross, complex_weights[c0:c1].reshape(m, k, 1), out=z[l0:l1].reshape(m, n - 1, 1))
            pops = np.abs(c)
            pops *= pops
            w = weights[c0:c1].reshape(m, k)
            np.matmul(diag[r0:r1].reshape(m, 1, n), pops @ w[:, :, None], out=weighted[b0:b1].reshape(m, 1, 1))
            w.sum(axis=1, out=totals[b0:b1])
        return (weighted - totals / 3.0).tolist(), lows, js, coupling * z

    def blocks(self) -> tuple:
        lay, o, levels = self.layout, self.layout.origins, self.layout.levels
        return tuple(
            ChannelBlock(js, None, j0, m0, w, a)
            for n, k, _, _, a0, a1, c0, c1, r0, r1, *_ in lay.runs
            for js, j0, m0, w, a in zip(levels[r0:r1].reshape(-1, n), o.j0[c0:c1].reshape(-1, k),
                                        o.m0[c0:c1].reshape(-1, k), self.weights[c0:c1].reshape(-1, k),
                                        self.amplitudes[a0:a1].reshape(-1, n, k))
        )


@dataclass(frozen=True)
class ChannelSet:
    """Thermally weighted propagated channels, ready for observables.

    A fixed-M set holds its chains packed (`chains`), a (J,M)-lattice set one
    ChannelBlock per group (`lattice`); `blocks` views either as blocks.
    Amplitudes are Schroedinger-picture at reference_time (the pulse center
    for the TDSE drivers, valid for post-pulse evaluation); free evolution to
    any later time is analytic.
    """

    molecule: MoleculeSpec
    temperature: float
    reference_time: float
    j_max: int
    xi: float
    chains: PackedChains | None = None
    lattice: tuple = ()

    @property
    def kind(self) -> str:
        """'chain' for a fixed-M set, 'jm' for a (J,M)-lattice set."""
        return "jm" if self.chains is None else "chain"

    @cached_property
    def blocks(self) -> tuple:
        return self.lattice if self.chains is None else self.chains.blocks()

    def series_terms(self, axis: str):
        """(consts, bounds, js, z) of <cos^2 theta_axis> - 1/3: block b's weighted
        trace is consts[b] + Re sum_J z_J e^{i omega_J dt} over entries bounds[b]
        to bounds[b + 1] of js and z.

        Chains carry the tridiagonal field-axis operator (y): const = sum_k w_k
        d |c_k|^2 - W/3 and z_J = 2 m_J sum_k w_k conj(c_{J+2,k}) c_{J,k}; the
        transverse axes follow from <cos^2 theta_perp> = (1 - <cos^2 theta>)/2
        as a -1/2 scaling, exact in floating point.  On the (J,M) lattice the
        Delta-J = 0 entries of the lab-axis operator (including the Delta-M =
        +-2 ones, which beat at zero frequency) feed the constant and the
        Delta-J = +2 entries, collapsed per lower J, carry omega_J.
        """
        check_axis(axis)
        if self.chains is not None:
            consts, bounds, js, z = self.chains.series_terms()
            factor = 1.0 if axis == "y" else -0.5
            return [factor * const for const in consts], bounds, js, factor * z
        consts, jss, zs = [], [], []
        for b in self.lattice:
            c, w = b.amplitudes, b.weights
            coo = cos2theta_axis_matrix(b.basis, axis).tocoo()
            dj = b.js[coo.row] - b.js[coo.col]
            row, col, val = coo.row[dj == 0], coo.col[dj == 0], coo.data[dj == 0]
            const = np.real((np.conj(c[row]) * c[col]) @ w) @ val
            row, col, val = coo.row[dj == 2], coo.col[dj == 2], coo.data[dj == 2]
            js, lower = np.unique(b.js[col], return_inverse=True)
            z = np.zeros(len(js), dtype=complex)
            np.add.at(z, lower, 2.0 * val * ((np.conj(c[row]) * c[col]) @ w))
            consts.append(float(const) - float(w.sum()) / 3.0)
            jss.append(js)
            zs.append(z)
        return consts, np.cumsum([0] + [len(js) for js in jss]), np.concatenate(jss), np.concatenate(zs)

    @property
    def channels(self) -> tuple:
        """Per-channel views of the block columns, block by block."""
        return tuple(
            Channel(j0, m0, w, b.js, b.basis, a)
            for b in self.blocks
            for j0, m0, w, a in zip(b.j0.tolist(), b.m0.tolist(), b.weights.tolist(), b.amplitudes.T)
        )

    @property
    def total_weight(self) -> float:
        return float(sum(b.weights.sum() for b in self.blocks))

    def norm_deviation(self) -> float:
        """|weighted norm / total weight - 1| of the whole set."""
        norm = sum(b.weights @ np.sum(np.abs(b.amplitudes) ** 2, axis=0) for b in self.blocks)
        return abs(float(norm) / self.total_weight - 1.0)

    def edge_leak(self) -> float:
        """Weighted population in the top two J shells of the basis.

        J ascends down each block; of a Delta-J = 2 chain only the last row is
        in them, so a chain set reads one row per block, gathered at once.
        """
        if self.chains is not None:
            lay = self.chains.layout
            top = self.chains.amplitudes[lay.entries(np.repeat(lay.sizes - 1, lay.counts))]
            return float(np.abs(top) ** 2 @ self.chains.weights)
        return float(sum(np.sum(np.abs(b.amplitudes[b.js >= self.j_max - 1]) ** 2 @ b.weights)
                         for b in self.blocks))


def _lattice_size(j_max: int, j_parity: int, m_parity: int) -> int:
    """len(JMBasis(j_max, j_parity, m_parity)) without building the basis.

    Shell J holds J sites of the M parity, plus one when the parities agree.
    """
    shells = (j_max - j_parity) // 2 + 1
    top = j_parity + 2 * (shells - 1)
    return shells * (j_parity + top) // 2 + (j_parity == m_parity) * shells


def check_working_set(nbytes: float, what: str):
    """ValueError naming `what` if nbytes exceeds MAX_WORKING_SET_BYTES."""
    if nbytes > MAX_WORKING_SET_BYTES:
        raise ValueError(
            f"{what} needs about {nbytes / 1e9:.3g} GB of working "
            f"memory, above the budget of {MAX_WORKING_SET_BYTES / 1e9:.3g} GB"
        )


def require_y_polarized(pulse: PulseSpec):
    """The fixed-M drivers quantize along y: reject any other polarization."""
    if pulse.a2 > 1e-12:
        raise ValueError(
            f"the fixed-M drivers handle linear polarization along y only, got A^2 = "
            f"{pulse.a2:g} along x; use elliptic_tdse_ensemble"
        )


def _with_regrow(propagate, working_set, ensemble: ThermalEnsemble, xi: float, j_max,
                 max_regrow: int):
    """propagate(j_max) -> ChannelSet, regrowing j_max while the basis edge is populated.

    Without j_max the basis is sized from the thermal and kick scales and may
    regrow max_regrow times; an explicit basis is a contract: fail instead.
    A zero kick leaves every channel on its origin, so it skips the check.
    working_set(j_max) estimates the bytes propagate(j_max) allocates; over
    MAX_WORKING_SET_BYTES, a ValueError names it before anything is allocated.
    """
    if j_max is None:
        j_max = suggest_j_max(ensemble.j_thermal_max, xi)
    else:
        max_regrow = 0
    top = ensemble.j_thermal_max
    if top > j_max:
        raise BasisTooSmallError(f"thermal origin J={top} exceeds j_max={j_max}; the basis cannot "
                                 "hold the initial ensemble")
    for _ in range(max_regrow + 1):
        check_working_set(working_set(j_max), f"propagation at j_max={j_max}")
        cs = propagate(j_max)
        if xi == 0.0 or cs.edge_leak() <= EDGE_POPULATION_TOL:
            return cs
        if max_regrow == 0:
            raise BasisTooSmallError(f"kick populates the basis edge at j_max={j_max}; enlarge j_max")
        j_max = int(j_max * 1.5) + 10
    raise BasisTooSmallError(f"norm leak persists after regrowing j_max to {j_max}")


def _chain_propagation(molecule, ensemble, xi, j_max, reference_time, n_kicks, schedule, max_regrow):
    """ChannelSet of one block per (|M|, parity) chain, regrowing j_max as needed.

    n_kicks(j_max) counts the kicks before any array exists, schedule(j_max)
    gives their times measured from reference_time, their strengths G, the
    distinct free times d between kicks and each gap's index into d.  A zero
    kick leaves each column on its origin.
    """
    origins = ensemble.chains
    weights = ensemble.weights[origins.order]
    ms, parities = origins.keys.T

    def propagate(j_max):
        plan = schedule(j_max)
        kicks = plan[1]
        layout = _chain_layout(origins, j_max)
        if xi == 0.0:
            amps = np.zeros(layout.bounds[-1], dtype=complex)
            amps[layout.entries(layout.rows)] = 1.0
        else:
            amps = _gathered_kicks(layout, kicks[0])
            rhs_all = amps.view(float)
            evals, evecs = layout.eigen
            levels = layout.levels
            # one stack per run of equal-shape blocks, in place
            for n, k, b0, b1, a0, a1, c0, c1, r0, r1, v0, v1 in layout.runs:
                rhs = rhs_all[2 * a0:2 * a1].reshape(b1 - b0, n, 2 * k)
                vecs = evecs[v0:v1].reshape(b1 - b0, n, n).transpose(0, 2, 1)  # V, stored in Fortran order
                if len(kicks) == 1:
                    np.matmul(vecs, rhs, out=rhs)  # one GEMM per block
                else:
                    omega = rotational_omega(levels[r0:r1], molecule).reshape(-1, n)
                    omega0 = np.take_along_axis(omega, layout.rows[c0:c1].reshape(-1, k), axis=1)
                    _compose(evals[r0:r1].reshape(-1, n), vecs, omega, omega0, rhs, plan)
        return ChannelSet(molecule, ensemble.temperature, reference_time, j_max, xi,
                          PackedChains(layout, weights, amps))

    def working_set(j_max):
        # cached eigenvectors, results, the layout's int32 gather index, a
        # chunk of gathered entries, the eigensolver's copy of the largest
        # chain; composed kicks add the costliest run's stack: for each of its
        # blocks three free propagators and the two temporaries of their
        # build, its table of kick phases (40 B per kick and level as it is
        # built: real phases, their complex cast and the exponentials) and 3
        # state vectors.  Integers: j_max may be huge
        sizes = [((j_max - start) // 2 + 1, k) for start, k in
                 zip(_chain_start(ms, parities).tolist(), np.diff(origins.bounds).tolist())]
        total = (sum(8 * n * n + 20 * n * k for n, k in sizes) + 8 * GATHER_CHUNK
                 + 8 * max(n for n, _ in sizes) ** 2)
        kicks = n_kicks(j_max)
        if kicks > 1:
            total += max(len(list(run)) * (16 * (5 * n * n + 3 * n * k) + 40 * kicks * n)
                         for (n, k), run in groupby(sizes))
        return total

    return _with_regrow(propagate, working_set, ensemble, xi, j_max, max_regrow)


def kick_ensemble(
    molecule: MoleculeSpec,
    ensemble: ThermalEnsemble,
    xi: float,
    j_max: int | None = None,
    reference_time: float = 0.0,
) -> ChannelSet:
    """Sudden-kick propagation of every thermal channel (linear polarization).

    The chain stepper's zero-width step, one kick of G = xi with no free
    phase: each (|M0|, parity) block's amplitude matrix is the kick
    unitary's columns at its origins.  A norm-leak guard regrows j_max.
    """
    if xi < 0:
        raise ValueError(f"kick strength must be nonnegative, got {xi}")
    return _chain_propagation(molecule, ensemble, xi, j_max, reference_time, lambda j_max: 1,
                              lambda j_max: ([0.0], [xi], (), ()), max_regrow=3)


def tdse_ensemble(
    molecule: MoleculeSpec,
    ensemble: ThermalEnsemble,
    pulse: PulseSpec,
    j_max: int | None = None,
) -> ChannelSet:
    """Finite-pulse TDSE propagation of the whole thermal ensemble.

    The pulse must be polarized along y, the chains' quantization axis.  Each
    run of equal-shape (|M0|, parity) blocks in turn runs the RKN splitting
    over the pulse window as one stack; amplitudes come back referenced to the
    pulse center, as the sudden driver's.
    """
    require_y_polarized(pulse)
    return _chain_propagation(molecule, ensemble, effective_area(pulse, molecule), j_max, pulse.t0_ps,
                              lambda j: 6 * _rkn_steps(pulse, molecule, j) + 1,
                              lambda j: _rkn_schedule(pulse, molecule, j), max_regrow=2)


def elliptic_tdse_ensemble(
    molecule: MoleculeSpec,
    ensemble: ThermalEnsemble,
    pulse: PulseSpec,
    j_max: int | None = None,
) -> ChannelSet:
    """TDSE propagation of a thermal ensemble under an elliptic pump.

    Channels are grouped by (J parity, M parity), one block per group on its
    parity-filtered (J,M) lattice, stepped sector by sector (_lattice_steps).
    The +-M0 mirror symmetry makes folded ensembles exact.  A zero kick leaves
    each column on its origin.
    """
    xi = effective_area(pulse, molecule)
    groups = ensemble.grouped(ensemble.j0 % 2, np.abs(ensemble.m0) % 2)
    weights = ensemble.weights[groups.order]

    def propagate(j_max):
        plan = _rkn_schedule(pulse, molecule, j_max)
        blocks = []
        for (jp, mp), c0, c1 in groups.spans():
            j0, m0 = groups.j0[c0:c1], groups.m0[c0:c1]
            basis = JMBasis(j_max, j_parity=jp, m_parity=mp)
            origins = basis.site(j0, m0)
            if xi == 0.0:
                a = np.zeros((len(basis), len(origins)), dtype=complex)
                a[origins, np.arange(len(origins))] = 1.0
            else:
                coupling = (pulse.a2 * cos2theta_axis_matrix(basis, "x")
                            + pulse.b2 * cos2theta_axis_matrix(basis, "y"))
                a = _lattice_steps(basis, coupling, molecule, origins, plan)
            blocks.append(ChannelBlock(basis.j_of, basis, j0, m0, weights[c0:c1], a))
        return ChannelSet(molecule, ensemble.temperature, pulse.t0_ps, j_max, xi, lattice=tuple(blocks))

    def working_set(j_max):
        # every group's result, plus for the largest sector (a group's M >= 0
        # sites) its operator and eigenvectors, three free propagators and the
        # two temporaries of their build, the kick phase table (40 B per kick
        # and level) and 3 state matrices.  Integers: j_max may be huge
        kicks = 6 * _rkn_steps(pulse, molecule, j_max) + 1
        results, sector = 0, 0
        for (jp, mp), c0, c1 in groups.spans():
            n, k = _lattice_size(j_max, jp, mp), c1 - c0
            half = (n + (mp == 0) * ((j_max - jp) // 2 + 1)) // 2
            results += 16 * n * k
            sector = max(sector, 16 * (6 * half * half + 3 * half * k) + 40 * kicks * half)
        return results + sector

    return _with_regrow(propagate, working_set, ensemble, xi, j_max, max_regrow=2)
