"""Propagation of thermal rotor ensembles through the pump interaction.

Three drivers with one physical model, each returning a ChannelSet:

  * kick_ensemble (sudden_ensemble from a pulse): instantaneous kick
    exp(i xi cos^2 theta) of a linearly polarized pump, exact unitaries from
    eigendecompositions of the fixed-M tridiagonal chains.
  * tdse_ensemble: numerical integration of the time-dependent
    Schroedinger equation for a finite linearly polarized pulse, all chains
    stacked into one adaptive solve.
  * elliptic_tdse_ensemble: finite elliptic pulse, interaction
    A^2 cos^2 theta_x + B^2 cos^2 theta_y on the coupled (J,M) lattice.

The TDSE routes integrate in the interaction picture anchored at the pulse
center, so the stiff rotational phases never enter the integrator; outside
the pulse window free evolution is analytic.  On fixed-M chains J and J+2
couple with the Raman phase exp(i (omega_J - omega_{J+2}) (t - t0)), so each
right-hand-side call exponentiates only the distinct Raman differences; the
elliptic (J,M) lattice keeps a sparse coupling between free-rotation phases.

The drivers batch all thermal channels that share a (|M|, J-parity) chain or
a (J-parity, M-parity) lattice group into single linear-algebra calls and
return them as one ChannelBlock, an amplitude matrix with one column per
channel; the reduction order is fixed, so reruns are bit-identical.

Before it allocates, each driver estimates its working set at the chosen
j_max (and again after every regrow) and raises ValueError naming the
estimate when it exceeds MAX_WORKING_SET_BYTES.  The TDSE solves keep only
their final state, not the integrator's step history.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.integrate import solve_ivp

from .field import PulseSpec, effective_area, kick_rate, pulse_window
from .rotor import (
    JMBasis,
    MoleculeSpec,
    ThermalEnsemble,
    cos2theta_axis_matrix,
    cos2theta_diagonal,
    cos2theta_offdiag,
    rotational_omega,
    suggest_j_max,
)

EDGE_POPULATION_TOL = 1e-8  # max weighted population allowed in the top two J shells
# Working-set budget of one propagation, checked before it allocates.  The
# 293 K, 30 TW/cm^2 linear TDSE needs ~72 MB and the 60 K elliptic one ~0.37 GB.
MAX_WORKING_SET_BYTES = 2e9
# Complex state vectors a DOP853 solve holds at its peak: the stages, the
# dense output of the last step and the result
TDSE_STATE_VECTORS = 40


class PropagationError(RuntimeError):
    """Base class for numerical propagation failures."""


class BasisTooSmallError(PropagationError):
    """Norm leaked into the top rotational shells; j_max must grow."""


class IntegrationError(PropagationError):
    """The adaptive integrator failed to meet its tolerance."""


# ---------------------------------------------------------------------------
# Fixed-M parity chains and their kick eigendecompositions
# ---------------------------------------------------------------------------

def _chain_start(m: int, parity: int) -> int:
    m = abs(m)
    return m if m % 2 == parity else m + 1


def chain_js(j_max: int, m: int, parity: int) -> np.ndarray:
    """J values of one Delta-J = 2 chain at fixed |M|, given J parity."""
    return np.arange(_chain_start(m, parity), j_max + 1, 2)


CHAIN_CACHE_SIZE = 1024  # a fit visits ~8 j_max values x <= 61 chains


@lru_cache(maxsize=CHAIN_CACHE_SIZE)
def chain_operator(m: int, parity: int, j_max: int):
    """(js, diagonal, off-diagonal) of cos^2 theta on one parity chain at |M| = m."""
    js = chain_js(j_max, m, parity)
    if len(js) == 0:
        raise ValueError(f"empty chain for M={m}, parity={parity}, j_max={j_max}")
    return js, cos2theta_diagonal(js, m), cos2theta_offdiag(js[:-1], m)


@lru_cache(maxsize=CHAIN_CACHE_SIZE)
def _chain_eig(m: int, parity: int, j_max: int):
    """Eigendecomposition of cos^2 theta restricted to one parity chain.

    Returns (js, eigenvalues, eigenvectors); cached since every thermal
    channel with the same |M| and parity shares it.
    """
    js, diag, off = chain_operator(m, parity, j_max)
    evals, evecs = scipy.linalg.eigh_tridiagonal(diag, off)
    return js, evals, evecs


def clear_caches():
    """Drop cached eigendecompositions and operator matrices (for tests)."""
    for cache in (chain_operator, _chain_eig, _axis_matrix):
        cache.cache_clear()


@lru_cache(maxsize=64)
def _axis_matrix(j_max: int, j_parity, m_parity, axis: str) -> scipy.sparse.csr_matrix:
    return cos2theta_axis_matrix(JMBasis(j_max, j_parity, m_parity), axis)


def _axis_operator(basis: JMBasis, axis: str) -> scipy.sparse.csr_matrix:
    return _axis_matrix(basis.j_max, basis.j_parity, basis.m_parity, axis)


# ---------------------------------------------------------------------------
# TDSE propagation (interaction picture)
# ---------------------------------------------------------------------------

def _raman_chain_coupling(blocks, molecule: MoleculeSpec):
    """coupling(tau, y) = D C D* y, D = exp(i omega tau), for stacked fixed-M chains.

    blocks holds (js, m, copies): `copies` consecutive chains over js at |M| = m.
    """
    diag, off, low = [], [], []
    for js, m, copies in blocks:
        # trailing zero: no coupling to the next chain
        o = np.append(cos2theta_offdiag(js[:-1], m), 0.0)
        diag.append(np.tile(cos2theta_diagonal(js, m), copies))
        off.append(np.tile(o, copies))
        low.append(np.tile(js, copies))
    diag, off = np.concatenate(diag), np.concatenate(off)[:-1]
    j_low, gather = np.unique(np.concatenate(low)[:-1], return_inverse=True)
    raman = rotational_omega(j_low, molecule) - rotational_omega(j_low + 2, molecule)

    def coupling(tau, y):
        c = off * np.exp(1j * (raman * tau))[gather]
        w = diag * y
        w[:-1] += c * y[1:]
        w[1:] += np.conj(c) * y[:-1]
        return w

    return coupling


def _sandwiched_coupling(omega, apply_coupling):
    """coupling(tau, y) = D C D* y for apply_coupling = C; y may stack columns."""
    def coupling(tau, y):
        ph = np.exp(1j * (omega * tau))[:, None]
        return (ph * apply_coupling(np.conj(ph) * y.reshape(len(omega), -1))).ravel()

    return coupling


def _integrate_interaction(y0, coupling, pulse, molecule):
    """Integrate da/dt = i (dxi/dt)(t) D(t) C D*(t) a over the pulse window.

    a is the interaction-picture state anchored at the pulse center t0 (D =
    exp(i omega (t - t0))) and coupling(t - t0, a) returns D C D* a.  Returns
    the interaction-picture state after the pulse, shaped like y0.
    """
    ta, tb = pulse_window(pulse)
    if ta >= tb or pulse.peak_intensity == 0.0:
        return np.array(y0, dtype=complex)
    t0 = pulse.t0_ps

    def rhs(t, y):
        return (1j * kick_rate(pulse, molecule, t)) * coupling(t - t0, y)

    # t_eval=[tb]: the solver keeps only the final state, not every step
    sol = solve_ivp(
        rhs,
        (ta, tb),
        np.asarray(y0, dtype=complex).ravel(),
        method="DOP853",
        t_eval=[tb],
        rtol=1e-8,
        atol=1e-12,
        dense_output=False,
    )
    # the solver object holds a reference cycle, so its stages outlive this
    # call until the cycle collector runs; free them before the next solve.
    # It is still young (arrays are not tracked): a sub-ms collection suffices
    gc.collect(1)
    if not sol.success:
        raise IntegrationError(f"TDSE integration failed: {sol.message}")
    return sol.y[:, 0].reshape(np.shape(y0))


# ---------------------------------------------------------------------------
# Thermal-ensemble drivers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainChannel:
    """One propagated fixed-M channel: amplitudes over the J chain `js`."""

    j0: int
    m: int
    weight: float
    js: np.ndarray
    amplitudes: np.ndarray


@dataclass(frozen=True)
class JMChannel:
    """One propagated (J,M)-lattice channel."""

    j0: int
    m0: int
    weight: float
    basis: JMBasis
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


@dataclass(frozen=True)
class ChannelSet:
    """Thermally weighted propagated channels, ready for observables.

    Amplitudes are Schroedinger-picture at reference_time (the pulse center
    for the TDSE drivers, valid for post-pulse evaluation); free evolution to
    any later time is analytic.
    """

    molecule: MoleculeSpec
    temperature: float
    reference_time: float
    kind: str  # "chain" or "jm"
    blocks: tuple
    j_max: int
    xi: float

    @property
    def channels(self) -> tuple:
        """Per-channel views (ChainChannel or JMChannel) of the block columns, block by block."""
        return tuple(
            ChainChannel(j0, m0, w, b.js, a) if b.basis is None else JMChannel(j0, m0, w, b.basis, a)
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
        in them, so a chain set reads one row per block.
        """
        if self.kind == "chain":
            top = np.concatenate([b.amplitudes[-1] for b in self.blocks])
            return float(np.abs(top) ** 2 @ np.concatenate([b.weights for b in self.blocks]))
        return float(sum(np.sum(np.abs(b.amplitudes[b.js >= self.j_max - 1]) ** 2 @ b.weights)
                         for b in self.blocks))


def _origin_groups(ensemble: ThermalEnsemble, key):
    """(key, j0s, |m0|s, weights) per key(j0, |m0|) group, in first-seen order."""
    groups: dict = {}
    for j0, m0, w in ensemble.channels:
        groups.setdefault(key(j0, abs(m0)), []).append((j0, abs(m0), w))
    return [(k, *map(np.array, zip(*members))) for k, members in groups.items()]


def _chain_groups(ensemble: ThermalEnsemble):
    return _origin_groups(ensemble, lambda j0, m: (m, j0 % 2))


def _require_origins(ensemble: ThermalEnsemble, j_max: int):
    top = max(j0 for j0, _, _ in ensemble.channels)
    if top > j_max:
        raise BasisTooSmallError(
            f"thermal origin J={top} exceeds j_max={j_max}; the basis cannot "
            "hold the initial ensemble"
        )


def _chain_sizes(groups, j_max: int):
    """(chain length, channel count) of each (|M|, parity) group at j_max.

    Plain integer arithmetic: j_max may be far too large for any array.
    """
    return [((j_max - _chain_start(m, parity)) // 2 + 1, len(j0))
            for (m, parity), j0, _, _ in groups]


def _lattice_size(j_max: int, j_parity: int, m_parity: int) -> int:
    """len(JMBasis(j_max, j_parity, m_parity)) without building the basis.

    Shell J holds J sites of the M parity, plus one when the parities agree.
    """
    shells = (j_max - j_parity) // 2 + 1
    top = j_parity + 2 * (shells - 1)
    return shells * (j_parity + top) // 2 + (j_parity == m_parity) * shells


def _check_working_set(nbytes: int, j_max: int):
    if nbytes > MAX_WORKING_SET_BYTES:
        raise ValueError(
            f"propagation at j_max={j_max} needs about {nbytes / 1e9:.3g} GB of working "
            f"memory, above the budget of {MAX_WORKING_SET_BYTES / 1e9:.3g} GB"
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
    _require_origins(ensemble, j_max)
    for _ in range(max_regrow + 1):
        _check_working_set(working_set(j_max), j_max)
        cs = propagate(j_max)
        if xi == 0.0 or cs.edge_leak() <= EDGE_POPULATION_TOL:
            return cs
        if max_regrow == 0:
            raise BasisTooSmallError(f"kick populates the basis edge at j_max={j_max}; enlarge j_max")
        j_max = int(j_max * 1.5) + 10
    raise BasisTooSmallError(f"norm leak persists after regrowing j_max to {j_max}")


def kick_ensemble(
    molecule: MoleculeSpec,
    ensemble: ThermalEnsemble,
    xi: float,
    j_max: int | None = None,
    reference_time: float = 0.0,
) -> ChannelSet:
    """Sudden-kick propagation of every thermal channel (linear polarization).

    Channels sharing a (|M0|, parity) block reuse one eigendecomposition; the
    block's amplitude matrix is the kick unitary's columns at its origins.
    A norm-leak guard regrows j_max automatically.
    """
    if xi < 0:
        raise ValueError(f"kick strength must be nonnegative, got {xi}")
    groups = _chain_groups(ensemble)

    def propagate(j_max):
        blocks = []
        for (m, parity), j0, m0, w in groups:
            js = chain_js(j_max, m, parity)
            rows = (j0 - js[0]) // 2
            if xi == 0.0:
                # exact identity: no eigensolve, no GEMM roundoff on the amplitudes
                amps = np.zeros((len(js), len(j0)), dtype=complex)
                amps[rows, np.arange(len(j0))] = 1.0
            else:
                # the cache keeps a chain only while its eigenvectors fit its
                # share of the budget; larger ones are freed after this kick
                small = 8 * len(js) ** 2 <= MAX_WORKING_SET_BYTES / CHAIN_CACHE_SIZE
                _, evals, evecs = (_chain_eig if small else _chain_eig.__wrapped__)(m, parity, j_max)
                # U E = V (e^{i xi lambda} * V^T E) as one real GEMM whose
                # (re, im) column pairs read back as complex amplitudes
                rot = np.exp(1j * xi * evals).view(float).reshape(-1, 1, 2)
                rhs = (evecs[rows].T[:, :, None] * rot).reshape(len(js), -1)
                amps = (evecs @ rhs).view(complex)
            blocks.append(ChannelBlock(js, None, j0, m0, w, amps))
        return ChannelSet(
            molecule, ensemble.temperature, reference_time, "chain", tuple(blocks), j_max, xi
        )

    def working_set(j_max):
        # the cached chain eigenvectors, the amplitude matrices and the
        # eigensolver's transient copy of the largest chain's eigenvectors
        sizes = _chain_sizes(groups, j_max)
        return sum(8 * n * n + 16 * n * k for n, k in sizes) + 8 * max(n for n, _ in sizes) ** 2

    return _with_regrow(propagate, working_set, ensemble, xi, j_max, max_regrow=3)


def sudden_ensemble(
    molecule: MoleculeSpec,
    ensemble: ThermalEnsemble,
    pulse: PulseSpec,
    j_max: int | None = None,
) -> ChannelSet:
    """Sudden-kick ensemble driver parameterized by a linearly polarized pulse."""
    if not pulse.is_linear():
        raise ValueError("sudden_ensemble handles linear polarization; see elliptic drivers")
    xi = effective_area(pulse, molecule)
    return kick_ensemble(molecule, ensemble, xi, j_max, reference_time=pulse.t0_ps)


def tdse_ensemble(
    molecule: MoleculeSpec,
    ensemble: ThermalEnsemble,
    pulse: PulseSpec,
    j_max: int | None = None,
) -> ChannelSet:
    """Finite-pulse TDSE propagation of the whole thermal ensemble.

    All channels are stacked into one block-diagonal interaction-picture
    system and integrated in a single adaptive solve.  Its right-hand side
    gathers the exponentials of the distinct Raman differences onto the
    chain off-diagonals: the diagonal plus two shifted products per call.
    Amplitudes come back referenced to the pulse center, so downstream free
    evolution matches the sudden driver's convention.
    """
    if not pulse.is_linear():
        raise ValueError("tdse_ensemble handles linear polarization; see elliptic drivers")
    xi = effective_area(pulse, molecule)
    groups = _chain_groups(ensemble)

    def propagate(j_max):
        chains = [(chain_js(j_max, m, parity), m, len(j0)) for (m, parity), j0, _, _ in groups]
        sizes = [len(js) * k for js, _, k in chains]
        y0 = np.zeros(sum(sizes), dtype=complex)
        starts = np.cumsum([0] + sizes[:-1])
        # each block stacks its channels' chains one after another
        for (_, j0, _, _), (js, _, k), start in zip(groups, chains, starts):
            y0[start + np.arange(k) * len(js) + (j0 - js[0]) // 2] = 1.0
        a = _integrate_interaction(y0, _raman_chain_coupling(chains, molecule), pulse, molecule)
        blocks = tuple(
            ChannelBlock(js, None, j0, m0, w, part.reshape(k, len(js)).T)
            for (_, j0, m0, w), (js, _, k), part in zip(groups, chains, np.split(a, starts[1:]))
        )
        return ChannelSet(molecule, ensemble.temperature, pulse.t0_ps, "chain", blocks, j_max, xi)

    def working_set(j_max):
        return TDSE_STATE_VECTORS * 16 * sum(n * k for n, k in _chain_sizes(groups, j_max))

    return _with_regrow(propagate, working_set, ensemble, xi, j_max, max_regrow=2)


def elliptic_tdse_ensemble(
    molecule: MoleculeSpec,
    ensemble: ThermalEnsemble,
    pulse: PulseSpec,
    j_max: int | None = None,
) -> ChannelSet:
    """TDSE propagation of a thermal ensemble under an elliptic pump.

    Channels are grouped by (J parity, M parity); each group shares one
    sparse coupling operator on its parity-filtered (J,M) lattice, and all
    its channels integrate together as stacked columns.  The +-M0 mirror
    symmetry of the coupling makes folded ensembles exact.
    """
    xi = effective_area(pulse, molecule)
    groups = _origin_groups(ensemble, lambda j0, m: (j0 % 2, m % 2))

    def propagate(j_max):
        blocks = []
        for (jp, mp), j0, m0, w in groups:
            basis = JMBasis(j_max, j_parity=jp, m_parity=mp)
            coupling = (
                pulse.a2 * _axis_operator(basis, "x") + pulse.b2 * _axis_operator(basis, "y")
            ).tocsr()
            omega = rotational_omega(basis.j_of, molecule)
            y0 = np.zeros((len(basis), len(j0)), dtype=complex)
            y0[[basis.index[o] for o in zip(j0.tolist(), m0.tolist())], np.arange(len(j0))] = 1.0
            a = _integrate_interaction(
                y0, _sandwiched_coupling(omega, coupling.dot), pulse, molecule
            )
            blocks.append(ChannelBlock(basis.j_of, basis, j0, m0, w, a))
        return ChannelSet(
            molecule, ensemble.temperature, pulse.t0_ps, "jm", tuple(blocks), j_max, xi
        )

    def working_set(j_max):
        # the groups integrate one after another: every group's result plus
        # the solver state of the largest group
        dims = [_lattice_size(j_max, jp, mp) * len(j0) for (jp, mp), j0, _, _ in groups]
        return 16 * (sum(dims) + (TDSE_STATE_VECTORS - 1) * max(dims))

    return _with_regrow(propagate, working_set, ensemble, xi, j_max, max_regrow=2)
