"""Propagation of thermal rotor ensembles through the pump interaction.

Three drivers with one physical model, each returning a ChannelSet:

  * kick_ensemble: instantaneous kick exp(i xi cos^2 theta) of a pump
    polarized along y, the zero-width step of the chain stepper.
  * tdse_ensemble: finite pulse polarized along y, the chain stepper
    composed over the pulse window.
  * elliptic_tdse_ensemble: finite elliptic pulse, interaction
    A^2 cos^2 theta_x + B^2 cos^2 theta_y on the coupled (J,M) lattice.

On a fixed-M (|M|, J-parity) chain d psi/dt = i (g(t) C - omega) psi, with
g = dxi/dt and C = cos^2 theta = V Lambda V^T cached per chain.  A Strang step
of width w applies exp(-i omega w/2), the exact kick V e^{i g(t_mid) w Lambda}
V^T and exp(-i omega w/2); Yoshida's triple jump (Phys. Lett. A 150, 262
(1990)) makes three of them one 4th-order step.  Uniform steps span the pulse
window, counted from the basis' fastest Raman frequency and the pulse FWHM;
merged free phases act as V^T e^{-i omega d} V, so the state stays in the
eigenbasis between kicks, one complex GEMM per kick.  The (J,M) lattice runs
one adaptive DOP853 solve per group in the interaction picture anchored at
the pulse center, ending on its last step with no history or interpolant.

The drivers batch all thermal channels that share a (|M|, J-parity) chain or
a (J-parity, M-parity) lattice group into single linear-algebra calls and
return them as one ChannelBlock, an amplitude matrix with one column per
channel; the reduction order is fixed, so reruns are bit-identical.  Before
it allocates, each driver estimates its working set at the chosen j_max (and
again after every regrow) and raises ValueError naming the estimate when it
exceeds MAX_WORKING_SET_BYTES.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.integrate import DOP853, DenseOutput, solve_ivp

from .field import PulseSpec, effective_area, kick_rate, pulse_window
from .rotor import (
    JMBasis,
    MoleculeSpec,
    ThermalEnsemble,
    cos2theta_axis_matrix,
    cos2theta_diagonal,
    cos2theta_offdiag,
    raman_frequency,
    rotational_omega,
    suggest_j_max,
)

EDGE_POPULATION_TOL = 1e-8  # max weighted population allowed in the top two J shells
# Working-set budget of one propagation, checked before it allocates.  The
# 293 K, 30 TW/cm^2 linear TDSE needs ~5 MB and the 60 K elliptic one ~0.32 GB.
MAX_WORKING_SET_BYTES = 2e9
# Complex state vectors a lattice TDSE solve holds at its peak: DOP853's
# stages and step temporaries (30 traced per solve) and the initial state
TDSE_STATE_VECTORS = 34
# Yoshida's triple jump: Strang steps of widths w1 h, (1 - 2 w1) h and w1 h
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
YOSHIDA_WEIGHTS = (_W1, 1.0 - 2.0 * _W1, _W1)
# Yoshida steps per ps, STEPS_PER_RADIAN * omega_R,max + STEPS_PER_FWHM / tau:
# both the fastest Raman phase of the basis and the envelope are resolved
STEPS_PER_RADIAN, STEPS_PER_FWHM = 1.5, 10.0


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
# The chain stepper: Strang kicks composed by Yoshida's triple jump
# ---------------------------------------------------------------------------

def _yoshida_steps(pulse: PulseSpec, molecule: MoleculeSpec, j_max: int) -> int:
    """Yoshida steps over the pulse window for a chain basis up to j_max."""
    ta, tb = pulse_window(pulse)
    omega_max = raman_frequency(max(j_max - 2, 0), molecule)
    return max(1, math.ceil((tb - ta) * (STEPS_PER_RADIAN * omega_max + STEPS_PER_FWHM / pulse.tau_fwhm_ps)))


def _chain_steps(evals, evecs, rows, kicks, free):
    """Kicks V e^{i G Lambda} V^T on the unit columns at `rows`, free[k] between.

    free[k] = V^T e^{-i omega d} V for the free time d after kick k.  The
    first kick reads rows of V and the last maps back with V, each one real
    GEMM whose (re, im) column pairs read as complex amplitudes.
    """
    rot = np.exp(1j * kicks[0] * evals).view(float).reshape(-1, 1, 2)
    z = (evecs[rows].T[:, :, None] * rot).reshape(len(evals), -1)
    if len(kicks) > 1:
        z = z.view(complex)
        for rot, f in zip(np.exp(1j * np.multiply.outer(kicks[1:], evals))[:, :, None], free):
            z = f @ z
            z *= rot
        z = z.view(float)
    return (evecs @ z).view(complex)


# ---------------------------------------------------------------------------
# Lattice TDSE propagation (interaction picture)
# ---------------------------------------------------------------------------

class _EndState(DenseOutput):
    """A step's end state y, defined at the step end t alone."""

    def __init__(self, t_old, t, y):
        super().__init__(t_old, t)
        self.y = y

    def _call_impl(self, t):
        if np.any(t != self.t):
            raise ValueError(f"the end state is defined at t={self.t} only, not at {t}")
        return self.y if t.ndim == 0 else np.broadcast_to(self.y[:, None], (len(self.y), t.size))


class _EndStateDOP853(DOP853):
    """DOP853 whose dense output is the last step's end state.

    solve_ivp reads y(t_eval) from the dense output of the step that reaches
    it; at the step end DOP853's 7-term interpolant only reproduces y, at the
    cost of 3 more stages and 7 state vectors of coefficients.
    """

    def _dense_output_impl(self):
        return _EndState(self.t_old, self.t, self.y)


def _integrate_interaction(y0, omega, coupling, pulse, molecule):
    """Integrate da/dt = i (dxi/dt)(t) D(t) C D*(t) a over the pulse window.

    a is the interaction-picture state anchored at the pulse center t0, D =
    exp(i omega (t - t0)), C the sparse `coupling`, and the columns of y0 are
    stacked channels.  Returns the interaction-picture state after the
    pulse, shaped like y0.

    The solve ends on DOP853's last step: t_eval=[tb] keeps no step history,
    and the end-state dense output hands over that step's y without building
    an interpolant, so no stage runs after the last step.
    """
    ta, tb = pulse_window(pulse)

    def rhs(t, y):
        ph = np.exp(1j * (omega * (t - pulse.t0_ps)))[:, None]
        da = ph * coupling.dot(np.conj(ph) * y.reshape(len(omega), -1))
        return (1j * kick_rate(pulse, molecule, t)) * da.ravel()

    sol = solve_ivp(
        rhs,
        (ta, tb),
        np.asarray(y0, dtype=complex).ravel(),
        method=_EndStateDOP853,
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
    top = max(j0 for j0, _, _ in ensemble.channels)
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
    gives their times, strengths G, distinct free times d between kicks and
    each gap's index into d.  A zero kick leaves each column on its origin.
    """
    groups = _origin_groups(ensemble, lambda j0, m: (m, j0 % 2))

    def propagate(j_max):
        times, kicks, gaps, order = schedule(j_max)
        blocks = []
        for (m, parity), j0, m0, w in groups:
            js = chain_js(j_max, m, parity)
            rows = (j0 - js[0]) // 2
            if xi == 0.0:
                amps = np.zeros((len(js), len(j0)), dtype=complex)
                amps[rows, np.arange(len(j0))] = 1.0
            else:
                # the cache keeps a chain only while its eigenvectors fit its
                # share of the budget; larger ones are freed after this block
                small = 8 * len(js) ** 2 <= MAX_WORKING_SET_BYTES / CHAIN_CACHE_SIZE
                _, evals, evecs = (_chain_eig if small else _chain_eig.__wrapped__)(m, parity, j_max)
                if len(kicks) == 1:
                    amps = _chain_steps(evals, evecs, rows, kicks, ())
                else:
                    omega = rotational_omega(js, molecule)
                    free = [(evecs.T * np.exp(-1j * omega * d)) @ evecs for d in gaps]
                    amps = _chain_steps(evals, evecs, rows, kicks, [free[k] for k in order])
                    # the free phases from reference_time to the first kick and back from the last
                    amps *= np.exp(1j * np.subtract.outer(omega * (times[-1] - reference_time),
                                                          omega[rows] * (times[0] - reference_time)))
            blocks.append(ChannelBlock(js, None, j0, m0, w, amps))
        return ChannelSet(molecule, ensemble.temperature, reference_time, "chain", tuple(blocks), j_max, xi)

    def working_set(j_max):
        # cached eigenvectors, results, the eigensolver's copy of the largest
        # chain; composed kicks add one block's kick phases, free propagators
        # (and their build) and 3 state vectors.  Integers: j_max may be huge
        sizes = [((j_max - _chain_start(m, parity)) // 2 + 1, len(j0)) for (m, parity), j0, _, _ in groups]
        kicks = n_kicks(j_max)
        total = sum(8 * n * n + 16 * n * k for n, k in sizes) + 8 * max(n for n, _ in sizes) ** 2
        if kicks > 1:
            total += max(16 * (4 * n * n + 2 * kicks * n + 3 * n * k) for n, k in sizes)
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
                              lambda j_max: ([reference_time], [xi], (), ()), max_regrow=3)


def tdse_ensemble(
    molecule: MoleculeSpec,
    ensemble: ThermalEnsemble,
    pulse: PulseSpec,
    j_max: int | None = None,
) -> ChannelSet:
    """Finite-pulse TDSE propagation of the whole thermal ensemble.

    The pulse must be polarized along y, the chains' quantization axis.  Each
    (|M0|, parity) block in turn runs the Yoshida composition over the pulse
    window; amplitudes come back referenced to the pulse center, as the
    sudden driver's.
    """
    require_y_polarized(pulse)

    def schedule(j_max):
        # a Strang step of width w (< 0 mid-jump) kicks at its midpoint t with
        # G = g(t) w; the free half steps around a kick merge into two gaps
        ta, tb = pulse_window(pulse)
        n = _yoshida_steps(pulse, molecule, j_max)
        widths = np.tile(YOSHIDA_WEIGHTS, n) * ((tb - ta) / n)
        times = ta + np.cumsum(widths) - widths / 2
        gaps, order = np.unique((widths[:-1] + widths[1:]) / 2, return_inverse=True)
        return times, kick_rate(pulse, molecule, times) * widths, gaps, order

    return _chain_propagation(molecule, ensemble, effective_area(pulse, molecule), j_max, pulse.t0_ps,
                              lambda j: 3 * _yoshida_steps(pulse, molecule, j), schedule, max_regrow=2)


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
            a = _integrate_interaction(y0, omega, coupling, pulse, molecule)
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
