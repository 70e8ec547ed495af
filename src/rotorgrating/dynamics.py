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
Raman phase and from the pulse's libration phase, the window times 2 sqrt(g
B) at the peak kick rate, which depends on xi and the FWHM in rotational
units alone (_rkn_steps); adjacent steps share their end kick, so n steps
make 6n + 1 kicks.  Free flows act as V^T e^{-i omega d} V, so the state
stays in the eigenbasis between kicks, one complex GEMM per kick.

On a (J parity, M parity) lattice group C = A^2 cos^2 theta_x + B^2 cos^2
theta_y is one fixed operator too.  The reflection R|J,M> = (-1)^M |J,-M>
(phi -> -phi) commutes with C and omega: each sector, spanned by Wang's
signed combinations (Phys. Rev. 34, 243 (1929)), runs the same stepper on its
dense W^T C W with one eigh, and the group's state is the sum of the W a.

The drivers batch all thermal channels that share a (|M|, J-parity) chain or
a (J-parity, M-parity) lattice group into single linear-algebra calls, one
block per chain or group: an amplitude matrix with one column per channel.
_group_channels groups them in the order their keys first appear, each
group's channels in ensemble order.
The reduction order is fixed, so reruns are bit-identical.  One loop,
_with_regrow, makes every propagated set: a driver supplies only its layout
at a j_max, its kick of a layout, its budgets at a j_max, the working set
and the complex multiply-adds of its kicks, which each attempt checks
against MAX_WORKING_SET_BYTES and MAX_KICK_WORK before it allocates, and
the size of an unsized basis.  The kick strength is checked before any
size is taken.  An unsized basis grows, at most MAX_REGROWS times, while
the top two shells hold more than EDGE_POPULATION_TOL of the population.
The chains start at suggest_j_max's fixed headroom.  The lattice, whose
work grows about as j_max^4, starts at tail_j_max: a closed-form
(Jacobi-Anger) bound on the population the sudden kick of the same xi
leaves in the top two shells, summed over the thermal levels, which sizes
a basis with no kick run; the lattice holds it to LATTICE_START_TOL, a
hundredth of the edge contract, so a weak pulse's traces stay converged.
observables.regime_scan and the fit's kick-strength surface take their
bases from the same bound at EDGE_POPULATION_TOL, as explicit bases with
no regrow.

Every set is packed.  A BlockLayout holds the grouping, lays the n x k
blocks end to end in one amplitude array, in C order, in group order, with
the J of every row and each column's origin row; both routes start an
unkicked set on its origins and read its edge leak with one gather.  A chain
layout packs the eigendecompositions of its chains the same way, built on
the first kick.  _LAYOUTS, the one cache of chain data, is keyed by the
channels and j_max: every ensemble with the same channels gets the same
layout at one j_max, grouped only when none of them is cached at any j_max,
and the cache keeps the latest few that fit a share of the working-set
budget.  The chains' kick walks the layout's runs of consecutive
equal-shape blocks, each run one stack of matrices.  One kernel, _kicks,
builds every sudden chain kick's right-hand sides V^T[:, rows] e^{i xi
Lambda} for a run, for one strength or many: one gather from the
eigenvectors by the layout's int32 index and one exponential of the
eigenvalues per run.  The sudden kick runs one GEMM per block on them, a
pulse composes the rest of its kicks from its first, each run into its
slice of the packed array.  A pulse's runs go to one worker
thread per CPU the process may use (_on_workers), costliest first, each run
writing only its own slice, and so do a chain layout's eigendecompositions,
largest chain first.  While they run every loaded OpenBLAS is held to one
thread (_one_blas_thread), a reentrant hold that only the calling thread
takes: cli.main holds it for a whole run, and the propagations' holds nest
in it, while a library caller keeps its own BLAS settings outside them.
Where no OpenBLAS is found the workers are one, the calling thread.  Every
BLAS call sees the operands a block-by-block loop would, so the packed
kernel is bit-identical to it, on any number of workers.  A lattice layout
keeps its groups' JMBases and lab-axis operators, built on first use on
the calling thread: elliptic_tdse_ensemble's workers step the groups,
costliest first, each into its packed slice.
ChannelSet.series_terms(axis) reduces either layout, the chains per run and
the lattice per group, to observables' one cosine series, lab-axis factor
applied: a constant and one complex amplitude per lower J, its blocks added
in layout order.  kick_level_series, the fit's kick-strength surface, kicks
many strengths on one cached chain layout through the same kernel, in
chunks of nodes, and _level_series splits each node's series by thermal
level, run by run, each node's share of every block added into its (line,
level) cells by basic slices, with no ChannelSet, on an explicit basis
checked as kick_ensemble checks one (_on_basis).  No other module reads a
set's layout.

The module runs on numpy alone: a lattice operator is its (rows, cols,
values) triplets and a reflection sector each site's column and coefficient.
solve_ivp, which no driver calls, is served lazily from scipy.integrate by the
module's __getattr__ for the benchmark's tracer alone, so importing the
package loads no scipy.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from decimal import ROUND_CEILING, Decimal
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from itertools import groupby

import numpy as np

from .constants import GAUSS_FWHM_INTEGRAL, TWO_PI_C
from .field import PulseSpec, effective_area, kick_rate, pulse_half_window
from .rotor import (
    JMBasis,
    MoleculeSpec,
    ThermalEnsemble,
    _within,
    check_axis,
    cos2theta_axis_matrix,
    cos2theta_diagonal,
    cos2theta_offdiag,
    rotational_omega,
    suggest_j_max,
)

EDGE_POPULATION_TOL = 1e-8  # max weighted population allowed in the top two J shells
MAX_REGROWS = 3  # times an unsized basis grows, each to int(1.5 j_max) + 10
# Weighted population the tail bound lets the sudden kick of the same xi leave
# at J >= j_max - 1 where an unsized lattice starts.  A pump polarized along x
# or y reaches nearly as high as the kick, and a weak pulse's traces are small:
# sized at EDGE_POPULATION_TOL, a 24.4 K, xi 0.1 pump's traces moved by 1.3e-9
# of their peak against a larger basis, at a hundredth of it by 3.8e-12
LATTICE_START_TOL = EDGE_POPULATION_TOL / 100
# Working-set budget of one propagation, checked before it allocates.  The
# 293 K, 30 TW/cm^2 linear TDSE needs ~7 MB, the 60 K elliptic one ~46 MB.
MAX_WORKING_SET_BYTES = 2e9
# Kick work budget of one propagation, in complex multiply-adds: its kicks
# times the n x n products with k columns of each chain or reflection sector
# (293 K chain TDSE at 30 TW/cm^2: 7.6e8; 60 K elliptic TDSE: 2.51e10)
MAX_KICK_WORK = 1e12
# Blanes & Moan's SRKN_6^b step b1 a1 b2 a2 b3 a3 b4 a3 b3 a2 b2 a1 b1: kick
# weights b1..b4 and free weights a1..a3 (a3 < 0), symmetric and 4th order
_B1, _B2, _B3 = 0.0829844064174052, 0.396309801498368, -0.0390563049223486
_A1, _A2 = 0.245298957184271, 0.604872665711080
RKN_KICKS = (_B1, _B2, _B3, 1.0 - 2.0 * (_B1 + _B2 + _B3))
RKN_FREE = (_A1, _A2, 0.5 - _A1 - _A2)
# RKN steps over the pulse window W (_rkn_steps): two counts that add in the
# 4-norm, as the errors of a 4th-order splitting do.  The Raman count, W
# STEPS_PER_RADIAN omega_R,max, resolves the basis' fastest Raman phase; the
# libration count resolves the pulse's libration phase phi.  While the kick
# strength and the FWHM in rotational units s = tau B keep xi^(5/4) s within
# LIBRATION_SPLIT, the libration count is STEPS_FLOOR +
# STEPS_PER_LIBRATION_RADIAN phi, where the splitting's 4th-order error and
# its envelope error cancel near 18 steps; past it, STEPS_PER_RADIAN_BEYOND
# phi.  At 0 K the first form first leaves more than 2e-8 of the trace's peak
# at xi^(5/4) s = 0.22 for FWHMs of 0.01 to 0.1 ps (CO2; 0.23 with a J = 1
# ground level) and later for longer ones: the split sits 9% below that.
# Below STEPS_FLOOR the kicks' quadrature of the envelope misses the window's
# share of xi by more than 1e-12
STEPS_PER_RADIAN, STEPS_FLOOR = 0.3, 16
STEPS_PER_LIBRATION_RADIAN, LIBRATION_SPLIT, STEPS_PER_RADIAN_BEYOND = 0.5, 0.2, 6


class PropagationError(RuntimeError):
    """Base class for numerical propagation failures."""


class BasisTooSmallError(PropagationError):
    """Norm leaked into the top rotational shells; j_max must grow."""


def __getattr__(name):
    # no propagator calls solve_ivp; perfbench/layers.py reads and rebinds
    # dynamics.solve_ivp, so scipy.integrate loads only when that asks for it
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# Fixed-M parity chains and their kick eigendecompositions
# ---------------------------------------------------------------------------

def _chain_start(m, parity):
    """Lowest J of the chain at |M| = m with the given J parity; accepts arrays."""
    m = np.abs(m)
    return m + (m % 2 != parity)


def _starts(lengths: np.ndarray) -> np.ndarray:
    """Offsets of ranges of `lengths` laid end to end, and the total at the end."""
    return np.concatenate(([0], np.cumsum(lengths)))


def _group_channels(ensemble: ThermalEnsemble, major: np.ndarray, minor: np.ndarray) -> tuple:
    """(keys, counts, order) of the ensemble's channels grouped by the integer
    key (major, minor), minor in {0, 1}: group g, keys[g], holds counts[g]
    channels.  Groups come in the order their keys first appear, the channels
    of a group in ensemble order; ensemble.j0[order] lists them group by group.
    """
    keys, first, inverse = np.unique(2 * major + minor, return_index=True, return_inverse=True)
    seen = np.argsort(first)
    rank = np.empty_like(seen)
    rank[seen] = np.arange(len(seen))
    group = rank[inverse]
    keys = keys[seen]
    return np.stack([keys // 2, keys % 2], axis=1), np.bincount(group), np.argsort(group, kind="stable")


# chain layouts kept, one per (channels, j_max).  Measured traffic: simulate
# asks for 1 layout; fit-series' five fits ask once for 1 (the surface's
# batched kicks); validate asks 19 times for 8, none of them asked again after
# more than one other (LRU reuse distance <= 1).  Each layout is kept only within
# MAX_WORKING_SET_BYTES / LAYOUT_CACHE_SIZE, so a larger size would shrink
# every layout's share
LAYOUT_CACHE_SIZE = 16
GATHER_CHUNK = 8192  # entries per step: of a chunk of the kick kernel's strengths (one at least), of W a
_LAYOUTS: OrderedDict[tuple, BlockLayout] = OrderedDict()


def clear_caches():
    """Empty the caches of the sudden and fit path: the chain layouts, with
    their groupings and eigendecompositions, and reconstruct's phase tables."""
    from .observables import _PHASES  # imported here: observables imports this module

    for cache in (_LAYOUTS, _PHASES):
        cache.clear()


# ---------------------------------------------------------------------------
# The chain stepper: kicks and free flows of Blanes & Moan's RKN splitting
# ---------------------------------------------------------------------------

def _rkn_steps(pulse: PulseSpec, molecule: MoleculeSpec, j_max: int) -> int:
    """RKN steps over the pulse window for a chain basis up to j_max.

    The Raman count is the window, 6 FWHM, times STEPS_PER_RADIAN the
    basis' fastest Raman frequency omega_R(j_max - 2).  The libration phase is
    the window times 2 sqrt(g B), the libration frequency of an aligned rotor
    in the cos^2 theta well of the peak kick rate g = xi / (tau_FWHM
    GAUSS_FWHM_INTEGRAL): 12 sqrt(xi s / GAUSS_FWHM_INTEGRAL) radians, with s
    = tau_FWHM B the FWHM in rotational units (B in rad/ps).  In those units a
    chain's equations hold xi, s and its levels alone, so the count carries
    over between molecules.  It is taken in Decimal, so a pulse past the float
    range reaches the working-set budget.
    """
    xi = effective_area(pulse, molecule)
    if not math.isfinite(xi):
        raise ValueError(f"kick strength xi = {xi:.3g} is too large to count the stepper's steps")
    tau, xi, b = Decimal(pulse.tau_fwhm_ps), Decimal(xi), Decimal(TWO_PI_C * molecule.b_cm1)
    raman = 6 * tau * Decimal(STEPS_PER_RADIAN) * b * (4 * max(j_max - 2, 0) + 6)
    phase = 12 * (xi * tau * b / Decimal(GAUSS_FWHM_INTEGRAL)).sqrt()
    if xi ** Decimal(1.25) * tau * b <= LIBRATION_SPLIT:
        libration = STEPS_FLOOR + Decimal(STEPS_PER_LIBRATION_RADIAN) * phase
    else:
        libration = STEPS_PER_RADIAN_BEYOND * phase
    return int(((raman**4 + libration**4) ** Decimal(0.25)).to_integral_value(ROUND_CEILING))


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


def _kicks(layout: "BlockLayout", run: tuple, xis):
    """Right-hand sides of sudden kicks on a run of the layout's chain blocks:
    the one place V^T[:, rows] e^{i xi Lambda} is built.

    Yields (g0, g1, rhs) for chunks of the strengths xis: rhs, m x n x (g1 -
    g0) x k complex in C order for the run's m blocks of n rows and k
    columns, holds each block's V^T[:, rows] e^{i xi Lambda} for strengths g0
    to g1 and its columns' origin rows, its float view the n x 2k (re, im)
    column pairs of a strength that one real GEMM with V kicks.  V^T[:, rows]
    is gathered from the layout's eigenvectors once per run, by its int32
    index, and every strength's phases come from one exponential, repeated
    over a chunk's columns and multiplied in place; a chunk holds at most
    GATHER_CHUNK entries, one strength at least.
    """
    n, k, b0, b1, a0, a1, _, _, r0, r1, *_ = run
    evals, evecs = layout.eigen
    factors = np.take(evecs, layout.gather[a0:a1]).astype(complex).reshape(b1 - b0, n, 1, k)
    phases = np.exp(1j * np.multiply.outer(evals[r0:r1], xis)).reshape(b1 - b0, n, -1, 1)
    step = max(1, GATHER_CHUNK // (a1 - a0))
    for g0 in range(0, len(xis), step):
        g1 = min(g0 + step, len(xis))
        rhs = np.repeat(phases[:, :, g0:g1], k, axis=3)
        rhs *= factors
        yield g0, g1, rhs


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
# Runs on every core, with OpenBLAS held to one thread
# ---------------------------------------------------------------------------

_BLAS_LOCK = threading.RLock()


@cache
def _openblas() -> tuple:
    """(get, set) of the thread count of every OpenBLAS the process has
    loaded, found once: the libraries in /proc/self/maps (Linux) that export
    openblas_get_num_threads and openblas_set_num_threads under one of
    OpenBLAS's symbol prefixes and suffixes, as numpy's scipy-openblas wheel
    exports scipy_openblas_set_num_threads64_.  Empty where there is none."""
    try:
        with open("/proc/self/maps") as maps:
            paths = dict.fromkeys(line.split(maxsplit=5)[-1].strip()
                                  for line in maps if "openblas" in line.lower())
    except OSError:
        return ()
    names = [f"{prefix}openblas_%s_num_threads{suffix}"
             for prefix in ("", "scipy_") for suffix in ("", "64_", "_64")]
    found = []
    for path in paths:
        try:
            library = ctypes.CDLL(path)  # already loaded: the same handle
        except OSError:
            continue
        for name in names:
            get, put = (getattr(library, name % verb, None) for verb in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                found.append((get, put))
                break
    return tuple(found)


def _workers() -> int:
    """Workers of a composed chain kick, a layout's eigendecompositions or
    the lattice's groups (_on_workers): one per CPU the process may run on
    when OpenBLAS can be held to one thread (_openblas), else one, so that no
    worker shares its core with BLAS threads."""
    return len(os.sched_getaffinity(0)) if _openblas() else 1


@contextmanager
def _one_blas_thread():
    """Hold every loaded OpenBLAS to one thread, and restore the counts found
    on exit.  Reentrant; one thread of the process holds it at a time, so
    only a calling thread takes it, never a worker: the calling thread keeps
    it while it joins the workers."""
    with _BLAS_LOCK:
        libraries = _openblas()
        counts = [get() for get, _ in libraries]
        try:
            for _, put in libraries:
                put(1)
            yield
        finally:
            for (_, put), count in zip(libraries, counts):
                put(count)


def _on_workers(items, step, workers: int):
    """step(item) for every item, handed out in order to `workers` threads,
    this one among them, each taking the next item when its last is done.
    Every thread is joined before this returns; the first exception a step
    raises is raised here, unchanged, and no item is taken after it."""
    pending, failed, lock = iter(items), [], threading.Lock()

    def work():
        try:
            while not failed:
                with lock:
                    item = next(pending, None)
                if item is None:
                    return
                step(item)
        except BaseException as error:  # raised again by the calling thread
            failed.append(error)

    threads = []
    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=work)
            thread.start()
            threads.append(thread)
    except BaseException as error:  # a thread that cannot start: the others stop
        failed.append(error)
    work()
    for thread in threads:
        thread.join()
    if failed:
        raise failed[0]


# ---------------------------------------------------------------------------
# The (J,M) lattice: reflection sectors on the same stepper
# ---------------------------------------------------------------------------

def _reflection_sectors(basis: JMBasis) -> list:
    """The + and - sectors of R|J,M> = (-1)^M |J,-M> on a lattice group.

    A sector's n x n_s W has orthonormal columns (|J,M> +- (-1)^M |J,-M>)/sqrt2,
    one per M > 0 site (the + sector also holds |J,0>), so each site lies on
    one column at most.  Per sector: each site's column (-1 where the sector
    lacks the site) and its coefficient there, and the J of the columns.
    """
    j, m = basis.j_of, basis.m_of
    mirror = basis.site(j, -m)
    sectors = []
    for sign, sites in ((1.0, np.flatnonzero(m >= 0)), (-1.0, np.flatnonzero(m > 0))):
        paired = sites[m[sites] > 0]
        column, coefficient = np.full(len(j), -1), np.zeros(len(j))
        column[sites] = np.arange(len(sites))
        coefficient[sites] = np.where(m[sites] > 0, math.sqrt(0.5), 1.0)
        column[mirror[paired]] = column[paired]
        coefficient[mirror[paired]] = sign * math.sqrt(0.5) * (-1.0) ** m[paired]
        sectors.append((column, coefficient, j[sites]))
    return sectors


def _sector_operator(coupling, column, coefficient, size: int) -> np.ndarray:
    """W^T C W of a reflection sector, dense, for C's (rows, cols, values)
    triplets: entry (r, c) adds coefficient_r C_rc coefficient_c at
    (column_r, column_c) when the sector holds both sites."""
    rows, cols, values = coupling
    inside = (column[rows] >= 0) & (column[cols] >= 0)
    r, c = rows[inside], cols[inside]
    operator = np.zeros((size, size))
    np.add.at(operator, (column[r], column[c]), coefficient[r] * values[inside] * coefficient[c])
    return operator


def _lattice_steps(basis: JMBasis, coupling, molecule: MoleculeSpec, origins: np.ndarray, schedule, amps):
    """Add to amps, zero on entry, the amplitudes at the reference time of the
    columns started on the basis sites `origins`, after the schedule's kicks of
    `coupling`, (rows, cols, values) triplets: sum W a over the sectors.

    A column's sector component is W's row at its origin; a sector skips the
    columns it does not hold (an M0 = 0 origin lies in the + sector only).
    W a goes back a few rows at a time, each site its coefficient times its
    column's row, so no n x k temporary is made.
    """
    omega0 = rotational_omega(basis.j_of[origins], molecule)
    first = schedule[1][0]
    for column, coefficient, js in _reflection_sectors(basis):
        held = np.flatnonzero(column[origins] >= 0)
        if len(held) == 0:
            continue
        evals, vecs = np.linalg.eigh(_sector_operator(coupling, column, coefficient, len(js)))
        start = origins[held]
        # the first kick's right-hand side e^{i G Lambda} V^T a0, n x k in C order
        rhs = np.ascontiguousarray((coefficient[start, None] * vecs[column[start]]).T, dtype=complex)
        rhs *= np.exp(1j * first * evals)[:, None]
        _compose(evals, vecs, rotational_omega(js, molecule), omega0[held], rhs.view(float), schedule)
        sites = np.flatnonzero(column >= 0)
        step = max(1, GATHER_CHUNK // len(held))
        for lo in range(0, len(sites), step):
            part = sites[lo:lo + step]
            amps[part[:, None], held] += coefficient[part, None] * rhs[column[part]]


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
class BlockLayout:
    """Where the blocks of a ChannelSet lie in its packed amplitudes.

    Block b holds group b of the set's channels (_group_channels), those on
    one fixed-M chain keys[b] = (|M|, J parity) or one (J parity, M parity)
    lattice group: sizes[b] rows and counts[b] columns, its n x k amplitude
    matrix in C order at entries bounds[b] to bounds[b + 1].  The columns are
    the ensemble's channels `order`, block by block, started on J0 j0 and
    |M0| m0; levels is the J of every row, rows each column's origin row in
    its block, bases each lattice group's JMBasis (empty for chains).  A
    chain layout serves every ensemble with the same channels at j_max
    (_chain_layout) and builds its eigendecompositions and index arrays on
    first use; a lattice layout builds and keeps its groups' lab-axis
    operators (axis_operator).
    """

    keys: np.ndarray
    order: np.ndarray
    j0: np.ndarray
    m0: np.ndarray
    j_max: int
    sizes: np.ndarray
    counts: np.ndarray
    bounds: np.ndarray
    levels: np.ndarray
    rows: np.ndarray
    bases: tuple = ()
    _operators: dict = field(default_factory=dict, init=False, repr=False)

    def unkicked(self) -> np.ndarray:
        """Packed amplitudes with every column on its origin row, the state of a zero kick."""
        amps = np.zeros(self.bounds[-1], dtype=complex)
        amps[np.repeat(self.bounds[:-1] - _starts(self.counts)[:-1], self.counts)
             + self.rows * np.repeat(self.counts, self.counts) + np.arange(len(self.rows))] = 1.0
        return amps

    @cached_property
    def edge(self) -> tuple:
        """(entries, columns) of the packed amplitudes in the top two J shells.
        J ascends down each block, so they are its last rows: one on a Delta-J = 2
        chain, one shell of M sites on a lattice group."""
        top = np.add.reduceat(self.levels >= self.j_max - 1, _starts(self.sizes)[:-1]) * self.counts
        within = _within(top)
        return (np.repeat(self.bounds[1:] - top, top) + within,
                np.repeat(_starts(self.counts)[:-1], top) + within % np.repeat(self.counts, top))

    def axis_operator(self, b: int, axis: str) -> tuple:
        """Lattice group b's cos^2 theta_axis triplets, built on first use and kept."""
        if (b, axis) not in self._operators:
            self._operators[b, axis] = cos2theta_axis_matrix(self.bases[b], axis)
        return self._operators[b, axis]

    @cached_property
    def eigen(self) -> tuple:
        """(evals, evecs) of every block's chain, packed in block order: block b's
        eigenvalues lie on its rows, its eigenvector matrix on its eigenvector
        entries (`runs`) in Fortran order, so that every GEMM with it keeps its
        BLAS path.  Each chain's tridiagonal, its slice of `operator` with the
        doubled couplings halved exactly, is laid out dense in the chain's own
        eigenvector entries for one eigh, whose V then replaces it.  The chains
        go to the workers largest first (_on_workers), each writing its own
        slices, so the eigensolver's copies are of as many chains as there
        are workers, as the working set counts."""
        diag, _, coupling = self.operator
        first, lows, square = _starts(self.sizes), _starts(self.sizes - 1), _starts(self.sizes * self.sizes)
        evals, evecs = np.empty(first[-1]), np.zeros(square[-1])
        sizes = self.sizes.tolist()

        def solve(b):  # writes chain b's eigenvalues and eigenvectors alone
            n = sizes[b]
            tridiagonal = evecs[square[b]:square[b + 1]].reshape(n, n)
            tridiagonal.flat[::n + 1] = diag[first[b]:first[b + 1]]
            tridiagonal.flat[1::n + 1] = tridiagonal.flat[n::n + 1] = coupling[lows[b]:lows[b + 1]] / 2.0
            evals[first[b]:first[b + 1]], vectors = np.linalg.eigh(tridiagonal)
            tridiagonal[...] = vectors.T  # V in Fortran order

        chains = sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True)  # largest first
        with _one_blas_thread():  # a second BLAS thread spins without speeding one eigh
            _on_workers(chains, solve, min(_workers(), len(chains)))
        return evals, evecs

    @cached_property
    def runs(self) -> list:
        """Runs of consecutive chain blocks of one shape n x k.

        Per run as Python ints: n, k, then the first and end of its blocks,
        amplitudes, columns, rows (and eigenvalues) and eigenvector entries.
        A run is one stacked BLAS batch, whose items match the per-block calls
        bit for bit.
        """
        n, k = self.sizes, self.counts
        first = np.flatnonzero(np.concatenate(([True], (n[1:] != n[:-1]) | (k[1:] != k[:-1]))))
        ends = np.append(first[1:], len(n))
        ranges = [np.arange(len(n) + 1), _starts(n * k), _starts(k), _starts(n), _starts(n * n)]
        columns = [n[first], k[first]] + [x for r in ranges for x in (r[first], r[ends])]
        return list(zip(*(c.tolist() for c in columns)))

    @cached_property
    def gather(self) -> np.ndarray:
        """The kick kernel's (_kicks) index into `eigen`, int32: per packed
        entry (i, c) of a block, its eigenvector entry V[rows[c], i], built run
        by run on first use, by a worker too: it reads only the layout's own
        arrays, so two threads that build it at once build the same index."""
        entries = np.empty(self.bounds[-1], dtype=np.int32)
        for n, k, b0, b1, a0, a1, c0, c1, *_, v0, _ in self.runs:
            # V is stored in Fortran order: a block's V[r, i] lies at its first entry + n i + r
            first = v0 + n * n * np.arange(b1 - b0)[:, None, None] + n * np.arange(n)[:, None]
            np.add(first, self.rows[c0:c1].reshape(-1, 1, k), out=entries[a0:a1].reshape(-1, n, k))
        return entries

    @cached_property
    def operator(self) -> tuple:
        """cos^2 theta on the chain blocks: its diagonal on every row, and, on
        every row but the last, J and twice the off-diagonal <J+2,M| cos^2 theta
        |J,M>.  The one evaluation of the closed forms, for `eigen` and the series."""
        levels, m = self.levels, np.repeat(self.keys[:, 0], self.sizes)
        lower = np.delete(np.arange(len(levels)), np.cumsum(self.sizes) - 1)
        return cos2theta_diagonal(levels, m), levels[lower], 2.0 * cos2theta_offdiag(levels[lower], m[lower])


def _chains(ensemble: ThermalEnsemble) -> tuple:
    """(keys, counts, order) of the ensemble's fixed-M chains, keyed (|M0|, J0
    parity): those of any cached layout of these channels, whatever its
    j_max, else grouped."""
    channels = (ensemble.j0.tobytes(), ensemble.m0.tobytes())
    for key, layout in _LAYOUTS.items():
        if key[:2] == channels:
            return layout.keys, layout.counts, layout.order
    return _group_channels(ensemble, np.abs(ensemble.m0), ensemble.j0 % 2)


def _chain_layout(ensemble: ThermalEnsemble, j_max: int, chains: tuple) -> BlockLayout:
    """The layout of the ensemble's chains at j_max, taken from the cache or
    built from `chains`, their _chains, which hold at every j_max.

    The cache is keyed by the channels and j_max, so ensembles built apart
    with equal channels share a layout.  It keeps the LAYOUT_CACHE_SIZE most
    recently used layouts, each only while its eigenvectors, 8 sum n^2
    bytes, fit that share of the working-set budget.
    """
    key = (ensemble.j0.tobytes(), ensemble.m0.tobytes(), j_max)
    layout = _LAYOUTS.pop(key, None)
    if layout is None:
        keys, counts, order = chains
        j0 = ensemble.j0[order]
        starts = _chain_start(keys[:, 0], keys[:, 1])
        sizes = (j_max - starts) // 2 + 1
        layout = BlockLayout(keys, order, j0, np.abs(ensemble.m0[order]), j_max, sizes, counts,
                             _starts(sizes * counts), np.repeat(starts, sizes) + 2 * _within(sizes),
                             (j0 - np.repeat(starts, counts)) // 2)
    if 8 * int(np.sum(layout.sizes ** 2)) <= MAX_WORKING_SET_BYTES / LAYOUT_CACHE_SIZE:
        _LAYOUTS[key] = layout
        while len(_LAYOUTS) > LAYOUT_CACHE_SIZE:
            _LAYOUTS.popitem(last=False)
    return layout


@dataclass(frozen=True)
class ChannelSet:
    """Thermally weighted propagated channels, ready for observables.

    Every block, a fixed-M chain or a (J,M)-lattice group, is packed into
    `amplitudes` as its `layout` says, with one weight per column; `blocks`
    views them as ChannelBlocks.  Amplitudes are Schroedinger-picture at
    reference_time (the pulse center for the TDSE drivers, valid for
    post-pulse evaluation); free evolution to any later time is analytic.
    """

    molecule: MoleculeSpec
    temperature: float
    reference_time: float
    j_max: int
    xi: float
    layout: BlockLayout
    weights: np.ndarray
    amplitudes: np.ndarray

    @property
    def kind(self) -> str:
        """'chain' for a fixed-M set, 'jm' for a (J,M)-lattice set."""
        return "jm" if self.layout.bases else "chain"

    @cached_property
    def blocks(self) -> tuple:
        lay = self.layout
        rows, cols, bounds = (x.tolist() for x in (_starts(lay.sizes), _starts(lay.counts), lay.bounds))
        return tuple(
            ChannelBlock(lay.levels[rows[b]:rows[b + 1]] if basis is None else basis.j_of, basis,
                         *(x[cols[b]:cols[b + 1]] for x in (lay.j0, lay.m0, self.weights)),
                         self.amplitudes[bounds[b]:bounds[b + 1]].reshape(rows[b + 1] - rows[b], -1))
            for b, basis in enumerate(lay.bases or [None] * len(lay.sizes))
        )

    def series_terms(self, axis: str):
        """(constant, z) of <cos^2 theta_axis> - 1/3: the weighted trace is
        constant + Re sum_J z[J] e^{i omega_J dt}, dt from reference_time, with
        z indexed by the lower J of each J <-> J+2 coherence from 0 to j_max.

        Blocks add in layout order.  Chains carry the tridiagonal field-axis
        operator (y): a block's constant is sum_k w_k d |c_k|^2 - W/3 and its
        line J is 2 m_J sum_k w_k conj(c_{J+2,k}) c_{J,k}, reduced per run of
        equal-shape blocks, two GEMVs and a dot product per block, batched; the
        transverse axes follow from <cos^2 theta_perp> = (1 - <cos^2 theta>)/2
        as a -1/2 scaling, exact in floating point.  On the (J,M) lattice the
        Delta-J = 0 entries of each group's lab-axis operator (including the
        Delta-M = +-2 ones, which beat at zero frequency) feed the constant and
        its Delta-J = +2 entries add onto z at their lower J.
        """
        check_axis(axis)
        lay, amps, weights = self.layout, self.amplitudes, self.weights
        z = np.zeros(self.j_max + 1, dtype=complex)
        if lay.bases:
            consts, first = np.empty(len(lay.bases)), _starts(lay.counts)
            for b, basis in enumerate(lay.bases):
                c = amps[lay.bounds[b]:lay.bounds[b + 1]].reshape(len(basis), -1)
                w = weights[first[b]:first[b + 1]]
                rows, cols, values = lay.axis_operator(b, axis)
                dj = basis.j_of[rows] - basis.j_of[cols]
                row, col, val = rows[dj == 0], cols[dj == 0], values[dj == 0]
                consts[b] = float(np.real((np.conj(c[row]) * c[col]) @ w) @ val) - float(w.sum()) / 3.0
                row, col, val = rows[dj == 2], cols[dj == 2], values[dj == 2]
                np.add.at(z, basis.j_of[col], 2.0 * val * ((np.conj(c[row]) * c[col]) @ w))
        else:
            diag, js, coupling = lay.operator
            lines, lows = np.empty(len(js), dtype=complex), _starts(lay.sizes - 1)
            weighted, totals = np.empty(len(lay.sizes)), np.empty(len(lay.sizes))
            for n, k, b0, b1, a0, a1, c0, c1, r0, r1, *_ in lay.runs:
                m = b1 - b0
                cross, pops = _products(amps[a0:a1].reshape(m, n, 1, k))
                w = weights[c0:c1].reshape(m, k)
                np.matmul(cross[:, 0], w[:, :, None].astype(complex), out=lines[lows[b0]:lows[b1]].reshape(m, -1, 1))
                np.matmul(diag[r0:r1].reshape(m, 1, -1), pops[:, 0] @ w[:, :, None],
                          out=weighted[b0:b1].reshape(m, 1, 1))
                w.sum(axis=1, out=totals[b0:b1])
            factor = 1.0 if axis == "y" else -0.5
            consts = factor * (weighted - totals / 3.0)
            np.add.at(z, js, factor * (coupling * lines))
        constant = 0.0
        for const in consts.tolist():  # in layout order: np.sum's pairwise order would move the bytes
            constant += const
        return constant, z

    @property
    def channels(self) -> tuple:
        """Per-channel views of the block columns, block by block."""
        return tuple(
            Channel(j0, m0, w, b.js, b.basis, a)
            for b in self.blocks
            for j0, m0, w, a in zip(b.j0.tolist(), b.m0.tolist(), b.weights.tolist(), b.amplitudes.T)
        )

    def norm_deviation(self) -> float:
        """|weighted norm / total weight - 1| of the whole set, from its level populations."""
        return abs(float(self.level_populations().sum()) / float(self.weights.sum()) - 1.0)

    def edge_leak(self) -> float:
        """Weighted population in the top two J shells of the basis, gathered at once."""
        entries, columns = self.layout.edge
        return float(np.abs(self.amplitudes[entries]) ** 2 @ self.weights[columns])

    def level_populations(self) -> np.ndarray:
        """Weighted population of each J from 0 to j_max, summed over channels and M."""
        lay = self.layout
        blocks = zip(lay.sizes.tolist(), np.split(self.amplitudes, lay.bounds[1:-1]),
                     np.split(self.weights, np.cumsum(lay.counts)[:-1]))
        pops = np.concatenate([np.abs(amps.reshape(n, -1)) ** 2 @ weights for n, amps, weights in blocks])
        return np.bincount(lay.levels, weights=pops, minlength=self.j_max + 1)


def _products(c: np.ndarray) -> tuple:
    """(cross, pops) of chain blocks' amplitudes c, m x n x states x k: the
    m x states x (n - 1) x k products conj(c_{J+2,k}) c_{J,k} and the m x
    states x n x k populations |c|^2, each state's matrix in C order."""
    c = c.swapaxes(1, 2)
    cross = np.conj(c[:, :, 1:], order="C")
    cross *= c[:, :, :-1]
    pops = np.abs(c, order="C")
    pops *= pops
    return cross, pops


def _progression(index: np.ndarray) -> slice | None:
    """The basic slice of indices that ascend in equal steps, as a chain's
    lines and levels do in a Boltzmann ensemble, else None."""
    start = int(index[0]) if len(index) else 0
    step = int(index[1]) - start if len(index) > 1 else 1
    end = start + step * len(index)
    return slice(start, end, step) if step > 0 and np.array_equal(index, np.arange(start, end, step)) else None


def _level_series(layout: BlockLayout, weights: np.ndarray, xis: np.ndarray, axis: str) -> tuple:
    """(levels, constants, lines, z, leak) of the sudden kicks of strengths
    xis on one chain layout with column weights `weights`: each kick's level
    series of axis (kick_level_series), constants nodes x levels and z nodes
    x lines x levels, and its edge leak, as ChannelSet.edge_leak reads it,
    one per node.

    The run's blocks are kicked a chunk of nodes at a time (_kicks), one
    GEMM per block by V.  A column enters its level with its share of the
    level's weight.  Line J of a block takes 2 m_J share_k conj(c_{J+2,k})
    c_{J,k} from column k, its constant share_k (sum_J d_J |c_{J,k}|^2 -
    1/3), as in series_terms.  The blocks add in layout order.  In a
    Boltzmann ensemble a chain holds each level once and its lines and
    levels are progressions (_progression), so a block adds its terms
    through basic slices; a block of a hand-built ensemble, which may hold a
    level twice, adds them one by one.
    """
    check_axis(axis)
    diag, js, coupling = layout.operator
    evals, evecs = layout.eigen
    levels, index = np.unique(layout.j0, return_inverse=True)
    lines, line = np.unique(js, return_inverse=True)
    shares = weights / np.bincount(index, weights=weights)[index]
    lows, cols = (_starts(x).tolist() for x in (layout.sizes - 1, layout.counts))
    cells = []  # per block, the slices of its lines and levels, else their indices
    for b in range(len(layout.sizes)):
        rows, columns = line[lows[b]:lows[b + 1]], index[cols[b]:cols[b + 1]]
        spans = _progression(rows), _progression(columns)
        cells.append(spans if None not in spans else (rows[:, None], columns))
    z = np.zeros((len(xis), len(lines), len(levels)), dtype=complex)
    constants, leak = np.zeros((len(xis), len(levels))), np.zeros(len(xis))
    for run in layout.runs:
        n, k, b0, b1, _, _, c0, c1, r0, r1, v0, v1 = run
        m = b1 - b0
        vecs = evecs[v0:v1].reshape(m, n, n).transpose(0, 2, 1)  # V, stored in Fortran order
        scale = np.repeat(coupling[lows[b0]:lows[b1]].reshape(m, -1, 1, 1) * shares[c0:c1].reshape(m, 1, 1, k), 2)
        for g0, g1, rhs in _kicks(layout, run, xis):
            c = np.matmul(vecs, rhs.view(float).reshape(m, n, -1)).view(complex)
            cross, pops = _products(c.reshape(m, n, g1 - g0, k))
            cross.view(float)[...] *= scale.reshape(m, 1, -1, 2 * k)  # each term's real and imaginary part
            per_column = (diag[r0:r1].reshape(m, 1, 1, n) @ pops)[:, :, 0]
            terms = shares[c0:c1].reshape(m, 1, k) * (per_column - 1.0 / 3.0)
            leak[g0:g1] += (pops[:, :, -1] @ weights[c0:c1].reshape(m, k, 1)).sum(axis=(0, 2))
            for i, (rows, columns) in enumerate(cells[b0:b1]):
                if isinstance(columns, slice):
                    z[g0:g1, rows, columns] += cross[i]
                    constants[g0:g1, columns] += terms[i]
                else:  # a level held twice adds twice
                    np.add.at(z, (slice(g0, g1), rows, columns), cross[i])
                    np.add.at(constants, (slice(g0, g1), columns), terms[i])
    factor = 1.0 if axis == "y" else -0.5
    z *= factor
    constants *= factor
    return levels, constants, lines, z, leak


def _lattice_size(j_max: int, j_parity: int, m_parity: int) -> int:
    """len(JMBasis(j_max, j_parity, m_parity)) without building the basis.

    Shell J holds J sites of the M parity, plus one when the parities agree.
    """
    shells = (j_max - j_parity) // 2 + 1
    top = j_parity + 2 * (shells - 1)
    return shells * (j_parity + top) // 2 + (j_parity == m_parity) * shells


def check_working_set(nbytes: float, what: str):
    """ValueError naming `what` if nbytes, an int maybe beyond the float range, exceeds MAX_WORKING_SET_BYTES."""
    if nbytes > MAX_WORKING_SET_BYTES:
        try:
            gigabytes = nbytes / 1e9
        except OverflowError:  # Decimal's .3g would print 8e+03 as 8.00e+3
            gigabytes = Decimal(nbytes) / 10**9
        raise ValueError(
            f"{what} needs about {gigabytes:.3g} GB of working "
            f"memory, above the budget of {MAX_WORKING_SET_BYTES / 1e9:.3g} GB"
        )


def require_y_polarized(pulse: PulseSpec):
    """The fixed-M drivers quantize along y: reject any other polarization."""
    if pulse.a2 > 1e-12:
        raise ValueError(
            f"the fixed-M drivers handle linear polarization along y only, got A^2 = "
            f"{pulse.a2:g} along x; use elliptic_tdse_ensemble"
        )


def _check_budgets(j_max: int, budgets):
    """ValueError naming j_max (past 15 digits in Decimal's .3g form) if budgets(j_max), (bytes,
    complex multiply-adds of kicks), exceeds MAX_WORKING_SET_BYTES or MAX_KICK_WORK."""
    at = f"propagation at j_max={j_max if j_max < 10**15 else format(Decimal(j_max), '.3g')}"
    nbytes, work = budgets(j_max)
    check_working_set(nbytes, at)
    if work > MAX_KICK_WORK:
        raise ValueError(f"{at} needs about {work:.3g} complex multiply-adds "
                         f"of kicks, above the budget of {MAX_KICK_WORK:.3g}")


def check_strengths(xis):
    """ValueError naming the first kick strength of xis, a number or an
    array, that is negative or not finite."""
    for xi in np.ravel(xis).tolist():
        if not 0.0 <= xi < math.inf:
            raise ValueError(f"kick strength must be {'nonnegative' if xi < 0 else 'finite'}, got {xi}")


def _on_basis(ensemble: ThermalEnsemble, j_max: int, budgets, xis):
    """Check an explicit basis, a contract, before its kicks of strengths
    xis; return the check of their edge.

    The strengths are checked first (check_strengths); then a negative j_max
    is a ValueError and a thermal origin above it a BasisTooSmallError, and
    budgets(j_max) is checked (_check_budgets), all before anything is
    allocated.  The returned check takes the edge leak of each kick and
    raises BasisTooSmallError if any exceeds EDGE_POPULATION_TOL.
    """
    check_strengths(xis)
    if j_max < 0:
        raise ValueError(f"j_max must be nonnegative, got {j_max}")
    if ensemble.j_thermal_max > j_max:
        raise BasisTooSmallError(f"thermal origin J={ensemble.j_thermal_max} exceeds j_max={j_max}; the basis "
                                 "cannot hold the initial ensemble")
    _check_budgets(j_max, budgets)

    def edge(leak):
        if not np.all(np.asarray(leak) <= EDGE_POPULATION_TOL):
            raise BasisTooSmallError(f"kick populates the basis edge at j_max={j_max}; enlarge j_max")

    return edge


def tail_j_max(ensemble: ThermalEnsemble, xi: float, tol: float = EDGE_POPULATION_TOL) -> int:
    """The smallest j_max >= J_thermal_max at which a closed-form tail bound
    holds the weighted population that a sudden kick of strength xi leaves in
    the top two J shells, J >= j_max - 1, to tol.

    By Jacobi-Anger, e^{i xi cos^2 theta} = e^{i xi/2} [J_0(xi/2) + 2 sum_{n
    >= 1} i^n J_n(xi/2) cos 2n theta], and cos 2n theta, a polynomial of
    degree 2n in cos theta of norm at most 1, moves J by at most 2n.  So a
    level J0 puts an amplitude of at most 2 sum_{n >= N} |J_n(xi/2)| <= 2
    sum_{n >= N} x^n / n!, x = xi/4 (DLMF 10.14.4), on a chain's top shell,
    J0 + 2N with N = ceil((j_max - 1 - J0) / 2); once N + 1 > x the sum is
    at most x^N / N! / (1 - x / (N + 1)), and N! >= sqrt(2 pi N) (N / e)^N
    (Stirling).  Each level's square of that, at most 1, is weighted by its
    population and summed.  The sum falls as j_max grows, so it is bisected,
    from J_thermal_max to a basis whose N is at least e^2 x + log(4 /
    sqrt(tol)) for every level, where (e x / N)^N <= e^-N bounds every
    level's amplitude within sqrt(tol): a kick of any finite strength is
    sized at once, with no kick run.  A kick whose 4 xi is not finite raises
    ValueError, as suggest_j_max does.

    The bound holds for the exact kick, not for its truncation to the basis
    it sizes.  The lattice grows past it if its edge says so (_with_regrow);
    observables.regime_scan and retrieval.kick_surface kick on its basis as
    an explicit one, with no regrow, and raise BasisTooSmallError if the
    truncated kick leaves more than EDGE_POPULATION_TOL there.
    """
    if not math.isfinite(4.0 * xi):
        raise ValueError(f"kick strength xi = {xi:.3g} is too large to size a basis: 4 xi is not finite")
    pops = np.bincount(ensemble.j0, weights=ensemble.weights)
    levels, x = np.flatnonzero(pops), xi / 4.0

    def edge(j_max):  # the bound on the population in the top two shells at j_max
        n = np.ceil((float(j_max) - 1.0 - levels) / 2.0)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # entries masked below
            tail = 2.0 * np.exp(n * (1.0 + np.log(x / n)) - 0.5 * np.log(2.0 * math.pi * n)
                                - np.log1p(-x / (n + 1.0)))
        return float(pops[levels] @ np.where((n >= 1.0) & (n + 1.0 > x), np.minimum(tail * tail, 1.0), 1.0))

    lo = ensemble.j_thermal_max
    hi = lo + 2 * math.ceil(math.e**2 * x + math.log(4.0 / math.sqrt(tol))) + 1
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if edge(mid) <= tol else (mid + 1, hi)
    return lo


def _with_regrow(molecule: MoleculeSpec, ensemble: ThermalEnsemble, xi: float, reference_time: float, j_max,
                 layout_at, kick, budgets, size) -> ChannelSet:
    """The ensemble's ChannelSet at reference_time on the first basis tried
    whose top two J shells hold at most EDGE_POPULATION_TOL of its weighted
    population.

    The one place a propagated set is made and a basis grows.  The kick
    strength is checked first (check_strengths), so no sizing sees one that
    is negative or not finite.  An explicit j_max is a contract (_on_basis);
    an unsized basis starts at size(ensemble, xi) and grows up to
    MAX_REGROWS times, each to int(1.5 j_max) + 10.  An attempt at j_max
    checks budgets(j_max), the bytes it allocates and the complex
    multiply-adds of its kicks, before anything is allocated
    (_check_budgets); builds layout_at(j_max); leaves every column on its
    origin for a zero kick, else takes kick(layout)'s packed amplitudes; and
    reads the edge, which a zero kick leaves empty.
    """
    if j_max is None:
        check_strengths(xi)
        j_max, edge = size(ensemble, xi), None
    else:
        edge = _on_basis(ensemble, j_max, budgets, xi)
    for regrow in range(MAX_REGROWS + 1):
        if edge is None:
            _check_budgets(j_max, budgets)
        layout = layout_at(j_max)
        amps = layout.unkicked() if xi == 0.0 else kick(layout)
        cs = ChannelSet(molecule, ensemble.temperature, reference_time, j_max, xi, layout,
                        ensemble.weights[layout.order], amps)
        leak = 0.0 if xi == 0.0 else cs.edge_leak()
        if edge is not None:
            edge(leak)  # raises past the contract
        if edge is not None or leak <= EDGE_POPULATION_TOL:
            return cs
        if regrow < MAX_REGROWS:
            j_max = int(j_max * 1.5) + 10
    raise BasisTooSmallError(f"norm leak persists after regrowing j_max to {j_max}")


def _kick_count(pulse: PulseSpec | None, molecule: MoleculeSpec, j_max: int) -> int:
    """Kicks of a propagation: 1 for the sudden kick (no pulse), else the 6n +
    1 of _rkn_schedule's n steps."""
    return 1 if pulse is None else 6 * _rkn_steps(pulse, molecule, j_max) + 1


def _chain_sizes(chains: tuple, j_max: int) -> list:
    """(n, k) of each block of the chains, their _chains, at j_max, as
    Python ints: j_max may be huge."""
    keys, counts, _ = chains
    return [((j_max - start) // 2 + 1, k) for start, k in
            zip(_chain_start(keys[:, 0], keys[:, 1]).tolist(), counts.tolist())]


def _layout_bytes(sizes: list) -> int:
    """Bytes of a chain layout of blocks `sizes`: per block its cached
    eigenvectors and the kick kernel's int32 index (gather); per row the
    levels, the operator's three arrays and the eigenvalues (40 B); per
    column the origin rows, order, J0, |M0| and their bytes in the layout
    cache's key (48 B); per block its keys, size, count and bounds and at
    most one entry of the run table, 12 ints (576 B); the eigensolver's
    copies of the _workers() largest chains, which the workers may hold at
    once; and 16 kB that an attempt of any size takes, in Python objects,
    array headers and numpy's iterators (at most 10 kB measured on one
    chain of one column)."""
    return (sum(8 * n * n + 4 * n * k + 40 * n + 48 * k + 576 for n, k in sizes)
            + sum(sorted(8 * n * n for n, _ in sizes)[-_workers():]) + 16384)


def _kick_bytes(sizes: list, nodes: int, running: int) -> int:
    """Bytes of the kick kernel (_kicks) for `nodes` strengths on the
    `running` costliest runs of blocks `sizes`, which may run at once: per
    entry of a run its gathered eigenvector entry as a complex (16 B; the
    float it is cast from and its int64 index live before the chunks), per
    row and strength its phases as they are built (40 B), and per entry and
    strength of a chunk, at most GATHER_CHUNK entries and one strength at
    least, its right-hand sides and at most as many bytes again of the
    buffers numpy takes to broadcast the gathered entries over the chunk's
    strengths (32 B)."""
    runs = [(len(list(blocks)) * n, k) for (n, k), blocks in groupby(sizes)]  # rows and columns
    return sum(sorted(16 * rows * k + 40 * rows * nodes + 32 * rows * k * min(nodes, max(1, GATHER_CHUNK // (rows * k)))
                      for rows, k in runs)[-running:])


def _chain_propagation(molecule, ensemble, xi, j_max, reference_time, pulse=None):
    """ChannelSet of one block per (|M|, parity) chain, grown by _with_regrow
    from suggest_j_max's basis on channels grouped once: the sudden kick of
    xi without a pulse, else the pulse's RKN schedule (_rkn_schedule), its
    kick times measured from reference_time.
    """
    chains = _chains(ensemble)

    def kick(layout):
        plan = ([0.0], [xi], (), ()) if pulse is None else _rkn_schedule(pulse, molecule, layout.j_max)
        kicks = plan[1]
        amps = np.empty(layout.bounds[-1], dtype=complex)
        evals, evecs = layout.eigen  # built on this thread: it takes the BLAS hold, which no worker may

        def step(run):  # one stack per run of equal-shape blocks, into its slice
            n, k, b0, b1, a0, a1, c0, c1, r0, r1, v0, v1 = run
            rhs = next(_kicks(layout, run, kicks[:1]))[2].view(float).reshape(b1 - b0, n, 2 * k)
            vecs = evecs[v0:v1].reshape(b1 - b0, n, n).transpose(0, 2, 1)  # V, stored in Fortran order
            if len(kicks) == 1:
                np.matmul(vecs, rhs, out=amps[a0:a1].view(float).reshape(b1 - b0, n, 2 * k))  # one GEMM per block
            else:
                omega = rotational_omega(layout.levels[r0:r1], molecule).reshape(-1, n)
                omega0 = np.take_along_axis(omega, layout.rows[c0:c1].reshape(-1, k), axis=1)
                _compose(evals[r0:r1].reshape(-1, n), vecs, omega, omega0, rhs, plan)
                amps[a0:a1] = rhs.view(complex).ravel()

        if len(kicks) == 1:
            _on_workers(layout.runs, step, 1)
        else:  # costliest first: per block, free propagators of n^3 and kicks of n^2 k
            runs = sorted(layout.runs, reverse=True,
                          key=lambda run: (run[3] - run[2]) * run[0] ** 2 * (run[0] + run[1] * len(kicks)))
            with _one_blas_thread():
                _on_workers(runs, step, min(_workers(), len(runs)))
        return amps

    def budgets(j_max):
        # bytes: the layout (_layout_bytes), the results and the kick
        # kernel's arrays (_kick_bytes) on the runs that run at once, one for
        # the sudden kick, the _workers() costliest for composed kicks, which
        # add the schedule (48 B per kick) and those runs' stacks: for each
        # block of a run three free propagators and the two temporaries of
        # their build, its table of kick phases (40 B per kick and level as
        # it is built: real phases, their complex cast and the exponentials)
        # and 3 state vectors.  Work: each kick is one n x n GEMM, by V or a
        # free propagator, on every block's k columns
        sizes = _chain_sizes(chains, j_max)
        kicks = _kick_count(pulse, molecule, j_max)
        running = 1 if kicks == 1 else _workers()
        total = _layout_bytes(sizes) + sum(16 * n * k for n, k in sizes) + _kick_bytes(sizes, 1, running)
        if kicks > 1:
            stacks = sorted(len(list(run)) * (16 * (5 * n * n + 3 * n * k) + 40 * kicks * n)
                            for (n, k), run in groupby(sizes))
            total += sum(stacks[-running:]) + 48 * kicks
        return total, kicks * sum(n * n * k for n, k in sizes)

    return _with_regrow(molecule, ensemble, xi, reference_time, j_max,
                        lambda j_max: _chain_layout(ensemble, j_max, chains), kick, budgets,
                        lambda ensemble, xi: suggest_j_max(ensemble.j_thermal_max, xi))


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
    return _chain_propagation(molecule, ensemble, xi, j_max, reference_time)


def kick_level_series(ensemble: ThermalEnsemble, xis, j_max: int, axis: str) -> tuple:
    """(levels, constants, lines, z) of the ensemble's sudden kicks of every
    strength in xis on one basis: each thermal level's share of each node's
    series of axis, per unit of the level's weight, so that node g's series
    at any weights p of the levels is constants[g] @ p, with z[g] @ p on the
    lines J in `lines` and zero on the others.

    levels holds the J0 of the ensemble's channels, ascending, and lines the
    lower J of every line the chains hold: constants is nodes x levels and z
    nodes x lines x levels.  One pass over the ensemble's chain layout at
    j_max, run by run: the kick kernel (_kicks) builds each chunk of nodes'
    right-hand sides, one GEMM per block by V kicks them, and they reduce
    straight to the level series (_level_series), with no ChannelSet.  j_max
    is a contract, checked as kick_ensemble's (_on_basis): the budgets count
    every node's kick work and the bytes of one chunk, and every node's edge
    leak is held to EDGE_POPULATION_TOL.  A zero strength kicks by V V^T,
    the identity to roundoff, where kick_ensemble leaves the set exactly
    unkicked.
    """
    xis = np.asarray(xis, dtype=float)
    chains = _chains(ensemble)

    def budgets(j_max):
        # bytes: the layout (_layout_bytes); per column its level, share and
        # weight and their sort (64 B), per row its line and its sort (48
        # B); the outputs, a complex per node, level and line up to j_max
        # and a float per node and level; the kick kernel's arrays on the
        # costliest run (_kick_bytes) and the reduction's scale on real and
        # imaginary parts (16 B per entry); and a chunk of at most
        # GATHER_CHUNK entries, or of the largest run: its amplitudes,
        # products and populations, with those of the chunk before and its
        # right-hand sides still held (96 B per entry).  Work: each node is
        # one n x n GEMM by V on every block's k columns
        sizes = _chain_sizes(chains, j_max)
        entries = [len(list(blocks)) * n * k for (n, k), blocks in groupby(sizes)]
        levels = len(np.unique(ensemble.j0))
        total = (_layout_bytes(sizes) + sum(64 * k + 48 * n for n, k in sizes)
                 + len(xis) * levels * (16 * (j_max + 1) + 8) + _kick_bytes(sizes, len(xis), 1)
                 + 16 * max(entries) + 96 * max(GATHER_CHUNK, max(entries)))
        return total, len(xis) * sum(n * n * k for n, k in sizes)

    edge = _on_basis(ensemble, j_max, budgets, xis)
    layout = _chain_layout(ensemble, j_max, chains)
    levels, constants, lines, z, leak = _level_series(layout, ensemble.weights[layout.order], xis, axis)
    edge(leak)
    return levels, constants, lines, z


def tdse_ensemble(
    molecule: MoleculeSpec,
    ensemble: ThermalEnsemble,
    pulse: PulseSpec,
    j_max: int | None = None,
) -> ChannelSet:
    """Finite-pulse TDSE propagation of the whole thermal ensemble.

    The pulse must be polarized along y, the chains' quantization axis.  Each
    run of equal-shape (|M0|, parity) blocks runs the RKN splitting over the
    pulse window as one stack, on one of the workers (_workers) that share
    the runs; amplitudes come back referenced to the pulse center, as the
    sudden driver's.
    """
    require_y_polarized(pulse)
    return _chain_propagation(molecule, ensemble, effective_area(pulse, molecule), j_max, pulse.t0_ps, pulse)


def elliptic_tdse_ensemble(
    molecule: MoleculeSpec,
    ensemble: ThermalEnsemble,
    pulse: PulseSpec,
    j_max: int | None = None,
) -> ChannelSet:
    """TDSE propagation of a thermal ensemble under an elliptic pump.

    Channels are grouped by (J parity, M parity), one block per group on its
    parity-filtered (J,M) lattice, stepped sector by sector (_lattice_steps),
    the groups on the workers (_workers) with OpenBLAS held to one thread.
    The +-M0 mirror symmetry makes folded ensembles exact.  A zero kick leaves
    each column on its origin.  Without j_max the basis starts at the tail
    bound of the sudden kick of the same xi (tail_j_max) at LATTICE_START_TOL,
    with no kick run: a kick linearly polarized and sudden reaches at least
    as high in J as an elliptic finite pulse of that xi.
    """
    xi = effective_area(pulse, molecule)
    keys, counts, order = _group_channels(ensemble, ensemble.j0 % 2, np.abs(ensemble.m0) % 2)
    j0, m0 = ensemble.j0[order], np.abs(ensemble.m0[order])
    cols = _starts(counts).tolist()
    spans = list(zip(keys.tolist(), cols[:-1], cols[1:]))  # (key, first, end) of each group's columns

    def layout_at(j_max):
        bases = tuple(JMBasis(j_max, j_parity=jp, m_parity=mp) for (jp, mp), _, _ in spans)
        sizes = np.array([len(basis) for basis in bases])
        return BlockLayout(keys, order, j0, m0, j_max, sizes, counts, _starts(sizes * counts),
                           np.concatenate([basis.j_of for basis in bases]),
                           np.concatenate([basis.site(j0[c0:c1], m0[c0:c1])
                                           for basis, (_, c0, c1) in zip(bases, spans)]), bases)

    def kick(layout):
        plan = _rkn_schedule(pulse, molecule, layout.j_max)
        amps = np.zeros(layout.bounds[-1], dtype=complex)
        # built here, so that no worker writes the layout's operators
        operators = [(layout.axis_operator(b, "x"), layout.axis_operator(b, "y")[2]) for b in range(len(spans))]

        def step(b):  # both sectors of group b, in order, add their columns into its packed slice
            basis, (_, c0, c1), ((rows, cols, x), y) = layout.bases[b], spans[b], operators[b]
            coupling = rows, cols, pulse.a2 * x + pulse.b2 * y  # y on the entries of x
            out = amps[layout.bounds[b]:layout.bounds[b + 1]].reshape(len(basis), c1 - c0)
            _lattice_steps(basis, coupling, molecule, layout.rows[c0:c1], plan, out)

        # costliest first: per group, free propagators of n^3 and kicks of n^2 k
        costs = [n * n * (n + k * len(plan[1])) for n, k in zip(layout.sizes.tolist(), layout.counts.tolist())]
        groups = sorted(range(len(spans)), key=costs.__getitem__, reverse=True)
        with _one_blas_thread():
            _on_workers(groups, step, min(_workers(), len(groups)))
        return amps

    def budgets(j_max):
        # per group its lattice sites n, channels k and + sector's sites, the
        # larger sector (a group's M >= 0 sites).  Bytes: what every group
        # keeps, its result, its JMBasis (J and M per site, a site table of
        # (j_max + 1)(2 j_max + 1)) and its x and y operators (at most 9
        # triplets of 24 B per site each); what a running group adds, its
        # coupling's values and reflection sectors (120 B per site) and for
        # its larger sector the operator and eigenvectors, three free
        # propagators and the two temporaries of their build, the kick phase
        # table (40 B per kick and level) and 3 state matrices, for the
        # _workers() groups with the most, which the workers may run at once;
        # and the schedule, 48 B per kick.  Work: each kick applies every
        # sector's free propagator to its k columns.  Integers: j_max may be huge
        kicks = _kick_count(pulse, molecule, j_max)
        kept = work = 0
        running = []
        for (jp, mp), c0, c1 in spans:
            n, k = _lattice_size(j_max, jp, mp), c1 - c0
            half = (n + (mp == 0) * ((j_max - jp) // 2 + 1)) // 2
            kept += 16 * n * k + 448 * n + 8 * (j_max + 1) * (2 * j_max + 1)
            running.append(16 * (6 * half * half + 3 * half * k) + 40 * kicks * half + 120 * n)
            work += k * (half * half + (n - half) ** 2)
        return kept + sum(sorted(running)[-_workers():]) + 48 * kicks, kicks * work

    return _with_regrow(molecule, ensemble, xi, pulse.t0_ps, j_max, layout_at, kick, budgets,
                        lambda ensemble, xi: tail_j_max(ensemble, xi, LATTICE_START_TOL))
