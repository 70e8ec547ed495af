"""Rigid-rotor basis, energies, thermal ensembles, and angular operator matrices.

States are labelled |J,M> with the quantization axis chosen per pipeline:
along the field polarization for linearly polarized drives (M is then
conserved and each channel lives on a fixed-M ladder), or along the lab z
(propagation) axis for elliptic drives, where cos^2 of the transverse lab
angles couples Delta-M = 0, +-2.

Matrix elements are closed-form Clebsch-Gordan algebra, evaluated exactly in
rational arithmetic before the final square root. The test suite cross-checks
every element against a spherical-harmonic quadrature oracle.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
import scipy.sparse

from .constants import TWO_PI_C, thermal_wavenumber


@dataclass(frozen=True)
class MoleculeSpec:
    """Linear-rotor parameters.

    B in cm^-1, polarizabilities as volumes in Angstrom^3, g_even/g_odd the
    nuclear-spin statistical weights of even/odd J levels.
    """

    name: str
    b_cm1: float
    delta_alpha_a3: float
    alpha_bar_a3: float | None = None
    g_even: float = 1.0
    g_odd: float = 1.0

    def __post_init__(self):
        if self.b_cm1 <= 0:
            raise ValueError(f"rotational constant must be positive, got {self.b_cm1}")
        if self.delta_alpha_a3 <= 0:
            raise ValueError(
                f"polarizability anisotropy must be positive, got {self.delta_alpha_a3}"
            )
        if self.g_even < 0 or self.g_odd < 0 or (self.g_even == 0 and self.g_odd == 0):
            raise ValueError("spin weights must be nonnegative and not both zero")


# Shipped default. delta_alpha is chosen so that a 0.1 ps FWHM pulse at
# 1 TW/cm^2 accumulates a kick strength of 0.444.
CO2 = MoleculeSpec(
    name="CO2",
    b_cm1=0.39021,
    delta_alpha_a3=2.1,
    alpha_bar_a3=2.911,
    g_even=1.0,
    g_odd=0.0,
)


def molecule_from_dict(doc: dict) -> MoleculeSpec:
    try:
        return MoleculeSpec(
            name=doc["name"],
            b_cm1=float(doc["B_cm1"]),
            delta_alpha_a3=float(doc["delta_alpha_A3"]),
            alpha_bar_a3=None if doc.get("alpha_bar_A3") is None else float(doc["alpha_bar_A3"]),
            g_even=float(doc.get("g_even", 1.0)),
            g_odd=float(doc.get("g_odd", 1.0)),
        )
    except KeyError as exc:
        raise ValueError(f"molecule document missing field {exc}") from exc


def load_molecule(path: str) -> MoleculeSpec:
    """Load a molecule definition from a JSON document."""
    with open(path, encoding="utf-8") as fh:
        return molecule_from_dict(json.load(fh))


MOLECULE_PATH_ENV = "ROTORGRATING_MOLECULE_PATH"


def find_molecule(name: str) -> MoleculeSpec:
    """Resolve a molecule by name: library directory first, then built-ins."""
    library = os.environ.get(MOLECULE_PATH_ENV)
    if library:
        candidate = os.path.join(library, f"{name.lower()}.json")
        if os.path.exists(candidate):
            return load_molecule(candidate)
    here = os.path.join(os.path.dirname(__file__), "data", f"{name.lower()}.json")
    if os.path.exists(here):
        return load_molecule(here)
    raise ValueError(f"unknown molecule {name!r} (searched ${MOLECULE_PATH_ENV} and built-ins)")


def rotational_omega(j, molecule: MoleculeSpec):
    """Level energy as angular frequency in rad/ps; accepts arrays of J."""
    j = np.asarray(j)
    return TWO_PI_C * molecule.b_cm1 * j * (j + 1.0)


def raman_frequency(j, molecule: MoleculeSpec):
    """Beat frequency of the J <-> J+2 coherence, 2 pi c B (4J+6), in rad/ps; accepts arrays."""
    if np.any(np.asarray(j) < 0):
        raise ValueError(f"J must be nonnegative, got {j}")
    return TWO_PI_C * molecule.b_cm1 * (4 * np.asarray(j) + 6)


@dataclass(frozen=True)
class BasisSpec:
    """Truncated fixed-M rotational ladder: J = |m|, |m|+1, ..., j_max."""

    j_max: int
    m: int = 0

    def __post_init__(self):
        if self.j_max < 2:
            raise ValueError(f"j_max must be at least 2, got {self.j_max}")
        if abs(self.m) > self.j_max:
            raise ValueError(f"|M|={abs(self.m)} exceeds j_max={self.j_max}")

    @property
    def j_values(self) -> np.ndarray:
        return np.arange(abs(self.m), self.j_max + 1)


def suggest_j_max(j_thermal: int, xi: float) -> int:
    """Basis truncation: thermal top plus kick headroom.

    A kick of strength xi spreads population over O(xi) rotational quanta, so
    j_max = J_thermal + ceil(4 xi) + 10.  Convergence is enforced post hoc by
    the norm-leak guard in the propagators.
    """
    return int(j_thermal) + math.ceil(4.0 * xi) + 10


MAX_THERMAL_CHANNELS = 100_000  # CO2 needs 1,849 at 293 K


@dataclass(frozen=True)
class ThermalEnsemble:
    """Boltzmann-populated initial channels (J0, M0, weight), weights summing to 1."""

    temperature: float
    channels: tuple[tuple[int, int, float], ...]

    @property
    def j_thermal_max(self) -> int:
        return max(j for j, _, _ in self.channels)


def boltzmann_ensemble(
    molecule: MoleculeSpec,
    temperature: float,
    cutoff: float = 1e-6,
    fold_m: bool = True,
) -> ThermalEnsemble:
    """Thermal channel list for a linear rotor with spin statistics.

    Level weights are g_J (2J+1) exp(-B J(J+1) hc / kT), split equally over
    the 2J+1 M0 sublevels; J levels are included until the omitted Boltzmann
    tail is below `cutoff`, then weights are renormalized to 1.

    With fold_m (default) the -M0 channels, whose dynamics mirror +M0 exactly,
    are merged into the +M0 channel with doubled weight.
    """
    if temperature < 0:
        raise ValueError(f"temperature must be nonnegative, got {temperature}")
    if not (0 < cutoff < 1):
        raise ValueError(f"cutoff must be in (0, 1), got {cutoff}")

    if temperature == 0:
        j0 = 0 if molecule.g_even > 0 else 1
        return ThermalEnsemble(0.0, tuple(_split_level(j0, 1.0, fold_m)))

    kt = thermal_wavenumber(temperature)
    # kT/B ~ J_thermal^2 bounds the channel count from below; checked before
    # the level array is sized from it
    if kt / molecule.b_cm1 > MAX_THERMAL_CHANNELS:
        raise ValueError(f"temperature {temperature} K exceeds the budget of "
                         f"{MAX_THERMAL_CHANNELS} thermal channels")
    # Gaussian tail bound: beyond j_big the summed weight is a negligible
    # fraction of the partition function for any cutoff of interest.
    j_big = int(math.sqrt(kt / molecule.b_cm1) * 8) + 20
    js = np.arange(j_big + 1)
    gj = np.where(js % 2 == 0, molecule.g_even, molecule.g_odd)
    # near 0 K, E/kT overflows to inf; its weight exp(-inf) = 0 is exact
    with np.errstate(over="ignore"):
        w = gj * (2 * js + 1) * np.exp(-molecule.b_cm1 * js * (js + 1.0) / kt)
    total = w.sum()
    if total == 0.0:
        # kT far below the lowest allowed level: same limit as T = 0
        j0 = 0 if molecule.g_even > 0 else 1
        return ThermalEnsemble(temperature, tuple(_split_level(j0, 1.0, fold_m)))
    tail = total - np.cumsum(w)
    keep_mask = np.empty_like(w, dtype=bool)
    keep_mask[:] = False
    n_keep = int(np.searchsorted(tail[::-1], cutoff * total, side="left"))
    keep = len(js) - max(n_keep, 1) + 1
    keep_mask[:keep] = True
    keep_mask &= w > 0

    kept_js = js[keep_mask]
    count = int(np.sum(kept_js + 1 if fold_m else 2 * kept_js + 1))
    if count > MAX_THERMAL_CHANNELS:
        raise ValueError(f"temperature {temperature} K needs {count} thermal channels, "
                         f"above the budget of {MAX_THERMAL_CHANNELS}")
    kept = w[keep_mask].sum()
    channels: list[tuple[int, int, float]] = []
    for j, wj in zip(js[keep_mask], w[keep_mask]):
        channels.extend(_split_level(int(j), wj / kept, fold_m))
    return ThermalEnsemble(temperature, tuple(channels))


def _split_level(j: int, level_weight: float, fold_m: bool):
    per_m = level_weight / (2 * j + 1)
    if not fold_m:
        return [(j, m, per_m) for m in range(-j, j + 1)]
    out = [(j, 0, per_m)]
    out.extend((j, m, 2.0 * per_m) for m in range(1, j + 1))
    return out


# ---------------------------------------------------------------------------
# Angular matrix elements
# ---------------------------------------------------------------------------

def cos2theta_diagonal(j, m):
    """<J,M| cos^2(theta) |J,M> = 1/3 + (2/3) (J(J+1) - 3M^2) / ((2J-1)(2J+3))."""
    j = np.asarray(j, dtype=float)
    m = np.asarray(m, dtype=float)
    return 1.0 / 3.0 + (2.0 / 3.0) * (j * (j + 1) - 3 * m * m) / ((2 * j - 1) * (2 * j + 3))


def cos2theta_offdiag(j, m):
    """<J+2,M| cos^2(theta) |J,M>, the Raman coupling element at fixed M."""
    j = np.asarray(j, dtype=float)
    m = np.asarray(m, dtype=float)
    num = ((j + 1) ** 2 - m * m) * ((j + 2) ** 2 - m * m)
    return np.sqrt(num / ((2 * j + 1) * (2 * j + 5))) / (2 * j + 3)


def cos2theta_matrix(basis: BasisSpec) -> np.ndarray:
    """Dense symmetric cos^2(theta) matrix on the fixed-M ladder of `basis`.

    Rows/columns follow basis.j_values; only J' = J and J' = J +- 2 are
    nonzero.
    """
    js = basis.j_values
    n = len(js)
    mat = np.zeros((n, n))
    mat[np.arange(n), np.arange(n)] = cos2theta_diagonal(js, basis.m)
    if n > 2:
        off = cos2theta_offdiag(js[:-2], basis.m)
        idx = np.arange(n - 2)
        mat[idx, idx + 2] = off
        mat[idx + 2, idx] = off
    return mat


@lru_cache(maxsize=None)
def _wigner_3j(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> float:
    """Wigner 3-j symbol for integer arguments, exact up to the final sqrt."""
    if m1 + m2 + m3 != 0:
        return 0.0
    if not (abs(j1 - j2) <= j3 <= j1 + j2):
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0
    f = math.factorial
    delta = Fraction(
        f(j1 + j2 - j3) * f(j1 - j2 + j3) * f(-j1 + j2 + j3), f(j1 + j2 + j3 + 1)
    )
    norm = delta * (
        f(j1 + m1) * f(j1 - m1) * f(j2 + m2) * f(j2 - m2) * f(j3 + m3) * f(j3 - m3)
    )
    k_min = max(0, j2 - j3 - m1, j1 - j3 + m2)
    k_max = min(j1 + j2 - j3, j1 - m1, j2 + m2)
    total = Fraction(0)
    for k in range(k_min, k_max + 1):
        denom = (
            f(k)
            * f(j1 + j2 - j3 - k)
            * f(j1 - m1 - k)
            * f(j2 + m2 - k)
            * f(j3 - j2 + m1 + k)
            * f(j3 - j1 - m2 + k)
        )
        total += Fraction((-1) ** k, denom)
    if total == 0:
        return 0.0
    sign = (-1) ** (j1 - j2 - m3) * (1 if total > 0 else -1)
    return sign * math.sqrt(float(norm * total * total))


def _y2_element(jp: int, mp: int, j: int, m: int, mu: int) -> float:
    """Gaunt integral <J',M'| Y_2^mu |J,M>."""
    pref = (-1) ** mp * math.sqrt(5.0 * (2 * j + 1) * (2 * jp + 1) / (4.0 * math.pi))
    return pref * _wigner_3j(jp, 2, j, 0, 0, 0) * _wigner_3j(jp, 2, j, -mp, mu, m)


# cos^2 of the lab-frame direction angles, as rank-0/rank-2 combinations:
#   cos^2(theta_z) = 1/3 + (4/3) sqrt(pi/5) Y_2^0
#   cos^2(theta_x/y) = (1 - cos^2 theta_z)/2 +- sqrt(2 pi/15) (Y_2^2 + Y_2^-2)
_Y20_COEF = (4.0 / 3.0) * math.sqrt(math.pi / 5.0)
_Y22_COEF = math.sqrt(2.0 * math.pi / 15.0)


def cos2theta_axis_element(jp: int, mp: int, j: int, m: int, axis: str) -> float:
    """<J',M'| cos^2(theta_axis) |J,M> with quantization along lab z."""
    val = 0.0
    if mp == m:
        czz = (1.0 / 3.0 if jp == j else 0.0) + _Y20_COEF * _y2_element(jp, m, j, m, 0)
        if axis == "z":
            return czz
        val += 0.5 * ((1.0 if (jp == j and mp == m) else 0.0) - czz)
    elif axis == "z":
        return 0.0
    if mp == m + 2:
        term = _Y22_COEF * _y2_element(jp, mp, j, m, 2)
        val += term if axis == "x" else -term
    elif mp == m - 2:
        term = _Y22_COEF * _y2_element(jp, mp, j, m, -2)
        val += term if axis == "x" else -term
    return val


class JMBasis:
    """Full (J,M) basis up to j_max, optionally restricted to fixed parities.

    Delta-J = 0,+-2 and Delta-M = 0,+-2 couplings conserve both parities, so a
    channel started at (J0, M0) only ever explores the matching sublattice.
    """

    def __init__(self, j_max: int, j_parity: int | None = None, m_parity: int | None = None):
        if j_max < 2:
            raise ValueError(f"j_max must be at least 2, got {j_max}")
        self.j_max = j_max
        self.j_parity = j_parity
        self.m_parity = m_parity
        pairs = []
        for j in range(j_max + 1):
            if j_parity is not None and j % 2 != j_parity:
                continue
            for m in range(-j, j + 1):
                if m_parity is not None and abs(m) % 2 != m_parity:
                    continue
                pairs.append((j, m))
        self.pairs = pairs
        self.index = {p: i for i, p in enumerate(pairs)}
        self.j_of = np.array([p[0] for p in pairs])
        self.m_of = np.array([p[1] for p in pairs])

    def __len__(self) -> int:
        return len(self.pairs)


def cos2theta_axis_matrix(basis: JMBasis, axis: str) -> scipy.sparse.csr_matrix:
    """Sparse symmetric cos^2(theta_axis) matrix on a (J,M) basis, axis in xyz."""
    if axis not in ("x", "y", "z"):
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    rows, cols, vals = [], [], []
    for i, (j, m) in enumerate(basis.pairs):
        for dj in (0, 2):
            for dm in (0, 2, -2):
                jp, mp = j + dj, m + dm
                if dj == 0 and dm < 0:
                    continue  # lower triangle handled by symmetry
                if dj == 0 and dm == 0:
                    vals.append(cos2theta_axis_element(j, m, j, m, axis))
                    rows.append(i)
                    cols.append(i)
                    continue
                k = basis.index.get((jp, mp))
                if k is None:
                    continue
                v = cos2theta_axis_element(jp, mp, j, m, axis)
                if v != 0.0:
                    rows.extend((i, k))
                    cols.extend((k, i))
                    vals.extend((v, v))
    n = len(basis)
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
