"""Rigid-rotor basis, energies, thermal ensembles, and angular operator matrices.

States are labelled |J,M> with the quantization axis chosen per pipeline:
along the field polarization for linearly polarized drives (M is then
conserved and each channel lives on a fixed-M ladder), or along the lab z
(propagation) axis for elliptic drives, where cos^2 of the transverse lab
angles couples Delta-M = 0, +-2.

Matrix elements are closed forms evaluated in floating point: the fixed-M
cos^2 theta elements, and on the (J,M) lattice products of two sin(theta)
e^{i phi} ladder elements (Zare, Angular Momentum, Wiley 1988, ch. 3).  The
test suite checks every lattice entry against Gaunt integrals of the exact
Wigner 3-j symbol and a spherical-harmonic quadrature oracle.  A lattice
operator is the (rows, cols, values) triplets of its nonzero entries; the
module imports numpy alone.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .constants import TWO_PI_C, thermal_wavenumber


@dataclass(frozen=True)
class MoleculeSpec:
    """Linear-rotor parameters.

    B in cm^-1, the polarizability anisotropy as a volume in Angstrom^3,
    g_even/g_odd the nuclear-spin statistical weights of even/odd J levels.
    """

    name: str
    b_cm1: float
    delta_alpha_a3: float
    g_even: float = 1.0
    g_odd: float = 1.0

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        for name in ("b_cm1", "delta_alpha_a3", "g_even", "g_odd"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.b_cm1 <= 0:
            raise ValueError(f"rotational constant must be positive, got {self.b_cm1}")
        if self.delta_alpha_a3 <= 0:
            raise ValueError(
                f"polarizability anisotropy must be positive, got {self.delta_alpha_a3}"
            )
        if self.g_even < 0 or self.g_odd < 0 or (self.g_even == 0 and self.g_odd == 0):
            raise ValueError("spin weights must be nonnegative and not both zero")


def molecule_from_dict(doc: dict) -> MoleculeSpec:
    try:
        return MoleculeSpec(
            name=doc["name"],
            b_cm1=float(doc["B_cm1"]),
            delta_alpha_a3=float(doc["delta_alpha_A3"]),
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
_BUILT_INS = os.path.join(os.path.dirname(__file__), "data")

# Shipped default. delta_alpha is chosen so that a 0.1 ps FWHM pulse at
# 1 TW/cm^2 accumulates a kick strength of 0.444.
CO2 = load_molecule(os.path.join(_BUILT_INS, "co2.json"))


def find_molecule(name: str) -> MoleculeSpec:
    """Resolve a molecule by name: library directory first, then built-ins."""
    library = os.environ.get(MOLECULE_PATH_ENV)
    if library:
        candidate = os.path.join(library, f"{name.lower()}.json")
        if os.path.exists(candidate):
            return load_molecule(candidate)
    here = os.path.join(_BUILT_INS, f"{name.lower()}.json")
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


def suggest_j_max(j_thermal: int, xi: float) -> int:
    """Basis truncation: thermal top plus kick headroom.

    A kick of strength xi spreads population over O(xi) rotational quanta, so
    j_max = J_thermal + ceil(4 xi) + 10.  Convergence is enforced post hoc by
    the norm-leak guard in the propagators; a non-finite 4 xi raises ValueError.
    """
    if not math.isfinite(4.0 * xi):
        raise ValueError(f"kick strength xi = {xi:.3g} is too large to size a basis: 4 xi is not finite")
    return int(j_thermal) + math.ceil(4.0 * xi) + 10


MAX_THERMAL_CHANNELS = 100_000  # CO2 needs 1,849 at 293 K


def _within(lengths: np.ndarray) -> np.ndarray:
    """Position of each entry within its range, for ranges of `lengths` laid end to end."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - lengths, lengths)


@dataclass(frozen=True, init=False, eq=False)
class ThermalEnsemble:
    """Boltzmann-populated initial channels (J0, M0, weight), weights summing to 1.

    The channels are held as three read-only arrays in ensemble order;
    `channels` lists them as tuples.  The propagators of `dynamics` group
    them, and ensembles with equal channels share a chain layout there.
    """

    temperature: float
    j0: np.ndarray
    m0: np.ndarray
    weights: np.ndarray

    def __init__(self, temperature: float, channels):
        j0, m0, weights = zip(*channels)
        self._set(temperature, np.array(j0, dtype=int), np.array(m0, dtype=int), np.array(weights, dtype=float))

    def _set(self, temperature, j0, m0, weights):
        object.__setattr__(self, "temperature", temperature)
        for name, value in (("j0", j0), ("m0", m0), ("weights", weights)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @classmethod
    def of_levels(cls, temperature: float, js: np.ndarray, level_weights: np.ndarray) -> "ThermalEnsemble":
        """Each level J's weight split over M0 = 0..J, M0 > 0 doubled for the folded -M0."""
        counts = js + 1
        m0 = _within(counts)
        weights = np.repeat(level_weights / (2 * js + 1), counts)
        weights[m0 > 0] *= 2.0
        ens = cls.__new__(cls)
        ens._set(temperature, np.repeat(js, counts), m0, weights)
        return ens

    @cached_property
    def channels(self) -> tuple[tuple[int, int, float], ...]:
        return tuple(zip(self.j0.tolist(), self.m0.tolist(), self.weights.tolist()))

    @property
    def j_thermal_max(self) -> int:
        return int(self.j0.max())


def boltzmann_ensemble(
    molecule: MoleculeSpec,
    temperature: float,
    cutoff: float = 1e-6,
) -> ThermalEnsemble:
    """Thermal channel list for a linear rotor with spin statistics.

    Level weights are g_J (2J+1) exp(-B J(J+1) hc / kT), split equally over
    the 2J+1 M0 sublevels; J levels are included until the omitted Boltzmann
    tail is below `cutoff`, then weights are renormalized to 1.

    The -M0 channels, whose dynamics mirror +M0 exactly, are merged into the
    +M0 channel with doubled weight.
    """
    if not temperature >= 0:
        raise ValueError(f"temperature must be nonnegative, got {temperature}")
    if not (0 < cutoff < 1):
        raise ValueError(f"cutoff must be in (0, 1), got {cutoff}")

    total = 0.0
    if temperature > 0:
        kt = thermal_wavenumber(temperature)
        # kT/B ~ J_thermal^2 bounds the channel count from below; checked
        # before the level array is sized from it
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
        # 0 K, or kT far below the lowest allowed level: the ground level alone
        j0 = 0 if molecule.g_even > 0 else 1
        return ThermalEnsemble.of_levels(float(temperature), np.array([j0]), np.array([1.0]))
    tail = total - np.cumsum(w)
    keep_mask = np.empty_like(w, dtype=bool)
    keep_mask[:] = False
    n_keep = int(np.searchsorted(tail[::-1], cutoff * total, side="left"))
    keep = len(js) - max(n_keep, 1) + 1
    keep_mask[:keep] = True
    keep_mask &= w > 0

    kept_js = js[keep_mask]
    count = int(np.sum(kept_js + 1))
    if count > MAX_THERMAL_CHANNELS:
        raise ValueError(f"temperature {temperature} K needs {count} thermal channels, "
                         f"above the budget of {MAX_THERMAL_CHANNELS}")
    kept = w[keep_mask].sum()
    return ThermalEnsemble.of_levels(temperature, kept_js, w[keep_mask] / kept)


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


# no propagator evaluates the symbol: it is the exact reference of the lattice
# operators' tests, and the benchmark's fit workload clears its cache
WIGNER_CACHE_SIZE = 32_768


@lru_cache(maxsize=WIGNER_CACHE_SIZE)
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


AXES = ("x", "y", "z")


def check_axis(axis: str):
    """ValueError unless axis names a lab axis in AXES."""
    if axis not in AXES:
        raise ValueError(f"axis must be x, y, or z, got {axis!r}")


class JMBasis:
    """Full (J,M) basis up to j_max, optionally restricted to fixed parities.

    Delta-J = 0,+-2 and Delta-M = 0,+-2 couplings conserve both parities, so a
    channel started at (J0, M0) only ever explores the matching sublattice.
    Sites are numbered shell by shell, J ascending, M ascending within a
    shell; site i is |j_of[i], m_of[i]>.
    """

    def __init__(self, j_max: int, j_parity: int | None = None, m_parity: int | None = None):
        if j_max < 2:
            raise ValueError(f"j_max must be at least 2, got {j_max}")
        self.j_max = j_max
        self.j_parity = j_parity
        self.m_parity = m_parity
        js = np.arange(j_max + 1)
        j = np.repeat(js, 2 * js + 1)
        m = np.arange(len(j)) - j * j - j
        keep = np.ones(len(j), dtype=bool)
        if j_parity is not None:
            keep &= j % 2 == j_parity
        if m_parity is not None:
            keep &= np.abs(m) % 2 == m_parity
        self.j_of, self.m_of = j[keep], m[keep]
        self._sites = np.full((j_max + 1, 2 * j_max + 1), -1)
        self._sites[self.j_of, self.m_of + j_max] = np.arange(len(self.j_of))

    def __len__(self) -> int:
        return len(self.j_of)

    def site(self, j, m) -> np.ndarray:
        """Index of the site |J,M>, or -1 where the basis lacks it; accepts arrays."""
        j, m = np.asarray(j), np.asarray(m)
        inside = (0 <= j) & (j <= self.j_max) & (np.abs(m) <= j)
        return np.where(inside, self._sites[np.where(inside, j, 0), np.where(inside, m + self.j_max, 0)], -1)


def _sin_theta_raise(j, m, dj: int):
    """<J+dj, M+1| sin(theta) e^{i phi} |J,M> for dj = +-1, Condon-Shortley phases."""
    if dj == 1:
        return -np.sqrt((j + m + 1) * (j + m + 2) / ((2 * j + 1) * (2 * j + 3)))
    return np.sqrt((j - m) * (j - m - 1) / ((2 * j - 1) * (2 * j + 1)))


def cos2theta_axis_matrix(basis: JMBasis, axis: str) -> tuple:
    """Symmetric cos^2(theta_axis) matrix on a (J,M) basis, axis in xyz, as the
    (rows, cols, values) triplets of its nonzero entries, each entry once.

    With s = sin(theta) e^{i phi} and quantization along lab z,
    cos^2 theta_x,y = (1 - cos^2 theta_z)/2 +- (s^2 + s*^2)/4: the Delta-M = 0
    entries are the chains' closed forms, the Delta-M = +2 ones +-1/4 of
    <J',M+2|s^2|J,M>, summed over the intermediate J +- 1.  Each coupled pair
    is built once, from its site of lower M (at equal M, of lower J), and
    mirrored.  The triplets come in that order: the diagonal, the pairs, their
    mirrors; the x and y triplets share their rows and cols.
    """
    check_axis(axis)
    j, m = basis.j_of, basis.m_of
    sites = np.arange(len(basis))
    above = basis.site(j + 2, m)
    has = above >= 0
    diag, off = cos2theta_diagonal(j, m), cos2theta_offdiag(j[has], m[has])
    rows, cols, vals = [sites[has]], [above[has]], [off]
    if axis != "z":
        diag, vals[0] = 0.5 * (1.0 - diag), -0.5 * off
        for dj in (-2, 0, 2):
            target = basis.site(j + dj, m + 2)
            has = target >= 0
            jh, mh = j[has], m[has]
            s2 = sum(_sin_theta_raise(jh + d1, mh + 1, dj - d1) * _sin_theta_raise(jh, mh, d1)
                     for d1 in (-1, 1) if abs(dj - d1) == 1)
            rows.append(sites[has])
            cols.append(target[has])
            vals.append((0.25 if axis == "x" else -0.25) * s2)
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    return (np.concatenate((sites, rows, cols)), np.concatenate((sites, cols, rows)),
            np.concatenate((diag, vals, vals)))
