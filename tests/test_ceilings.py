"""Ceilings on the basis each benchmark workload reaches, read from
basis_ceilings.json beside this file.

The sizes come from the sizing rules the drivers call and one build of the
fit's kick-strength surface, not from timed runs.  A change that lowers a
size lowers its ceiling in the same change; a ceiling is never raised to
get a pass."""

import json
from pathlib import Path

from rotorgrating import dynamics
from rotorgrating.field import PulseSpec, effective_area, elliptic_pulse, xi_per_intensity
from rotorgrating.retrieval import FitProblem, kick_surface
from rotorgrating.rotor import CO2, boltzmann_ensemble, suggest_j_max

CEILINGS = json.loads(Path(__file__).with_name("basis_ceilings.json").read_text())


def test_every_workload_stays_within_its_basis_ceilings():
    hot = boltzmann_ensemble(CO2, 293.0)
    per_i = xi_per_intensity(CO2)
    reached = {
        # simulate at 293 K, 30 TW/cm^2, 0.1 ps: the unsized chain TDSE
        "simulate-tdse": {"chain_tdse_j_max": suggest_j_max(hot.j_thermal_max,
                                                            effective_area(PulseSpec(30.0), CO2))},
        # the fit's box, 5-30 TW/cm^2 and 20-150 K: its surface's one basis
        "fit-series": {"surface_j_max": kick_surface(FitProblem(
            CO2, "perpendicular", bounds={"intensity": (5.0, 30.0), "temperature": (20.0, 150.0)},
            cache_quantum=1e-3)).j_max},
        # validate's elliptic suite at 30 K and xi 0.5, and its regime scan
        # at 293 K up to 80 TW/cm^2
        "validate": {"lattice_j_max": dynamics.tail_j_max(boltzmann_ensemble(CO2, 30.0), effective_area(
                         elliptic_pulse(0.5 / per_i, 1.0, 0.0), CO2), dynamics.LATTICE_START_TOL),
                     "scan_j_max": dynamics.tail_j_max(hot, per_i * 80.0)},
    }
    assert reached.keys() == CEILINGS.keys()
    for workload, sizes in reached.items():
        assert sizes.keys() == CEILINGS[workload].keys()
        for name, size in sizes.items():
            assert size <= CEILINGS[workload][name], f"{workload} {name}: {size} above its ceiling"
