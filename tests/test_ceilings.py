"""Ceilings on the basis each benchmark workload reaches, on the kicks of
its TDSEs, and on the lattice propagations validate runs, read from
basis_ceilings.json beside this file.

The sizes come from the sizing rules the drivers call and one build of the
fit's kick-strength surface, the kicks from the step rule at those sizes
(dynamics._kick_count), with no propagation, and the lattice count from one
run of validate's elliptic suite, not from timed runs.  A change that lowers a size or count lowers its
ceiling in the same change; a ceiling is never raised to get a pass."""

import json
from pathlib import Path

from rotorgrating import dynamics, validation
from rotorgrating.field import PulseSpec, effective_area, elliptic_pulse, xi_per_intensity
from rotorgrating.retrieval import FitProblem, kick_surface
from rotorgrating.rotor import CO2, boltzmann_ensemble, suggest_j_max

CEILINGS = json.loads(Path(__file__).with_name("basis_ceilings.json").read_text())


def test_every_workload_stays_within_its_basis_ceilings(monkeypatch):
    hot, jet = boltzmann_ensemble(CO2, 293.0), boltzmann_ensemble(CO2, 30.0)
    per_i = xi_per_intensity(CO2)
    lattices = []  # validate's elliptic suite: its pump along x takes the chains
    lattice = dynamics._lattice_propagation
    monkeypatch.setattr(dynamics, "_lattice_propagation", lambda *args: lattices.append(args) or lattice(*args))
    validation.suite_elliptic()
    kicks = dynamics._kick_count
    # simulate at 293 K, 30 TW/cm^2, 0.1 ps: the unsized chain TDSE
    simulate = PulseSpec(30.0)
    simulate_j_max = suggest_j_max(hot.j_thermal_max, effective_area(simulate, CO2))
    # validate at 30 K: sudden_vs_tdse's 11 TW/cm^2 TDSE and the elliptic
    # suite's pump along x on the chains, its (2/3, 1/3) pump of xi 0.5 on
    # the lattice
    tdse, along_x = PulseSpec(11.0), elliptic_pulse(0.5 / per_i, 1.0, 0.0)
    elliptic = elliptic_pulse(0.5 / per_i, 2 / 3, 1 / 3)
    tdse_j_max = suggest_j_max(jet.j_thermal_max, effective_area(tdse, CO2))
    chain_j_max = suggest_j_max(jet.j_thermal_max, effective_area(along_x, CO2))
    lattice_j_max = dynamics.tail_j_max(jet, effective_area(elliptic, CO2), dynamics.LATTICE_START_TOL)
    reached = {
        "simulate-tdse": {"chain_tdse_j_max": simulate_j_max,
                          "chain_tdse_kicks": kicks(simulate, CO2, simulate_j_max)},
        # the fit's box, 5-30 TW/cm^2 and 20-150 K: its surface's one basis
        "fit-series": {"surface_j_max": kick_surface(FitProblem(
            CO2, "perpendicular", bounds={"intensity": (5.0, 30.0), "temperature": (20.0, 150.0)},
            cache_quantum=1e-3)).j_max},
        # validate: the runs above, and its regime scan at 293 K up to 80 TW/cm^2
        "validate": {"lattice_j_max": lattice_j_max,
                     "lattice_kicks": kicks(elliptic, CO2, lattice_j_max),
                     "chain_tdse_j_max": chain_j_max,
                     "chain_tdse_kicks": max(kicks(tdse, CO2, tdse_j_max), kicks(along_x, CO2, chain_j_max)),
                     "elliptic_lattice_propagations": len(lattices),
                     "scan_j_max": dynamics.tail_j_max(hot, per_i * 80.0)},
    }
    assert reached.keys() == CEILINGS.keys()
    for workload, sizes in reached.items():
        assert sizes.keys() == CEILINGS[workload].keys()
        for name, size in sizes.items():
            assert size <= CEILINGS[workload][name], f"{workload} {name}: {size} above its ceiling"
