"""Rotational alignment of linear molecules and transient-grating signals.

Simulates nonadiabatic alignment of thermal linear-rotor ensembles by short
laser pulses (sudden-kick and finite-pulse propagators), reduces traces to
their exact cosine-series form, models crossed-pump transient-grating signals
for parallel and perpendicular polarization schemes, and retrieves pulse
intensity and temperature from measured delay scans.
"""

from .constants import revival_period
from .dynamics import (
    BasisTooSmallError,
    ChannelBlock,
    ChannelSet,
    PropagationError,
    elliptic_tdse_ensemble,
    kick_ensemble,
    tdse_ensemble,
)
from .field import (
    PulseSpec,
    effective_area,
    elliptic_pulse,
    envelope_intensity,
    xi_per_intensity,
)
from .grating import (
    GratingConfig,
    GratingGeometry,
    SignalTrace,
    grating_geometry,
    grating_signal,
    probe_convolve,
    write_signal_csv,
)
from .observables import (
    AlignmentTrace,
    FourierDecomposition,
    alignment_trace,
    elliptic_approx,
    fourier_decompose,
    max_over_period,
    reconstruct,
    regime_scan,
    revival_time_grid,
    thermal_channel_set,
    write_trace_csv,
)
from .retrieval import (
    EnsembleCache,
    ExperimentalTrace,
    FitProblem,
    FitResult,
    fit_trace,
    load_trace,
    model_signal,
    reported_intensities,
    synthesize_trace,
    write_fit_csv,
)
from .rotor import (
    CO2,
    JMBasis,
    MoleculeSpec,
    ThermalEnsemble,
    boltzmann_ensemble,
    find_molecule,
    load_molecule,
    molecule_from_dict,
    raman_frequency,
    suggest_j_max,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "revival_period",
    "BasisTooSmallError", "ChannelBlock", "ChannelSet", "PropagationError",
    "elliptic_tdse_ensemble", "kick_ensemble", "tdse_ensemble",
    "PulseSpec", "effective_area", "elliptic_pulse",
    "envelope_intensity", "xi_per_intensity",
    "GratingConfig", "GratingGeometry", "SignalTrace", "grating_geometry", "grating_signal",
    "probe_convolve", "write_signal_csv",
    "AlignmentTrace", "FourierDecomposition", "alignment_trace",
    "elliptic_approx", "fourier_decompose", "max_over_period", "reconstruct",
    "regime_scan", "revival_time_grid", "thermal_channel_set",
    "write_trace_csv",
    "EnsembleCache", "ExperimentalTrace", "FitProblem", "FitResult",
    "fit_trace", "load_trace", "model_signal", "reported_intensities",
    "synthesize_trace", "write_fit_csv",
    "CO2", "JMBasis", "MoleculeSpec", "ThermalEnsemble", "boltzmann_ensemble",
    "find_molecule", "load_molecule", "molecule_from_dict", "raman_frequency",
    "suggest_j_max",
]
