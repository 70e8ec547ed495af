"""Property tests of the kicked thermal ensemble over temperature and kick strength."""

import numpy as np
from hypothesis import given, settings, strategies as st

from rotorgrating.dynamics import kick_ensemble
from rotorgrating.observables import alignment_trace, fourier_decompose, reconstruct, revival_time_grid
from rotorgrating.rotor import CO2, boltzmann_ensemble


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(temperature=st.floats(5.0, 400.0), xi=st.floats(0.0, 40.0))
def test_kicked_ensemble_norm_and_series_exactness(temperature, xi):
    cs = kick_ensemble(CO2, boltzmann_ensemble(CO2, temperature), xi)
    assert cs.norm_deviation() < 1e-9
    times = revival_time_grid(CO2, 257, t_start=0.3, periods=1.5)
    series = reconstruct(fourier_decompose(cs, "y"), times).values
    direct = alignment_trace(cs, "y", times).values
    assert np.max(np.abs(series - direct)) <= 1e-10
