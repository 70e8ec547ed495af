"""The benchmark's tracer (perfbench/layers.py) on the shipped package.

The tracer wraps layer functions and reads names below the public API:
ChannelSet.channels and Channel, both scheme-named signal aliases,
dynamics.solve_ivp (bound by no statement: the module's __getattr__ imports
it on this first read), EnsembleCache._store and .misses, and
rotor._wigner_3j.cache_clear.  It loads the retrieval module itself, through
the package's lazy rg.retrieval.  It runs in a subprocess so that its
rebinding of the package's names does not leak into the other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import rotorgrating as rg
import rotorgrating.cli
from layers import install
from spans import Recorder

rec = Recorder("tier1")
install(rec, rg)
ens = rg.boltzmann_ensemble(rg.CO2, 10.0)
rg.fourier_decompose(rg.kick_ensemble(rg.CO2, ens, 2.0), "y")
rg.tdse_ensemble(rg.CO2, ens, rg.PulseSpec(5.0))
rg.elliptic_tdse_ensemble(rg.CO2, rg.boltzmann_ensemble(rg.CO2, 1.0), rg.elliptic_pulse(1.0, 0.5, 0.5),
                          j_max=12)
problem = rg.FitProblem(rg.CO2, "perpendicular", bounds={"intensity": (5.0, 30.0)},
                        fixed={"temperature": 20.0})
rg.EnsembleCache(problem).decomposition(10.0, 20.0)
counts = {}
for span in rec.spans:
    counts.setdefault(span.name, set()).update(span.counts)
print(json.dumps({"counts": {name: sorted(keys) for name, keys in counts.items()},
                  "wigner_cache_clear": callable(rg.rotor._wigner_3j.cache_clear)}))
"""


def test_perfbench_tracer_reads_the_shipped_package():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    counts = doc["counts"]
    for name in ("dynamics.kick", "dynamics.tdse"):
        assert {"system_dim", "norm_dev", "edge_leak", "j_max"} <= set(counts[name])
    assert {"miss", "entries"} <= set(counts["retrieval.cache.lookup"])
    assert "observables.decompose" in counts
    # the elliptic driver builds its operators by direct calls, which the tracer must see
    assert "rotor.axis_matrix" in counts
    assert doc["wigner_cache_clear"]
