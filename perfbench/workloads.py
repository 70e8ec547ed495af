"""The three benchmark workloads: inputs, the timed operations, output checks.

Each workload is a class with
  prepare(rg, seed, workdir) -> inputs        untimed; the only use of the seed
  run(rg, inputs, out)       -> outputs       the timed region
  check(rg, outputs)         -> [(op, ok, detail)]  one row per operation
  digest(outputs)            -> str           for bitwise comparisons

`rg` is the imported rotorgrating package.  Why each workload exists:

  simulate-tdse  the ROADMAP headline case: `rotorgrating simulate` at 293 K
                 with finite-pulse (TDSE) propagation of the stacked chain
                 system; never touches the fit objective or its cache.
  fit-series     criterion-10 retrieval: one noiseless and four noisy scans
                 fitted on one shared EnsembleCache; exercises the sudden
                 kick, decomposition and reconstruction hundreds of times,
                 the cache both cold (first fit) and warm (later fits), and
                 never calls the TDSE solver.
  validate       `rotorgrating validate` with all five suites: the only
                 workload running the elliptic (J,M)-lattice TDSE, the
                 Wigner-3j operator build, the direct trace and the regime
                 scan; it shares the integrator with simulate-tdse on a
                 differently shaped system.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "simulate_tdse.json"


def _sha256_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def csv_values(path) -> np.ndarray:
    """Second column of a '#'-commented two-column CSV with one header row."""
    rows = [line for line in Path(path).read_text().splitlines() if line and not line.startswith("#")]
    return np.array([float(line.split(",")[1]) for line in rows[1:]])


class SimulateTDSE:
    name = "simulate-tdse"
    files = ("alignment_trace.csv", "signal.csv", "metadata.json")
    config = {
        "molecule": "CO2",
        "temperature_K": 293.0,
        "scheme": "perpendicular",
        "theoretical_intensity_tw_cm2": 30.0,
        "tau_fwhm_ps": 0.1,
        "probe_tau_fwhm_ps": 0.1,
        "method": "tdse",
        "time_grid": {"n": 4096, "t_start_ps": 0.5, "periods": 1.0},
    }
    # agreement with the outputs recorded at the benchmark's first commit:
    # max |value - reference| <= REL_TOL * max |reference| over the stored
    # samples, for the alignment trace and the signal separately
    REL_TOL = 1e-6

    def prepare(self, rg, seed, workdir):
        path = Path(workdir) / "simulate.json"
        path.write_text(json.dumps(self.config))
        return str(path)

    def run(self, rg, config_path, out):
        rc = rg.cli.main(["simulate", "--config", config_path, "--out", out])
        return {"rc": rc, "paths": [os.path.join(out, f) for f in self.files]}

    def check(self, rg, outputs):
        problems = []
        if outputs["rc"] != 0:
            problems.append(f"exit code {outputs['rc']}")
        elif not all(os.path.isfile(p) for p in outputs["paths"]):
            problems.append("missing output file")
        else:
            align = csv_values(outputs["paths"][0])
            signal = csv_values(outputs["paths"][1])
            meta = json.loads(Path(outputs["paths"][2]).read_text())
            peak = float(align.max()) + 1.0 / 3.0
            if abs(peak - 0.45) > 0.02:
                problems.append(f"peak <cos^2> {peak:.4f} outside 0.45 +- 0.02")
            if not (np.all(np.isfinite(signal)) and signal.min() >= 0.0):
                problems.append("signal not finite and non-negative")
            problems += self._against_reference(align, signal, meta)
        return [("simulate", not problems, "; ".join(problems))]

    def _against_reference(self, align, signal, meta):
        ref = json.loads(REFERENCE.read_text())
        problems = []
        if meta["j_max"] != ref["j_max"]:
            problems.append(f"j_max {meta['j_max']} != reference {ref['j_max']}")
        stride = ref["stride"]
        for label, values in (("alignment", align), ("signal", signal)):
            want = np.array(ref[label])
            got = values[::stride]
            if got.shape != want.shape:
                problems.append(f"{label}: {got.size} samples, reference has {want.size}")
                continue
            dev = float(np.max(np.abs(got - want)))
            if dev > self.REL_TOL * float(np.max(np.abs(want))):
                problems.append(f"{label} differs from reference by {dev:.3e}")
        return problems

    def digest(self, outputs):
        return _sha256_files(outputs["paths"]) if outputs["rc"] == 0 else "failed"

    def bytes_written(self, outputs):
        return sum(os.path.getsize(p) for p in outputs["paths"] if os.path.isfile(p))


class FitSeries:
    name = "fit-series"
    truth = {"intensity": 18.0, "temperature": 60.0, "scale": 2.5}
    n_noisy = 4

    def prepare(self, rg, seed, workdir):
        problem = rg.FitProblem(
            molecule=rg.CO2,
            scheme="perpendicular",
            bounds={"intensity": (5.0, 30.0), "temperature": (20.0, 150.0)},
            cache_quantum=1e-3,
        )
        delays = np.arange(0.5, 0.5 + rg.revival_period(rg.CO2.b_cm1), 0.02)
        scratch = rg.EnsembleCache(problem)
        traces = [rg.synthesize_trace(problem, self.truth, delays, cache=scratch)]
        for noise_seed in np.random.SeedSequence(seed).generate_state(self.n_noisy):
            traces.append(rg.synthesize_trace(problem, self.truth, delays, noise_fraction=0.05,
                                              seed=int(noise_seed), cache=scratch))
        # a CLI fit starts with cold process caches; synthesis warmed them
        rg.dynamics.clear_caches()
        rg.rotor._wigner_3j.cache_clear()
        return problem, traces

    def run(self, rg, inputs, out):
        problem, traces = inputs
        cache = rg.EnsembleCache(problem)
        results = [rg.fit_trace(problem, traces[0], cache=cache)]
        for trace in traces[1:]:
            results.append(rg.fit_trace(problem, trace, max_evaluations=600, refine_starts=2,
                                        cache=cache))
        return results

    def check(self, rg, results):
        rows = []
        for k, res in enumerate(results):
            keys = ("intensity", "temperature", "scale") if k == 0 else ("intensity",)
            limit = 0.01 if k == 0 else 0.15
            errs = {key: abs(res.params[key] - self.truth[key]) / self.truth[key] for key in keys}
            problems = [] if res.converged else ["did not converge"]
            problems += [f"{key} error {e:.2%} > {limit:.0%}" for key, e in errs.items() if e > limit]
            rows.append((f"fit{k}", not problems, "; ".join(problems)))
        return rows

    def digest(self, results):
        doc = json.dumps([r.to_dict() for r in results], sort_keys=True, default=float)
        return hashlib.sha256(doc.encode()).hexdigest()

    def bytes_written(self, results):
        return 0


class Validate:
    name = "validate"

    def prepare(self, rg, seed, workdir):
        return None

    def run(self, rg, inputs, out):
        rc = rg.cli.main(["validate", "--out", out])
        return {"rc": rc, "path": os.path.join(out, "validation.json")}

    def check(self, rg, outputs):
        if not os.path.isfile(outputs["path"]):
            return [("validate", False, f"exit code {outputs['rc']}, no validation.json")]
        doc = json.loads(Path(outputs["path"]).read_text())
        return [(f"{c['suite']}/{c['name']}", bool(c["passed"]), "" if c["passed"] else str(c["measured"]))
                for c in doc["checks"]]

    def digest(self, outputs):
        return _sha256_files([outputs["path"]]) if os.path.isfile(outputs["path"]) else "failed"

    def bytes_written(self, outputs):
        return os.path.getsize(outputs["path"]) if os.path.isfile(outputs["path"]) else 0


WORKLOADS = {w.name: w for w in (SimulateTDSE(), FitSeries(), Validate())}
