"""rotorgrating benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload simulate-tdse|fit-series|validate \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Load is a closed loop: one caller, one
repetition at a time, each in a fresh interpreter (perfbench/worker.py), so
every repetition starts with cold process caches as a CLI invocation does.
No threads are started beyond those of the BLAS library.

--trace 0 reports the end-to-end metrics, each the median over the
repetitions: setup_s (interpreter start to `import rotorgrating` and CO2
resolved), run_s (wall time of the timed region) and peak_rss_mb (peak
resident memory of the repetition's process).  Repetitions continue until
--seconds have passed and at least MIN_REPS of them are done.

--trace 1 alternates untraced and traced repetitions of the same inputs and
reports the per-layer metrics of BENCHMARK.json: medians over the traced
repetitions of the span-derived metrics (perfbench/layers.py), the tracing
overhead against the untraced repetitions, CPU time, the line count of src/
and the failed-operation fraction.  The traced outputs must be bitwise equal
to the untraced ones.

Every output is checked (perfbench/workloads.py); an operation is one
simulate, one fit or one validate check row.  The last stdout line is the
JSON result; earlier lines give the machine, the samples and any failures.
The full record, with the spans of the last traced repetition, is written
under perfbench/_results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import median  # noqa: E402

WORKLOADS = ("simulate-tdse", "fit-series", "validate")
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
# Single repetitions vary by about 10% on a shared 2-core machine and the
# first one of a run is often the slowest, so each median needs at least
# three whatever --seconds says.  A simulate-tdse repetition takes about 15 s,
# a fit-series one 9 s and a validate one 4 s.
MIN_REPS = {"simulate-tdse": 3, "fit-series": 3, "validate": 5}
RUN_DEADLINE_S = 170.0  # a run must end within 180 s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rotorgrating" / "__init__.py").is_file():
        print(f"error: no rotorgrating sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        record = measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if record is None:
        return 1

    results_dir = HERE / "_results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans_jsonl", None)
    if spans is not None:
        (results_dir / f"{stem}.spans.jsonl").write_text(spans)
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print("machine: " + json.dumps(record["machine"], sort_keys=True))
    for label in ("untraced", "traced"):
        if record["samples"][label]:
            print(f"{label} run_s samples: {[round(r['run_s'], 4) for r in record['samples'][label]]}")
    for fail in record["failures"]:
        print(f"FAILED {fail}")
    summary = {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


def spawn(args, tmp: Path, tag: str, deadline: float, trace: int) -> dict | None:
    """Run one worker process to completion; its result dict, or None if it failed."""
    workdir = tmp / tag
    workdir.mkdir()
    result = workdir / "result.json"
    spans = workdir / "spans.jsonl"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace), "--workdir", str(workdir),
           "--result", str(result), "--spans", str(spans)]
    log = workdir / "log.txt"
    with open(log, "w") as fh:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], stdout=fh,
                                  stderr=subprocess.STDOUT, cwd=ROOT,
                                  timeout=max(deadline - spawned, 1.0))
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    if code != 0 or not result.is_file():
        tail = log.read_text(errors="replace").splitlines()[-15:]
        print(f"worker {tag} failed ({code}):\n  " + "\n  ".join(tail), file=sys.stderr)
        return None
    doc = json.loads(result.read_text())
    if spans.is_file():
        doc["spans_jsonl"] = spans.read_text()
    return doc


def measure(args, tmp: Path) -> dict | None:
    deadline = time.monotonic() + RUN_DEADLINE_S
    untraced, traced, crashed = [], [], 0
    start = time.monotonic()
    k = 0
    min_reps = 1 if args.trace else MIN_REPS[args.workload]
    while (k < min_reps or time.monotonic() - start < args.seconds) and time.monotonic() < deadline:
        for trace, done in ((0, untraced), (1, traced))[: 1 + args.trace]:
            rep = spawn(args, tmp, f"rep{k}-trace{trace}", deadline, trace)
            if rep is None:
                crashed += 1
            else:
                done.append(rep)
        k += 1
    reps = untraced + traced
    if not untraced or (args.trace and not traced):
        return None

    failures = [f"{c['op']}: {c['detail']}" for r in reps for c in r["checks"] if not c["ok"]]
    attempted = sum(len(r["checks"]) for r in reps) + crashed
    failed = sum(not c["ok"] for r in reps for c in r["checks"]) + crashed
    digests = {r["digest"] for r in reps}
    if len(digests) > 1:
        failures.append(f"outputs differ between repetitions{' (traced vs untraced)' if traced else ''}")
    correct = not failures and not crashed

    if args.trace:
        metrics, units = per_layer(untraced, traced, failed / attempted), layer_units()
    else:
        metrics, units = end_to_end(untraced), END_TO_END
    sample = ("setup_s", "run_s", "peak_rss_mb", "cpu_s")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "failures": failures,
        "machine": machine_info(args.seed),
        "samples": {
            "untraced": [{k: r[k] for k in sample} for r in untraced],
            "traced": [{k: r[k] for k in sample} for r in traced],
        },
        "spans_jsonl": traced[-1].get("spans_jsonl") if traced else None,
    }


def end_to_end(untraced) -> dict[str, float]:
    return {name: median([r[name] for r in untraced]) for name in END_TO_END}


def per_layer(untraced, traced, failed_frac: float) -> dict[str, float]:
    metrics = {name: median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
    run_untraced = median([r["run_s"] for r in untraced])
    metrics["trace.overhead_frac"] = median([r["run_s"] for r in traced]) / run_untraced - 1.0
    metrics["process.cpu_s"] = median([r["cpu_s"] for r in untraced])
    metrics["src_loc"] = src_loc()
    metrics["ops_failed_frac"] = failed_frac
    return metrics


def layer_units() -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer"]}


def _sources() -> list[Path]:
    return sorted((ROOT / "src").rglob("*.py"))


def src_loc() -> int:
    return sum(len(p.read_text().splitlines()) for p in _sources())


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = {"name": None, "threads": None}
    try:
        info["name"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def machine_info(seed: int) -> dict:
    import numpy
    import scipy

    cpu = None
    if os.path.isfile("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "commit": _git_commit(),
        "src_sha256": hashlib.sha256(b"".join(p.read_bytes() for p in _sources())).hexdigest(),
        "seed": seed,
    }


if __name__ == "__main__":
    sys.exit(main())
