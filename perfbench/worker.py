"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --spawned-at T --workdir DIR --result FILE [--spans FILE]

A fresh interpreter per repetition means cold process caches (the chain
eigendecomposition cache, the axis-operator cache and the Wigner-3j cache),
as every CLI invocation has.  --spawned-at is the parent's time.monotonic()
just before it started this process; CLOCK_MONOTONIC is system-wide, so
setup time covers interpreter start-up through `import rotorgrating` and
resolving CO2.  The result file holds timings, resource use, the per-op
check rows, an output digest and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import rotorgrating as rg
    import rotorgrating.cli  # noqa: F401  (the CLI entry imports it too)

    rg.find_molecule("CO2")
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s, **repetition(rg, args)}
    Path(args.result).write_text(json.dumps(result))
    return 0


def repetition(rg, args) -> dict:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    out = workdir / "out"
    inputs = workload.prepare(rg, args.seed, workdir)

    rec = None
    if args.trace:
        from layers import install
        from spans import Recorder

        rec = Recorder(run_id=f"{args.workload}/seed{args.seed}/{workdir.name}")
        install(rec, rg)
        top = rec.open("bench.run")
    t0 = time.perf_counter()
    outputs = workload.run(rg, inputs, str(out))
    run_s = time.perf_counter() - t0
    if rec is not None:
        rec.close(top)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    rows = workload.check(rg, outputs)
    doc = {
        "run_s": run_s,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "checks": [{"op": op, "ok": ok, "detail": detail} for op, ok, detail in rows],
        "digest": workload.digest(outputs),
    }
    if rec is not None:
        from layers import layer_metrics

        doc["layers"] = layer_metrics(rec.spans, workload.bytes_written(outputs))
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for span in rec.spans:
                    fh.write(json.dumps(span.to_dict()) + "\n")
    return doc


if __name__ == "__main__":
    sys.exit(main())
