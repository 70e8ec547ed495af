"""Record the simulate-tdse reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Runs the simulate-tdse workload once and stores every STRIDE-th sample of
the alignment trace and the signal, with the chosen j_max, in
perfbench/reference/simulate_tdse.json.  Re-record only in a change whose
purpose is to change those outputs, and say so in its description.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

STRIDE = 8


def main() -> int:
    import rotorgrating.cli  # noqa: F401
    import rotorgrating as rg
    from workloads import REFERENCE, WORKLOADS, csv_values

    workload = WORKLOADS["simulate-tdse"]
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        outputs = workload.run(rg, workload.prepare(rg, 0, tmp), str(Path(tmp) / "out"))
        if outputs["rc"] != 0:
            print(f"simulate failed with exit code {outputs['rc']}", file=sys.stderr)
            return 1
        align = csv_values(outputs["paths"][0])
        signal = csv_values(outputs["paths"][1])
        meta = json.loads(Path(outputs["paths"][2]).read_text())
    doc = {
        "config": workload.config,
        "j_max": meta["j_max"],
        "stride": STRIDE,
        "alignment": align[::STRIDE].tolist(),
        "signal": signal[::STRIDE].tolist(),
    }
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(doc) + "\n")
    print(f"wrote {REFERENCE.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
