"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload decide --seconds 25 --seeds 1 2 3 4 5

Runs the benchmark once per seed, one run at a time, and prints for each
metric the median and the distance between the first and third
quartiles as a share of the median (``statistics.quantiles(n=4)``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    rows = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, check=True)
        rows.append(json.loads(out.stdout.strip().splitlines()[-1]))
        print(json.dumps(rows[-1]), flush=True)
    for name in rows[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in rows]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
        rel = (q3 - q1) / med if med else 0.0
        print(f"{name:26s} median {med:14.6g}  iqr/median {rel:6.3f}  "
              f"min {min(values):.6g}  max {max(values):.6g}")
    print("attempted", [r["attempted"] for r in rows],
          "failed", [r["failed"] for r in rows],
          "correct", all(r["correct"] for r in rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
