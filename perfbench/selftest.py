"""Exact-repeat self-test of the per-layer counts.

    python3 perfbench/selftest.py --seed 7 --seconds 10

Runs every workload twice with ``--trace 1`` on one seed and checks that
the exact metrics (``run.EXACT``) are identical between the two runs;
timings are listed but not compared.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import EXACT  # noqa: E402


def trace(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args(argv)
    bad = 0
    for w in ("decide", "semantics", "proofs", "cli"):
        a, b = trace(w, args.seed, args.seconds), trace(w, args.seed, args.seconds)
        for name in a:
            va, vb = a[name]["value"], b[name]["value"]
            kind = "exact" if name in EXACT else "timing"
            same = va == vb
            if kind == "exact" and not same:
                bad += 1
            print(f"{w:10s} {name:26s} {kind:6s} {va!r:>24} {vb!r:>24}"
                  f"{'' if same or kind == 'timing' else '  DIFFERS'}")
    print("exact metrics repeat" if not bad else f"{bad} exact metrics differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
