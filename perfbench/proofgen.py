"""Set-up of the ``proofs`` workload: proof JSON text for seeded
valid-by-construction sequents.

Runs as its own process, so that the interning pools of the measuring
process stay cold:

    python3 perfbench/proofgen.py SEED COUNT

prints one JSON list of ``[kind, proof_json_text]`` pairs.  ``kind`` is
``theorem`` for sequents ``=> psi`` (necessitated in the pipeline) and
``sequent`` otherwise (contraposed).  Every instance that is kept, or
that ``sc.prove`` fails to prove, is checked valid with the benchmark's
own evaluator.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

import textgen

NAMES = "pqr"
BUDGET = 4
# Pipeline cost grows faster than proof size (~0.6 ms at 2 nodes, ~25 ms
# at 10-12, 3.3 s for one of 60).  Proofs are kept in bands of node
# counts, (lowest, highest, operations per cycle of 20), and the corpus
# interleaves the bands in these shares; proofs outside every band are
# drawn again.  So every seed has the same size mix, and the p50 and p95
# fall in the middle of the second and the top band rather than on a
# steep tail whose height depends on the seed.
BANDS = ((1, 2, 7), (3, 3, 6), (4, 9, 5), (10, 12, 2))
# schemes over random formulas a and b: (kind, premises, conclusions)
SCHEMES = (
    ("theorem", [], [("|", "a", ("~", ("#", "a")))]),
    ("theorem", [], [("|", ("#", "a"), ("~", ("#", "a")))]),
    ("theorem", [], [("~", ("&", ("#", "a"), ("~", "a")))]),
    ("sequent", ["a"], [("|", "a", "b")]),
    ("sequent", [("&", "a", "b")], ["b"]),
    ("sequent", [("~", ("~", "a"))], ["a"]),
    ("sequent", ["a"], [("~", ("~", "a"))]),
    ("sequent", [("#", "a")], ["a"]),
    ("sequent", ["a", "b"], [("&", "a", "b")]),
    ("sequent", [("|", "a", "b")], [("|", "b", "a")]),
    ("sequent", [("~", ("|", "a", "b"))], [("&", ("~", "a"), ("~", "b"))]),
    ("sequent", [("#", ("&", "a", "b"))], [("#", "a")]),
)


def _fill(shape, env):
    if isinstance(shape, str):
        return env[shape]
    return (shape[0],) + tuple(_fill(c, env) for c in shape[1:])


def _valid(left, right):
    names = sorted(set().union(*map(textgen.variables, left + right)))
    for combo in itertools.product(textgen.VALUES, repeat=len(names)):
        v = dict(zip(names, combo))
        if all(textgen.designated(t, v) for t in left) and \
                not any(textgen.designated(t, v) for t in right):
            return False
    return True


def instance(rng, scheme):
    kind, left, right = scheme
    env = {x: textgen.random_tree(rng, rng.randrange(BUDGET + 1), NAMES) for x in "ab"}
    left = [_fill(t, env) for t in left]
    right = [_fill(t, env) for t in right]
    return kind, left, right


def main(argv):
    seed, count = int(argv[1]), int(argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from tml import sc
    from tml.sequents import parse_sequent
    rng = random.Random(seed)
    cycle = [b for b, (_, _, share) in enumerate(BANDS) for _ in range(share)]
    want = [cycle[i % len(cycle)] for i in range(count)]
    missing = [want.count(b) for b in range(len(BANDS))]
    found = [[] for _ in BANDS]
    draws = 0
    while any(missing):
        kind, left, right = instance(rng, SCHEMES[draws % len(SCHEMES)])
        text = textgen.sequent_text(left, right)
        draws += 1
        proof = sc.prove(parse_sequent(text))
        n = sc.proof_size(proof) if proof else 0
        band = next((b for b, (lo, hi, _) in enumerate(BANDS)
                     if lo <= n <= hi and missing[b]), None)
        if proof is None or band is not None:
            if not _valid(left, right):
                raise SystemExit(f"scheme instance is not valid: {text}")
            if proof is None:
                raise SystemExit(f"valid sequent not proved: {text}")
            missing[band] -= 1
            found[band].append([kind, json.dumps(sc.proof_to_json(proof))])
    bands = [iter(docs) for docs in found]
    json.dump([next(bands[b]) for b in want], sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
