"""Workload ``decide``: one random sequent per operation, decided with a
certificate.

Every operation parses the sequent text and runs ``sc.prove``.  A proof
must pass ``sc.verify_sc_proof``; a refutation must come with a
``matrix.countermodel`` that ``sequents.sequent_satisfied`` confirms
fails.  Operations of the ``tiny`` stratum also run ``signed.sf_prove``,
whose verdict must equal the certified ``sc`` verdict and whose
derivations must pass ``signed.verify_sf_derivation``.  Single-conclusion
operations of the ``tiny`` and ``small`` strata also run the cut-free G
search at depth 12; a found G proof must pass ``gcalc.verify_g_proof``
and prove a sequent that ``sc`` certified valid, while a miss is no error.
"""

from __future__ import annotations

import random

import textgen
from common import Unchecked, Workload, WrongAnswer, sequent_variables, tree_nodes

# (name, share of operations, max connectives per formula, variables,
#  run sf_prove, run the G search).  Operations interleave the strata in
# these proportions.  Sizes stop where the slowest of ~100,000 seeded
# operations stays well under the time limit: sc.prove needs over a
# second for about one sequent in 25,000 at 7 connectives and still for
# some at 5; at 4 the G search reaches 0.75 s, at 2 sf_prove does.
STRATA = (
    ("tiny", 2, 1, "pq", True, True),
    ("small", 3, 3, "pq", False, True),
    ("medium", 3, 4, "pq", False, False),
)
G_DEPTH = 12
CORPUS_OPS = 40000


def _sequent(rng, budget, names, single):
    left = [textgen.random_tree(rng, rng.randrange(budget + 1), names)
            for _ in range(rng.randrange(3))]
    n_right = 1 if single else rng.randrange(3)
    right = [textgen.random_tree(rng, rng.randrange(budget + 1), names)
             for _ in range(n_right)]
    return textgen.sequent_text(left, right)


def corpus(seed: int, n: int = CORPUS_OPS, rename=None):
    rng = random.Random(seed)
    cycle = [s for s in STRATA for _ in range(s[1])]
    ops = []
    for i in range(n):
        name, _, budget, names, _, with_g = cycle[i % len(cycle)]
        if rename:
            names = rename(names)
        single = with_g and (i // len(cycle)) % 2 == 0
        ops.append((name, _sequent(rng, budget, names, single)))
    return ops


class Decide(Workload):
    name = "decide"
    census_ops = 6000

    def __init__(self, root):
        from tml import gcalc, matrix, sc, sequents, signed
        self.gcalc, self.matrix, self.sc = gcalc, matrix, sc
        self.sequents, self.signed = sequents, signed
        self.flags = {s[0]: (s[4], s[5]) for s in STRATA}

    def setup(self, seed):
        return corpus(seed)

    def warmup_ops(self, seed):
        # disjoint variable names: nothing interned here is reused later
        return corpus(seed ^ 0x5EED, 64, rename=lambda names: "wxyz"[:len(names)])

    def run_op(self, op, tr):
        stratum, text = op
        sc, matrix, M4 = self.sc, self.matrix, self.matrix.M4
        with_sf, with_g = self.flags[stratum]
        if tr.on:
            tr.add("syntax.parse_chars", len(text))
        self.stage = "syntax"
        seq = tr.span("syntax", self.sequents.parse_sequent, text)

        self.stage = "sc"
        tr.add("sc.search_calls")
        proof = tr.span("sc", sc.prove, seq)
        valid = proof is not None
        if tr.on and valid:
            tr.add("sc.valid")
            tr.add("sc.proof_nodes", sc.proof_size(proof))
        self.stage = "check"
        if valid:
            try:
                tr.span("check", sc.verify_sc_proof, proof)
            except sc.ScCheckError as e:
                tr.add("check.rejects")
                raise Unchecked(f"sc proof rejected: {e}")
            if tr.on:
                tr.add("check.nodes", sc.proof_size(proof))
        else:
            self.stage = "matrix"
            cm = tr.span("matrix", matrix.countermodel, seq.left, seq.right, M4)
            if tr.on:
                tr.add("matrix.calls")
                tr.add("matrix.valuation_space", 4 ** len(sequent_variables(seq)))
            if cm is None:
                # countermodel searches every valuation: none refutes, so
                # the sequent is valid and sc.prove missed its proof
                raise WrongAnswer(f"sc refutes a valid sequent {text!r}")
            if tr.span("check", self.sequents.sequent_satisfied, cm, seq, M4):
                tr.add("check.rejects")
                raise Unchecked("countermodel satisfies the sequent")

        if with_sf:
            self.stage = "signed"
            goal = self.signed.embed_two_sided(seq.left, seq.right, M4).signed_set(M4)
            tr.add("signed.search_calls")
            d = tr.span("signed", self.signed.sf_prove, goal, M4)
            if (d is not None) != valid:
                raise WrongAnswer(f"sf4 and certified sc verdicts differ on {text!r}")
            if d is not None:
                self.stage = "check"
                try:
                    tr.span("check", self.signed.verify_sf_derivation, d, M4)
                except self.signed.SFCheckError as e:
                    tr.add("check.rejects")
                    raise Unchecked(f"sf4 derivation rejected: {e}")
                if tr.on:
                    n = tree_nodes(d)
                    tr.add("signed.derivation_nodes", n)
                    tr.add("check.nodes", n)

        if with_g and len(seq.right) == 1:
            self.stage = "gcalc"
            (phi,) = seq.right
            tr.add("gcalc.search_calls")
            g = tr.span("gcalc", self.gcalc.g_search_cutfree,
                        self.gcalc.GSequent(seq.left, phi), G_DEPTH)
            if g is not None:
                if not valid:
                    raise WrongAnswer(f"G proves a refuted sequent {text!r}")
                self.stage = "check"
                try:
                    tr.span("check", self.gcalc.verify_g_proof, g)
                except self.gcalc.GCheckError as e:
                    tr.add("check.rejects")
                    raise Unchecked(f"G proof rejected: {e}")
                if tr.on:
                    n = tree_nodes(g)
                    tr.add("gcalc.found")
                    tr.add("gcalc.proof_nodes", n)
                    tr.add("check.nodes", n)
