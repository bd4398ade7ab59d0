"""Workload ``proofs``: one proof file through the README pipeline per
operation.

``json.loads`` -> ``sc.proof_from_json`` -> ``sc.verify_sc_proof`` ->
``sc.necessitate`` (theorems) or ``sc.contrapose`` (other sequents) ->
``verify_sc_proof(allow_cut=True)`` -> ``nd.sc_to_nd`` -> ``nd.check_nd``
-> ``nd.nd_to_sc`` -> verify -> ``json.dumps``.  Each result must have
the sequent or conclusion the transformation promises and pass the
independent checker.  The proofs are made in set-up by ``proofgen.py``
in a separate process.
"""

from __future__ import annotations

import json
import subprocess
import sys

from common import Unchecked, Workload, WrongAnswer, tree_nodes

CORPUS_OPS = 7000


class Proofs(Workload):
    name = "proofs"
    census_ops = 400

    def __init__(self, root):
        from tml import nd, sc
        from tml.sequents import Sequent
        from tml.syntax import Box, Neg
        self.root, self.nd, self.sc = root, nd, sc
        self.Sequent, self.Box, self.Neg = Sequent, Box, Neg

    def setup(self, seed):
        out = subprocess.run(
            [sys.executable, str(self.root / "perfbench" / "proofgen.py"),
             str(seed), str(CORPUS_OPS)],
            check=True, capture_output=True, text=True, cwd=self.root)
        return [tuple(pair) for pair in json.loads(out.stdout)]

    def warmup_ops(self, seed):
        doc = {"rule": "axiom", "sequent": {"left": ["x"], "right": ["x"]},
               "principal": ["x"], "premises": []}
        return [("sequent", json.dumps(doc))]

    def trace_patches(self, tr):
        """``parse`` as called by ``sc.proof_from_json``, charged to syntax."""
        parse = self.sc.parse

        def counted(text):
            tr.add("syntax.parse_chars", len(text))
            return tr.span("syntax", parse, text)
        return [(self.sc, "parse", counted)]

    def run_op(self, op, tr):
        kind, text = op
        sc, nd, Sequent = self.sc, self.nd, self.Sequent
        self.stage = "json"
        doc = tr.span("json", json.loads, text)
        p = tr.span("json", sc.proof_from_json, doc)
        seq = p.sequent
        self._check(tr, p)

        self.stage = "transform"
        if kind == "theorem":
            (psi,) = seq.right
            q = tr.span("transform", sc.necessitate, p)
            want = Sequent.of([], [self.Box(psi)])
        else:
            q = tr.span("transform", sc.contrapose, p)
            want = Sequent.of([self.Neg(f) for f in seq.right],
                              [self.Neg(f) for f in seq.left])
        if q.sequent != want:
            raise WrongAnswer(f"{kind} transform proves {q.sequent}, not {want}")
        self._check(tr, q, allow_cut=True)

        self.stage = "transform"
        d = tr.span("transform", nd.sc_to_nd, p)
        self.stage = "check"
        res = tr.span("check", nd.check_nd, d)
        if tr.on:
            tr.add("check.nodes", tree_nodes(d))
        if not res.ok:
            tr.add("check.rejects")
            raise Unchecked(f"deduction rejected: {res.error}")
        if res.conclusion is not nd.disjunction_of(seq.right) or not res.open <= seq.left:
            raise WrongAnswer(f"deduction concludes {res.conclusion} from {set(res.open)}")

        self.stage = "transform"
        r = tr.span("transform", nd.nd_to_sc, d)
        if not (r.sequent.left <= seq.left and r.sequent.right == {res.conclusion}):
            raise WrongAnswer(f"nd_to_sc proves {r.sequent}")
        self._check(tr, r, allow_cut=True)

        self.stage = "json"
        out = tr.span("json", self._to_json, q, d, r)
        if tr.on:
            n_p = tree_nodes(p)
            tr.add("transform.nodes_in", 2 * n_p + tree_nodes(d))
            tr.add("transform.nodes_out", tree_nodes(q) + tree_nodes(d) + tree_nodes(r))
            tr.add("json.bytes", len(text) + len(out))

    def _to_json(self, q, d, r):
        return json.dumps({"transformed": self.sc.proof_to_json(q),
                           "deduction": self.nd.nd_to_json(d),
                           "back": self.sc.proof_to_json(r)})

    def _check(self, tr, proof, allow_cut=False):
        self.stage = "check"
        try:
            tr.span("check", self.sc.verify_sc_proof, proof, allow_cut)
        except self.sc.ScCheckError as e:
            tr.add("check.rejects")
            raise Unchecked(f"sequent proof rejected: {e}")
        if tr.on:
            tr.add("check.nodes", tree_nodes(proof))
