import hashlib
import json
import random

import pytest

from tml.gcalc import (GCheckError, GProof, GRule, GSequent, check_g_proof,
                       cut_necessity_probe, g_proof_from_json, g_proof_to_json,
                       g_search_cutfree, render_g_proof, verify_g_proof)
from tml.syntax import And, Box, Neg, Var, parse

p, q = Var("p"), Var("q")


class TestChecker:
    def test_modal_axiom_leaf(self):
        node = GProof(GRule.MODAL_AX, GSequent.of([], parse("p | ~#p")))
        assert check_g_proof(node)

    def test_modal_axiom_shape_mismatch(self):
        node = GProof(GRule.MODAL_AX, GSequent.of([], parse("p | ~#q")))
        assert not check_g_proof(node)

    def test_box_r(self):
        prem = GProof(GRule.STRUCT_AX,
                      GSequent.of([parse("p & ~p")], parse("p & ~p")))
        # premise context must match; use an exact instance
        node = GProof(GRule.BOX_R,
                      GSequent.of([parse("p & ~p")], parse("p & ~#p")),
                      (prem,))
        assert check_g_proof(node)

    def test_neg_rule_rejects_context(self):
        prem = GProof(GRule.STRUCT_AX, GSequent.of([p], p))
        node = GProof(GRule.NEG, GSequent.of([Neg(p), q], Neg(p)), (prem,))
        assert not check_g_proof(node)

    def test_neg_rule_accepts_bare_instance(self):
        prem = GProof(GRule.STRUCT_AX, GSequent.of([p], p))
        node = GProof(GRule.NEG, GSequent.of([Neg(p)], Neg(p)), (prem,))
        assert check_g_proof(node)

    def test_box_l(self):
        prem = GProof(GRule.WEAK, GSequent.of([p, Neg(p)], q), ())
        # build an actually-correct subtree: weakening from axiom is wrong here,
        # so check only the box step against a synthetic premise
        inner = GProof(GRule.STRUCT_AX, GSequent.of([q], q))
        w1 = GProof(GRule.WEAK, GSequent.of([q, p], q), (inner,))
        w2 = GProof(GRule.WEAK, GSequent.of([q, p, Neg(p)], q), (w1,))
        node = GProof(GRule.BOX_L, GSequent.of([q, p, Neg(Box(p))], q), (w2,))
        assert check_g_proof(node)

    def test_cut_gate(self):
        left = GProof(GRule.STRUCT_AX, GSequent.of([p], p))
        right = GProof(GRule.WEAK, GSequent.of([p, p], q), ())
        # a well-formed cut whose premises are themselves bogus still hits the
        # allow_cut gate first
        node = GProof(GRule.CUT, GSequent.of([p], q), (left, right))
        with pytest.raises(GCheckError) as exc:
            verify_g_proof(node, allow_cut=False)
        assert "cut" in str(exc.value)

    def test_error_at_non_root_path(self):
        # p, q => p & q by and_r over two weakenings; the second weakening
        # rests on a node that is not a modal axiom
        pq = frozenset({p, q})
        left = GProof(GRule.WEAK, GSequent(pq, p), (GProof(GRule.STRUCT_AX, GSequent.of([p], p)),))
        right = GProof(GRule.WEAK, GSequent(pq, q), (GProof(GRule.MODAL_AX, GSequent.of([q], q)),))
        bad = GProof(GRule.AND_R, GSequent(pq, And(p, q)), (left, right))
        with pytest.raises(GCheckError) as exc:
            verify_g_proof(bad)
        assert exc.value.path == (1, 0)
        assert exc.value.rule is GRule.MODAL_AX
        assert str(exc.value) == (
            "node [1, 0] (g.modal_ax): premises do not instantiate the schema")

    def test_json_roundtrip(self):
        pr = g_search_cutfree(GSequent.of([parse("p & q")], p), 4)
        assert pr is not None
        assert g_proof_from_json(g_proof_to_json(pr)) == pr


class TestSearch:
    def test_modal_axiom_depth_3(self):
        pr = g_search_cutfree(GSequent.of([], parse("p | ~#p")), 3)
        assert pr is not None and pr.rule is GRule.MODAL_AX

    def test_boxed_modal_axiom_not_found(self):
        pr = g_search_cutfree(GSequent.of([], parse("#(p | ~#p)")), 12)
        assert pr is None

    def test_boxed_modal_axiom_not_found_deeper(self):
        # the search space from this goal is tiny, so a much larger bound
        # stays instant and still finds nothing
        assert g_search_cutfree(GSequent.of([], parse("#(p | ~#p)")), 25) is None

    def test_conjunction_projection(self):
        pr = g_search_cutfree(GSequent.of([parse("p & q")], p), 4)
        assert pr is not None
        verify_g_proof(pr)

    def test_found_proofs_check(self):
        cases = ["p => p", "p & q => q", "p => p | q", "q => p | q",
                 "~~p => p", "p => ~~p", "=> q | ~#q"]
        from tml.sequents import parse_sequent
        for text in cases:
            seq = parse_sequent(text)
            (phi,) = seq.right
            pr = g_search_cutfree(GSequent(seq.left, phi), 6)
            assert pr is not None, text
            verify_g_proof(pr)

    def test_depth_monotone(self):
        goals = [GSequent.of([parse("p & q")], p),
                 GSequent.of([], parse("p | ~#p")),
                 GSequent.of([parse("~~p")], p)]
        for goal in goals:
            found_at = [d for d in range(8) if g_search_cutfree(goal, d) is not None]
            if found_at:
                lo = min(found_at)
                assert found_at == list(range(lo, 8))

    def test_soundness_of_found_proofs(self):
        from tml.matrix import degree_consequence
        for text in ["p & q => p", "p => p | q", "=> p | ~#p", "~~p => p"]:
            from tml.sequents import parse_sequent
            seq = parse_sequent(text)
            (phi,) = seq.right
            if g_search_cutfree(GSequent(seq.left, phi), 6) is not None:
                assert degree_consequence(seq.left, phi)


class TestProbe:
    def test_variable_alpha(self):
        report = cut_necessity_probe(p, 12)
        assert report.valid
        assert not report.g_cutfree_found
        assert report.sc_cutfree_found
        assert not report.vacuous_bound

    def test_compound_alpha(self):
        report = cut_necessity_probe(parse("q & q"), 10)
        assert report.valid and not report.g_cutfree_found and report.sc_cutfree_found

    def test_vacuous_depth(self):
        report = cut_necessity_probe(p, 0)
        assert not report.g_cutfree_found
        assert report.vacuous_bound

    def test_exhausted_search_says_so(self):
        # the only backward step from => #(p | ~#p) leads to => bot, which
        # has none, so height 3 already covers the whole search space
        report = cut_necessity_probe(p, 3)
        assert report.exhausted and not report.bound_hit
        assert not report.g_cutfree_found
        text = str(report)
        assert "exhaustive" in text and "empirical" not in text

    def test_bound_hit_is_reported_as_empirical(self):
        report = cut_necessity_probe(p, 1)
        assert report.bound_hit and not report.exhausted
        text = str(report)
        assert "empirical" in text and "exhaustive" not in text


# sha256 over the JSON (as `tml prove --calculus g --format json` prints
# it, key order included) and the text rendering of the proofs found for
# a fixed seeded list of single-conclusion sequents.
G_PROOFS_FINGERPRINT = "0003bbe3185d77485767663f09290620e5a745db99c82a0d3c652a92b12fe5ae"


def test_g_proof_fingerprint(small_pool):
    rng = random.Random(11)
    h = hashlib.sha256()
    found = 0
    for _ in range(400):
        goal = GSequent.of(rng.sample(small_pool, rng.randrange(0, 3)),
                           rng.choice(small_pool))
        pr = g_search_cutfree(goal, 8)
        if pr is None:
            continue
        found += 1
        h.update(json.dumps(g_proof_to_json(pr), indent=2).encode() + b"\n")
        h.update(render_g_proof(pr).encode() + b"\n")
    assert found > 50
    assert h.hexdigest() == G_PROOFS_FINGERPRINT, h.hexdigest()
