import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import checked_nd_to_sc

from tml.matrix import degree_consequence, matrix_consequence
from tml.nd import (ND_RULES, NDDeduction, NdCheckError, NdTranslationError, check_nd,
                    disjunction_of, hyp, nd_from_json, nd_to_json, nd_to_sc,
                    open_assumptions, render_nd, sc_to_nd, verify_nd)
from tml.proofs import walk
from tml.sc import check_sc_proof, prove
from tml.sequents import Sequent, parse_sequent
from tml.syntax import And, BOT, Box, Neg, Or, Var, parse

p, q, r = Var("p"), Var("q"), Var("r")


class TestCheck:
    def test_ma_leaf(self):
        res = check_nd(NDDeduction("ma", parse("p | ~#p")))
        assert res.ok and res.open == frozenset()

    def test_hyp_is_open(self):
        res = check_nd(hyp(p, "u1"))
        assert res.ok and res.open == {p}

    def test_derived_box_intro_via_falsum(self):
        # the starred rule instantiated at psi = bot, followed by the
        # case-split cleanup, derives plain box introduction
        shape = Or(BOT, p)
        d1 = NDDeduction("or_i2", shape, (hyp(p, "h1"),))
        pair = NDDeduction("and_i", And(Neg(p), Box(p)),
                           (hyp(Neg(p), "u"), hyp(Box(p), "h2")))
        d2 = NDDeduction("bot_i", BOT, (pair,))
        starred = NDDeduction("box_i_star", Or(BOT, Box(p)), (d1, d2),
                              discharges=(("u", Neg(p)),))
        cleanup = NDDeduction(
            "or_e", Box(p),
            (starred,
             NDDeduction("bot_e", Box(p), (hyp(BOT, "v1"),)),
             hyp(Box(p), "v2")),
            discharges=(("v1", BOT), ("v2", Box(p))))
        res = check_nd(cleanup)
        assert res.ok, res.error
        assert res.conclusion is Box(p)
        assert res.open == {p, Box(p)}

    def test_derived_box_intro(self):
        # from p and [~p]^u |- bot, conclude #p via the starred rule with
        # the second disjunct route: p => #p | p by or_i2? build directly:
        # D1: p |- #p | p (or_i2 from hyp p); D2: [~p]^u with hyp p? use
        # ~p & #p shape: simplest derived instance per the starred schema
        shape = Or(Box(p), p)
        d1 = NDDeduction("or_i2", shape, (hyp(p, "h1"),))
        pair = NDDeduction("and_i", And(Neg(p), Box(p)),
                           (hyp(Neg(p), "u"), hyp(Box(p), "h2")))
        bot = NDDeduction("bot_i", BOT, (pair,))
        d2 = NDDeduction("bot_e", Box(p), (bot,))
        starred = NDDeduction("box_i_star", Or(Box(p), Box(p)), (d1, d2),
                              discharges=(("u", Neg(p)),))
        res = check_nd(starred)
        assert res.ok, res.error
        assert res.open == {p, Box(p)}

    def test_or_e_discharge_in_wrong_subtree(self):
        main = hyp(Or(p, q), "w")
        b1 = hyp(r, "x")
        b2 = NDDeduction("and_e1", r, (NDDeduction(
            "and_i", And(r, p), (hyp(r, "y"), hyp(p, "u")),),))
        bad = NDDeduction("or_e", r, (main, b2, b1), discharges=(("u", p), ("v", q)))
        # the u-marked hypothesis lives in premise 2's position 1? build the
        # violation explicitly: u-hyp sits in the main premise instead
        really_bad = NDDeduction(
            "or_e", r,
            (NDDeduction("and_e1", Or(p, q),
                         (NDDeduction("and_i", And(Or(p, q), p),
                                      (hyp(Or(p, q), "w2"), hyp(p, "u2"))),)),
             hyp(r, "x2"), hyp(r, "y2")),
            discharges=(("u2", p), ("v2", q)))
        res = check_nd(really_bad)
        assert not res.ok
        assert "designated" in res.error

    def test_vacuous_discharge_allowed(self):
        node = NDDeduction("or_e", r, (hyp(Or(p, q), "w"), hyp(r, "x"), hyp(r, "y")),
                           discharges=(("u", p), ("v", q)))
        assert check_nd(node).ok

    def test_marker_reuse_rejected(self):
        inner = NDDeduction("or_e", r,
                            (hyp(Or(p, q), "w"), hyp(r, "x"), hyp(r, "y")),
                            discharges=(("u", p), ("v", q)))
        outer = NDDeduction("or_e", r,
                            (hyp(Or(p, q), "w2"),
                             NDDeduction("or_e", r,
                                         (hyp(Or(p, q), "w3"), hyp(r, "x2"), hyp(r, "y2")),
                                         discharges=(("u", p), ("z", q))),
                             inner),
                            discharges=(("a", p), ("b", q)))
        res = check_nd(outer)
        assert not res.ok and "twice" in res.error

    def test_marker_open_and_discharged_rejected(self):
        legal = NDDeduction("or_e", r,
                            (hyp(Or(p, q), "w"), hyp(r, "x"), hyp(r, "y")),
                            discharges=(("u", p), ("v", q)))
        clash = NDDeduction("and_i", And(r, q), (legal, hyp(q, "u")))
        res = check_nd(clash)
        assert not res.ok and "open" in res.error

    def test_wrong_discharge_formula(self):
        node = NDDeduction("or_e", r,
                           (hyp(Or(p, q), "w"),
                            NDDeduction("and_e1", r,
                                        (NDDeduction("and_i", And(r, q),
                                                     (hyp(r, "x"), hyp(q, "u"))),)),
                            hyp(r, "y")),
                           discharges=(("u", p), ("v", q)))
        res = check_nd(node)
        assert not res.ok

    # (rule, premise conclusions, conclusion, discharged assumptions):
    # an instance of each rule, then near misses that it rejects
    INSTANCES = [
        ("ma", [], "p | ~#p", []), ("and_i", ["p", "q"], "p & q", []),
        ("and_e1", ["p & q"], "p", []), ("and_e2", ["p & q"], "q", []),
        ("neg_and_i1", ["~p"], "~(p & q)", []), ("neg_and_i2", ["~q"], "~(p & q)", []),
        ("neg_and_e", ["~(p & q)", "r", "r"], "r", ["~p", "~q"]),
        ("or_i1", ["p"], "p | q", []), ("or_i2", ["q"], "p | q", []),
        ("or_e", ["p | q", "r", "r"], "r", ["p", "q"]),
        ("neg_or_i", ["~p", "~q"], "~(p | q)", []),
        ("neg_or_e1", ["~(p | q)"], "~p", []), ("neg_or_e2", ["~(p | q)"], "~q", []),
        ("neg_neg_i", ["p"], "~~p", []), ("neg_neg_e", ["~~p"], "p", []),
        ("box_i_star", ["p | q", "p"], "p | #q", ["~q"]), ("box_e", ["#p"], "p", []),
        ("neg_box_i", ["~p"], "~#p", []), ("neg_box_e", ["~#p", "p"], "~p", []),
        ("bot_i", ["~p & #p"], "bot", []), ("bot_e", ["bot"], "p", []),
    ]
    NEAR_MISSES = [
        ("ma", [], "p | ~#q", []), ("ma", [], "p | ~p", []),
        ("and_i", ["q", "p"], "p & q", []), ("and_e1", ["p & q"], "q", []),
        ("and_e2", ["p & q"], "p", []), ("neg_and_i1", ["~q"], "~(p & q)", []),
        ("neg_and_i1", ["p"], "~(p & q)", []), ("neg_and_i2", ["~p"], "~(p & q)", []),
        ("neg_and_e", ["~(p & q)", "r", "q"], "r", ["~p", "~q"]),
        ("neg_and_e", ["~(p & q)", "r", "r"], "r", ["~q", "~p"]),
        ("or_i1", ["q"], "p | q", []), ("or_i2", ["p"], "p | q", []),
        ("or_e", ["p | q", "r", "r"], "r", ["q", "p"]),
        ("or_e", ["p | q", "r", "r"], "q", ["p", "q"]),
        ("neg_or_i", ["~q", "~p"], "~(p | q)", []), ("neg_or_e1", ["~(p | q)"], "~q", []),
        ("neg_or_e2", ["~(p | q)"], "~p", []), ("neg_neg_i", ["q"], "~~p", []),
        ("neg_neg_e", ["~p"], "p", []), ("box_i_star", ["p | q", "q"], "p | #q", ["~q"]),
        ("box_i_star", ["p | q", "p"], "p | #q", ["~p"]), ("box_e", ["#p"], "q", []),
        ("neg_box_i", ["~q"], "~#p", []), ("neg_box_e", ["~#p", "q"], "~q", []),
        ("neg_box_e", ["~#p", "p"], "~q", []), ("bot_i", ["~p & #q"], "bot", []),
        ("bot_i", ["~p & #p"], "p", []), ("bot_e", ["p"], "p", []),
    ]

    def test_rule_shapes(self):
        for cases, ok in ((self.INSTANCES, True), (self.NEAR_MISSES, False)):
            for rule, prems, conclusion, discharged in cases:
                node = NDDeduction(
                    rule, parse(conclusion),
                    tuple(hyp(parse(t), f"u{i}") for i, t in enumerate(prems)),
                    discharges=tuple((f"v{i}", parse(t)) for i, t in enumerate(discharged)))
                want = None if ok else f"node []: conclusion/premises do not fit rule {rule!r}"
                assert check_nd(node).error == want, (rule, prems, conclusion)

    def test_error_at_non_root_path(self):
        bad_leaf = NDDeduction("and_e1", q, (hyp(And(p, q), "b"),))
        d = NDDeduction("or_i1", Or(And(p, q), r),
                        (NDDeduction("and_i", And(p, q), (hyp(p, "a"), bad_leaf)),))
        with pytest.raises(NdCheckError) as exc:
            verify_nd(d)
        assert exc.value.path == (0, 1)
        assert str(exc.value) == "node [0, 1]: conclusion/premises do not fit rule 'and_e1'"
        assert check_nd(d).error == str(exc.value)

    def test_first_error_order(self):
        # discharge bookkeeping runs after a node's premises and before
        # its next sibling: the twice-discharged marker in premise 0 is
        # reported before the malformed premise 1
        twice = NDDeduction("or_e", r, (hyp(Or(p, q), "w"), hyp(r, "x"), hyp(r, "y")),
                            discharges=(("u", p), ("u", q)))
        malformed = NDDeduction("and_e1", q, (hyp(And(p, q), "b"),))
        d = NDDeduction("and_i", And(r, q), (twice, malformed))
        assert check_nd(d).error == "node [0]: marker 'u' discharged twice"
        # and a node's own bookkeeping runs after every check below it
        clash = NDDeduction("and_i", And(r, q), (twice, hyp(q, "u")))
        d = NDDeduction("and_i", And(And(r, q), q), (clash, malformed))
        assert check_nd(d).error == "node [0, 0]: marker 'u' discharged twice"
        malformed_r = NDDeduction("and_e1", r, (hyp(And(p, q), "b"),))
        d = NDDeduction("or_e", r, (hyp(Or(p, q), "w"), malformed_r, hyp(r, "y")),
                        discharges=(("u", p), ("u", q)))
        assert check_nd(d).error == (
            "node [1]: conclusion/premises do not fit rule 'and_e1'")

    def test_json_roundtrip(self):
        d = sc_to_nd(prove(parse_sequent("p | q => q | p")))
        assert nd_from_json(nd_to_json(d)) == d

    def test_open_assumptions_helper(self):
        d = NDDeduction("and_i", And(p, q), (hyp(p, "a"), hyp(q, "b")))
        assert open_assumptions(d) == {p, q}


class TestDisjunctionOf:
    def test_singleton(self):
        assert disjunction_of([p]) is p

    def test_three_right_fold_sorted(self):
        assert disjunction_of([q, r, p]) is Or(p, Or(q, r))

    def test_empty_is_falsum(self):
        assert disjunction_of([]) is BOT

    def test_falsum_matches_empty_right_semantics(self):
        # a sequent with empty right side is as unsatisfiable as bot
        assert matrix_consequence([parse("~p & #p")], [])
        assert matrix_consequence([parse("~p & #p")], [BOT])


class TestScToNd:
    def test_axiom_proof(self):
        d = sc_to_nd(prove(parse_sequent("p => p")))
        res = check_nd(d)
        assert res.ok and res.conclusion is p and res.open <= {p}

    def test_modal_axiom_closed(self):
        d = sc_to_nd(prove(parse_sequent("=> p | ~#p")))
        res = check_nd(d)
        assert res.ok
        assert res.conclusion is parse("p | ~#p")
        assert res.open == frozenset()

    def test_or_commute_uses_case_split(self):
        d = sc_to_nd(prove(parse_sequent("p | q => q | p")))
        res = check_nd(d)
        assert res.ok and res.open <= {Or(p, q)}

        def rules(node):
            yield node.rule
            for s in node.premises:
                yield from rules(s)

        assert "or_e" in set(rules(d))

    def test_rejects_cut(self):
        from tml.sc import axiom, cut
        with_cut = cut(axiom([p], [p]), axiom([p], [p]), p, [p], [p])
        with pytest.raises(Exception):
            sc_to_nd(with_cut)

    def test_empty_right_gives_falsum(self):
        d = sc_to_nd(prove(parse_sequent("~p & #p =>")))
        res = check_nd(d)
        assert res.ok and res.conclusion is BOT
        assert res.open <= {parse("~p & #p")}


class TestNdToSc:
    def test_single_hyp(self):
        pr = nd_to_sc(hyp(p, "u"))
        assert pr.sequent == Sequent.of([p], [p])

    def test_ma_leaf(self):
        pr = nd_to_sc(NDDeduction("ma", parse("p | ~#p")))
        assert pr.sequent == Sequent.of([], [parse("p | ~#p")])
        assert check_sc_proof(pr, allow_cut=True)

    def test_box_i_star_instance(self):
        shape = Or(q, p)
        d1 = NDDeduction("or_i1", shape, (hyp(q, "a"),))
        d2 = hyp(q, "b")
        starred = NDDeduction("box_i_star", Or(q, Box(p)), (d1, d2),
                              discharges=(("u", Neg(p)),))
        pr = nd_to_sc(starred)
        assert check_sc_proof(pr, allow_cut=True)
        assert pr.sequent.right == {Or(q, Box(p))}
        assert pr.sequent.left <= {q}
        assert matrix_consequence(pr.sequent.left, pr.sequent.right)

    def test_falsum_from_hypothesis_rejected(self):
        d = NDDeduction("bot_e", q, (hyp(BOT, "u"),))
        with pytest.raises(NdTranslationError):
            nd_to_sc(d)

    def test_soundness_of_translated_deductions(self):
        ded = NDDeduction("neg_box_e", Neg(p), (hyp(Neg(Box(p)), "a"), hyp(p, "b")))
        pr = nd_to_sc(ded)
        assert check_sc_proof(pr, allow_cut=True)
        assert pr.sequent == Sequent.of([Neg(Box(p)), p], [Neg(p)])
        assert degree_consequence(pr.sequent.left, Neg(p))


class TestRoundTrip:
    CASES = ["p => p", "=> p | ~#p", "p | q => q | p", "~p & #p =>",
             "p & q => q & p", "=> #(p | ~#p)", "~~p => p", "~(p|q) => ~p",
             "p & ~p => p & ~#p", "p & ~#p => p & ~p", "#p => p",
             "~#p, p => ~p", "p, q => p & q", "=> ~(~p & #p)",
             "#(p & q) => #p & #q", "~(p & q) => ~p | ~q", "p, ~p => #p | ~#p"]

    @pytest.mark.parametrize("text", CASES)
    def test_named_cases(self, text):
        seq = parse_sequent(text)
        pr = prove(seq)
        assert pr is not None
        d = sc_to_nd(pr)
        res = check_nd(d)
        assert res.ok, (text, res.error)
        assert res.conclusion is disjunction_of(seq.right)
        assert res.open <= seq.left
        back = nd_to_sc(d)
        assert check_sc_proof(back, allow_cut=True)
        assert back.sequent.left <= seq.left
        assert back.sequent.right == {res.conclusion}
        assert matrix_consequence(back.sequent.left, back.sequent.right)

    def test_random_corpus(self, small_pool):
        rng = random.Random(12)
        done = nodes = cuts = 0
        while done < 60:
            g = rng.sample(small_pool, rng.randrange(0, 3))
            d_side = rng.sample(small_pool, rng.randrange(0, 3))
            seq = Sequent.of(g, d_side)
            pr = prove(seq)
            if pr is None:
                continue
            done += 1
            ded = sc_to_nd(pr)
            res = check_nd(ded)
            assert res.ok, (str(seq), res.error)
            assert res.open <= seq.left
            back, n, c = checked_nd_to_sc(ded)
            assert matrix_consequence(back.sequent.left, back.sequent.right)
            nodes += n
            cuts += c
        # 10,257 nodes and 1,671 cuts with a cut per deduction step;
        # 5,162 and 198 with sequent rules where the deduction allows them;
        # 1,096 and 48 from deductions built by passing contexts down
        assert nodes <= 1_400 and cuts <= 70, (nodes, cuts)

    def test_degree_soundness_of_checked_deductions(self, small_pool):
        rng = random.Random(13)
        done = 0
        while done < 30:
            g = rng.sample(small_pool, rng.randrange(0, 2))
            d_side = rng.sample(small_pool, 1)
            seq = Sequent.of(g, d_side)
            pr = prove(seq)
            if pr is None:
                continue
            done += 1
            ded = sc_to_nd(pr)
            res = check_nd(ded)
            assert res.ok
            assert degree_consequence(res.open, res.conclusion)


class TestRendering:
    def test_brackets_and_markers(self):
        d = sc_to_nd(prove(parse_sequent("p | q => q | p")))
        text = render_nd(d)
        assert "[p]^" in text or "[q]^" in text
        assert "or_e" in text


# sha256 over the JSON (as `tml translate sc2nd` prints it, key order
# included) and the text rendering of the deductions that sc_to_nd makes
# from the proofs of a fixed seeded list of sequents.
ND_DEDUCTIONS_FINGERPRINT = "cbf9128edd7e21803c94e81837642ffee9b5bc1db2ebc31a714242f7acd44a17"


def _fingerprint_deductions(small_pool) -> list[NDDeduction]:
    rng = random.Random(5)
    deductions = []
    for _ in range(200):
        seq = Sequent.of(rng.sample(small_pool, rng.randrange(0, 3)),
                         rng.sample(small_pool, rng.randrange(1, 3)))
        pr = prove(seq)
        if pr is not None:
            deductions.append(sc_to_nd(pr))
    assert len(deductions) > 50
    return deductions


def _deductions_digest(small_pool) -> str:
    h = hashlib.sha256()
    for d in _fingerprint_deductions(small_pool):
        h.update(json.dumps(nd_to_json(d), indent=2).encode() + b"\n")
        h.update(render_nd(d).encode() + b"\n")
    return h.hexdigest()


def test_nd_deduction_fingerprint(small_pool):
    got = _deductions_digest(small_pool)
    assert got == ND_DEDUCTIONS_FINGERPRINT, got


# sha256 over check_nd's verdict and message on each node of the
# deductions above under every other rule, its premises, marker and
# discharges kept.
ND_RELABELLED_DIGEST = "d88e7522eb62148faf2c404305694e1241eeb7cb3aa91a468999b0d30578fd27"


def test_nd_relabelled_nodes(small_pool):
    h = hashlib.sha256()
    seen = set()
    relabelled = accepted = 0
    for d in _fingerprint_deductions(small_pool):
        for node, _, entering in walk(d):
            if not entering or id(node) in seen:
                continue
            seen.add(id(node))
            for rule in ND_RULES:
                if rule == node.rule:
                    continue
                got = check_nd(NDDeduction(rule, node.conclusion, node.premises,
                                           node.marker, node.discharges))
                relabelled += 1
                accepted += got.ok
                h.update(f"{got.ok} {got.error}\n".encode())
    assert (relabelled, accepted) == (13713, 22)
    assert h.hexdigest() == ND_RELABELLED_DIGEST, h.hexdigest()


def test_nd_deductions_do_not_depend_on_hash_order():
    # markers and the order of premises must not follow set iteration,
    # which changes with the string hash seed from one process to the next
    tests = Path(__file__).resolve().parent
    script = ("from conftest import formula_pool\n"
              "from test_nd import _deductions_digest\n"
              "pool = formula_pool(2)\n"
              "print(_deductions_digest([f for c in range(3) for f in pool[c]]))\n")
    path = os.pathsep.join([str(tests), str(tests.parent / "src")])
    digests = [subprocess.run([sys.executable, "-c", script], check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
                              ).stdout
               for seed in ("0", "1")]
    assert digests[0] == digests[1] and len(digests[0]) == 65, digests
