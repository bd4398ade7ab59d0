import random

import pytest

from tml.matrix import M4, evaluate, matrix_consequence
from tml.sc import (ScCheckError, ScProof, ScRule, check_sc_proof, contrapose,
                    denecessitate, falsum_proof, is_cut_free, necessitate,
                    proof_from_json, proof_size, proof_to_json, prove,
                    render_proof, rule_soundness, schema_counterexample,
                    verify_sc_proof, weaken, axiom)
from tml.sequents import Sequent, parse_sequent
from tml.syntax import And, Box, Neg, Or, Var, parse

p, q = Var("p"), Var("q")


def rule_tree(proof):
    return (proof.rule.value, tuple(rule_tree(s) for s in proof.premises))


class TestChecker:
    def test_golden_modal_axiom_proof(self):
        pr = prove(parse_sequent("=> p | ~#p"))
        assert pr is not None
        verify_sc_proof(pr, allow_cut=False)

    def test_golden_boxed_modal_axiom_proof(self):
        pr = prove(parse_sequent("=> #(p | ~#p)"))
        assert pr is not None and is_cut_free(pr)
        verify_sc_proof(pr, allow_cut=False)

    def test_box_r_arity_mismatch(self):
        base = axiom([p], [p])
        bad = ScProof(ScRule.BOX_R, Sequent.of([], [Box(p)]), (Box(p),), (base,))
        assert not check_sc_proof(bad)
        with pytest.raises(ScCheckError) as exc:
            verify_sc_proof(bad)
        assert "premise" in str(exc.value)

    def test_axiom_requires_overlap(self):
        bad = ScProof(ScRule.AXIOM, Sequent.of([p], [q]), (p,))
        assert not check_sc_proof(bad)

    def test_cut_toggles(self):
        from tml.sc import cut
        with_cut = cut(axiom([p], [p]), axiom([p], [p]), p, [p], [p])
        assert check_sc_proof(with_cut, allow_cut=True)
        assert not check_sc_proof(with_cut, allow_cut=False)

    def test_json_roundtrip(self):
        pr = prove(parse_sequent("p & q => q & p"))
        assert proof_from_json(proof_to_json(pr)) == pr

    def test_error_at_non_root_path(self):
        pr = prove(parse_sequent("p & q => q & p"))
        and_r = pr.premises[0]
        bad_leaf = ScProof(ScRule.WEAK_L, and_r.premises[1].sequent, (p,))
        bad = ScProof(pr.rule, pr.sequent, pr.principal, (ScProof(
            and_r.rule, and_r.sequent, and_r.principal, (and_r.premises[0], bad_leaf)),))
        with pytest.raises(ScCheckError) as exc:
            verify_sc_proof(bad)
        assert exc.value.path == (0, 1)
        assert exc.value.rule is ScRule.WEAK_L
        assert str(exc.value) == (
            "node [0, 1] (weak_l): weakening needs one premise and one principal")

    def test_weakening_nodes_accepted(self):
        pr = weaken(axiom([p], [p]), [p, q], [p, Box(q)])
        verify_sc_proof(pr)
        assert pr.sequent == Sequent.of([p, q], [p, Box(q)])


class TestProver:
    def test_modal_axiom(self):
        assert prove(parse_sequent("=> p | ~#p")) is not None

    def test_unprovable_neg_box(self):
        assert prove(parse_sequent("~#p => p")) is None

    def test_definable_falsum(self):
        assert prove(parse_sequent("~p & #p =>")) is not None

    def test_conjunction_commutes(self):
        pr = prove(parse_sequent("p & q => q & p"))
        assert pr is not None and check_sc_proof(pr)

    def test_deep_conjunction_chain(self):
        # the search is iterative, so proof height is not bounded by the
        # interpreter's recursion limit
        chain = p
        for _ in range(1200):
            chain = And(chain, q)
        pr = prove(Sequent.of([chain], [p]))
        assert pr is not None and pr.rule is ScRule.AND_L
        # nor are the walks over the 1201-high proof
        verify_sc_proof(pr)
        assert proof_size(pr) == 1201
        assert is_cut_free(pr)

    def test_agrees_with_oracle(self, small_pool):
        rng = random.Random(99)
        for _ in range(400):
            g = rng.sample(small_pool, rng.randrange(0, 3))
            d = rng.sample(small_pool, rng.randrange(0, 3))
            seq = Sequent.of(g, d)
            got = prove(seq)
            assert (got is not None) == matrix_consequence(g, d), str(seq)
            if got is not None:
                assert is_cut_free(got)
                verify_sc_proof(got)

    def test_equivalence_of_plain_and_boxed_contradiction(self, small_pool):
        rng = random.Random(4)
        for alpha in rng.sample(small_pool, 12):
            lhs = And(alpha, Neg(alpha))
            rhs = And(alpha, Neg(Box(alpha)))
            assert prove(Sequent.of([lhs], [rhs])) is not None, alpha
            assert prove(Sequent.of([rhs], [lhs])) is not None, alpha


class TestGoldenDerivations:
    def test_modal_axiom_rule_sequence(self):
        pr = prove(parse_sequent("=> p | ~#p"))
        assert rule_tree(pr) == (
            "or_r", (("neg_box_r1", (("axiom", ()),)),))

    def test_boxed_modal_axiom_rule_sequence(self):
        pr = prove(parse_sequent("=> #(p | ~#p)"))
        assert rule_tree(pr) == (
            "box_r",
            (("or_r", (("neg_box_r1", (("axiom", ()),)),)),
             ("neg_or_l", (("neg_neg_l", (("box_l2", (("axiom", ()),)),)),))))


class TestContrapose:
    def cases(self):
        return ["p & q => p", "p => p", "=> p | ~#p", "p | q => q | p",
                "~p & #p =>", "#p => p", "~~p => p", "p => ~~p",
                "=> #(p | ~#p)", "~(p | q) => ~p & ~q"]

    def test_conclusion_and_checkability(self):
        for text in self.cases():
            seq = parse_sequent(text)
            pr = prove(seq)
            assert pr is not None, text
            cp = contrapose(pr)
            assert cp.sequent == Sequent.of(
                [Neg(f) for f in seq.right], [Neg(f) for f in seq.left]), text
            assert check_sc_proof(cp, allow_cut=True), text

    def test_axiom_base_case(self):
        cp = contrapose(axiom([p], [p]))
        assert cp.sequent == Sequent.of([Neg(p)], [Neg(p)])
        assert cp.rule is ScRule.AXIOM

    def test_rejects_cut(self):
        from tml.sc import cut
        with_cut = cut(axiom([p], [p]), axiom([p], [p]), p, [p], [p])
        with pytest.raises(ScCheckError):
            contrapose(with_cut)

    def test_bridging_cases_use_cut(self):
        pr = prove(parse_sequent("~(p | q) => ~p"))
        cp = contrapose(pr)
        assert not is_cut_free(cp)
        assert check_sc_proof(cp, allow_cut=True)


class TestNecessitation:
    def test_builds_boxed_theorem(self):
        pr = prove(parse_sequent("=> p | ~#p"))
        nec = necessitate(pr)
        assert nec.sequent == Sequent.of([], [Box(parse("p | ~#p"))])
        assert check_sc_proof(nec, allow_cut=True)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            necessitate(axiom([p], [p]))

    def test_unboxing_search_proof(self):
        pr = prove(parse_sequent("=> #(~(~p & #p))"))
        assert pr is not None
        back = denecessitate(pr)
        assert back.sequent == Sequent.of([], [parse("~(~p & #p)")])
        assert check_sc_proof(back)

    def test_round_trip_identity(self):
        pr = prove(parse_sequent("=> p | ~#p"))
        assert denecessitate(necessitate(pr)) is pr

    def test_structure_error(self):
        with pytest.raises(ValueError):
            denecessitate(axiom([Box(p)], [Box(p)]))


class TestRuleSoundness:
    def test_all_rules_sound(self):
        for rule in ScRule:
            assert rule_soundness(rule), rule

    def test_mutated_box_r_fails(self):
        g, d, a = Var("g"), Var("d"), Var("a")
        witness = schema_counterexample(
            premises=[([g], [d, a])],          # second premise dropped
            conclusion=([g], [d, Box(a)]))
        assert witness is not None
        # both n and b break the mutated rule; check the witness is real
        assert witness["a"] in ("n", "b")
        lhs = evaluate(g, witness)
        assert M4.leq(lhs, evaluate(Or(d, a), witness))
        assert not M4.leq(lhs, evaluate(Or(d, Box(a)), witness))

    def test_box_r_is_the_join_implication(self):
        # premise inequalities instantiate x <= y|z and x & ~z <= y
        g, d, a = Var("g"), Var("d"), Var("a")
        assert schema_counterexample(
            premises=[([g], [d, a]), ([g, Neg(a)], [d])],
            conclusion=([g], [d, Box(a)])) is None


class TestFalsumProof:
    def test_checks_for_any_formula(self):
        for alpha in (p, Box(q), parse("p | q")):
            pr = falsum_proof(alpha)
            verify_sc_proof(pr)
            assert pr.sequent == Sequent.of([And(Neg(alpha), Box(alpha))], [])


class TestRendering:
    def test_text_layout_has_rules_and_sequents(self):
        pr = prove(parse_sequent("=> p | ~#p"))
        text = render_proof(pr)
        assert "[or_r]" in text and "[axiom]" in text
        assert "=> p | ~#p" in text

    def test_deep_proof_renders_and_round_trips(self):
        # 1200 weakenings over an axiom: higher than the recursion limit,
        # with lines short enough to print (each line of the rendered
        # conjunction chain above holds every prefix of the chain)
        names = [Var(f"x{i}") for i in range(1200)]
        pr = weaken(axiom([p], [p]), [p, *names], [p])
        verify_sc_proof(pr)
        text = render_proof(pr)
        lines = text.split("\n")
        assert len(lines) == 1201
        assert lines[0] == "    " * 1200 + "p => p   [axiom]"
        assert lines[-1].startswith("p, x0, x1, x10, ")
        assert lines[-1].endswith(" => p   [weak_l]")
        assert render_proof(proof_from_json(proof_to_json(pr))) == text


class TestFalsumRejection:
    def test_prove_rejects_bot_sequents(self):
        with pytest.raises(ValueError):
            prove(parse_sequent("bot => p"))
        # the encoded falsum works instead
        assert prove(parse_sequent("~p & #p => q")) is not None


class TestRuleNecessity:
    """Dropping any logical rule from the search loses completeness; the
    first witness in the corpus stream certifies each rule is load-bearing."""

    def test_every_logical_rule_is_needed(self, small_pool, pool_by_count):
        import tml.sc as sc_mod
        up3 = [f for c in range(4) for f in pool_by_count[c]]

        def witness_stream():
            for f in up3:
                yield Sequent.of([], [f])
                yield Sequent.of([f], [])
            for a in small_pool:
                for b in small_pool:
                    yield Sequent.of([a], [b])

        structural = {ScRule.AXIOM, ScRule.WEAK_L, ScRule.WEAK_R, ScRule.CUT}
        orig = sc_mod._rules_for
        try:
            for dropped in [r for r in ScRule if r not in structural]:
                def mutated(side, f, _d=dropped):
                    return tuple(r for r in orig(side, f) if r[0] is not _d)
                sc_mod._rules_for = mutated
                found = None
                for seq in witness_stream():
                    got = prove(seq) is not None
                    if got != matrix_consequence(seq.left, seq.right):
                        found = seq
                        break
                assert found is not None, f"dropping {dropped.value} went unnoticed"
        finally:
            sc_mod._rules_for = orig
