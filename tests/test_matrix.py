import itertools
import json

import pytest
from hypothesis import given, strategies as st

from tml.matrix import (M4, MissingVariableError, UnknownConnectiveError,
                        bundled_m4_path, countermodel, degree_consequence,
                        evaluate, load_matrix, matrix_consequence,
                        matrix_to_json, parse_valuation, render_valuation,
                        satisfies, valuations)
from tml.syntax import And, BOT, Box, Neg, Or, Var, parse

p, q = Var("p"), Var("q")


class TestEvaluate:
    def test_box_of_n(self):
        assert evaluate(Box(p), {"p": "n"}) == "0"

    def test_neg_of_b(self):
        assert evaluate(Neg(p), {"p": "b"}) == "b"

    def test_join_of_incomparables(self):
        assert evaluate(Or(p, q), {"p": "n", "q": "b"}) == "1"

    def test_modal_axiom_always_top(self):
        f = parse("p | ~#p")
        for w in M4.values:
            assert evaluate(f, {"p": w}) == "1"

    def test_bot_is_zero(self):
        assert evaluate(BOT, {}) == "0"

    def test_missing_variable(self):
        with pytest.raises(MissingVariableError):
            evaluate(p, {})

    def test_unknown_connective(self):
        from tml.matrix import LogicalMatrix, Operation
        tiny = LogicalMatrix(("0", "1"), frozenset({"1"}),
                             {"neg": Operation(1, {("0",): "1", ("1",): "0"})})
        with pytest.raises(UnknownConnectiveError):
            evaluate(Or(p, q), {"p": "0", "q": "1"}, tiny)


class TestValuations:
    def test_counts(self):
        assert len(valuations({"p"})) == 4
        assert len(valuations({"p", "q"})) == 16
        assert valuations(set()) == [{}]

    def test_lexicographic_order(self):
        vs = valuations({"p"})
        assert [v["p"] for v in vs] == ["0", "n", "b", "1"]


class TestConsequence:
    def test_modal_axiom(self):
        assert matrix_consequence([], [parse("p | ~#p")])

    def test_excluded_middle_fails(self):
        assert not matrix_consequence([], [parse("p | ~p")])
        assert countermodel([], [parse("p | ~p")]) == {"p": "n"}

    def test_definable_falsum(self):
        assert matrix_consequence([parse("~p & #p")], [])

    def test_empty_sequent_invalid(self):
        assert not matrix_consequence([], [])

    def test_countermodel_none_for_valid(self):
        assert countermodel([p], [p]) is None

    def test_countermodel_neg_box(self):
        assert countermodel([parse("~#p")], [p]) == {"p": "0"}

    def test_weakening_monotonicity(self, small_pool):
        import random
        rng = random.Random(7)
        for _ in range(200):
            g = rng.sample(small_pool, rng.randrange(3))
            d = rng.sample(small_pool, rng.randrange(3))
            extra = rng.choice(small_pool)
            if matrix_consequence(g, d):
                assert matrix_consequence(g + [extra], d)
                assert matrix_consequence(g, d + [extra])

    def test_satisfaction_is_designation(self):
        for w in M4.values:
            assert satisfies({"p": w}, p) == (w in M4.designated)


class TestDegreeConsequence:
    def test_conjunction_projection(self):
        assert degree_consequence([And(p, q)], p)

    def test_modal_axiom(self):
        assert degree_consequence([], parse("p | ~#p"))

    def test_box_not_degree_entailed(self):
        assert not degree_consequence([p], Box(p))
        # witness: v(p)=b gives b on the left but #b = 0
        assert evaluate(Box(p), {"p": "b"}) == "0"

    def test_agrees_with_matrix_consequence(self, small_pool):
        import random
        rng = random.Random(3)
        for _ in range(300):
            g = rng.sample(small_pool, rng.randrange(3))
            phi = rng.choice(small_pool)
            assert degree_consequence(g, phi) == matrix_consequence(g, [phi])


def _m4_operations():
    """M4's meet, join, negation and box as dicts, the binary ones keyed
    by pairs of values and the unary ones by values."""
    ops = M4.ops
    return (ops["and"].table, ops["or"].table,
            {a: v for (a,), v in ops["neg"].table.items()},
            {a: v for (a,), v in ops["box"].table.items()})


class TestDerivedIdentities:
    """The stock modal identities hold under evaluation of random formulas."""

    @given(st.integers(0, 3), st.integers(0, 3))
    def test_identities_pointwise(self, i, j):
        a = M4.values[i]
        b = M4.values[j]
        m, jn, n, bx = _m4_operations()
        assert jn[(n[bx[a]], a)] == "1"
        assert jn[(bx[a], n[a])] == jn[(a, n[a])]
        assert m[(bx[a], n[bx[a]])] == "0"
        assert M4.leq(bx[a], a)
        assert bx[bx[a]] == bx[a]
        assert bx[m[(a, b)]] == m[(bx[a], bx[b])]
        assert bx[jn[(a, bx[b])]] == jn[(bx[a], bx[b])]
        assert bx[n[bx[a]]] == n[bx[a]]
        assert m[(a, bx[n[a]])] == "0"

    def test_box_join_implication_all_triples(self):
        meet, join, neg, box = _m4_operations()
        for x, y, z in itertools.product(M4.values, repeat=3):
            if M4.leq(x, join[(y, z)]) and M4.leq(meet[(x, neg[z])], y):
                assert M4.leq(x, join[(y, box[z])])

    def test_identities_at_evaluated_formulas(self, small_pool):
        # the identities hold with a, b instantiated at values of random formulas
        import random
        rng = random.Random(31)
        for _ in range(100):
            alpha, beta = rng.choice(small_pool), rng.choice(small_pool)
            v = {name: rng.choice(M4.values) for name in ("p", "q")}
            a, b = evaluate(alpha, v), evaluate(beta, v)
            m, j, n, bx = _m4_operations()
            assert j[(n[bx[a]], a)] == "1"
            assert bx[m[(a, b)]] == m[(bx[a], bx[b])]
            assert bx[m[(bx[a], bx[b])]] == m[(bx[a], bx[b])]
            assert bx[j[(bx[a], bx[b])]] == j[(bx[a], bx[b])]
            assert m[(bx[a], n[a])] == "0"
            assert m[(n[bx[a]], a)] == m[(n[a], a)]


class TestMatrixFile:
    def test_bundled_matches_builtin(self):
        assert load_matrix(bundled_m4_path()) == M4

    def test_bundled_bytes_are_canonical(self):
        with open(bundled_m4_path(), encoding="utf-8") as fh:
            on_disk = fh.read()
        assert on_disk == json.dumps(matrix_to_json(M4), indent=2) + "\n"

    def test_tables_bit_exact(self):
        doc = matrix_to_json(M4)
        assert doc["connectives"]["neg"]["table"] == {
            "0": "1", "n": "n", "b": "b", "1": "0"}
        assert doc["connectives"]["box"]["table"] == {
            "0": "0", "n": "0", "b": "0", "1": "1"}


class TestValuationText:
    def test_roundtrip(self):
        v = parse_valuation("p=n,q=b")
        assert v == {"p": "n", "q": "b"}
        assert render_valuation(v) == "p=n,q=b"

    def test_rejects_bad_value(self):
        with pytest.raises(ValueError):
            parse_valuation("p=x")
