import hashlib
import itertools
import json
import random

import pytest

from tml.algebra import check_tma_laws, product_algebra
from tml.matrix import M4, LogicalMatrix, Operation, Planes, evaluate
from tml.syntax import BOT, And, Neg, Var, parse


@pytest.fixture(scope="module")
def m4():
    return M4


def _identity_box(m):
    """The matrix with # the identity."""
    return _with(m, "box", {(a,): a for a in m.values})


def _with(m, name, table):
    """The matrix with the table of one connective replaced."""
    return LogicalMatrix(m.values, m.designated,
                         {**m.ops, name: Operation(m.ops[name].arity, table)},
                         m.order, m.connective_order)


def test_m4_passes_all_laws(m4):
    report = check_tma_laws(m4)
    assert report.all_pass, str(report)


def test_identity_box_fails_first_axiom(m4):
    report = check_tma_laws(_identity_box(m4))
    check = report.by_name("modal_axiom_box_meet_neg")
    assert not check.holds
    assert check.witness == ("n",)  # n & ~n = n, not 0


def test_product_is_closed_under_the_laws(m4):
    square = product_algebra(m4, m4)
    assert len(square.values) == 16
    assert square.ops["neg"](("1", "0")) == ("0", "1")
    assert square.ops["box"](("1", "b")) == ("1", "0")
    assert square.designated == {(x, y) for x in "b1" for y in "b1"}
    assert square.leq(("n", "0"), ("1", "b")) and not square.leq(("n", "0"), ("b", "b"))
    report = check_tma_laws(square)
    assert report.all_pass, "\n".join(str(c) for c in report.failing())


def test_report_enumerates_expected_laws(m4):
    names = {c.name for c in check_tma_laws(m4).checks}
    must_have = {
        "or_commutative", "and_associative", "distributive_meet_over_join",
        "neg_involution", "de_morgan_join",
        "modal_axiom_box_meet_neg", "modal_axiom_neg_box_meet",
        "neg_box_join_is_top", "box_join_neg", "box_excluded_middle",
        "box_non_contradiction", "box_decreasing", "box_preserves_top",
        "box_preserves_bottom", "box_idempotent", "box_distributes_over_meet",
        "box_join_boxed", "box_of_neg_box", "meet_with_box_neg",
        "box_of_boxed_meet", "box_of_boxed_join", "box_join_implication",
    }
    assert must_have <= names
    assert [c.name for c in check_tma_laws(m4).checks] == LAW_NAMES


LAW_NAMES = [
    "or_commutative", "and_commutative", "or_associative", "and_associative",
    "or_idempotent", "and_idempotent", "absorption_join", "absorption_meet",
    "distributive_meet_over_join", "distributive_join_over_meet",
    "bottom_is_join_unit", "bottom_is_meet_zero", "top_is_join_zero",
    "top_is_meet_unit", "neg_involution", "de_morgan_join",
    "modal_axiom_box_meet_neg", "modal_axiom_neg_box_meet",
    "neg_box_join_is_top", "box_join_neg", "box_excluded_middle",
    "box_non_contradiction", "box_decreasing", "box_preserves_top",
    "box_preserves_bottom", "box_idempotent", "box_distributes_over_meet",
    "box_join_boxed", "box_of_neg_box", "meet_with_box_neg",
    "box_of_boxed_meet", "box_of_boxed_join", "box_join_implication",
]


def test_algebra_evaluate_componentwise(m4):
    square = product_algebra(m4, m4)
    f = parse("#(p | q)")
    got = evaluate(f, {"p": ("1", "0"), "q": ("n", "1")}, square)
    assert got == (evaluate(f, {"p": "1", "q": "n"}), evaluate(f, {"p": "0", "q": "1"}))


def test_one_is_neg_zero(m4):
    assert m4.top() == evaluate(Neg(BOT), {}, m4) == "1"
    square = product_algebra(m4, m4)
    assert square.top() == evaluate(Neg(BOT), {}, square) == ("1", "1")


def _mutant(m, name, key, value):
    """The matrix with one entry of one operation changed."""
    return _with(m, name, {**m.ops[name].table, key: value})


# the connectives in the order the mutants draw them, bot last
_MUTATED = ("and", "or", "neg", "box", "bot")


def _single_entry_mutants(m):
    for name in _MUTATED:
        for key, old in m.ops[name].table.items():
            for value in m.values:
                if value != old:
                    yield _mutant(m, name, key, value)


def _seeded_mutants(m, n, seed):
    rng = random.Random(seed)
    for _ in range(n):
        name = rng.choice(_MUTATED)
        # bot has the one key (), so no key is drawn for it
        key = () if name == "bot" else rng.choice(sorted(m.ops[name].table))
        old = m.ops[name].table[key]
        yield _mutant(m, name, key, rng.choice([e for e in m.values if e != old]))


# sha256 of the (name, holds, witness) triples of every report below, as
# recorded from the hand-written per-law checks that preceded the
# formula table
LAW_REPORT_FINGERPRINT = "b3a7d13a1521a5cd0e8335bcb8260af74284c58c9f799f4c0a4bb4d223fbcba0"


def test_law_reports_golden(m4):
    algebras = [_identity_box(m4), *_single_entry_mutants(m4),
                *_seeded_mutants(product_algebra(m4, m4), 30, seed=5)]
    assert len(algebras) == 1 + 123 + 30
    h = hashlib.sha256()
    failures = 0
    for alg in algebras:
        for c in check_tma_laws(alg).checks:
            failures += not c.holds
            h.update(json.dumps([c.name, c.holds, c.witness]).encode() + b"\n")
    assert failures > 0
    assert h.hexdigest() == LAW_REPORT_FINGERPRINT, h.hexdigest()


def test_algebra_evaluate_deep_chain(m4):
    # 3000 nested conjunctions, alternately on the left and on the right
    p, q = Var("p"), Var("q")
    chain = p
    for i in range(3000):
        chain = And(chain, q) if i % 2 else And(q, chain)
    square = product_algebra(m4, m4)
    got = evaluate(chain, {"p": ("1", "n"), "q": ("b", "1")}, square)
    assert got == (evaluate(chain, {"p": "1", "q": "b"}),
                   evaluate(chain, {"p": "n", "q": "1"})) == ("b", "n")


def test_algebra_evaluate_matches_the_kernel_on_mutants(m4):
    # the two evaluators check each other, on mutants whose operations
    # are not commutative
    formulas = [parse(t) for t in ("p & q", "q | ~#p", "#(p & ~q) | q & p",
                                   "~(q & bot) & (p | #q)")]
    for m in _single_entry_mutants(m4):
        planes = Planes(["p", "q"], m)
        for f in formulas:
            x = planes[f]
            for j, (a, b) in enumerate(itertools.product(m.values, repeat=2)):
                got = evaluate(f, {"p": a, "q": b}, m)
                assert x[m.index(got)] >> j & 1, (f, a, b)
