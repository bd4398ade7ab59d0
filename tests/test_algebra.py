import hashlib
import itertools
import json
import random

import pytest

from tml.algebra import (Algebra, algebra_evaluate, check_tma_laws, m4_algebra,
                         product_algebra)
from tml.matrix import Planes, evaluate
from tml.syntax import And, Var, parse


@pytest.fixture(scope="module")
def m4():
    return m4_algebra()


def test_m4_passes_all_laws(m4):
    report = check_tma_laws(m4)
    assert report.all_pass, str(report)


def test_identity_box_fails_first_axiom(m4):
    broken = m4.__class__(
        carrier=m4.carrier, meet=m4.meet, join=m4.join, neg=m4.neg,
        box={a: a for a in m4.carrier}, zero=m4.zero)
    report = check_tma_laws(broken)
    check = report.by_name("modal_axiom_box_meet_neg")
    assert not check.holds
    assert check.witness == ("n",)  # n & ~n = n, not 0


def test_product_is_closed_under_the_laws(m4):
    square = product_algebra(m4, m4)
    assert len(square.carrier) == 16
    assert square.neg[("1", "0")] == ("0", "1")
    assert square.box[("1", "b")] == ("1", "0")
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
    got = algebra_evaluate(f, {"p": ("1", "0"), "q": ("n", "1")}, square)
    assert got == (m4.box[m4.join[("1", "n")]], m4.box[m4.join[("0", "1")]])


def test_one_is_neg_zero(m4):
    assert m4.one == "1"
    square = product_algebra(m4, m4)
    assert square.one == ("1", "1")


def _mutant(alg, table, key, value):
    """The algebra with one entry of one operation (or its zero) changed."""
    fields = {name: getattr(alg, name)
              for name in ("carrier", "meet", "join", "neg", "box", "zero")}
    fields[table] = value if table == "zero" else {**fields[table], key: value}
    return Algebra(**fields)


def _single_entry_mutants(alg):
    for table in ("meet", "join", "neg", "box"):
        for key, old in getattr(alg, table).items():
            for value in alg.carrier:
                if value != old:
                    yield _mutant(alg, table, key, value)
    for value in alg.carrier:
        if value != alg.zero:
            yield _mutant(alg, "zero", None, value)


def _seeded_mutants(alg, n, seed):
    rng = random.Random(seed)
    for _ in range(n):
        table = rng.choice(("meet", "join", "neg", "box", "zero"))
        if table == "zero":
            old, key = alg.zero, None
        else:
            key = rng.choice(sorted(getattr(alg, table)))
            old = getattr(alg, table)[key]
        yield _mutant(alg, table, key,
                      rng.choice([e for e in alg.carrier if e != old]))


# sha256 of the (name, holds, witness) triples of every report below, as
# recorded from the hand-written per-law checks that preceded the
# formula table
LAW_REPORT_FINGERPRINT = "b3a7d13a1521a5cd0e8335bcb8260af74284c58c9f799f4c0a4bb4d223fbcba0"


def test_law_reports_golden(m4):
    identity_box = m4.__class__(
        carrier=m4.carrier, meet=m4.meet, join=m4.join, neg=m4.neg,
        box={a: a for a in m4.carrier}, zero=m4.zero)
    algebras = [identity_box, *_single_entry_mutants(m4),
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
    got = algebra_evaluate(chain, {"p": ("1", "n"), "q": ("b", "1")}, square)
    assert got == (evaluate(chain, {"p": "1", "q": "b"}),
                   evaluate(chain, {"p": "n", "q": "1"})) == ("b", "n")


def test_algebra_evaluate_matches_the_kernel_on_mutants(m4):
    # the two evaluators check each other, on mutants whose operations
    # are not commutative
    formulas = [parse(t) for t in ("p & q", "q | ~#p", "#(p & ~q) | q & p",
                                   "~(q & bot) & (p | #q)")]
    for alg in _single_entry_mutants(m4):
        planes = Planes(["p", "q"], alg.carrier, alg.tables())
        for f in formulas:
            x = planes[f]
            for j, (a, b) in enumerate(itertools.product(alg.carrier, repeat=2)):
                got = algebra_evaluate(f, {"p": a, "q": b}, alg)
                assert x[alg.carrier.index(got)] >> j & 1, (f, a, b)
