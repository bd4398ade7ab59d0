"""The value-plane kernel behind the semantic queries.

Golden values were recorded from the per-valuation loops that preceded
the kernel: the queries must return the same verdicts and the same
witnesses, with their keys in the same order.  (The verdicts of
``rule_soundness`` are pinned by ``test_sc.py``.)  The property tests
compare the queries with a pointwise loop over ``evaluate``, written
here, on M4 and on a three-valued matrix, and Dunn's two planes, which
answer M4, with the one-hot planes, which answer every other matrix.
"""

import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from tml.algebra import product_algebra
from tml.matrix import (M4, DunnPlanes, LogicalMatrix, Planes, UnknownConnectiveError,
                        bundled_m4_path, countermodel, degree_consequence,
                        evaluate, load_matrix, matrix_consequence,
                        matrix_from_json, matrix_to_json, satisfies,
                        value_planes, valuations)
from tml.sc import _SOUNDNESS_SCHEMA, schema_counterexample
from tml.sequents import Sequent, sequent_satisfied
from tml.signed import NSequent
from tml.syntax import (BOT, PLACEHOLDER, And, Box, FormulaTemplate, Neg, Or,
                        Var, parse, variables)
from tml.translation import (ExpressivenessSpec, ValueTemplates, m4_spec,
                             verify_two_equivalence)


def _random_formula(rng, budget, names):
    if budget <= 0:
        return Var(rng.choice(names))
    k = rng.randrange(6)
    if k == 0:
        return Var(rng.choice(names))
    if k == 1:
        return Neg(_random_formula(rng, budget - 1, names))
    if k == 2:
        return Box(_random_formula(rng, budget - 1, names))
    split = rng.randrange(budget)
    left = _random_formula(rng, split, names)
    right = _random_formula(rng, budget - 1 - split, names)
    return And(left, right) if k in (3, 4) else Or(left, right)


def _small_sequents(seed=7, n=3000):
    """Sequents of the shape the benchmark decides: two variables,
    formulas of at most 1, 3 or 4 connectives, sides of at most two."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        budget = rng.choice((1, 3, 4))
        out.append(([_random_formula(rng, budget, ("p", "q"))
                     for _ in range(rng.randrange(3))],
                    [_random_formula(rng, budget, ("p", "q"))
                     for _ in range(rng.randrange(3))]))
    return out


def _draw(rng, names, v, want):
    while True:
        f = _random_formula(rng, rng.randrange(2, 8), names)
        if satisfies(v, f) == want:
            return f


def _pin(x, w):
    """Formulas for the left and right side that together hold only
    where the variable x takes the value w."""
    x = Var(x)
    return {"0": ([Box(Neg(x))], []), "n": ([Neg(Box(Neg(x)))], [x]),
            "b": ([And(x, Neg(x))], []), "1": ([Box(x)], [])}[w]


def _wide_invalid_sequents(seed=11, n=40):
    """Sequents over five or six variables refuted by a random valuation;
    every variable occurs, so each query ranges over 4^k valuations.
    Pinning some variables to their value moves the first refuting
    valuation away from the start of the enumeration."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        names = "pqrstu"[:5 + i % 2]
        v = {x: rng.choice(M4.values) for x in names}
        left = [_draw(rng, names, v, True) for _ in range(rng.randrange(3))]
        right = [_draw(rng, names, v, False) for _ in range(1 + rng.randrange(2))]
        for x in names:
            if rng.random() < 0.6:
                pl, pr = _pin(x, v[x])
                left += pl
                right += pr
        covered = set().union(*map(variables, left + right))
        for x in sorted(set(names) - covered):
            right.append(And(Var(x), _draw(rng, names, v, False)))
        out.append((left, right))
    return out


# ---------------------------------------------------------------------------
# goldens

COUNTERMODEL_SMALL_FINGERPRINT = "756c88b4d7cc459c9baf1cf25e5fe4339d00b230926c34f54c38c2d207fa59ff"
COUNTERMODEL_WIDE_FINGERPRINT = "739461223c0e718937d43ca05e1f1fe9e2b6e590e275e880db43f1b9c9019103"


def _countermodel_fingerprint(sequents):
    h = hashlib.sha256()
    for gamma, delta in sequents:
        h.update(json.dumps(countermodel(gamma, delta)).encode() + b"\n")
    return h.hexdigest()


def test_countermodel_golden_small():
    got = _countermodel_fingerprint(_small_sequents())
    assert got == COUNTERMODEL_SMALL_FINGERPRINT, got


def test_countermodel_golden_wide():
    sequents = _wide_invalid_sequents()
    for gamma, delta in sequents:
        cm = countermodel(gamma, delta)
        assert cm is not None
        assert not sequent_satisfied(cm, Sequent.of(gamma, delta))
    got = _countermodel_fingerprint(sequents)
    assert got == COUNTERMODEL_WIDE_FINGERPRINT, got


_g, _d, _a, _b = Var("g"), Var("d"), Var("a"), Var("b")
# rules with one premise dropped, and the witnesses recorded for them
MUTANT_WITNESSES = [
    (([([_g], [_d, _a])], ([_g], [_d, Box(_a)])),
     [("a", "n"), ("d", "0"), ("g", "n")]),
    (([([_g, _a], [_d])], ([_g, Or(_a, _b)], [_d])),
     [("a", "0"), ("b", "n"), ("d", "0"), ("g", "n")]),
    (([([_g, Neg(_b)], [_d])], ([_g, Neg(And(_a, _b))], [_d])),
     [("a", "0"), ("b", "n"), ("d", "0"), ("g", "b")]),
]


def test_schema_counterexample_golden():
    for (premises, conclusion), want in MUTANT_WITNESSES:
        got = schema_counterexample(premises, conclusion)
        assert list(got.items()) == want, list(got.items())


def test_schema_counterexample_golden_on_the_square():
    (premises, conclusion), _ = MUTANT_WITNESSES[0]
    got = schema_counterexample(premises, conclusion, (product_algebra(M4, M4),))
    assert list(got.items()) == [("a", ("0", "n")), ("d", ("0", "0")),
                                 ("g", ("0", "n"))], list(got.items())


def _holds(m, assignment, side):
    """meet(left) <= join(right) at one assignment, evaluated pointwise."""
    left, right = side
    lo, hi = m.top(), m.ops["bot"]()
    for f in left:
        lo = m.ops["and"](lo, evaluate(f, assignment, m))
    for f in right:
        hi = m.ops["or"](hi, evaluate(f, assignment, m))
    return m.leq(lo, hi)


def _schemas_and_mutants():
    """Every rule schema, and every logical rule with one of its
    premises dropped."""
    out = list(_SOUNDNESS_SCHEMA.values())
    for rule, (premises, conclusion) in _SOUNDNESS_SCHEMA.items():
        if rule.value not in ("axiom", "weak_l", "weak_r", "cut"):
            out += [(premises[:i] + premises[i + 1:], conclusion)
                    for i in range(len(premises))]
    return out


def test_the_square_agrees_with_m4():
    # M4 alone decides soundness over its square: both find a witness or
    # neither does, and a square witness projects, in one coordinate, to
    # an assignment into M4 where every premise holds and the conclusion
    # fails, checked pointwise
    square = product_algebra(M4, M4)
    refuted = 0
    for premises, conclusion in _schemas_and_mutants():
        on_m4 = schema_counterexample(premises, conclusion, (M4,))
        on_square = schema_counterexample(premises, conclusion, (square,))
        assert (on_m4 is None) == (on_square is None), (premises, conclusion)
        if on_square is None:
            continue
        refuted += 1
        projections = [{x: v[k] for x, v in on_square.items()} for k in (0, 1)]
        assert any(all(_holds(M4, a, side) for side in premises)
                   and not _holds(M4, a, conclusion) for a in projections)
    assert refuted >= 10, refuted


def _broken_spec():
    spec = m4_spec()
    return ExpressivenessSpec({
        **dict(spec.per_value),
        "n": ValueTemplates(n_side=(FormulaTemplate(PLACEHOLDER),),
                            d_side=(FormulaTemplate(Neg(PLACEHOLDER)),)),
    })


TWO_VERDICTS = ("11111111111111111111111111111111111111111111111111111111111111"
                "11111000100111010010110011101011000110010110001111100001100000")


def test_two_equivalence_golden():
    rng = random.Random(23)
    verdicts = []
    for spec in (m4_spec(), _broken_spec()):
        for _ in range(60):
            comps = [[_random_formula(rng, rng.randrange(3), ("p", "q", "r"))
                      for _ in range(rng.randrange(2))] for _ in range(4)]
            verdicts.append(verify_two_equivalence(NSequent.of(*comps), spec))
        for s in (NSequent.of([], [Var("p")], [], []),
                  NSequent.of([Var("p")], [Var("p")], [], [])):
            verdicts.append(verify_two_equivalence(s, spec))
    got = "".join("1" if ok else "0" for ok in verdicts)
    assert got == TWO_VERDICTS, got


# ---------------------------------------------------------------------------
# the queries against pointwise loops over ``evaluate``

# three values, designated {h, 1}; tables that are not lattice operations
# and an order the tables do not respect, so no M4 property helps
THREE = matrix_from_json({
    "values": ["0", "h", "1"],
    "designated": ["h", "1"],
    "connectives": {
        "or": {"arity": 2, "table": {
            "0,0": "0", "0,h": "h", "0,1": "1", "h,0": "1", "h,h": "h",
            "h,1": "1", "1,0": "1", "1,h": "0", "1,1": "1"}},
        "and": {"arity": 2, "table": {
            "0,0": "0", "0,h": "0", "0,1": "0", "h,0": "0", "h,h": "h",
            "h,1": "h", "1,0": "h", "1,h": "h", "1,1": "1"}},
        "neg": {"arity": 1, "table": {"0": "1", "h": "h", "1": "0"}},
        "box": {"arity": 1, "table": {"0": "0", "h": "1", "1": "h"}},
        "bot": {"arity": 0, "table": {"": "h"}},
    },
    "order": [["0", "h"], ["h", "1"]],
})
MATRICES = pytest.mark.parametrize("m", [M4, THREE], ids=["M4", "three"])


@st.composite
def _queries(draw, max_leaves=5, max_vars=4):
    """(gamma, delta, phi) over the first 0 to ``max_vars`` of p, q, r,
    s, t, u."""
    k = draw(st.integers(0, max_vars))
    atoms = st.sampled_from([BOT] + [Var(x) for x in "pqrstu"[:k]])
    fs = st.recursive(atoms, lambda sub: st.one_of(
        sub.map(Neg), sub.map(Box),
        st.tuples(sub, sub).map(lambda t: And(*t)),
        st.tuples(sub, sub).map(lambda t: Or(*t))), max_leaves=max_leaves)
    return (draw(st.lists(fs, max_size=2)), draw(st.lists(fs, max_size=2)),
            draw(fs))


def _names(fs):
    return set().union(*map(variables, fs))


def _first_refuting(gamma, delta, m):
    for v in valuations(_names(gamma + delta), m):
        if all(evaluate(g, v, m) in m.designated for g in gamma) and \
                not any(evaluate(d, v, m) in m.designated for d in delta):
            return v
    return None


def _degree_pointwise(gamma, phi, m):
    meet, top = m.ops["and"], m.top()
    for v in valuations(_names(gamma + [phi]), m):
        bound = top
        for g in gamma:
            bound = meet(bound, evaluate(g, v, m))
        if not m.leq(bound, evaluate(phi, v, m)):
            return False
    return True


@MATRICES
@settings(max_examples=150, deadline=None)
@given(_queries(), st.randoms(use_true_random=False))
def test_planes_are_pointwise_values(m, query, rng):
    # one Planes answers every formula of the query, read in any order,
    # as the G search reads the sequents it tests
    gamma, delta, phi = query
    fs = gamma + delta + [phi]
    rng.shuffle(fs)
    names = sorted(_names(fs))
    vs = valuations(names, m)
    planes = Planes(names, m)
    for f in fs:
        for j, v in enumerate(vs):
            assert [x >> j & 1 for x in planes[f]] == \
                [int(evaluate(f, v, m) == w) for w in m.values]


@MATRICES
def test_variable_planes_closed_form(m):
    # variable i of k has value a on runs of n^(k-1-i) bits, repeated
    # with period n^(k-i): a block pattern times a repunit
    n = len(m.values)
    for k in range(9):
        names = [f"x{i}" for i in range(k)]
        size = n ** k
        got = Planes(names, m)
        for i, planes in enumerate(got[Var(x)] for x in names):
            step = n ** (k - 1 - i)
            repunit = ((1 << size) - 1) // ((1 << step * n) - 1)
            assert planes == tuple((((1 << step) - 1) << a * step) * repunit
                                   for a in range(n))


@MATRICES
@settings(max_examples=150, deadline=None)
@given(_queries())
def test_queries_match_pointwise_loops(m, query):
    gamma, delta, phi = query
    want = _first_refuting(gamma, delta, m)
    got = countermodel(gamma, delta, m)
    assert got == want
    if got is not None:
        assert list(got) == list(want)
    assert matrix_consequence(gamma, delta, m) == (want is None)
    assert degree_consequence(gamma, phi, m) == _degree_pointwise(gamma, phi, m)


def _without(key, connective=None):
    doc = matrix_to_json(M4)
    if connective:
        del doc[key][connective]
    else:
        del doc[key]
    return matrix_from_json(doc)


def test_missing_connective_raises_everywhere():
    m = _without("connectives", "box")
    p = Var("p")
    with pytest.raises(UnknownConnectiveError):
        evaluate(Box(p), {"p": "1"}, m)
    with pytest.raises(UnknownConnectiveError):
        countermodel([Box(p)], [p], m)
    with pytest.raises(UnknownConnectiveError):
        matrix_consequence([], [Or(p, Box(p))], m)
    with pytest.raises(UnknownConnectiveError):
        degree_consequence([p], Box(p), m)
    assert countermodel([p], [Neg(p)], m) == {"p": "1"}


def test_degree_consequence_needs_an_order():
    with pytest.raises(ValueError):
        degree_consequence([Var("p")], Var("p"), _without("order"))


def test_deep_conjunction_chain():
    # 3000 nested conjunctions, alternately on the left and on the right
    p, q, r = Var("p"), Var("q"), Var("r")
    chain = p
    for i in range(3000):
        chain = And(chain, q) if i % 2 else And(q, chain)
    assert evaluate(chain, {"p": "1", "q": "b"}) == "b"
    assert not matrix_consequence([chain], [r])
    cm = countermodel([chain], [r])
    assert cm == {"p": "b", "q": "b", "r": "0"}
    assert not sequent_satisfied(cm, Sequent.of([chain], [r]))
    assert degree_consequence([chain], p)
    assert not degree_consequence([chain], r)


# ---------------------------------------------------------------------------
# Dunn's two planes against the one-hot planes, and which matrix gets which

@pytest.mark.parametrize("m", [M4, load_matrix(bundled_m4_path())], ids=["M4", "m4.json"])
@settings(max_examples=150, deadline=None)
@given(_queries(max_leaves=8, max_vars=6))
def test_dunn_planes_agree_with_the_one_hot_planes(m, query):
    gamma, delta, phi = query
    fs = gamma + delta + [phi]
    names = sorted(_names(fs))
    dunn = value_planes(names, m)
    assert type(dunn) is DunnPlanes
    one_hot = Planes(names, m)
    assert dunn.full == one_hot.full
    for f in fs:
        for i in range(4):
            assert dunn.where(f, i) == one_hot[f][i]
        assert dunn.differ(f, phi) == one_hot.differ(f, phi)
    mask = dunn.refuting(gamma, delta)
    assert mask == one_hot.refuting(gamma, delta)
    if mask:
        assert list(dunn.first(mask).items()) == list(one_hot.first(mask).items())
    assert dunn.below(gamma, [phi, *delta]) == one_hot.below(gamma, [phi, *delta])


def test_m4_in_any_form_gets_the_two_planes():
    assert type(value_planes(["p"], M4)) is DunnPlanes
    assert type(value_planes(["p"], load_matrix(bundled_m4_path()))) is DunnPlanes


def _m4_with(**changes):
    return matrix_from_json({**matrix_to_json(M4), **changes})


def _single_entry_mutant():
    doc = matrix_to_json(M4)
    doc["connectives"]["and"]["table"]["n,b"] = "n"
    return matrix_from_json(doc)


# every matrix but M4 gets the one-hot planes, M4's tables with another
# designated set or order included
ONE_HOT = [_m4_with(designated=["1"]), _m4_with(order=[["0", "n"], ["n", "b"], ["b", "1"]]),
           _single_entry_mutant(), product_algebra(M4, M4)]


@pytest.mark.parametrize("m", ONE_HOT, ids=["designated-1", "chain-order", "mutant", "square"])
@settings(max_examples=100, deadline=None)
@given(_queries(max_leaves=5, max_vars=3))
def test_one_hot_queries_match_pointwise_loops(m, query):
    gamma, delta, phi = query
    seq = Sequent.of(gamma, delta)
    want = next((v for v in valuations(_names(gamma + delta), m)
                 if not sequent_satisfied(v, seq, m)), None)
    got = countermodel(gamma, delta, m)
    assert got == want
    if got is not None:
        assert list(got) == list(want)
    assert degree_consequence(gamma, phi, m) == _degree_pointwise(gamma, phi, m)


def test_other_carriers_and_tables_get_the_one_hot_planes():
    # the matrices above and M4's values with n and b swapped (the same
    # index tables, as n and b are symmetric in M4); answers checked
    # with the pointwise evaluator
    matrices = [*ONE_HOT, _m4_with(values=["0", "b", "n", "1"])]
    formulas = [parse(t) for t in ("p & q", "q | ~#p", "#(p & ~q) | q & p",
                                   "~(q & bot) & (p | #q)")]
    for m in matrices:
        planes = value_planes(["p", "q"], m)
        assert type(planes) is Planes
        for f in formulas:
            for j, (a, b) in enumerate(itertools.product(m.values, repeat=2)):
                got = evaluate(f, {"p": a, "q": b}, m)
                assert planes.where(f, m.index(got)) >> j & 1, (f, a, b)


# ---------------------------------------------------------------------------
# the variable planes shared per kernel shape, and the caches per matrix

def _per_valuation_planes(n, k):
    """Variable i's one-hot planes over k variables into n values, one
    valuation at a time: bit j of plane a is set iff digit i of j in
    base n is a."""
    size, out = n ** k, []
    for i in range(k):
        step = n ** (k - 1 - i)
        digits = bytes(j // step % n for j in range(size))[::-1]   # bit 0 last
        out.append([int(digits.translate(bytes(49 if d == a else 48 for d in range(256))), 2)
                    for a in range(n)])
    return out


SHARED = [M4, _m4_with(designated=["1"]), product_algebra(M4, M4)]


@pytest.mark.parametrize("m", SHARED, ids=["dunn", "one-hot", "square"])
def test_variable_planes_are_built_once_per_shape(m):
    from tml.matrix import _SHAPES, _SHAPES_MAX
    n = len(m.values)
    for k in range(5):
        xs = [f"x{i}" for i in range(k)]
        ys = [f"y{i}" for i in range(k)]
        a, b = value_planes(xs, m), value_planes(ys, m)
        assert a.full == b.full == (1 << n ** k) - 1
        for x, y, want in zip(xs, ys, _per_valuation_planes(n, k)):
            assert [a.where(Var(x), v) for v in range(n)] == want
            assert [b.where(Var(y), v) for v in range(n)] == want
            assert a[Var(x)] is b[Var(y)]   # one object, shared
    assert all(n ** k <= _SHAPES_MAX for _, n, k in _SHAPES)


def test_large_kernels_keep_no_planes():
    from tml.matrix import _SHAPES, _SHAPES_MAX
    names = [f"x{i}" for i in range(9)]
    f = parse(" | ".join(names))
    for m in SHARED[:2]:
        assert countermodel([], [f], m) == dict.fromkeys(names, "0")
    assert [k for k in _SHAPES if k[1:] == (4, 9)] == []
    assert all(n ** k <= _SHAPES_MAX for _, n, k in _SHAPES)


def test_deleted_matrices_leave_no_cached_tables():
    # each matrix's index tables and signed rule tables go with it
    import gc

    from tml import matrix, signed
    goal = [signed.parse_signed(t) for t in ("0:p", "n:p", "b:p", "1:p")]
    ids = set()
    for _ in range(50):
        square, one = product_algebra(M4, M4), _m4_with(designated=["1"])
        for m in (square, one):
            assert countermodel([Var("p")], [Var("q")], m) is not None
        assert signed.sf_prove(goal, one) is not None
        assert {id(square), id(one)} <= matrix._TABLES.keys()
        assert id(one) in signed._RULE_TABLES
        ids |= {id(square), id(one)}
        del square, one, m
    gc.collect()
    live = {id(o) for o in gc.get_objects() if isinstance(o, LogicalMatrix)}
    assert not (ids - live) & (matrix._TABLES.keys() | signed._RULE_TABLES.keys())
