import random
import time

import pytest

from tml import translation
from tml.matrix import M4, valuations
from tml.sequents import Sequent, render_sequent, sequent_satisfied
from tml.signed import NSequent, generate_sf_rules, nsequent_satisfied
from tml.syntax import (Box, FormulaTemplate, Neg, PLACEHOLDER, Var, parse, variables_of)
from tml.translation import (ExpressivenessSpec, ValueTemplates, m4_spec,
                             partitions, render_rule_sheet, rule_sheet_json,
                             spec_from_json, spec_to_json, two_of_calculus,
                             two_of_nsequent, verify_two_equivalence)

x = Var("x")
alpha = Var("a")


def seq(text):
    from tml.sequents import parse_sequent
    return parse_sequent(text)


class TestSpec:
    def test_slot_counts(self):
        spec = m4_spec()
        vt = spec.templates("n")
        assert len(vt.n_side) == 2 and len(vt.d_side) == 0
        assert len(spec.templates("0").n_side) == 1
        assert len(spec.templates("b").d_side) == 2

    def test_conditions(self):
        spec = m4_spec()
        assert spec.condition_i_holds(M4)
        assert spec.condition_ii_holds(M4)

    def test_placeholder_heads_the_right_side(self):
        spec = m4_spec()
        for value in ("0", "n"):
            assert spec.templates(value).n_side[0].body is PLACEHOLDER
        for value in ("b", "1"):
            assert spec.templates(value).d_side[0].body is PLACEHOLDER

    def test_corrupted_spec_fails_condition(self):
        spec = m4_spec()
        broken = ExpressivenessSpec({
            **dict(spec.per_value),
            "0": ValueTemplates(n_side=(FormulaTemplate(Neg(PLACEHOLDER)),),
                                d_side=(FormulaTemplate(PLACEHOLDER),)),
        })
        assert not broken.condition_ii_holds(M4)

    def test_condition_ii_golden(self):
        # verdicts recorded from the per-value loop over evaluate that
        # preceded the value planes
        assert "".join("1" if spec.condition_ii_holds(M4) else "0"
                       for spec in _spec_mutants()) == CONDITION_II_VERDICTS

    def test_json_roundtrip(self):
        spec = m4_spec()
        again = spec_from_json(spec_to_json(spec))
        assert again == spec


def _spec_mutants():
    """m4_spec with one template dropped, moved to the other side or
    boxed, in turn."""
    spec = m4_spec()
    for value, vt in spec.per_value.items():
        for side, other in (("n_side", "d_side"), ("d_side", "n_side")):
            temps = getattr(vt, side)
            for i, t in enumerate(temps):
                rest = temps[:i] + temps[i + 1:]
                boxed = FormulaTemplate(Box(t.body))
                for changed in ({side: rest},
                                {side: rest, other: getattr(vt, other) + (t,)},
                                {side: rest[:i] + (boxed,) + rest[i:]}):
                    yield ExpressivenessSpec({
                        **dict(spec.per_value),
                        value: ValueTemplates(**{side: temps, other: getattr(vt, other),
                                                 **changed})})


CONDITION_II_VERDICTS = "000001001001000000000001"


class TestPartitions:
    def test_single_slot_counts(self):
        spec = m4_spec()
        assert len(partitions(NSequent.of([x], [], [], []), spec)) == 2
        assert len(partitions(NSequent.of([x], [x], [x], [x]), spec)) == 16
        assert len(partitions(NSequent.of([], [], [], []), spec)) == 1


class TestTwoOfNSequent:
    def test_four_singleton_translations(self):
        spec = m4_spec()
        table = {
            (0,): {"x =>", "=> ~x"},
            (1,): {"x =>", "~x =>"},
            (2,): {"=> x", "=> ~x"},
            (3,): {"~x =>", "=> x"},
        }
        for (idx,), expected in table.items():
            comps = [[], [], [], []]
            comps[idx] = [x]
            got = {render_sequent(s) for s in two_of_nsequent(NSequent.of(*comps), spec)}
            assert got == expected, idx

    def test_axiom_collapse(self):
        spec = m4_spec()
        twos = two_of_nsequent(NSequent.of([x], [x], [x], [x]), spec)
        assert len(twos) == 7
        listed = {
            "x, ~x => x", "x, ~x => ~x", "x => x, ~x",
            "x, ~x => x, ~x", "~x => x, ~x",
        }
        bare = {"x => x", "~x => ~x"}
        got = {render_sequent(s) for s in twos}
        assert got == listed | bare
        # each is derivable from the structural axiom by weakening
        assert all(s.left & s.right for s in twos)


class TestEquivalence:
    def test_singleton(self):
        spec = m4_spec()
        assert verify_two_equivalence(NSequent.of([Var("p")], [], [], []), spec)

    def test_biconditional_is_pointwise(self):
        spec = m4_spec()
        s = NSequent.of([Var("p")], [], [], [])
        twos = two_of_nsequent(s, spec)
        for v in valuations({"p"}):
            assert nsequent_satisfied(v, s) == all(
                sequent_satisfied(v, t) for t in twos)
            assert nsequent_satisfied(v, s) == (v["p"] == "0")

    def test_random_nsequents(self, small_pool):
        spec = m4_spec()
        rng = random.Random(17)
        for _ in range(100):
            comps = [rng.sample(small_pool, rng.randrange(0, 3)) for _ in range(4)]
            assert verify_two_equivalence(NSequent.of(*comps), spec)

    def test_corrupted_spec_breaks_equivalence(self):
        broken = _broken_spec()
        bad = [s for s in [NSequent.of([], [Var("p")], [], []),
                           NSequent.of([Var("p")], [Var("p")], [], [])]
               if not verify_two_equivalence(s, broken)]
        assert bad


def _three_slot_spec():
    """m4_spec with a third, redundant, n-side slot for n: #p."""
    spec = m4_spec()
    vt = spec.templates("n")
    return ExpressivenessSpec({
        **dict(spec.per_value),
        "n": ValueTemplates(n_side=vt.n_side + (FormulaTemplate(Box(PLACEHOLDER)),),
                            d_side=()),
    })


def _broken_spec():
    """m4_spec with n pinned by p => and => ~p, which 0 meets too."""
    return ExpressivenessSpec({
        **dict(m4_spec().per_value),
        "n": ValueTemplates(n_side=(FormulaTemplate(PLACEHOLDER),),
                            d_side=(FormulaTemplate(Neg(PLACEHOLDER)),)),
    })


SPECS = pytest.mark.parametrize("spec", [m4_spec(), _broken_spec(), _three_slot_spec()],
                                ids=["m4", "broken", "three-slot"])


def _pointwise_two_equivalence(s, spec):
    """At every valuation, the n-sequent holds iff every sequent of its
    translation holds, each evaluated pointwise."""
    twos = two_of_nsequent(s, spec)
    names = variables_of(f for comp in s.components for f in comp)
    return all(nsequent_satisfied(v, s) == all(sequent_satisfied(v, t) for t in twos)
               for v in valuations(names))


def _random_nsequent(rng, pool, n_formulas):
    comps = [[] for _ in range(4)]
    for f in rng.sample(pool, n_formulas):
        comps[rng.randrange(4)].append(f)
    return NSequent.of(*comps)


class TestOnePassEquivalence:
    @SPECS
    def test_matches_the_pointwise_check(self, spec, small_pool, monkeypatch):
        rng = random.Random(41)
        r = Var("r")
        pool = small_pool + [Neg(r), Box(r), parse("r & p"), parse("~(q | r)"), parse("#r | ~p")]
        cases = [_random_nsequent(rng, pool, rng.randrange(9)) for _ in range(60)]
        # up to 12 formulas, over one variable to keep the oracle quick
        p_only = [f for f in small_pool if variables_of([f]) == ["p"]]
        cases += [_random_nsequent(rng, p_only, 12) for _ in range(2)]
        want = [_pointwise_two_equivalence(s, spec) for s in cases]
        # the one-pass check lists no partition
        monkeypatch.setattr(translation, "partitions", None)
        monkeypatch.setattr(translation, "two_of_nsequent", None)
        assert [verify_two_equivalence(s, spec) for s in cases] == want

    def test_raises_as_the_translation_does(self):
        spec = m4_spec()
        p = Var("p")
        no_n_slot = ExpressivenessSpec({
            **dict(spec.per_value), "n": ValueTemplates(n_side=(), d_side=())})
        no_b = ExpressivenessSpec({v: vt for v, vt in spec.per_value.items() if v != "b"})
        for s, sp, error in [
                (NSequent.of([p], [], []), spec, ValueError),      # arity
                (NSequent.of([p], [p], [], []), no_n_slot, ValueError),
                (NSequent.of([], [], [p], []), no_b, KeyError)]:
            with pytest.raises(error) as want:
                two_of_nsequent(s, sp)
            with pytest.raises(error) as got:
                verify_two_equivalence(s, sp)
            assert str(got.value) == str(want.value)
        # the templates of an empty component are not read
        for sp in (no_n_slot, no_b):
            s = NSequent.of([p], [], [], [Neg(p)])
            assert verify_two_equivalence(s, sp) == _pointwise_two_equivalence(s, sp)

    def test_twelve_formulas_take_under_five_ms(self, small_pool):
        # listing its 2^12 partitions took about 60 ms (CPython 3.11, 2-core VM)
        rng = random.Random(5)
        s = _random_nsequent(rng, [f for f in small_pool if len(variables_of([f])) == 2], 12)
        assert sum(map(len, s.components)) == 12
        best = min(_timed(verify_two_equivalence, s, m4_spec()) for _ in range(5))
        assert best < 0.005, best


def _timed(f, *args):
    start = time.perf_counter()
    f(*args)
    return time.perf_counter() - start


def _corrected_or_table():
    """The sixteen (|, value-pair) translated rules, derived from the
    single-slot translations: premises are TWO(i:a) + TWO(j:b), the two
    conclusion alternatives are TWO(sup{i,j} : a|b)."""
    sup = M4.ops["or"].table
    sides = {
        "0": lambda f: [(f, None), (None, Neg(f))],   # f => ; => ~f
        "n": lambda f: [(f, None), (Neg(f), None)],
        "b": lambda f: [(None, f), (None, Neg(f))],
        "1": lambda f: [(Neg(f), None), (None, f)],
    }

    def seq_of(parts):
        left = frozenset(l for l, _ in parts if l is not None)
        right = frozenset(r for _, r in parts if r is not None)
        return Sequent(left, right)

    a, b = Var("a"), Var("b")
    table = {}
    for i in M4.values:
        for j in M4.values:
            premises = [seq_of([e]) for e in sides[i](a)] + [seq_of([e]) for e in sides[j](b)]
            out = sup[(i, j)]
            conclusions = [seq_of([e]) for e in sides[out](parse("a | b"))]
            table[f"or_{i}_{j}"] = (premises, conclusions)
    return table


@pytest.fixture(scope="module")
def calc():
    return two_of_calculus(generate_sf_rules(M4), m4_spec())


class TestTwoOfCalculus:

    def test_or_rule_pair(self, calc):
        rule = next(r for r in calc.rules if r.name == "or_1_0")
        assert {render_sequent(s) for s in rule.premises} == {
            "=> a", "~a =>", "b =>", "=> ~b"}
        assert {render_sequent(s) for s in rule.conclusions} == {
            "=> a | b", "~(a | b) =>"}

    def test_neg_n_trivial_alternative_deleted(self, calc):
        rule = next(r for r in calc.rules if r.name == "neg_n")
        assert [render_sequent(s) for s in rule.conclusions] == ["~~a =>"]
        assert {render_sequent(s) for s in rule.premises} == {"a =>", "~a =>"}

    def test_axioms_derivable_by_weakening(self, calc):
        assert len(calc.axioms) == 7
        assert all(s.left & s.right for s in calc.axioms)
        listed = {
            "a, ~a => a", "a, ~a => ~a", "a => a, ~a",
            "a, ~a => a, ~a", "~a => a, ~a",
        }
        rendered = {render_sequent(s) for s in calc.axioms}
        assert listed <= rendered

    def test_reproduces_the_or_table(self, calc):
        expected = _corrected_or_table()
        got = {r.name: r for r in calc.rules if r.name.startswith("or_")}
        assert set(got) == set(expected)
        for name, (premises, conclusions) in expected.items():
            rule = got[name]
            assert set(rule.premises) == set(premises), name
            assert set(rule.conclusions) == set(conclusions), name

    def test_thirty_two_or_alternatives(self, calc):
        ors = [r for r in calc.rules if r.name.startswith("or_")]
        assert len(ors) == 16
        assert sum(len(r.conclusions) for r in ors) == 32

    def test_sheet_rendering(self, calc):
        text = render_rule_sheet(calc)
        assert "[or_1_0]" in text
        assert "G" in text and "D" in text
        doc = rule_sheet_json(calc)
        assert {r["name"] for r in doc["rules"]} >= {"or_1_0", "neg_n", "box_1"}
        first = next(r for r in doc["rules"] if r["name"] == "or_1_0")
        assert first["premises"][0]["left"][0] == "G"
        assert first["premises"][0]["right"][0] == "D"


class TestSizeBound:
    def test_two_count_bound(self, small_pool):
        spec = m4_spec()
        rng = random.Random(23)
        for _ in range(50):
            comps = [rng.sample(small_pool, rng.randrange(0, 3)) for _ in range(4)]
            s = NSequent.of(*comps)
            n_parts = len(partitions(s, spec))
            assert len(two_of_nsequent(s, spec)) <= n_parts
