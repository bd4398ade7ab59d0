import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from tml.syntax import (And, BOT, Box, FormulaTemplate, Neg, Or, SyntaxError_,
                        Var, closure, parse, render, subformulas, substitute, variables,
                        variables_of)

p, q, r = Var("p"), Var("q"), Var("r")


def formulas(max_leaves=6):
    atoms = st.one_of(st.sampled_from([p, q, r]), st.just(BOT))
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            sub.map(Neg), sub.map(Box),
            st.tuples(sub, sub).map(lambda t: And(*t)),
            st.tuples(sub, sub).map(lambda t: Or(*t)),
        ),
        max_leaves=max_leaves)


class TestParse:
    def test_modal_axiom_shape(self):
        assert parse("p | ~#p") is Or(p, Neg(Box(p)))

    def test_neg_and_box(self):
        assert parse("~p & #p") is And(Neg(p), Box(p))

    def test_and_binds_tighter(self):
        assert parse("p & q | r") is Or(And(p, q), r)

    def test_unicode_aliases(self):
        assert parse("p ∨ ¬□p") is parse("p | ~#p")
        assert parse("⊥") is BOT

    def test_left_associativity(self):
        assert parse("p | q | r") is Or(Or(p, q), r)
        assert parse("p & q & r") is And(And(p, q), r)

    def test_error_carries_position(self):
        with pytest.raises(SyntaxError_) as exc:
            parse("p |")
        assert exc.value.line == 1
        assert exc.value.column == 4
        with pytest.raises(SyntaxError_):
            parse("p @ q")
        with pytest.raises(SyntaxError_):
            parse("(p | q")

    def test_deep_prefix_runs_and_parentheses(self):
        f = p
        for _ in range(3000):
            f = Neg(f)
        assert parse("~" * 3000 + "p") is f
        assert parse("(" * 3000 + "p" + ")" * 3000) is p
        g = p
        for i in range(1500):
            g = Box(Or(g, q)) if i % 2 else Neg(And(q, g))
        assert parse(g.text) is g
        with pytest.raises(SyntaxError_) as exc:
            parse("(" * 3000 + "p" + ")" * 2999)
        assert str(exc.value) == "expected ')', found 'end of input' at line 1, column 6001"

    def test_bot_reserved(self):
        assert parse("bot") is BOT
        assert parse("botx") is Var("botx")
        with pytest.raises(ValueError):
            Var("bot")


class TestRender:
    def test_unicode(self):
        assert render(Or(p, Neg(Box(p))), "unicode") == "p ∨ ¬□p"

    def test_bot_ascii(self):
        assert render(BOT) == "bot"

    def test_forced_parens(self):
        assert render(And(Or(p, q), r)) == "(p | q) & r"
        assert render(Or(p, Or(q, r))) == "p | (q | r)"
        assert render(Neg(And(p, q))) == "~(p & q)"
        assert render(Box(Or(p, q)), "unicode") == "□(p ∨ q)"

    def test_unicode_deep_chain(self):
        # 3000 nested connectives; names that contain "bot" stay names
        a, b = Var("botx"), Var("x_bot")
        f, want = a, "botx"
        for i in range(3000):
            if i % 3 == 0:
                f, want = And(f, Neg(b)), f"{want} ∧ ¬x_bot"
            elif i % 3 == 1:
                f, want = Or(BOT, f), f"⊥ ∨ {want}"
            else:
                f, want = Box(f), f"□({want})"
        assert render(f, "unicode") == want

    @given(formulas())
    def test_roundtrip(self, f):
        assert parse(render(f)) is f
        assert parse(render(f, "unicode")) is f


class TestSubstitute:
    def test_basic(self):
        t = FormulaTemplate(Neg(p))
        assert substitute(t, Or(q, r)) is Neg(Or(q, r))

    def test_identity(self):
        t = FormulaTemplate(p)
        phi = parse("#q & ~r")
        assert substitute(t, phi) is phi

    def test_under_box(self):
        assert substitute(FormulaTemplate(Neg(p)), Box(q)) is Neg(Box(q))

    def test_binary_and_shared(self):
        # operand order is kept, and the shared subformula ~p is built once
        t = FormulaTemplate(parse("(p | ~p) & #~p & bot"))
        assert substitute(t, q) is parse("(q | ~q) & #~q & bot")

    def test_rejects_other_variables(self):
        with pytest.raises(ValueError):
            FormulaTemplate(Or(p, q))


class TestClosure:
    def test_boxed_variable(self):
        assert closure([Box(p)]) == {Box(p), Neg(Box(p)), p, Neg(p)}

    def test_single_variable(self):
        assert closure([p]) == {p, Neg(p)}

    def test_negated_disjunction(self):
        got = closure([parse("~(p | q)")])
        assert got == {parse("~(p | q)"), parse("p | q"), p, q, Neg(p), Neg(q)}

    @given(st.sets(formulas(max_leaves=4), max_size=3))
    def test_idempotent_and_monotone(self, fs):
        c = closure(fs)
        assert closure(c) == c
        assert c >= closure(set(list(fs)[:1])) if fs else True
        total = sum(len(subformulas(f)) for f in fs)
        assert len(c) <= 4 * max(total, 1)

    @given(st.sets(formulas(max_leaves=4), max_size=2),
           st.sets(formulas(max_leaves=4), max_size=2))
    def test_monotone_in_argument(self, a, b):
        assert closure(a) <= closure(a | b)


class TestVariables:
    @given(st.lists(st.recursive(
        st.one_of(st.sampled_from([Var(f"x{i}") for i in range(12)] + [p, q]), st.just(BOT)),
        lambda sub: st.one_of(sub.map(Neg), sub.map(Box),
                              st.tuples(sub, sub).map(lambda t: And(*t)),
                              st.tuples(sub, sub).map(lambda t: Or(*t))),
        max_leaves=8), max_size=4))
    def test_one_walk_matches_a_set_per_formula(self, fs):
        assert variables_of(fs) == sorted(set().union(*map(variables, fs)))
        assert variables_of(iter(fs)) == variables_of(fs)


PIECES = ["p", "q", "bot", "~", "#", "&", "|", "(", ")", " ", "\n", "¬", "∨",
          "@", "x1"]


@given(st.lists(st.one_of(st.sampled_from(PIECES + ["⊥", "⇒"]), st.characters()),
                max_size=16))
def test_parse_returns_a_formula_or_a_positioned_error(pieces):
    text = "".join(pieces)
    try:
        f = parse(text)
    except SyntaxError_ as e:
        # positions count the text as typed
        lines = text.split("\n")
        assert 1 <= e.line <= len(lines)
        assert 1 <= e.column <= len(lines[e.line - 1]) + 1
    else:
        assert parse(f.text) is f


@pytest.mark.parametrize("text, line, column", [
    ("⊥ ⊥", 1, 3), ("p ∧ ⊥ )", 1, 7), ("⊥⇒p", 1, 2), ("⊥ &\n⊥ ⊥", 2, 3),
    ("⊥ & (", 1, 6), ("p⊥", 1, 2), ("⊥p", 1, 2), ("⊥⊥", 1, 2)])
def test_an_error_after_an_alias_is_placed_in_the_typed_text(text, line, column):
    with pytest.raises(SyntaxError_) as e:
        parse(text)
    assert (e.value.line, e.value.column) == (line, column)


def _parse_outcomes():
    """What parse makes of seeded inputs, most of them malformed: random
    token strings, and well-formed formulas with one character deleted,
    inserted or swapped.  Each outcome is the rendering or the error
    message with its line and column."""
    rng = random.Random(23)
    pieces = PIECES
    inputs = ["".join(rng.choice(pieces) for _ in range(rng.randrange(0, 9)))
              for _ in range(400)]
    valid = ["p | ~#p", "~(p & q) | #(r | ~q)", "((p))", "#~#~p & (q | bot)",
             "p\n& ~q\n| #(r &\n~p)"]
    for _ in range(400):
        s = rng.choice(valid)
        i = rng.randrange(len(s) + 1)
        c = rng.choice(pieces)
        s = rng.choice([s[:i] + s[i + 1:], s[:i] + c + s[i:], s[:i] + c + s[i + 1:]])
        inputs.append(s)
    out = []
    for s in inputs:
        try:
            out.append(f"{s!r} -> {parse(s).text}")
        except SyntaxError_ as e:
            out.append(f"{s!r} !! {e} ({e.line}, {e.column})")
    return out


# sha256 over the outcomes above, one line each
PARSE_OUTCOMES_FINGERPRINT = "3e8b2239066f6328dcb598b6f034ba7abc9eaf8c6933dcf612ffc38a39afa68a"


def test_parse_outcomes_fingerprint():
    outcomes = _parse_outcomes()
    assert sum(" !! " in o for o in outcomes) > 500
    got = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert got == PARSE_OUTCOMES_FINGERPRINT, got
