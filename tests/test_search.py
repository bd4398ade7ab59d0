"""The walk of ``tml.search.decide``, on toy expansions over strings."""

from tml.search import decide


def _walk(rules):
    expanded = []

    def expand(seq):
        expanded.append(seq)
        return rules.get(seq)

    return expanded, expand


def test_the_first_undecidable_sequent_fails_the_goal():
    # no rule applies to a, so goal fails and b is never looked at
    expanded, expand = _walk({"goal": (["a", "b"], lambda subs: ("goal", subs)),
                              "b": ((), lambda subs: "b")})
    assert decide("goal", expand) is None
    assert expanded == ["goal", "a"]


def test_a_shared_premise_is_expanded_once():
    expanded, expand = _walk({"goal": (["a", "b"], lambda subs: ("goal", subs)),
                              "a": (["c"], lambda subs: ("a", subs)),
                              "b": (["c"], lambda subs: ("b", subs)),
                              "c": ((), lambda subs: "c")})
    assert decide("goal", expand) == ("goal", (("a", ("c",)), ("b", ("c",))))
    assert expanded == ["goal", "a", "c", "b"]
