"""Tetravalent modal algebras and their laws, checked on the kernel.

An algebra here is a finite carrier with meet, join, an involutive
negation, a necessity operator and a bottom constant.  The laws are
formula texts that ``check_tma_laws`` evaluates under every assignment
at once with the value-plane kernel of ``matrix``; ``algebra_evaluate``
is the pointwise evaluator the tests compare the kernel with.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property
from typing import Hashable, Mapping, Optional

from .matrix import M4, LogicalMatrix, value_planes
from .record import Record
from .syntax import And, Bot, Formula, Neg, Or, Var, parse, variables_of

__all__ = [
    "Algebra", "LawCheck", "TmaLawReport", "m4_algebra", "product_algebra",
    "check_tma_laws", "algebra_evaluate",
]

Element = Hashable


class Algebra(Record):
    """Finite algebra with meet, join, negation, box and bottom."""

    carrier: tuple[Element, ...]
    meet: Mapping[tuple[Element, Element], Element]
    join: Mapping[tuple[Element, Element], Element]
    neg: Mapping[Element, Element]
    box: Mapping[Element, Element]
    zero: Element

    @property
    def one(self) -> Element:
        return self.neg[self.zero]

    def leq(self, a: Element, b: Element) -> bool:
        return self.meet[(a, b)] == a

    def tables(self) -> dict[str, tuple[int, ...]]:
        """The operations as flat index tables into the carrier, the form
        ``LogicalMatrix.tables`` gives the value-plane kernel; built on
        first use."""
        return self._tables

    @cached_property
    def _tables(self) -> dict[str, tuple[int, ...]]:
        idx = {e: i for i, e in enumerate(self.carrier)}
        pairs = list(itertools.product(self.carrier, repeat=2))
        return {"and": tuple(idx[self.meet[p]] for p in pairs),
                "or": tuple(idx[self.join[p]] for p in pairs),
                "neg": tuple(idx[self.neg[e]] for e in self.carrier),
                "box": tuple(idx[self.box[e]] for e in self.carrier),
                "bot": (idx[self.zero],)}

    @cached_property
    def leq_pairs(self) -> tuple[tuple[int, int], ...]:
        """The order as index pairs (i, j), carrier[i] <= carrier[j]."""
        pairs = itertools.product(range(len(self.carrier)), repeat=2)
        return tuple((i, j) for i, j in pairs if self.leq(self.carrier[i], self.carrier[j]))


def m4_algebra(m: LogicalMatrix = M4) -> Algebra:
    return Algebra(
        carrier=m.values,
        meet={k: v for k, v in m.ops["and"].table.items()},
        join={k: v for k, v in m.ops["or"].table.items()},
        neg={k[0]: v for k, v in m.ops["neg"].table.items()},
        box={k[0]: v for k, v in m.ops["box"].table.items()},
        zero=m.ops["bot"].table[()],
    )


def product_algebra(a: Algebra, b: Algebra) -> Algebra:
    """Componentwise product; carrier elements are pairs."""
    carrier = tuple(itertools.product(a.carrier, b.carrier))
    return Algebra(
        carrier=carrier,
        meet={((x1, y1), (x2, y2)): (a.meet[(x1, x2)], b.meet[(y1, y2)])
              for (x1, y1), (x2, y2) in itertools.product(carrier, repeat=2)},
        join={((x1, y1), (x2, y2)): (a.join[(x1, x2)], b.join[(y1, y2)])
              for (x1, y1), (x2, y2) in itertools.product(carrier, repeat=2)},
        neg={(x, y): (a.neg[x], b.neg[y]) for x, y in carrier},
        box={(x, y): (a.box[x], b.box[y]) for x, y in carrier},
        zero=(a.zero, b.zero),
    )


def algebra_evaluate(f: Formula, assignment: Mapping[str, Element], alg: Algebra) -> Element:
    """Evaluate a formula under a variable assignment into the algebra;
    iterative, walking the formula as ``matrix.evaluate`` does."""
    # (table, pending right child | (left value,) | None for unary)
    stack: list[tuple[Mapping, object]] = []
    g = f
    while True:
        while type(g) is not Var and type(g) is not Bot:
            if type(g) is And or type(g) is Or:
                stack.append((alg.meet if type(g) is And else alg.join, g.right))
                g = g.left
            else:
                stack.append((alg.neg if type(g) is Neg else alg.box, None))
                g = g.child
        val = assignment[g.name] if type(g) is Var else alg.zero
        while stack:
            table, right = stack.pop()
            if right is None:
                val = table[val]
            elif type(right) is tuple:
                val = table[(right[0], val)]
            else:
                stack.append((table, (val,)))
                g = right
                break
        else:
            return val


class LawCheck(Record):
    name: str
    holds: bool
    witness: Optional[tuple[Element, ...]] = None

    def __str__(self) -> str:
        if self.holds:
            return f"{self.name}: ok"
        return f"{self.name}: FAILS at {self.witness}"


class TmaLawReport(Record):
    checks: tuple[LawCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.holds for c in self.checks)

    def failing(self) -> list[LawCheck]:
        return [c for c in self.checks if not c.holds]

    def by_name(self, name: str) -> LawCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.checks)


# The laws in report order over a, b, c (argument order, so the lowest
# failing assignment is the first failing itertools.product tuple), with
# bot for zero, ~bot for one and x <= y written x & y = x.
_LAWS = """
or_commutative               a | b = b | a
and_commutative              a & b = b & a
or_associative               a | (b | c) = (a | b) | c
and_associative              a & (b & c) = (a & b) & c
or_idempotent                a | a = a
and_idempotent               a & a = a
absorption_join              a | a & b = a
absorption_meet              a & (a | b) = a
distributive_meet_over_join  a & (b | c) = a & b | a & c
distributive_join_over_meet  a | b & c = (a | b) & (a | c)
bottom_is_join_unit          a | bot = a
bottom_is_meet_zero          a & bot = bot
top_is_join_zero             a | ~bot = ~bot
top_is_meet_unit             a & ~bot = a
neg_involution               ~~a = a
de_morgan_join               ~(a | b) = ~a & ~b
modal_axiom_box_meet_neg     #a & ~a = bot
modal_axiom_neg_box_meet     ~#a & a = ~a & a
neg_box_join_is_top          ~#a | a = ~bot
box_join_neg                 #a | ~a = a | ~a
box_excluded_middle          #a | ~#a = ~bot
box_non_contradiction        #a & ~#a = bot
box_decreasing               #a & a = #a
box_preserves_top            #~bot = ~bot
box_preserves_bottom         #bot = bot
box_idempotent               ##a = #a
box_distributes_over_meet    #(a & b) = #a & #b
box_join_boxed               #(a | #b) = #a | #b
box_of_neg_box               #~#a = ~#a
meet_with_box_neg            a & #~a = bot
box_of_boxed_meet            #(#a & #b) = #a & #b
box_of_boxed_join            #(#a | #b) = #a | #b
box_join_implication         a & (b | c) = a, a & ~c & b = a & ~c => a & (b | #c) = a
"""


@cache
def _parsed_laws() -> tuple[tuple[str, list[tuple[Formula, Formula]]], ...]:
    """Each law's name and equations, the conclusion last; parsed on
    first use, so that importing the module parses nothing."""
    laws = []
    for line in _LAWS.strip().splitlines():
        name, text = line.split(None, 1)
        sides = [equation.split(" = ") for equation in text.replace(" => ", ", ").split(", ")]
        laws.append((name, [(parse(x), parse(y)) for x, y in sides]))
    return tuple(laws)


def check_tma_laws(alg: Algebra) -> TmaLawReport:
    """Check every law under all assignments at once: an equation fails
    where its sides take different values, a law where its premises hold
    and its conclusion fails.  A failure carries its first failing
    assignment in ``itertools.product`` order."""
    checks = []
    for name, equations in _parsed_laws():
        names = variables_of(f for sides in equations for f in sides)
        planes = value_planes(names, alg.carrier, alg.tables())
        *premises, fails = [planes.differ(x, y) for x, y in equations]
        for mask in premises:
            fails &= ~mask
        witness = tuple(planes.first(fails).values()) if fails else None
        checks.append(LawCheck(name, not fails, witness))
    return TmaLawReport(tuple(checks))
