"""Tetravalent modal algebras and their laws, checked on the kernel.

An algebra here is a ``LogicalMatrix``: a finite carrier with meet
(``and``), join (``or``), an involutive negation (``neg``), a necessity
operator (``box``) and a bottom constant (``bot``), with a designated set
and an order that the laws do not read.  M4 is one, read as an algebra
and as a matrix with b and 1 designated, and ``product_algebra`` builds
its powers.  The laws are formula texts that ``check_tma_laws``
evaluates under every assignment at once with the value-plane kernel of
``matrix``; ``matrix.evaluate`` is the pointwise evaluator the tests
compare the kernel with.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import Hashable, Optional

from .matrix import LogicalMatrix, Operation, value_planes
from .record import Record
from .syntax import Formula, parse, variables_of

__all__ = ["LawCheck", "TmaLawReport", "product_algebra", "check_tma_laws"]

Element = Hashable


def product_algebra(a: LogicalMatrix, b: LogicalMatrix) -> LogicalMatrix:
    """Componentwise product of two matrices with the same connectives.
    Its values are pairs, in ``itertools.product`` order; each
    connective acts on each coordinate; a pair is designated when both
    coordinates are; and the order is componentwise, or None when a
    factor has none."""
    values = tuple(itertools.product(a.values, b.values))
    ops = {}
    for name, op in a.ops.items():
        other = b.ops[name]
        ops[name] = Operation(op.arity, {
            args: (op.table[tuple(x for x, _ in args)], other.table[tuple(y for _, y in args)])
            for args in itertools.product(values, repeat=op.arity)})
    designated = frozenset(v for v in values if v[0] in a.designated and v[1] in b.designated)
    order = None
    if a.order is not None and b.order is not None:
        order = frozenset(((x1, y1), (x2, y2)) for x1, x2 in a.order for y1, y2 in b.order)
    return LogicalMatrix(values, designated, ops, order, a.connective_order)


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


def check_tma_laws(m: LogicalMatrix) -> TmaLawReport:
    """Check every law under all assignments at once: an equation fails
    where its sides take different values, a law where its premises hold
    and its conclusion fails.  A failure carries its first failing
    assignment in ``itertools.product`` order."""
    checks = []
    for name, equations in _parsed_laws():
        names = variables_of(f for sides in equations for f in sides)
        planes = value_planes(names, m)
        *premises, fails = [planes.differ(x, y) for x, y in equations]
        for mask in premises:
            fails &= ~mask
        witness = tuple(planes.first(fails).values()) if fails else None
        checks.append(LawCheck(name, not fails, witness))
    return TmaLawReport(tuple(checks))
