"""Brute-force equational law checking for four-valued modal algebras.

An algebra here is a finite carrier with meet, join, an involutive
negation, a necessity operator and a bottom constant.  The checker
verifies the bounded-distributive-lattice laws, the De Morgan laws, the
two defining modal axioms (#a & ~a = 0 and ~#a & a = ~a & a), the
standard stock of derived modal identities, and the implication
(x <= y|z and x&~z <= y) => x <= y|#z, all by exhaustive enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Mapping, Optional

from .matrix import M4, LogicalMatrix
from .syntax import And, Bot, Box, Formula, Neg, Or, Var

__all__ = [
    "Algebra", "LawCheck", "TmaLawReport", "m4_algebra", "product_algebra",
    "check_tma_laws", "algebra_evaluate",
]

Element = Hashable


@dataclass(frozen=True)
class Algebra:
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


def m4_algebra(m: LogicalMatrix = M4) -> Algebra:
    vals = m.values
    return Algebra(
        carrier=vals,
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
    """Evaluate a formula under a variable assignment into the algebra."""
    if isinstance(f, Var):
        return assignment[f.name]
    if isinstance(f, Bot):
        return alg.zero
    if isinstance(f, Neg):
        return alg.neg[algebra_evaluate(f.child, assignment, alg)]
    if isinstance(f, Box):
        return alg.box[algebra_evaluate(f.child, assignment, alg)]
    if isinstance(f, And):
        return alg.meet[(algebra_evaluate(f.left, assignment, alg),
                         algebra_evaluate(f.right, assignment, alg))]
    assert isinstance(f, Or)
    return alg.join[(algebra_evaluate(f.left, assignment, alg),
                     algebra_evaluate(f.right, assignment, alg))]


@dataclass(frozen=True)
class LawCheck:
    name: str
    holds: bool
    witness: Optional[tuple[Element, ...]] = None

    def __str__(self) -> str:
        if self.holds:
            return f"{self.name}: ok"
        return f"{self.name}: FAILS at {self.witness}"


@dataclass(frozen=True)
class TmaLawReport:
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


def _laws() -> list[tuple[str, int, Callable[[Algebra, tuple], bool]]]:
    def mk(alg: Algebra):
        return alg.meet, alg.join, alg.neg, alg.box

    laws: list[tuple[str, int, Callable[[Algebra, tuple], bool]]] = []

    def law(name: str, arity: int):
        def deco(fn):
            laws.append((name, arity, fn))
            return fn
        return deco

    # bounded distributive lattice
    @law("or_commutative", 2)
    def _(alg, e):
        m, j, n, b = mk(alg); a, c = e
        return j[(a, c)] == j[(c, a)]

    @law("and_commutative", 2)
    def _(alg, e):
        m, j, n, b = mk(alg); a, c = e
        return m[(a, c)] == m[(c, a)]

    @law("or_associative", 3)
    def _(alg, e):
        m, j, n, b = mk(alg); a, c, d = e
        return j[(a, j[(c, d)])] == j[(j[(a, c)], d)]

    @law("and_associative", 3)
    def _(alg, e):
        m, j, n, b = mk(alg); a, c, d = e
        return m[(a, m[(c, d)])] == m[(m[(a, c)], d)]

    @law("or_idempotent", 1)
    def _(alg, e):
        m, j, n, b = mk(alg); (a,) = e
        return j[(a, a)] == a

    @law("and_idempotent", 1)
    def _(alg, e):
        m, j, n, b = mk(alg); (a,) = e
        return m[(a, a)] == a

    @law("absorption_join", 2)
    def _(alg, e):
        m, j, n, b = mk(alg); a, c = e
        return j[(a, m[(a, c)])] == a

    @law("absorption_meet", 2)
    def _(alg, e):
        m, j, n, b = mk(alg); a, c = e
        return m[(a, j[(a, c)])] == a

    @law("distributive_meet_over_join", 3)
    def _(alg, e):
        m, j, n, b = mk(alg); a, c, d = e
        return m[(a, j[(c, d)])] == j[(m[(a, c)], m[(a, d)])]

    @law("distributive_join_over_meet", 3)
    def _(alg, e):
        m, j, n, b = mk(alg); a, c, d = e
        return j[(a, m[(c, d)])] == m[(j[(a, c)], j[(a, d)])]

    @law("bottom_is_join_unit", 1)
    def _(alg, e):
        (a,) = e
        return alg.join[(a, alg.zero)] == a

    @law("bottom_is_meet_zero", 1)
    def _(alg, e):
        (a,) = e
        return alg.meet[(a, alg.zero)] == alg.zero

    @law("top_is_join_zero", 1)
    def _(alg, e):
        (a,) = e
        return alg.join[(a, alg.one)] == alg.one

    @law("top_is_meet_unit", 1)
    def _(alg, e):
        (a,) = e
        return alg.meet[(a, alg.one)] == a

    # De Morgan negation
    @law("neg_involution", 1)
    def _(alg, e):
        (a,) = e
        return alg.neg[alg.neg[a]] == a

    @law("de_morgan_join", 2)
    def _(alg, e):
        m, j, n, b = mk(alg); a, c = e
        return n[j[(a, c)]] == m[(n[a], n[c])]

    # the two defining modal axioms
    @law("modal_axiom_box_meet_neg", 1)
    def _(alg, e):
        m, j, n, b = mk(alg); (a,) = e
        return m[(b[a], n[a])] == alg.zero

    @law("modal_axiom_neg_box_meet", 1)
    def _(alg, e):
        m, j, n, b = mk(alg); (a,) = e
        return m[(n[b[a]], a)] == m[(n[a], a)]

    # derived modal identities
    @law("neg_box_join_is_top", 1)
    def _(alg, e):
        m, j, n, b = mk(alg); (a,) = e
        return j[(n[b[a]], a)] == alg.one

    @law("box_join_neg", 1)
    def _(alg, e):
        m, j, n, b = mk(alg); (a,) = e
        return j[(b[a], n[a])] == j[(a, n[a])]

    @law("box_excluded_middle", 1)
    def _(alg, e):
        m, j, n, b = mk(alg); (a,) = e
        return j[(b[a], n[b[a]])] == alg.one

    @law("box_non_contradiction", 1)
    def _(alg, e):
        m, j, n, b = mk(alg); (a,) = e
        return m[(b[a], n[b[a]])] == alg.zero

    @law("box_decreasing", 1)
    def _(alg, e):
        (a,) = e
        return alg.leq(alg.box[a], a)

    @law("box_preserves_top", 0)
    def _(alg, e):
        return alg.box[alg.one] == alg.one

    @law("box_preserves_bottom", 0)
    def _(alg, e):
        return alg.box[alg.zero] == alg.zero

    @law("box_idempotent", 1)
    def _(alg, e):
        (a,) = e
        return alg.box[alg.box[a]] == alg.box[a]

    @law("box_distributes_over_meet", 2)
    def _(alg, e):
        m, j, n, b = mk(alg); a, c = e
        return b[m[(a, c)]] == m[(b[a], b[c])]

    @law("box_join_boxed", 2)
    def _(alg, e):
        m, j, n, b = mk(alg); a, c = e
        return b[j[(a, b[c])]] == j[(b[a], b[c])]

    @law("box_of_neg_box", 1)
    def _(alg, e):
        m, j, n, b = mk(alg); (a,) = e
        return b[n[b[a]]] == n[b[a]]

    @law("meet_with_box_neg", 1)
    def _(alg, e):
        m, j, n, b = mk(alg); (a,) = e
        return m[(a, b[n[a]])] == alg.zero

    @law("box_of_boxed_meet", 2)
    def _(alg, e):
        m, j, n, b = mk(alg); a, c = e
        return b[m[(b[a], b[c])]] == m[(b[a], b[c])]

    @law("box_of_boxed_join", 2)
    def _(alg, e):
        m, j, n, b = mk(alg); a, c = e
        return b[j[(b[a], b[c])]] == j[(b[a], b[c])]

    # (x <= y|z and x & ~z <= y) implies x <= y | #z
    @law("box_join_implication", 3)
    def _(alg, e):
        m, j, n, b = mk(alg); x, y, z = e
        if alg.leq(x, j[(y, z)]) and alg.leq(m[(x, n[z])], y):
            return alg.leq(x, j[(y, b[z])])
        return True

    return laws


def check_tma_laws(alg: Algebra) -> TmaLawReport:
    """Run every law over all element tuples; failures carry a witness."""
    checks = []
    for name, arity, fn in _laws():
        holds, witness = True, None
        for elems in itertools.product(alg.carrier, repeat=arity):
            if not fn(alg, elems):
                holds, witness = False, elems
                break
        checks.append(LawCheck(name, holds, witness))
    return TmaLawReport(tuple(checks))
