"""Single-conclusion calculus G: checking and bounded cut-free search.

The calculus has the structural axiom a => a, the modal axiom
=> a | ~#a, weakening and cut, and the logic rules displayed by its
definition, including the context-free contraposition rule and the two
box rules that rewrite ~a to ~#a on the left and a & ~a to a & ~#a on
the right.  Cut-free backward search is exhaustive up to a height
bound; it exists to probe which sequents have no cut-free proof, and
the probe reports whether the bound cut the search off.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Iterable, Optional

from .matrix import M4, matrix_consequence
from .proofs import CheckError, from_json, passes, render, to_json, walk
from .sc import is_cut_free, prove
from .sequents import Sequent
from .syntax import And, BOT, Box, Formula, Neg, Or, formula_key, parse

__all__ = [
    "GRule", "GSequent", "GProof", "GCheckError", "check_g_proof",
    "verify_g_proof", "g_search_cutfree", "cut_necessity_probe",
    "ProbeReport", "g_proof_to_json", "g_proof_from_json", "render_g_proof",
]


class GRule(str, Enum):
    STRUCT_AX = "g.struct_ax"
    MODAL_AX = "g.modal_ax"
    WEAK = "g.weak"
    CUT = "g.cut"
    AND_L = "g.and_l"
    AND_R = "g.and_r"
    OR_L = "g.or_l"
    OR_R1 = "g.or_r1"
    OR_R2 = "g.or_r2"
    NEG = "g.neg"
    BOT_RULE = "g.bot"
    NEG_NEG_L = "g.neg_neg_l"
    NEG_NEG_R = "g.neg_neg_r"
    BOX_L = "g.box_l"
    BOX_R = "g.box_r"


@dataclass(frozen=True)
class GSequent:
    left: frozenset[Formula]
    right: Formula

    @staticmethod
    def of(left: Iterable[Formula], right: Formula) -> "GSequent":
        return GSequent(frozenset(left), right)

    def __str__(self) -> str:
        lhs = ", ".join(f.text for f in sorted(self.left, key=formula_key))
        return f"{lhs} => {self.right.text}".strip()


@dataclass(frozen=True)
class GProof:
    rule: GRule
    sequent: GSequent
    premises: tuple["GProof", ...] = ()

    def json_fields(self) -> dict:
        return {"rule": self.rule.value,
                "sequent": {"left": [f.text for f in sorted(self.sequent.left, key=formula_key)],
                            "right": [self.sequent.right.text]},
                "premises": []}

    @staticmethod
    def json_reader(doc: dict) -> Callable[[tuple], "GProof"]:
        right = doc["sequent"]["right"]
        if len(right) != 1:
            raise ValueError("G sequents have exactly one conclusion")
        seq = GSequent.of([parse(t) for t in doc["sequent"]["left"]], parse(right[0]))
        rule = GRule(doc["rule"])
        return lambda premises: GProof(rule, seq, premises)

    def label(self) -> str:
        return f"{self.sequent}   [{self.rule.value}]"


def _modal_axiom_shape(f: Formula) -> bool:
    return (isinstance(f, Or) and isinstance(f.right, Neg)
            and isinstance(f.right.child, Box) and f.right.child.child is f.left)


def verify_g_proof(p: GProof, allow_cut: bool = False) -> None:
    """Raise CheckError at the first node, in pre-order, that breaks its rule."""
    for node, path, entering in walk(p):
        if not entering:
            continue
        seq = node.sequent
        L, phi = seq.left, seq.right
        prems = [q.sequent for q in node.premises]
        n = len(prems)
        rule = node.rule
        ok = False
        if rule is GRule.STRUCT_AX:
            ok = n == 0 and L == frozenset({phi})
        elif rule is GRule.MODAL_AX:
            ok = n == 0 and not L and _modal_axiom_shape(phi)
        elif rule is GRule.WEAK:
            ok = (n == 1 and prems[0].right is phi and prems[0].left <= L
                  and len(L - prems[0].left) <= 1)
        elif rule is GRule.CUT:
            if not allow_cut:
                raise CheckError(path, "cut is not allowed here", rule)
            ok = (n == 2 and prems[0].left == L and prems[1].right is phi
                  and prems[1].left == L | {prems[0].right})
        elif rule is GRule.AND_L:
            if n == 1 and prems[0].right is phi:
                for pi in L:
                    if isinstance(pi, And):
                        for ctx in (L - {pi}, L):
                            if prems[0].left == ctx | {pi.left, pi.right}:
                                ok = True
        elif rule is GRule.AND_R:
            ok = (n == 2 and isinstance(phi, And)
                  and prems[0] == GSequent(L, phi.left)
                  and prems[1] == GSequent(L, phi.right))
        elif rule is GRule.OR_L:
            if n == 2 and all(q.right is phi for q in prems):
                for pi in L:
                    if isinstance(pi, Or):
                        for ctx in (L - {pi}, L):
                            if (prems[0].left == ctx | {pi.left}
                                    and prems[1].left == ctx | {pi.right}):
                                ok = True
        elif rule in (GRule.OR_R1, GRule.OR_R2):
            if n == 1 and isinstance(phi, Or) and prems[0].left == L:
                want = phi.left if rule is GRule.OR_R1 else phi.right
                ok = prems[0].right is want
        elif rule is GRule.NEG:
            # contraposition carries no context: from a => b to ~b => ~a
            if (n == 1 and isinstance(phi, Neg) and len(L) == 1):
                (lone,) = L
                if isinstance(lone, Neg):
                    ok = prems[0] == GSequent(frozenset({phi.child}), lone.child)
        elif rule is GRule.BOT_RULE:
            ok = n == 1 and prems[0] == GSequent(L, BOT)
        elif rule is GRule.NEG_NEG_L:
            if n == 1 and prems[0].right is phi:
                for pi in L:
                    if isinstance(pi, Neg) and isinstance(pi.child, Neg):
                        for ctx in (L - {pi}, L):
                            if prems[0].left == ctx | {pi.child.child}:
                                ok = True
        elif rule is GRule.NEG_NEG_R:
            ok = (n == 1 and isinstance(phi, Neg) and isinstance(phi.child, Neg)
                  and prems[0] == GSequent(L, phi.child.child))
        elif rule is GRule.BOX_L:
            # from D, a, ~a => c conclude D, a, ~#a => c
            if n == 1 and prems[0].right is phi:
                for pi in L:
                    if (isinstance(pi, Neg) and isinstance(pi.child, Box)
                            and pi.child.child in L):
                        alpha = pi.child.child
                        for ctx in (L - {pi}, L):
                            if prems[0].left == ctx | {alpha, Neg(alpha)}:
                                ok = True
        elif rule is GRule.BOX_R:
            # from D => a & ~a conclude D => a & ~#a
            if (n == 1 and isinstance(phi, And) and isinstance(phi.right, Neg)
                    and isinstance(phi.right.child, Box)
                    and phi.right.child.child is phi.left):
                alpha = phi.left
                ok = prems[0] == GSequent(L, And(alpha, Neg(alpha)))
        else:  # pragma: no cover
            raise CheckError(path, "unknown rule", rule)
        if not ok:
            raise CheckError(path, "premises do not instantiate the schema", rule)



# ---------------------------------------------------------------------------
# Bounded cut-free backward search.

def _backward_steps(seq: GSequent) -> list[tuple[GRule, list[GSequent]]]:
    L, phi = seq.left, seq.right
    out: list[tuple[GRule, list[GSequent]]] = []

    for beta in sorted(L, key=formula_key):
        out.append((GRule.WEAK, [GSequent(L - {beta}, phi)]))

    for pi in sorted(L, key=formula_key):
        if isinstance(pi, And):
            for ctx in (L - {pi}, L):
                out.append((GRule.AND_L, [GSequent(ctx | {pi.left, pi.right}, phi)]))
        elif isinstance(pi, Or):
            for ctx in (L - {pi}, L):
                out.append((GRule.OR_L, [GSequent(ctx | {pi.left}, phi),
                                         GSequent(ctx | {pi.right}, phi)]))
        elif isinstance(pi, Neg) and isinstance(pi.child, Neg):
            for ctx in (L - {pi}, L):
                out.append((GRule.NEG_NEG_L, [GSequent(ctx | {pi.child.child}, phi)]))
        elif (isinstance(pi, Neg) and isinstance(pi.child, Box)
              and pi.child.child in L):
            alpha = pi.child.child
            for ctx in (L - {pi}, L):
                out.append((GRule.BOX_L, [GSequent(ctx | {alpha, Neg(alpha)}, phi)]))

    if isinstance(phi, And):
        out.append((GRule.AND_R, [GSequent(L, phi.left), GSequent(L, phi.right)]))
        if (isinstance(phi.right, Neg) and isinstance(phi.right.child, Box)
                and phi.right.child.child is phi.left):
            out.append((GRule.BOX_R, [GSequent(L, And(phi.left, Neg(phi.left)))]))
    elif isinstance(phi, Or):
        out.append((GRule.OR_R1, [GSequent(L, phi.left)]))
        out.append((GRule.OR_R2, [GSequent(L, phi.right)]))
    elif isinstance(phi, Neg):
        if isinstance(phi.child, Neg):
            out.append((GRule.NEG_NEG_R, [GSequent(L, phi.child.child)]))
        if len(L) == 1:
            (lone,) = L
            if isinstance(lone, Neg):
                out.append((GRule.NEG, [GSequent(frozenset({phi.child}), lone.child)]))

    if phi is not BOT:
        out.append((GRule.BOT_RULE, [GSequent(L, BOT)]))

    return out


def _bounded_search(s: GSequent, depth: int) -> tuple[Optional[GProof], bool]:
    """The bounded search, and whether any branch was cut off at the
    height bound.  When none was, the whole cut-free search space below
    s was explored and a miss holds at every height."""
    failed_at: dict[GSequent, int] = {}
    bound_hit = False

    def search(seq: GSequent, budget: int) -> Optional[GProof]:
        nonlocal bound_hit
        if budget <= 0:
            bound_hit = True
            return None
        if failed_at.get(seq, -1) >= budget:
            return None
        if seq.left == frozenset({seq.right}):
            return GProof(GRule.STRUCT_AX, seq)
        if not seq.left and _modal_axiom_shape(seq.right):
            return GProof(GRule.MODAL_AX, seq)
        for rule, prems in _backward_steps(seq):
            if any(p == seq for p in prems):
                continue
            subs = []
            for p in prems:
                sub = search(p, budget - 1)
                if sub is None:
                    break
                subs.append(sub)
            else:
                return GProof(rule, seq, tuple(subs))
        prev = failed_at.get(seq, -1)
        if budget > prev:
            failed_at[seq] = budget
        return None

    return search(s, depth), bound_hit


def g_search_cutfree(s: GSequent, depth: int) -> Optional[GProof]:
    """Exhaustive backward search over the cut-free rules, bounded by
    tree height.  Monotone in depth: more depth never loses proofs."""
    return _bounded_search(s, depth)[0]


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of the cut-necessity probe.

    ``bound_hit`` says whether the G search cut some branch off at the
    height bound; ``exhausted`` says that it found no proof without
    doing so, so that no cut-free G proof exists at any height.
    """

    alpha: Formula
    depth: int
    valid: bool
    g_cutfree_found: bool
    sc_cutfree_found: bool
    vacuous_bound: bool
    bound_hit: bool
    exhausted: bool

    def __str__(self) -> str:
        goal = Box(Or(self.alpha, Neg(Box(self.alpha))))
        lines = [
            f"goal: => {goal.text}",
            f"semantically valid: {self.valid}",
            f"cut-free G proof within height {self.depth}: {self.g_cutfree_found}",
            f"cut-free two-sided proof: {self.sc_cutfree_found}",
        ]
        if self.vacuous_bound:
            lines.append("note: height bound is vacuous (no proofs of any kind fit)")
        if self.exhausted:
            lines.append("exhaustive: the G search explored every cut-free backward "
                         "step without reaching the height bound, so no cut-free "
                         "G proof exists at any height")
        elif self.bound_hit:
            lines.append("empirical evidence only: the bounded search does not "
                         "decide unbounded cut-free provability")
        return "\n".join(lines)


def cut_necessity_probe(alpha: Formula, depth: int) -> ProbeReport:
    """Probe => #(a | ~#a): semantically valid and cut-free provable in
    the two-sided calculus, yet no cut-free G proof exists within the
    height bound.  The report says whether that miss is exhaustive or
    cut off by the bound."""
    goal_formula = Box(Or(alpha, Neg(Box(alpha))))
    g_proof, bound_hit = _bounded_search(GSequent.of([], goal_formula), depth)
    valid = matrix_consequence([], [goal_formula], M4)
    sc_proof = prove(Sequent.of([], [goal_formula]))
    sc_found = sc_proof is not None and is_cut_free(sc_proof)
    return ProbeReport(alpha, depth, valid, g_proof is not None, sc_found,
                       vacuous_bound=depth <= 0, bound_hit=bound_hit,
                       exhausted=g_proof is None and not bound_hit)


# ---------------------------------------------------------------------------
# The shared proof-tree routines under this calculus's names.

GCheckError = CheckError
check_g_proof = partial(passes, verify_g_proof)
g_proof_to_json = to_json
g_proof_from_json = partial(from_json, node_class=GProof)
render_g_proof = render
