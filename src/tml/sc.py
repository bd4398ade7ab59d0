"""Cut-free two-sided sequent calculus: checking, search, transformations.

The calculus has the axiom a => a, weakening, cut, and sixteen logical
rules keyed on the shapes |, &, ~|, ~&, ~~, # and ~# on either side.
Sequents are read as sets and the axiom absorbs weakening, so backward
search with premises that retain the principal formula saturates inside
a finite space and is a decision procedure.  Since every premise
contains its conclusion, soundness and completeness make every rule
invertible, and the search applies one rule per sequent without
backtracking.  Search never emits cut; the checker accepts cut only
when asked to.
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import cache, partial
from typing import Callable, Iterable, Optional, Sequence

from .matrix import M4, LogicalMatrix, value_planes
from .proofs import (CheckError, fold, from_json, passes, render, shared, to_json, tree_eq,
                     tree_hash, walk)
from .record import Record
from .search import Step, decide
from .sequents import Sequent, render_sequent, side_texts
from .syntax import (And, Box, Formula, Neg, Or, Var, formula_key, mentions_bot, parse,
                     variables_of)

__all__ = [
    "ScRule", "ScProof", "ScCheckError", "check_sc_proof", "verify_sc_proof",
    "prove", "contrapose", "necessitate", "denecessitate", "rule_soundness",
    "schema_counterexample", "falsum_proof", "proof_to_json", "proof_from_json",
    "render_proof", "proof_size", "is_cut_free",
]


class ScRule(str, Enum):
    AXIOM = "axiom"
    WEAK_L = "weak_l"
    WEAK_R = "weak_r"
    CUT = "cut"
    OR_L = "or_l"
    OR_R = "or_r"
    NEG_OR_L = "neg_or_l"
    NEG_OR_R = "neg_or_r"
    AND_L = "and_l"
    AND_R = "and_r"
    NEG_AND_L = "neg_and_l"
    NEG_AND_R = "neg_and_r"
    NEG_NEG_L = "neg_neg_l"
    NEG_NEG_R = "neg_neg_r"
    BOX_L1 = "box_l1"
    BOX_L2 = "box_l2"
    BOX_R = "box_r"
    NEG_BOX_L = "neg_box_l"
    NEG_BOX_R1 = "neg_box_r1"
    NEG_BOX_R2 = "neg_box_r2"


class ScProof(Record):
    __slots__ = ("rule", "sequent", "principal", "premises", "_hash")
    rule: ScRule
    sequent: Sequent
    principal: tuple[Formula, ...]
    premises: tuple[ScProof, ...]

    def __init__(self, rule: ScRule, sequent: Sequent, principal: tuple[Formula, ...] = (),
                 premises: tuple[ScProof, ...] = ()) -> None:
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "sequent", sequent)
        object.__setattr__(self, "principal", principal)
        object.__setattr__(self, "premises", premises)

    __eq__ = tree_eq

    __hash__ = tree_hash

    def json_fields(self, sides: dict) -> dict:
        seq = self.sequent
        return {"rule": self.rule.value,
                "sequent": {"left": shared(sides, seq.left, side_texts),
                            "right": shared(sides, seq.right, side_texts)},
                "principal": [f.text for f in self.principal],
                "premises": []}

    @staticmethod
    def json_reader(doc: dict, formulas: dict) -> Callable[[tuple], "ScProof"]:
        seq = Sequent.of([shared(formulas, t, parse) for t in doc["sequent"]["left"]],
                         [shared(formulas, t, parse) for t in doc["sequent"]["right"]])
        rule = ScRule(doc["rule"])
        principal = tuple(shared(formulas, t, parse) for t in doc.get("principal", []))
        return lambda premises: ScProof(rule, seq, principal, premises)

    def label(self) -> str:
        return f"{render_sequent(self.sequent)}   [{self.rule.value}]"


def is_cut_free(p: ScProof) -> bool:
    return all(node.rule is not ScRule.CUT for node, _, entering in walk(p) if entering)


def proof_size(p: ScProof) -> int:
    """Number of nodes, counting a shared subproof once per occurrence."""
    return sum(entering for _, _, entering in walk(p))


# ---------------------------------------------------------------------------
# The logical rules, in the order the search prefers them: one-premise
# rules first, and box_l2 before box_l1, neg_box_r1 before neg_box_r2.
# A row holds the rule, the side its principal lives on, the principal's
# shape over the letters a and b, and, given the principal's parts, the
# formulas each premise adds on the left and on the right.

_A, _B = Var("a"), Var("b")

_RULES = (
    (ScRule.NEG_NEG_L, "L", Neg(Neg(_A)), lambda a: [((a,), ())]),
    (ScRule.NEG_NEG_R, "R", Neg(Neg(_A)), lambda a: [((), (a,))]),
    (ScRule.AND_L, "L", And(_A, _B), lambda a, b: [((a, b), ())]),
    (ScRule.OR_R, "R", Or(_A, _B), lambda a, b: [((), (a, b))]),
    (ScRule.NEG_OR_L, "L", Neg(Or(_A, _B)), lambda a, b: [((Neg(a), Neg(b)), ())]),
    (ScRule.NEG_AND_R, "R", Neg(And(_A, _B)), lambda a, b: [((), (Neg(a), Neg(b)))]),
    (ScRule.NEG_BOX_R1, "R", Neg(Box(_A)), lambda a: [((a,), ())]),
    (ScRule.NEG_BOX_R2, "R", Neg(Box(_A)), lambda a: [((), (Neg(a),))]),
    (ScRule.BOX_L2, "L", Box(_A), lambda a: [((), (Neg(a),))]),
    (ScRule.BOX_L1, "L", Box(_A), lambda a: [((a,), ())]),
    (ScRule.OR_L, "L", Or(_A, _B), lambda a, b: [((a,), ()), ((b,), ())]),
    (ScRule.AND_R, "R", And(_A, _B), lambda a, b: [((), (a,)), ((), (b,))]),
    (ScRule.NEG_OR_R, "R", Neg(Or(_A, _B)), lambda a, b: [((), (Neg(a),)), ((), (Neg(b),))]),
    (ScRule.NEG_AND_L, "L", Neg(And(_A, _B)), lambda a, b: [((Neg(a),), ()), ((Neg(b),), ())]),
    (ScRule.BOX_R, "R", Box(_A), lambda a: [((), (a,)), ((Neg(a),), ())]),
    (ScRule.NEG_BOX_L, "L", Neg(Box(_A)), lambda a: [((), (a,)), ((Neg(a),), ())]),
)
_RULE = {row[0]: row for row in _RULES}


def _head(f: Formula) -> tuple:
    """What a shape fixes of a formula: its connective, and under ~ its
    child's."""
    return (Neg, type(f.child)) if type(f) is Neg else (type(f),)


def _has_shape(f: Formula, shape: Formula) -> bool:
    """_head(f) == _head(shape), without building the tuples."""
    return type(f) is type(shape) and (type(f) is not Neg or type(f.child) is type(shape.child))


def _parts(f: Formula) -> tuple[Formula, ...]:
    """The formulas a and b of a principal that has its rule's shape."""
    g = f.child if type(f) is Neg else f
    return (g.child,) if type(g) is Neg or type(g) is Box else (g.left, g.right)


# per side and head, (rule, additions, premise count, row index) of each
# row; the search orders candidates by count, principal, then index
_CANDIDATES: dict[tuple, list[tuple]] = {}
for _i, (_rule, _side, _shape, _adds) in enumerate(_RULES):
    _CANDIDATES.setdefault((_side, *_head(_shape)), []).append(
        (_rule, _adds, len(_adds(*_parts(_shape))), _i))


def _rules_for(side: str, f: Formula) -> Sequence[tuple]:
    return _CANDIDATES.get((side, *_head(f)), ())


def verify_sc_proof(p: ScProof, allow_cut: bool = False) -> None:
    """Raise CheckError at the first node, in pre-order, that violates
    its rule schema."""
    for node, path, entering in walk(p):
        if not entering:
            continue
        seq = node.sequent
        if node.rule is ScRule.AXIOM:
            if node.premises:
                raise CheckError(path, "axiom must be a leaf", node.rule)
            if not (seq.left & seq.right):
                raise CheckError(path, "left and right sides do not share a formula", node.rule)
        elif node.rule in (ScRule.WEAK_L, ScRule.WEAK_R):
            if len(node.premises) != 1 or len(node.principal) != 1:
                raise CheckError(path, "weakening needs one premise and one principal", node.rule)
            (alpha,) = node.principal
            prem = node.premises[0].sequent
            if node.rule is ScRule.WEAK_L:
                ok = (alpha in seq.left and prem.right == seq.right
                      and prem.left | {alpha} == seq.left)
            else:
                ok = (alpha in seq.right and prem.left == seq.left
                      and prem.right | {alpha} == seq.right)
            if not ok:
                raise CheckError(path, "premise is not the weakened sequent", node.rule)
        elif node.rule is ScRule.CUT:
            if not allow_cut:
                raise CheckError(path, "cut is not allowed here", node.rule)
            if len(node.premises) != 2 or len(node.principal) != 1:
                raise CheckError(path, "cut needs two premises and a cut formula", node.rule)
            (chi,) = node.principal
            p1, p2 = (q.sequent for q in node.premises)
            if not (p1.left == seq.left and p1.right == seq.right | {chi}
                    and p2.left == seq.left | {chi} and p2.right == seq.right):
                raise CheckError(path, "premises do not match the cut schema", node.rule)
        else:
            _, side, shape, adds = _RULE[node.rule]
            if len(node.principal) != 1:
                raise CheckError(path, "logical rule needs its principal formula", node.rule)
            (pi,) = node.principal
            if pi not in (seq.left if side == "L" else seq.right):
                raise CheckError(path, "principal formula is not in the sequent", node.rule)
            if not _has_shape(pi, shape):
                raise CheckError(path, "principal has the wrong shape", node.rule)
            deltas = adds(*_parts(pi))
            if len(node.premises) != len(deltas):
                raise CheckError(
                    path, f"expected {len(deltas)} premise(s), found {len(node.premises)}",
                    node.rule)
            if side == "L":
                base_variants = [(seq.left - {pi}, seq.right), (seq.left, seq.right)]
            else:
                base_variants = [(seq.left, seq.right - {pi}), (seq.left, seq.right)]
            for bl, br in base_variants:
                want = [Sequent(bl | frozenset(dl), br | frozenset(dr)) for dl, dr in deltas]
                if all(q.sequent == w for q, w in zip(node.premises, want)):
                    break
            else:
                raise CheckError(path, "premises do not instantiate the schema", node.rule)



# ---------------------------------------------------------------------------
# Backward proof search.
#
# Every rule is invertible (see tml.search), so the first candidate whose
# premises all add something decides the sequent.  Candidates are ordered
# by premise count, then by principal (size, text), then by row of
# _RULES.  This order pins down which proof is found.


def _expand(seq: Sequent) -> Optional[Step]:
    """The one rule application that decides seq: the axiom when its
    sides share a formula, else the first candidate in the documented
    order whose premises all differ from seq; None when seq is
    saturated (every rule application adds nothing)."""
    common = seq.left & seq.right
    if common:
        witness = min(common, key=formula_key)
        return (), lambda subs: ScProof(ScRule.AXIOM, seq, (witness,))
    best_key: Optional[tuple] = None
    best = None
    for side, pool in (("L", seq.left), ("R", seq.right)):
        for f in pool:
            for rule, adds, count, row in _rules_for(side, f):
                key = (count,) + formula_key(f) + (row,)
                if best_key is not None and key >= best_key:
                    continue
                deltas = adds(*_parts(f))
                if any(seq.left.issuperset(dl) and seq.right.issuperset(dr)
                       for dl, dr in deltas):
                    continue
                best_key, best = key, (rule, f, deltas)
    if best is None:
        return None
    rule, pi, deltas = best
    prems = [Sequent(seq.left.union(dl), seq.right.union(dr)) for dl, dr in deltas]
    return prems, lambda subs: ScProof(rule, seq, (pi,), subs)


def prove(s: Sequent) -> Optional[ScProof]:
    """Cut-free backward search; returns a proof iff the sequent is valid
    over the four-valued matrix.

    Backtrack-free: every rule is invertible (see the module
    docstring), so each sequent is decided by the first candidate in the
    documented order whose premises all differ from it, and no other
    candidate is tried.  That is also the proof a backtracking search
    over all candidates in the same order finds first, so the proof is
    deterministic.

    The calculus has no rules for the constant bot (it is definable as
    ~a & #a), so sequents mentioning it are rejected up front rather
    than searched incompletely."""
    if mentions_bot(itertools.chain(s.left, s.right)):
        raise ValueError("the two-sided calculus has no rules for 'bot'; encode it as ~a & #a")
    return decide(s, _expand)


# ---------------------------------------------------------------------------
# Small constructed proofs and composition helpers.

def axiom(left: Iterable[Formula], right: Iterable[Formula]) -> ScProof:
    seq = Sequent.of(left, right)
    assert seq.left & seq.right
    return ScProof(ScRule.AXIOM, seq, (min(seq.left & seq.right, key=formula_key),))


def weaken(p: ScProof, left: Iterable[Formula], right: Iterable[Formula]) -> ScProof:
    """Extend a proof to a superset sequent with explicit weakenings."""
    left = frozenset(left)
    right = frozenset(right)
    if left == p.sequent.left and right == p.sequent.right:
        return p
    if not (p.sequent.left <= left and p.sequent.right <= right):
        raise ValueError("weaken target must extend the proved sequent")
    cur = p
    for f in sorted(left - p.sequent.left, key=formula_key):
        seq = Sequent(cur.sequent.left | {f}, cur.sequent.right)
        cur = ScProof(ScRule.WEAK_L, seq, (f,), (cur,))
    for f in sorted(right - p.sequent.right, key=formula_key):
        seq = Sequent(cur.sequent.left, cur.sequent.right | {f})
        cur = ScProof(ScRule.WEAK_R, seq, (f,), (cur,))
    return cur


def _widen(p: ScProof, left: frozenset[Formula], right: frozenset[Formula]) -> ScProof:
    """p at the wider sequent left => right, as the transforms build it.
    An axiom becomes the axiom of that sequent, and a logical rule over
    axioms the same rule there, over its premises' axioms widened by the
    same formulas: the axiom absorbs weakening.  Any other proof gets
    the weakenings of ``weaken``."""
    seq = p.sequent
    if left == seq.left and right == seq.right:
        return p
    if (p.rule in (ScRule.WEAK_L, ScRule.WEAK_R, ScRule.CUT)
            or not (seq.left <= left and seq.right <= right)
            or any(q.rule is not ScRule.AXIOM for q in p.premises)):
        return weaken(p, left, right)
    more_left, more_right = left - seq.left, right - seq.right
    return ScProof(p.rule, Sequent(left, right), p.principal, tuple(
        ScProof(ScRule.AXIOM, Sequent(q.sequent.left | more_left, q.sequent.right | more_right),
                q.principal)
        for q in p.premises))


def cut(p_right: ScProof, p_left: ScProof, chi: Formula,
        left: Iterable[Formula], right: Iterable[Formula]) -> ScProof:
    """Cut chi out: p_right proves a sequent with chi on the right,
    p_left one with chi on the left; both are first widened to the
    shared context (see ``_widen``)."""
    left = frozenset(left)
    right = frozenset(right)
    p1 = _widen(p_right, left, right | {chi})
    p2 = _widen(p_left, left | {chi}, right)
    return ScProof(ScRule.CUT, Sequent(left, right), (chi,), (p1, p2))


def _lemma(rule: ScRule, pi: Formula, x: Formula) -> ScProof:
    """The one-rule proof of pi => x, for a left rule, or of x => pi, for
    a right rule, over the axiom x => x with the rule's additions."""
    _, side, _, adds = _RULE[rule]
    ((dl, dr),) = adds(*_parts(pi))
    if side == "L":
        base, seq = Sequent.of(dl, [x, *dr]), Sequent.of([pi], [x])
    else:
        base, seq = Sequent.of([x, *dl], dr), Sequent.of([x], [pi])
    return ScProof(rule, seq, (pi,), (ScProof(ScRule.AXIOM, base, (x,)),))


def falsum_proof(alpha: Formula) -> ScProof:
    """Proof of ~a & #a => ; the definable falsum of the calculus."""
    na = Neg(alpha)
    base = axiom([na], [na])
    step = ScProof(ScRule.BOX_L2, Sequent.of([na, Box(alpha)], []), (Box(alpha),), (base,))
    conj = And(na, Box(alpha))
    return ScProof(ScRule.AND_L, Sequent.of([conj], []), (conj,), (step,))


def _neg_set(fs: frozenset[Formula]) -> frozenset[Formula]:
    return frozenset(Neg(f) for f in fs)


# ---------------------------------------------------------------------------
# Contraposition: from a cut-free proof of G => D build a proof of
# ~D => ~G, node by node from the leaves.  Each logical rule turns into its
# partner below on the other side.  The partner applies to ~pi, or, when pi
# is itself a negation ~x that the partner cannot take as ~~x, to x and
# then ~~.  Where a rule adds the negation ~a of a part a of pi, the
# contraposed premise holds ~~a, which a cut against ~~a => a or
# a => ~~a turns back into a.

_PARTNERS = ((ScRule.OR_R, ScRule.NEG_OR_L), (ScRule.OR_L, ScRule.NEG_OR_R),
             (ScRule.AND_L, ScRule.NEG_AND_R), (ScRule.AND_R, ScRule.NEG_AND_L),
             (ScRule.NEG_NEG_L, ScRule.NEG_NEG_R), (ScRule.BOX_L1, ScRule.NEG_BOX_R2),
             (ScRule.BOX_L2, ScRule.NEG_BOX_R1), (ScRule.BOX_R, ScRule.NEG_BOX_L))
_PARTNER = {**dict(_PARTNERS), **{b: a for a, b in _PARTNERS}}


def contrapose(p: ScProof) -> ScProof:
    """From a cut-free proof of G => D, a proof of ~D => ~G that may use
    cut.  p must pass ``verify_sc_proof``; it is not checked again here,
    but a cut in it raises ScCheckError as the checker would."""
    try:
        return fold(p, _contrapose)
    except _CutMet:
        raise _cut_error(p) from None


class _CutMet(Exception):
    """A transform of cut-free proofs met a cut."""


def _cut_error(p: ScProof) -> CheckError:
    """The error ``verify_sc_proof`` gives a proof whose first fault, in
    pre-order, is a cut: the one a proof that checks with cut allowed
    gets without."""
    return next(CheckError(path, "cut is not allowed here", node.rule)
                for node, path, entering in walk(p) if entering and node.rule is ScRule.CUT)


def _apply(rule: ScRule, conclusion: Sequent, principal: Formula,
           subs: Sequence[ScProof]) -> ScProof:
    """Build a rule node with the retained-context reading, widening
    each subproof to its required premise sequent."""
    _, _, _, adds = _RULE[rule]
    deltas = adds(*_parts(principal))
    prems = tuple(_widen(s, conclusion.left.union(dl), conclusion.right.union(dr))
                  for s, (dl, dr) in zip(subs, deltas))
    return ScProof(rule, conclusion, (principal,), prems)


def _unnegate(q: ScProof, alpha: Formula, side: str) -> ScProof:
    """From a proof of G => D with ~~a on the given side, the proof with
    a in its place, by a cut against a one-rule lemma."""
    nn = Neg(Neg(alpha))
    left, right = q.sequent.left, q.sequent.right
    if side == "R":
        return cut(q, _lemma(ScRule.NEG_NEG_L, nn, alpha), nn, left, (right - {nn}) | {alpha})
    return cut(_lemma(ScRule.NEG_NEG_R, nn, alpha), q, nn, (left - {nn}) | {alpha}, right)


@cache
def _double_negated(rule: ScRule) -> tuple[tuple[tuple[int, str], ...], ...]:
    """Per premise of a logical rule, the parts a of the principal whose
    ~~a the contraposed premise holds, by index, each with its side:
    the parts the rule adds negated, on the other side."""
    _, _, shape, adds = _RULE[rule]
    letters = _parts(shape)
    return tuple(tuple((letters.index(f.child), side)
                       for side, fs in (("R", dl), ("L", dr)) for f in fs
                       if isinstance(f, Neg) and f.child in letters)
                 for dl, dr in adds(*letters))


def _contrapose(node: ScProof, subs: list[ScProof]) -> ScProof:
    seq = node.sequent
    target = Sequent(_neg_set(seq.right), _neg_set(seq.left))
    if node.rule is ScRule.AXIOM:
        (alpha,) = node.principal
        return ScProof(ScRule.AXIOM, target, (Neg(alpha),))
    if node.rule in (ScRule.WEAK_L, ScRule.WEAK_R):
        return _widen(subs[0], target.left, target.right)
    if node.rule is ScRule.CUT:
        raise _CutMet

    (pi,) = node.principal
    parts = _parts(pi)
    for i, double_negated in enumerate(_double_negated(node.rule)):
        for k, side in double_negated:
            subs[i] = _unnegate(subs[i], parts[k], side)
    if node.rule in (ScRule.BOX_R, ScRule.NEG_BOX_L):
        subs.reverse()   # the partner takes the premise adding a first
    partner, side, shape, _ = _RULE[_PARTNER[node.rule]]
    if _has_shape(Neg(pi), shape):
        return _apply(partner, target, Neg(pi), subs)
    inner = pi.child
    if side == "L":
        step = _apply(partner, Sequent(target.left | {inner}, target.right), inner, subs)
        return _apply(ScRule.NEG_NEG_L, target, Neg(pi), [step])
    step = _apply(partner, Sequent(target.left, target.right | {inner}), inner, subs)
    return _apply(ScRule.NEG_NEG_R, target, Neg(pi), [step])


# ---------------------------------------------------------------------------
# Necessitation and its inverse.

def theorem_of(p: ScProof) -> Formula:
    """psi, for a proof of => psi; ValueError for a proof of any other
    sequent."""
    seq = p.sequent
    if seq.left or len(seq.right) != 1:
        raise ValueError("necessitate expects a proof of '=> psi'")
    (psi,) = seq.right
    return psi


def necessitate(p: ScProof) -> ScProof:
    """From a cut-free proof of => psi build a proof of => #psi that may
    use cut.  p must pass ``verify_sc_proof``, as for ``contrapose``."""
    psi = theorem_of(p)
    negated = contrapose(p)  # ~psi =>
    conclusion = Sequent.of([], [Box(psi)])
    return ScProof(ScRule.BOX_R, conclusion, (Box(psi),), (p, negated))


def denecessitate(p: ScProof) -> ScProof:
    """From a proof of => #psi recover a proof of => psi.

    p must pass ``verify_sc_proof`` (cut allowed); it is not checked
    again here.  The root must reduce to the right box rule once
    weakenings are skipped (for cut-free proofs this is forced); its
    first premise is returned when it proves => psi exactly, otherwise
    (search proofs keep the boxed formula in the premise context) the
    premise sequent is re-derived.
    """
    seq = p.sequent
    if seq.left or len(seq.right) != 1 or not isinstance(next(iter(seq.right)), Box):
        raise ValueError("denecessitate expects a proof of '=> #psi'")
    (boxed,) = seq.right
    psi = boxed.child
    node = p
    while node.rule in (ScRule.WEAK_L, ScRule.WEAK_R):
        node = node.premises[0]
    if node.rule is not ScRule.BOX_R or node.principal != (boxed,):
        raise ValueError("root inference does not introduce the boxed formula")
    first = node.premises[0]
    goal = Sequent.of([], [psi])
    probe = first
    while True:
        if probe.sequent == goal:
            return probe
        if probe.rule in (ScRule.WEAK_L, ScRule.WEAK_R):
            probe = probe.premises[0]
        else:
            break
    reproved = prove(goal)
    if reproved is None:
        raise ValueError("first premise does not reduce to a proof of => psi")
    return reproved


# ---------------------------------------------------------------------------
# Local degree-soundness of the rule schemas over the four-element
# algebra, which decides it for every finite power of that algebra.

_G, _D = Var("g"), Var("d")

# each rule as (premises, conclusion), each a pair of formula lists; a
# logical rule is its row's principal shape in the contexts g and d
_SOUNDNESS_SCHEMA: dict[ScRule, tuple[list[tuple[list, list]], tuple[list, list]]] = {
    ScRule.AXIOM: ([], ([_A], [_A])),
    ScRule.WEAK_L: ([([_G], [_D])], ([_G, _A], [_D])),
    ScRule.WEAK_R: ([([_G], [_D])], ([_G], [_D, _A])),
    ScRule.CUT: ([([_G], [_D, _A]), ([_G, _A], [_D])], ([_G], [_D])),
    **{rule: ([([_G, *dl], [_D, *dr]) for dl, dr in adds(*_parts(shape))],
              ([_G, shape], [_D]) if side == "L" else ([_G], [_D, shape]))
       for rule, side, shape, adds in _RULES},
}


def schema_counterexample(premises: list[tuple[list, list]],
                          conclusion: tuple[list, list],
                          matrices: Sequence[LogicalMatrix] = (M4,),
                          ) -> Optional[dict]:
    """The first assignment, matrix by matrix in enumeration order,
    where every premise inequality meet(left) <= join(right) holds but
    the conclusion's fails, with meet starting from the top value and
    the order that of the matrix; all assignments of a matrix at once.
    Every right side is non-empty.

    By default only M4 is searched, and its answer holds for every
    finite power of M4 as well.  A product (``algebra.product_algebra``)
    computes meet, join, ~, #, top and the order componentwise, so an
    assignment into A x B is a pair of assignments, one into each
    factor, and every formula takes the pair of their values.  An
    inequality holds at the pair exactly when it holds at both
    coordinates.  So where every premise holds and the conclusion
    fails, the premises hold at both coordinates and the conclusion
    fails at one of them: that coordinate is a counterexample in its
    factor.  By induction a counterexample in a finite power of M4
    projects to one in M4, and none in M4 means none in any of them."""
    names = variables_of(f for left, right in [*premises, conclusion]
                         for f in itertools.chain(left, right))
    for m in matrices:
        planes = value_planes(names, m)
        mask = planes.full & ~planes.below(*conclusion)
        for left, right in premises:
            mask &= planes.below(left, right)
        if mask:
            return planes.first(mask)
    return None


def rule_soundness(rule: ScRule) -> bool:
    """Premise validity implies conclusion validity, degree-wise, over
    M4 and so over every finite power of it (see
    ``schema_counterexample``), its 16-element square included."""
    premises, conclusion = _SOUNDNESS_SCHEMA[rule]
    return schema_counterexample(premises, conclusion) is None


# ---------------------------------------------------------------------------
# The shared proof-tree routines under this calculus's names.

ScCheckError = CheckError
check_sc_proof = partial(passes, verify_sc_proof)
proof_to_json = to_json
proof_from_json = partial(from_json, node_class=ScProof)
render_proof = render
