"""Natural deduction with hypothesis discharge, and the two-way
translation between sequent proofs and deductions.

Deductions are trees whose leaves are marked hypotheses; |E, ~&E and
the starred box introduction close hypothesis classes by marker.  The
forward translation turns a cut-free sequent proof of G => D into a
deduction of the disjunction of D from G; the reverse translation
rebuilds a sequent proof from a deduction with the sequent rules and
weakening, and with cut only at the steps listed in ``_ToSc``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from operator import is_not
from typing import Callable, Iterable, Optional, Sequence

from . import sc
from .proofs import CheckError, fold, from_json, render, shared, to_json, walk
from .sc import ScProof, ScRule
from .sequents import Sequent
from .syntax import And, BOT, Box, Formula, Neg, Or, parse

__all__ = [
    "NDDeduction", "NdCheckError", "NdResult", "check_nd", "verify_nd",
    "open_assumptions", "disjunction_of", "sc_to_nd", "nd_to_sc",
    "NdTranslationError", "nd_to_json", "nd_from_json", "render_nd",
    "hyp", "distribute_join_over_meet", "collapse_boxed_contradiction",
]

ND_RULES = {
    "hyp": 0, "ma": 0,
    "and_i": 2, "and_e1": 1, "and_e2": 1,
    "neg_and_i1": 1, "neg_and_i2": 1, "neg_and_e": 3,
    "or_i1": 1, "or_i2": 1, "or_e": 3,
    "neg_or_i": 2, "neg_or_e1": 1, "neg_or_e2": 1,
    "neg_neg_i": 1, "neg_neg_e": 1,
    "box_i_star": 2, "box_e": 1,
    "neg_box_i": 1, "neg_box_e": 2,
    "bot_i": 1, "bot_e": 1,
}

# which premise index each discharge slot of a rule closes
_DISCHARGE_AT = {"neg_and_e": (1, 2), "or_e": (1, 2), "box_i_star": (1,)}


@dataclass(frozen=True)
class NDDeduction:
    rule: str
    conclusion: Formula
    premises: tuple["NDDeduction", ...] = ()
    marker: Optional[str] = None                       # hyp nodes only
    discharges: tuple[tuple[str, Formula], ...] = ()   # (marker, assumption)

    def json_fields(self, memo: dict) -> dict:
        doc: dict = {"rule": self.rule, "conclusion": self.conclusion.text}
        if self.marker is not None:
            doc["marker"] = self.marker
        if self.discharges:
            doc["discharges"] = [{"marker": m, "formula": f.text} for m, f in self.discharges]
        if self.premises:
            doc["premises"] = []
        return doc

    @staticmethod
    def json_reader(doc: dict, formulas: dict) -> Callable[[tuple], "NDDeduction"]:
        rule, marker = doc["rule"], doc.get("marker")
        conclusion = shared(formulas, doc["conclusion"], parse)
        discharges = tuple((e["marker"], shared(formulas, e["formula"], parse))
                           for e in doc.get("discharges", []))
        return lambda premises: NDDeduction(rule, conclusion, premises, marker, discharges)

    def label(self) -> str:
        if self.rule == "hyp":
            return f"[{self.conclusion.text}]^{self.marker}"
        markers = "".join("," + m for m, _ in self.discharges)
        return f"{self.conclusion.text}   [{self.rule}{markers}]"


def hyp(f: Formula, marker: str) -> NDDeduction:
    return NDDeduction("hyp", f, marker=marker)


@dataclass(frozen=True)
class NdResult:
    ok: bool
    conclusion: Formula
    open: frozenset[Formula]
    error: Optional[str] = None


def _check_schema(node: NDDeduction, path: Sequence[int]) -> None:
    """Local shape check: arity, marker placement, discharge slots, and
    the premise/conclusion pattern of the rule."""
    r = node.rule
    if r not in ND_RULES:
        raise CheckError(path, f"unknown rule {r!r}")
    if len(node.premises) != ND_RULES[r]:
        raise CheckError(path, f"rule {r!r} takes {ND_RULES[r]} premise(s)")
    if r != "hyp" and node.marker is not None:
        raise CheckError(path, "only hypotheses carry a marker")
    if r in _DISCHARGE_AT:
        if len(node.discharges) != len(_DISCHARGE_AT[r]):
            raise CheckError(path, f"rule {r!r} discharges {len(_DISCHARGE_AT[r])} class(es)")
    elif node.discharges:
        raise CheckError(path, f"rule {r!r} does not discharge hypotheses")

    c = node.conclusion
    prem = [q.conclusion for q in node.premises]
    ok = False
    if r == "hyp":
        ok = node.marker is not None
    elif r == "ma":
        ok = (isinstance(c, Or) and isinstance(c.right, Neg)
              and isinstance(c.right.child, Box) and c.right.child.child is c.left)
    elif r == "and_i":
        ok = isinstance(c, And) and prem == [c.left, c.right]
    elif r == "and_e1":
        ok = isinstance(prem[0], And) and prem[0].left is c
    elif r == "and_e2":
        ok = isinstance(prem[0], And) and prem[0].right is c
    elif r in ("neg_and_i1", "neg_and_i2"):
        if isinstance(c, Neg) and isinstance(c.child, And) and isinstance(prem[0], Neg):
            part = c.child.left if r == "neg_and_i1" else c.child.right
            ok = prem[0].child is part
    elif r == "neg_and_e":
        p0 = prem[0]
        if isinstance(p0, Neg) and isinstance(p0.child, And) and prem[1] is c and prem[2] is c:
            want = (Neg(p0.child.left), Neg(p0.child.right))
            ok = tuple(f for _, f in node.discharges) == want
    elif r == "or_i1":
        ok = isinstance(c, Or) and c.left is prem[0]
    elif r == "or_i2":
        ok = isinstance(c, Or) and c.right is prem[0]
    elif r == "or_e":
        p0 = prem[0]
        if isinstance(p0, Or) and prem[1] is c and prem[2] is c:
            ok = tuple(f for _, f in node.discharges) == (p0.left, p0.right)
    elif r == "neg_or_i":
        ok = (isinstance(c, Neg) and isinstance(c.child, Or)
              and isinstance(prem[0], Neg) and isinstance(prem[1], Neg)
              and prem[0].child is c.child.left and prem[1].child is c.child.right)
    elif r in ("neg_or_e1", "neg_or_e2"):
        p0 = prem[0]
        if isinstance(p0, Neg) and isinstance(p0.child, Or) and isinstance(c, Neg):
            part = p0.child.left if r == "neg_or_e1" else p0.child.right
            ok = c.child is part
    elif r == "neg_neg_i":
        ok = isinstance(c, Neg) and isinstance(c.child, Neg) and c.child.child is prem[0]
    elif r == "neg_neg_e":
        p0 = prem[0]
        ok = isinstance(p0, Neg) and isinstance(p0.child, Neg) and p0.child.child is c
    elif r == "box_i_star":
        if (isinstance(c, Or) and isinstance(c.right, Box)
                and isinstance(prem[0], Or) and prem[0].left is c.left
                and prem[0].right is c.right.child and prem[1] is c.left):
            ok = tuple(f for _, f in node.discharges) == (Neg(c.right.child),)
    elif r == "box_e":
        ok = isinstance(prem[0], Box) and prem[0].child is c
    elif r == "neg_box_i":
        ok = (isinstance(c, Neg) and isinstance(c.child, Box)
              and isinstance(prem[0], Neg) and prem[0].child is c.child.child)
    elif r == "neg_box_e":
        p0 = prem[0]
        ok = (isinstance(p0, Neg) and isinstance(p0.child, Box) and isinstance(c, Neg)
              and p0.child.child is prem[1] and c.child is prem[1])
    elif r == "bot_i":
        p0 = prem[0]
        ok = (c is BOT and isinstance(p0, And) and isinstance(p0.left, Neg)
              and isinstance(p0.right, Box) and p0.left.child is p0.right.child)
    elif r == "bot_e":
        ok = prem[0] is BOT
    if not ok:
        raise CheckError(path, f"conclusion/premises do not fit rule {r!r}")


def verify_nd(d: NDDeduction) -> frozenset[Formula]:
    """Validate schemas and discharge bookkeeping; return open assumptions.

    A node's schema is checked on entry, before its premises; its
    discharges on exit, once the open hypotheses of its premises are
    known.  The first failure raises CheckError."""
    used_discharge_markers: set[str] = set()
    # the open hypotheses by marker of each finished subtree
    done: list[dict[str, set[Formula]]] = []
    for node, path, entering in walk(d):
        if entering:
            _check_schema(node, path)
            continue
        if node.rule == "hyp":
            done.append({node.marker: {node.conclusion}})
            continue
        start = len(done) - len(node.premises)
        opens = done[start:]
        del done[start:]
        for slot, (marker, assumption) in enumerate(node.discharges):
            if marker in used_discharge_markers:
                raise CheckError(path, f"marker {marker!r} discharged twice")
            used_discharge_markers.add(marker)
            at = _DISCHARGE_AT[node.rule][slot]
            for i, om in enumerate(opens):
                if i == at:
                    continue
                if marker in om:
                    raise CheckError(
                        path, f"marker {marker!r} is open outside its designated subtree")
            closed = opens[at].pop(marker, set())
            if not closed <= {assumption}:
                raise CheckError(
                    path, f"marker {marker!r} closes hypotheses other than its class")
        merged: dict[str, set[Formula]] = {}
        for om in opens:
            for marker, fs in om.items():
                if marker in used_discharge_markers:
                    raise CheckError(
                        path, f"marker {marker!r} occurs both open and discharged")
                merged.setdefault(marker, set()).update(fs)
        done.append(merged)
    return frozenset(itertools.chain.from_iterable(done[0].values()))


def check_nd(d: NDDeduction) -> NdResult:
    try:
        open_set = verify_nd(d)
    except NdCheckError as e:
        return NdResult(False, d.conclusion, frozenset(), str(e))
    return NdResult(True, d.conclusion, open_set)


open_assumptions = verify_nd


# ---------------------------------------------------------------------------
# Canonical disjunctions.

def _elems(fs: Iterable[Formula]) -> list[Formula]:
    return sorted(set(fs), key=lambda f: f.text)


def _fold(elems: Sequence[Formula]) -> Formula:
    if not elems:
        return BOT
    out = elems[-1]
    for e in reversed(elems[:-1]):
        out = Or(e, out)
    return out


def disjunction_of(delta: Iterable[Formula]) -> Formula:
    """Right-fold of the formulas in sorted rendering order; the empty
    disjunction is bot."""
    return _fold(_elems(delta))


# ---------------------------------------------------------------------------
# Closed macro deductions.

class _Markers:
    def __init__(self, prefix: str = "u"):
        self.prefix = prefix
        self.n = 0

    def fresh(self) -> str:
        self.n += 1
        return f"{self.prefix}{self.n}"


def _clone_fresh(d: NDDeduction, mk: _Markers) -> NDDeduction:
    mapping: dict[str, str] = {}

    def rn(m: str) -> str:
        if m not in mapping:
            mapping[m] = mk.fresh()
        return mapping[m]

    return fold(d, lambda node, premises: NDDeduction(
        node.rule, node.conclusion, tuple(premises),
        marker=rn(node.marker) if node.marker is not None else None,
        discharges=tuple((rn(m), f) for m, f in node.discharges)))


def _graft(d: NDDeduction, assumption: Formula,
           builder: Callable[[], NDDeduction]) -> NDDeduction:
    """Replace open hypotheses of the given formula by fresh instances of
    a deduction concluding it, in the order of a depth-first walk.

    The stack carries down the markers discharged above each node,
    which ``walk`` does not track.  Untouched subtrees are kept, not
    copied."""
    done: list[NDDeduction] = []
    stack = [(d, frozenset(), True)]
    while stack:
        node, shadowed, entering = stack.pop()
        if node.rule == "hyp":
            hit = node.conclusion is assumption and node.marker not in shadowed
            done.append(builder() if hit else node)
        elif entering:
            stack.append((node, shadowed, False))
            if node.discharges:
                shadowed = shadowed.union(m for m, _ in node.discharges)
            stack.extend((q, shadowed, True) for q in reversed(node.premises))
        else:
            start = len(done) - len(node.premises)
            premises = tuple(done[start:])
            del done[start:]
            if any(map(is_not, premises, node.premises)):
                node = NDDeduction(node.rule, node.conclusion, premises,
                                   discharges=node.discharges)
            done.append(node)
    return done[0]


def distribute_join_over_meet(gamma: Formula, x: Formula, y: Formula,
                              conj: NDDeduction, mk: _Markers) -> NDDeduction:
    """From a deduction of (gamma|x) & (gamma|y) conclude gamma | (x&y)."""
    target = Or(gamma, And(x, y))
    left = NDDeduction("and_e1", Or(gamma, x), (conj,))
    right = NDDeduction("and_e2", Or(gamma, y), (_clone_fresh(conj, mk),))
    u1, u2, v1, v2 = (mk.fresh() for _ in range(4))
    inner = NDDeduction(
        "or_e", target,
        (right,
         NDDeduction("or_i1", target, (hyp(gamma, v1),)),
         NDDeduction("or_i2", target,
                     (NDDeduction("and_i", And(x, y), (hyp(x, u2), hyp(y, v2))),))),
        discharges=((v1, gamma), (v2, y)))
    return NDDeduction(
        "or_e", target,
        (left,
         NDDeduction("or_i1", target, (hyp(gamma, u1),)),
         inner),
        discharges=((u1, gamma), (u2, x)))


def _bot_from_boxed_pair(conj_of: Callable[[], NDDeduction], gamma: Formula) -> NDDeduction:
    """From deductions of #g & ~#g (one per call of conj_of) build bot:
    extract #g and ~#g, recover g, derive ~g, and hit the falsum
    introduction shape ~g & #g."""
    box_g = NDDeduction("and_e1", Box(gamma), (conj_of(),))
    neg_box_g = NDDeduction("and_e2", Neg(Box(gamma)), (conj_of(),))
    g = NDDeduction("box_e", gamma, (box_g,))
    neg_g = NDDeduction("neg_box_e", Neg(gamma), (neg_box_g, g))
    pair = NDDeduction("and_i", And(Neg(gamma), Box(gamma)),
                       (neg_g, NDDeduction("and_e1", Box(gamma), (conj_of(),))))
    return NDDeduction("bot_i", BOT, (pair,))


def collapse_boxed_contradiction(gamma: Formula, alpha: Formula,
                                 mk: Optional[_Markers] = None) -> NDDeduction:
    """Closed deduction of a | bot from the assumption a | (#g & ~#g)."""
    mk = mk or _Markers("w")
    source = Or(alpha, And(Box(gamma), Neg(Box(gamma))))
    target = Or(alpha, BOT)
    u, v, w = mk.fresh(), mk.fresh(), mk.fresh()
    conj = And(Box(gamma), Neg(Box(gamma)))
    to_bot = _bot_from_boxed_pair(lambda: hyp(conj, v), gamma)
    branch2 = NDDeduction("or_i2", target, (to_bot,))
    return NDDeduction(
        "or_e", target,
        (hyp(source, w),
         NDDeduction("or_i1", target, (hyp(alpha, u),)),
         branch2),
        discharges=((u, alpha), (v, conj)))


# ---------------------------------------------------------------------------
# Sequent proof -> deduction.

class NdTranslationError(ValueError):
    pass


# The deduction rules that stand for a sequent rule: the introductions of
# a right rule and the eliminations of a left rule, one for each formula
# that a one-premise rule adds, one for the two premises of the others.
_ND_INTRO = {
    ScRule.OR_R: ("or_i1", "or_i2"), ScRule.NEG_AND_R: ("neg_and_i1", "neg_and_i2"),
    ScRule.NEG_NEG_R: ("neg_neg_i",), ScRule.NEG_BOX_R2: ("neg_box_i",),
    ScRule.AND_R: ("and_i",), ScRule.NEG_OR_R: ("neg_or_i",),
}
_ND_ELIM = {
    ScRule.AND_L: ("and_e1", "and_e2"), ScRule.NEG_OR_L: ("neg_or_e1", "neg_or_e2"),
    ScRule.NEG_NEG_L: ("neg_neg_e",), ScRule.BOX_L1: ("box_e",),
    ScRule.OR_L: ("or_e",), ScRule.NEG_AND_L: ("neg_and_e",),
}
_SC_RULE = {name: rule for table in (_ND_INTRO, _ND_ELIM)
            for rule, names in table.items() for name in names}


def _added(rule: ScRule, pi: Formula) -> list[tuple[Formula, ...]]:
    """The formulas each premise of a logical rule adds on its side."""
    schema = sc._SCHEMAS[rule]
    return [dl if schema.side == "L" else dr for dl, dr in schema.deltas(schema.parts(pi))]


class _ToNd:
    def __init__(self):
        self.mk = _Markers()

    # -- generic disjunction surgery ------------------------------------

    def embed(self, ded: NDDeduction, elem: Formula,
              target_elems: Sequence[Formula]) -> NDDeduction:
        """Wrap a deduction of one element into the right-fold of the
        target elements via or-introductions."""
        if elem is BOT and elem not in target_elems:
            return self.bot_to(ded, _fold(target_elems))
        if elem not in target_elems:
            raise NdTranslationError(f"{elem} is not a disjunct of the target")
        elems = list(target_elems)
        k = elems.index(elem)
        out = _fold(elems[k:])
        if k < len(elems) - 1:
            ded = NDDeduction("or_i1", out, (ded,))
        for e in reversed(elems[:k]):
            out = Or(e, out)
            ded = NDDeduction("or_i2", out, (ded,))
        return ded

    def bot_to(self, ded: NDDeduction, target: Formula) -> NDDeduction:
        return ded if target is BOT else NDDeduction("bot_e", target, (ded,))

    def or_elim_shape(self, ded: NDDeduction, shape: Sequence[Formula],
                      target: Formula,
                      branch: Callable[[NDDeduction, Formula], NDDeduction],
                      ) -> NDDeduction:
        """Case-split a deduction of the right-fold of `shape`; every
        branch function must conclude `target`."""
        rests: list[Formula] = []   # the right-folds of shape[1:], shape[2:], ...
        for f in reversed(shape[1:]):
            rests.append(Or(f, rests[-1]) if rests else f)
        rests.reverse()
        opened = []
        for head, rest in zip(shape, rests):
            u, v = self.mk.fresh(), self.mk.fresh()
            opened.append((ded, u, head, v, rest, branch(hyp(head, u), head)))
            ded = hyp(rest, v)
        out = branch(ded, shape[-1])
        for ded, u, head, v, rest, b1 in reversed(opened):
            out = NDDeduction("or_e", target, (ded, b1, out),
                              discharges=((u, head), (v, rest)))
        return out

    def remap(self, ded: NDDeduction, source: Iterable[Formula],
              target_set: Iterable[Formula],
              override: Optional[dict[Formula, Callable[[NDDeduction], NDDeduction]]] = None,
              ) -> NDDeduction:
        """Turn a deduction of the disjunction of `source` into one of the
        disjunction of `target_set`.  Elements default to or-intro
        embedding; `override` supplies custom element handlers."""
        override = override or {}
        src = _elems(source)
        tgt = _elems(target_set)
        target = _fold(tgt)
        if not src:
            return self.bot_to(ded, target)
        if src == tgt and not override:
            return ded

        def branch(sub: NDDeduction, e: Formula) -> NDDeduction:
            if e in override:
                return override[e](sub)
            return self.embed(sub, e, tgt)

        return self.or_elim_shape(ded, src, target, branch)

    # -- the rule cases ---------------------------------------------------

    def step(self, node: ScProof, ds: list[NDDeduction]) -> NDDeduction:
        """The deduction of a node from the deductions of its premises."""
        seq = node.sequent
        delta = _elems(seq.right)
        target = _fold(delta)
        rule = node.rule
        srcs = [q.sequent.right for q in node.premises]

        if rule is ScRule.AXIOM:
            (alpha,) = node.principal
            return self.embed(hyp(alpha, self.mk.fresh()), alpha, delta)
        if rule is ScRule.CUT:
            raise NdTranslationError("translation requires a cut-free proof")
        if rule is ScRule.WEAK_L:
            (beta,) = node.principal
            glued = NDDeduction("and_i", And(target, beta), (ds[0], hyp(beta, self.mk.fresh())))
            return NDDeduction("and_e1", target, (glued,))
        if rule is ScRule.WEAK_R:
            return self.remap(ds[0], srcs[0], seq.right)

        (pi,) = node.principal
        if rule in _ND_INTRO:
            intros = _ND_INTRO[rule]
            if len(ds) == 1:   # introduce pi from whichever part is derived
                override = {x: partial(self._intro, r, pi, delta)
                            for x, r in zip(_added(rule, pi)[0], intros)}
                return self.remap(ds[0], srcs[0], seq.right, override)
            (x1,), (x2,) = _added(rule, pi)

            def with_first(s1: NDDeduction) -> NDDeduction:
                second = {x2: lambda s2: self._intro(intros[0], pi, delta, s1, s2)}
                return self.remap(_clone_fresh(ds[1], self.mk), srcs[1], seq.right, second)

            return self.remap(ds[0], srcs[0], seq.right, {x1: with_first})
        if rule in _ND_ELIM:
            elims = _ND_ELIM[rule]
            if len(ds) == 1:   # eliminate pi at every open hypothesis of a part
                d = ds[0]
                for x, r in zip(_added(rule, pi)[0], elims):
                    d = _graft(d, x, lambda x=x, r=r: NDDeduction(
                        r, x, (hyp(pi, self.mk.fresh()),)))
                return d
            (x1,), (x2,) = _added(rule, pi)
            u, v = self.mk.fresh(), self.mk.fresh()
            return NDDeduction(
                elims[0], target,
                (hyp(pi, self.mk.fresh()),
                 _graft(ds[0], x1, lambda: hyp(x1, u)),
                 _graft(ds[1], x2, lambda: hyp(x2, v))),
                discharges=((u, x1), (v, x2)))

        if rule is ScRule.BOX_L2:
            a = pi.child

            def kill(s_na: NDDeduction) -> NDDeduction:
                pair = NDDeduction("and_i", And(Neg(a), pi),
                                   (s_na, hyp(pi, self.mk.fresh())))
                return self.bot_to(NDDeduction("bot_i", BOT, (pair,)), target)

            return self.remap(ds[0], srcs[0], seq.right, {Neg(a): kill})
        if rule is ScRule.NEG_BOX_R1:
            a = pi.child.child
            u, v = self.mk.fresh(), self.mk.fresh()
            ma = NDDeduction("ma", Or(a, pi))
            body = self.remap(_graft(ds[0], a, lambda: hyp(a, u)), srcs[0], seq.right)
            side = self.embed(hyp(pi, v), pi, delta)
            return NDDeduction("or_e", target, (ma, body, side),
                               discharges=((u, a), (v, pi)))
        if rule is ScRule.BOX_R:
            return self._box_right(pi, delta, target, ds, srcs)
        return self._neg_box_left(pi, delta, target, ds, srcs)

    def _intro(self, rule: str, pi: Formula, delta: list[Formula],
               *premises: NDDeduction) -> NDDeduction:
        return self.embed(NDDeduction(rule, pi, premises), pi, delta)

    def _box_right(self, pi: Formula, delta: list[Formula], target: Formula,
                   ds: list[NDDeduction], srcs: list[frozenset[Formula]]) -> NDDeduction:
        a = pi.child
        d1, d2 = ds
        src1, src2 = srcs
        rest = [f for f in delta if f is not pi]
        u = self.mk.fresh()
        if rest:
            psi = _fold(rest)
            shape = Or(psi, a)

            def route1(s: NDDeduction, e: Formula) -> NDDeduction:
                if e is a:
                    return NDDeduction("or_i2", shape, (s,))
                if e is pi:  # the premise may retain the boxed conclusion
                    got_a = NDDeduction("box_e", a, (s,))
                    return NDDeduction("or_i2", shape, (got_a,))
                return NDDeduction("or_i1", shape, (self.embed(s, e, rest),))

            d0 = self.or_elim_shape(d1, _elems(src1), shape, route1)

            def kill_box(s: NDDeduction) -> NDDeduction:
                pair = NDDeduction("and_i", And(Neg(a), s.conclusion),
                                   (hyp(Neg(a), u), s))
                return self.bot_to(NDDeduction("bot_i", BOT, (pair,)), psi)

            body = self.remap(d2, src2, rest, {pi: kill_box} if pi in src2 else None)
            body = _graft(body, Neg(a), lambda: hyp(Neg(a), u))
            starred = NDDeduction("box_i_star", Or(psi, pi), (d0, body),
                                  discharges=((u, Neg(a)),))

            def final(s: NDDeduction, e: Formula) -> NDDeduction:
                if e is pi:
                    return self.embed(s, pi, delta)
                return self.remap(s, rest, delta)

            return self.or_elim_shape(starred, [psi, pi], target, final)

        # no other conclusions: derive #a with psi := #a
        shape = Or(pi, a)

        def route1(s: NDDeduction, e: Formula) -> NDDeduction:
            if e is a:
                return NDDeduction("or_i2", shape, (s,))
            return NDDeduction("or_i1", shape, (s,))

        d0 = self.or_elim_shape(d1, _elems(src1), shape, route1)
        if _elems(src2) and _elems(src2) != [pi]:
            raise NdTranslationError("unexpected premise shape for box introduction")
        if not _elems(src2):
            body = self.bot_to(d2, pi)
        else:
            body = d2
        body = _graft(body, Neg(a), lambda: hyp(Neg(a), u))
        starred = NDDeduction("box_i_star", Or(pi, pi), (d0, body),
                              discharges=((u, Neg(a)),))
        v1, v2 = self.mk.fresh(), self.mk.fresh()
        return NDDeduction("or_e", pi,
                           (starred, hyp(pi, v1), hyp(pi, v2)),
                           discharges=((v1, pi), (v2, pi)))

    def _neg_box_left(self, pi: Formula, delta: list[Formula], target: Formula,
                      ds: list[NDDeduction], srcs: list[frozenset[Formula]]) -> NDDeduction:
        a = pi.child.child
        d1, d2 = ds
        src1, src2 = srcs

        if not delta:
            got_a = d1 if d1.conclusion is a else self.remap(d1, src1, [a])
            neg_a = NDDeduction("neg_box_e", Neg(a),
                                (hyp(pi, self.mk.fresh()), got_a))
            return _graft(d2, Neg(a), lambda: _clone_fresh(neg_a, self.mk))

        psi = target
        u = self.mk.fresh()
        shape = Or(psi, a)

        def route1(s: NDDeduction, e: Formula) -> NDDeduction:
            if e is a:
                return NDDeduction("or_i2", shape, (s,))
            return NDDeduction("or_i1", shape, (self.embed(s, e, delta),))

        d0 = self.or_elim_shape(d1, _elems(src1), shape, route1)
        body = _graft(self.remap(d2, src2, delta), Neg(a), lambda: hyp(Neg(a), u))
        starred = NDDeduction("box_i_star", Or(psi, Box(a)), (d0, body),
                              discharges=((u, Neg(a)),))
        with_neg = NDDeduction("or_i2", Or(psi, pi), (hyp(pi, self.mk.fresh()),))
        conj = NDDeduction("and_i", And(Or(psi, Box(a)), Or(psi, pi)),
                           (starred, with_neg))
        distributed = distribute_join_over_meet(psi, Box(a), pi, conj, self.mk)

        inner_conj = And(Box(a), pi)
        w1, w2 = self.mk.fresh(), self.mk.fresh()
        crushed = self.bot_to(
            _bot_from_boxed_pair(lambda: hyp(inner_conj, w2), a), psi)
        return NDDeduction(
            "or_e", psi,
            (distributed, hyp(psi, w1), crushed),
            discharges=((w1, psi), (w2, inner_conj)))


def sc_to_nd(p: ScProof) -> NDDeduction:
    """Translate a cut-free sequent proof of G => D into a deduction of
    the canonical disjunction of D whose open assumptions lie in G."""
    sc.verify_sc_proof(p, allow_cut=False)
    return fold(p, _ToNd().step)


# ---------------------------------------------------------------------------
# Deduction -> sequent proof (may use cut).

def _axiom(f: Formula) -> ScProof:
    return sc.axiom([f], [f])


def _lemma_box_vs_plain(phi: Formula) -> ScProof:
    """Proof of phi & ~#phi => phi & ~phi."""
    conj_box = And(phi, Neg(Box(phi)))
    conj_plain = And(phi, Neg(phi))
    left = sc.weaken(_axiom(phi), [phi, Neg(Box(phi))], [phi])
    r1 = sc.weaken(_axiom(phi), [phi], [Neg(phi), phi])
    r2 = sc.weaken(_axiom(Neg(phi)), [phi, Neg(phi)], [Neg(phi)])
    neg_branch = ScProof(ScRule.NEG_BOX_L, Sequent.of([phi, Neg(Box(phi))], [Neg(phi)]),
                         (Neg(Box(phi)),), (r1, r2))
    both = ScProof(ScRule.AND_R, Sequent.of([phi, Neg(Box(phi))], [conj_plain]),
                   (conj_plain,), (left, neg_branch))
    return ScProof(ScRule.AND_L, Sequent.of([conj_box], [conj_plain]),
                   (conj_box,), (both,))


class _ToSc:
    """Reverse translation.  Each node yields a proof of open => concl,
    or of open => with an empty right side for deductions ending in the
    falsum introduction (the falsum constant has no sequent rules).

    A deduction rule that stands for a sequent rule becomes that rule
    wherever the deduction allows:

    - an introduction, its right rule over the proofs of its premises,
      each weakened by the formulas the rule adds;
    - a one-premise elimination whose major premise is a hypothesis,
      its left rule over an axiom;
    - a case split (|E, ~&E) whose major formula is already an open
      assumption of the step, its left rule.

    The other steps cut: a one-premise elimination of a derived formula
    (against the one-rule lemma of its left rule), a case split on a
    formula that is not yet open, ~#E (two cuts), the falsum
    introduction (against the falsum proof) and the starred box
    introduction (to split psi | a)."""

    def translate(self, d: NDDeduction) -> ScProof:
        return self._mat(fold(d, self._step), BOT)

    @staticmethod
    def _mat(proof: ScProof, phi: Formula) -> ScProof:
        """The proof, with phi on its right side where that is empty."""
        if not proof.sequent.right:
            return sc.weaken(proof, proof.sequent.left, [phi])
        return proof

    def _step(self, d: NDDeduction, results: list[ScProof]) -> ScProof:
        r = d.rule
        c = d.conclusion
        if r == "hyp":
            return _axiom(c)
        if r == "ma":
            a = c.left
            base = _axiom(a)
            step = ScProof(ScRule.NEG_BOX_R1, Sequent.of([], [a, Neg(Box(a))]),
                           (Neg(Box(a)),), (sc.weaken(base, [a], [a]),))
            return ScProof(ScRule.OR_R, Sequent.of([], [c]), (c,), (step,))
        if r == "bot_e":
            proof = results[0]
            if proof.sequent.right:
                raise NdTranslationError(
                    "falsum obtained from a bare hypothesis cannot be expressed "
                    "in the sequent calculus")
            return proof if c is BOT else self._mat(proof, c)

        prems = [q.conclusion for q in d.premises]
        ps = [self._mat(p, f) for p, f in zip(results, prems)]
        rule = _SC_RULE.get(r)
        if rule in _ND_INTRO:
            left = frozenset().union(*(p.sequent.left for p in ps))
            ws = tuple(sc.weaken(p, left, added)
                       for p, added in zip(ps, _added(rule, c)))
            return ScProof(rule, Sequent(left, frozenset({c})), (c,), ws)
        if rule in (ScRule.OR_L, ScRule.NEG_AND_L):
            return self._case_split(d, ps[0], results, rule)
        if rule is not None:   # a one-premise elimination
            (src,), (p,) = prems, ps
            if d.premises[0].rule == "hyp":
                (added,) = _added(rule, src)
                base = sc.axiom([src, *added], [c])
                return ScProof(rule, Sequent.of([src], [c]), (src,), (base,))
            return sc.cut(p, sc._lemma(rule, src, c), src, p.sequent.left, [c])

        if r == "box_i_star":
            return self._box_i_star(d, ps)
        if r == "neg_box_e":
            (nb, phi), (p0, p1) = prems, ps
            left = p0.sequent.left | p1.sequent.left
            conj_box = And(phi, nb)
            w0 = sc.weaken(p0, left, [nb])
            w1 = sc.weaken(p1, left, [phi])
            both = ScProof(ScRule.AND_R, Sequent(left, frozenset({conj_box})),
                           (conj_box,), (w1, w0))
            conj_plain = And(phi, Neg(phi))
            eq = _lemma_box_vs_plain(phi)
            to_plain = sc.cut(both, eq, conj_box, left, [conj_plain])
            drop = sc._lemma(ScRule.AND_L, conj_plain, Neg(phi))
            return sc.cut(to_plain, drop, conj_plain, left, [Neg(phi)])
        if r == "bot_i":
            (src,), (p,) = prems, ps
            lemma = sc.falsum_proof(src.right.child)
            return sc.cut(p, lemma, src, p.sequent.left, [])
        raise NdTranslationError(f"unknown rule {r!r}")

    def _case_split(self, d: NDDeduction, p0: ScProof, results: list[ScProof],
                    rule: ScRule) -> ScProof:
        c = d.conclusion
        main = d.premises[0].conclusion
        (a,), (b,) = _added(rule, main)
        # an empty right side only where both cases end in falsum
        right: list[Formula] = [c] if any(r.sequent.right for r in results[1:]) else []
        q1, q2 = (self._mat(r, c) if right else r for r in results[1:])
        left = (p0.sequent.left | (q1.sequent.left - {a}) | (q2.sequent.left - {b}))
        w1 = sc.weaken(q1, left | {a}, right)
        w2 = sc.weaken(q2, left | {b}, right)
        node = ScProof(rule, Sequent(left | {main}, frozenset(right)), (main,), (w1, w2))
        if main in left:   # an open assumption already: no cut needed
            return node
        return sc.cut(p0, node, main, left, right)

    def _box_i_star(self, d: NDDeduction, ps: list[ScProof]) -> ScProof:
        c = d.conclusion
        psi, boxed = c.left, c.right
        a = boxed.child
        p0, p1 = ps
        disj = d.premises[0].conclusion  # psi | a
        left = p0.sequent.left | (p1.sequent.left - {Neg(a)})
        # split psi | a into psi, a
        s1 = sc.weaken(_axiom(psi), [psi], [psi, a])
        s2 = sc.weaken(_axiom(a), [a], [psi, a])
        split = ScProof(ScRule.OR_L, Sequent.of([disj], [psi, a]), (disj,), (s1, s2))
        opened = sc.cut(p0, split, disj, left, [psi, a])
        side = sc.weaken(p1, left | {Neg(a)}, [psi])
        boxed_in = ScProof(ScRule.BOX_R, Sequent(left, frozenset({psi, boxed})),
                           (boxed,), (opened, side))
        return ScProof(ScRule.OR_R, Sequent(left, frozenset({c})), (c,), (boxed_in,))


def nd_to_sc(d: NDDeduction) -> ScProof:
    """Translate a checked deduction into a sequent proof of
    open_assumptions => conclusion; the result may use cut."""
    verify_nd(d)
    return _ToSc().translate(d)


# ---------------------------------------------------------------------------
# The shared proof-tree routines under this calculus's names.

NdCheckError = CheckError
nd_to_json = to_json
nd_from_json = partial(from_json, node_class=NDDeduction)
render_nd = render
