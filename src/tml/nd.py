"""Natural deduction with hypothesis discharge, and the two-way
translation between sequent proofs and deductions.

Deductions are trees whose leaves are marked hypotheses; |E, ~&E and
the starred box introduction close hypothesis classes by marker.

The forward translation turns a cut-free sequent proof of G => D into a
deduction of the disjunction of D from G.  It passes contexts down the
proof (see ``_ToNd``): one-premise rules only add to them, and only the
axiom, the case splits and the two-premise right rules add steps, so
the deduction is about twice the proof's size.  The reverse translation
rebuilds a sequent proof from a deduction with the sequent rules and
weakening, and with cut only at the steps listed in ``_ToSc``.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Callable, Iterable, Optional, Sequence

from . import sc
from .proofs import (CheckError, fold, from_json, render, shared, to_json, tree_eq,
                     tree_hash, walk)
from .record import Record
from .sc import ScProof, ScRule
from .sequents import Sequent
from .syntax import And, BOT, Box, Formula, Neg, Or, Var, parse

__all__ = [
    "NDDeduction", "NdCheckError", "NdResult", "check_nd", "verify_nd",
    "open_assumptions", "disjunction_of", "sc_to_nd", "nd_to_sc",
    "NdTranslationError", "nd_to_json", "nd_from_json", "render_nd",
    "hyp",
]

_A, _B, _C = Var("a"), Var("b"), Var("c")

# Every rule but hyp: the conclusions of its premises, its conclusion,
# and the assumptions it discharges, each with the premise it closes in,
# all as shapes over the letters a, b and c.
_RULES = {
    "ma": ((), Or(_A, Neg(Box(_A))), ()),
    "and_i": ((_A, _B), And(_A, _B), ()),
    "and_e1": ((And(_A, _B),), _A, ()),
    "and_e2": ((And(_A, _B),), _B, ()),
    "neg_and_i1": ((Neg(_A),), Neg(And(_A, _B)), ()),
    "neg_and_i2": ((Neg(_B),), Neg(And(_A, _B)), ()),
    "neg_and_e": ((Neg(And(_A, _B)), _C, _C), _C, ((1, Neg(_A)), (2, Neg(_B)))),
    "or_i1": ((_A,), Or(_A, _B), ()),
    "or_i2": ((_B,), Or(_A, _B), ()),
    "or_e": ((Or(_A, _B), _C, _C), _C, ((1, _A), (2, _B))),
    "neg_or_i": ((Neg(_A), Neg(_B)), Neg(Or(_A, _B)), ()),
    "neg_or_e1": ((Neg(Or(_A, _B)),), Neg(_A), ()),
    "neg_or_e2": ((Neg(Or(_A, _B)),), Neg(_B), ()),
    "neg_neg_i": ((_A,), Neg(Neg(_A)), ()),
    "neg_neg_e": ((Neg(Neg(_A)),), _A, ()),
    "box_i_star": ((Or(_A, _B), _A), Or(_A, Box(_B)), ((1, Neg(_B)),)),
    "box_e": ((Box(_A),), _A, ()),
    "neg_box_i": ((Neg(_A),), Neg(Box(_A)), ()),
    "neg_box_e": ((Neg(Box(_A)), _A), Neg(_A), ()),
    "bot_i": ((And(Neg(_A), Box(_A)),), BOT, ()),
    "bot_e": ((BOT,), _A, ()),
}

ND_RULES = {"hyp": 0, **{r: len(row[0]) for r, row in _RULES.items()}}

# each rule's shapes in the order _check_schema lists a node's formulas
_SHAPES = {r: (conclusion, *prems, *(shape for _, shape in discharged))
           for r, (prems, conclusion, discharged) in _RULES.items()}

# which premise index each discharge slot of a rule closes
_DISCHARGE_AT = {r: tuple(at for at, _ in row[2]) for r, row in _RULES.items() if row[2]}


class NDDeduction(Record):
    __slots__ = ("rule", "conclusion", "premises", "marker", "discharges", "_hash")
    rule: str
    conclusion: Formula
    premises: tuple[NDDeduction, ...]
    marker: Optional[str]                        # hyp nodes only
    discharges: tuple[tuple[str, Formula], ...]  # (marker, assumption)

    def __init__(self, rule: str, conclusion: Formula, premises: tuple[NDDeduction, ...] = (),
                 marker: Optional[str] = None,
                 discharges: tuple[tuple[str, Formula], ...] = ()) -> None:
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "conclusion", conclusion)
        object.__setattr__(self, "premises", premises)
        object.__setattr__(self, "marker", marker)
        object.__setattr__(self, "discharges", discharges)

    __eq__ = tree_eq

    __hash__ = tree_hash

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


class NdResult(Record):
    ok: bool
    conclusion: Formula
    open: frozenset[Formula]
    error: Optional[str] = None


def _fits(shapes: Sequence[Formula], formulas: Sequence[Formula]) -> bool:
    """Whether each formula has its shape, each letter standing for one
    formula throughout."""
    bound: dict[Formula, Formula] = {}
    pairs = list(zip(shapes, formulas))
    for shape, f in pairs:   # the children of a pair join the list behind it
        t = type(shape)
        if t is Var:
            if bound.setdefault(shape, f) is not f:
                return False
        elif type(f) is not t:
            return False
        elif t is Neg or t is Box:
            pairs.append((shape.child, f.child))
        elif f is not BOT:
            pairs += ((shape.left, f.left), (shape.right, f.right))
    return True


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

    if r == "hyp":
        ok = node.marker is not None
    else:
        formulas = [node.conclusion]
        formulas += [q.conclusion for q in node.premises]
        if node.discharges:
            formulas += [f for _, f in node.discharges]
        ok = _fits(_SHAPES[r], formulas)
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


def _folds(delta: Iterable[Formula]) -> list[Formula]:
    """For each k, the right-fold of the formulas from the k-th on, in
    sorted rendering order; only bot when there are none."""
    elems = _elems(delta)
    folds = elems[-1:] or [BOT]
    for e in reversed(elems[:-1]):
        folds.append(Or(e, folds[-1]))
    folds.reverse()
    return folds


def disjunction_of(delta: Iterable[Formula]) -> Formula:
    """Right-fold of the formulas in sorted rendering order; the empty
    disjunction is bot."""
    return _folds(delta)[0]


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
    _, side, _, adds = sc._RULE[rule]
    return [dl if side == "L" else dr for dl, dr in adds(*sc._parts(pi))]


# A handler step (rule, conclusion, premises before, premises after) puts
# the deduction it is applied to between the premises.  A handler is
# (steps, next, frame): its steps, then the handler of ``next`` unless
# that is None; the last one reaches ``targets[frame]``.
_Step = tuple[str, Formula, tuple[NDDeduction, ...], tuple[NDDeduction, ...]]
_Handler = tuple[tuple[_Step, ...], object, int]
# What a premise adds: deductions of left formulas, handlers of right
# formulas as (formula, steps, next), and a new target or None.
_Context = tuple[tuple[tuple[Formula, NDDeduction], ...],
                 tuple[tuple[Formula, tuple[_Step, ...], object], ...],
                 Optional[Formula]]
_NOTHING: _Context = ((), (), None)


class _ToNd:
    """Forward translation: one walk down a cut-free proof of G => D that
    passes three contexts to each premise, and builds each node's
    deduction from its premises' on the way back up.

    - ``env``: a deduction of each left formula, a hypothesis of G or of
      a case, or an elimination over the deduction of a principal;
    - ``handlers``: for each right formula, the steps that turn a
      deduction of it into one of the target;
    - ``targets``: the target last, the disjunction of D at the root;
      the first premise of &R, ~|R, #R and ~#L, which adds x, has the
      target ``T | x`` over its node's target T.

    A premise adds an entry only for a formula that has none, and the
    walk removes what the premise added when it leaves it.  The root's
    handlers embed each formula of D into its disjunction through the
    keys 0, 1, ...: the handler of key k turns the right-fold of the
    formulas from the k-th on into the one from the (k-1)-th on."""

    def __init__(self, seq: Sequent):
        self.n = 0
        self.env = {g: hyp(g, self.fresh()) for g in _elems(seq.left)}
        elems = _elems(seq.right)
        folds = _folds(elems)
        self.targets = folds[:1]
        self.handlers: dict[object, _Handler] = {}
        for k, e in enumerate(elems):
            into = (("or_i1", folds[k], (), ()),) if k + 1 < len(elems) else ()
            self.handlers[e] = (into, k, 0)
            self.handlers[k] = (((("or_i2", folds[k - 1], (), ()),), k - 1, 0) if k
                                else ((), None, 0))

    def fresh(self) -> str:
        self.n += 1
        return f"u{self.n}"

    def close(self, f: Formula, ded: NDDeduction) -> NDDeduction:
        """From a deduction of the right formula f, one of the target."""
        key: object = f
        while key is not None:
            steps, key, frame = self.handlers[key]
            for rule, c, before, after in steps:
                ded = NDDeduction(rule, c, (*before, ded, *after))
        for t in self.targets[frame + 1:]:
            ded = NDDeduction("or_i1", t, (ded,))
        return ded

    def enter(self, ctx: _Context) -> tuple[list, list, bool]:
        """Add a premise's context; return what was added."""
        envs, handlers, target = ctx
        if target is not None:
            self.targets.append(target)
        frame = len(self.targets) - 1
        new_env, new_handlers = [], []
        for f, d in envs:
            if f not in self.env:
                self.env[f] = d
                new_env.append(f)
        for f, steps, nxt in handlers:
            if f not in self.handlers:
                self.handlers[f] = (steps, nxt, frame)
                new_handlers.append(f)
        return new_env, new_handlers, target is not None

    def leave(self, added: tuple[list, list, bool]) -> None:
        new_env, new_handlers, pushed = added
        for f in new_env:
            del self.env[f]
        for f in new_handlers:
            del self.handlers[f]
        if pushed:
            self.targets.pop()

    def split(self, node: ScProof) -> tuple[list[_Context], tuple]:
        """The context each premise adds, and the discharges of the node's
        deduction, with markers given in the order of the walk."""
        rule = node.rule
        if rule is ScRule.AXIOM:
            return [], ()
        if rule in (ScRule.WEAK_L, ScRule.WEAK_R):
            return [_NOTHING], ()
        if rule is ScRule.CUT:
            raise sc._CutMet
        (pi,) = node.principal
        target = self.targets[-1]
        if rule is ScRule.BOX_L2:   # ~a closes with the falsum ~a & #a
            na = Neg(pi.child)
            steps = (("and_i", And(na, pi), (), (self.env[pi],)), ("bot_i", BOT, (), ()))
            if target is not BOT:
                steps += (("bot_e", target, (), ()),)
            return [((), ((na, steps, None),), None)], ()
        if rule is ScRule.NEG_BOX_R1:   # a case split on the axiom a | ~#a
            a = pi.child.child
            u, v = self.fresh(), self.fresh()
            return [(((a, hyp(a, u)),), (), None)], ((u, a), (v, pi))
        if rule in (ScRule.BOX_R, ScRule.NEG_BOX_L):
            x1 = pi.child if rule is ScRule.BOX_R else pi.child.child
            x2 = Neg(x1)
        else:
            added = _added(rule, pi)
            if len(added) == 1:
                if rule in _ND_ELIM:
                    d = self.env[pi]
                    return [(tuple((x, NDDeduction(r, x, (d,)))
                                   for x, r in zip(added[0], _ND_ELIM[rule])), (), None)], ()
                return [((), tuple((x, ((r, pi, (), ()),), pi)
                                   for x, r in zip(added[0], _ND_INTRO[rule])), None)], ()
            (x1,), (x2,) = added
        u, v = self.fresh(), self.fresh()
        if rule in _ND_ELIM:   # |L, ~&L: a case split on pi
            return ([(((x1, hyp(x1, u)),), (), None), (((x2, hyp(x2, v)),), (), None)],
                    ((u, x1), (v, x2)))
        # the first premise proves target | x1, split by |E
        wider = Or(target, x1)
        first = ((), ((x1, (("or_i2", wider, (), ()),), None),), wider)
        if rule is ScRule.BOX_R:   # then #I* concludes target | #a
            w = self.fresh()
            return [first, (((x2, hyp(x2, v)),), (), None)], ((v, x2), (u, target), (w, pi))
        if rule is ScRule.NEG_BOX_L:   # in the a case, ~#E gives ~a
            neg_a = NDDeduction("neg_box_e", x2, (self.env[pi], hyp(x1, v)))
            second: _Context = (((x2, neg_a),), (), None)
        else:   # in the x1 case, x2 closes with the introduction of pi
            intro = ((_ND_INTRO[rule][0], pi, (hyp(x1, v),), ()),)
            second = ((), ((x2, intro, pi),), None)
        return [first, second], ((u, target), (v, x1))

    def join(self, node: ScProof, discharges: tuple, ds: list[NDDeduction]) -> NDDeduction:
        """The node's deduction of the target, from its premises'."""
        rule = node.rule
        if rule is ScRule.AXIOM:
            (alpha,) = node.principal
            return self.close(alpha, self.env[alpha])
        if not discharges:
            return ds[0]
        (pi,) = node.principal
        target = self.targets[-1]
        if rule is ScRule.NEG_BOX_R1:
            (_, a), (v, _) = discharges
            cases = (NDDeduction("ma", Or(a, pi)), ds[0], self.close(pi, hyp(pi, v)))
            return NDDeduction("or_e", target, cases, discharges=discharges)
        if rule in _ND_ELIM:
            return NDDeduction(_ND_ELIM[rule][0], target, (self.env[pi], *ds),
                               discharges=discharges)
        if rule is ScRule.BOX_R:
            starred = NDDeduction("box_i_star", Or(target, pi), tuple(ds),
                                  discharges=discharges[:1])
            discharges = discharges[1:]
            (u, _), (w, _) = discharges
            cases = (starred, hyp(target, u), self.close(pi, hyp(pi, w)))
        else:
            (u, _), _ = discharges
            cases = (ds[0], hyp(target, u), ds[1])
        return NDDeduction("or_e", target, cases, discharges=discharges)

    def translate(self, root: ScProof) -> NDDeduction:
        done: list[NDDeduction] = []
        todo: list[tuple] = [("enter", root, _NOTHING)]
        while todo:
            kind, node, data = todo.pop()
            if kind == "leave":
                self.leave(data)
            elif kind == "join":
                start = len(done) - len(node.premises)
                ded = self.join(node, data, done[start:])
                del done[start:]
                done.append(ded)
            else:
                todo.append(("leave", node, self.enter(data)))
                contexts, discharges = self.split(node)
                todo.append(("join", node, discharges))
                todo.extend(("enter", q, ctx)
                            for q, ctx in reversed(list(zip(node.premises, contexts))))
        return done[0]


def sc_to_nd(p: ScProof) -> NDDeduction:
    """Translate a cut-free sequent proof of G => D into a deduction of
    the canonical disjunction of D whose open assumptions lie in G.
    p must pass ``sc.verify_sc_proof``; it is not checked again here,
    but a cut in it raises CheckError as the checker would."""
    try:
        return _ToNd(p.sequent).translate(p)
    except sc._CutMet:
        raise sc._cut_error(p) from None


# ---------------------------------------------------------------------------
# Deduction -> sequent proof (may use cut).

def _axiom(f: Formula, left: Iterable[Formula] = (), right: Iterable[Formula] = ()) -> ScProof:
    """The axiom f => f, with the formulas left and right added."""
    return ScProof(ScRule.AXIOM, Sequent.of([f, *left], [f, *right]), (f,))


def _lemma_box_vs_plain(phi: Formula) -> ScProof:
    """Proof of phi & ~#phi => phi & ~phi."""
    conj_box = And(phi, Neg(Box(phi)))
    conj_plain = And(phi, Neg(phi))
    left = _axiom(phi, [Neg(Box(phi))])
    r1 = _axiom(phi, (), [Neg(phi)])
    r2 = _axiom(Neg(phi), [phi])
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
      each widened by the formulas the rule adds (``sc._widen``);
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
            return sc._widen(proof, proof.sequent.left, frozenset({phi}))
        return proof

    def _step(self, d: NDDeduction, results: list[ScProof]) -> ScProof:
        r = d.rule
        c = d.conclusion
        if r == "hyp":
            return _axiom(c)
        if r == "ma":
            a = c.left
            step = ScProof(ScRule.NEG_BOX_R1, Sequent.of([], [a, Neg(Box(a))]),
                           (Neg(Box(a)),), (_axiom(a),))
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
            ws = tuple(sc._widen(p, left, frozenset(added))
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
            w0 = sc._widen(p0, left, frozenset({nb}))
            w1 = sc._widen(p1, left, frozenset({phi}))
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
        w1 = sc._widen(q1, left | {a}, frozenset(right))
        w2 = sc._widen(q2, left | {b}, frozenset(right))
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
        s1 = _axiom(psi, (), [a])
        s2 = _axiom(a, (), [psi])
        split = ScProof(ScRule.OR_L, Sequent.of([disj], [psi, a]), (disj,), (s1, s2))
        opened = sc.cut(p0, split, disj, left, [psi, a])
        side = sc._widen(p1, left | {Neg(a)}, frozenset({psi}))
        boxed_in = ScProof(ScRule.BOX_R, Sequent(left, frozenset({psi, boxed})),
                           (boxed,), (opened, side))
        return ScProof(ScRule.OR_R, Sequent(left, frozenset({c})), (c,), (boxed_in,))


def nd_to_sc(d: NDDeduction) -> ScProof:
    """Translate a deduction into a sequent proof of open_assumptions =>
    conclusion; the result may use cut.  d must pass ``verify_nd``; it is
    not checked again here."""
    return _ToSc().translate(d)


# ---------------------------------------------------------------------------
# The shared proof-tree routines under this calculus's names.

NdCheckError = CheckError
nd_to_json = to_json
nd_from_json = partial(from_json, node_class=NDDeduction)
render_nd = render
