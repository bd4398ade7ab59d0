"""Single-conclusion calculus G: checking and bounded cut-free search.

The calculus has the structural axiom a => a, the modal axiom
=> a | ~#a, weakening and cut, and the logic rules displayed by its
definition, including the context-free contraposition rule and the two
box rules that rewrite ~a to ~#a on the left and a & ~a to a & ~#a on
the right.  Cut-free backward search is exhaustive up to a height
bound; it exists to probe which sequents have no cut-free proof.

G is sound for M4 with designated values b and 1, so the search drops
every sequent with a countermodel without expanding it, testing each
on value planes computed once per formula of the goal.  When the bound
cut no branch off, a miss is exhaustive: the sequents the search failed
on and those it dropped form a certificate (``GUnprovable``) that
``verify_g_unprovable`` checks with the pointwise evaluator, and the
probe reports the miss as exhaustive only when that certificate checks.
The proof checker and the certificate check share one list of G's rule
instances, ``_rule_instances``; the search has its own,
``_backward_steps``, so that no certificate rests on the enumeration
it certifies.
"""

from __future__ import annotations

from enum import Enum
from functools import partial
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional

from .matrix import (M4, DunnPlanes, MissingVariableError, Planes, matrix_consequence,
                     render_valuation, value_planes)
from .proofs import (CheckError, from_json, passes, render, shared, to_json, tree_eq,
                     tree_hash, walk)
from .record import Record
from .sc import is_cut_free, prove
from .sequents import Sequent, sequent_satisfied, side_texts
from .syntax import And, BOT, Box, Formula, Neg, Or, formula_key, parse, variables_of

__all__ = [
    "GRule", "GSequent", "GProof", "GCheckError", "check_g_proof",
    "verify_g_proof", "g_search_cutfree", "GSearchStats", "GUnprovable",
    "verify_g_unprovable", "cut_necessity_probe", "ProbeReport",
    "g_proof_to_json", "g_proof_from_json", "render_g_proof",
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


class GSequent(Record):
    __slots__ = ("left", "right")
    left: frozenset[Formula]
    right: Formula

    def __init__(self, left: frozenset[Formula], right: Formula) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.left, self.right) == (other.left, other.right)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.left, self.right))

    @staticmethod
    def of(left: Iterable[Formula], right: Formula) -> "GSequent":
        return GSequent(frozenset(left), right)

    def __str__(self) -> str:
        lhs = ", ".join(side_texts(self.left))
        return f"{lhs} => {self.right.text}".strip()


class GProof(Record):
    __slots__ = ("rule", "sequent", "premises", "_hash")
    rule: GRule
    sequent: GSequent
    premises: tuple[GProof, ...]

    def __init__(self, rule: GRule, sequent: GSequent, premises: tuple[GProof, ...] = ()) -> None:
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "sequent", sequent)
        object.__setattr__(self, "premises", premises)

    __eq__ = tree_eq

    __hash__ = tree_hash

    def json_fields(self, sides: dict) -> dict:
        return {"rule": self.rule.value,
                "sequent": {"left": shared(sides, self.sequent.left, side_texts),
                            "right": [self.sequent.right.text]},
                "premises": []}

    @staticmethod
    def json_reader(doc: dict, formulas: dict) -> Callable[[tuple], "GProof"]:
        right = doc["sequent"]["right"]
        if len(right) != 1:
            raise ValueError("G sequents have exactly one conclusion")
        seq = GSequent.of([shared(formulas, t, parse) for t in doc["sequent"]["left"]],
                          shared(formulas, right[0], parse))
        rule = GRule(doc["rule"])
        return lambda premises: GProof(rule, seq, premises)

    def label(self) -> str:
        return f"{self.sequent}   [{self.rule.value}]"


def _modal_axiom_shape(f: Formula) -> bool:
    return (isinstance(f, Or) and isinstance(f.right, Neg)
            and isinstance(f.right.child, Box) and f.right.child.child is f.left)


def _is_axiom(seq: GSequent, rule: GRule) -> bool:
    """Whether seq is an instance of the axiom rule, a => a or => a | ~#a."""
    if rule is GRule.STRUCT_AX:
        return seq.left == frozenset({seq.right})
    return not seq.left and _modal_axiom_shape(seq.right)


def _logical_instances(seq: GSequent) -> Iterator[tuple[GRule, list[GSequent]]]:
    """The premises of every instance of a logical rule or g.bot
    concluding seq, as both the proof checker and certificates take them."""
    L, phi = seq.left, seq.right
    for pi in L:
        for ctx in (L - {pi}, L):
            if isinstance(pi, And):
                yield GRule.AND_L, [GSequent(ctx | {pi.left, pi.right}, phi)]
            if isinstance(pi, Or):
                yield GRule.OR_L, [GSequent(ctx | {pi.left}, phi),
                                   GSequent(ctx | {pi.right}, phi)]
            if isinstance(pi, Neg) and isinstance(pi.child, Neg):
                yield GRule.NEG_NEG_L, [GSequent(ctx | {pi.child.child}, phi)]
            if isinstance(pi, Neg) and isinstance(pi.child, Box) and pi.child.child in L:
                alpha = pi.child.child
                yield GRule.BOX_L, [GSequent(ctx | {alpha, Neg(alpha)}, phi)]
    if isinstance(phi, And):
        yield GRule.AND_R, [GSequent(L, phi.left), GSequent(L, phi.right)]
        if (isinstance(phi.right, Neg) and isinstance(phi.right.child, Box)
                and phi.right.child.child is phi.left):
            yield GRule.BOX_R, [GSequent(L, And(phi.left, Neg(phi.left)))]
    if isinstance(phi, Or):
        yield GRule.OR_R1, [GSequent(L, phi.left)]
        yield GRule.OR_R2, [GSequent(L, phi.right)]
    if isinstance(phi, Neg) and isinstance(phi.child, Neg):
        yield GRule.NEG_NEG_R, [GSequent(L, phi.child.child)]
    if isinstance(phi, Neg) and len(L) == 1:
        (lone,) = L
        if isinstance(lone, Neg):
            yield GRule.NEG, [GSequent(frozenset({phi.child}), lone.child)]
    yield GRule.BOT_RULE, [GSequent(L, BOT)]


def verify_g_proof(p: GProof, allow_cut: bool = False) -> None:
    """Raise CheckError at the first node, in pre-order, that breaks its
    rule.  A node of a logical rule or g.bot passes when its rule and
    premises are among the ``_logical_instances`` of its sequent, the
    list that certificates of unprovability are checked against too."""
    for node, path, entering in walk(p):
        if not entering:
            continue
        seq, rule = node.sequent, node.rule
        L, phi = seq.left, seq.right
        prems = [q.sequent for q in node.premises]
        if rule in (GRule.STRUCT_AX, GRule.MODAL_AX):
            ok = not prems and _is_axiom(seq, rule)
        elif rule is GRule.WEAK:
            ok = (len(prems) == 1 and prems[0].right is phi and prems[0].left <= L
                  and len(L - prems[0].left) <= 1)
        elif rule is GRule.CUT:
            if not allow_cut:
                raise CheckError(path, "cut is not allowed here", rule)
            ok = (len(prems) == 2 and prems[0].left == L and prems[1].right is phi
                  and prems[1].left == L | {prems[0].right})
        else:
            ok = (rule, prems) in _logical_instances(seq)
        if not ok:
            raise CheckError(path, "premises do not instantiate the schema", rule)


# ---------------------------------------------------------------------------
# Bounded cut-free backward search.

def _backward_steps(seq: GSequent) -> Iterator[tuple[GRule, list[GSequent]]]:
    """The search's own list of the cut-free backward steps from seq, in
    the order it tries them, each made when the search asks for it.  A
    step with seq among its premises could only fail and is left out;
    only a left rule that keeps its principal formula can make one."""
    L, phi = seq.left, seq.right
    ordered = sorted(L, key=formula_key)
    for beta in ordered:
        yield GRule.WEAK, [GSequent(L - {beta}, phi)]

    for pi in ordered:
        if isinstance(pi, And):
            rule, parts = GRule.AND_L, ({pi.left, pi.right},)
        elif isinstance(pi, Or):
            rule, parts = GRule.OR_L, ({pi.left}, {pi.right})
        elif isinstance(pi, Neg) and isinstance(pi.child, Neg):
            rule, parts = GRule.NEG_NEG_L, ({pi.child.child},)
        elif (isinstance(pi, Neg) and isinstance(pi.child, Box)
              and pi.child.child in L):
            alpha = pi.child.child
            rule, parts = GRule.BOX_L, ({alpha, Neg(alpha)},)
        else:
            continue
        for ctx in (L - {pi}, L):
            prems = [GSequent(ctx | part, phi) for part in parts]
            if seq not in prems:
                yield rule, prems

    if isinstance(phi, And):
        yield GRule.AND_R, [GSequent(L, phi.left), GSequent(L, phi.right)]
        if (isinstance(phi.right, Neg) and isinstance(phi.right.child, Box)
                and phi.right.child.child is phi.left):
            yield GRule.BOX_R, [GSequent(L, And(phi.left, Neg(phi.left)))]
    elif isinstance(phi, Or):
        yield GRule.OR_R1, [GSequent(L, phi.left)]
        yield GRule.OR_R2, [GSequent(L, phi.right)]
    elif isinstance(phi, Neg):
        if isinstance(phi.child, Neg):
            yield GRule.NEG_NEG_R, [GSequent(L, phi.child.child)]
        if len(L) == 1:
            (lone,) = L
            if isinstance(lone, Neg):
                yield GRule.NEG, [GSequent(frozenset({phi.child}), lone.child)]

    if phi is not BOT:
        yield GRule.BOT_RULE, [GSequent(L, BOT)]


class GSearchStats:
    """What bounded G searches did, summed over the searches given it.
    Mutable, and equal only to itself, unlike the package's frozen
    ``Record`` classes."""

    __slots__ = ("expanded", "memo_hits", "pruned", "validity_memo_hits", "bound_hit")

    def __init__(self) -> None:
        self.expanded = 0            # sequents whose backward steps were tried
        self.memo_hits = 0           # sequents settled by the memo of failures
        self.pruned = 0              # sequents dropped for having a countermodel
        self.validity_memo_hits = 0  # validity verdicts read from their memo
        self.bound_hit = False       # some branch was cut off at the height bound

    def __str__(self) -> str:
        return (f"expanded {self.expanded}, memo hits {self.memo_hits}, "
                f"pruned {self.pruned}, validity memo hits "
                f"{self.validity_memo_hits}, bound hit {self.bound_hit}")


# A plane over k variables takes 4**k bits, and testing a sequent costs
# time in proportion: about 8.5 us at 8 variables, 34 us at 9 and 155 us
# at 10, against 37-48 us for expanding a sequent (CPython 3.11, one
# core of a shared 2-core VM).  Every sequent is tested, and only the
# dropped ones save an expansion.  On the chain x1 & ... & xk => x1 at
# height 12, where about half the tested sequents have a countermodel,
# pruning took 2.4 s against 3.1 s unpruned at 8 variables, 7.5 s
# against 6.5 s at 9 and 26 s against 8.7 s at 10.  Past this many
# variables the search does not prune, which costs it speed but no
# proof and no certificate.
_PRUNE_MAX_VARS = 8


class _Refuter:
    """The first valuation that refutes a G sequent, as its index j in
    ``valuations(names)`` over the goal's variables, or -1 where none
    does.  An index, not the mask of all refuting valuations: a search
    keeps one per sequent it tests, and a mask takes 4**k bits.  Every
    sequent of a search is built from the goal's subformulas, their
    negations and ``a & ~a``, so it has no other variables, and one
    kernel from ``matrix.value_planes`` serves them all.  A goal with
    more than ``_PRUNE_MAX_VARS`` variables gets -1, no refuting
    valuation, for every sequent, and ``planes`` is None: no plane is
    built for it."""

    def __init__(self, goal: GSequent):
        names = variables_of([*goal.left, goal.right])
        self.planes = (value_planes(names, M4)
                       if len(names) <= _PRUNE_MAX_VARS else None)

    def __call__(self, seq: GSequent) -> int:
        if self.planes is None:
            return -1
        mask = self.planes.refuting(seq.left, [seq.right])
        return (mask & -mask).bit_length() - 1


def _bounded_search(s: GSequent, depth: int, stats: GSearchStats,
                    ) -> tuple[Optional[GProof], dict[GSequent, int],
                               dict[GSequent, int], Optional[Planes | DunnPlanes]]:
    """The first cut-free proof of s of height at most depth, in the
    order of ``_backward_steps``, or None; with the memo of failures
    (the largest budget each sequent failed at), the memo of first
    refuting valuations (their indices, -1 where none refutes or none
    was looked for) and the planes they index, None where none was
    looked for.

    Depth-first on an explicit stack, one frame per open sequent.  A
    sequent is tested, in order, for the budget (where ``bound_hit`` is
    set), the memo of failures, validity, the two axioms and then each
    backward step.  G is sound for M4, so a sequent with a countermodel
    has no proof and is dropped unexpanded: only branches that would
    fail anyway are cut, and the proof found is the same.  When the
    bound cut no branch off, no key of the memo of failures and no
    sequent with a refuting valuation has a cut-free proof at any height."""
    failed_at: dict[GSequent, int] = {}
    refuting: dict[GSequent, int] = {}
    refute = _Refuter(s)
    expanded = memo_hits = pruned = validity_hits = 0
    bound_hit = False
    # frames [sequent, budget, its steps to come, the current step, premise proofs]
    stack: list[list] = []
    seq, budget = s, depth
    while True:
        result: Optional[GProof] = None
        if budget <= 0:
            bound_hit = True
        elif failed_at.get(seq, -1) >= budget:
            memo_hits += 1
        else:
            j = refuting.get(seq)
            if j is None:
                j = refuting[seq] = refute(seq)
            else:
                validity_hits += 1
            L, phi = seq.left, seq.right
            if j >= 0:
                pruned += 1
            elif len(L) == 1 and phi in L:
                result = GProof(GRule.STRUCT_AX, seq)
            elif not L and _modal_axiom_shape(phi):
                result = GProof(GRule.MODAL_AX, seq)
            else:
                expanded += 1
                # with no result yet, the new frame moves to its first step
                stack.append([seq, budget, _backward_steps(seq), None, None])
        # hand the result up until some frame has a premise to open
        while stack:
            frame = stack[-1]
            top, top_budget, steps, step, subs = frame
            if result is None:
                step = frame[3] = next(steps, None)
                subs = frame[4] = []
            else:
                subs.append(result)
            if step is None:
                stack.pop()
                if top_budget > failed_at.get(top, -1):
                    failed_at[top] = top_budget
                result = None
            elif len(subs) == len(step[1]):
                stack.pop()
                result = GProof(step[0], top, tuple(subs))
            else:
                seq, budget = step[1][len(subs)], top_budget - 1
                break
        else:
            stats.expanded += expanded
            stats.memo_hits += memo_hits
            stats.pruned += pruned
            stats.validity_memo_hits += validity_hits
            stats.bound_hit = stats.bound_hit or bound_hit
            return result, failed_at, refuting, refute.planes


def g_search_cutfree(s: GSequent, depth: int,
                     stats: Optional[GSearchStats] = None) -> Optional[GProof]:
    """Exhaustive backward search over the cut-free rules, bounded by
    tree height.  Monotone in depth: more depth never loses proofs.
    What the search did is added to ``stats`` when one is given."""
    return _bounded_search(s, depth, GSearchStats() if stats is None else stats)[0]


# ---------------------------------------------------------------------------
# Certificates that a sequent has no cut-free G proof.

class GUnprovable(NamedTuple):
    """A set S of sequents, none of which has a cut-free G proof: each
    member of ``countermodels`` is refuted by its valuation, so has no
    proof by soundness; each member of ``failed`` is no axiom and every
    cut-free rule instance concluding it has a premise in S.  By
    induction on height, no member of S has a proof."""

    failed: frozenset[GSequent]
    countermodels: Mapping[GSequent, Mapping[str, str]]


def _rule_instances(seq: GSequent) -> Iterator[tuple[GRule, list[GSequent]]]:
    """The premises of every cut-free rule instance concluding seq:
    weakening, which ``verify_g_proof`` checks by a subset test, then
    ``_logical_instances``.  Instances whose premise is seq itself are
    included; they hold trivially."""
    yield GRule.WEAK, [seq]
    for beta in seq.left:
        yield GRule.WEAK, [GSequent(seq.left - {beta}, seq.right)]
    yield from _logical_instances(seq)


def verify_g_unprovable(goal: GSequent, cert: GUnprovable) -> None:
    """Raise ValueError unless the certificate shows that the goal has no
    cut-free G proof at any height: the goal is in S, every countermodel
    refutes its sequent under the pointwise ``sequent_satisfied``, and
    every failed member is no axiom and has a premise in S in each rule
    instance concluding it."""
    members = cert.failed | cert.countermodels.keys()
    if goal not in members:
        raise ValueError(f"the goal {goal} is not in the certificate")
    for seq, v in cert.countermodels.items():
        try:
            refuted = not sequent_satisfied(v, Sequent(seq.left, frozenset({seq.right})))
        except MissingVariableError as e:
            raise ValueError(f"{seq}: {e}") from None
        if not refuted:
            raise ValueError(f"{seq}: {render_valuation(v)} is no countermodel")
    for seq in cert.failed:
        if _is_axiom(seq, GRule.STRUCT_AX) or _is_axiom(seq, GRule.MODAL_AX):
            raise ValueError(f"{seq} is an axiom")
        for rule, prems in _rule_instances(seq):
            if not any(p in members for p in prems):
                raise ValueError(f"{seq}: no premise of its {rule.value} step "
                                 f"is in the certificate")


def _search_certified(goal: GSequent, depth: int,
                      ) -> tuple[Optional[GProof], Optional[GUnprovable], GSearchStats]:
    """The bounded search; for a miss where the bound cut no branch off,
    its certificate, checked; and what the search did."""
    stats = GSearchStats()
    proof, failed_at, refuting, planes = _bounded_search(goal, depth, stats)
    if proof is not None or stats.bound_hit:
        return proof, None, stats
    cert = GUnprovable(frozenset(failed_at), {
        seq: planes.first(1 << j) for seq, j in refuting.items() if j >= 0})
    # one that does not check is a fault of the search: raise rather
    # than report the miss either way
    verify_g_unprovable(goal, cert)
    return None, cert, stats


class ProbeReport(Record):
    """Outcome of the cut-necessity probe.

    ``bound_hit`` says whether the G search cut some branch off at the
    height bound.  When it found no proof without doing so, the sequents
    it failed on and those it pruned make up ``certificate``, and
    ``exhausted`` says that the certificate checks, so that no cut-free
    G proof exists at any height.  ``stats`` is what the search did.
    """

    alpha: Formula
    depth: int
    valid: bool
    g_cutfree_found: bool
    sc_cutfree_found: bool
    vacuous_bound: bool
    bound_hit: bool
    exhausted: bool
    stats: GSearchStats
    certificate: Optional[GUnprovable]

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
                         "step or refuted it by a countermodel, without reaching the "
                         "height bound, so no cut-free G proof exists at any height")
        elif self.bound_hit:
            lines.append("empirical evidence only: the bounded search does not "
                         "decide unbounded cut-free provability")
        return "\n".join(lines)


def cut_necessity_probe(alpha: Formula, depth: int) -> ProbeReport:
    """Probe => #(a | ~#a): semantically valid and cut-free provable in
    the two-sided calculus, yet no cut-free G proof exists within the
    height bound.  The report says whether that miss is exhaustive, with
    a certificate that checks, or cut off by the bound."""
    goal_formula = Box(Or(alpha, Neg(Box(alpha))))
    g_proof, certificate, stats = _search_certified(GSequent.of([], goal_formula), depth)
    valid = matrix_consequence([], [goal_formula], M4)
    sc_proof = prove(Sequent.of([], [goal_formula]))
    sc_found = sc_proof is not None and is_cut_free(sc_proof)
    return ProbeReport(alpha, depth, valid, g_proof is not None, sc_found,
                       vacuous_bound=depth <= 0, bound_hit=stats.bound_hit,
                       exhausted=certificate is not None, stats=stats,
                       certificate=certificate)


# ---------------------------------------------------------------------------
# The shared proof-tree routines under this calculus's names.

GCheckError = CheckError
check_g_proof = partial(passes, verify_g_proof)
g_proof_to_json = to_json
g_proof_from_json = partial(from_json, node_class=GProof)
render_g_proof = render
