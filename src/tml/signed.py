"""Generic signed-formula calculus for a finite matrix, with n-sequents.

For an n-valued matrix the calculus has the single axiom scheme "one
formula under every sign", weakening, and one logical rule per pair of
a connective and an argument-value tuple: from premises adding sign
a_i to argument i, conclude the table output sign on the compound.
For the four-valued instance this yields exactly forty logical rules.
Bounded data: all rule applications stay inside the subformulas of the
goal, so memoized backward search terminates.  Every premise contains
its conclusion, so by soundness and completeness every rule is
invertible and backward search never has to backtrack.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Callable, Iterable, NamedTuple, Optional

from .matrix import (_CONNECTIVE, LogicalMatrix, M4, TruthValue, Valuation, evaluate,
                     forget_with)
from .proofs import (CheckError, from_json, passes, render, shared, to_json, tree_eq,
                     tree_hash, walk)
from .record import Record
from .search import Step, decide
from .syntax import Box, Formula, Neg, formula_key, mentions_bot, parse

__all__ = [
    "SignedFormula", "NSequent", "SignedRule", "SFDerivation",
    "generate_sf_rules", "nsequent_satisfied", "embed_two_sided",
    "check_sf_derivation", "sf_prove", "SFCheckError",
    "derivation_to_json", "derivation_from_json", "parse_signed",
]


class SignedFormula(NamedTuple):
    sign: TruthValue
    formula: Formula

    def __str__(self) -> str:
        return f"{self.sign}:{self.formula.text}"


def parse_signed(text: str) -> SignedFormula:
    sign, sep, body = text.partition(":")
    if not sep:
        raise ValueError(f"signed formula must look like 'sign:formula': {text!r}")
    return SignedFormula(sign.strip(), parse(body))


class NSequent(Record):
    """Tuple of formula sets, one component per truth value."""

    __slots__ = ("components",)
    components: tuple[frozenset[Formula], ...]

    def __init__(self, components: tuple[frozenset[Formula], ...]) -> None:
        object.__setattr__(self, "components", components)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.components,) == (other.components,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.components,))

    @staticmethod
    def of(*components: Iterable[Formula]) -> "NSequent":
        return NSequent(tuple(frozenset(c) for c in components))

    def signed_set(self, m: LogicalMatrix) -> frozenset[SignedFormula]:
        out = set()
        for value, comp in zip(m.values, self.components):
            out.update(SignedFormula(value, f) for f in comp)
        return frozenset(out)

    def __str__(self) -> str:
        return " | ".join(
            ", ".join(f.text for f in sorted(c, key=formula_key))
            for c in self.components)


class SignedRule(Record):
    name: str
    kind: str  # "axiom" | "weakening" | "logical"
    connective: Optional[str] = None
    arg_signs: tuple[TruthValue, ...] = ()
    out_sign: Optional[TruthValue] = None


def generate_sf_rules(m: LogicalMatrix) -> list[SignedRule]:
    """Axiom, weakening, and the logical rules of the matrix.

    Logical rules cover connectives of arity >= 1; a nullary constant
    contributes no decomposition rule.  Emission order: connective,
    then argument tuple by value index.
    """
    rules = [SignedRule("axiom", "axiom"), SignedRule("weaken", "weakening")]
    for conn in m.connective_order:
        op = m.ops[conn]
        if op.arity == 0:
            continue
        for signs in itertools.product(m.values, repeat=op.arity):
            out = op.table[signs]
            name = f"{conn}_{'_'.join(signs)}"
            rules.append(SignedRule(name, "logical", conn, signs, out))
    return rules


class _RuleTable(NamedTuple):
    by_name: dict[str, SignedRule]
    # (connective, output sign) -> argument sign tuples, in emission order
    tuples_for: dict[tuple[str, TruthValue], tuple[tuple[TruthValue, ...], ...]]
    sign_index: dict[TruthValue, int]


# keyed by id(), the entry dropped with the matrix (``matrix.forget_with``)
_RULE_TABLES: dict[int, _RuleTable] = {}


def _rule_table(m: LogicalMatrix) -> _RuleTable:
    """The rules of a matrix indexed for checking and search, built once."""
    hit = _RULE_TABLES.get(id(m))
    if hit is not None:
        return hit
    rules = generate_sf_rules(m)
    tuples_for: dict[tuple[str, TruthValue], list[tuple[TruthValue, ...]]] = {}
    for rule in rules:
        if rule.kind == "logical":
            tuples_for.setdefault((rule.connective, rule.out_sign), []).append(rule.arg_signs)
    table = _RuleTable({r.name: r for r in rules},
                       {k: tuple(v) for k, v in tuples_for.items()},
                       {v: i for i, v in enumerate(m.values)})
    _RULE_TABLES[id(m)] = table
    forget_with(m, _RULE_TABLES)
    return table


def nsequent_satisfied(v: Valuation, s: NSequent, m: LogicalMatrix = M4) -> bool:
    """True iff some formula of some component takes that component's value."""
    if len(s.components) != len(m.values):
        raise ValueError("n-sequent arity does not match the matrix")
    for value, comp in zip(m.values, s.components):
        for f in comp:
            if evaluate(f, v, m) == value:
                return True
    return False


def _designated_start(m: LogicalMatrix) -> int:
    """Index d such that designated values are exactly values[d:]."""
    flags = [v in m.designated for v in m.values]
    if True not in flags:
        raise ValueError("matrix has no designated values")
    d = flags.index(True)
    if not all(flags[d:]) or any(flags[:d]):
        raise ValueError("designated values must form a suffix of the value order")
    return d


def embed_two_sided(gamma: Iterable[Formula], delta: Iterable[Formula],
                    m: LogicalMatrix = M4) -> NSequent:
    """Embed an ordinary sequent: premises fill the non-designated
    components, conclusions the designated ones."""
    d = _designated_start(m)
    g = frozenset(gamma)
    dd = frozenset(delta)
    comps = [g] * d + [dd] * (len(m.values) - d)
    return NSequent(tuple(comps))


class SFDerivation(Record):
    __slots__ = ("rule", "signed", "premises", "_hash")
    rule: str
    signed: frozenset[SignedFormula]
    premises: tuple[SFDerivation, ...]

    def __init__(self, rule: str, signed: frozenset[SignedFormula],
                 premises: tuple[SFDerivation, ...] = ()) -> None:
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "signed", signed)
        object.__setattr__(self, "premises", premises)

    __eq__ = tree_eq

    __hash__ = tree_hash

    def json_fields(self, sets: dict) -> dict:
        return {"signed": shared(sets, self.signed, _signed_texts), "rule": self.rule,
                "premises": []}

    @staticmethod
    def json_reader(doc: dict, signed_formulas: dict) -> Callable[[tuple], "SFDerivation"]:
        rule = doc["rule"]
        signed = frozenset(shared(signed_formulas, s, parse_signed) for s in doc["signed"])
        return lambda premises: SFDerivation(rule, signed, premises)

    def label(self) -> str:
        return f"{{{', '.join(_signed_texts(self.signed))}}}   [{self.rule}]"


def _signed_texts(signed: frozenset[SignedFormula]) -> list[str]:
    return [str(sf) for sf in sorted(signed, key=lambda sf: (sf.sign, formula_key(sf.formula)))]


def _is_axiom_set(signed: frozenset[SignedFormula], m: LogicalMatrix) -> bool:
    by_formula: dict[Formula, set[str]] = {}
    for sf in signed:
        by_formula.setdefault(sf.formula, set()).add(sf.sign)
    return any(signs == set(m.values) for signs in by_formula.values())


def verify_sf_derivation(d: SFDerivation, m: LogicalMatrix = M4) -> None:
    """Raise CheckError at the first node, in pre-order, that fails its schema."""
    rules = _rule_table(m).by_name
    for node, path, entering in walk(d):
        if not entering:
            continue
        if node.rule == "axiom":
            if node.premises:
                raise CheckError(path, "axiom node must be a leaf")
            if not _is_axiom_set(node.signed, m):
                raise CheckError(path, "no formula carries every sign")
        elif node.rule == "weaken":
            if len(node.premises) != 1:
                raise CheckError(path, "weakening takes exactly one premise")
            if not node.premises[0].signed <= node.signed:
                raise CheckError(path, "weakening premise is not a subset")
        else:
            rule = rules.get(node.rule)
            if rule is None or rule.kind != "logical":
                raise CheckError(path, f"unknown rule {node.rule!r}")
            if len(node.premises) != len(rule.arg_signs):
                raise CheckError(path, "premise count does not match rule arity")
            if not _matches_logical(node, rule):
                raise CheckError(path, f"premises do not instantiate {rule.name}")



def _matches_logical(node: SFDerivation, rule: SignedRule) -> bool:
    for sf in node.signed:
        if sf.sign != rule.out_sign or _CONNECTIVE.get(type(sf.formula)) != rule.connective:
            continue
        if isinstance(sf.formula, (Neg, Box)):
            args = (sf.formula.child,)
        else:
            args = (sf.formula.left, sf.formula.right)
        if len(args) != len(rule.arg_signs):
            continue
        # the context may either drop or retain the principal signed formula
        for omega in (node.signed - {sf}, node.signed):
            want = [omega | {SignedFormula(s, a)}
                    for s, a in zip(rule.arg_signs, args)]
            if all(p.signed == w for p, w in zip(node.premises, want)):
                return True
    return False


def _first_step(omega: frozenset[SignedFormula], table: _RuleTable) -> Optional[Step]:
    """The first (signed formula, sign tuple) pair whose premises all
    differ from omega, as premise sets and a node builder; None when
    omega is saturated.  Signed formulas are ordered by sign index, then
    formula (size, text); sign tuples by emission order."""
    best_key: Optional[tuple] = None
    best = None
    for sf in omega:
        f = sf.formula
        conn = _CONNECTIVE.get(type(f))
        tuples = table.tuples_for.get((conn, sf.sign))
        if tuples is None:
            continue
        key = (table.sign_index[sf.sign],) + formula_key(f)
        if best_key is not None and key >= best_key:
            continue
        args = (f.child,) if conn in ("neg", "box") else (f.left, f.right)
        for signs in tuples:
            if all(SignedFormula(s, a) not in omega for s, a in zip(signs, args)):
                best_key, best = key, (conn, signs, args)
                break
    if best is None:
        return None
    conn, signs, args = best
    name = f"{conn}_{'_'.join(signs)}"
    prems = [omega | {SignedFormula(s, a)} for s, a in zip(signs, args)]
    return prems, lambda subs: SFDerivation(name, omega, subs)


def sf_prove(goal: Iterable[SignedFormula], m: LogicalMatrix = M4,
             ) -> Optional[SFDerivation]:
    """Backward proof search; succeeds exactly on valid goals.

    Premises keep the conclusion's signed set and add one signed
    subformula, so the space is bounded by subformulas x signs and the
    memoized search terminates.  Every rule is invertible (see
    ``tml.search``), so each set is decided by the first (signed
    formula, sign tuple) pair in the documented order whose premises all
    differ from it, and no other pair is tried.  That is also the
    derivation a backtracking search over all pairs in the same order
    finds first.
    """
    goal_set = frozenset(goal)
    if mentions_bot(sf.formula for sf in goal_set):
        raise ValueError("the signed calculus has no decomposition rule for 'bot'")
    table = _rule_table(m)

    def expand(omega: frozenset[SignedFormula]) -> Optional[Step]:
        if _is_axiom_set(omega, m):
            return (), lambda subs: SFDerivation("axiom", omega)
        return _first_step(omega, table)

    return decide(goal_set, expand)


# ---------------------------------------------------------------------------
# The shared proof-tree routines under this calculus's names.

SFCheckError = CheckError
check_sf_derivation = partial(passes, verify_sf_derivation)
derivation_to_json = to_json
derivation_from_json = partial(from_json, node_class=SFDerivation)
render_sf_derivation = render
