"""Translation of n-sequents and signed rules into two-sided sequents.

An expressiveness specification says, for each truth value, which
one-variable formulas must come out non-designated (the left slots) and
which designated (the right slots) exactly when a formula takes that
value.  Each way of routing the formulas of an n-sequent into those
slots yields one ordinary sequent; the collection is jointly equivalent
to the n-sequent, and mapping a whole rule set through it compiles the
signed calculus into two-sided rules.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

from .matrix import _CONNECTIVE, LogicalMatrix, M4, value_planes
from .record import Record
from .sequents import Sequent, render_sequent
from .signed import NSequent, SignedRule
from .syntax import (Bot, Formula, FormulaTemplate, Neg, PLACEHOLDER, Var,
                     formula_key, substitute, variables_of)

__all__ = [
    "ValueTemplates", "ExpressivenessSpec", "Partition", "m4_spec",
    "partitions", "two_of_nsequent", "two_of_partition", "verify_two_equivalence",
    "TranslatedRule", "TranslatedCalculus", "two_of_calculus",
    "render_rule_sheet", "rule_sheet_json", "spec_from_json", "spec_to_json",
]


class ValueTemplates(Record):
    """Slot templates for one truth value: instances of n_side must be
    non-designated and instances of d_side designated."""

    n_side: tuple[FormulaTemplate, ...]
    d_side: tuple[FormulaTemplate, ...]


class ExpressivenessSpec(Record):
    per_value: Mapping[str, ValueTemplates]

    def templates(self, value: str) -> ValueTemplates:
        return self.per_value[value]

    def condition_i_holds(self, m: LogicalMatrix) -> bool:
        """The bare placeholder heads the non-designated slots for
        non-designated values and the designated slots otherwise."""
        for value in m.values:
            vt = self.per_value[value]
            if value in m.designated:
                if not vt.d_side or vt.d_side[0].body is not PLACEHOLDER:
                    return False
            else:
                if not vt.n_side or vt.n_side[0].body is not PLACEHOLDER:
                    return False
        return True

    def condition_ii_holds(self, m: LogicalMatrix) -> bool:
        """Exhaustively: a formula takes value t iff all n_side instances
        are non-designated and all d_side instances designated.  The
        templates over p suffice, bit i of a mask being p = value i."""
        planes = value_planes([PLACEHOLDER.name], m)
        for i, value in enumerate(m.values):
            vt = self.per_value[value]
            d_side = [t.body for t in vt.d_side]
            n_side = [t.body for t in vt.n_side]
            if planes.refuting(d_side, n_side) != 1 << i:
                return False
        return True


def m4_spec() -> ExpressivenessSpec:
    """The four-valued specification: membership of v(a) is pinned down
    by which of a and ~a are designated."""
    p = FormulaTemplate(PLACEHOLDER)
    np = FormulaTemplate(Neg(PLACEHOLDER))
    return ExpressivenessSpec({
        "0": ValueTemplates(n_side=(p,), d_side=(np,)),
        "n": ValueTemplates(n_side=(p, np), d_side=()),
        "b": ValueTemplates(n_side=(), d_side=(p, np)),
        "1": ValueTemplates(n_side=(np,), d_side=(p,)),
    })


# A partition routes every formula of every component into one slot:
# entries are (value, formula, side, slot_index) with side "n" or "d".
class Partition(Record):
    entries: tuple[tuple[str, Formula, str, int], ...]


def _slot_choices(vt: ValueTemplates) -> list[tuple[str, int]]:
    return ([("n", j) for j in range(len(vt.n_side))]
            + [("d", k) for k in range(len(vt.d_side))])


def partitions(s: NSequent, spec: ExpressivenessSpec,
               m: LogicalMatrix = M4) -> list[Partition]:
    """All slot assignments, in deterministic order: values by index,
    formulas by (size, text), slots n-side first."""
    if len(s.components) != len(m.values):
        raise ValueError("n-sequent arity does not match the matrix")
    cells: list[tuple[str, Formula]] = []
    for value, comp in zip(m.values, s.components):
        for f in sorted(comp, key=formula_key):
            cells.append((value, f))
    choice_lists = [_slot_choices(spec.templates(value)) for value, _ in cells]
    for (value, f), choices in zip(cells, choice_lists):
        if not choices:
            raise ValueError(f"no slots available for value {value!r}")
    out = []
    for combo in itertools.product(*choice_lists):
        entries = tuple((value, f, side, slot)
                        for (value, f), (side, slot) in zip(cells, combo))
        out.append(Partition(entries))
    return out


def two_of_partition(p: Partition, spec: ExpressivenessSpec) -> Sequent:
    left: set[Formula] = set()
    right: set[Formula] = set()
    for value, f, side, slot in p.entries:
        vt = spec.templates(value)
        if side == "n":
            left.add(substitute(vt.n_side[slot], f))
        else:
            right.add(substitute(vt.d_side[slot], f))
    return Sequent(frozenset(left), frozenset(right))


def two_of_nsequent(s: NSequent, spec: ExpressivenessSpec,
                    m: LogicalMatrix = M4) -> list[Sequent]:
    """The translated sequents, deduplicated, in first-occurrence order."""
    seen: dict[Sequent, None] = {}
    for p in partitions(s, spec, m):
        seen.setdefault(two_of_partition(p, spec))
    return list(seen)


def verify_two_equivalence(s: NSequent, spec: ExpressivenessSpec,
                           m: LogicalMatrix = M4) -> bool:
    """A valuation satisfies the n-sequent iff it satisfies every
    translated sequent; checked over all valuations of its variables at
    once.

    A partition's sequent is refuted where every formula meets the slot
    it was given: where its instance is designated for an n-side slot
    (the left), not designated for a d-side one (the right).  A
    partition picks one slot per formula, so by distributivity some
    translated sequent is refuted exactly where every formula meets some
    slot of its value: one mask per (formula, slot), not one sequent per
    partition.  Raises as ``partitions`` does, looking up the templates
    of non-empty components only."""
    if len(s.components) != len(m.values):
        raise ValueError("n-sequent arity does not match the matrix")
    cells = [(i, value, comp, spec.templates(value))
             for i, (value, comp) in enumerate(zip(m.values, s.components)) if comp]
    for _, value, _, vt in cells:
        if not vt.n_side and not vt.d_side:
            raise ValueError(f"no slots available for value {value!r}")
    names = variables_of(f for comp in s.components for f in comp)
    planes = value_planes(names, m)
    lhs, refuted = 0, planes.full
    for i, _, comp, vt in cells:
        for f in comp:
            # an n-sequent holds where some formula of component i takes value i
            lhs |= planes.where(f, i)
            met = 0
            for t in vt.n_side:
                met |= planes.refuting((substitute(t, f),), ())
            for t in vt.d_side:
                met |= planes.refuting((), (substitute(t, f),))
            refuted &= met
    return lhs == planes.full & ~refuted


# ---------------------------------------------------------------------------
# Translating a whole signed calculus.

_ARG_VARS = (Var("a"), Var("b"), Var("c"))


def _compound(conn: str, args: Sequence[Formula]) -> Formula:
    for cls, name in _CONNECTIVE.items():
        if name == conn and cls is not Bot:
            return cls(*args)
    raise ValueError(f"unknown connective {conn!r}")


def _singleton(value: str, f: Formula, m: LogicalMatrix) -> NSequent:
    comps = [frozenset() for _ in m.values]
    comps[m.index(value)] = frozenset({f})
    return NSequent(tuple(comps))


class TranslatedRule(Record):
    """One signed rule mapped through the translation: shared schematic
    premises and one conclusion per translation of the signed conclusion
    (trivial alternatives already removed)."""

    name: str
    premises: tuple[Sequent, ...]
    conclusions: tuple[Sequent, ...]


class TranslatedCalculus(Record):
    axioms: tuple[Sequent, ...]
    rules: tuple[TranslatedRule, ...]


def two_of_calculus(rules: Iterable[SignedRule], spec: ExpressivenessSpec,
                    m: LogicalMatrix = M4) -> TranslatedCalculus:
    """Map axioms and logical rules through the translation.  Premise
    sets are unions of the translations of each signed premise; trivial
    conclusion alternatives (already among the premises) are deleted."""
    axioms: list[Sequent] = []
    out: list[TranslatedRule] = []
    for rule in rules:
        if rule.kind == "axiom":
            alpha = _ARG_VARS[0]
            axiom_seq = NSequent(tuple(frozenset({alpha}) for _ in m.values))
            axioms.extend(two_of_nsequent(axiom_seq, spec, m))
        elif rule.kind == "weakening":
            continue  # weakening is structural on both presentations
        else:
            args = _ARG_VARS[: len(rule.arg_signs)]
            premises: list[Sequent] = []
            for sign, arg in zip(rule.arg_signs, args):
                for t in two_of_nsequent(_singleton(sign, arg, m), spec, m):
                    if t not in premises:
                        premises.append(t)
            compound = _compound(rule.connective, args)
            conclusions = [
                t for t in two_of_nsequent(_singleton(rule.out_sign, compound, m), spec, m)
            ]
            kept = tuple(c for c in conclusions if c not in premises)
            if not kept:
                continue
            out.append(TranslatedRule(rule.name, tuple(premises), kept))
    return TranslatedCalculus(tuple(axioms), tuple(out))


# ---------------------------------------------------------------------------
# Rule sheets.

def _schema_side(fs: frozenset[Formula], context: str) -> str:
    names = [context] + [f.text for f in sorted(fs, key=formula_key)]
    return ", ".join(names)


def _schema_sequent(s: Sequent) -> str:
    return f"{_schema_side(s.left, 'G')} => {_schema_side(s.right, 'D')}"


def render_rule_sheet(calc: TranslatedCalculus) -> str:
    lines = ["axioms:"]
    for seq in calc.axioms:
        lines.append(f"  {render_sequent(seq)}")
    for rule in calc.rules:
        lines.append("")
        lines.append(f"[{rule.name}]")
        for p in rule.premises:
            lines.append(f"  {_schema_sequent(p)}")
        lines.append("  " + "-" * 40)
        lines.append("  " + "  ;  ".join(_schema_sequent(c) for c in rule.conclusions))
    return "\n".join(lines)


def _sequent_schema_json(s: Sequent) -> dict:
    return {
        "left": ["G"] + [f.text for f in sorted(s.left, key=formula_key)],
        "right": ["D"] + [f.text for f in sorted(s.right, key=formula_key)],
    }


def rule_sheet_json(calc: TranslatedCalculus) -> dict:
    return {
        "axioms": [
            {"left": [f.text for f in sorted(a.left, key=formula_key)],
             "right": [f.text for f in sorted(a.right, key=formula_key)]}
            for a in calc.axioms
        ],
        "rules": [
            {"name": r.name,
             "premises": [_sequent_schema_json(p) for p in r.premises],
             "conclusions": [_sequent_schema_json(c) for c in r.conclusions]}
            for r in calc.rules
        ],
    }


# ---------------------------------------------------------------------------
# Spec files: {"0": {"n_side": ["p"], "d_side": ["~p"]}, ...}

def spec_to_json(spec: ExpressivenessSpec) -> dict:
    return {
        value: {"n_side": [t.body.text for t in vt.n_side],
                "d_side": [t.body.text for t in vt.d_side]}
        for value, vt in spec.per_value.items()
    }


def spec_from_json(doc: Mapping) -> ExpressivenessSpec:
    from .syntax import parse
    per_value = {}
    for value, sides in doc.items():
        per_value[value] = ValueTemplates(
            n_side=tuple(FormulaTemplate(parse(t)) for t in sides.get("n_side", [])),
            d_side=tuple(FormulaTemplate(parse(t)) for t in sides.get("d_side", [])),
        )
    return ExpressivenessSpec(per_value)
