"""Finite matrix semantics: evaluation, consequence relations, countermodels.

A logical matrix is a finite set of named truth values, a designated
subset, and a total operation table per connective.  The canonical
four-valued instance M4 has values 0 < n, b < 1 (n and b incomparable),
designated {b, 1}, lattice join/meet for | and &, the involution
0<->1, n->n, b->b for ~, and # sending everything except 1 to 0.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from .syntax import And, Bot, Box, Formula, Neg, Or, Var, variables

__all__ = [
    "TruthValue", "Valuation", "Operation", "LogicalMatrix", "M4",
    "MissingVariableError", "UnknownConnectiveError",
    "evaluate", "satisfies", "valuations", "matrix_consequence",
    "degree_consequence", "countermodel", "parse_valuation",
    "render_valuation", "matrix_to_json", "matrix_from_json", "load_matrix",
    "bundled_m4_path",
]

TruthValue = str
Valuation = Mapping[str, TruthValue]


class MissingVariableError(KeyError):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return f"valuation does not assign variable {self.name!r}"


class UnknownConnectiveError(KeyError):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return f"matrix has no table for connective {self.name!r}"


@dataclass(frozen=True)
class Operation:
    arity: int
    table: Mapping[tuple[TruthValue, ...], TruthValue]

    def __call__(self, *args: TruthValue) -> TruthValue:
        return self.table[args]


@dataclass(frozen=True)
class LogicalMatrix:
    """Finite matrix: value names, designated subset, operation tables.

    ``order`` is the full partial order as a set of (a, b) pairs with
    a <= b; it is optional and only required by the degree-preserving
    consequence relation.
    """

    values: tuple[TruthValue, ...]
    designated: frozenset[TruthValue]
    ops: Mapping[str, Operation]
    order: Optional[frozenset[tuple[TruthValue, TruthValue]]] = None
    connective_order: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        vals = set(self.values)
        if not self.designated or not self.designated < vals:
            raise ValueError("designated must be a non-empty proper subset of values")
        for name, op in self.ops.items():
            expect = len(self.values) ** op.arity
            if len(op.table) != expect:
                raise ValueError(f"table for {name!r} is not total")
            for args, out in op.table.items():
                if len(args) != op.arity or not set(args) <= vals or out not in vals:
                    raise ValueError(f"table for {name!r} has an entry outside the carrier")
        if not self.connective_order:
            object.__setattr__(self, "connective_order", tuple(sorted(self.ops)))

    def index(self, value: TruthValue) -> int:
        return self.values.index(value)

    def leq(self, a: TruthValue, b: TruthValue) -> bool:
        if self.order is None:
            raise ValueError("matrix has no order relation")
        return (a, b) in self.order

    def top(self) -> TruthValue:
        tops = [v for v in self.values if all(self.leq(u, v) for u in self.values)]
        if len(tops) != 1:
            raise ValueError("matrix order has no unique top element")
        return tops[0]


def _order_closure(pairs: Iterable[tuple[str, str]], values: Sequence[str]) -> frozenset[tuple[str, str]]:
    rel = {(v, v) for v in values}
    rel.update(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(rel), repeat=2):
            if b == c and (a, d) not in rel:
                rel.add((a, d))
                changed = True
    return frozenset(rel)


def _build_m4() -> LogicalMatrix:
    values = ("0", "n", "b", "1")
    order = _order_closure([("0", "n"), ("0", "b"), ("n", "1"), ("b", "1")], values)

    def leq(a: str, b: str) -> bool:
        return (a, b) in order

    def sup(a: str, b: str) -> str:
        if leq(a, b):
            return b
        if leq(b, a):
            return a
        return "1"

    def inf(a: str, b: str) -> str:
        if leq(a, b):
            return a
        if leq(b, a):
            return b
        return "0"

    neg = {"0": "1", "n": "n", "b": "b", "1": "0"}
    box = {"0": "0", "n": "0", "b": "0", "1": "1"}
    pairs = list(itertools.product(values, repeat=2))
    ops = {
        "or": Operation(2, {(a, b): sup(a, b) for a, b in pairs}),
        "and": Operation(2, {(a, b): inf(a, b) for a, b in pairs}),
        "neg": Operation(1, {(a,): neg[a] for a in values}),
        "box": Operation(1, {(a,): box[a] for a in values}),
        "bot": Operation(0, {(): "0"}),
    }
    return LogicalMatrix(values, frozenset({"b", "1"}), ops, order,
                         connective_order=("or", "and", "neg", "box", "bot"))


M4 = _build_m4()


def evaluate(f: Formula, v: Valuation, m: LogicalMatrix = M4) -> TruthValue:
    """Homomorphic extension of the valuation to the formula."""
    if isinstance(f, Var):
        try:
            val = v[f.name]
        except KeyError:
            raise MissingVariableError(f.name) from None
        if val not in m.values:
            raise ValueError(f"{val!r} is not a value of the matrix")
        return val
    if isinstance(f, Bot):
        return _op(m, "bot")()
    if isinstance(f, Neg):
        return _op(m, "neg")(evaluate(f.child, v, m))
    if isinstance(f, Box):
        return _op(m, "box")(evaluate(f.child, v, m))
    if isinstance(f, And):
        return _op(m, "and")(evaluate(f.left, v, m), evaluate(f.right, v, m))
    assert isinstance(f, Or)
    return _op(m, "or")(evaluate(f.left, v, m), evaluate(f.right, v, m))


def _op(m: LogicalMatrix, name: str) -> Operation:
    try:
        return m.ops[name]
    except KeyError:
        raise UnknownConnectiveError(name) from None


def satisfies(v: Valuation, f: Formula, m: LogicalMatrix = M4) -> bool:
    return evaluate(f, v, m) in m.designated


def valuations(vars: Iterable[str], m: LogicalMatrix = M4) -> list[dict[str, TruthValue]]:
    """All valuations over the given variables, lexicographically by
    variable name and then value index."""
    names = sorted(set(vars))
    out = []
    for combo in itertools.product(m.values, repeat=len(names)):
        out.append(dict(zip(names, combo)))
    return out


def _sequent_vars(gamma: Iterable[Formula], delta: Iterable[Formula]) -> set[str]:
    vs: set[str] = set()
    for f in itertools.chain(gamma, delta):
        vs |= variables(f)
    return vs


def matrix_consequence(gamma: Iterable[Formula], delta: Iterable[Formula],
                       m: LogicalMatrix = M4) -> bool:
    """True iff every valuation refutes some premise or accepts some
    conclusion."""
    return countermodel(gamma, delta, m) is None


def countermodel(gamma: Iterable[Formula], delta: Iterable[Formula],
                 m: LogicalMatrix = M4) -> Optional[dict[str, TruthValue]]:
    """First refuting valuation in enumeration order, or None."""
    gamma = list(gamma)
    delta = list(delta)
    for v in valuations(_sequent_vars(gamma, delta), m):
        if all(satisfies(v, g, m) for g in gamma) and \
                not any(satisfies(v, d, m) for d in delta):
            return v
    return None


def degree_consequence(gamma: Iterable[Formula], phi: Formula,
                       m: LogicalMatrix = M4) -> bool:
    """Degree-preserving consequence: under every valuation the meet of
    the premise values is below the conclusion value.  Empty premises
    require the conclusion to take the top value everywhere."""
    gamma = list(gamma)
    meet = _op(m, "and")
    top = m.top()
    for v in valuations(_sequent_vars(gamma, [phi]), m):
        bound = top
        for g in gamma:
            bound = meet(bound, evaluate(g, v, m))
        if not m.leq(bound, evaluate(phi, v, m)):
            return False
    return True


# ---------------------------------------------------------------------------
# Valuation text syntax: "p=n,q=b"

def parse_valuation(text: str, m: LogicalMatrix = M4) -> dict[str, TruthValue]:
    out: dict[str, TruthValue] = {}
    text = text.strip()
    if not text:
        return out
    for part in text.split(","):
        name, _, val = part.partition("=")
        name, val = name.strip(), val.strip()
        if not name or val not in m.values:
            raise ValueError(f"bad valuation entry: {part!r}")
        out[name] = val
    return out


def render_valuation(v: Valuation) -> str:
    return ",".join(f"{k}={v[k]}" for k in sorted(v))


# ---------------------------------------------------------------------------
# Matrix file format (JSON)

def matrix_to_json(m: LogicalMatrix) -> dict:
    def cover(order: frozenset[tuple[str, str]]) -> list[list[str]]:
        # emit the covering relation only
        strict = {(a, b) for a, b in order if a != b}
        out = []
        for a, b in sorted(strict):
            if not any((a, c) in strict and (c, b) in strict for c in m.values):
                out.append([a, b])
        return out

    doc: dict = {
        "values": list(m.values),
        "designated": sorted(m.designated, key=m.index),
        "connectives": {
            name: {
                "arity": op.arity,
                "table": {",".join(k): val for k, val in sorted(op.table.items())},
            }
            for name, op in ((n, m.ops[n]) for n in m.connective_order)
        },
    }
    if m.order is not None:
        doc["order"] = cover(m.order)
    return doc


def matrix_from_json(doc: Mapping) -> LogicalMatrix:
    values = tuple(doc["values"])
    ops = {}
    for name, spec in doc["connectives"].items():
        arity = spec["arity"]
        table = {}
        for key, val in spec["table"].items():
            args = tuple(key.split(",")) if key else ()
            table[args] = val
        ops[name] = Operation(arity, table)
    order = None
    if "order" in doc:
        order = _order_closure([tuple(p) for p in doc["order"]], values)
    return LogicalMatrix(values, frozenset(doc["designated"]), ops, order,
                         connective_order=tuple(doc["connectives"]))


def bundled_m4_path() -> Path:
    return Path(__file__).parent / "data" / "m4.json"


def load_matrix(path: str | Path) -> LogicalMatrix:
    with open(path, encoding="utf-8") as fh:
        return matrix_from_json(json.load(fh))
