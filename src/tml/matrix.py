"""Finite matrix semantics: evaluation, consequence relations, countermodels.

A logical matrix is a finite set of named truth values, a designated
subset, and a total operation table per connective.  The canonical
four-valued instance M4 has values 0 < n, b < 1 (n and b incomparable),
designated {b, 1}, lattice join/meet for | and &, the involution
0<->1, n->n, b->b for ~, and # sending everything except 1 to 0.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from .record import Record
from .syntax import And, Bot, Box, Formula, Neg, Or, Var, variables_of

if TYPE_CHECKING:
    from pathlib import Path

__all__ = [
    "TruthValue", "Valuation", "Operation", "LogicalMatrix", "M4",
    "MissingVariableError", "UnknownConnectiveError",
    "evaluate", "satisfies", "valuations", "matrix_consequence",
    "degree_consequence", "countermodel", "Planes", "parse_valuation",
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


class Operation(Record):
    arity: int
    table: Mapping[tuple[TruthValue, ...], TruthValue]

    def __call__(self, *args: TruthValue) -> TruthValue:
        return self.table[args]


class LogicalMatrix(Record):
    """Finite matrix: value names, designated subset, operation tables.

    ``order`` is the full partial order as a set of (a, b) pairs with
    a <= b; it is optional and only required by the degree-preserving
    consequence relation.  ``connective_order`` defaults to the sorted
    names of ``ops``.
    """

    values: tuple[TruthValue, ...]
    designated: frozenset[TruthValue]
    ops: Mapping[str, Operation]
    order: Optional[frozenset[tuple[TruthValue, TruthValue]]]
    connective_order: tuple[str, ...]

    def __init__(self, values: tuple[TruthValue, ...], designated: frozenset[TruthValue],
                 ops: Mapping[str, Operation],
                 order: Optional[frozenset[tuple[TruthValue, TruthValue]]] = None,
                 connective_order: tuple[str, ...] = ()) -> None:
        vals = set(values)
        if not designated or not designated < vals:
            raise ValueError("designated must be a non-empty proper subset of values")
        for name, op in ops.items():
            expect = len(values) ** op.arity
            if len(op.table) != expect:
                raise ValueError(f"table for {name!r} is not total")
            for args, out in op.table.items():
                if len(args) != op.arity or not set(args) <= vals or out not in vals:
                    raise ValueError(f"table for {name!r} has an entry outside the carrier")
        super().__init__(values, designated, ops, order,
                         connective_order or tuple(sorted(ops)))

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

    def tables(self) -> dict[str, tuple[int, ...]]:
        """The connectives of the syntax as flat index tables for
        ``Planes`` (entry ``a*n + b`` for arguments a, b), built
        on first use."""
        hit = _TABLES.get(id(self))
        if hit is None:
            idx = {v: i for i, v in enumerate(self.values)}
            hit = _TABLES[id(self)] = (self, {
                name: tuple(idx[op.table[args]]
                            for args in itertools.product(self.values, repeat=op.arity))
                for name, op in self.ops.items() if op.arity == _ARITY.get(name)})
        return hit[1]


# keyed by id(); the entry holds the matrix, so the id cannot be reused.
# Not an attribute: one set late on M4 slows every attribute load of it.
_TABLES: dict[int, tuple[LogicalMatrix, dict[str, tuple[int, ...]]]] = {}


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


# the connective of each compound node type, by its name in a matrix
_CONNECTIVE = {Bot: "bot", Neg: "neg", Box: "box", And: "and", Or: "or"}
_ARITY = {"bot": 0, "neg": 1, "box": 1, "and": 2, "or": 2}


def evaluate(f: Formula, v: Valuation, m: LogicalMatrix = M4) -> TruthValue:
    """Homomorphic extension of the valuation to the formula.

    Iterative, so nesting depth is not bounded by the recursion limit:
    descend the left spine entering each node, then ascend applying
    tables, descending again into each pending right child.  Nodes are
    entered in the recursive definition's order, so a missing variable
    or connective raises the same error."""
    ops, values = m.ops, m.values
    # (operation, pending right child | (left value,) | None for unary)
    stack: list[tuple[Operation, object]] = []
    g = f
    while True:
        t = type(g)
        while t is not Var and t is not Bot:
            name = _CONNECTIVE[t]
            op = ops.get(name)
            if op is None:
                raise UnknownConnectiveError(name)
            if t is And or t is Or:
                stack.append((op, g.right))
                g = g.left
            else:
                stack.append((op, None))
                g = g.child
            t = type(g)
        if t is Var:
            try:
                val = v[g.name]
            except KeyError:
                raise MissingVariableError(g.name) from None
            if val not in values:
                raise ValueError(f"{val!r} is not a value of the matrix")
        else:
            val = _op(m, "bot")()
        while stack:
            op, right = stack.pop()
            if right is None:
                val = op.table[(val,)]
            elif type(right) is tuple:
                val = op.table[(right[0], val)]
            else:
                stack.append((op, (val,)))
                g = right
                break
        else:
            return val


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


# ---------------------------------------------------------------------------
# Value planes: a formula under every valuation at once.
#
# Valuation j of ``valuations(names)`` is the number whose base-n digits
# are the value indices of the names, the first name most significant.
# The value planes of a formula are n ints, one per value: bit j of
# plane i is set when the formula takes value i under valuation j.  The
# planes are one-hot, every bit is set in exactly one of them, and a
# connective maps them through its index table with bitwise & and |.

def _apply1(table: Sequence[int], x: Sequence[int]) -> list[int]:
    out = [0] * len(x)
    for a, xa in enumerate(x):
        if xa:
            out[table[a]] |= xa
    return out


def _apply2(table: Sequence[int], x: Sequence[int], y: Sequence[int]) -> list[int]:
    n = len(x)
    out = [0] * n
    for a, xa in enumerate(x):
        if xa:
            for b, yb in enumerate(y, a * n):
                w = xa & yb
                if w:
                    out[table[b]] |= w
    return out


def _constant(i: int, n: int, full: int) -> list[int]:
    out = [0] * n
    out[i] = full
    return out


def _union(x: Sequence[int], indices: Iterable[int]) -> int:
    out = 0
    for i in indices:
        out |= x[i]
    return out


class Planes(dict):
    """The value planes of formulas over all valuations of ``names``
    (sorted) into ``values``, under index tables as built by
    ``LogicalMatrix.tables``: ``planes[f]`` is computed on first use, by
    an iterative post-order over the interned formula DAG that stops at
    the formulas already held.  ``full`` is the mask of all valuations;
    the queries answer with masks of valuations."""

    # the values are ``carrier``: ``values`` would hide ``dict.values``
    __slots__ = ("names", "carrier", "tables", "full")

    def __init__(self, names: Sequence[str], values: Sequence,
                 tables: Mapping[str, Sequence[int]]) -> None:
        self.names, self.carrier, self.tables = names, values, tables
        n, k = len(values), len(names)
        size = n ** k
        self.full = full = (1 << size) - 1
        for i, name in enumerate(names):
            # digit i of j counts runs of `step` bits, n runs to a period:
            # value 0 on the first run of each period, value a a runs later.
            # Built by doubling; dividing full by a repunit is quadratic.
            step = n ** (k - 1 - i)
            low, width = (1 << step) - 1, step * n
            while width < size:
                low |= low << width
                width *= 2
            low &= full
            self[Var(name)] = tuple([low << a * step for a in range(n)])

    def __missing__(self, root: Formula) -> tuple[int, ...]:
        n, tables = len(self.carrier), self.tables
        stack = [root]
        while stack:
            f = stack[-1]
            if f in self:
                stack.pop()
                continue
            t = type(f)
            if t is Var:
                raise MissingVariableError(f.name)
            name = _CONNECTIVE[t]
            table = tables.get(name)
            if table is None:
                raise UnknownConnectiveError(name)
            if t is Bot:
                out = _constant(table[0], n, self.full)
            elif t is Neg or t is Box:
                x = self.get(f.child)
                if x is None:
                    stack.append(f.child)
                    continue
                out = _apply1(table, x)
            else:
                x, y = self.get(f.left), self.get(f.right)
                if x is None or y is None:
                    if y is None:
                        stack.append(f.right)
                    if x is None:
                        stack.append(f.left)
                    continue
                out = _apply2(table, x, y)
            stack.pop()
            self[f] = tuple(out)
        return self[root]

    def first(self, mask: int) -> dict:
        """The valuation of the lowest set bit of a non-empty mask, its
        keys in the order of ``names``."""
        j = (mask & -mask).bit_length() - 1
        digits = []
        for _ in self.names:
            j, d = divmod(j, len(self.carrier))
            digits.append(self.carrier[d])
        return dict(zip(self.names, reversed(digits)))

    def refuting(self, gamma: Iterable[Formula], delta: Iterable[Formula],
                 m: LogicalMatrix) -> int:
        """The valuations that designate every formula of gamma and none
        of delta."""
        designated = [i for i, v in enumerate(self.carrier) if v in m.designated]
        mask = self.full
        for f in gamma:
            mask &= _union(self[f], designated)
        for f in delta:
            mask &= ~_union(self[f], designated)
        return mask

    def below(self, left: Iterable[Formula], right: Sequence[Formula], top: int,
              leq: Iterable[tuple[int, int]]) -> int:
        """The valuations where the meet of ``left``, starting from the
        value of index ``top``, is below the join of the non-empty
        ``right``, for the index pairs ``leq`` of an order."""
        lo = _constant(top, len(self.carrier), self.full)
        for f in left:
            lo = _apply2(self.tables["and"], lo, self[f])
        hi = self[right[0]]
        for f in right[1:]:
            hi = _apply2(self.tables["or"], hi, self[f])
        out = 0
        for a, b in leq:
            out |= lo[a] & hi[b]
        return out


def matrix_consequence(gamma: Iterable[Formula], delta: Iterable[Formula],
                       m: LogicalMatrix = M4) -> bool:
    """True iff every valuation refutes some premise or accepts some
    conclusion."""
    return countermodel(gamma, delta, m) is None


def countermodel(gamma: Iterable[Formula], delta: Iterable[Formula],
                 m: LogicalMatrix = M4) -> Optional[dict[str, TruthValue]]:
    """First refuting valuation in enumeration order, or None."""
    gamma, delta = list(gamma), list(delta)
    planes = Planes(variables_of(gamma + delta), m.values, m.tables())
    mask = planes.refuting(gamma, delta, m)
    return planes.first(mask) if mask else None


def degree_consequence(gamma: Iterable[Formula], phi: Formula,
                       m: LogicalMatrix = M4) -> bool:
    """Degree-preserving consequence: under every valuation the meet of
    the premise values is below the conclusion value.  Empty premises
    require the conclusion to take the top value everywhere."""
    gamma = list(gamma)
    planes = Planes(variables_of(gamma + [phi]), m.values, m.tables())
    if "and" not in planes.tables:
        raise UnknownConnectiveError("and")
    top = m.index(m.top())
    leq = [(m.index(a), m.index(b)) for a, b in m.order]
    return planes.below(gamma, [phi], top, leq) == planes.full


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
    from pathlib import Path   # 10-15 ms to import where site has not
    return Path(__file__).parent / "data" / "m4.json"


def load_matrix(path: str | Path) -> LogicalMatrix:
    import json
    with open(path, encoding="utf-8") as fh:
        return matrix_from_json(json.load(fh))
