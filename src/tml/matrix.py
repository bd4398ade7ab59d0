"""Finite matrix semantics: evaluation, consequence relations, countermodels.

A logical matrix is a finite set of named truth values, a designated
subset, and a total operation table per connective.  The canonical
four-valued instance M4 has values 0 < n, b < 1 (n and b incomparable),
designated {b, 1}, lattice join/meet for | and &, the involution
0<->1, n->n, b->b for ~, and # sending everything except 1 to 0.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Optional, Sequence

from .record import Record
from .syntax import And, Bot, Box, Formula, Neg, Or, Var, variables_of

if TYPE_CHECKING:
    from pathlib import Path

__all__ = [
    "TruthValue", "Valuation", "Operation", "LogicalMatrix", "M4",
    "MissingVariableError", "UnknownConnectiveError",
    "evaluate", "satisfies", "valuations", "matrix_consequence",
    "degree_consequence", "countermodel", "Planes", "DunnPlanes",
    "value_planes", "parse_valuation",
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
            hit = _TABLES[id(self)] = {
                name: tuple(idx[op.table[args]]
                            for args in itertools.product(self.values, repeat=op.arity))
                for name, op in self.ops.items() if op.arity == _ARITY.get(name)}
            forget_with(self, _TABLES)
        return hit


def forget_with(m: LogicalMatrix, cache: dict) -> None:
    """Drop ``cache[id(m)]`` when m is collected, before its id can be
    reused, so that a cache keyed by id holds no matrix alive."""
    import weakref   # not loaded where site has not; once per matrix
    weakref.finalize(m, cache.pop, id(m), None)


# keyed by id(), the entry dropped with the matrix (``forget_with``).
# Not an attribute: one set late on M4 slows every attribute load of it.
_TABLES: dict[int, dict[str, tuple[int, ...]]] = {}


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
# A kernel holds each formula as a few ints, bit j of each saying
# something of its value under valuation j, and answers queries with
# masks of valuations.  Two formats, picked by ``value_planes``:
#
# - one-hot (``Planes``), for any matrix: n ints, one per value, bit j
#   of plane i set when the formula takes value i under valuation j.
#   Every bit is set in exactly one of them, and a connective maps them
#   through its index table with bitwise & and |, up to n*n pairs a node.
# - Dunn's two planes (``DunnPlanes``), for M4 alone: each value is a
#   pair of bits, told true and told false (Dunn, "Intuitive semantics
#   for first-degree entailment and 'coupled trees'", 1976), 0 = (0,1),
#   n = (0,0), b = (1,1), 1 = (1,0).  A formula is (T, F): T has bit j
#   set where it takes b or 1, F where it takes 0 or b.  Then & is
#   (T1&T2, F1|F2), | is (T1|T2, F1&F2), ~ is (F, T), # is (w, full^w)
#   with w = T&~F, and bot is (0, full): two bitwise operations a node,
#   and 2 * 4^k bits a formula against the one-hot 4 * 4^k.

class _Kernel(dict):
    """What both formats share: the matrix ``m``, the variable masks,
    ``full`` (the mask of all valuations) and ``first``.  Each format
    maps a formula to its planes, computed on first use by an iterative
    post-order over the interned formula DAG that stops at the formulas
    already held; gives the mask of valuations where a formula takes one
    of some value indices (``among``); and answers ``refuting`` and
    ``below`` with the designated set, the top and the order of ``m``.

    A variable's planes depend on the format, the number of values n,
    the number of variables k and its position, not on its name: they
    are built once per shape (``_SHAPES``) and shared, being immutable
    ints, by every kernel of that shape, up to ``_SHAPES_MAX`` valuations.
    A larger kernel builds its own, so that they go when it does."""

    __slots__ = ("names", "m", "full")

    def __init__(self, names: Sequence[str], m: LogicalMatrix) -> None:
        self.names, self.m = names, m
        key = (self._variable, len(m.values), len(names))
        shape = _SHAPES.get(key)
        if shape is None:
            shape = _variable_planes(*key)
            if key[1] ** key[2] <= _SHAPES_MAX:
                _SHAPES[key] = shape
        self.full, planes = shape
        self.update(zip(map(Var, names), planes))

    def first(self, mask: int) -> dict:
        """The valuation of the lowest set bit of a non-empty mask, its
        keys in the order of ``names``."""
        values = self.m.values
        j = (mask & -mask).bit_length() - 1
        digits = []
        for _ in self.names:
            j, d = divmod(j, len(values))
            digits.append(values[d])
        return dict(zip(self.names, reversed(digits)))

    def where(self, f: Formula, i: int) -> int:
        """The valuations where f takes the value of index i."""
        return self.among(f, (i,))


def _variable_planes(variable: Callable[[list[int]], Any], n: int, k: int,
                     ) -> tuple[int, tuple[Any, ...]]:
    """``full`` over k variables into n values, and the planes of each
    variable by position, in the format ``variable`` makes of its n
    one-hot planes."""
    size = n ** k
    full = (1 << size) - 1
    out = []
    for i in range(k):
        # digit i of j counts runs of `step` bits, n runs to a period:
        # value 0 on the first run of each period, value a a runs later.
        # Built by doubling; dividing full by a repunit is quadratic.
        step = n ** (k - 1 - i)
        low, width = (1 << step) - 1, step * n
        while width < size:
            low |= low << width
            width *= 2
        low &= full
        out.append(variable([low << a * step for a in range(n)]))
    return full, tuple(out)


# the variable planes of each kernel shape (format, n, k) built so far,
# of at most _SHAPES_MAX valuations: 4^8, the most the G search prunes
# with.  All shapes of a format then take at most 0.19 MB for Dunn's
# planes, 0.35 MB for one-hot planes over four values, 0.53 MB over 16.
_SHAPES_MAX = 4 ** 8
_SHAPES: dict[tuple[Any, int, int], tuple[int, tuple[Any, ...]]] = {}


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


class Planes(_Kernel):
    """The one-hot value planes of formulas over all valuations of
    ``names`` (sorted) into the values of ``m``, under its index tables
    (``LogicalMatrix.tables``): ``planes[f]`` is the tuple of f's n
    planes.  Any matrix; ``value_planes`` picks it for all but M4."""

    __slots__ = ("tables",)

    def __init__(self, names: Sequence[str], m: LogicalMatrix) -> None:
        self.tables = m.tables()
        super().__init__(names, m)

    _variable = tuple

    def _table(self, name: str) -> Sequence[int]:
        table = self.tables.get(name)
        if table is None:
            raise UnknownConnectiveError(name)
        return table

    def __missing__(self, root: Formula) -> tuple[int, ...]:
        n = len(self.m.values)
        stack = [root]
        while stack:
            f = stack[-1]
            if f in self:
                stack.pop()
                continue
            t = type(f)
            if t is Var:
                raise MissingVariableError(f.name)
            table = self._table(_CONNECTIVE[t])
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

    def among(self, f: Formula, indices: Iterable[int]) -> int:
        x, out = self[f], 0
        for i in indices:
            out |= x[i]
        return out

    def refuting(self, gamma: Iterable[Formula], delta: Iterable[Formula]) -> int:
        """The valuations that designate every formula of gamma and none
        of delta."""
        m = self.m
        designated = [i for i, v in enumerate(m.values) if v in m.designated]
        mask = self.full
        for f in gamma:
            mask &= self.among(f, designated)
        for f in delta:
            mask &= ~self.among(f, designated)
        return mask

    def differ(self, f: Formula, g: Formula) -> int:
        """The valuations where f and g take different values."""
        out = 0
        for a, b in zip(self[f], self[g]):
            out |= a ^ b
        return out

    def below(self, left: Iterable[Formula], right: Sequence[Formula]) -> int:
        """The valuations where the meet of ``left``, starting from the
        top value, is below the join of the non-empty ``right``, in the
        order of the matrix."""
        m, meet = self.m, self._table("and")
        lo = _constant(m.index(m.top()), len(m.values), self.full)
        for f in left:
            lo = _apply2(meet, lo, self[f])
        hi = self[right[0]]
        for f in right[1:]:
            hi = _apply2(self._table("or"), hi, self[f])
        out = 0
        for a, b in m.order:
            out |= lo[m.index(a)] & hi[m.index(b)]
        return out


# (told true, told false) of each value of M4, by index
_BITS = ((0, 1), (0, 0), (1, 1), (1, 0))


class DunnPlanes(_Kernel):
    """Dunn's two planes of formulas over all valuations of ``names``
    (sorted) into M4's values: ``planes[f]`` is (T, F), the valuations
    where f is told true and those where it is told false.  M4's
    designated set is the told true, and its order reads off the two
    planes, so every query takes a few bitwise operations a formula."""

    __slots__ = ()

    @staticmethod
    def _variable(runs: list[int]) -> tuple[int, int]:
        return runs[2] | runs[3], runs[0] | runs[2]

    def __missing__(self, root: Formula) -> tuple[int, int]:
        full = self.full
        stack = [root]
        while stack:
            f = stack[-1]
            if f in self:
                stack.pop()
                continue
            t = type(f)
            if t is And or t is Or:
                x, y = self.get(f.left), self.get(f.right)
                if x is None or y is None:
                    if y is None:
                        stack.append(f.right)
                    if x is None:
                        stack.append(f.left)
                    continue
                out = (x[0] & y[0], x[1] | y[1]) if t is And else (x[0] | y[0], x[1] & y[1])
            elif t is Neg or t is Box:
                x = self.get(f.child)
                if x is None:
                    stack.append(f.child)
                    continue
                if t is Neg:
                    out = x[1], x[0]
                else:
                    w = x[0] & ~x[1]
                    out = w, full ^ w
            elif t is Bot:
                out = 0, full
            else:
                raise MissingVariableError(f.name)
            stack.pop()
            self[f] = out
        return self[root]

    def among(self, f: Formula, indices: Iterable[int]) -> int:
        (t, u), out = self[f], 0
        for i in indices:   # bits past full where told neither true nor false
            told_true, told_false = _BITS[i]
            out |= (t if told_true else ~t) & (u if told_false else ~u)
        return out & self.full

    def refuting(self, gamma: Iterable[Formula], delta: Iterable[Formula]) -> int:
        """As ``Planes.refuting``: M4 designates b and 1, the told true."""
        mask = self.full
        for f in gamma:
            mask &= self[f][0]
        for f in delta:
            mask &= ~self[f][0]
        return mask

    def differ(self, f: Formula, g: Formula) -> int:
        """The valuations where f and g take different values."""
        x, y = self[f], self[g]
        return (x[0] ^ y[0]) | (x[1] ^ y[1])

    def below(self, left: Iterable[Formula], right: Sequence[Formula]) -> int:
        """As ``Planes.below``.  M4's top, 1, is told true and not told
        false, and in its order a value is below another iff it is told
        true at most where the other is, and told false at least where
        the other is."""
        full = self.full
        lo_t, lo_f = full, 0
        for g in left:
            x = self[g]
            lo_t &= x[0]
            lo_f |= x[1]
        hi_t, hi_f = self[right[0]]
        for g in right[1:]:
            x = self[g]
            hi_t |= x[0]
            hi_f &= x[1]
        return full & (~lo_t | hi_t) & (~hi_f | lo_f)


def value_planes(names: Sequence[str], m: LogicalMatrix) -> Planes | DunnPlanes:
    """The kernel for formulas over all valuations of ``names`` (sorted)
    into the matrix m: Dunn's two planes where m is M4 (equal to it, as
    the bundled ``data/m4.json`` loads), the one-hot planes for any
    other, M4's tables with another designated set or order included."""
    if m is M4 or m == M4:
        return DunnPlanes(names, m)
    return Planes(names, m)


def matrix_consequence(gamma: Iterable[Formula], delta: Iterable[Formula],
                       m: LogicalMatrix = M4) -> bool:
    """True iff every valuation refutes some premise or accepts some
    conclusion."""
    return countermodel(gamma, delta, m) is None


def countermodel(gamma: Iterable[Formula], delta: Iterable[Formula],
                 m: LogicalMatrix = M4) -> Optional[dict[str, TruthValue]]:
    """First refuting valuation in enumeration order, or None."""
    gamma, delta = list(gamma), list(delta)
    planes = value_planes(variables_of(gamma + delta), m)
    mask = planes.refuting(gamma, delta)
    return planes.first(mask) if mask else None


def degree_consequence(gamma: Iterable[Formula], phi: Formula,
                       m: LogicalMatrix = M4) -> bool:
    """Degree-preserving consequence: under every valuation the meet of
    the premise values is below the conclusion value.  Empty premises
    require the conclusion to take the top value everywhere."""
    gamma = list(gamma)
    planes = value_planes(variables_of(gamma + [phi]), m)
    return planes.below(gamma, [phi]) == planes.full


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
