"""Formula syntax: AST, parser, renderer, substitution, closure.

The language has two binary connectives (| and &), two unary prefix
connectives (~ negation, # necessity), the constant bot, and lowercase
identifiers as variables.  Unicode aliases: ∨ ∧ ¬ □ ⊥.

Formulas are interned: structurally equal formulas are the same object,
so equality and hashing are O(1).  Every formula carries a precomputed
ascii rendering (``text``) and node count (``size``).
"""

from __future__ import annotations

import re
from typing import Iterable

from .record import Record

__all__ = [
    "Formula", "Var", "Bot", "Neg", "Box", "And", "Or", "BOT",
    "FormulaTemplate", "SyntaxError_", "parse", "render", "substitute",
    "closure", "subformulas", "variables", "variables_of", "formula_key", "PLACEHOLDER",
]

_IDENT_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")

# precedence levels used for minimal-parenthesis rendering
_PREC_OR = 1
_PREC_AND = 2
_PREC_UNARY = 3
_PREC_ATOM = 4


class Formula:
    """Base class; construct via Var/Bot/Neg/Box/And/Or only."""

    __slots__ = ("size", "text", "prec")

    size: int
    text: str
    prec: int

    # Interning guarantees structural equality == identity, so the default
    # object __eq__/__hash__ are correct and fast.

    def __repr__(self) -> str:
        return self.text

    def __str__(self) -> str:
        return self.text


class Var(Formula):
    __slots__ = ("name",)
    _pool: dict[str, "Var"] = {}

    def __new__(cls, name: str) -> "Var":
        f = cls._pool.get(name)
        if f is None:
            if not _IDENT_RE.fullmatch(name) or name == "bot":
                raise ValueError(f"invalid variable name: {name!r}")
            f = object.__new__(cls)
            f.name = name
            f.size = 1
            f.text = name
            f.prec = _PREC_ATOM
            cls._pool[name] = f
        return f


class Bot(Formula):
    __slots__ = ()
    _instance: "Bot | None" = None

    def __new__(cls) -> "Bot":
        if cls._instance is None:
            f = object.__new__(cls)
            f.size = 1
            f.text = "bot"
            f.prec = _PREC_ATOM
            cls._instance = f
        return cls._instance


BOT = Bot()


def _wrap(child: Formula, parent_prec: int, strict: bool) -> str:
    need = child.prec <= parent_prec if strict else child.prec < parent_prec
    return f"({child.text})" if need else child.text


class Neg(Formula):
    __slots__ = ("child",)
    _pool: dict[Formula, "Neg"] = {}

    def __new__(cls, child: Formula) -> "Neg":
        f = cls._pool.get(child)
        if f is None:
            f = object.__new__(cls)
            f.child = child
            f.size = child.size + 1
            f.text = "~" + _wrap(child, _PREC_UNARY, strict=False)
            f.prec = _PREC_UNARY
            cls._pool[child] = f
        return f


class Box(Formula):
    __slots__ = ("child",)
    _pool: dict[Formula, "Box"] = {}

    def __new__(cls, child: Formula) -> "Box":
        f = cls._pool.get(child)
        if f is None:
            f = object.__new__(cls)
            f.child = child
            f.size = child.size + 1
            f.text = "#" + _wrap(child, _PREC_UNARY, strict=False)
            f.prec = _PREC_UNARY
            cls._pool[child] = f
        return f


class And(Formula):
    __slots__ = ("left", "right")
    _pool: dict[tuple[Formula, Formula], "And"] = {}

    def __new__(cls, left: Formula, right: Formula) -> "And":
        f = cls._pool.get((left, right))
        if f is None:
            f = object.__new__(cls)
            f.left = left
            f.right = right
            f.size = left.size + right.size + 1
            f.text = (_wrap(left, _PREC_AND, strict=False) + " & "
                      + _wrap(right, _PREC_AND, strict=True))
            f.prec = _PREC_AND
            cls._pool[(left, right)] = f
        return f


class Or(Formula):
    __slots__ = ("left", "right")
    _pool: dict[tuple[Formula, Formula], "Or"] = {}

    def __new__(cls, left: Formula, right: Formula) -> "Or":
        f = cls._pool.get((left, right))
        if f is None:
            f = object.__new__(cls)
            f.left = left
            f.right = right
            f.size = left.size + right.size + 1
            f.text = (_wrap(left, _PREC_OR, strict=False) + " | "
                      + _wrap(right, _PREC_OR, strict=True))
            f.prec = _PREC_OR
            cls._pool[(left, right)] = f
        return f


def formula_key(f: Formula) -> tuple[int, str]:
    """Deterministic sort key: node count, then ascii rendering."""
    return (f.size, f.text)


def variables(f: Formula) -> frozenset[str]:
    out: set[str] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Var):
            out.add(g.name)
        elif isinstance(g, (Neg, Box)):
            stack.append(g.child)
        elif isinstance(g, (And, Or)):
            stack.append(g.left)
            stack.append(g.right)
    return frozenset(out)


def variables_of(formulas: Iterable[Formula]) -> list[str]:
    """The variables of the formulas, sorted: one walk over their
    subformulas, each shared one visited once."""
    seen: set[Formula] = set()
    names: list[str] = []
    stack = list(formulas)
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        t = type(g)
        if t is Var:
            names.append(g.name)
        elif t is Neg or t is Box:
            stack.append(g.child)
        elif t is And or t is Or:
            stack += (g.left, g.right)
    return sorted(names)


def subformulas(f: Formula) -> set[Formula]:
    """All subformulas of f, including f itself."""
    out: set[Formula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in out:
            continue
        out.add(g)
        if isinstance(g, (Neg, Box)):
            stack.append(g.child)
        elif isinstance(g, (And, Or)):
            stack.append(g.left)
            stack.append(g.right)
    return out


def closure(fs: Iterable[Formula]) -> frozenset[Formula]:
    """Subformula-and-single-negation closure.

    Smallest superset of fs closed under immediate subformulas and
    containing ~g for every member g that is not itself a negation.
    Single negations only: ~~ is never stacked, which keeps the set
    linear in the subformula count.
    """
    out: set[Formula] = set()
    stack = list(fs)
    while stack:
        g = stack.pop()
        if g in out:
            continue
        out.add(g)
        if isinstance(g, (Neg, Box)):
            stack.append(g.child)
        elif isinstance(g, (And, Or)):
            stack.append(g.left)
            stack.append(g.right)
        if not isinstance(g, Neg):
            stack.append(Neg(g))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Parsing

class SyntaxError_(ValueError):
    """Parse failure with position and expectation info."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


_ALIASES = {"¬": "~", "□": "#", "∧": "&", "∨": "|", "⊥": "bot", "⇒": "=>"}

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<ident>[a-z][a-zA-Z0-9_]*)|(?P<op>[~#&|()])"
)


class _Token(Record):
    __slots__ = ("kind", "value", "line", "column")
    kind: str  # 'ident' 'bot' '~' '#' '&' '|' '(' ')' 'end'
    value: str
    line: int
    column: int

    # not frozen, so unhashable
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, kind: str, value: str, line: int, column: int) -> None:
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column


def _tokenize(text: str) -> list[_Token]:
    for uni, repl in _ALIASES.items():
        text = text.replace(uni, repl)
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SyntaxError_(f"unexpected character {text[pos]!r}", line, col)
        if m.lastgroup == "ws":
            chunk = m.group()
            nl = chunk.count("\n")
            if nl:
                line += nl
                col = len(chunk) - chunk.rfind("\n")
            else:
                col += len(chunk)
        elif m.lastgroup == "ident":
            word = m.group()
            kind = "bot" if word == "bot" else "ident"
            tokens.append(_Token(kind, word, line, col))
            col += len(word)
        else:
            tokens.append(_Token(m.group(), m.group(), line, col))
            col += 1
        pos = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Token:
        t = self.peek()
        if t.kind != kind:
            raise SyntaxError_(
                f"expected {kind!r}, found {t.value or 'end of input'!r}",
                t.line, t.column)
        return self.next()

    def formula(self) -> Formula:
        """formula := conj ('|' conj)*, conj := unary ('&' unary)*,
        unary := ('~' | '#')* atom, atom := ident | 'bot' | '(' formula ')'.

        A loop over the tokens: each open parenthesis saves the state of
        the enclosing formula, its disjunction and conjunction so far and
        the prefixes before the parenthesis, on a stack."""
        outer: list[tuple] = []
        disj = conj = None
        prefixes: list[str] = []
        while True:
            t = self.next()
            while t.kind in ("~", "#"):
                prefixes.append(t.kind)
                t = self.next()
            if t.kind == "(":
                outer.append((disj, conj, prefixes))
                disj = conj = None
                prefixes = []
                continue
            if t.kind == "ident":
                f = Var(t.value)
            elif t.kind == "bot":
                f = BOT
            else:
                raise SyntaxError_(
                    f"expected a variable, 'bot' or '(', found {t.value or 'end of input'!r}",
                    t.line, t.column)
            while True:   # f is an atom: close every formula that ends after it
                for op in reversed(prefixes):
                    f = Neg(f) if op == "~" else Box(f)
                conj = f if conj is None else And(conj, f)
                kind = self.peek().kind
                if kind == "&":
                    break
                disj = conj if disj is None else Or(disj, conj)
                if kind == "|":
                    conj = None
                    break
                if not outer:
                    return disj
                self.expect(")")
                f = disj
                disj, conj, prefixes = outer.pop()
            self.next()
            prefixes = []


def parse(text: str) -> Formula:
    """Parse a formula; raises SyntaxError_ on malformed input."""
    p = _Parser(text)
    f = p.formula()
    t = p.peek()
    if t.kind != "end":
        raise SyntaxError_(f"unexpected trailing input {t.value!r}", t.line, t.column)
    return f


_UNICODE_MAP = str.maketrans({"~": "¬", "#": "□", "&": "∧", "|": "∨"})


def render(f: Formula, style: str = "ascii") -> str:
    """Minimal-parenthesis rendering; parse(render(f)) == f."""
    if style == "ascii":
        return f.text
    if style != "unicode":
        raise ValueError(f"unknown style: {style!r}")
    # the ascii text with its symbols swapped: the same parentheses, and
    # "bot" as a whole word is the constant, never part of a variable
    return re.sub(r"\bbot\b", "⊥", f.text.translate(_UNICODE_MAP))


# ---------------------------------------------------------------------------
# Templates

PLACEHOLDER = Var("p")


class FormulaTemplate(Record):
    """One-variable formula scheme; the only allowed variable is p."""

    body: Formula

    def __init__(self, body: Formula) -> None:
        extra = variables(body) - {PLACEHOLDER.name}
        if extra:
            raise ValueError(f"template may only use 'p', found {sorted(extra)}")
        super().__init__(body)

    def __str__(self) -> str:
        return self.body.text


def substitute(template: FormulaTemplate, target: Formula) -> Formula:
    """Replace every occurrence of the placeholder p by target: a
    post-order with an explicit stack, each distinct subformula once."""
    done: dict[Formula, Formula] = {PLACEHOLDER: target}
    stack = [template.body]
    while stack:
        f = stack.pop()
        if f in done:
            continue
        if isinstance(f, (Neg, Box)):
            child = done.get(f.child)
            if child is None:
                stack += (f, f.child)
                continue
            done[f] = type(f)(child)
        elif isinstance(f, (And, Or)):
            left, right = done.get(f.left), done.get(f.right)
            if left is None or right is None:
                stack += (f, f.right, f.left)
                continue
            done[f] = type(f)(left, right)
        else:
            done[f] = f
    return done[template.body]
