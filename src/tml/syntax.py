"""Formula syntax: AST, parser, renderer, substitution, closure.

The language has two binary connectives (| and &), two unary prefix
connectives (~ negation, # necessity), the constant bot, and lowercase
identifiers as variables.  Unicode aliases: ∨ ∧ ¬ □ ⊥.

Formulas are interned: structurally equal formulas are the same object,
so equality and hashing are O(1).  Every formula carries a precomputed
ascii rendering (``text``) and node count (``size``).

``parse`` checks the characters of a text with one regular expression,
takes its tokens as strings with another and reads them in one loop;
it computes a line and column only for the error it raises.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable

from .record import Record

__all__ = [
    "Formula", "Var", "Bot", "Neg", "Box", "And", "Or", "BOT",
    "FormulaTemplate", "SyntaxError_", "parse", "render", "substitute",
    "closure", "subformulas", "mentions_bot", "variables", "variables_of", "formula_key",
    "PLACEHOLDER",
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


def mentions_bot(formulas: Iterable[Formula]) -> bool:
    """Whether bot occurs in any of the formulas: one walk over their
    subformulas, each shared one visited once, up to the first bot."""
    seen: set[Formula] = set()
    stack = list(formulas)
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        t = type(g)
        if t is Bot:
            return True
        if t is Neg or t is Box:
            stack.append(g.child)
        elif t is And or t is Or:
            stack += (g.left, g.right)
    return False


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


# ⊥ becomes " bot ", a token of its own: "p⊥" is p then bot, not pbot
_ALIASES = {"¬": "~", "□": "#", "∧": "&", "∨": "|", "⊥": " bot ", "⇒": "=>"}

_TOKEN = rf"{_IDENT_RE.pattern}|[~#&|()]"
_TOKEN_RE = re.compile(_TOKEN)
_TEXT_RE = re.compile(rf"(?:\s+|{_TOKEN})*")


def _error(message: str, typed: str, pos: int) -> SyntaxError_:
    """The error at offset pos of the alias-expanded text, placed in the
    text as typed: ``⊥`` and ``⇒`` expand to more than one character."""
    expanded = 0
    for at, c in enumerate(typed):
        expanded += len(_ALIASES.get(c, c))
        if expanded > pos:
            break
    else:
        at = len(typed)
    return SyntaxError_(message, typed.count("\n", 0, at) + 1, at - typed.rfind("\n", 0, at))


def _offset(text: str, i: int) -> int:
    """Where the i-th token starts, scanning again; len(text) for the end
    of input after the last token."""
    match = next(itertools.islice(_TOKEN_RE.finditer(text), i, None), None)
    return match.start() if match else len(text)


def parse(text: str) -> Formula:
    """Parse a formula; raises SyntaxError_ on malformed input.

    formula := conj ('|' conj)*, conj := unary ('&' unary)*,
    unary := ('~' | '#')* atom, atom := ident | 'bot' | '(' formula ')'.

    One regex pass checks the characters, a second takes the tokens as
    strings, with "" for the end of input.  A loop reads them: each open
    parenthesis saves the state of the enclosing formula, its disjunction
    and conjunction so far and the prefixes before the parenthesis, on a
    stack.  Lines and columns are computed only for an error, and
    count the text as typed."""
    typed = text
    for uni, repl in _ALIASES.items():
        text = text.replace(uni, repl)
    end = _TEXT_RE.match(text).end()
    if end < len(text):
        raise _error(f"unexpected character {text[end]!r}", typed, end)
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    i = 0
    outer: list[tuple] = []
    disj = conj = None
    prefixes: list[str] = []
    while True:
        t = tokens[i]
        while t == "~" or t == "#":
            prefixes.append(t)
            i += 1
            t = tokens[i]
        i += 1
        if t == "(":
            outer.append((disj, conj, prefixes))
            disj = conj = None
            prefixes = []
            continue
        if t == "bot":
            f = BOT
        elif t[:1].islower():
            f = Var(t)
        else:
            raise _error(f"expected a variable, 'bot' or '(', found {t or 'end of input'!r}",
                         typed, _offset(text, i - 1))
        while True:   # f is an atom: close every formula that ends after it
            for op in reversed(prefixes):
                f = Neg(f) if op == "~" else Box(f)
            conj = f if conj is None else And(conj, f)
            t = tokens[i]
            if t == "&":
                break
            disj = conj if disj is None else Or(disj, conj)
            if t == "|":
                conj = None
                break
            if not outer:
                if t:
                    raise _error(f"unexpected trailing input {t!r}", typed, _offset(text, i))
                return disj
            if t != ")":
                raise _error(f"expected ')', found {t or 'end of input'!r}",
                             typed, _offset(text, i))
            i += 1
            f = disj
            disj, conj, prefixes = outer.pop()
        i += 1
        prefixes = []


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
