"""Two-sided sequents over finite formula sets."""

from __future__ import annotations

from typing import Iterable

from .matrix import LogicalMatrix, M4, Valuation, satisfies
from .record import Record
from .syntax import Formula, formula_key, parse

__all__ = ["Sequent", "parse_sequent", "render_sequent", "sequent_satisfied"]


class Sequent(Record):
    """Pair of finite formula sets; equality is order-insensitive."""

    __slots__ = ("left", "right")
    left: frozenset[Formula]
    right: frozenset[Formula]

    def __init__(self, left: frozenset[Formula], right: frozenset[Formula]) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.left, self.right) == (other.left, other.right)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.left, self.right))

    @staticmethod
    def of(left: Iterable[Formula] = (), right: Iterable[Formula] = ()) -> "Sequent":
        return Sequent(frozenset(left), frozenset(right))

    def __str__(self) -> str:
        return render_sequent(self)


def side_texts(fs: Iterable[Formula]) -> list[str]:
    """The texts of a side's formulas, in ``formula_key`` order."""
    return [f.text for f in sorted(fs, key=formula_key)]


def render_sequent(s: Sequent) -> str:
    return f"{', '.join(side_texts(s.left))} => {', '.join(side_texts(s.right))}".strip()


def parse_sequent(text: str) -> Sequent:
    """Parse "G => D" with comma-separated formulas; sides may be empty."""
    norm = text.replace("⇒", "=>")
    if "=>" not in norm:
        raise ValueError(f"sequent must contain '=>': {text!r}")
    left_text, _, right_text = norm.partition("=>")

    def side(chunk: str) -> frozenset[Formula]:
        chunk = chunk.strip()
        if not chunk:
            return frozenset()
        return frozenset(parse(part) for part in chunk.split(","))

    return Sequent(side(left_text), side(right_text))


def sequent_satisfied(v: Valuation, s: Sequent, m: LogicalMatrix = M4) -> bool:
    """A valuation satisfies a sequent when it refutes some left formula
    or accepts some right formula."""
    return (any(not satisfies(v, g, m) for g in s.left)
            or any(satisfies(v, d, m) for d in s.right))
