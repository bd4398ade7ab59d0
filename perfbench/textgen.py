"""Seeded text generators and a reference evaluator for the benchmark.

Inputs are produced as text from small tuple trees, never with ``tml``
constructors, so that parsing stays on the measured path and the
interning pools of ``tml.syntax`` start cold in every run.

Trees are ``("v", name)``, ``("~", t)``, ``("#", t)``, ``("&", l, r)``
and ``("|", l, r)``.  ``render`` produces the same minimal-parenthesis
text as ``tml.syntax.render``.  ``value`` evaluates a tree in the
four-valued matrix through Dunn's two-bit reading, independently of
``tml.matrix``: it is the oracle the semantics workload is built from.
"""

from __future__ import annotations

import random

_PREC = {"|": 1, "&": 2, "~": 3, "#": 3, "v": 4}

# four-valued truth values as (designated, negation designated)
_BITS = {"0": (0, 1), "n": (0, 0), "b": (1, 1), "1": (1, 0)}
VALUES = tuple(_BITS)


def random_tree(rng: random.Random, budget: int, names: str):
    """The shape of the acceptance suite's ``_random_formula``: at most
    ``budget`` connectives over the variables in ``names``."""
    if budget <= 0:
        return ("v", rng.choice(names))
    k = rng.randrange(6)
    if k == 0:
        return ("v", rng.choice(names))
    if k == 1:
        return ("~", random_tree(rng, budget - 1, names))
    if k == 2:
        return ("#", random_tree(rng, budget - 1, names))
    split = rng.randrange(budget)
    left = random_tree(rng, split, names)
    right = random_tree(rng, budget - 1 - split, names)
    return ("&" if k in (3, 4) else "|", left, right)


def shaped_tree(rng: random.Random, leaves, unary: int):
    """A random tree over exactly the variables ``leaves``, in that
    order, with ``len(leaves) - 1`` binary and exactly ``unary`` unary
    connectives: the shape is random, the size is not."""
    n = len(leaves)
    if unary and (n == 1 or rng.randrange(unary + 2 * n - 1) < unary):
        return (rng.choice("~#"), shaped_tree(rng, leaves, unary - 1))
    if n == 1:
        return ("v", leaves[0])
    split = 1 + rng.randrange(n - 1)
    left_unary = rng.randrange(unary + 1)
    return (rng.choice("&|"), shaped_tree(rng, leaves[:split], left_unary),
            shaped_tree(rng, leaves[split:], unary - left_unary))


def render(t) -> str:
    op = t[0]
    if op == "v":
        return t[1]
    if op in "~#":
        inner = render(t[1])
        return op + (f"({inner})" if _PREC[t[1][0]] < 3 else inner)
    prec = _PREC[op]
    left, right = render(t[1]), render(t[2])
    if _PREC[t[1][0]] < prec:
        left = f"({left})"
    if _PREC[t[2][0]] <= prec:
        right = f"({right})"
    return f"{left} {op} {right}"


def variables(t, out=None) -> set:
    out = set() if out is None else out
    if t[0] == "v":
        out.add(t[1])
    else:
        for c in t[1:]:
            variables(c, out)
    return out


def _bits(t, v):
    op = t[0]
    if op == "v":
        return _BITS[v[t[1]]]
    if op == "~":
        d, n = _bits(t[1], v)
        return n, d
    if op == "#":
        d, n = _bits(t[1], v)
        top = d & (1 - n)
        return top, 1 - top
    (d1, n1), (d2, n2) = _bits(t[1], v), _bits(t[2], v)
    if op == "|":
        return d1 | d2, n1 & n2
    return d1 & d2, n1 | n2


def designated(t, v) -> bool:
    """Is the tree designated (value b or 1) under valuation ``v``?"""
    return bool(_bits(t, v)[0])


def sequent_text(left, right) -> str:
    return ", ".join(map(render, left)) + " => " + ", ".join(map(render, right))
