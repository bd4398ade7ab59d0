"""Proof trees of all four formats: one walk, one check error, JSON, text.

Each calculus (``tml.sc``, ``tml.gcalc``, ``tml.signed``, ``tml.nd``)
keeps a frozen node class that knows only itself: ``premises``, a tuple
of nodes; ``json_fields(memo)``, its JSON object with an empty
``premises`` list where premises go; the static ``json_reader(doc,
memo)``, which reads those fields and returns the builder of the node
from its premises; and ``label()``, its line of text.  The memo lasts
one ``to_json`` or ``from_json`` call (see ``shared``).  The rest is
here, all iterative, the classes' ``__eq__`` (``tree_eq``) and
``__hash__`` (``tree_hash``) included.
"""

from __future__ import annotations

from operator import attrgetter, methodcaller
from typing import Any, Callable, Hashable, Iterator, Optional, Sequence

__all__ = ["Path", "CheckError", "passes", "walk", "fold", "tree_eq", "tree_hash", "shared",
           "to_json", "dumps", "dump_chunks", "from_json", "render"]

Path = tuple[int, ...]   # premise indices from the root down to a node


class CheckError(ValueError):
    """The first proof node, at ``path``, that breaks its rule.  The message
    is ``node [0, 1] (or_l): reason`` when ``rule`` is given, as the
    two-sided calculus and G do, else ``node [0, 1]: reason``."""

    def __init__(self, path: Sequence[int], reason: str, rule: Optional[Any] = None):
        where = f"node {list(path)}" if rule is None else f"node {list(path)} ({rule.value})"
        super().__init__(f"{where}: {reason}")
        self.path: Path = tuple(path)
        self.reason = reason
        self.rule = rule


def passes(verify: Callable[..., Any], *args: Any, **kwargs: Any) -> bool:
    """Whether ``verify(*args, **kwargs)`` returns without a CheckError."""
    try:
        verify(*args, **kwargs)
    except CheckError:
        return False
    return True


def walk(root: Any, premises: Callable[[Any], Any] = attrgetter("premises"),
         ) -> Iterator[tuple[Any, list[int], bool]]:
    """Depth-first walk with an explicit stack: yields ``(node, path, True)``
    on entry to a node, before its premises, and ``(node, path, False)`` on
    exit, after them, interleaved as the calls and returns of a recursive
    walk would be.  A subtree shared by several parents is walked once per
    occurrence.

    ``path`` is one list, updated in place as the walk moves, so an event
    costs the same at any height: copy it to keep it, as CheckError does."""
    path: list[int] = []
    stack: list[tuple[Any, Optional[int], bool]] = [(root, None, True)]
    pop, push = stack.pop, stack.append
    while stack:
        node, i, entering = pop()
        if entering:
            if i is not None:
                path.append(i)
            yield node, path, True
            children = premises(node)
            if children:
                push((node, i, False))
                k = len(children)
                while k:   # the first premise goes on top
                    k -= 1
                    push((children[k], k, True))
                continue
        yield node, path, False
        if i is not None:
            path.pop()


def fold(root: Any, combine: Callable[[Any, list], Any]) -> Any:
    """Bottom-up: ``combine(node, results)`` on each node's exit from
    ``walk``, with the results of its premises in order, once per
    occurrence and in the order of a recursive post-order walk."""
    done: list[Any] = []
    for node, _, entering in walk(root):
        if not entering:
            start = len(done) - len(node.premises)
            result = combine(node, done[start:])
            del done[start:]
            done.append(result)
    return done[0]


def tree_eq(a: Any, b: Any) -> Any:
    """``a == b`` for proof nodes of one class: both trees walked on an
    explicit stack, each pair of nodes compared by class, by every field
    but ``premises`` and by premise count, so that equality does not
    recurse at any height.  A subtree shared by both is not walked."""
    if b.__class__ is not a.__class__:
        return NotImplemented
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if (y.__class__ is not x.__class__ or len(x.premises) != len(y.premises)
                or any(getattr(x, f) != getattr(y, f) for f in x._fields if f != "premises")):
            return False
        stack += zip(x.premises, y.premises)
    return True


def tree_hash(root: Any) -> int:
    """``hash`` of the tuple of a node's fields, premises included, as a
    recursive ``__hash__`` would give, without recursing at any height:
    on the first call the hashes are computed bottom-up on an explicit
    stack, and each is kept in the node's ``_hash`` slot, which is not
    one of its ``_fields``, so repr and ``tree_eq`` do not see it."""
    stack = [root]
    while stack:
        node = stack[-1]
        if getattr(node, "_hash", None) is None:
            pending = [p for p in node.premises if getattr(p, "_hash", None) is None]
            if pending:
                stack += pending
                continue
            object.__setattr__(node, "_hash",
                               hash(tuple(getattr(node, f) for f in node._fields)))
        stack.pop()
    return root._hash


def shared(memo: dict, key: Hashable, make: Callable[[Any], Any]) -> Any:
    """``make(key)``, made once per key of a memo and shared after that.
    An unhashable key (a malformed document) goes to ``make`` unmemoised,
    so that it fails there as it would without the memo."""
    try:
        value = memo.get(key)
    except TypeError:
        return make(key)
    if value is None:
        value = memo[key] = make(key)
    return value


def to_json(root: Any) -> dict:
    """The JSON of a tree, built top-down: each node's object is made on
    entry and appended to its parent's ``premises``.

    ``json_fields`` gets a memo for the whole call: equal sequent sides
    share one list of texts, so do not change the lists in place."""
    memo: dict = {}
    docs: list[dict] = []   # the objects from the root to the node entered last
    for node, path, entering in walk(root):
        if entering:
            doc = node.json_fields(memo)
            del docs[len(path):]
            if docs:
                docs[-1]["premises"].append(doc)
            docs.append(doc)
    return docs[0]


def dumps(root: Any) -> str:
    """``json.dumps(to_json(root), indent=2)``, byte for byte."""
    return "".join(dump_chunks(root))


def dump_chunks(root: Any) -> Iterator[str]:
    """The text of ``dumps(root)`` in pieces, for a caller that writes it
    out without holding it whole.  On an explicit stack: the standard
    library's indenting encoder nests a generator per open level, so its
    time grows with height times size and it fails past the recursion
    limit."""
    import json
    # a str is text to write; a pair is a value and the line break that
    # starts each line of its level, one string shared by those lines
    todo: list[Any] = [(to_json(root), "\n")]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            yield item
            continue
        value, nl = item
        if not value or not isinstance(value, (dict, list)):
            yield json.dumps(value)
            continue
        inner = nl + "  "
        sep = "," + inner
        if isinstance(value, dict):
            yield "{"
            todo.append(nl + "}")
            for k, v in reversed(value.items()):
                todo += ((v, inner), f"{json.dumps(k)}: ", sep)
        else:
            yield "["
            todo.append(nl + "]")
            for v in reversed(value):
                todo += ((v, inner), sep)
        todo[-1] = inner   # no comma before the first item


_json_premises = methodcaller("get", "premises", ())


def from_json(doc: dict, node_class: Any) -> Any:
    """The tree of a JSON document.  A node's fields are read on entry,
    so a bad field is reported before anything below it; the node is
    built on exit, from its finished premises.  ``json_reader`` gets a
    memo for the whole call, so each distinct text is parsed once."""
    memo: dict = {}
    builders: list[Callable[[tuple], Any]] = []
    done: list[Any] = []
    for d, _, entering in walk(doc, _json_premises):
        if entering:
            builders.append(node_class.json_reader(d, memo))
        else:
            start = len(done) - len(_json_premises(d))
            node = builders.pop()(tuple(done[start:]))
            del done[start:]
            done.append(node)
    return done[0]


def render(root: Any) -> str:
    """Indented text: a line per node, each premise above its conclusion
    and four spaces further in."""
    return "\n".join("    " * len(path) + node.label()
                     for node, path, entering in walk(root) if not entering)
