"""No function of the package may call itself, directly or through other
functions of its module: recursion caps proof height, formula depth and
side width at the interpreter's recursion limit.  The call graph is read
from the source with ``ast``; it links calls of plain names, resolved
through the enclosing scopes, and calls of ``self.<method>``.  The same
graph shows that no call path joins the G search's list of rule
instances to its checkers' list."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tml"

# Cycles allowed, by the qualified names of their functions, with the
# reason.  An entry whose cycle is gone fails the guard, so that no stale
# entry can hide a new cycle of the same functions.
ALLOWED: dict[frozenset[str], str] = {}


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own(node: ast.AST) -> list[ast.AST]:
    """The nodes under node, down to nested functions and classes but not
    into them."""
    out, stack = [], list(ast.iter_child_nodes(node))
    while stack:
        n = stack.pop()
        out.append(n)
        if not isinstance(n, (*_DEFS, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(n))
    return out


def _call_graph(module: str, tree: ast.Module, wide: bool = False) -> dict[str, set[str]]:
    """Qualified function name -> the qualified names it calls.

    ``wide`` reads every use of a function as a call, so that a function
    passed as an argument counts (as ``fold(p, _contrapose)`` calls
    ``_contrapose``), and adds what a name can stand for beyond the
    module's own functions: a package function imported by name or used
    through its imported module (``sc.cut``), a class (each of its
    methods), and a method name after any dot (every method of the
    module's classes with that name).  That over-approximates the calls,
    so a path it does not find does not exist."""
    graph: dict[str, set[str]] = {}
    imported: dict[str, str] = {}
    modules: dict[str, str] = {}
    by_method: dict[str, set[str]] = {}
    if wide:
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and n.level == 1:
                for a in n.names:
                    if n.module is None:
                        modules[a.asname or a.name] = a.name
                    else:
                        imported[a.asname or a.name] = f"{n.module}.{a.name}"
    # (node, its qualified name, the functions visible by name, the methods of its class)
    todo = [(tree, module, imported, {})]
    while todo:
        node, qual, scope, methods = todo.pop()
        own = _own(node)
        visible = {**scope, **{n.name: f"{qual}.{n.name}" for n in own if isinstance(n, _DEFS)}}
        for n in own:
            if isinstance(n, _DEFS):
                todo.append((n, f"{qual}.{n.name}", visible, methods))
            elif isinstance(n, ast.ClassDef):
                defs = [c for c in n.body if isinstance(c, _DEFS)]
                inner = {c.name: f"{qual}.{n.name}.{c.name}" for c in defs}
                todo.extend((c, inner[c.name], visible, inner) for c in defs)
                if wide:
                    visible[n.name] = f"{qual}.{n.name}"
                    graph[visible[n.name]] = set(inner.values())
                    for name, method in inner.items():
                        by_method.setdefault(name, set()).add(method)
        if not isinstance(node, _DEFS):
            continue
        params = {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
        calls = graph.setdefault(qual, set())
        for n in own:
            if wide:
                f = n
            elif isinstance(n, ast.Call):
                f = n.func
            else:
                continue
            if isinstance(f, ast.Name) and f.id in visible and f.id not in params:
                calls.add(visible[f.id])
            elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                  and f.value.id == "self" and f.attr in methods):
                calls.add(methods[f.attr])
            elif wide and isinstance(f, ast.Attribute):
                if isinstance(f.value, ast.Name) and f.value.id in modules:
                    calls.add(f"{modules[f.value.id]}.{f.attr}")
                calls.update(by_method.get(f.attr, ()))
    return graph


def _cycles(graph: dict[str, set[str]]) -> list[frozenset[str]]:
    """The strongly connected components that hold a cycle (Tarjan's
    algorithm, with an explicit stack)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    out: list[frozenset[str]] = []
    for root in graph:
        if root in index:
            continue
        work = [(root, iter(sorted(graph.get(root, ()))))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            w = next(it, None)
            if w is not None:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph.get(w, ())))))
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                if len(comp) > 1 or v in graph.get(v, ()):
                    out.append(frozenset(comp))
    return out


def _package_cycles() -> list[frozenset[str]]:
    out = []
    for path in sorted(SRC.glob("*.py")):
        graph = _call_graph(path.stem, ast.parse(path.read_text()))
        out.extend(_cycles(graph))
    return out


def _unexplained(cycles: set[frozenset[str]], allowed) -> tuple[list, list]:
    """The cycles not allowed, and the allowed cycles that do not exist."""
    return (sorted(map(sorted, cycles - allowed.keys())),
            sorted(map(sorted, allowed.keys() - cycles)))


def _reachable(graph: dict[str, set[str]], start: str) -> set[str]:
    """The functions some call path leads to from start, start included."""
    seen, todo = {start}, [start]
    while todo:
        for callee in graph.get(todo.pop(), ()):
            if callee not in seen:
                seen.add(callee)
                todo.append(callee)
    return seen


# A certificate that G has no cut-free proof of a sequent is checked
# against the checker's list of rule instances, so it is sound only while
# the search enumerates its steps with code of its own.
SEPARATE: list[tuple[tuple[str, ...], tuple[str, ...]]] = [
    (("gcalc._bounded_search", "gcalc._backward_steps"),
     ("gcalc._rule_instances", "gcalc._logical_instances")),
    (("gcalc.verify_g_proof", "gcalc.verify_g_unprovable"), ("gcalc._backward_steps",)),
]


def _crossings(graph: dict[str, set[str]], separate) -> list[tuple[str, str]]:
    """The pairs (caller, callee) of separate that a call path links."""
    return sorted((a, b) for callers, callees in separate for a in callers
                  for b in callees if b in _reachable(graph, a))


def test_the_search_and_the_checkers_keep_their_own_rule_lists():
    graph = _call_graph("gcalc", ast.parse((SRC / "gcalc.py").read_text()))
    assert {f for pair in SEPARATE for side in pair for f in side} <= graph.keys()
    assert _crossings(graph, SEPARATE) == []


def test_the_guard_sees_a_crossing():
    tree = ast.parse("def search():\n    return helper()\n"
                     "def helper():\n    return rules()\n"
                     "def rules():\n    return []\n"
                     "def check():\n    return 0\n")
    assert _crossings(_call_graph("m", tree), [(("m.search", "m.check"), ("m.rules",))]) == [
        ("m.search", "m.rules")]


# Each proof is checked once, where it enters or leaves the CLI (or by the
# caller of the library): a transform assumes its input checks.
CHECK_ONCE = [(("sc.contrapose", "sc.necessitate", "sc.denecessitate", "nd.sc_to_nd",
                "nd.nd_to_sc"), ("sc.verify_sc_proof", "nd.verify_nd"))]


def _package_graph() -> dict[str, set[str]]:
    graph: dict[str, set[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        graph.update(_call_graph(path.stem, ast.parse(path.read_text()), wide=True))
    return graph


def test_the_transforms_do_not_check_their_input():
    graph = _package_graph()
    assert {f for pair in CHECK_ONCE for side in pair for f in side} <= graph.keys()
    assert _crossings(graph, CHECK_ONCE) == []


def test_the_guard_sees_a_crossing_between_modules():
    # a.transform reaches b.check through a callback, an imported module,
    # a method of an object it builds and a name it imports
    a = ("from . import b\nfrom .b import fold\n"
         "def transform(p):\n    return fold(p, step)\n"
         "def step(node):\n    return Builder().build(node)\n"
         "class Builder:\n    def build(self, node):\n        return b.helper(node)\n"
         "def clean(p):\n    return fold(p, len)\n")
    b = ("def fold(p, combine):\n    return combine(p)\n"
         "def helper(node):\n    return check(node)\n"
         "def check(node):\n    return node\n")
    graph = {**_call_graph("a", ast.parse(a), wide=True), **_call_graph("b", ast.parse(b), wide=True)}
    assert _crossings(graph, [(("a.transform", "a.clean"), ("b.check",))]) == [
        ("a.transform", "b.check")]
    # without wide, the callback and the other module are not seen
    narrow = {**_call_graph("a", ast.parse(a)), **_call_graph("b", ast.parse(b))}
    assert _crossings(narrow, [(("a.transform",), ("b.check",))]) == []


def test_no_call_cycles():
    assert _unexplained(set(_package_cycles()), ALLOWED) == ([], [])


def test_the_guard_sees_recursion():
    tree = ast.parse(
        "def f(n):\n    return g(n)\n"
        "def g(n):\n    return f(n - 1) if n else 0\n"
        "def h(n):\n    return h(n - 1)\n"
        "class C:\n"
        "    def a(self):\n        return self.b()\n"
        "    def b(self):\n        def inner():\n            return self.a()\n"
        "        return inner()\n"
        "def k(f):\n    return f(1)\n"
        "def outer():\n    if True:\n        def loop():\n            return loop()\n"
        "    return loop\n")
    assert sorted(map(sorted, _cycles(_call_graph("m", tree)))) == [
        ["m.C.a", "m.C.b", "m.C.b.inner"], ["m.f", "m.g"], ["m.h"], ["m.outer.loop"]]
    assert _unexplained({frozenset({"m.h"})}, {frozenset({"m.f", "m.g"}): "why"}) == (
        [["m.h"]], [["m.f", "m.g"]])


def test_tall_proofs_compare_without_recursion():
    # 1,200 conjuncts make a proof 1,201 nodes high, past the recursion
    # limit: an equal proof read back from JSON, and one whose leaf differs
    from tml.sc import proof_from_json, proof_to_json, prove
    from tml.sequents import parse_sequent
    proof = prove(parse_sequent(" & ".join(["p"] + ["q"] * 1199) + " => p"))
    doc = proof_to_json(proof)
    back = proof_from_json(doc)
    assert back is not proof and back == proof
    leaf = doc
    while leaf["premises"]:
        leaf = leaf["premises"][0]
    leaf["principal"] = ["q"]
    assert proof_from_json(doc) != proof


def test_tall_proofs_hash_without_recursion():
    # the 1,201-high proof hashes, to the hash of its fields; an equal
    # proof read back from JSON to the same value
    from tml.sc import proof_from_json, proof_to_json, prove
    from tml.sequents import parse_sequent
    proof = prove(parse_sequent(" & ".join(["p"] + ["q"] * 1199) + " => p"))
    back = proof_from_json(proof_to_json(proof))
    assert hash(proof) == hash(back)
    assert hash(proof) == hash((proof.rule, proof.sequent, proof.principal, proof.premises))
    assert len({proof, back}) == 1
