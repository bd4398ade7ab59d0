"""Start-up: ``import tml`` loads no submodule, each command loads only
the modules it uses, and nothing loads ``dataclasses`` (which brings
``inspect`` and ``ast``) or ``pathlib``.  Each case runs in a fresh
interpreter and reads ``sys.modules``; no timing."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# The names ``tml/__init__`` exported when it imported every submodule,
# less ``Algebra``, ``algebra_evaluate`` and ``m4_algebra``: algebras are
# logical matrices, evaluated by ``evaluate``, and M4 is one.
EXPORTED = """
check_tma_laws product_algebra
GProof GRule GSequent check_g_proof cut_necessity_probe g_search_cutfree
LogicalMatrix M4 countermodel degree_consequence evaluate matrix_consequence
satisfies valuations
NDDeduction check_nd disjunction_of nd_to_sc open_assumptions sc_to_nd
ScProof ScRule check_sc_proof contrapose denecessitate falsum_proof is_cut_free
necessitate prove rule_soundness
Sequent parse_sequent render_sequent
NSequent SFDerivation SignedFormula SignedRule check_sf_derivation embed_two_sided
generate_sf_rules nsequent_satisfied sf_prove
And BOT Bot Box Formula FormulaTemplate Neg Or Var closure parse render substitute
ExpressivenessSpec m4_spec partitions two_of_calculus two_of_nsequent
verify_two_equivalence
__version__
""".split()

# The README's commands, with the exit code each gives.
COMMANDS = [
    (["parse", "p | ~#p"], 0),
    (["eval", "--valuation", "p=n", "#p"], 0),
    (["valid", "p | ~#p"], 0),
    (["consequence", "p & q => p", "--relation", "degree"], 0),
    (["countermodel", "", "p | ~p"], 1),
    (["prove", "--calculus", "sc", "=> #(p | ~#p)"], 0),
    (["prove", "--calculus", "g", "--depth", "12", "=> #(p | ~#p)"], 1),
    (["prove", "--calculus", "sf4", "=> p | ~#p"], 0),
    (["prove", "--calculus", "sc", "--format", "json", "p & q => q & p"], 0),
    (["check", "--calculus", "sc", "proof.json"], 0),
    (["translate", "contrapose", "proof.json"], 0),
    (["translate", "sc2nd", "proof.json"], 0),
    (["check", "--calculus", "nd", "ded.json"], 0),
    (["gen-rules", "--stage", "sf"], 0),
    (["gen-rules", "--stage", "two"], 0),
    (["probe-cut", "--alpha", "p", "--depth", "12"], 0),
]

SEMANTIC = {"parse", "eval", "valid", "consequence", "countermodel"}
CALCULI = {"tml.sc", "tml.gcalc", "tml.nd", "tml.signed", "tml.translation", "tml.algebra"}
NEVER = {"dataclasses", "inspect", "pathlib"}

# Prints the modules the code loaded beyond those of interpreter start,
# then the exit code of the command in argv, if one is given.  Run with
# -S, so that no site hook has loaded a module already.
PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
code = None
if len(sys.argv) > 1:
    import tml.cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = tml.cli.run(sys.argv[1:])
else:
    import tml
print(json.dumps([sorted(set(sys.modules) - before), code]))
"""


def _loaded(argv, cwd):
    done = subprocess.run([sys.executable, "-S", "-c", PROBE, *argv], cwd=cwd, check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    modules, code = json.loads(done.stdout)
    return set(modules), code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    from tml import nd, sc
    from tml.proofs import dumps
    from tml.sequents import parse_sequent
    work = tmp_path_factory.mktemp("readme")
    proof = sc.prove(parse_sequent("p & q => q & p"))
    (work / "proof.json").write_text(dumps(proof) + "\n")
    (work / "ded.json").write_text(dumps(nd.sc_to_nd(proof)) + "\n")
    return work


@pytest.mark.parametrize("argv, want", COMMANDS, ids=[" ".join(a) for a, _ in COMMANDS])
def test_command_loads_only_what_it_uses(argv, want, workdir):
    modules, code = _loaded(argv, workdir)
    assert code == want
    assert not modules & NEVER
    if argv[0] in SEMANTIC:
        assert not modules & CALCULI


def test_bare_import_loads_no_submodule(tmp_path):
    modules, _ = _loaded([], tmp_path)
    assert "tml" in modules
    assert not {m for m in modules if m.startswith("tml.")}
    assert not modules & NEVER


def test_every_exported_name_resolves():
    import tml
    listed = dir(tml)
    for name in EXPORTED:
        assert name in listed, name
        assert getattr(tml, name) is not None, name
    assert tml.prove is sys.modules["tml.sc"].prove
    assert tml.sc is sys.modules["tml.sc"]
    with pytest.raises(AttributeError):
        tml.no_such_name
    namespace: dict = {}
    exec("from tml import *", namespace)
    assert set(EXPORTED) - {"__version__"} <= set(namespace)


def test_no_module_imports_dataclasses():
    for path in sorted((SRC / "tml").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in names, f"{path.name}:{node.lineno}"


_KERNELS = ("Planes", "DunnPlanes")


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _plane_format_breaches(tree):
    """The lines of a module outside ``tml.matrix`` that import a private
    name of it other than ``_CONNECTIVE``, build a kernel other than
    through ``value_planes``, call ``tables()``, the index tables a
    kernel reads, or subscript a kernel: ``planes``, or a name or
    attribute assigned a value that calls ``value_planes``."""
    kernels = {"planes"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            pairs = [(t, node.value) for t in node.targets]
            while pairs:
                target, value = pairs.pop()
                if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                    pairs += zip(target.elts, value.elts)
                elif any(isinstance(n, ast.Call) and _name(n.func) == "value_planes"
                         for n in ast.walk(value)):
                    kernels.add(_name(target))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("matrix", "tml.matrix"):
            private = {alias.name for alias in node.names if alias.name.startswith("_")}
            if not private <= {"_CONNECTIVE"}:
                yield node.lineno
        elif isinstance(node, ast.Call) and _name(node.func) in (*_KERNELS, "tables"):
            yield node.lineno
        elif isinstance(node, ast.Subscript) and _name(node.value) in kernels:
            yield node.lineno


def test_only_matrix_knows_the_plane_format():
    # the value-plane kernels live in tml.matrix: their helpers stay
    # private to the module and only the connective names are shared;
    # other modules get a kernel from value_planes, the one place that
    # picks a format, and ask it queries, never reading its planes or the
    # index tables they are built with
    for path in sorted((SRC / "tml").glob("*.py")):
        if path.name != "matrix.py":
            tree = ast.parse(path.read_text(), str(path))
            assert list(_plane_format_breaches(tree)) == [], path.name


def test_the_plane_format_guard_sees_each_breach():
    tree = ast.parse("from .matrix import _apply2\n"
                     "one_hot = Planes(names, m)\n"
                     "p, one = value_planes(names, m), 3\n"
                     "lhs = p[f][i]\n"
                     "rhs = planes[f]\n"
                     "fine = {}[f]\n"
                     "tables = m.tables()\n")
    assert sorted(_plane_format_breaches(tree)) == [1, 2, 4, 5, 7]
