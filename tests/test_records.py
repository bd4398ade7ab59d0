"""The package's value classes keep the repr, equality, hashing and
freezing that ``@dataclass`` gave them.  The reprs below were recorded
from the dataclass versions."""

import re

import pytest

from tml import algebra, gcalc, matrix, nd, sc, sequents, signed, syntax, translation
from tml.sequents import parse_sequent
from tml.syntax import Neg, Var

p, q = Var("p"), Var("q")


def _probe_report():
    return gcalc.cut_necessity_probe(p, 2)


def _sf_derivation():
    return signed.SFDerivation("weaken", frozenset({signed.SignedFormula("1", p)}), (
        signed.SFDerivation("axiom", frozenset({signed.SignedFormula("b", q)})),))


# Only sets of at most one element: formulas hash by identity, so the
# order of a larger set's repr changes from run to run.
GOLDEN = [
    (lambda: sc.prove(parse_sequent("p => p")),
     "ScProof(rule=<ScRule.AXIOM: 'axiom'>, sequent=Sequent(left=frozenset({p}), "
     "right=frozenset({p})), principal=(p,), premises=())"),
    (lambda: gcalc.g_search_cutfree(gcalc.GSequent.of([p], p), 4),
     "GProof(rule=<GRule.STRUCT_AX: 'g.struct_ax'>, sequent=GSequent(left=frozenset({p}), "
     "right=p), premises=())"),
    (lambda: nd.sc_to_nd(sc.prove(parse_sequent("p & q => p"))),
     "NDDeduction(rule='and_e1', conclusion=p, premises=(NDDeduction(rule='hyp', "
     "conclusion=p & q, premises=(), marker='u1', discharges=()),), marker=None, "
     "discharges=())"),
    (_sf_derivation,
     "SFDerivation(rule='weaken', signed=frozenset({SignedFormula(sign='1', formula=p)}), "
     "premises=(SFDerivation(rule='axiom', signed=frozenset({SignedFormula(sign='b', "
     "formula=q)}), premises=()),))"),
    (_probe_report,
     "ProbeReport(alpha=p, depth=2, valid=True, g_cutfree_found=False, "
     "sc_cutfree_found=True, vacuous_bound=False, bound_hit=False, exhausted=True, "
     "stats=<tml.gcalc.GSearchStats object at 0x>, certificate=GUnprovable("
     "failed=frozenset({GSequent(left=frozenset(), right=#(p | ~#p))}), "
     "countermodels={GSequent(left=frozenset(), right=bot): {'p': '0'}}))"),
    (lambda: algebra.check_tma_laws(matrix.M4).checks[0],
     "LawCheck(name='or_commutative', holds=True, witness=None)"),
    (lambda: algebra.LawCheck("modal_axiom", False, ("n", "b")),
     "LawCheck(name='modal_axiom', holds=False, witness=('n', 'b'))"),
    (lambda: signed.NSequent.of([p], [], [], [q]),
     "NSequent(components=(frozenset({p}), frozenset(), frozenset(), frozenset({q})))"),
    (lambda: signed.generate_sf_rules(matrix.M4)[2],
     "SignedRule(name='or_0_0', kind='logical', connective='or', arg_signs=('0', '0'), "
     "out_sign='0')"),
    (lambda: translation.m4_spec().templates("0"),
     "ValueTemplates(n_side=(FormulaTemplate(body=p),), d_side=(FormulaTemplate(body=~p),))"),
    (lambda: translation.partitions(signed.NSequent.of([p], [], [], []),
                                    translation.m4_spec())[0],
     "Partition(entries=(('0', p, 'n', 0),))"),
    (lambda: matrix.Operation(1, {("0",): "1"}),
     "Operation(arity=1, table={('0',): '1'})"),
    (lambda: nd.check_nd(nd.hyp(p, "u")),
     "NdResult(ok=True, conclusion=p, open=frozenset({p}), error=None)"),
]


@pytest.mark.parametrize("make, want", GOLDEN)
def test_repr_golden(make, want):
    assert re.sub(r" at 0x[0-9a-f]+", " at 0x", repr(make())) == want


def _gproof():
    return gcalc.GProof(gcalc.GRule.STRUCT_AX, gcalc.GSequent.of([p], p))


def _translated_rule():
    return translation.TranslatedRule("r", (sequents.Sequent.of([p]),),
                                      (sequents.Sequent.of([], [q]),))


_STATS = gcalc.GSearchStats()


# A fresh instance of every value class, built anew on each call, and its
# fields in declaration order.
INSTANCES = [
    (lambda: algebra.LawCheck("x", False, ("n",)), ("name", "holds", "witness")),
    (lambda: algebra.TmaLawReport((algebra.LawCheck("x", True),)), ("checks",)),
    (lambda: gcalc.GSequent.of([p], q), ("left", "right")),
    (_gproof, ("rule", "sequent", "premises")),
    (lambda: gcalc.ProbeReport(p, 2, True, False, True, False, False, True, _STATS, None),
     ("alpha", "depth", "valid", "g_cutfree_found", "sc_cutfree_found",
      "vacuous_bound", "bound_hit", "exhausted", "stats", "certificate")),
    (lambda: matrix.Operation(1, {("0",): "1"}), ("arity", "table")),
    (lambda: matrix.load_matrix(matrix.bundled_m4_path()),
     ("values", "designated", "ops", "order", "connective_order")),
    (lambda: nd.NDDeduction("and_e1", p, (nd.hyp(p, "u"),)),
     ("rule", "conclusion", "premises", "marker", "discharges")),
    (lambda: nd.NdResult(False, p, frozenset(), "bad"), ("ok", "conclusion", "open", "error")),
    (lambda: sc.ScProof(sc.ScRule.AXIOM, sequents.Sequent.of([p], [p]), (p,)),
     ("rule", "sequent", "principal", "premises")),
    (lambda: sequents.Sequent.of([p], [q]), ("left", "right")),
    (lambda: signed.NSequent.of([p], [], [], [q]), ("components",)),
    (lambda: signed.SignedRule("axiom", "axiom"),
     ("name", "kind", "connective", "arg_signs", "out_sign")),
    (_sf_derivation, ("rule", "signed", "premises")),
    (lambda: syntax.FormulaTemplate(Neg(p)), ("body",)),
    (lambda: translation.m4_spec().templates("n"), ("n_side", "d_side")),
    (translation.m4_spec, ("per_value",)),
    (lambda: translation.Partition((("0", p, "n", 0),)), ("entries",)),
    (_translated_rule, ("name", "premises", "conclusions")),
    (lambda: translation.TranslatedCalculus((), (_translated_rule(),)), ("axioms", "rules")),
]


@pytest.mark.parametrize("make, fields", INSTANCES,
                         ids=[type(make()).__name__ for make, _ in INSTANCES])
def test_equality_and_hash_over_the_fields(make, fields):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != tuple(getattr(a, f) for f in fields)
    values = tuple(getattr(a, f) for f in fields)
    try:
        want = hash(values)
    except TypeError:   # a field is a dict or a list: unhashable, as before
        with pytest.raises(TypeError):
            hash(a)
        return
    assert hash(a) == hash(b) == want


@pytest.mark.parametrize("make, fields", INSTANCES,
                         ids=[type(make()).__name__ for make, _ in INSTANCES])
def test_fields_of_frozen_classes_cannot_be_assigned(make, fields):
    obj = make()
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(obj, f, None)
        with pytest.raises(AttributeError):
            delattr(obj, f)


def test_unequal_instances():
    assert sequents.Sequent.of([p], [q]) != sequents.Sequent.of([q], [p])
    assert sc.ScProof(sc.ScRule.AXIOM, sequents.Sequent.of([p], [p]), (p,)) != \
        sc.ScProof(sc.ScRule.AXIOM, sequents.Sequent.of([p], [p]))
    assert _gproof() != gcalc.GProof(gcalc.GRule.MODAL_AX, _gproof().sequent)
    # equal fields, different classes
    assert gcalc.GSequent(frozenset(), p) != sequents.Sequent(frozenset(), p)
