import pytest

from tml.syntax import And, Box, Neg, Or, Var


def formula_pool(max_connectives, var_names=("p", "q")):
    """All formulas over the given variables, grouped by connective count."""
    by = {0: [Var(v) for v in var_names]}
    for c in range(1, max_connectives + 1):
        fs = []
        for f in by[c - 1]:
            fs.append(Neg(f))
            fs.append(Box(f))
        for i in range(c):
            for a in by[i]:
                for b in by[c - 1 - i]:
                    fs.append(And(a, b))
                    fs.append(Or(a, b))
        by[c] = fs
    return by


@pytest.fixture(scope="session")
def pool_by_count():
    return formula_pool(4)


@pytest.fixture(scope="session")
def small_pool(pool_by_count):
    """All 134 formulas over {p, q} with at most two connectives."""
    return [f for c in range(3) for f in pool_by_count[c]]


def checked_nd_to_sc(d):
    """``nd_to_sc(d)``, checked: it passes the checker with cut allowed,
    proves exactly the deduction's open assumptions => its conclusion,
    and no cut has an axiom for a premise (weakenings skipped).  Returns
    the proof with its node and cut counts."""
    from tml.nd import nd_to_sc, verify_nd
    from tml.proofs import walk
    from tml.sc import ScRule, verify_sc_proof
    from tml.sequents import Sequent

    back = nd_to_sc(d)
    verify_sc_proof(back, allow_cut=True)
    assert back.sequent == Sequent(verify_nd(d), frozenset({d.conclusion}))
    nodes = cuts = 0
    for node, _, entering in walk(back):
        nodes += entering
        if entering and node.rule is ScRule.CUT:
            cuts += 1
            for q in node.premises:
                while q.rule in (ScRule.WEAK_L, ScRule.WEAK_R):
                    q = q.premises[0]
                assert q.rule is not ScRule.AXIOM, node.sequent
    return back, nodes, cuts
