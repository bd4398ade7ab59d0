"""The proof transformations on a fixed seeded corpus, and on proofs far
taller or wider than the interpreter's recursion limit."""

import hashlib
import json
import random

import pytest
from conftest import checked_nd_to_sc

from tml import sc
from tml.nd import (NDDeduction, hyp, nd_to_json, nd_to_sc, render_nd, sc_to_nd,
                    verify_nd)
from tml.proofs import dumps, walk
from tml.sc import (ScRule, contrapose, necessitate, proof_to_json, prove, render_proof,
                    verify_sc_proof)
from tml.sequents import Sequent
from tml.syntax import And, Box, Neg, Or, Var


def _corpus(pool_by_count):
    """Proofs by ``sc.prove`` of seeded sequents over formulas with at most
    three connectives, and every fourth of them weakened by one formula
    on each side, so that the transforms meet weak_l and weak_r."""
    pool = [f for c in range(4) for f in pool_by_count[c]]
    rng = random.Random(11)
    proofs: list = []
    while len(proofs) < 160:
        seq = Sequent.of(rng.sample(pool, rng.randrange(0, 3)),
                         rng.sample(pool, rng.randrange(1, 3)))
        pr = prove(seq)
        if pr is not None:
            proofs.append(pr)
    weakened = [sc.weaken(pr, pr.sequent.left | {rng.choice(pool)},
                          pr.sequent.right | {rng.choice(pool)})
                for pr in proofs[::4]]
    return proofs, weakened


def _theorems(pool_by_count):
    """Proofs of => psi for the necessitation corpus: random sampling
    draws almost no theorems, so they are built on purpose."""
    pool = [f for c in range(3) for f in pool_by_count[c]]
    rng = random.Random(12)
    out = []
    for f in rng.sample(pool, 40):
        for psi in (Or(f, Neg(Box(f))), Box(Or(f, Neg(Box(f))))):
            out.append(prove(Sequent.of([], [psi])))
    return out


def _digest(items, to_json, render) -> str:
    h = hashlib.sha256()
    for x in items:
        h.update(json.dumps(to_json(x), indent=2).encode() + b"\n")
        h.update(render(x).encode() + b"\n")
    return h.hexdigest()


# sha256 over the JSON (indented, key order included) and the text of the
# transformed proofs of the corpora above.
CONTRAPOSE_FINGERPRINT = "f8d510c42da1087eb3e1f204978bfb6afdac38f9a4ad60f30293987a2a419d5e"
NECESSITATE_FINGERPRINT = "92ee0f849bf06ab0e623827e6a482d42272265f45ff038a38e6879b5924b7a5c"
ND_ROUND_TRIP_FINGERPRINT = "2a06b335355ef496e5ec5203c1aa09c6599c45b5dcad8d2b2a4613d9f0cf1ce1"
SC_TO_ND_WEAKENED_FINGERPRINT = "c708d72d452fe02d82a5f49f9b2c065c23a561b079b856f3d950e308f7bd385d"


# the sequent rules whose deductions use ~|I, ~#E or ~#I
_ND_RARE = {ScRule.NEG_OR_R, ScRule.NEG_BOX_L, ScRule.NEG_BOX_R2}


@pytest.fixture(scope="module")
def corpus(pool_by_count):
    proofs, weakened = _corpus(pool_by_count)
    return proofs + weakened


@pytest.fixture(scope="module")
def contraposed(corpus):
    return [contrapose(p) for p in corpus]


@pytest.fixture(scope="module")
def necessitated(pool_by_count):
    return [necessitate(p) for p in _theorems(pool_by_count)]


def test_contrapose_fingerprint(contraposed):
    got = _digest(contraposed, proof_to_json, render_proof)
    assert got == CONTRAPOSE_FINGERPRINT, got


def test_necessitate_fingerprint(necessitated):
    got = _digest(necessitated, proof_to_json, render_proof)
    assert got == NECESSITATE_FINGERPRINT, got


def test_no_weakening_over_an_axiom(corpus, contraposed, necessitated):
    # the axiom absorbs weakening, so the transforms build the axiom of
    # the wider sequent instead; node totals were 5,681, 3,110 and 7,029
    # when every context formula got a weakening
    round_trips = [nd_to_sc(sc_to_nd(p)) for p in corpus]
    for results, bound in [(contraposed, 3_400), (necessitated, 2_300), (round_trips, 5_600)]:
        nodes = 0
        for node, _, entering in (event for r in results for event in walk(r)):
            nodes += entering
            if entering and node.rule in (ScRule.WEAK_L, ScRule.WEAK_R):
                assert node.premises[0].rule is not ScRule.AXIOM, node.sequent
        assert nodes <= bound, (nodes, bound)


def test_nd_round_trip_fingerprint(corpus):
    # every fourth proof, and the six smallest that use a rule the
    # reverse translation meets only through them; indented JSON of the
    # whole corpus would take seconds
    rare = sorted((p for p in corpus
                   if {n.rule for n, _, _ in walk(p)} & _ND_RARE), key=sc.proof_size)
    chosen = corpus[::4] + rare[:6]
    got = _digest([nd_to_sc(sc_to_nd(p)) for p in chosen], proof_to_json, render_proof)
    assert got == ND_ROUND_TRIP_FINGERPRINT, got


def test_dumps_is_indented_json_dumps(corpus):
    # deductions and their round trips, from every fourth proof above
    for p in corpus[::4]:
        d = sc_to_nd(p)
        assert dumps(d) == json.dumps(nd_to_json(d), indent=2)
        r = nd_to_sc(d)
        assert dumps(r) == json.dumps(proof_to_json(r), indent=2)


def test_nd_round_trip_cuts_only_where_needed(corpus):
    # 1,895 proof nodes become 3,437 deduction nodes, and 5,402 nodes
    # and 409 cuts in the round trip; 7,029 nodes when every context
    # formula got a weakening, 22,902, 43,512 and 1,321 when every rule
    # also re-folded the right side's disjunction, and 92,464 nodes and
    # 14,989 cuts when every deduction step was also a cut
    proof_nodes = deduction_nodes = nodes = cuts = 0
    for p in corpus:
        d = sc_to_nd(p)
        proof_nodes += sc.proof_size(p)
        deduction_nodes += sum(entering for _, _, entering in walk(d))
        _, n, c = checked_nd_to_sc(d)
        nodes += n
        cuts += c
    assert deduction_nodes <= 3 * proof_nodes, (deduction_nodes, proof_nodes)
    assert nodes <= 5_600 and cuts <= 600, (nodes, cuts)


def test_sc_to_nd_weakened_fingerprint(pool_by_count):
    _, weakened = _corpus(pool_by_count)
    got = _digest([sc_to_nd(p) for p in weakened], nd_to_json, render_nd)
    assert got == SC_TO_ND_WEAKENED_FINGERPRINT, got


# ---------------------------------------------------------------------------
# Proofs past the recursion limit: every result goes to its checker.

def _height(root) -> int:
    return max(len(path) for _, path, _ in walk(root)) + 1


@pytest.fixture(scope="module")
def chain_proof():
    """The proof sc.prove finds for p & q & ... & q => p, 1201 nodes high."""
    p, q = Var("p"), Var("q")
    conj = p
    for _ in range(1200):
        conj = And(conj, q)
    proof = prove(Sequent.of([conj], [p]))
    assert _height(proof) == 1201
    return proof


def test_contrapose_of_a_tall_proof(chain_proof):
    result = contrapose(chain_proof)
    verify_sc_proof(result, allow_cut=True)
    assert result.sequent == Sequent(frozenset({Neg(Var("p"))}),
                                     frozenset(Neg(f) for f in chain_proof.sequent.left))


def test_sc_to_nd_of_a_tall_proof(chain_proof):
    d = sc_to_nd(chain_proof)
    assert d.conclusion is Var("p")
    assert verify_nd(d) <= chain_proof.sequent.left


def test_sc_to_nd_of_a_tall_right_side():
    """p => ~~(~~(...p)) with 1500 ~~: a chain of 1500 handlers, each
    applying ~~I and then the handler of the formula it came from."""
    p = Var("p")
    f = p
    for _ in range(1500):
        f = Neg(Neg(f))
    d = sc_to_nd(prove(Sequent.of([p], [f])))
    assert d.conclusion is f and verify_nd(d) == {p}
    checked_nd_to_sc(d)


def test_sc_to_nd_of_nested_conjunctions():
    """p => p & (p & (... & p)) with 100 conjuncts: each &R splits one
    disjunction of the target and the conjunct, so the deduction grows
    with the proof, not with its square."""
    p = Var("p")
    f = p
    for _ in range(99):
        f = And(p, f)
    proof = prove(Sequent.of([p], [f]))
    d = sc_to_nd(proof)
    assert d.conclusion is f and verify_nd(d) == {p}
    assert sum(entering for _, _, entering in walk(d)) <= 6 * sc.proof_size(proof)
    checked_nd_to_sc(d)


def test_sc_to_nd_of_a_wide_sequent():
    z = Var("z")
    xs = [Var(f"x{i}") for i in range(1200)]
    proof = prove(Sequent.of([z], xs + [z]))
    d = sc_to_nd(proof)
    assert verify_nd(d) == {z}
    assert _height(d) > 1000


def test_nd_to_sc_of_a_tall_deduction():
    """and_i then and_e1, 1500 times over: a deduction of p from p and q
    3001 nodes high."""
    p, q = Var("p"), Var("q")
    d = hyp(p, "u")
    for _ in range(1500):
        d = NDDeduction("and_e1", p, (NDDeduction("and_i", And(p, q), (d, hyp(q, "v"))),))
    assert _height(d) == 3001
    proof = nd_to_sc(d)
    verify_sc_proof(proof, allow_cut=True)
    assert proof.sequent == Sequent.of([p, q], [p])
