"""Acceptance suite.

Every test prints one PASS/FAIL line (visible with pytest -s); the
assertions enforce the stated tolerances, which are all exact (zero
disagreements) on finite corpora.

The shared corpus:
  A. all single-formula sequents f => g over the full pool of formulas
     with at most 2 connectives over {p, q}    (134^2 = 17,956)
  B. => f and f => for ALL formulas with at most 4 connectives (44,524)
  C. all sequents with sides of size <= 2 over the 1-connective pool
     (106^2 = 11,236)
  D. 1,000 seeded random sequents with formulas of <= 7 connectives and
     sides of size <= 2.
Exhausting sides of size <= 2 over the full 4-connective pool (the
criterion's literal reading) is ~1e17 sequents; the slices above are the
largest exhaustive families that fit the stated time targets.
"""

import hashlib
import itertools
import json
import random
import time

import pytest

from tml.algebra import check_tma_laws, product_algebra
from tml.gcalc import cut_necessity_probe
from tml.matrix import (M4, bundled_m4_path, degree_consequence, evaluate, load_matrix,
                        matrix_consequence)
from tml.nd import check_nd, disjunction_of, nd_to_sc, sc_to_nd
from tml.proofs import CheckError, dumps, walk
from tml.sc import (ScProof, ScRule, check_sc_proof, contrapose, denecessitate,
                    is_cut_free, necessitate, proof_to_json, prove, render_proof,
                    verify_sc_proof)
from tml.sequents import Sequent, parse_sequent, render_sequent
from tml.signed import NSequent, generate_sf_rules
from tml.syntax import And, Box, Neg, Or, Var, variables
from tml.translation import m4_spec, two_of_nsequent, verify_two_equivalence


def report(num, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared corpus


def _random_formula(rng, budget, vars=("p", "q")):
    if budget <= 0:
        return Var(rng.choice(vars))
    k = rng.randrange(6)
    if k == 0:
        return Var(rng.choice(vars))
    if k == 1:
        return Neg(_random_formula(rng, budget - 1, vars))
    if k == 2:
        return Box(_random_formula(rng, budget - 1, vars))
    split = rng.randrange(budget)
    left = _random_formula(rng, split, vars)
    right = _random_formula(rng, budget - 1 - split, vars)
    return And(left, right) if k in (3, 4) else Or(left, right)


@pytest.fixture(scope="session")
def corpus(pool_by_count):
    tiny = [f for c in range(2) for f in pool_by_count[c]]      # <=1 connective
    small = [f for c in range(3) for f in pool_by_count[c]]     # <=2 connectives
    full = [f for c in range(5) for f in pool_by_count[c]]      # <=4 connectives

    sequents = []
    for a in small:
        for b in small:
            sequents.append(Sequent.of([a], [b]))
    for f in full:
        sequents.append(Sequent.of([], [f]))
        sequents.append(Sequent.of([f], []))
    sides = [frozenset()]
    sides += [frozenset([f]) for f in tiny]
    sides += [frozenset(c) for c in itertools.combinations(tiny, 2)]
    for left in sides:
        for right in sides:
            sequents.append(Sequent(left, right))

    rng = random.Random(20260809)
    random_part = []
    for _ in range(1000):
        left = [_random_formula(rng, rng.randrange(8)) for _ in range(rng.randrange(3))]
        right = [_random_formula(rng, rng.randrange(8)) for _ in range(rng.randrange(3))]
        random_part.append(Sequent.of(left, right))

    t0 = time.time()
    disagreements = []
    not_cut_free = []
    provable = []
    for seq in sequents:
        proof = prove(seq)
        if (proof is not None) != matrix_consequence(seq.left, seq.right):
            disagreements.append(seq)
        if proof is not None:
            if not is_cut_free(proof):
                not_cut_free.append(seq)
            provable.append((seq, proof))
    exhaustive_time = time.time() - t0

    t0 = time.time()
    for seq in random_part:
        proof = prove(seq)
        if (proof is not None) != matrix_consequence(seq.left, seq.right):
            disagreements.append(seq)
        if proof is not None:
            if not is_cut_free(proof):
                not_cut_free.append(seq)
            provable.append((seq, proof))
    random_time = time.time() - t0

    theorems = [(next(iter(seq.right)), proof) for seq, proof in provable
                if not seq.left and len(seq.right) == 1]
    return {
        "tiny": tiny, "small": small, "full": full,
        "n_exhaustive": len(sequents), "n_random": len(random_part),
        "disagreements": disagreements, "not_cut_free": not_cut_free,
        "provable": provable, "theorems": theorems,
        "exhaustive_time": exhaustive_time, "random_time": random_time,
    }


# ---------------------------------------------------------------------------


def test_criterion_01_truth_table_fidelity():
    t0 = time.time()
    neg = {("0",): "1", ("n",): "n", ("b",): "b", ("1",): "0"}
    box = {("0",): "0", ("n",): "0", ("b",): "0", ("1",): "1"}
    sup = {("0", "0"): "0", ("0", "n"): "n", ("0", "b"): "b", ("0", "1"): "1",
           ("n", "0"): "n", ("n", "n"): "n", ("n", "b"): "1", ("n", "1"): "1",
           ("b", "0"): "b", ("b", "n"): "1", ("b", "b"): "b", ("b", "1"): "1",
           ("1", "0"): "1", ("1", "n"): "1", ("1", "b"): "1", ("1", "1"): "1"}
    inf = {("0", "0"): "0", ("0", "n"): "0", ("0", "b"): "0", ("0", "1"): "0",
           ("n", "0"): "0", ("n", "n"): "n", ("n", "b"): "0", ("n", "1"): "n",
           ("b", "0"): "0", ("b", "n"): "0", ("b", "b"): "b", ("b", "1"): "b",
           ("1", "0"): "0", ("1", "n"): "n", ("1", "b"): "b", ("1", "1"): "1"}
    ok = (dict(M4.ops["neg"].table) == neg
          and dict(M4.ops["box"].table) == box
          and dict(M4.ops["or"].table) == sup
          and dict(M4.ops["and"].table) == inf
          and M4.ops["bot"].table[()] == "0"
          and load_matrix(bundled_m4_path()) == M4)
    elapsed = time.time() - t0
    report(1, ok and elapsed < 1.0,
           f"tables bit-exact (4+4+16+16 entries, bundled file identical) in {elapsed*1000:.2f} ms")


def test_criterion_02_algebra_laws():
    t0 = time.time()
    r1 = check_tma_laws(M4)
    r2 = check_tma_laws(product_algebra(M4, M4))
    elapsed = time.time() - t0
    ok = r1.all_pass and r2.all_pass and elapsed < 1.0
    report(2, ok, f"{len(r1.checks)} laws pass on the 4-element algebra and its square "
                  f"in {elapsed:.2f} s")


def test_criterion_03_forty_rules():
    t0 = time.time()
    logical = [r for r in generate_sf_rules(M4) if r.kind == "logical"]
    elapsed = time.time() - t0
    report(3, len(logical) == 40 and elapsed < 0.1,
           f"exactly {len(logical)} logical rules generated in {elapsed*1000:.2f} ms")


def test_criterion_04_two_fidelity():
    t0 = time.time()
    spec = m4_spec()
    x = Var("x")
    singles = {
        0: {"x =>", "=> ~x"},
        1: {"x =>", "~x =>"},
        2: {"=> x", "=> ~x"},
        3: {"~x =>", "=> x"},
    }
    ok = True
    for idx, expected in singles.items():
        comps = [[], [], [], []]
        comps[idx] = [x]
        got = {render_sequent(s) for s in two_of_nsequent(NSequent.of(*comps), spec)}
        ok = ok and got == expected
    twos = two_of_nsequent(NSequent.of([x], [x], [x], [x]), spec)
    listed = {"x, ~x => x", "x, ~x => ~x", "x => x, ~x",
              "x, ~x => x, ~x", "~x => x, ~x"}
    bare_axiom_instances = {"x => x", "~x => ~x"}
    rendered = {render_sequent(s) for s in twos}
    # the raw translation also yields the two bare instances of the
    # structural axiom, which the compact listing leaves implicit
    ok = ok and rendered == listed | bare_axiom_instances
    ok = ok and all(s.left & s.right for s in twos)  # weakening-derivable
    elapsed = time.time() - t0
    report(4, ok and elapsed < 1.0,
           f"4 singleton translations exact; axiom collapses to the 5 listed "
           f"sequents (+2 bare axiom instances), all weakening-derivable; {elapsed:.2f} s")


def test_criterion_05_two_semantic_equivalence(pool_by_count):
    t0 = time.time()
    spec = m4_spec()
    small = [f for c in range(3) for f in pool_by_count[c]]
    rng = random.Random(55)
    failures = 0
    for _ in range(200):
        comps = [rng.sample(small, rng.randrange(0, 3)) for _ in range(4)]
        if not verify_two_equivalence(NSequent.of(*comps), spec):
            failures += 1
    elapsed = time.time() - t0
    report(5, failures == 0 and elapsed < 5.0,
           f"200 random 4-sequents fully equivalent to their translations "
           f"in {elapsed:.2f} s")


def test_criterion_06_prover_oracle_equivalence(corpus):
    ok = (not corpus["disagreements"]
          and corpus["exhaustive_time"] < 60.0 and corpus["random_time"] < 120.0)
    report(6, ok,
           f"{corpus['n_exhaustive']} exhaustive-slice sequents in "
           f"{corpus['exhaustive_time']:.1f} s and {corpus['n_random']} random "
           f"(<=7-connective) sequents in {corpus['random_time']:.1f} s; "
           f"{len(corpus['disagreements'])} prover/oracle disagreements; "
           f"{len(corpus['provable'])} provable")


def test_criterion_07_cut_freeness(corpus):
    report(7, not corpus["not_cut_free"],
           f"all {len(corpus['provable'])} emitted proofs are cut-free "
           f"({len(corpus['not_cut_free'])} violations)")


# sha256 over the JSON of every proof the prover emits on the corpus, in
# corpus order.  Recorded from the backtracking prover that preceded the
# backtrack-free one: the two must find the same proof of every sequent.
SC_CORPUS_FINGERPRINT = "b4d3a3320c46786333306c1fd349f2c5c832a153dacc706ff2dcf8e9f7b957e6"
# The same proofs as `tml prove` prints them: the JSON with its key
# order (no sort_keys) and the text rendering.
SC_CORPUS_JSON_FINGERPRINT = "d5f3aae834202f45a87153acd228343243645e91b419f700ccb6dbdfb9ef44c6"
SC_CORPUS_TEXT_FINGERPRINT = "c27ac10b5bb57bb6d00de0e40334248ca3db1bac798e00e72a01d2971c2909b5"


def test_sc_proof_fingerprint(corpus):
    h = hashlib.sha256()
    as_json = hashlib.sha256()
    as_text = hashlib.sha256()
    for _, proof in corpus["provable"]:
        doc = proof_to_json(proof)
        h.update(json.dumps(doc, sort_keys=True).encode())
        h.update(b"\n")
        as_json.update(json.dumps(doc, indent=2).encode() + b"\n")
        as_text.update(render_proof(proof).encode() + b"\n")
    assert h.hexdigest() == SC_CORPUS_FINGERPRINT, h.hexdigest()
    assert as_json.hexdigest() == SC_CORPUS_JSON_FINGERPRINT, as_json.hexdigest()
    assert as_text.hexdigest() == SC_CORPUS_TEXT_FINGERPRINT, as_text.hexdigest()


# sha256 over the checker's verdict and message, cut allowed, on each
# distinct node of the proofs above under every other rule; the node's
# premises keep their checked subtrees, so only the node can fail.
SC_RELABELLED_DIGEST = "c33607e380b4751231fca2539205bb42e8fb710dc5a967c5ac7385bdd6b25617"


def test_sc_relabelled_nodes(corpus):
    h = hashlib.sha256()
    seen = set()
    relabelled = accepted = 0
    for _, proof in corpus["provable"]:
        for node, _, entering in walk(proof):
            if not entering:
                continue
            key = (node.rule, node.sequent, node.principal,
                   tuple(q.sequent for q in node.premises))
            if key in seen:
                continue
            seen.add(key)
            for rule in ScRule:
                if rule is node.rule:
                    continue
                try:
                    verify_sc_proof(ScProof(rule, node.sequent, node.principal,
                                            node.premises), allow_cut=True)
                    verdict = "ok"
                    accepted += 1
                except CheckError as e:
                    verdict = str(e)
                relabelled += 1
                h.update(verdict.encode() + b"\n")
    assert (relabelled, accepted) == (954294, 0)
    assert h.hexdigest() == SC_RELABELLED_DIGEST, h.hexdigest()


def test_dumps_is_indented_json_dumps(corpus):
    for _, proof in corpus["provable"]:
        assert dumps(proof) == json.dumps(proof_to_json(proof), indent=2)


def test_criterion_08_golden_derivations():
    t0 = time.time()

    def rule_tree(proof):
        return (proof.rule.value, tuple(rule_tree(s) for s in proof.premises))

    p1 = prove(parse_sequent("=> p | ~#p"))
    p2 = prove(parse_sequent("=> #(p | ~#p)"))
    golden1 = ("or_r", (("neg_box_r1", (("axiom", ()),)),))
    golden2 = ("box_r",
               (("or_r", (("neg_box_r1", (("axiom", ()),)),)),
                ("neg_or_l", (("neg_neg_l", (("box_l2", (("axiom", ()),)),)),))))
    elapsed = time.time() - t0
    ok = rule_tree(p1) == golden1 and rule_tree(p2) == golden2 and elapsed < 1.0
    report(8, ok, f"both displayed derivations reproduced rule-for-rule in {elapsed*1000:.1f} ms")


def test_criterion_09_cut_necessity_probe():
    t0 = time.time()
    rep = cut_necessity_probe(Var("p"), 12)
    elapsed = time.time() - t0
    ok = (rep.valid and not rep.g_cutfree_found and rep.sc_cutfree_found
          and elapsed < 30.0)
    report(9, ok,
           f"=> #(p | ~#p) valid and cut-free provable two-sided, no cut-free "
           f"G proof within height 12, in {elapsed:.2f} s; search space "
           f"{'exhausted below the bound' if rep.exhausted else 'cut off by the bound'}"
           f" (one instance, not a proof of the metatheorem)")


def test_criterion_10_contraposition(corpus):
    t0 = time.time()
    failures = 0
    for seq, proof in corpus["provable"]:
        want = Sequent.of([Neg(f) for f in seq.right], [Neg(f) for f in seq.left])
        cp = contrapose(proof)
        if cp.sequent != want or not check_sc_proof(cp, allow_cut=True):
            failures += 1
            continue
        rederived = prove(want)
        if rederived is None or not is_cut_free(rederived):
            failures += 1
    elapsed = time.time() - t0
    report(10, failures == 0,
           f"contraposition checks and re-derives cut-free on all "
           f"{len(corpus['provable'])} provable sequents ({failures} failures) "
           f"in {elapsed:.1f} s")


def test_criterion_11_necessitation(corpus):
    t0 = time.time()
    failures = 0
    for psi, proof in corpus["theorems"]:
        boxed = necessitate(proof)
        if boxed.sequent != Sequent.of([], [Box(psi)]):
            failures += 1
            continue
        if not check_sc_proof(boxed, allow_cut=True):
            failures += 1
            continue
        if denecessitate(boxed) is not proof:
            failures += 1
    # converse direction: boxed theorems unbox
    convs = 0
    for psi, _ in corpus["theorems"]:
        pr = prove(Sequent.of([], [Box(psi)]))
        if pr is None or prove(Sequent.of([], [psi])) is None:
            failures += 1
        else:
            back = denecessitate(pr)
            convs += 1
            if back.sequent != Sequent.of([], [psi]) or not check_sc_proof(back):
                failures += 1
    elapsed = time.time() - t0
    report(11, failures == 0,
           f"necessitation round-trips on {len(corpus['theorems'])} theorems, "
           f"converse unboxing on {convs} boxed theorems ({failures} failures) "
           f"in {elapsed:.1f} s")


def test_criterion_12_consequence_equivalence(corpus, pool_by_count):
    t0 = time.time()
    tiny = corpus["tiny"]
    small = corpus["small"]
    gammas = [[]]
    gammas += [[f] for f in tiny]
    gammas += [list(c) for c in itertools.combinations(tiny, 2)]
    disagreements = 0
    checked = 0
    for g in gammas:
        for phi in small:
            checked += 1
            if degree_consequence(g, phi) != matrix_consequence(g, [phi]):
                disagreements += 1
    rng = random.Random(77)
    full = corpus["full"]
    for _ in range(500):
        g = rng.sample(full, rng.randrange(0, 3))
        phi = rng.choice(full)
        checked += 1
        if degree_consequence(g, phi) != matrix_consequence(g, [phi]):
            disagreements += 1
    elapsed = time.time() - t0
    report(12, disagreements == 0,
           f"degree and matrix consequence agree on {checked} premise/conclusion "
           f"pairs ({disagreements} disagreements) in {elapsed:.1f} s")


def test_criterion_13_nd_round_trip(corpus):
    t0 = time.time()
    rng = random.Random(13)
    chosen = rng.sample(corpus["provable"], 300)
    failures = 0
    for seq, proof in chosen:
        try:
            ded = sc_to_nd(proof)
            res = check_nd(ded)
            if not res.ok or res.conclusion is not disjunction_of(seq.right) \
                    or not res.open <= seq.left:
                failures += 1
                continue
            back = nd_to_sc(ded)
            if not check_sc_proof(back, allow_cut=True):
                failures += 1
                continue
            if not (back.sequent.left <= seq.left
                    and back.sequent.right == {res.conclusion}):
                failures += 1
                continue
            # the reverse sequent must be oracle-equivalent to the original
            if not matrix_consequence(back.sequent.left, back.sequent.right):
                failures += 1
                continue
            if prove(seq) is None:
                failures += 1
        except Exception:
            failures += 1
    elapsed = time.time() - t0
    report(13, failures == 0 and elapsed < 120.0,
           f"300 sequent->deduction->sequent round trips ({failures} failures) "
           f"in {elapsed:.1f} s")


def test_criterion_14_variety_soundness(corpus):
    t0 = time.time()
    base = M4
    square = product_algebra(base, base)
    failures = 0

    def holds(m, assign, seq):
        lo = m.ops["neg"](m.ops["bot"]())   # the top, ~bot
        for f in seq.left:
            lo = m.ops["and"](lo, evaluate(f, assign, m))
        hi = m.ops["bot"]()
        for f in seq.right:
            hi = m.ops["or"](hi, evaluate(f, assign, m))
        return m.leq(lo, hi)

    def vars_of(seq):
        out = set()
        for f in seq.left | seq.right:
            out |= variables(f)
        return sorted(out)

    for seq, _ in corpus["provable"]:
        names = vars_of(seq)
        for combo in itertools.product(base.values, repeat=len(names)):
            if not holds(base, dict(zip(names, combo)), seq):
                failures += 1
                break
    rng = random.Random(14)
    sampled = 0
    while sampled < 500:
        seq, _ = rng.choice(corpus["provable"])
        names = vars_of(seq)
        assign = {n: rng.choice(square.values) for n in names}
        sampled += 1
        if not holds(square, assign, seq):
            failures += 1
    # additionally: exhaustive product check on a deterministic slice
    for seq, _ in rng.sample(corpus["provable"], 1000):
        names = vars_of(seq)
        if len(names) > 2:
            continue
        for combo in itertools.product(square.values, repeat=len(names)):
            if not holds(square, dict(zip(names, combo)), seq):
                failures += 1
                break
    elapsed = time.time() - t0
    report(14, failures == 0,
           f"lattice inequality holds for all {len(corpus['provable'])} proved "
           f"sequents over the 4-element algebra, under 500 sampled product "
           f"homomorphisms, and exhaustively over the square on a 1000-sequent "
           f"slice ({failures} failures) in {elapsed:.1f} s")
