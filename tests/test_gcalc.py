import hashlib
import itertools
import json
import random

import pytest

from tml.gcalc import (GCheckError, GProof, GRule, GSearchStats, GSequent,
                       GUnprovable, _backward_steps, _rule_instances,
                       _search_certified, check_g_proof, cut_necessity_probe,
                       g_proof_from_json, g_proof_to_json, g_search_cutfree,
                       render_g_proof, verify_g_proof, verify_g_unprovable)
from tml.matrix import matrix_consequence
from tml.proofs import dumps, walk
from tml.syntax import And, BOT, Box, Neg, Var, parse, subformulas

p, q = Var("p"), Var("q")


class TestChecker:
    def test_modal_axiom_leaf(self):
        node = GProof(GRule.MODAL_AX, GSequent.of([], parse("p | ~#p")))
        assert check_g_proof(node)

    def test_modal_axiom_shape_mismatch(self):
        node = GProof(GRule.MODAL_AX, GSequent.of([], parse("p | ~#q")))
        assert not check_g_proof(node)

    def test_box_r(self):
        prem = GProof(GRule.STRUCT_AX,
                      GSequent.of([parse("p & ~p")], parse("p & ~p")))
        # premise context must match; use an exact instance
        node = GProof(GRule.BOX_R,
                      GSequent.of([parse("p & ~p")], parse("p & ~#p")),
                      (prem,))
        assert check_g_proof(node)

    def test_neg_rule_rejects_context(self):
        prem = GProof(GRule.STRUCT_AX, GSequent.of([p], p))
        node = GProof(GRule.NEG, GSequent.of([Neg(p), q], Neg(p)), (prem,))
        assert not check_g_proof(node)

    def test_neg_rule_accepts_bare_instance(self):
        prem = GProof(GRule.STRUCT_AX, GSequent.of([p], p))
        node = GProof(GRule.NEG, GSequent.of([Neg(p)], Neg(p)), (prem,))
        assert check_g_proof(node)

    def test_box_l(self):
        prem = GProof(GRule.WEAK, GSequent.of([p, Neg(p)], q), ())
        # build an actually-correct subtree: weakening from axiom is wrong here,
        # so check only the box step against a synthetic premise
        inner = GProof(GRule.STRUCT_AX, GSequent.of([q], q))
        w1 = GProof(GRule.WEAK, GSequent.of([q, p], q), (inner,))
        w2 = GProof(GRule.WEAK, GSequent.of([q, p, Neg(p)], q), (w1,))
        node = GProof(GRule.BOX_L, GSequent.of([q, p, Neg(Box(p))], q), (w2,))
        assert check_g_proof(node)

    def test_cut_gate(self):
        left = GProof(GRule.STRUCT_AX, GSequent.of([p], p))
        right = GProof(GRule.WEAK, GSequent.of([p, p], q), ())
        # a well-formed cut whose premises are themselves bogus still hits the
        # allow_cut gate first
        node = GProof(GRule.CUT, GSequent.of([p], q), (left, right))
        with pytest.raises(GCheckError) as exc:
            verify_g_proof(node, allow_cut=False)
        assert "cut" in str(exc.value)

    def test_error_at_non_root_path(self):
        # p, q => p & q by and_r over two weakenings; the second weakening
        # rests on a node that is not a modal axiom
        pq = frozenset({p, q})
        left = GProof(GRule.WEAK, GSequent(pq, p), (GProof(GRule.STRUCT_AX, GSequent.of([p], p)),))
        right = GProof(GRule.WEAK, GSequent(pq, q), (GProof(GRule.MODAL_AX, GSequent.of([q], q)),))
        bad = GProof(GRule.AND_R, GSequent(pq, And(p, q)), (left, right))
        with pytest.raises(GCheckError) as exc:
            verify_g_proof(bad)
        assert exc.value.path == (1, 0)
        assert exc.value.rule is GRule.MODAL_AX
        assert str(exc.value) == (
            "node [1, 0] (g.modal_ax): premises do not instantiate the schema")

    def test_long_weakening_chain(self):
        # 2000 weakenings, each adding one formula: a subset test per node
        # takes milliseconds, listing each node's weakening instances would
        # take time cubic in the length
        xs = [Var(f"x{i}") for i in range(2000)]
        pr = GProof(GRule.STRUCT_AX, GSequent.of([xs[0]], xs[0]))
        for x in xs[1:]:
            pr = GProof(GRule.WEAK, GSequent(pr.sequent.left | {x}, xs[0]), (pr,))
        verify_g_proof(pr)

    def test_json_roundtrip(self):
        pr = g_search_cutfree(GSequent.of([parse("p & q")], p), 4)
        assert pr is not None
        assert g_proof_from_json(g_proof_to_json(pr)) == pr


class TestSearch:
    def test_modal_axiom_depth_3(self):
        pr = g_search_cutfree(GSequent.of([], parse("p | ~#p")), 3)
        assert pr is not None and pr.rule is GRule.MODAL_AX

    def test_boxed_modal_axiom_not_found(self):
        pr = g_search_cutfree(GSequent.of([], parse("#(p | ~#p)")), 12)
        assert pr is None

    def test_boxed_modal_axiom_not_found_deeper(self):
        # the search space from this goal is tiny, so a much larger bound
        # stays instant and still finds nothing
        assert g_search_cutfree(GSequent.of([], parse("#(p | ~#p)")), 25) is None

    def test_conjunction_projection(self):
        pr = g_search_cutfree(GSequent.of([parse("p & q")], p), 4)
        assert pr is not None
        verify_g_proof(pr)

    def test_found_proofs_check(self):
        cases = ["p => p", "p & q => q", "p => p | q", "q => p | q",
                 "~~p => p", "p => ~~p", "=> q | ~#q"]
        from tml.sequents import parse_sequent
        for text in cases:
            seq = parse_sequent(text)
            (phi,) = seq.right
            pr = g_search_cutfree(GSequent(seq.left, phi), 6)
            assert pr is not None, text
            verify_g_proof(pr)

    def test_depth_monotone(self):
        goals = [GSequent.of([parse("p & q")], p),
                 GSequent.of([], parse("p | ~#p")),
                 GSequent.of([parse("~~p")], p)]
        for goal in goals:
            found_at = [d for d in range(8) if g_search_cutfree(goal, d) is not None]
            if found_at:
                lo = min(found_at)
                assert found_at == list(range(lo, 8))

    def test_deep_chain_without_recursion(self):
        # 1200 conjuncts p & q & ... & q: the proof is 2400 high, far past
        # the recursion limit (too deep for the stdlib JSON encoder too)
        chain = parse(" & ".join(["p"] + ["q"] * 1199))
        pr = g_search_cutfree(GSequent.of([chain], p), 5000)
        assert pr is not None
        verify_g_proof(pr)

    def test_wide_goals_are_searched_unpruned(self):
        # past _PRUNE_MAX_VARS variables no sequent is tested; the miss
        # is still certified, by failed sequents alone
        report = cut_necessity_probe(parse(" & ".join("abcdefghijk")), 12)
        assert report.exhausted and report.stats.pruned == 0
        assert report.certificate.countermodels == {}
        # and no plane is built: one over 20 variables takes 4**20 bits
        xs = [f"x{i}" for i in range(1, 21)]
        goal = GSequent.of([parse("x1")], parse(f"x1 | ({' & '.join(xs[1:])})"))
        stats = GSearchStats()
        pr = g_search_cutfree(goal, 12, stats)
        assert pr is not None and stats.pruned == 0
        verify_g_proof(pr)

    def test_stats_add_up(self):
        stats = GSearchStats()
        assert g_search_cutfree(GSequent.of([], parse("#(p | ~#p)")), 12, stats) is None
        assert str(stats) == ("expanded 1, memo hits 0, pruned 1, "
                              "validity memo hits 0, bound hit False")
        assert g_search_cutfree(GSequent.of([parse("p & q")], p), 4, stats) is not None
        assert (stats.expanded, stats.pruned, stats.bound_hit) == (3, 3, False)
        assert g_search_cutfree(GSequent.of([], parse("#(p | ~#p)")), 1, stats) is None
        assert stats.bound_hit

    def test_soundness_of_found_proofs(self):
        from tml.matrix import degree_consequence
        for text in ["p & q => p", "p => p | q", "=> p | ~#p", "~~p => p"]:
            from tml.sequents import parse_sequent
            seq = parse_sequent(text)
            (phi,) = seq.right
            if g_search_cutfree(GSequent(seq.left, phi), 6) is not None:
                assert degree_consequence(seq.left, phi)


class TestProbe:
    def test_variable_alpha(self):
        report = cut_necessity_probe(p, 12)
        assert report.valid
        assert not report.g_cutfree_found
        assert report.sc_cutfree_found
        assert not report.vacuous_bound

    def test_compound_alpha(self):
        report = cut_necessity_probe(parse("q & q"), 10)
        assert report.valid and not report.g_cutfree_found and report.sc_cutfree_found

    def test_vacuous_depth(self):
        report = cut_necessity_probe(p, 0)
        assert not report.g_cutfree_found
        assert report.vacuous_bound

    def test_exhausted_search_says_so(self):
        # the only backward step from => #(p | ~#p) leads to => bot, which
        # has none, so height 3 already covers the whole search space
        report = cut_necessity_probe(p, 3)
        assert report.exhausted and not report.bound_hit
        assert not report.g_cutfree_found
        text = str(report)
        assert "exhaustive" in text and "empirical" not in text

    def test_bound_hit_is_reported_as_empirical(self):
        report = cut_necessity_probe(p, 1)
        assert report.bound_hit and not report.exhausted
        text = str(report)
        assert "empirical" in text and "exhaustive" not in text


class TestCertificate:
    goal = GSequent.of([], parse("#(p | ~#p)"))

    def test_boxed_modal_axiom(self):
        # its one backward step leads to => bot, which p=0 refutes
        report = cut_necessity_probe(p, 12)
        assert report.exhausted
        assert report.certificate == GUnprovable(
            frozenset({self.goal}), {GSequent.of([], BOT): {"p": "0"}})
        verify_g_unprovable(self.goal, report.certificate)

    def test_bound_hit_gives_none(self):
        assert cut_necessity_probe(p, 1).certificate is None

    def test_mutants_are_rejected(self):
        cert = cut_necessity_probe(p, 12).certificate
        for mutant, reason in [
                (GUnprovable(cert.failed, {}), "g.bot step"),
                (GUnprovable(frozenset(), cert.countermodels), "goal"),
                (GUnprovable(cert.failed, {**cert.countermodels,
                                           GSequent.of([p], p): {"p": "1"}}),
                 "no countermodel"),
                (GUnprovable(cert.failed | {GSequent.of([p], p)}, cert.countermodels),
                 "axiom"),
                (GUnprovable(cert.failed, {**cert.countermodels, GSequent.of([], p): {}}),
                 "variable")]:
            with pytest.raises(ValueError, match=reason):
                verify_g_unprovable(self.goal, mutant)

    def test_rule_instances_are_the_checkers(self, small_pool):
        # every instance the certificate checker enumerates passes the
        # root check of verify_g_proof, and covers every search step
        rng = random.Random(5)
        pool = small_pool + [parse(t) for t in ["~#p", "p & ~#p", "~~q", "bot"]]
        for _ in range(300):
            seq = GSequent.of(rng.sample(pool, rng.randrange(4)), rng.choice(pool))
            instances = list(_rule_instances(seq))
            for rule, prems in instances:
                assert _root_step_passes(rule, seq, prems), (seq, rule)
            for step in _backward_steps(seq):
                assert step in instances, (seq, step)

    def test_rule_instances_are_complete(self):
        # the other way round, which certificates rest on: every premise
        # list that verify_g_proof accepts at the root, under any rule,
        # is an instance.  Lists of one premise are tried on a seeded
        # sample of sequents, lists of two on small sequents, where all
        # pairs of candidates fit in the time of a test.
        rng = random.Random(8)
        pool = [parse(t) for t in ["p", "q", "~p", "~~p", "#p", "~#p", "p & q",
                                   "p | q", "p & ~#p", "p | ~#p", "~#p & q", "bot"]]
        seqs = [GSequent.of(rng.sample(pool, rng.randrange(3)), rng.choice(pool))
                for _ in range(12)]
        seqs += [GSequent.of([p, parse("~#p")], q), GSequent.of([parse("~q")], parse("~p")),
                 GSequent.of([parse("p & q"), parse("p | q")], parse("p & ~#p"))]
        for seq in seqs:
            singles, _ = _premise_candidates(seq)
            _assert_complete(seq, [[s] for s in singles])
        for text in ["p | q => p & q", "p | q => ~p", "~p => q & ~#q"]:
            seq = GSequent.of(*_single_conclusion(text))
            _, small = _premise_candidates(seq)
            _assert_complete(seq, [[a, b] for a in small for b in small])


def _single_conclusion(text):
    from tml.sequents import parse_sequent
    seq = parse_sequent(text)
    (phi,) = seq.right
    return seq.left, phi


def _premise_candidates(seq):
    """Candidate premises of one-step instances concluding seq: on the
    left a subset of the left side, or the left side less at most one
    formula and plus at most two subformulas of the sequent, or one
    negated, or a lone one; on the right a
    subformula, a negation or a & ~a of one, or bot.  Then a smaller set
    for pairs: at most one subformula added, and no negations."""
    L = seq.left
    parts = set().union(*map(subformulas, [*L, seq.right]))
    added = parts | {Neg(f) for f in parts}
    rights = added | {And(f, Neg(f)) for f in parts} | {BOT}
    ctxs = [L] + [L - {f} for f in L]
    lefts = ({c | {y} for c in ctxs for y in added} | set(ctxs)
             | {frozenset({y}) for y in added} | set(map(frozenset, _subsets(L)))
             | {c | {y, z} for c in ctxs for y in parts for z in parts})
    small = {c | {y} for c in ctxs for y in parts} | set(ctxs)
    return ([GSequent(l, r) for l in lefts for r in rights],
            [GSequent(l, r) for l in small for r in parts | {BOT}])


def _subsets(xs):
    xs = list(xs)
    return [c for n in range(len(xs) + 1) for c in itertools.combinations(xs, n)]


def _assert_complete(seq, lists):
    instances = {(rule, tuple(prems)) for rule, prems in _rule_instances(seq)}
    for prems in lists:
        for rule in GRule:
            if _root_step_passes(rule, seq, prems):
                assert (rule, tuple(prems)) in instances, (seq, rule, prems)


def _root_step_passes(rule, seq, prems):
    """Whether verify_g_proof accepts the step from prems to seq by rule;
    the premises are leaves that may fail their own check."""
    node = GProof(rule, seq, tuple(GProof(GRule.STRUCT_AX, s) for s in prems))
    try:
        verify_g_proof(node)
    except GCheckError as e:
        return e.path != ()
    return True


# sha256 over the JSON (as `tml prove --calculus g --format json` prints
# it, key order included) and the text rendering of the proofs found for
# a fixed seeded list of single-conclusion sequents.
G_PROOFS_FINGERPRINT = "0003bbe3185d77485767663f09290620e5a745db99c82a0d3c652a92b12fe5ae"


@pytest.fixture(scope="module")
def fingerprint_proofs(small_pool):
    """The proofs of the fingerprint below."""
    rng = random.Random(11)
    goals = [GSequent.of(rng.sample(small_pool, rng.randrange(0, 3)), rng.choice(small_pool))
             for _ in range(400)]
    return [pr for pr in (g_search_cutfree(goal, 8) for goal in goals) if pr is not None]


def test_relabelled_nodes_are_rejected(fingerprint_proofs):
    # each node of each proof, under every other rule, passes exactly
    # where that rule and the node's premises are also a rule instance;
    # the premises' own subtrees check, so only the node can fail
    relabelled = accepted = 0
    for pr in fingerprint_proofs:
        for node, _, entering in walk(pr):
            if not entering:
                continue
            prems = tuple(q.sequent for q in node.premises)
            instances = {(rule, tuple(ps)) for rule, ps in _rule_instances(node.sequent)}
            for rule in GRule:
                if rule is not node.rule:
                    passes = check_g_proof(GProof(rule, node.sequent, node.premises))
                    assert passes == ((rule, prems) in instances), (node.sequent, rule)
                    relabelled += 1
                    accepted += passes
    # the 15 accepted swap g.or_r1 and g.or_r2 on a conclusion a | a
    assert (relabelled, accepted) == (9408, 15)


def test_dumps_is_indented_json_dumps(fingerprint_proofs):
    for pr in fingerprint_proofs:
        assert dumps(pr) == json.dumps(g_proof_to_json(pr), indent=2)


def test_g_proof_fingerprint(small_pool):
    rng = random.Random(11)
    h = hashlib.sha256()
    found = 0
    for _ in range(400):
        goal = GSequent.of(rng.sample(small_pool, rng.randrange(0, 3)),
                           rng.choice(small_pool))
        pr = g_search_cutfree(goal, 8)
        if pr is None:
            continue
        found += 1
        h.update(json.dumps(g_proof_to_json(pr), indent=2).encode() + b"\n")
        h.update(render_g_proof(pr).encode() + b"\n")
    assert found > 50
    assert h.hexdigest() == G_PROOFS_FINGERPRINT, h.hexdigest()


# Goals shaped like the G goals of the `decide` benchmark: formulas over
# {p, q} of up to three connectives, at most two premises, one conclusion
# (308 of the 1000 are valid).  Both constants were recorded with the
# search that did not prune invalid sequents: the sha256 of the proofs
# found at height 12, as for the fingerprint above, and the goals whose
# search missed without reaching the bound.  Pruning leaves every proof
# as it was and turns misses cut off by the bound into exhaustive ones,
# never the reverse.
G_GOLDEN_FINGERPRINT = "d2660364dbb26559fe8f69034af8c9dbf8b0063ab80c5d49319822c909f82577"
G_GOLDEN_EXHAUSTIVE_UNPRUNED = [
    3, 4, 5, 7, 8, 13, 15, 17, 18, 23, 24, 25, 27, 31, 32, 33, 34, 35, 38,
    43, 45, 48, 50, 56, 57, 62, 65, 66, 67, 68, 69, 73, 74, 75, 76, 77, 78,
    81, 82, 84, 92, 97, 98, 102, 104, 107, 108, 109, 111, 113, 117, 119,
    120, 121, 124, 125, 126, 127, 129, 130, 131, 134, 135, 137, 138, 139,
    143, 144, 145, 147, 150, 153, 154, 156, 158, 159, 161, 164, 167, 168,
    174, 177, 179, 180, 181, 182, 183, 188, 189, 192, 193, 194, 195, 199,
    200, 203, 204, 205, 207, 208, 211, 213, 217, 219, 220, 221, 222, 224,
    229, 231, 232, 235, 236, 244, 245, 250, 251, 253, 256, 257, 259, 260,
    261, 263, 266, 269, 270, 273, 277, 278, 282, 285, 287, 289, 290, 292,
    296, 297, 299, 304, 305, 306, 309, 311, 314, 315, 317, 320, 322, 323,
    325, 326, 327, 328, 330, 331, 333, 334, 335, 336, 338, 339, 340, 343,
    346, 351, 353, 354, 356, 357, 358, 360, 361, 364, 369, 371, 372, 374,
    375, 377, 378, 379, 381, 384, 385, 387, 390, 391, 394, 396, 397, 399,
    400, 401, 402, 403, 404, 409, 410, 411, 413, 414, 426, 429, 430, 433,
    434, 439, 440, 442, 443, 445, 446, 447, 448, 450, 452, 453, 454, 455,
    456, 458, 459, 462, 463, 466, 468, 470, 474, 479, 481, 482, 484, 486,
    492, 494, 496, 497, 498, 499, 506, 508, 509, 510, 511, 512, 513, 514,
    516, 518, 521, 522, 523, 524, 526, 528, 529, 530, 535, 539, 540, 544,
    545, 549, 551, 553, 554, 561, 565, 566, 567, 568, 569, 572, 573, 574,
    578, 583, 585, 586, 591, 594, 596, 603, 606, 608, 611, 612, 613, 615,
    616, 617, 623, 624, 625, 626, 630, 631, 633, 636, 638, 643, 645, 650,
    651, 655, 658, 662, 664, 665, 667, 669, 670, 671, 674, 675, 676, 678,
    680, 681, 682, 683, 684, 685, 689, 690, 691, 696, 699, 703, 704, 706,
    708, 710, 711, 712, 713, 716, 717, 718, 719, 720, 721, 726, 728, 730,
    733, 735, 739, 740, 741, 743, 744, 745, 746, 748, 750, 751, 752, 753,
    754, 755, 756, 757, 758, 759, 762, 765, 769, 770, 772, 775, 777, 778,
    779, 781, 785, 787, 790, 791, 794, 795, 797, 798, 802, 808, 810, 815,
    818, 820, 823, 824, 825, 826, 827, 830, 834, 837, 838, 840, 842, 846,
    847, 848, 850, 854, 855, 857, 860, 863, 864, 865, 870, 872, 873, 875,
    876, 877, 880, 882, 884, 885, 886, 887, 888, 889, 892, 895, 896, 897,
    898, 900, 902, 910, 913, 916, 918, 920, 921, 924, 925, 926, 928, 929,
    931, 932, 934, 935, 936, 937, 938, 939, 941, 944, 947, 949, 950, 951,
    952, 953, 957, 958, 959, 960, 962, 965, 966, 969, 970, 971, 973, 974,
    975, 978, 980, 981, 982, 983, 984, 985, 986, 987, 991, 994, 999]


def _golden_goals(pool_by_count):
    rng = random.Random(12)

    def pick():
        return rng.choice(pool_by_count[rng.randrange(4)])

    return [GSequent.of([pick() for _ in range(rng.randrange(3))], pick())
            for _ in range(1000)]


def test_g_search_golden(pool_by_count):
    h = hashlib.sha256()
    exhaustive = []
    for i, goal in enumerate(_golden_goals(pool_by_count)):
        stats = GSearchStats()
        pr = g_search_cutfree(goal, 12, stats)
        if pr is None:
            if not stats.bound_hit:
                exhaustive.append(i)
            continue
        h.update(json.dumps(g_proof_to_json(pr), indent=2).encode() + b"\n")
        h.update(render_g_proof(pr).encode() + b"\n")
    assert h.hexdigest() == G_GOLDEN_FINGERPRINT, h.hexdigest()
    assert set(G_GOLDEN_EXHAUSTIVE_UNPRUNED) <= set(exhaustive)


def test_every_exhaustive_miss_is_certified(pool_by_count):
    certified = valid = 0
    for goal in _golden_goals(pool_by_count):
        proof, cert, stats = _search_certified(goal, 12)
        assert (cert is not None) == (proof is None and not stats.bound_hit)
        if cert is not None:
            verify_g_unprovable(goal, cert)
            certified += 1
            valid += matrix_consequence(goal.left, [goal.right])
    # the valid ones are checked instances of G lacking cut elimination
    assert (certified, valid) == (712, 20)
