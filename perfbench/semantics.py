"""Workload ``semantics``: truth-table queries over five and six
variables, plus local soundness of the sequent rules over the product
algebra.

Valid instances come from theorem schemes whose formulas mention every
variable, so all 4^k valuations are evaluated: ``=> f | ~#f`` for
``matrix_consequence`` and ``countermodel``, and ``f & g => f`` and
``~~f => f`` in turn for ``degree_consequence``.  These pairings
evaluate every formula of the sequent under every valuation, whatever
values ``f`` takes.  Every ``f`` has the same size (``LEAVES`` variable
occurrences, ``UNARY`` unary connectives) and only its shape is drawn,
so what a valid query costs depends little on the seed.  Each cycle of
``KINDS`` has two valid queries and one invalid of each kind, so the
median operation is a valid query over five variables.  Invalid
instances are random formulas drawn until the benchmark's own evaluator
(``textgen.designated``) finds a refuting valuation, so every verdict is
known from the construction.
An invalid verdict must come with a ``matrix.countermodel`` that
``sequents.sequent_satisfied`` confirms fails.
"""

from __future__ import annotations

import random

import textgen
from common import Unchecked, Workload, WrongAnswer, sequent_variables

NAMES = "pqrstu"
# variables per query, and how many queries of each size in a cycle
SIZES = ((5, 3), (6, 1))
FORMULA_BUDGET = 5
LEAVES, UNARY = 8, 3
# theorem schemes of valid queries, by kind
SCHEMES = {"matrix": ("lem",), "countermodel": ("lem",), "degree": ("proj", "dneg")}
# query kinds per cycle: (kind, count).  Each cycle checks the soundness
# of one rule for a binary connective (four schema variables, ~0.5 s over
# the 16-element product algebra) and one other rule (at most three,
# ~30 ms), so every stretch of a run has the same mix of costs and the
# p95 falls inside the cluster of binary rules.
KINDS = (("matrix", 3), ("degree", 3), ("countermodel", 3), ("two", 1),
         ("soundness", 2))
CORPUS_OPS = 3000


def _covering(rng, names, size=LEAVES):
    """A random formula of fixed size, ``size`` variable occurrences and
    ``UNARY`` unary connectives, that mentions every variable in
    ``names``."""
    leaves = list(names) + [rng.choice(names) for _ in range(size - len(names))]
    rng.shuffle(leaves)
    return textgen.shaped_tree(rng, leaves, UNARY)


def _valid(rng, names, scheme):
    f = _covering(rng, names)
    if scheme == "lem":
        return [], [("|", f, ("~", ("#", f)))]
    if scheme == "proj":
        g = textgen.shaped_tree(rng, [rng.choice(names) for _ in range(2)], 1)
        return [("&", f, g)], [f]
    return [("~", ("~", f))], [f]


def _draw(rng, names, v, want, covering=False):
    """A random formula whose value under ``v`` is designated iff ``want``."""
    while True:
        t = _covering(rng, names) if covering or rng.random() < 0.5 else \
            textgen.random_tree(rng, rng.randrange(FORMULA_BUDGET + 1), names)
        if textgen.designated(t, v) == want:
            return t


def _invalid(rng, names, single):
    """A sequent refuted by a random valuation over all of ``names``."""
    v = {x: rng.choice(textgen.VALUES) for x in names}
    left = [_draw(rng, names, v, True) for _ in range(rng.randrange(3))]
    right = [_draw(rng, names, v, False) for _ in range(1 if single else 1 + rng.randrange(2))]
    # make sure every variable occurs, so the query ranges over 4^k valuations
    if not set(names) <= set().union(*map(textgen.variables, left + right)):
        covering = _draw(rng, names, v, False, covering=True)
        right = [covering] if single else right + [covering]
    return left, right


def corpus(seed: int, n: int = CORPUS_OPS):
    from tml.sc import ScRule   # rule names only; no formula is built
    rules = [r.value for r in ScRule]
    binary = [r for r in rules if "or" in r or "and" in r]
    others = [r for r in rules if r not in binary]
    rng = random.Random(seed)
    kinds = [k for k, c in KINDS for _ in range(c)]
    sizes = [k for k, c in SIZES for _ in range(c)]
    ops, valid_seen = [], dict.fromkeys(SCHEMES, 0)
    for i in range(n):
        kind = kinds[i % len(kinds)]
        if kind == "soundness":
            # fixed rotations, independent of the seed
            group = binary if i % len(kinds) == len(kinds) - 1 else others
            ops.append((kind, group[(i // len(kinds)) % len(group)], True))
            continue
        if kind == "two":
            # one formula per truth value over the smaller size, each
            # variable once: 2^4 routings into slots, each checked on
            # every valuation
            names = NAMES[:SIZES[0][0]]
            text = " ; ".join(textgen.render(_covering(rng, names, len(names)))
                              for _ in range(4))
            ops.append((kind, text, True))
            continue
        cycle = i // len(kinds)
        names = NAMES[:sizes[cycle % len(sizes)]]
        valid = (i % len(kinds) + cycle) % 3 != 0
        if valid:
            schemes = SCHEMES[kind]
            left, right = _valid(rng, names, schemes[valid_seen[kind] % len(schemes)])
            valid_seen[kind] += 1
        else:
            left, right = _invalid(rng, names, kind == "degree")
        ops.append((kind, textgen.sequent_text(left, right), valid))
    return ops


class Semantics(Workload):
    name = "semantics"
    census_ops = 300

    def __init__(self, root):
        from tml import matrix, sc, sequents, signed, translation
        from tml.syntax import parse
        self.matrix, self.sc, self.sequents = matrix, sc, sequents
        self.signed, self.translation = signed, translation
        self.parse = parse
        self.spec = translation.m4_spec()

    def setup(self, seed):
        return corpus(seed)

    def warmup_ops(self, seed):
        return [("matrix", "x => x | y", True), ("degree", "~~x => x", True),
                ("countermodel", "x => y", False), ("two", "x ; ~x ; #x ; y", True),
                ("soundness", "axiom", True)]

    def run_op(self, op, tr):
        kind, text, expect = op
        m = self.matrix
        if tr.on:
            tr.add("syntax.parse_chars", len(text))
        self.stage = "syntax"
        if kind == "soundness":
            self.stage = "algebra"
            ok = tr.span("algebra", self.sc.rule_soundness, self.sc.ScRule(text))
            if tr.on:
                tr.add("algebra.calls")
            if ok is not expect:
                raise WrongAnswer(f"rule {text} judged unsound")
            return
        if kind == "two":
            comps = tr.span("syntax", self._components, text)
            nseq = self.signed.NSequent(comps)
            self.stage = "translation"
            ok = tr.span("translation", self.translation.verify_two_equivalence,
                         nseq, self.spec, m.M4)
            if tr.on:
                tr.add("translation.calls")
                tr.add("translation.sequents_out",
                       len(self.translation.two_of_nsequent(nseq, self.spec, m.M4)))
            if ok is not expect:
                raise WrongAnswer(f"TWO translation not equivalent on {text!r}")
            return

        seq = tr.span("syntax", self.sequents.parse_sequent, text)
        self.stage = "matrix"
        if kind == "matrix":
            verdict = tr.span("matrix", m.matrix_consequence, seq.left, seq.right, m.M4)
        elif kind == "degree":
            (phi,) = seq.right
            verdict = tr.span("matrix", m.degree_consequence, seq.left, phi, m.M4)
        else:
            cm = tr.span("matrix", m.countermodel, seq.left, seq.right, m.M4)
            verdict = cm is None
        if tr.on:
            tr.add("matrix.calls")
            tr.add("matrix.valuation_space", 4 ** len(sequent_variables(seq)))
        if verdict is not expect:
            raise WrongAnswer(f"{kind} verdict {verdict} on {text!r}, built {expect}")
        if not verdict:
            if kind != "countermodel":
                cm = tr.span("matrix", m.countermodel, seq.left, seq.right, m.M4)
                if tr.on:
                    tr.add("matrix.calls")
                    tr.add("matrix.valuation_space", 4 ** len(sequent_variables(seq)))
            self.stage = "check"
            if cm is None:
                raise Unchecked("invalid verdict without a countermodel")
            if tr.span("check", self.sequents.sequent_satisfied, cm, seq, m.M4):
                tr.add("check.rejects")
                raise Unchecked("countermodel satisfies the sequent")

    def _components(self, text):
        return tuple(frozenset(self.parse(f) for f in part.split(",") if f.strip())
                     for part in text.split(";"))
