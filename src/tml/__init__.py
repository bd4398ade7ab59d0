"""Four-valued modal logic toolkit.

Matrix semantics over the values 0, n, b, 1, the tetravalent-modal-
algebra laws as formulas checked on the same value-plane kernel, a
generic signed-formula calculus with its two-sided
translation, a cut-free two-sided sequent calculus with terminating
proof search, the single-conclusion calculus G, and natural deduction
with hypothesis discharge, all cross-validated against exhaustive
truth-table evaluation.
"""

from .algebra import (Algebra, algebra_evaluate, check_tma_laws, m4_algebra,
                      product_algebra)
from .gcalc import (GProof, GRule, GSequent, check_g_proof, cut_necessity_probe,
                    g_search_cutfree)
from .matrix import (LogicalMatrix, M4, countermodel, degree_consequence,
                     evaluate, matrix_consequence, satisfies, valuations)
from .nd import (NDDeduction, check_nd, disjunction_of, nd_to_sc,
                 open_assumptions, sc_to_nd)
from .sc import (ScProof, ScRule, check_sc_proof, contrapose, denecessitate,
                 falsum_proof, is_cut_free, necessitate, prove, rule_soundness)
from .sequents import Sequent, parse_sequent, render_sequent
from .signed import (NSequent, SFDerivation, SignedFormula, SignedRule,
                     check_sf_derivation, embed_two_sided, generate_sf_rules,
                     nsequent_satisfied, sf_prove)
from .syntax import (And, BOT, Bot, Box, Formula, FormulaTemplate, Neg, Or,
                     Var, closure, parse, render, substitute)
from .translation import (ExpressivenessSpec, m4_spec, partitions,
                          two_of_calculus, two_of_nsequent,
                          verify_two_equivalence)

__version__ = "0.1.0"
