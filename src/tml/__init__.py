"""Four-valued modal logic toolkit.

Matrix semantics over the values 0, n, b, 1, the tetravalent-modal-
algebra laws as formulas checked on the same value-plane kernel, a
generic signed-formula calculus with its two-sided
translation, a cut-free two-sided sequent calculus with terminating
proof search, the single-conclusion calculus G, and natural deduction
with hypothesis discharge, all cross-validated against exhaustive
truth-table evaluation.

``import tml`` loads no submodule: each name below, and each submodule
(``tml.sc``, ``tml.nd``, ...), is imported on first use, so that a
command line pays only for the modules it runs.
"""

import sys

__version__ = "0.1.0"

_EXPORTS = {
    "algebra": ("check_tma_laws", "product_algebra"),
    "gcalc": ("GProof", "GRule", "GSequent", "check_g_proof", "cut_necessity_probe",
              "g_search_cutfree"),
    "matrix": ("LogicalMatrix", "M4", "countermodel", "degree_consequence", "evaluate",
               "matrix_consequence", "satisfies", "valuations"),
    "nd": ("NDDeduction", "check_nd", "disjunction_of", "nd_to_sc", "open_assumptions",
           "sc_to_nd"),
    "sc": ("ScProof", "ScRule", "check_sc_proof", "contrapose", "denecessitate",
           "falsum_proof", "is_cut_free", "necessitate", "prove", "rule_soundness"),
    "sequents": ("Sequent", "parse_sequent", "render_sequent"),
    "signed": ("NSequent", "SFDerivation", "SignedFormula", "SignedRule",
               "check_sf_derivation", "embed_two_sided", "generate_sf_rules",
               "nsequent_satisfied", "sf_prove"),
    "syntax": ("And", "BOT", "Bot", "Box", "Formula", "FormulaTemplate", "Neg", "Or",
               "Var", "closure", "parse", "render", "substitute"),
    "translation": ("ExpressivenessSpec", "m4_spec", "partitions", "two_of_calculus",
                    "two_of_nsequent", "verify_two_equivalence"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(("proofs", "search", *_EXPORTS))

__all__ = sorted(_MODULE_OF)


def _submodule(name: str):
    # __import__, not importlib.import_module, so that -X importtime
    # still reports the import
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    """Import a name's module on first use (PEP 562); the name is then
    bound here, so later lookups do not come back."""
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(_submodule(module), name)
    elif name in _SUBMODULES:
        value = _submodule(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_SUBMODULES})
