"""Exact-arithmetic audits of central binomial sum divisibilities.

The package verifies, over exact rationals and integers only, that a family
of alternating/positive central binomial sums is divisible by the divisors
2n*C(2n,n) or 2n^2*C(2n,n)^2, and audits the certificate pairs (F, G) whose
telescoping makes those divisibilities visible term by term.

Every name of __all__ is re-exported from its module on first access
(PEP 562), so importing the package, or a module of it, loads only the
modules that are used.
"""
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "dsl": ("DslError", "ParseError", "SemanticError", "parse_document",
            "serialize_document"),
    "exact": ("binomial", "factorial", "int_valuation", "legendre_valuation",
              "primes_upto", "rat_valuation", "smallest_prime_factors"),
    "hyperterm": ("BaseFactor", "BinomFactor", "HypergeometricTerm",
                  "LinearForm", "NotProportionalError", "TermDocument",
                  "TermEvalError", "eval_term", "eval_term_pair",
                  "eval_term_row", "k0_prefix_sums", "shift_quotient",
                  "term_quotient"),
    "pairs": ("DIVISOR_KINDS", "WZPairSpec", "builtin_document",
              "builtin_document_names", "builtin_document_text",
              "builtin_pair", "builtin_pair_names"),
    "polyalg": ("BivarPoly", "RationalFunction"),
    "report": ("FORMATS", "ReportRecord", "render", "write"),
    "verify": ("DivisionCheck", "LemmaAudit", "MarginRecord",
               "QuotientIdentity", "RatioCheck", "SumSpec", "LEMMA24_REGIONS",
               "RATIO_IDENTITIES", "SUM_SPECS", "check_divisibility",
               "check_divisibility_valuations", "divisor", "divisors",
               "eval_sum", "floor_margin", "floor_margin_fractional",
               "iter_sums", "lemma22_point", "lemma22_row", "lemma23_point",
               "lemma23_rows", "lemma24_scan", "lemma25_row", "lemma25_scan",
               "lemma25_valuations", "lemma25_w", "lemma26_floor_margin",
               "lemma26_ineq_scan", "lemma26_point", "lemma26_rows",
               "ratio_identity", "ratio_k_values", "ratio_row_failures",
               "sum_spec", "sums"),
    "wz": ("TelescopeAudit", "telescope_audit", "telescope_audits",
           "wz_certificate", "wz_grid_row", "wz_grid_rows",
           "wz_symbolic_check"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """A re-exported name, or a module of the package, imported now."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
