"""Exact-arithmetic audits of central binomial sum divisibilities.

The package verifies, over exact rationals and integers only, that a family
of alternating/positive central binomial sums is divisible by the divisors
2n*C(2n,n) or 2n^2*C(2n,n)^2, and audits the certificate pairs (F, G) whose
telescoping makes those divisibilities visible term by term.
"""
from .dsl import DslError, ParseError, SemanticError, parse_document, \
    serialize_document
from .exact import binomial, factorial, int_valuation, legendre_valuation, \
    primes_upto, rat_valuation, smallest_prime_factors
from .hyperterm import BaseFactor, BinomFactor, HypergeometricTerm, LinearForm, \
    NotProportionalError, TermDocument, TermEvalError, eval_term, \
    eval_term_pair, shift_quotient, term_quotient
from .pairs import DIVISOR_KINDS, WZPairSpec, builtin_document, \
    builtin_document_names, builtin_document_text, builtin_pair, \
    builtin_pair_names
from .polyalg import BivarPoly, RationalFunction
from .report import FORMATS, ReportRecord, render, write
from .verify import DivisionCheck, LemmaAudit, MarginRecord, QuotientIdentity, \
    RatioCheck, SumSpec, LEMMA24_REGIONS, RATIO_IDENTITIES, SUM_SPECS, \
    check_divisibility, check_divisibility_valuations, \
    divisor, eval_sum, floor_margin, floor_margin_fractional, iter_sums, \
    lemma22_point, lemma22_row, lemma23_point, lemma23_rows, lemma24_scan, \
    lemma25_row, lemma25_scan, lemma25_valuations, lemma25_w, \
    lemma26_floor_margin, lemma26_ineq_scan, lemma26_point, lemma26_rows, \
    ratio_identity, ratio_k_values, ratio_row_failures, sum_spec
from .wz import TelescopeAudit, telescope_audit, wz_certificate, wz_grid_row, \
    wz_grid_rows, wz_symbolic_check

__version__ = "0.1.0"

__all__ = [
    "BaseFactor", "BinomFactor", "BivarPoly", "DIVISOR_KINDS", "DivisionCheck",
    "DslError", "FORMATS", "HypergeometricTerm",
    "LEMMA24_REGIONS", "LemmaAudit", "LinearForm", "MarginRecord",
    "NotProportionalError", "ParseError", "QuotientIdentity",
    "RATIO_IDENTITIES", "RatioCheck", "RationalFunction", "ReportRecord",
    "SUM_SPECS", "SemanticError", "SumSpec",
    "TelescopeAudit", "TermDocument", "TermEvalError", "WZPairSpec",
    "binomial", "builtin_document", "builtin_document_names",
    "builtin_document_text", "builtin_pair", "builtin_pair_names",
    "check_divisibility", "check_divisibility_valuations", "divisor",
    "eval_sum", "eval_term", "eval_term_pair", "factorial", "floor_margin",
    "floor_margin_fractional", "int_valuation", "iter_sums", "legendre_valuation",
    "lemma22_point", "lemma22_row", "lemma23_point", "lemma23_rows",
    "lemma24_scan", "lemma25_row", "lemma25_scan", "lemma25_valuations",
    "lemma25_w", "lemma26_floor_margin",
    "lemma26_ineq_scan", "lemma26_point", "lemma26_rows", "parse_document",
    "primes_upto", "rat_valuation", "ratio_identity", "ratio_k_values",
    "ratio_row_failures", "render", "serialize_document", "shift_quotient",
    "smallest_prime_factors", "sum_spec", "telescope_audit", "term_quotient",
    "write", "wz_certificate", "wz_grid_row", "wz_grid_rows",
    "wz_symbolic_check",
]
