"""Records are NamedTuples: their repr, pickling and validation."""
import copy
import pickle
from fractions import Fraction

import pytest

from binomsum.hyperterm import BaseFactor, BinomFactor, HypergeometricTerm, \
    LinearForm, TermDocument
from binomsum.pairs import builtin_pair
from binomsum.polyalg import BivarPoly
from binomsum.report import ReportRecord
from binomsum.verify import MarginRecord, RatioCheck, check_divisibility, \
    divide, floor_margin, lemma23_point, lemma24_scan, lemma25_scan, \
    lemma26_ineq_scan, ratio_identity, sum_spec
from binomsum.wz import telescope_audit


# The reprs the frozen-dataclass records printed, kept byte for byte.
@pytest.mark.parametrize("make,expected", [
    (lambda: lemma24_scan(3),
     "LemmaAudit(lemma='2.4', params=(('m_max', 3), ('region', 'all'), "
     "('full_range', 'none')), checked=16, "
     "violations=(MarginRecord(m=2, n=1, k=1, margin=-1),))"),
    (lambda: lemma26_ineq_scan(4),
     "LemmaAudit(lemma='2.6', params=(('m_max', 4),), checked=9, "
     "violations=())"),
    (lambda: lemma25_scan(2),
     "LemmaAudit(lemma='2.5', params=(('n_max', 2),), checked=3, "
     "violations=())"),
    (lambda: floor_margin(3, 2, 1), "MarginRecord(m=3, n=2, k=1, margin=2)"),
    (lambda: check_divisibility("sun_a", None, 5),
     "DivisionCheck(value=3903480, divisor=2520, quotient=1549, "
     "remainder=0)"),
    (lambda: divide(Fraction(85, 2), 7),
     "DivisionCheck(value=Fraction(85, 2), divisor=7, quotient=None, "
     "remainder=None)"),
    (lambda: divide(-85, 7),
     "DivisionCheck(value=-85, divisor=7, quotient=None, remainder=6)"),
    (lambda: ratio_identity("f1_corner", 3),
     "RatioCheck(identity='f1_corner', big_n=3, k=None, lhs=Fraction(4032, 1), "
     "rhs=Fraction(4032, 1), alt=Fraction(4032, 1))"),
    (lambda: ratio_identity("g1_gen", 3, 2),
     "RatioCheck(identity='g1_gen', big_n=3, k=2, lhs=Fraction(-2800, 1), "
     "rhs=Fraction(-2800, 1), alt=None)"),
])
def test_record_repr_is_unchanged(make, expected):
    assert repr(make()) == expected


def _every_record():
    pair = builtin_pair("guillera1")
    return [
        LinearForm(1, -2, 3),
        BaseFactor(-4, LinearForm(1, 0, 0)),
        BinomFactor(LinearForm(2, 0, 0), LinearForm(1, 0, 0), -2),
        pair.f.term,
        HypergeometricTerm(),
        pair.g,
        pair,
        ReportRecord("lemma", (("id", "2.4"), ("m", 2)), "fail",
                     (("margin", "-1"),)),
        sum_spec("guillera2"),
        divide(Fraction(85, 2), 7),
        lemma24_scan(3),
        MarginRecord(2, 1, 1, -1),
        lemma23_point(3),
        RatioCheck("f1_corner", 3, None, Fraction(1), Fraction(1),
                   Fraction(1)),
        telescope_audit(pair, 3),
    ]


def test_every_record_type_round_trips_through_pickle():
    records = _every_record()
    assert len({type(rec) for rec in records}) == 14
    for rec in records:
        back = pickle.loads(pickle.dumps(rec))
        assert type(back) is type(rec)
        assert back == rec and repr(back) == repr(rec)


def test_default_term_has_unit_polynomials():
    term = HypergeometricTerm()
    assert term.numer_poly == term.denom_poly == BivarPoly.const(1)


def _pair():
    return builtin_pair("guillera1")


# (a valid record, fields that break one of its invariants)
INVALID = {
    "sum-base": (lambda: sum_spec("sun_a"), {"base": 0}),
    "sum-binomials-power": (lambda: sum_spec("sun_a"),
                            {"binomials": (((0, 2), (0, 1), -1),)}),
    "sum-binomials-zero-power": (lambda: sum_spec("sun_a"),
                                 {"binomials": (((0, 2), (0, 1), 0),)}),
    "sum-binomials-empty": (lambda: sum_spec("sun_a"), {"binomials": ()}),
    "sum-binomials-range": (lambda: sum_spec("sun_a"),    # C(k, 2k)
                            {"binomials": (((0, 1), (0, 2), 1),)}),
    "sum-kind": (lambda: sum_spec("sun_a"), {"divisor_kind": "medium"}),
    "term-base": (lambda: _pair().f.term,
                  {"base_factors": (BaseFactor(-1, LinearForm(1)),)}),
    "term-denominator": (lambda: _pair().f.term,
                         {"denom_poly": BivarPoly.zero()}),
    "document-empty-name": (lambda: _pair().f, {"name": ""}),
    "document-spaced-name": (lambda: _pair().f, {"name": "two words"}),
    "pair-kind": (_pair, {"divisor_kind": "medium"}),
    "pair-scale": (_pair, {"scale_base": 0}),
    "pair-same-names": (_pair, {"g": _pair().f}),
    "report-status": (lambda: ReportRecord("x", (), "pass"),
                      {"status": "maybe"}),
}


@pytest.mark.parametrize("case", INVALID)
def test_invalid_records_raise_on_every_construction_path(case):
    make, bad = INVALID[case]
    good = make()
    cls = type(good)
    fields = {**good._asdict(), **bad}
    with pytest.raises(ValueError):
        cls(**fields)
    with pytest.raises(ValueError):
        cls(*fields.values())
    with pytest.raises(ValueError):
        cls._make(fields.values())
    with pytest.raises(ValueError):
        good._replace(**bad)
    # An instance built around the check still cannot be unpickled or copied.
    forged = tuple.__new__(cls, fields.values())
    data = pickle.dumps(forged)
    with pytest.raises(ValueError):
        pickle.loads(data)
    with pytest.raises(ValueError):
        copy.copy(forged)
    # The valid record passes every path.
    assert good._replace() == good == pickle.loads(pickle.dumps(good))
