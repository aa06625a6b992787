import re
from fractions import Fraction

import pytest

from binomsum.dsl import DslError, ParseError, SemanticError, parse_document, \
    serialize_document
from binomsum.hyperterm import TermDocument, eval_term
from binomsum.pairs import builtin_document_names, builtin_document_text
from binomsum.polyalg import BivarPoly

SIMPLE = """\
term demo
sign (-1)^(n+k)
base 4^(-2*n+1)
factor binom(2*n,n)^3
factor binom(2*k,k)^-1
poly 3*n-k+2
denompoly 2*n+1
end
"""


def test_parse_simple_document_fields():
    doc = parse_document(SIMPLE)
    assert doc.name == "demo"
    t = doc.term
    assert t.sign_exponent.render() == "n+k"
    assert len(t.base_factors) == 1
    assert t.base_factors[0].base == 4
    assert t.base_factors[0].exponent.render() == "-2*n+1"
    assert [bf.power for bf in t.binom_factors] == [3, -1]
    assert t.numer_poly.render() == "3*n-k+2"
    assert t.denom_poly.render() == "2*n+1"


def test_parse_then_eval():
    t = parse_document(SIMPLE).term
    # (-1)^(n+k) 4^(1-2n) C(2n,n)^3 / C(2k,k) * (3n-k+2)/(2n+1)
    assert eval_term(t, 1, 0) == Fraction(-1 * 8 * 5, 4 * 3)
    assert eval_term(t, 1, 1) == Fraction(8 * 4, 4 * 2 * 3)


def test_round_trip_is_canonical_fixed_point():
    doc = parse_document(SIMPLE)
    text = serialize_document(doc)
    assert parse_document(text) == doc
    assert serialize_document(parse_document(text)) == text


def test_builtin_documents_round_trip_byte_identically():
    for name in builtin_document_names():
        text = builtin_document_text(name)
        doc = parse_document(text)
        assert serialize_document(doc) == text


def test_comments_become_note_and_survive_round_trip():
    text = "# leading note\n# second line\n" + SIMPLE
    doc = parse_document(text)
    assert doc.note == "leading note\nsecond line"
    assert serialize_document(doc).startswith("# leading note\n# second line\n")


def test_inline_comments_and_blank_lines_ignored():
    text = SIMPLE.replace("poly 3*n-k+2", "poly 3*n-k+2   # inline note\n")
    doc = parse_document(text)
    assert doc.term.numer_poly.render() == "3*n-k+2"


def test_serialize_omits_default_lines():
    text = "term tiny\npoly 1\nend\n"
    doc = parse_document(text)
    assert serialize_document(doc) == text


def test_parse_error_reports_line_and_col():
    bad = SIMPLE.replace("poly 3*n-k+2", "poly 3*n-k+")
    with pytest.raises(ParseError) as err:
        parse_document(bad)
    assert err.value.line == 6


def test_unknown_keyword_is_parse_error():
    with pytest.raises(ParseError) as err:
        parse_document("term x\nshape 3\npoly 1\nend\n")
    assert err.value.line == 2


def test_missing_sections_raise():
    with pytest.raises(ParseError):
        parse_document("poly 1\nend\n")           # no term line
    with pytest.raises(ParseError):
        parse_document("term x\nend\n")           # no poly
    with pytest.raises(ParseError):
        parse_document("term x\npoly 1\n")        # no end
    with pytest.raises(ParseError):
        parse_document("term x\npoly 1\nend\npoly 2\n")  # content after end


def test_duplicate_lines_rejected():
    dup = SIMPLE.replace("base 4^(-2*n+1)",
                         "base 4^(-2*n+1)\nsign (-1)^(n)")
    with pytest.raises(ParseError):
        parse_document(dup)


def test_semantic_errors():
    with pytest.raises(SemanticError):
        parse_document("term x\nbase 1^(n)\npoly 1\nend\n")
    with pytest.raises(SemanticError):
        parse_document("term x\npoly 1\ndenompoly 0\nend\n")


def test_errors_are_dsl_errors():
    with pytest.raises(DslError):
        parse_document("term x\nfactor binom(2*n n)\npoly 1\nend\n")


def test_serialize_document_writes_the_given_name():
    t = parse_document(SIMPLE).term
    doc = TermDocument(name="renamed", term=t)
    assert serialize_document(doc).startswith("term renamed\n")


def test_serialize_writes_a_base_beyond_the_digit_limit(int_str_limit):
    # No literal can state such a base, but a term built in code can hold it.
    t = parse_document(SIMPLE).term
    big = -10 ** 5000
    term = t._replace(base_factors=(t.base_factors[0]._replace(base=big),))
    text = serialize_document(TermDocument(name="big", term=term))
    assert f"base {int_str_limit(big)}^(-2*n+1)" in text.splitlines()


def test_coefficients_beyond_the_digit_limit_round_trip(int_str_limit):
    # 10^5000 renders as a 5001-digit literal, which parse rejects; the
    # serializer writes it as like monomials within the limit instead.
    text = builtin_document_text("guillera1.G").replace(
        "poly 2*n^3", "poly 10^5000*n^3+7")
    doc = parse_document(text)
    assert len(doc.term.numer_poly.render()) == 5001 + len("*n^3+7")
    serialized = serialize_document(doc)
    assert max(map(len, re.findall(r"\d+", serialized))) <= 4300
    again = parse_document(serialized)
    assert again == doc
    assert serialize_document(again) == serialized
    # A coefficient with several parts, each part a like monomial.
    coeff = -(3 * 10 ** 9000 + 12345 * 10 ** 4000 + 6)
    poly = doc.term.numer_poly + BivarPoly({(1, 1): coeff})
    big = TermDocument(name="big", term=doc.term._replace(numer_poly=poly))
    serialized = serialize_document(big)
    assert parse_document(serialized) == big
    assert serialize_document(parse_document(serialized)) == serialized


# A literal one digit longer than the default int-from-str limit of 4300.
LONG = "1" * 4301


@pytest.mark.parametrize("line,col", [
    ("poly 3*n+" + LONG, 10),           # a polynomial coefficient
    ("poly n^" + LONG, 8),              # an exponent
    ("base -" + LONG + "^(n)", 7),      # a base
    ("factor binom(n," + LONG + ")", 16),  # a linear form
    ("factor binom(n,k)^" + LONG, 19),  # a binomial's power
])
def test_overlong_integer_literal_is_a_parse_error_at_its_position(line,
                                                                    col):
    poly = "" if line.startswith("poly") else "poly 1\n"
    with pytest.raises(ParseError) as err:
        parse_document(f"term x\n{line}\n{poly}end\n")
    assert (err.value.line, err.value.col) == (2, col)
    assert "4301 digits" in str(err.value)
