from fractions import Fraction
from itertools import product

import pytest

from binomsum.hyperterm import BaseFactor, BinomFactor, HypergeometricTerm, \
    LinearForm, NotProportionalError, TermEvalError, eval_term, \
    shift_quotient, term_quotient
from binomsum.pairs import builtin_document, builtin_document_names
from binomsum.polyalg import BivarPoly


def doc(name):
    return builtin_document(name)


def simple_term(**kwargs):
    defaults = dict(
        sign_exponent=LinearForm(0, 0, 0),
        base_factors=(),
        binom_factors=(BinomFactor(LinearForm(2, 0, 0), LinearForm(1, 0, 0)),),
        numer_poly=BivarPoly.const(1),
        denom_poly=BivarPoly.const(1),
    )
    defaults.update(kwargs)
    return HypergeometricTerm(**defaults)


def test_linear_form_evaluate_and_render():
    form = LinearForm(2, -3, 1)
    assert form.evaluate(4, 1) == 6
    assert form.render() == "2*n-3*k+1"
    assert LinearForm(0, 0, 0).render() == "0"
    assert LinearForm(1, 0, 0).render() == "n"


def test_eval_central_binomial_term():
    t = simple_term()
    assert [eval_term(t, n, 0) for n in range(5)] == [1, 2, 6, 20, 70]


def test_eval_with_sign_and_base():
    t = simple_term(sign_exponent=LinearForm(1, 0, 0),
                    base_factors=(BaseFactor(4, LinearForm(-1, 0, 0)),))
    # (-1)^n * C(2n,n) / 4^n
    assert eval_term(t, 1, 0) == Fraction(-1, 2)
    assert eval_term(t, 2, 0) == Fraction(6, 16)


def test_eval_denominator_pole_raises():
    t = simple_term(denom_poly=BivarPoly.linear(1, 0, -2))  # n - 2
    with pytest.raises(TermEvalError):
        eval_term(t, 2, 0)
    assert eval_term(t, 3, 0) == 20


def test_eval_negative_binomial_power_pole():
    t = simple_term(binom_factors=(
        BinomFactor(LinearForm(0, 2, 0), LinearForm(0, 1, 0), -1),))
    # 1 / C(2k,k) is fine for k >= 0 but C(2k,k) = 0 never happens there;
    # force a genuine zero with C(n, k) at k > n.
    t2 = simple_term(binom_factors=(
        BinomFactor(LinearForm(1, 0, 0), LinearForm(0, 1, 0), -1),))
    assert eval_term(t, 2, 1) == Fraction(1, 2)
    with pytest.raises(TermEvalError):
        eval_term(t2, 1, 3)


def test_builtin_f_terms_match_hand_formulas():
    from binomsum.exact import binomial as C
    f1 = doc("guillera1.F").term
    for n, k in [(0, 0), (1, 0), (1, 1), (2, 1), (3, 2), (5, 3)]:
        expected = (
            Fraction(-1) ** (n + k)
            * Fraction(4) ** (-6 * n + 2 * k)
            * C(2 * n, n) ** 3
            * C(2 * n + 2 * k, n + k) * C(2 * n - 2 * k, n - k)
            * C(n + k, n - k)
            * Fraction(20 * n * n - 12 * n * k + 8 * n - 2 * k + 1, C(2 * k, k))
        )
        assert eval_term(f1, n, k) == expected

    f2 = doc("guillera2.F").term
    for n, k in [(0, 0), (1, 0), (1, 1), (2, 1), (3, 2), (4, 4)]:
        expected = (
            Fraction(16) ** (-4 * n + k)
            * C(2 * n, n) ** 3
            * C(4 * n + 2 * k, 2 * n + k) * C(2 * n + k, n)
            * C(n + k, 2 * k) * C(n, k)
            * Fraction(120 * n * n - 84 * n * k + 34 * n - 10 * k + 3,
                       C(2 * k, k) ** 2)
        )
        assert eval_term(f2, n, k) == expected


def test_builtin_g_terms_spot_values():
    g1 = doc("guillera1.G").term
    assert eval_term(g1, 1, 1) == 1
    assert eval_term(g1, 2, 1) == Fraction(-81, 128)
    assert eval_term(g1, 2, 2) == Fraction(45, 32)
    g2 = doc("guillera2.G").term
    assert eval_term(g2, 1, 1) == 3
    assert eval_term(g2, 2, 1) == Fraction(2835, 2048)


def test_terms_vanish_beyond_support():
    f1 = doc("guillera1.F").term
    assert eval_term(f1, 2, 3) == 0
    assert eval_term(f1, 1, 4) == 0
    f2 = doc("guillera2.F").term
    assert eval_term(f2, 2, 5) == 0


def test_shift_quotient_reproduces_ratios():
    # every shift in {-2..2}^2 on every builtin document, and (0, 5) and
    # (5, 0): a shift of any size is allowed
    shifts = list(product(range(-2, 3), repeat=2)) + [(0, 5), (5, 0)]
    for name in builtin_document_names():
        t = doc(name).term
        for dn, dk in shifts:
            r = shift_quotient(t, dn, dk)
            compared = 0
            for n, k in product(range(0, 9), range(-1, 10)):
                try:
                    here = eval_term(t, n, k)
                    there = eval_term(t, n + dn, k + dk)
                    ratio = r.evaluate(n, k)
                except (TermEvalError, ZeroDivisionError):
                    continue
                if here:
                    assert there == ratio * here, (name, dn, dk, n, k)
                    compared += 1
            assert compared >= 10, (name, dn, dk)


def test_shift_quotient_backward_k():
    g2 = doc("guillera2.G").term
    r = shift_quotient(g2, 0, -1)
    for n in range(1, 7):
        for k in range(2, n + 1):
            assert eval_term(g2, n, k - 1) == r.evaluate(n, k) * eval_term(g2, n, k)


def test_term_quotient_certificates():
    pair1 = (doc("guillera1.F").term, doc("guillera1.G").term)
    cert1 = term_quotient(*pair1)
    assert cert1.render() == (
        "(40*n^3+16*n^2*k-4*n^2-24*n*k^2+24*n*k-6*n-4*k^2+4*k-1)/(32*n^3)")
    assert cert1.evaluate(2, 1) == Fraction(355, 256)

    pair2 = (doc("guillera2.F").term, doc("guillera2.G").term)
    cert2 = term_quotient(*pair2)
    assert cert2.render() == (
        "(480*n^3-96*n^2*k+16*n^2-168*n*k^2+112*n*k-22*n-20*k^2+16*k-3)"
        "/(512*n^3)")
    # the certificate equals F/G wherever both are defined and G != 0
    f2, g2 = pair2
    for n in range(1, 6):
        for k in range(0, n + 1):
            g_val = eval_term(g2, n, k)
            if g_val:
                assert eval_term(f2, n, k) / g_val == cert2.evaluate(n, k)


def test_term_quotient_rejects_non_proportional():
    f1 = doc("guillera1.F").term
    f2 = doc("guillera2.F").term
    with pytest.raises(NotProportionalError):
        term_quotient(f1, f2)


def test_term_quotient_rejects_base_mismatch():
    t = simple_term()
    other = simple_term(base_factors=(BaseFactor(3, LinearForm(1, 0, 0)),))
    with pytest.raises(NotProportionalError):
        term_quotient(t, other)
