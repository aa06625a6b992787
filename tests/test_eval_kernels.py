"""Differential tests: the integer-accumulating evaluation kernels against
the plain Fraction-chain evaluation they replace."""
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from binomsum.exact import binomial
from binomsum.hyperterm import BaseFactor, BinomFactor, HypergeometricTerm, \
    LinearForm, TermEvalError, eval_term
from binomsum.polyalg import BivarPoly


# ---- reference kernels: every factor a normalised Fraction ----

def reference_evaluate(poly: BivarPoly, n, k) -> Fraction:
    total = Fraction(0)
    for (i, j), c in poly.items():
        total += c * Fraction(n) ** i * Fraction(k) ** j
    return total


def reference_eval_term(term: HypergeometricTerm, n: int, k: int) -> Fraction:
    den = reference_evaluate(term.denom_poly, n, k)
    if den == 0:
        raise TermEvalError(f"denominator polynomial vanishes at (n={n}, k={k})")
    vanishes = False
    binom_value = Fraction(1)
    for bf in term.binom_factors:
        v = binomial(bf.top.evaluate(n, k), bf.bottom.evaluate(n, k))
        if v == 0:
            if bf.power < 0:
                raise TermEvalError(
                    f"binom({bf.top.render()},{bf.bottom.render()}) is 0 at "
                    f"(n={n}, k={k}) but has power {bf.power}")
            vanishes = True
        elif not vanishes:
            binom_value *= Fraction(v) ** bf.power
    if vanishes:
        return Fraction(0)
    value = binom_value * reference_evaluate(term.numer_poly, n, k) / den
    for bf in term.base_factors:
        value *= Fraction(bf.base) ** bf.exponent.evaluate(n, k)
    if term.sign_exponent.evaluate(n, k) % 2:
        value = -value
    return value


def outcome(fn, *args):
    """The value, or the TermEvalError message, of one evaluation."""
    try:
        return fn(*args)
    except TermEvalError as exc:
        return ("TermEvalError", str(exc))


# ---- strategies ----

small = st.integers(-3, 3)
forms = st.builds(LinearForm, small, small, st.integers(-4, 4))
coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=4)
polys = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                        coefficients, max_size=4).map(BivarPoly)
nonzero_polys = polys.filter(bool)
bases = st.integers(-6, 6).filter(lambda b: abs(b) >= 2)
terms = st.builds(
    HypergeometricTerm,
    sign_exponent=forms,
    base_factors=st.lists(st.builds(BaseFactor, bases, forms),
                          max_size=2).map(tuple),
    binom_factors=st.lists(st.builds(BinomFactor, forms, forms, small),
                           max_size=3).map(tuple),
    numer_poly=polys,
    denom_poly=nonzero_polys,
)
points = st.integers(-3, 8)
arguments = st.one_of(st.integers(-5, 5),
                      st.fractions(min_value=-5, max_value=5,
                                   max_denominator=6))


def term(sign=LinearForm(), bases=(), binoms=(), numer=BivarPoly.const(1),
         denom=BivarPoly.const(1)):
    return HypergeometricTerm(sign, tuple(bases), tuple(binoms), numer, denom)


N, K = LinearForm(1, 0, 0), LinearForm(0, 1, 0)


@settings(max_examples=200, deadline=None)
@given(terms, points, points)
# negative base under a negative exponent: (-3)^(k-n)
@example(term(bases=[BaseFactor(-3, K - N)]), 1, 4)
# negative binomial power: C(2n,n)^-2
@example(term(binoms=[BinomFactor(N.scale(2), N, -2)]), 3, 0)
# binomial vanishing under the zero convention, positive power: C(n,k), k > n
@example(term(binoms=[BinomFactor(N, K, 1)], numer=BivarPoly.linear(1, 1, 1)),
         2, 5)
# zero binomial under a negative power: C(n,k)^-1 with k > n
@example(term(binoms=[BinomFactor(N, K, -1)]), 2, 5)
# a vanishing binomial before a zero one under a negative power
@example(term(binoms=[BinomFactor(N, K, 2), BinomFactor(N, K, -1)]), 2, 5)
# zero denominator polynomial: 1 / (n - k)
@example(term(denom=BivarPoly.linear(1, -1, 0)), 3, 3)
# negative denominator with fractional coefficients: (n/2) / (1/3 - n)
@example(term(numer=BivarPoly({(1, 0): Fraction(1, 2)}),
              denom=BivarPoly({(1, 0): -1, (0, 0): Fraction(1, 3)})), 4, 0)
def test_eval_term_matches_fraction_chain(t, n, k):
    expected = outcome(reference_eval_term, t, n, k)
    got = outcome(eval_term, t, n, k)
    assert got == expected
    assert type(got) is type(expected)


@settings(max_examples=200, deadline=None)
@given(polys, arguments, arguments)
@example(BivarPoly(), 3, 4)
@example(BivarPoly({(0, 0): Fraction(1, 2), (2, 1): Fraction(-5, 6)}),
         Fraction(3, 4), -2)
@example(BivarPoly({(1, 1): Fraction(2, 3)}), 0, Fraction(-1, 5))
def test_evaluate_matches_fraction_chain(poly, n, k):
    got = poly.evaluate(n, k)
    assert type(got) is Fraction
    assert got == reference_evaluate(poly, n, k)


@settings(max_examples=200, deadline=None)
@given(terms, points, points, small, small)
def test_shifted_term_evaluates_at_the_shifted_point(t, n, k, dn, dk):
    shifted = outcome(eval_term, t.shifted(dn, dk), n, k)
    direct = outcome(eval_term, t, n + dn, k + dk)
    if isinstance(direct, tuple):  # both raise, with messages naming the point
        assert isinstance(shifted, tuple) and shifted[0] == direct[0]
    else:
        assert shifted == direct
