import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from binomsum.hyperterm import shift_quotient
from binomsum.pairs import builtin_document, builtin_document_names
from binomsum.polyalg import BivarPoly, RationalFunction, _gcd


def poly(coeffs):
    return BivarPoly(coeffs)


def test_constructor_drops_zero_coefficients():
    p = poly({(1, 0): 0, (0, 1): 3})
    assert len(p) == 1
    assert p.coefficient(1, 0) == 0
    assert p.coefficient(0, 1) == 3


def test_constructor_rejects_negative_exponents():
    with pytest.raises(ValueError):
        poly({(-1, 0): 1})


def test_linear_constructor_and_eval():
    p = BivarPoly.linear(2, -3, 5)
    assert p.evaluate(4, 1) == 2 * 4 - 3 * 1 + 5
    assert p.render() == "2*n-3*k+5"


def test_arithmetic_and_degrees():
    p = BivarPoly.linear(1, 1, 0)       # n + k
    q = BivarPoly.linear(1, -1, 0)      # n - k
    prod = p * q
    assert prod == poly({(2, 0): 1, (0, 2): -1})
    assert prod.total_degree() == 2
    assert max(i for (i, _), _ in prod.items()) == 2  # degree in n
    assert max(j for (_, j), _ in prod.items()) == 2  # degree in k
    assert (p - p).is_zero()
    assert (p + q) == poly({(1, 0): 2})


def test_power_and_shift():
    p = BivarPoly.linear(1, 0, 1)  # n + 1
    assert p ** 3 == poly({(3, 0): 1, (2, 0): 3, (1, 0): 3, (0, 0): 1})
    shifted = BivarPoly.linear(1, 2, 0).shift(1, -1)  # n+1 + 2(k-1)
    assert shifted == BivarPoly.linear(1, 2, -1)


def test_rational_function_divides_exactly_or_keeps_a_denominator():
    p = BivarPoly.linear(1, 1, 0)
    q = BivarPoly.linear(1, -1, 0)
    prod = p * q
    assert RationalFunction(prod, p) == RationalFunction(q, BivarPoly.const(1))
    inexact = RationalFunction(prod, BivarPoly.linear(1, 0, 1))
    assert inexact.numerator == prod
    assert inexact.denominator == BivarPoly.linear(1, 0, 1)


def test_render_canonical_ordering():
    p = poly({(0, 0): -1, (1, 1): 4, (2, 0): 3, (0, 2): -2})
    assert p.render() == "3*n^2+4*n*k-2*k^2-1"
    assert BivarPoly.zero().render() == "0"
    assert BivarPoly.const(Fraction(-7, 2)).render() == "-7/2"


coeff = st.integers(-9, 9)
small_poly = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), coeff, max_size=5
).map(BivarPoly)


@given(small_poly, small_poly, st.integers(-4, 4), st.integers(-4, 4))
def test_ring_operations_agree_with_evaluation(p, q, n, k):
    assert (p + q).evaluate(n, k) == p.evaluate(n, k) + q.evaluate(n, k)
    assert (p - q).evaluate(n, k) == p.evaluate(n, k) - q.evaluate(n, k)
    assert (p * q).evaluate(n, k) == p.evaluate(n, k) * q.evaluate(n, k)


@given(small_poly, small_poly)
def test_equality_is_structural(p, q):
    same = all(p.coefficient(i, j) == q.coefficient(i, j)
               for i in range(4) for j in range(4))
    assert (p == q) == same


def test_rational_function_cancels_common_factor():
    p = BivarPoly.linear(1, 1, 0)
    q = BivarPoly.linear(1, -1, 0)
    r = RationalFunction(p * q, q)
    assert r == RationalFunction(p, BivarPoly.const(1))
    assert r.render() == "n+k"


def test_rational_function_from_factors():
    # (n+k)^2 / (2n) with scalar 3/2
    r = RationalFunction.from_factors(
        {BivarPoly.linear(1, 1, 0): 2, BivarPoly.linear(2, 0, 0): -1},
        Fraction(3, 2))
    assert r.evaluate(3, 1) == Fraction(3, 2) * 16 / 6
    assert r.render() == "(3*n^2+6*n*k+3*k^2)/(4*n)"
    # associated factors merge once content and sign go to the scalar
    lin = BivarPoly.linear(1, -1, 2)
    r = RationalFunction.from_factors({lin: 2, lin * Fraction(-3, 2): -1})
    assert r.render() == "(-2*n+2*k-4)/(3)"


def _product_of_factors(factors, scalar):
    """RationalFunction(num, den) of the multiplied-out factors: one gcd."""
    s = Fraction(scalar)
    num, den = BivarPoly.const(s.numerator), BivarPoly.const(s.denominator)
    for p, e in factors.items():
        if e > 0:
            num = num * p ** e
        elif e < 0:
            den = den * p ** -e
    return RationalFunction(num, den)


def _random_factors(rng):
    def linear():
        while True:
            a, b, c = (rng.randint(-3, 3) for _ in range(3))
            if a or b:
                return BivarPoly.linear(a, b, c)

    def scaled(p):
        return p * rng.choice([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 5)])

    pool = [linear() for _ in range(3)]
    candidates = [
        lambda: scaled(rng.choice(pool)),
        lambda: scaled(rng.choice(pool) * rng.choice(pool)),
        lambda: scaled(rng.choice(pool) * poly({(2, 0): 1, (0, 2): 1, (0, 0): 1})),
        lambda: poly({(1, 1): rng.choice([1, -2]), (0, 0): 1}),
        lambda: BivarPoly.const(rng.choice([2, -3, Fraction(5, 7)])),
    ]
    factors = {}
    for _ in range(rng.randint(2, 7)):
        factors[rng.choice(candidates)()] = rng.randint(-2, 2)
    return factors, Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))


def test_from_factors_matches_the_reduced_product():
    rng = random.Random(20261018)
    for _ in range(100):
        factors, scalar = _random_factors(rng)
        got = RationalFunction.from_factors(factors, scalar)
        want = _product_of_factors(factors, scalar)
        assert got.render() == want.render(), (factors, scalar)
        assert hash(got) == hash(want) and got == want


def test_from_factors_matches_the_reduced_product_on_builtin_shifts(monkeypatch):
    # the factors shift_quotient passes for every builtin document and
    # shift of test_shift_quotient_reproduces_ratios; the one big gcd is
    # cheap only for |dn|, |dk| <= 1, so the digest pins the renders it
    # gives on all of them (about 100 s of gcds on 2 vCPUs)
    captured = []
    from_factors = RationalFunction.from_factors.__func__

    def spy(cls, factors, scalar=1):
        captured.append((dict(factors), scalar))
        return from_factors(cls, factors, scalar)

    monkeypatch.setattr(RationalFunction, "from_factors", classmethod(spy))
    lines = []
    for name in builtin_document_names():
        for dn, dk in list(product(range(-2, 3), repeat=2)) + [(0, 5), (5, 0)]:
            got = shift_quotient(builtin_document(name).term, dn, dk)
            lines.append(f"{name} {dn} {dk} {got.render()}")
            if abs(dn) <= 1 and abs(dk) <= 1:
                want = _product_of_factors(*captured[-1])
                assert got.render() == want.render(), (name, dn, dk)
                assert hash(got) == hash(want), (name, dn, dk)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "74fc82bb37026a370022bcad6125ab7f2c682f80014c79e0d2818608cdd93196"


def test_from_factors_zero_factor():
    zero, lin = BivarPoly.zero(), BivarPoly.linear(1, 1, 0)
    assert RationalFunction.from_factors({zero: 2, lin: -1}).is_zero()
    assert RationalFunction.from_factors({lin: 1}, 0).is_zero()
    assert RationalFunction.from_factors({zero: 0, lin: 1}) \
        == RationalFunction(lin, BivarPoly.const(1))
    with pytest.raises(ZeroDivisionError):
        RationalFunction.from_factors({zero: -1, lin: 1})


def test_rational_function_equality_cross_multiplies():
    a = RationalFunction(BivarPoly.linear(2, 2, 0), BivarPoly.linear(0, 0, 2))
    b = RationalFunction(BivarPoly.linear(1, 1, 0), BivarPoly.const(1))
    assert a == b
    assert (a - b).is_zero()


def test_rational_function_arithmetic():
    n_over_k = RationalFunction(BivarPoly.linear(1, 0, 0),
                                BivarPoly.linear(0, 1, 0))
    k_over_n = RationalFunction(BivarPoly.linear(0, 1, 0),
                                BivarPoly.linear(1, 0, 0))
    assert (n_over_k * k_over_n) == RationalFunction.const(1)
    assert (n_over_k / n_over_k) == RationalFunction.const(1)
    total = n_over_k + k_over_n
    assert total.evaluate(2, 3) == Fraction(2, 3) + Fraction(3, 2)


def test_rational_function_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(BivarPoly.const(1), BivarPoly.zero())


def test_denominator_sign_normalization():
    r = RationalFunction(BivarPoly.linear(0, 0, 1), BivarPoly.linear(-1, 0, 0))
    assert r.render() == "(-1)/(n)"
    assert r.evaluate(2, 0) == Fraction(-1, 2)


rat_pair = st.tuples(small_poly, small_poly.filter(lambda p: not p.is_zero()))


@settings(max_examples=60)
@given(rat_pair, rat_pair)
# a pair whose cross-products are large: exercises the Henrici arithmetic
@example((poly({(3, 0): 5}),
          poly({(1, 3): -5, (0, 3): -7, (0, 2): 1, (0, 1): 5, (0, 0): 6})),
         (poly({(3, 1): 6}),
          poly({(3, 1): 3, (2, 3): 5, (2, 1): -6, (1, 1): -9, (0, 0): 6})))
def test_rational_function_field_laws(a, b):
    x = RationalFunction(*a)
    y = RationalFunction(*b)
    assert x + y == y + x
    assert x * y == y * x
    assert (x - y) + y == x
    if not y.is_zero():
        assert (x / y) * y == x


@settings(max_examples=60)
@given(rat_pair)
def test_canonical_render_is_stable(a):
    x = RationalFunction(*a)
    rebuilt = RationalFunction(x.numerator, x.denominator)
    assert rebuilt.render() == x.render()
    assert rebuilt == x


N, K, ONE = BivarPoly({(1, 0): 1}), BivarPoly({(0, 1): 1}), BivarPoly.const(1)

big_linear = st.tuples(*[st.integers(-10 ** 7, 10 ** 7)] * 3).map(
    lambda abc: BivarPoly.linear(*abc))
nonzero_poly = small_poly.filter(lambda p: not p.is_zero())


def assert_same_canonical_form(x, y):
    assert x == y
    assert x.render() == y.render()
    assert hash(x) == hash(y)


@settings(max_examples=60)
@given(st.one_of(big_linear, small_poly).filter(lambda p: not p.is_zero()),
       small_poly, nonzero_poly)
def test_common_factor_cancels_to_one_canonical_form(a, b, c):
    assert_same_canonical_form(RationalFunction(a * b, a * c),
                               RationalFunction(b, c))


@pytest.mark.parametrize("a", [
    BivarPoly.linear(1000003, 1000033, 7),
    N ** 2 + K ** 2 + ONE,
    N ** 3 + K + ONE,
], ids=["big_linear", "n2_k2_1", "n3_k_1"])
def test_factors_beyond_linear_and_small_cancel(a):
    b = N ** 2 + BivarPoly.linear(0, 3, 1)
    c = BivarPoly.linear(2, -1, 5) * K
    x = RationalFunction(a * b, a * c)
    assert_same_canonical_form(x, RationalFunction(b, c))
    assert x.render() == "(n^2+3*k+1)/(2*n*k-k^2+5*k)"


def ints(p):
    return {m: int(c) for m, c in p.items()}


@pytest.mark.parametrize("a, b, g", [
    # a zero argument: the primitive part of the other, sign normalised
    (BivarPoly.zero(), BivarPoly.linear(-2, 0, -4), BivarPoly.linear(1, 0, 2)),
    (BivarPoly.linear(0, 3, 6), BivarPoly.zero(), BivarPoly.linear(0, 1, 2)),
    # constants: integer contents are left to the caller
    (BivarPoly.const(6), BivarPoly.const(4), ONE),
    (BivarPoly.const(-3), N * K + ONE, ONE),
    # univariate in n, and in k
    (BivarPoly.linear(1, 0, -1) * BivarPoly.linear(1, 0, 2),
     BivarPoly.linear(2, 0, 4) * BivarPoly.linear(1, 0, 3),
     BivarPoly.linear(1, 0, 2)),
    (K ** 3 - K, K ** 2 + K + K + ONE, BivarPoly.linear(0, 1, 1)),
    # a gcd that is only the content in the main variable
    (K * BivarPoly.linear(1, 0, 1), K * BivarPoly.linear(1, 0, 2), K),
    (BivarPoly.linear(0, 2, 2) * (N + ONE), BivarPoly.linear(0, 3, 3) * (N * N + K),
     BivarPoly.linear(0, 1, 1)),
    # a bivariate factor of degree 2 under both main variables
    ((N ** 2 + K ** 2 + ONE) * (N + K), (N ** 2 + K ** 2 + ONE) * (N - K) * K ** 3,
     N ** 2 + K ** 2 + ONE),
    ((N ** 2 + K ** 2 + ONE) * (N ** 3 + K), -(N ** 2 + K ** 2 + ONE) * K ** 4,
     N ** 2 + K ** 2 + ONE),
    # coprime inputs
    (N ** 2 + K, N + K ** 2, ONE),
])
def test_gcd_edge_cases(a, b, g):
    assert _gcd(ints(a), ints(b)) == ints(g)
    assert _gcd(ints(b), ints(a)) == ints(g)


def test_cancel_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    n, k = sympy.symbols("n k")
    rng = random.Random(20161)

    def factor():
        if rng.random() < 0.5:
            return BivarPoly.linear(*(rng.randint(-6, 6) for _ in range(3)))
        return BivarPoly({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-5, 5)
                          for _ in range(3)})

    def expr(p):
        return sum(int(c) * n ** i * k ** j for (i, j), c in p.items())

    for _ in range(40):
        fs = [f if not f.is_zero() else ONE for f in (factor() for _ in range(5))]
        num, den = fs[0] * fs[1] * fs[2], fs[0] * fs[3] * fs[4] * fs[3]
        r = RationalFunction(num, den)
        p, q = sympy.fraction(sympy.cancel(expr(num) / expr(den)))
        # both reduced: the numerators differ by a constant factor only
        assert not sympy.cancel(expr(r.numerator) / p).free_symbols
        assert sympy.expand(expr(r.numerator) * q - p * expr(r.denominator)) == 0
