"""Differential tests: the integer-accumulating evaluation kernels against
the plain Fraction-chain evaluation they replace, and the audits built on
unreduced integer pairs against the same audits over Fractions."""
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import binomsum.verify as verify_module
from binomsum.exact import binomial
from binomsum.hyperterm import BaseFactor, BinomFactor, HypergeometricTerm, \
    LinearForm, TermDocument, TermEvalError, eval_term, eval_term_pair, \
    eval_term_row
from binomsum.pairs import builtin_pair
from binomsum.polyalg import BivarPoly
from binomsum.report import number_text
from binomsum.verify import divide, divisor, ratio_identity, \
    ratio_k_values, ratio_row_failures
from binomsum.wz import TelescopeAudit, telescope_audit, wz_grid_rows


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
    pair = outcome(eval_term_pair, t, n, k)
    if isinstance(got, tuple):  # the same TermEvalError message
        assert pair == got
    else:  # an unreduced pair of ints, den > 0, equal to it once reduced
        num, den = pair
        assert type(num) is int and type(den) is int and den > 0
        assert Fraction(num, den) == got


def test_eval_term_pair_is_zero_over_one_under_the_zero_convention():
    # C(n, k) vanishes for k > n; C(n+k, k)^-2, 3^(k-n) and 1/(n+k+1) don't
    vanishing = term(binoms=[BinomFactor(N, K, 1), BinomFactor(N + K, K, -2)],
                     bases=[BaseFactor(-3, K - N)],
                     denom=BivarPoly.linear(1, 1, 1))
    assert eval_term_pair(vanishing, 2, 5) == (0, 1)
    assert eval_term_pair(vanishing, 1, 3) == (0, 1)
    assert eval_term_pair(vanishing, 5, 2) != (0, 1)


@settings(max_examples=200, deadline=None)
@given(terms, points, points, st.integers(0, 8))
# factors that do not move with k, taken once per row: C(2n,n)^3, 2n^3 and
# a denominator n + 1
@example(term(binoms=[BinomFactor(N.scale(2), N, 3), BinomFactor(N + K, K, 1)],
              numer=BivarPoly({(3, 0): 2}), denom=BivarPoly.linear(1, 0, 1)),
         4, 0, 6)
# a k-free denominator that vanishes at this n: every point is a pole
@example(term(binoms=[BinomFactor(N + K, K, 1)],
              denom=BivarPoly.linear(1, 0, -3)), 3, 0, 4)
# C(n,k)^-1 leaves 0 <= k <= n at k = 4: the run falls back per point
@example(term(binoms=[BinomFactor(N + K, K, 1), BinomFactor(N, K, -1)],
              bases=[BaseFactor(-3, K - N)]), 3, 1, 6)
# a denominator pole at k = 3 only: 1 / (n - k)
@example(term(binoms=[BinomFactor(N + K, K, 2)], sign=N + K,
              denom=BivarPoly.linear(1, -1, 0)), 3, 0, 6)
# an empty run
@example(term(binoms=[BinomFactor(N, K, 1)]), 2, 5, 0)
def test_eval_term_row_matches_eval_term_pair(t, n, start, length):
    ks = range(start, start + length)
    row = eval_term_row(t, n, ks)
    assert len(row) == length
    for k, got in zip(ks, row):
        expected = outcome(eval_term_pair, t, n, k)
        if isinstance(got, TermEvalError):  # the same message, as a value
            assert ("TermEvalError", str(got)) == expected
        else:  # the same ints, unreduced
            assert got == expected
            assert [type(x) for x in got] == [int, int]


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


# ---- audits on unreduced pairs against the same audits over Fractions ----

def reference_grid(pair, n_max: int) -> list:
    """(point, lhs, rhs) of each grid violation, over reduced Fractions."""
    f, g = pair.f.term, pair.g.term
    found = []
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            lhs = reference_eval_term(f, n, k - 1) - reference_eval_term(f, n, k)
            rhs = reference_eval_term(g, n + 1, k) - reference_eval_term(g, n, k)
            if lhs != rhs:
                found.append(((n, k), lhs, rhs))
    return found


def with_g_poly(pair, poly: BivarPoly):
    g_doc = TermDocument(pair.g.name, pair.g.term._replace(numer_poly=poly),
                         pair.g.note)
    return pair._replace(g=g_doc)


@pytest.mark.parametrize("name, poly", [
    ("guillera1", BivarPoly({(3, 0): 3})),                     # 2n^3 -> 3n^3
    # 2n^3 + (n-3)(k-2): G is unchanged on the lines n = 3 and k = 2
    ("guillera1", BivarPoly({(3, 0): 2, (1, 1): 1, (1, 0): -2,
                             (0, 1): -3, (0, 0): 6})),
    ("guillera2", BivarPoly({(2, 0): 1, (0, 0): Fraction(1, 3)})),
])
def test_perturbed_g_fails_the_grid_where_fractions_fail(name, poly):
    bad = with_g_poly(builtin_pair(name), poly)
    expected = reference_grid(bad, 10)
    got = [v for _, violations, _ in wz_grid_rows(bad, range(1, 11))
           for v in violations]
    assert expected and got == expected
    for _, lhs, rhs in got:  # lowest terms, as the report prints them
        assert type(lhs) is Fraction and type(rhs) is Fraction


@pytest.mark.parametrize("identity", ["g1_gen", "g2_gen"])
@pytest.mark.parametrize("shift", [-1, 1])
def test_wrong_power_of_two_fails_rows_where_ratio_identity_fails(
        monkeypatch, identity, shift):
    offsets = verify_module._TWO_POWER_OFFSETS
    monkeypatch.setitem(offsets, identity, offsets[identity] + shift)
    for big_n in range(2, 12):
        expected = [check for check in (
            ratio_identity(identity, big_n, k)
            for k in ratio_k_values(identity, big_n)) if not check.equal]
        got = ratio_row_failures(identity, big_n)
        assert expected and got == expected
        for check in got:
            assert type(check.lhs) is Fraction and type(check.rhs) is Fraction


def reference_telescope_audit(pair, big_n: int, exp: int) -> TelescopeAudit:
    """telescope_audit over Fractions: the scale is Fraction(B) ** exp."""
    scale = Fraction(pair.scale_base) ** exp
    div = divisor(pair.divisor_kind, big_n)
    f, g = pair.f.term, pair.g.term
    g_terms, total = [], Fraction(0)
    for k in range(1, big_n):
        value = scale * reference_eval_term(g, big_n, k)
        total += value
        g_terms.append((k, divide(value, div)))
    corner = scale * reference_eval_term(f, big_n - 1, big_n - 1)
    conclusion = scale * sum(reference_eval_term(f, n, 0)
                             for n in range(big_n))
    return TelescopeAudit(pair.name, big_n, pair.divisor_kind, div, exp,
                          tuple(g_terms), divide(total, div),
                          divide(corner, div), divide(conclusion, div))


def audit_texts(audit: TelescopeAudit) -> list:
    """Every number of the audit as the report renders it."""
    checks = ([check for _, check in audit.g_terms]
              + [audit.g_sum, audit.corner, audit.conclusion])
    return [[number_text(x) for x in check if x is not None]
            for check in checks]


@pytest.mark.parametrize("name, scale_base", [
    ("guillera1", None), ("guillera2", None), ("guillera2", -3),
    ("guillera1", 5)])
def test_negative_scale_exp_telescope_matches_fraction_audit(name,
                                                             scale_base):
    pair = builtin_pair(name)
    if scale_base is not None:  # as a path pair with its own --scale-base
        pair = pair._replace(scale_base=scale_base)
    for big_n in range(2, 9):
        for exp in (-3, -2, -1, 0, big_n - 1):
            expected = reference_telescope_audit(pair, big_n, exp)
            got = telescope_audit(pair, big_n, scale_exp=exp)
            assert got == expected
            assert got.ok == expected.ok
            assert audit_texts(got) == audit_texts(expected)
