"""Hypergeometric terms built from binomials, bases, signs and polynomials.

A term is the product

    (-1)^(sign) * prod base_i^(e_i) * prod binom(top_j, bottom_j)^(p_j)
        * numer_poly / denom_poly

where sign and every exponent e_i, top_j, bottom_j is an integer linear
form in n and k. Binomials are stored as binomials so evaluation can use
the zero convention; they are expanded into factorial triples only inside
term_quotient, which returns a formal RationalFunction (a shift quotient is
the term_quotient of the shifted term and the term).  Formal identities are
therefore only asserted on grids where no factorial argument goes negative.

A term is evaluated at one point by one kernel, eval_term_pair, to an
unreduced pair (num, den) of ints; eval_term is that pair reduced once to
a Fraction.  eval_term_row gives eval_term_pair's pairs along a run of k
at fixed n: it maps math.comb over each binomial's argument runs, takes
what does not move with k once per row, and falls back to eval_term_pair
point by point on a run where some binomial can vanish.  The certificate
audits read rows, compare pairs by cross-multiplication and build a
Fraction only for a value they report.  k0_prefix_sums steps the sum of
term(n, 0) over n < N along a range of N, as verify.sums steps S(n).
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import partial, reduce
from itertools import repeat
from operator import mul
from typing import NamedTuple

from .exact import binomial, int_valuation, primes_upto
from .polyalg import BivarPoly, RationalFunction
from .records import Validated


class TermEvalError(ValueError):
    """A term could not be evaluated at a point (zero denominator, 0^-p)."""


class NotProportionalError(ValueError):
    """Two terms whose quotient is not a rational function of n and k."""


class LinearForm(NamedTuple):
    """The integer linear form a*n + b*k + c."""

    a: int = 0
    b: int = 0
    c: int = 0

    def evaluate(self, n: int, k: int) -> int:
        return self.a * n + self.b * k + self.c

    def shifted(self, dn: int, dk: int) -> "LinearForm":
        """The form under n -> n+dn, k -> k+dk."""
        return LinearForm(self.a, self.b, self.evaluate(dn, dk))

    @property
    def slope(self) -> tuple[int, int]:
        return (self.a, self.b)

    def is_constant(self) -> bool:
        return self.a == 0 and self.b == 0

    def __add__(self, other: "LinearForm") -> "LinearForm":
        return LinearForm(self.a + other.a, self.b + other.b, self.c + other.c)

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return LinearForm(self.a - other.a, self.b - other.b, self.c - other.c)

    def scale(self, m: int) -> "LinearForm":
        return LinearForm(self.a * m, self.b * m, self.c * m)

    def as_poly(self) -> BivarPoly:
        return BivarPoly.linear(self.a, self.b, self.c)

    def render(self) -> str:
        return self.as_poly().render()


ZERO_FORM = LinearForm(0, 0, 0)


class BaseFactor(NamedTuple):
    """base ** (integer linear form); |base| must be at least 2."""

    base: int
    exponent: LinearForm


class BinomFactor(NamedTuple):
    """binom(top, bottom) ** power with the zero convention at evaluation."""

    top: LinearForm
    bottom: LinearForm
    power: int = 1


_ONE = BivarPoly.const(1)


class _TermFields(NamedTuple):
    sign_exponent: LinearForm = ZERO_FORM
    base_factors: tuple[BaseFactor, ...] = ()
    binom_factors: tuple[BinomFactor, ...] = ()
    numer_poly: BivarPoly = _ONE
    denom_poly: BivarPoly = _ONE


class HypergeometricTerm(Validated, _TermFields):
    __slots__ = ()

    def _validate(self) -> None:
        for bf in self.base_factors:
            if abs(bf.base) < 2:
                raise ValueError(f"base {bf.base} must have absolute value >= 2")
        if self.denom_poly.is_zero():
            raise ValueError("denominator polynomial is zero")

    def shifted(self, dn: int, dk: int) -> "HypergeometricTerm":
        """The term t(n+dn, k+dk)."""
        return HypergeometricTerm(
            self.sign_exponent.shifted(dn, dk),
            tuple(BaseFactor(bf.base, bf.exponent.shifted(dn, dk))
                  for bf in self.base_factors),
            tuple(BinomFactor(bf.top.shifted(dn, dk),
                              bf.bottom.shifted(dn, dk), bf.power)
                  for bf in self.binom_factors),
            self.numer_poly.shift(dn, dk),
            self.denom_poly.shift(dn, dk))


class _DocumentFields(NamedTuple):
    name: str
    term: HypergeometricTerm
    note: str = ""


class TermDocument(Validated, _DocumentFields):
    """A named term plus the free-text note carried by its DSL source."""

    __slots__ = ()

    def _validate(self) -> None:
        if not self.name or any(ch.isspace() for ch in self.name):
            raise ValueError(f"invalid term name {self.name!r}")


def _pole(n: int, k: int) -> TermEvalError:
    return TermEvalError(f"denominator polynomial vanishes at (n={n}, k={k})")


def eval_term_pair(term: HypergeometricTerm, n: int,
                   k: int) -> tuple[int, int]:
    """Exact value of the term at integer (n, k) as an unreduced pair
    (num, den) of ints with den > 0, value = num / den.

    A binomial factor that vanishes under the zero convention makes the
    whole term 0, the pair (0, 1), when its power is positive; vanishing
    under a negative power raises TermEvalError, as does a zero
    denominator polynomial.

    Every factor is multiplied into the integer numerator or the integer
    denominator, by the sign of its power; the polynomials enter through
    their common denominators (BivarPoly.evaluate_pair).  Nothing is
    reduced: callers compare pairs by cross-multiplication and build a
    Fraction only for a value they report.
    """
    denom_total, denom_lcm = term.denom_poly.evaluate_pair(n, k)
    if denom_total == 0:
        raise _pole(n, k)
    num = den = 1
    vanishes = False
    for bf in term.binom_factors:
        # Forms unpacked, not LinearForm.evaluate: every audit runs this loop.
        (ta, tb, tc), (ba, bb, bc), power = bf
        v = binomial(ta * n + tb * k + tc, ba * n + bb * k + bc)
        if v == 0:
            if power < 0:
                raise TermEvalError(
                    f"binom({bf.top.render()},{bf.bottom.render()}) is 0 at "
                    f"(n={n}, k={k}) but has power {power}")
            vanishes = True
        elif not vanishes:
            if power >= 0:
                num *= v if power == 1 else v ** power
            else:
                den *= v if power == -1 else v ** -power
    if vanishes:
        return 0, 1
    numer_total, numer_lcm = term.numer_poly.evaluate_pair(n, k)
    num *= numer_total * denom_lcm
    den *= numer_lcm * denom_total
    for base, (a, b, c) in term.base_factors:
        e = a * n + b * k + c
        if e >= 0:
            num *= base ** e
        else:
            den *= base ** -e
    if term.sign_exponent.evaluate(n, k) % 2:
        num = -num
    return (-num, -den) if den < 0 else (num, den)


def _pair_or_error(term: HypergeometricTerm, n: int,
                   k: int) -> tuple[int, int] | TermEvalError:
    try:
        return eval_term_pair(term, n, k)
    except TermEvalError as exc:
        return exc


def _run(start: int, step: int, size: int):
    """start, start + step, ...: size values of a form linear in k."""
    return range(start, start + step * size, step) if step \
        else repeat(start, size)


def _moves_in_k(poly: BivarPoly) -> bool:
    return any(j for (_, j), _ in poly.items())


def eval_term_row(term: HypergeometricTerm, n: int,
                  ks: range) -> list[tuple[int, int] | TermEvalError]:
    """eval_term_pair(term, n, k) for each k of ks, a run of step 1: the
    same unreduced pair of ints, or the TermEvalError it raises, as a value.

    When every binomial factor C(t, b) has 0 <= b <= t at both ends of the
    run, it has them throughout, t and b being linear in k, and none is 0.
    Each is then math.comb mapped over its two argument runs and folded
    into the numerators or the denominators by map(mul, ...).  A binomial
    or a polynomial that does not move with k is evaluated once per row;
    the other polynomials, the bases and the sign are multiplied in at
    each point.  A run on which some binomial leaves that interior is
    evaluated by eval_term_pair point by point, so the zero convention and
    its errors are that kernel's own.  Integer products do not depend on
    their order, so each pair is eval_term_pair's, int for int; that
    kernel stays the reference.
    """
    if ks.step != 1:
        raise ValueError("eval_term_row needs a run of k of step 1")
    size, k0 = len(ks), ks.start
    fixed = [1, 1]  # numerator and denominator of the factors fixed in k
    moving: tuple[list, list] = ([], [])  # their runs for those that move
    for (ta, tb, tc), (ba, bb, bc), power in term.binom_factors:
        top, bottom = ta * n + tb * k0 + tc, ba * n + bb * k0 + bc
        if not (0 <= bottom <= top
                and 0 <= bottom + bb * (size - 1) <= top + tb * (size - 1)):
            return [_pair_or_error(term, n, k) for k in ks]
        side, power = power < 0, abs(power)
        if not power:
            continue
        if tb == bb == 0:
            fixed[side] *= math.comb(top, bottom) ** power
            continue
        values = map(math.comb, _run(top, tb, size), _run(bottom, bb, size))
        moving[side].append(values if power == 1
                            else map(pow, values, repeat(power)))
    numer, denom = term.numer_poly, term.denom_poly
    numer_moves, denom_moves = _moves_in_k(numer), _moves_in_k(denom)
    if not numer_moves:
        total, lcm = numer.evaluate_pair(n, k0)
        fixed[0] *= total
        fixed[1] *= lcm
    if not denom_moves:
        total, lcm = denom.evaluate_pair(n, k0)
        if not total:
            return [_pole(n, k) for k in ks]
        fixed[0] *= lcm
        fixed[1] *= total
    nums, dens = (reduce(partial(map, mul), runs, repeat(start, size))
                  for start, runs in zip(fixed, moving))
    bases = [(base, a * n + c, b) for base, (a, b, c) in term.base_factors]
    sa, sb, sc = term.sign_exponent
    row: list[tuple[int, int] | TermEvalError] = []
    for k, num, den in zip(ks, nums, dens):
        if denom_moves:
            total, lcm = denom.evaluate_pair(n, k)
            if not total:
                row.append(_pole(n, k))
                continue
            num, den = num * lcm, den * total
        if numer_moves:
            total, lcm = numer.evaluate_pair(n, k)
            num, den = num * total, den * lcm
        for base, e0, b in bases:
            e = e0 + b * k
            if e >= 0:
                num *= base ** e
            else:
                den *= base ** -e
        if (sa * n + sb * k + sc) % 2:
            num = -num
        row.append((-num, -den) if den < 0 else (num, den))
    return row


def eval_term(term: HypergeometricTerm, n: int, k: int) -> Fraction:
    """Exact value of the term at integer (n, k): eval_term_pair reduced
    once, to a Fraction."""
    return Fraction(*eval_term_pair(term, n, k))


def k0_prefix_sums(term: HypergeometricTerm, big_ns: range):
    """Yield the sum of term(n, 0) over 0 <= n < N for each N of big_ns, a
    range of N >= 0 of step 1, as a pair (num, den), den > 0 the lcm of the
    denominators of the eval_term_pair summands.

    The sum steps from n = 0 and keeps only its running value, evaluating
    each term(n, 0) with n < big_ns.stop - 1 once.  Past an n where
    term(n, 0) is undefined, each N yields that TermEvalError instead.
    """
    if big_ns.step != 1 or big_ns.start < 0:
        raise ValueError("k0_prefix_sums needs a range of N >= 0 of step 1")
    num, den, error = 0, 1, None
    for n in range(big_ns.stop if big_ns else 0):
        if n >= big_ns.start:
            yield (num, den) if error is None else error
        if error is None and n < big_ns.stop - 1:
            try:
                t_num, t_den = eval_term_pair(term, n, 0)
                common = math.lcm(den, t_den)
                num = num * (common // den) + t_num * (common // t_den)
                den = common
            except TermEvalError as exc:
                error = exc


def _factorial_atoms(term: HypergeometricTerm) -> dict[LinearForm, int]:
    """Signed multiset of factorial arguments from the binomial factors.

    binom(t, b)^p contributes t! to the power p and b!, (t-b)! to the
    power -p. Exponents accumulate; zero entries are dropped.
    """
    atoms: Counter[LinearForm] = Counter()
    for bf in term.binom_factors:
        atoms[bf.top] += bf.power
        atoms[bf.bottom] -= bf.power
        atoms[bf.top - bf.bottom] -= bf.power
    return {L: e for L, e in atoms.items() if e}


def shift_quotient(term: HypergeometricTerm, dn: int,
                   dk: int) -> RationalFunction:
    """term(n+dn, k+dk) / term(n, k) as a formal rational function: the
    term_quotient of the shifted term and the term, for any shift."""
    return term_quotient(term.shifted(dn, dk), term)


def term_quotient(t1: HypergeometricTerm,
                  t2: HypergeometricTerm) -> RationalFunction:
    """t1(n, k) / t2(n, k) as a formal rational function.

    Factorial atoms are grouped by slope (a, b); within a slope the
    exponents must sum to zero, and every atom is rewritten relative to
    the smallest constant offset so the shared factorial cancels and
    only finite products of linear forms remain. Bases are compared
    prime by prime (negative bases fold their sign into the sign form).
    Raises NotProportionalError when any of that fails.
    """
    atoms: Counter[LinearForm] = Counter(_factorial_atoms(t1))
    for L, e in _factorial_atoms(t2).items():
        atoms[L] -= e

    by_slope: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for L, e in atoms.items():
        if e:
            by_slope.setdefault(L.slope, []).append((L.c, e))

    factors: Counter[BivarPoly] = Counter()
    for (a, b), offsets in sorted(by_slope.items()):
        if sum(e for _, e in offsets):
            raise NotProportionalError(
                f"factorial atoms with slope ({a},{b}) do not cancel")
        c_min = min(c for c, _ in offsets)
        for c, e in offsets:
            for j in range(c_min + 1, c + 1):
                factors[LinearForm(a, b, j).as_poly()] += e

    sign = t1.sign_exponent - t2.sign_exponent
    prime_exps: dict[int, LinearForm] = {}
    for sgn, term in ((1, t1), (-1, t2)):
        for bf in term.base_factors:
            if bf.base < 0:
                sign = sign + bf.exponent.scale(sgn)
            m = abs(bf.base)
            powers = {p: int_valuation(p, m)
                      for p in primes_upto(math.isqrt(m)) if m % p == 0}
            rest = m // math.prod(p ** e for p, e in powers.items())
            if rest > 1:  # what is left above sqrt(|base|) is one prime
                powers[rest] = 1
            for p, e in powers.items():
                cur = prime_exps.get(p, ZERO_FORM)
                prime_exps[p] = cur + bf.exponent.scale(sgn * e)

    scalar = Fraction(1)
    for p in sorted(prime_exps):
        L = prime_exps[p]
        if not L.is_constant():
            raise NotProportionalError(
                f"base {p} carries a non-constant exponent {L.render()}")
        scalar *= Fraction(p) ** L.c
    if sign.a % 2 or sign.b % 2:
        raise NotProportionalError(
            f"sign exponent {sign.render()} is not constant modulo 2")
    if sign.c % 2:
        scalar = -scalar

    factors[t1.numer_poly] += 1
    factors[t1.denom_poly] -= 1
    factors[t2.numer_poly] -= 1
    factors[t2.denom_poly] += 1
    return RationalFunction.from_factors(factors, scalar)
