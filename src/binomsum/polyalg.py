"""Bivariate polynomials over Q and rational functions in n and k.

BivarPoly is a sparse map (n-exponent, k-exponent) -> coefficient with no
zero entries, ordered lexicographically with n before k. RationalFunction
keeps an integer-coefficient numerator/denominator pair in a canonical
form: numerator and denominator coprime in Z[n, k], their integer contents
coprime, and the denominator's lex-leading coefficient positive. Equal
rational functions therefore have the same pair, render and hash. The
gcds behind the form are exact: a subresultant pseudo-remainder sequence
over Z[n, k] (W. S. Brown, "On Euclid's algorithm and the computation of
polynomial greatest common divisors", J. ACM, 1971).
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import Iterator, Mapping

from .exact import int_text

Monomial = tuple[int, int]


class BivarPoly:
    """Immutable sparse polynomial in n and k with Fraction coefficients."""

    # _scaled caches the integer form of evaluate_pair, set on first use.
    __slots__ = ("_c", "_scaled")

    def __init__(self, coeffs: Mapping[Monomial, Fraction | int] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if coeffs:
            for (i, j), c in coeffs.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent in monomial ({i},{j})")
                f = Fraction(c)
                if f:
                    clean[(i, j)] = f
        self._c = clean

    # ---- constructors ----

    @classmethod
    def _wrap(cls, coeffs: dict[Monomial, Fraction]) -> "BivarPoly":
        """A polynomial on coeffs, which must hold no zero and only Fractions."""
        p = cls.__new__(cls)
        p._c = coeffs
        return p

    @classmethod
    def zero(cls) -> "BivarPoly":
        return cls()

    @classmethod
    def const(cls, c: Fraction | int) -> "BivarPoly":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def linear(cls, a: int, b: int, c: int) -> "BivarPoly":
        """The linear form a*n + b*k + c."""
        return cls({(1, 0): a, (0, 1): b, (0, 0): c})

    # ---- basic queries ----

    def items(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self._c.items())

    def coefficient(self, i: int, j: int) -> Fraction:
        return self._c.get((i, j), Fraction(0))

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def __len__(self) -> int:
        return len(self._c)

    def total_degree(self) -> int:
        if not self._c:
            return -1
        return max(i + j for i, j in self._c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BivarPoly):
            return self._c == other._c
        if isinstance(other, (int, Fraction)):
            return self._c == BivarPoly.const(other)._c
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    # ---- arithmetic ----

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        return BivarPoly._wrap(_add(self._c, other._c))

    def __neg__(self) -> "BivarPoly":
        return BivarPoly._wrap({m: -c for m, c in self._c.items()})

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        return self + (-other)

    def __mul__(self, other: "BivarPoly | int | Fraction") -> "BivarPoly":
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return BivarPoly._wrap({m: c * f for m, c in self._c.items()} if f else {})
        return BivarPoly._wrap(_mul(self._c, other._c))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "BivarPoly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = BivarPoly.const(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def evaluate_pair(self, n: Fraction | int,
                      k: Fraction | int) -> tuple[int | Fraction, int]:
        """The value at (n, k) as an unreduced pair (total, L), value =
        total / L, with L > 0 the common denominator of the coefficients.

        The coefficients times L are integers, computed on the first call
        and kept with the polynomial.  Integer arguments keep total an
        int; Fraction arguments make it a Fraction.
        """
        try:
            terms, den = self._scaled
        except AttributeError:
            den = math.lcm(*(c.denominator for c in self._c.values()))
            terms = tuple((i, j, c.numerator * (den // c.denominator))
                          for (i, j), c in self._c.items())
            self._scaled = terms, den
        total = 0
        for i, j, c in terms:
            total += c * n ** i * k ** j
        return total, den

    def evaluate(self, n: Fraction | int, k: Fraction | int) -> Fraction:
        """Exact value at (n, k), normalised once: Fraction(total, L) of
        evaluate_pair is the only reduction."""
        return Fraction(*self.evaluate_pair(n, k))

    def shift(self, dn: int, dk: int) -> "BivarPoly":
        """Substitute n -> n + dn, k -> k + dk."""
        if dn == 0 and dk == 0:
            return self
        n, k = BivarPoly.linear(1, 0, dn), BivarPoly.linear(0, 1, dk)
        out = BivarPoly.zero()
        for (i, j), c in self._c.items():
            out = out + n ** i * k ** j * c
        return out

    # ---- content ----

    def content(self) -> Fraction:
        """Positive rational c with self/c integer-primitive (0 for zero)."""
        return Fraction(math.gcd(*(c.numerator for c in self._c.values())),
                        math.lcm(*(c.denominator for c in self._c.values())))

    def primitive(self) -> tuple[Fraction, "BivarPoly"]:
        """(content, primitive part); content carries no sign."""
        if not self._c:
            return Fraction(0), BivarPoly.zero()
        c = self.content()
        return c, self * (1 / c)

    # ---- rendering ----

    def render(self) -> str:
        """Deterministic text: terms in decreasing lex order, explicit signs."""
        if not self._c:
            return "0"
        parts: list[str] = []
        for m in sorted(self._c, reverse=True):
            c = self._c[m]
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            body = _render_term(m, mag)
            if not parts:
                parts.append(body if sign == "+" else "-" + body)
            else:
                parts.append(sign + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"BivarPoly({self.render()})"


def _render_term(m: Monomial, mag: Fraction) -> str:
    i, j = m
    factors: list[str] = []
    if mag != 1 or (i == 0 and j == 0):
        factors.append(int_text(mag.numerator) if mag.denominator == 1 else
                       f"{int_text(mag.numerator)}/{int_text(mag.denominator)}")
    if i:
        factors.append("n" if i == 1 else f"n^{i}")
    if j:
        factors.append("k" if j == 1 else f"k^{j}")
    return "*".join(factors)


# ---- exact gcd in Z[n, k] ----
#
# The gcd works on integer polynomials: dicts (i, j) -> int without zero
# entries. For the pseudo-remainder sequence a polynomial is split into a
# dense list, by powers of a main variable, of polynomials in the other
# one; their gcds are again taken by _gcd, down to integer constants.

IntPoly = dict[Monomial, int]

_ONE: IntPoly = {(0, 0): 1}


def _power(x: IntPoly, e: int) -> IntPoly:
    out = _ONE
    for _ in range(e):
        out = _mul(out, x)
    return out


def _prem(a: list[IntPoly], b: list[IntPoly]) -> list[IntPoly]:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b."""
    lead, top = b[-1], len(b) - 1
    r = list(a)
    e = len(a) - top
    while len(r) > top:
        c, s = {m: -v for m, v in r[-1].items()}, len(r) - len(b)
        r = [_mul(lead, x) for x in r]
        for i, y in enumerate(b):
            r[s + i] = _add(r[s + i], _mul(c, y))
        while r and not r[-1]:
            r.pop()
        e -= 1
    return [_mul(_power(lead, e), x) for x in r]


def _prs_gcd(a: list[IntPoly], b: list[IntPoly]) -> list[IntPoly]:
    """gcd, up to sign and integer content, of nonzero a and b in D[x].

    D is the ring of polynomials in the other variable. This is Brown's
    subresultant algorithm as in Geddes, Czapor and Labahn, Algorithms
    for Computer Algebra, algorithm 7.3: each pseudo-remainder is divided
    by g * h^delta, which keeps the coefficients from growing
    exponentially without taking a content at every step.
    """
    ca, cb = (reduce(_gcd, filter(None, p)) for p in (a, b))
    a = [_quo(x, ca) for x in a]
    b = [_quo(x, cb) for x in b]
    if len(a) < len(b):
        a, b = b, a
    g = h = _ONE
    while True:
        delta = len(a) - len(b)
        r = _prem(a, b)
        if not r:
            break
        if len(r) == 1:
            b = [_ONE]
            break
        a, b = b, [_quo(x, _mul(g, _power(h, delta))) for x in r]
        g = a[-1]
        if delta:
            h = _quo(_power(g, delta), _power(h, delta - 1))
    cg = reduce(_gcd, filter(None, b))
    c = _gcd(ca, cb)
    return [_mul(c, _quo(x, cg)) for x in b]


def _split(p: IntPoly, v: int) -> list[IntPoly]:
    """p by powers of n (v = 0) or of k (v = 1), as polynomials in the other."""
    rows: list[IntPoly] = [{} for _ in range(max(m[v] for m in p) + 1)]
    for (i, j), c in p.items():
        rows[(i, j)[v]][(0, j) if v == 0 else (i, 0)] = c
    return rows


def _gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd of a and b (not both zero), lex-leading coefficient positive.

    The main variable of the sequence is the one of lower positive degree;
    the contents it needs are gcds in the other variable.
    """
    if not a or not b:
        g = a or b
    elif len(a) == 1 and (0, 0) in a or len(b) == 1 and (0, 0) in b:
        return _ONE
    else:
        dn = max(i for i, _ in (*a, *b))
        dk = max(j for _, j in (*a, *b))
        v = 1 if dn == 0 or 0 < dk < dn else 0
        g = {}
        for e, row in enumerate(_prs_gcd(_split(a, v), _split(b, v))):
            for (i, j), c in row.items():
                g[(e, j) if v == 0 else (i, e)] = c
    c = math.gcd(*g.values())
    if g[max(g)] < 0:
        c = -c
    return {m: x // c for m, x in g.items()}


def _mul(a: dict, b: dict) -> dict:
    """Product of coefficient dicts (of ints, or of Fractions)."""
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            m = (i1 + i2, j1 + j2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _add(a: dict, b: dict) -> dict:
    """Sum of coefficient dicts (of ints, or of Fractions)."""
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _quo(a: IntPoly, b: IntPoly) -> IntPoly:
    """a / b in Z[n, k]; ArithmeticError when b does not divide a."""
    if b == _ONE:
        return a
    bi, bj = max(b)
    lead = b[(bi, bj)]
    r = dict(a)
    q: IntPoly = {}
    while r:
        ri, rj = max(r)
        c, rest = divmod(r[(ri, rj)], lead)
        qi, qj = ri - bi, rj - bj
        if rest or qi < 0 or qj < 0:
            raise ArithmeticError("inexact polynomial division")
        q[(qi, qj)] = c
        for (i, j), v in b.items():
            m = (i + qi, j + qj)
            s = r.get(m, 0) - c * v
            if s:
                r[m] = s
            else:
                del r[m]
    return q


def _cancel(p: IntPoly, q: IntPoly, e: int) -> tuple[IntPoly, int]:
    """(p / q^j, e - j) for the largest j <= e with q^j dividing p."""
    while e:
        try:
            p = _quo(p, q)
        except ArithmeticError:
            break
        e -= 1
    return p, e


def _ints(p: BivarPoly, scale: int = 1) -> IntPoly:
    """scale * p as an integer polynomial; scale must clear p's denominators."""
    return {m: c.numerator * (scale // c.denominator) for m, c in p.items()}


def _normal(num: IntPoly, den: IntPoly) -> tuple[BivarPoly, BivarPoly]:
    """num/den, free of common factors of positive degree, in canonical form.

    Only the integer contents and the sign are left to fix: both are
    divided by the gcd of all their coefficients, signed so that the
    denominator's lex-leading coefficient comes out positive.
    """
    if not num:
        den = _ONE
    c = math.gcd(*num.values(), *den.values())
    if den[max(den)] < 0:
        c = -c
    return (BivarPoly({m: v // c for m, v in num.items()}),
            BivarPoly({m: v // c for m, v in den.items()}))


class RationalFunction:
    """Quotient of two BivarPoly values in the canonical form described above.

    Equal rational functions have equal numerators and equal denominators,
    so equality and hashing compare the pair. The arithmetic is Henrici's
    (Knuth, TAOCP vol. 2, 4.5.1): each operator takes gcds of its operands'
    reduced parts and never of the full cross-products.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: BivarPoly, den: BivarPoly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        scale = math.lcm(*(c.denominator for p in (num, den) for _, c in p.items()))
        a, b = _ints(num, scale), _ints(den, scale)
        g = _gcd(a, b)
        self._num, self._den = _normal(_quo(a, g), _quo(b, g))

    @classmethod
    def _reduced(cls, num: IntPoly, den: IntPoly) -> "RationalFunction":
        """num/den for integer polynomials without common factors of positive degree."""
        r = cls.__new__(cls)
        r._num, r._den = _normal(num, den)
        return r

    @classmethod
    def const(cls, c: Fraction | int) -> "RationalFunction":
        f = Fraction(c)
        return cls(BivarPoly.const(f.numerator), BivarPoly.const(f.denominator))

    @classmethod
    def from_factors(cls, factors: Mapping[BivarPoly, int],
                     scalar: Fraction | int = 1) -> "RationalFunction":
        """Product of poly^exponent times scalar; exponents may be negative.

        Each factor's content and sign go into the scalar, so equal
        primitive factors merge.  Distinct primitive linear factors are
        coprime, so only the product of the others needs a gcd; a linear
        factor is then cancelled against it by exact division.
        """
        s = Fraction(scalar)
        merged: dict[frozenset, list] = {}
        for poly, e in factors.items():
            if e == 0:
                continue
            if poly.is_zero():  # the only zero key of the mapping
                if e < 0:
                    raise ZeroDivisionError("zero factor with a negative exponent")
                return cls.const(0)
            c, p = poly.primitive()
            q = _ints(p)
            if q[max(q)] < 0:
                c, q = -c, {m: -v for m, v in q.items()}
            s *= c ** e
            if q != _ONE:
                merged.setdefault(frozenset(q.items()), [q, 0])[1] += e
        if not s:
            return cls.const(0)
        num, den = _ONE, _ONE
        linear = []
        for q, e in merged.values():
            if max(i + j for i, j in q) == 1:
                linear.append((q, e))
            elif e > 0:
                num = _mul(num, _power(q, e))
            elif e < 0:
                den = _mul(den, _power(q, -e))
        g = _gcd(num, den)
        num, den = _quo(num, g), _quo(den, g)
        num_lin, den_lin = {(0, 0): s.numerator}, {(0, 0): s.denominator}
        for q, e in linear:
            if e > 0:
                den, e = _cancel(den, q, e)
                num_lin = _mul(num_lin, _power(q, e))
            else:
                num, e = _cancel(num, q, -e)
                den_lin = _mul(den_lin, _power(q, e))
        return cls._reduced(_mul(num_lin, num), _mul(den_lin, den))

    @property
    def numerator(self) -> BivarPoly:
        return self._num

    @property
    def denominator(self) -> BivarPoly:
        return self._den

    def is_zero(self) -> bool:
        return self._num.is_zero()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.const(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def _sum(self, other: "RationalFunction", sign: int) -> "RationalFunction":
        """self + sign * other by Henrici's method.

        With d1 = gcd(b, d), a/b + c/d = t / (b/d1 * d) for
        t = a * d/d1 + c * b/d1, and only d1 can share a factor with t.
        """
        a, b = _ints(self._num), _ints(self._den)
        c, d = _ints(other._num, sign), _ints(other._den)
        d1 = _gcd(b, d)
        b1 = _quo(b, d1)
        t = _add(_mul(a, _quo(d, d1)), _mul(c, b1))
        d2 = _gcd(t, d1)
        return RationalFunction._reduced(_quo(t, d2), _mul(b1, _quo(d, d2)))

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return self._sum(other, 1)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self._sum(other, -1)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._reduced(_ints(self._num, -1), _ints(self._den))

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return _product(_ints(self._num), _ints(self._den),
                        _ints(other._num), _ints(other._den))

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other._num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return _product(_ints(self._num), _ints(self._den),
                        _ints(other._den), _ints(other._num))

    def evaluate(self, n: Fraction | int, k: Fraction | int) -> Fraction:
        d = self._den.evaluate(n, k)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at (n={n}, k={k})")
        return self._num.evaluate(n, k) / d

    def render(self) -> str:
        if self._den == BivarPoly.const(1):
            return self._num.render()
        return f"({self._num.render()})/({self._den.render()})"

    def __repr__(self) -> str:
        return f"RationalFunction({self.render()})"


def _product(a: IntPoly, b: IntPoly, c: IntPoly, d: IntPoly) -> RationalFunction:
    """(a/b) * (c/d) for reduced a/b and c/d, by Henrici's method."""
    if not a or not c:
        return RationalFunction.const(0)
    g1, g2 = _gcd(a, d), _gcd(c, b)
    return RationalFunction._reduced(_mul(_quo(a, g1), _quo(c, g2)),
                                     _mul(_quo(b, g2), _quo(d, g1)))
