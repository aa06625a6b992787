"""Bivariate polynomials over Q and rational functions in n and k.

BivarPoly is a sparse map (n-exponent, k-exponent) -> coefficient with no
zero entries, ordered lexicographically with n before k. RationalFunction
keeps an integer-coefficient numerator/denominator pair in a canonical
form: coprime contents, denominator lex-leading coefficient positive, no
common factor discoverable by content-and-candidate trial division (see
the project notes for the candidate search). Equality and zero tests use
cross-multiplication, so they stay exact even when reduction leaves a
common factor behind.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping

Monomial = tuple[int, int]

# divisor enumeration guard for rational root searches
_ROOT_COEFF_LIMIT = 10 ** 6


class BivarPoly:
    """Immutable sparse polynomial in n and k with Fraction coefficients."""

    __slots__ = ("_c",)

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
    def zero(cls) -> "BivarPoly":
        return cls()

    @classmethod
    def const(cls, c: Fraction | int) -> "BivarPoly":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def monomial(cls, i: int, j: int, c: Fraction | int = 1) -> "BivarPoly":
        return cls({(i, j): Fraction(c)})

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

    def degree_n(self) -> int:
        if not self._c:
            return -1
        return max(i for i, _ in self._c)

    def degree_k(self) -> int:
        if not self._c:
            return -1
        return max(j for _, j in self._c)

    def lex_lead(self) -> tuple[Monomial, Fraction]:
        """Leading monomial and coefficient under lex order with n > k."""
        if not self._c:
            raise ValueError("zero polynomial has no leading term")
        m = max(self._c)
        return m, self._c[m]

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
        out = dict(self._c)
        for m, c in other._c.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        p = BivarPoly.__new__(BivarPoly)
        p._c = out
        return p

    def __neg__(self) -> "BivarPoly":
        p = BivarPoly.__new__(BivarPoly)
        p._c = {m: -c for m, c in self._c.items()}
        return p

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        return self + (-other)

    def __mul__(self, other: "BivarPoly | int | Fraction") -> "BivarPoly":
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if not f:
                return BivarPoly.zero()
            p = BivarPoly.__new__(BivarPoly)
            p._c = {m: c * f for m, c in self._c.items()}
            return p
        out: dict[Monomial, Fraction] = {}
        for (i1, j1), c1 in self._c.items():
            for (i2, j2), c2 in other._c.items():
                m = (i1 + i2, j1 + j2)
                s = out.get(m, Fraction(0)) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        p = BivarPoly.__new__(BivarPoly)
        p._c = out
        return p

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

    def evaluate(self, n: Fraction | int, k: Fraction | int) -> Fraction:
        """Exact value at (n, k), normalised once.

        Coefficients are brought to their common denominator L and the
        scaled numerators summed; only the final Fraction(total, L) is
        reduced. Integer arguments keep the sum an int; Fraction
        arguments make it a Fraction, which Fraction(total, L) accepts.
        """
        den = math.lcm(*(c.denominator for c in self._c.values()))
        total = 0
        for (i, j), c in self._c.items():
            total += c.numerator * (den // c.denominator) * n ** i * k ** j
        return Fraction(total, den)

    def shift(self, dn: int, dk: int) -> "BivarPoly":
        """Substitute n -> n + dn, k -> k + dk."""
        if dn == 0 and dk == 0:
            return self
        out = BivarPoly.zero()
        for (i, j), c in self._c.items():
            term: dict[Monomial, Fraction] = {}
            for a in range(i + 1):
                ca = math.comb(i, a) * dn ** (i - a)
                if ca == 0:
                    continue
                for b in range(j + 1):
                    cb = math.comb(j, b) * dk ** (j - b)
                    if cb == 0:
                        continue
                    m = (a, b)
                    s = term.get(m, Fraction(0)) + c * ca * cb
                    term[m] = s
            out = out + BivarPoly({m: c2 for m, c2 in term.items() if c2})
        return out

    # ---- content and division ----

    def content(self) -> Fraction:
        """Positive rational c with self/c integer-primitive (0 for zero)."""
        if not self._c:
            return Fraction(0)
        num_gcd = 0
        den_lcm = 1
        for c in self._c.values():
            num_gcd = math.gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        return Fraction(num_gcd, den_lcm)

    def primitive(self) -> tuple[Fraction, "BivarPoly"]:
        """(content, primitive part); content carries no sign."""
        if not self._c:
            return Fraction(0), BivarPoly.zero()
        c = self.content()
        return c, self * (1 / c)

    def divided_by(self, d: "BivarPoly") -> "BivarPoly | None":
        """Exact quotient self/d, or None when d does not divide self."""
        if d.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return BivarPoly.zero()
        (di, dj), dc = d.lex_lead()
        rem = dict(self._c)
        quo: dict[Monomial, Fraction] = {}
        while rem:
            ri, rj = max(rem)
            rc = rem[(ri, rj)]
            qi, qj = ri - di, rj - dj
            if qi < 0 or qj < 0:
                return None
            qc = rc / dc
            quo[(qi, qj)] = qc
            for (i, j), c in d._c.items():
                m = (i + qi, j + qj)
                s = rem.get(m, Fraction(0)) - qc * c
                if s:
                    rem[m] = s
                else:
                    rem.pop(m, None)
        p = BivarPoly.__new__(BivarPoly)
        p._c = quo
        return p

    def monomial_part(self) -> Monomial:
        """Largest (i, j) with n^i k^j dividing every term (0,0 for zero)."""
        if not self._c:
            return (0, 0)
        return (min(i for i, _ in self._c), min(j for _, j in self._c))

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
        factors.append(str(mag.numerator) if mag.denominator == 1 else
                       f"{mag.numerator}/{mag.denominator}")
    if i:
        factors.append("n" if i == 1 else f"n^{i}")
    if j:
        factors.append("k" if j == 1 else f"k^{j}")
    return "*".join(factors)


# ---- univariate helpers for the candidate factor search ----

def _divisors(m: int) -> list[int]:
    m = abs(m)
    out = []
    d = 1
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            if d != m // d:
                out.append(m // d)
        d += 1
    return sorted(out)


def _upoly_vanishes_at(cof: dict[int, int], p: int, q: int) -> bool:
    """Whether the integer polynomial cof vanishes at p/q (q > 0).

    Tests q^d * cof(p/q) = sum c_e p^e q^(d-e) == 0 in integers, d the
    degree, so no Fraction is built or reduced.
    """
    d = max(cof)
    return sum(c * p ** e * q ** (d - e) for e, c in cof.items()) == 0


def _upoly_primitive(cof: dict[int, Fraction]) -> dict[int, int]:
    num_gcd = 0
    den_lcm = 1
    for c in cof.values():
        num_gcd = math.gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    scale = Fraction(den_lcm, num_gcd)
    return {e: int(c * scale) for e, c in cof.items()}


def _upoly_gcd(u: dict[int, Fraction], v: dict[int, Fraction]) -> dict[int, int]:
    """Monic-free Euclid over Q; result integer-primitive."""
    a, b = dict(u), dict(v)
    while b:
        da, db = max(a), max(b)
        if da < db:
            a, b = b, a
            continue
        lead = a[da] / b[db]
        for e, c in b.items():
            m = e + da - db
            s = a.get(m, Fraction(0)) - lead * c
            if s:
                a[m] = s
            else:
                a.pop(m, None)
        if not a:
            a, b = b, {}
            continue
        if max(a) < db:
            a, b = b, a
    return _upoly_primitive(a) if a else {}


def _rational_roots(cof_in: dict[int, Fraction]) -> list[Fraction]:
    """Rational roots of a nonzero univariate polynomial, including 0."""
    cof = _upoly_primitive(cof_in)
    roots: list[Fraction] = []
    m = min(cof)
    if m > 0:
        roots.append(Fraction(0))
        cof = {e - m: c for e, c in cof.items()}
    if max(cof) == 0:
        return roots
    lead = cof[max(cof)]
    trail = cof[0]
    if abs(lead) > _ROOT_COEFF_LIMIT or abs(trail) > _ROOT_COEFF_LIMIT:
        return roots
    # each root p/q in lowest terms is met once, at its reduced (p, q):
    # a non-reduced pair repeats a value already met at a smaller q
    for q in _divisors(lead):
        for p in _divisors(trail):
            if math.gcd(p, q) != 1:
                continue
            for s in (p, -p):
                if _upoly_vanishes_at(cof, s, q):
                    roots.append(Fraction(s, q))
    return roots


def _normalize_candidate(p: BivarPoly) -> BivarPoly | None:
    if p.is_zero() or p.total_degree() < 1:
        return None
    _, prim = p.primitive()
    _, lead = prim.lex_lead()
    if lead < 0:
        prim = -prim
    return prim


def _restrict_k(p: BivarPoly, kval: int) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for (i, j), c in p.items():
        s = out.get(i, Fraction(0)) + c * kval ** j
        if s:
            out[i] = s
        else:
            out.pop(i, None)
    return out


def _grouped_gcd(p: BivarPoly, by_n: bool) -> dict[int, int]:
    """gcd over Q of the coefficient polynomials when grouping by one variable.

    by_n=True: view p as sum_j B_j(n) k^j and gcd the B_j (result in n);
    by_n=False: symmetric, result in k.
    """
    groups: dict[int, dict[int, Fraction]] = {}
    for (i, j), c in p.items():
        outer, inner = (j, i) if by_n else (i, j)
        groups.setdefault(outer, {})[inner] = c
    g: dict[int, Fraction] = {}
    for cof in groups.values():
        if not g:
            g = {e: Fraction(c) for e, c in _upoly_primitive(cof).items()}
        else:
            g = {e: Fraction(c) for e, c in _upoly_gcd(g, cof).items()}
        if g and max(g) == 0:
            return {}
    return {e: int(c) for e, c in g.items()}


def _candidate_factors(p: BivarPoly) -> list[BivarPoly]:
    """Degree <= 2 trial-division candidates harvested from p."""
    cands: list[BivarPoly] = []
    seen: set[frozenset] = set()

    def push(q: BivarPoly | None) -> None:
        if q is None or q.total_degree() > 2:
            return
        key = frozenset(q._c.items())
        if key not in seen:
            seen.add(key)
            cands.append(q)

    if p.total_degree() <= 2:
        push(_normalize_candidate(p))

    # pure-variable factors divide every grouped coefficient polynomial
    for by_n in (True, False):
        g = _grouped_gcd(p, by_n)
        if g and max(g) >= 1:
            fr = {e: Fraction(c) for e, c in g.items()}
            if max(g) <= 2:
                push(_normalize_candidate(BivarPoly(
                    {(e, 0) if by_n else (0, e): c for e, c in g.items()})))
            for r in _rational_roots(fr):
                mono = (1, 0) if by_n else (0, 1)
                push(_normalize_candidate(BivarPoly(
                    {mono: r.denominator, (0, 0): -r.numerator})))

    # mixed linear factors: pair roots of p(n, 0) with roots of p(n, 1)
    u0 = _restrict_k(p, 0)
    u1 = _restrict_k(p, 1)
    if u0 and u1 and max(u0) >= 1 and max(u1) >= 1:
        for r0 in _rational_roots(u0):
            for r1 in _rational_roots(u1):
                slope = r1 - r0
                d = (r0.denominator * slope.denominator
                     // math.gcd(r0.denominator, slope.denominator))
                push(_normalize_candidate(BivarPoly({
                    (1, 0): d,
                    (0, 1): -slope * d,
                    (0, 0): -r0 * d,
                })))
    return cands


class RationalFunction:
    """Quotient of two BivarPoly values in the canonical form described above."""

    __slots__ = ("_num", "_den")

    def __init__(self, num: BivarPoly, den: BivarPoly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self._num, self._den = _canonical_pair(num, den)

    @classmethod
    def from_poly(cls, num: BivarPoly) -> "RationalFunction":
        return cls(num, BivarPoly.const(1))

    @classmethod
    def const(cls, c: Fraction | int) -> "RationalFunction":
        f = Fraction(c)
        return cls(BivarPoly.const(f.numerator), BivarPoly.const(f.denominator))

    @classmethod
    def from_factors(cls, factors: Mapping[BivarPoly, int],
                     scalar: Fraction | int = 1) -> "RationalFunction":
        """Product of poly^exponent times scalar; exponents may be negative."""
        s = Fraction(scalar)
        num = BivarPoly.const(s.numerator)
        den = BivarPoly.const(s.denominator)
        for poly, e in factors.items():
            if e == 0 or poly == BivarPoly.const(1):
                continue
            if e > 0:
                num = num * poly ** e
            else:
                den = den * poly ** (-e)
        return cls(num, den)

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
        # cross-multiplication: exact regardless of reduction
        return self._num * other._den == other._num * self._den

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self._num * other._den + other._num * self._den,
            self._den * other._den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self._num * other._den - other._num * self._den,
            self._den * other._den)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self._num, self._den)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self._num * other._num, self._den * other._den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other._num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self._num * other._den, self._den * other._num)

    def evaluate(self, n: Fraction | int, k: Fraction | int) -> Fraction:
        d = self._den.evaluate(n, k)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at (n={n}, k={k})")
        return self._num.evaluate(n, k) / d

    def shift(self, dn: int, dk: int) -> "RationalFunction":
        return RationalFunction(self._num.shift(dn, dk), self._den.shift(dn, dk))

    def render(self) -> str:
        if self._den == BivarPoly.const(1):
            return self._num.render()
        return f"({self._num.render()})/({self._den.render()})"

    def __repr__(self) -> str:
        return f"RationalFunction({self.render()})"


def _canonical_pair(num: BivarPoly, den: BivarPoly) -> tuple[BivarPoly, BivarPoly]:
    if num.is_zero():
        return BivarPoly.zero(), BivarPoly.const(1)

    cn, pn = num.primitive()
    cd, pd = den.primitive()

    # strip the common monomial part
    ni, nj = pn.monomial_part()
    di, dj = pd.monomial_part()
    gi, gj = min(ni, di), min(nj, dj)
    if gi or gj:
        mono = BivarPoly.monomial(gi, gj)
        pn = pn.divided_by(mono)
        pd = pd.divided_by(mono)

    # candidate trial division, repeated until a full sweep makes no progress
    changed = True
    while changed:
        changed = False
        if pd.total_degree() < 1 and pn.total_degree() < 1:
            break
        small = pd if (pd.total_degree(), len(pd)) <= (pn.total_degree(), len(pn)) else pn
        for cand in _candidate_factors(small):
            while True:
                qn = pn.divided_by(cand)
                if qn is None:
                    break
                qd = pd.divided_by(cand)
                if qd is None:
                    break
                pn, pd = qn, qd
                changed = True

    # division of primitives can reintroduce signs only; re-normalize contents
    cn2, pn = pn.primitive()
    cd2, pd = pd.primitive()
    scalar = (cn * cn2) / (cd * cd2)

    _, dlead = pd.lex_lead()
    if dlead < 0:
        pd = -pd
        pn = -pn  # keep the overall sign on the numerator side
    num_out = pn * scalar.numerator
    den_out = pd * scalar.denominator
    return num_out, den_out
