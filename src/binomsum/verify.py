"""Binomial sums, divisors, divisibility checks, and proof-level audits.

Everything here is exact: sums and divisors are big integers, ratios are
`fractions.Fraction`, and every floor inequality is evaluated with true
floor division.  Where a fact can be established along two independent
routes (division with remainder vs. prime valuations, floor terms vs.
fractional parts, binomial products vs. Legendre exponents), both routes
are implemented separately and compared rather than merged.

The binomials of the seven sums (SumSpec.binomials), of their divisors
and of lemmas 2.2, 2.3 and 2.5 (_DIVISOR_TABLES, _LEMMA22_TABLE, ...) are
declared once, as tables of binomials linear in (n, k), and one stepper,
_binomial_rows, steps any of them along a row by exact term ratios.
sums steps S(k+1) = base*S(k) + t(k) from k = 0 along one row of its
summand's table and holds no prefix; eval_sum is its value at one n, and
iter_sums builds that table's binomials afresh by math.comb
(exact.binomial): the two share it as data, and the tests state each
summand by hand.  divisors steps C(2n, n) in a row of its own.
The valuation route (valuation_failures) takes every v_p of a divisor
from Legendre's formula and decides all primes at once by one remainder
modulo their product.  lemma22_row, lemma23_rows and lemma25_row read the
stepper too.  Each stepped kernel is tested against a per-point reference
that builds every binomial afresh: iter_sums, divisor, lemma22_point,
lemma23_point and lemma25_w.  The factorial forms of lemmas 2.4-2.6 are
declared once, as weighted affine forms in _EIGHT_FLOOR_FORMS and
_FIVE_FLOOR_FORMS: the floor scans sum tables of them row by row
(_margin_rows), and lemma 2.5's Legendre route and lemma26_rows (five
factorials along n, as exact Decimals, since its quotients are only ever
printed) read them.
Each ratio identity scales a stored pair term by its sum's base and
divisor (pairs.SUM_SPECS) and compares it with a lemma function's quantity.
ratio_identity evaluates one point over Fractions; ratio_row_failures runs
the whole k row of g1_gen or g2_gen at once, on the unreduced integer
pairs of one hyperterm.eval_term_row against the stepped lemma22_row and
lemma25_row, and stays tested against ratio_identity, as do the CLI's
telescoped_sum rows that step along N.
Fraction is imported where one is built, and Decimal and its context
(exact.DECIMAL_CONTEXT) where lemma26_rows runs, so the sums and lemmas
2.2-2.5, which compute with ints only, load neither fractions nor decimal.
"""
from __future__ import annotations

from collections import Counter
from functools import partial, reduce
from itertools import chain, count, groupby, islice, repeat
from math import gcd, prod
from operator import add, itemgetter, mul
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .exact import binomial, factorial, int_valuation, legendre_valuation, \
    primes_upto, rat_valuation, smallest_prime_factors
from .pairs import DIVISOR_KINDS, SUM_SPECS, SumSpec, WZPairSpec, \
    builtin_pair, sum_spec

if TYPE_CHECKING:
    from fractions import Fraction

    from .exact import Decimal


# ---------------------------------------------------------------------------
# Declared products: binomial tables, floor forms and the binomial stepper
# ---------------------------------------------------------------------------

# Each entry ((a0, *a), (b0, *b), p) of a binomial table stands for
# C(a0 + a.v, b0 + b.v)**p, v being a head of fixed variables and then the
# variable t that _binomial_rows steps.  lemma22_point, lemma23_point,
# lemma25_w and divisor state the same products independently, and the
# tests tie the tables to them and to summands stated by hand.

# C(2n, n)**e along n, the weak (e = 1) and strong (e = 2) divisor over 2n**e
_DIVISOR_TABLES = {"weak": (((0, 2), (0, 1), 1),),
                   "strong": (((0, 2), (0, 1), 2),)}

# Lemma 2.2 along k, head (n,): C(2n,n) C(2n+2k,n+k) C(n+k,2k) / C(2k,k)
_LEMMA22_TABLE = (((0, 2, 0), (0, 1, 0), 1), ((0, 2, 2), (0, 1, 1), 1),
                  ((0, 1, 1), (0, 0, 2), 1), ((0, 0, 2), (0, 0, 1), -1))

# Lemma 2.3 along n: the value's C(2n-2,n-1) C(2n,n) C(2n+2,n+1) over the
# closed form's C(2n-3,n-1)**3
_LEMMA23_TABLE = (((-2, 2), (-1, 1), 1), ((0, 2), (0, 1), 1),
                  ((2, 2), (1, 1), 1), ((-3, 2), (-1, 1), -3))

# W(n,k) along k, head (n,):
# C(2n,n) C(n,k) C(k+n,2k) C(k+2n-1,n-1) C(2k+4n-2,k+2n-1) / C(2k,k)**2
_LEMMA25_TABLE = (((0, 2, 0), (0, 1, 0), 1), ((0, 1, 0), (0, 0, 1), 1),
                  ((0, 1, 1), (0, 0, 2), 1), ((-1, 2, 1), (-1, 1, 0), 1),
                  ((-2, 4, 2), (-1, 2, 1), 1), ((0, 0, 2), (0, 0, 1), -2))


# Each entry ((c0, c_n[, c_k]), w) stands for w factorials of the argument
# c0 + c_n*n + c_k*k, in the denominator when w < 0.  By Landau's
# criterion the ratio is an integer iff sum(w * floor(x/m)) >= 0 for all
# m >= 2.  The weighted forms sum to zero.  lemma25_w and lemma26_point
# state the same ratios independently; the tests tie the tables to them.

# W(n,k) = k!^3 (2n)! (2k+4n-2)! / ((2k)!^3 n! (n-1)! (n-k)!^2 (k+2n-1)!)
_EIGHT_FLOOR_FORMS = (((-2, 4, 2), 1), ((0, 0, 1), 3), ((0, 2, 0), 1),
                      ((0, 0, 2), -3), ((0, 1, 0), -1), ((-1, 1, 0), -1),
                      ((0, 1, -1), -2), ((-1, 2, 1), -1))

# (6n-5)! (n-1)! / ((2n-1)! (2n-2)! (3n-3)!)
_FIVE_FLOOR_FORMS = (((-5, 6), 1), ((-1, 1), 1), ((-1, 2), -1),
                     ((-2, 2), -1), ((-3, 3), -1))


def _stepped(value: int, runs: Counter):
    """value, then value times one ratio per step: the product over runs
    of (s + m*i)**e at step i, e > 0 above the line and e < 0 below.  A
    step that leaves a remainder raises."""
    rows = ([], [])
    for (s, m), e in runs.items():
        if e and (s, m) != (1, 0):
            rows[e < 0].append(map(pow, count(s, m), repeat(abs(e)))
                               if abs(e) > 1 else count(s, m))
    yield value
    for up, down in zip(*(reduce(partial(map, mul), row) if row
                          else repeat(1) for row in rows)):
        value, r = divmod(value * up, down)
        if r:
            raise ArithmeticError(f"inexact binomial step: remainder {r} "
                                  f"modulo {down}")
        yield value


def _binomial_rows(table, head: tuple[int, ...], ts: range):
    """(num, den) at each t of ts, a range of step 1, as an iterator: the
    table's binomials at v = head + (t,), those with p > 0 multiplied into
    num and those with p < 0, to the power -p, into den.

    Each side is built by exact.binomial at ts.start and then stepped
    (_stepped): the factorials of a, b and a - b in each a!/(b!(a-b)!)
    gain or lose their next integers, each a run s + m*i along the row.
    A run is divided by gcd(s, m), which joins the side as the constant
    run (g, 0), so equal runs of a side merge into one exponent and what
    cancels between its binomials is never multiplied.  A factor that
    leaves 0 <= b <= a on the row is a ValueError.  Nothing here reads the
    floor forms, so lemma 2.5's two routes stay apart."""
    if ts.step != 1:
        raise ValueError("_binomial_rows needs a range of step 1")
    t0 = ts.start
    values, runs = [1, 1], [Counter(), Counter()]  # (s, m): exponent
    for (a0, *a), (b0, *b), p in table:
        x, c = a0 + sum(map(mul, a, head)), a[-1]
        y, d = b0 + sum(map(mul, b, head)), b[-1]
        if not all(0 <= y + d * t <= x + c * t for t in (*ts[:1], *ts[-1:])):
            raise ValueError(f"C({x}{c:+}t, {y}{d:+}t) leaves 0 <= b <= a "
                             f"for t in {ts}")
        side, power = p < 0, abs(p)
        values[side] *= binomial(x + c * t0, y + d * t0) ** power
        for arg, move, w in ((x, c, power), (y, d, -power),
                             (x - y, c - d, -power)):
            start = arg + move * t0 + min(move, 0)
            for s in range(start + 1, start + abs(move) + 1):
                g = gcd(s, move)
                runs[side][s // g, move // g] += w if move > 0 else -w
                runs[side][g, 0] += w if move > 0 else -w
    return islice(zip(*map(_stepped, values, runs)), len(ts))


# ---------------------------------------------------------------------------
# Sums (stated in pairs.SUM_SPECS)
# ---------------------------------------------------------------------------

def _summand(spec: SumSpec, k: int) -> int:
    c2, c1, c0 = spec.coeff
    return (c2 * k * k + c1 * k + c0) * prod(
        binomial(a0 + a * k, b0 + b * k) ** p
        for (a0, a), (b0, b), p in spec.binomials)


def sums(spec: SumSpec | str, ns: range):
    """Yield S(n) = sum t(k)*base**(n-1-k) for each n of ns, a range of
    step 1, and keep nothing once the last is yielded.

    S(0) = 0 and S(k+1) = base*S(k) + t(k), with t(k)'s binomials one row
    of _binomial_rows over spec.binomials, built at its anchor k = 0 and
    stepped from there, so the row is never built again and no prefix is
    held.  A range that starts late still steps every k below it.
    iter_sums stays the per-point reference.
    """
    if isinstance(spec, str):
        spec = sum_spec(spec)
    if ns.step != 1:
        raise ValueError("sums needs a range of step 1")
    if not ns:
        return
    if ns.start < 1:
        raise ValueError("sums needs n >= 1")
    c2, c1, c0 = spec.coeff
    total = 0
    for k, (num, _) in enumerate(_binomial_rows(
            spec.binomials, (), range(ns.stop - 1))):  # S(k+1)
        total = spec.base * total + (c2 * k * k + c1 * k + c0) * num
        if k >= ns.start - 1:
            yield total


def eval_sum(spec: SumSpec | str, n: int) -> int:
    """S(n) = sum t(k)*base**(n-1-k): the one value of sums over n alone,
    stepped from k = 0 by each call."""
    if n < 1:
        raise ValueError("eval_sum needs n >= 1")
    return next(sums(spec, range(n, n + 1)))


def iter_sums(spec: SumSpec | str, n_max: int):
    """Yield (n, S(n)) for n = 1..n_max via S(n+1) = base*S(n) + t(n).

    The second route to the values of sums: every summand is built
    afresh by _summand from factorial quotients, never stepped.  The two
    routes share spec.binomials as data only and are compared in tests.
    """
    if isinstance(spec, str):
        spec = sum_spec(spec)
    if n_max < 1:
        raise ValueError("iter_sums needs n_max >= 1")
    total = 0
    for n in range(1, n_max + 1):
        total = spec.base * total + _summand(spec, n - 1)
        yield n, total


# ---------------------------------------------------------------------------
# Divisors and divisibility checks
# ---------------------------------------------------------------------------

def divisor(kind: str, n: int) -> int:
    """The target divisor: 2n*C(2n,n) (weak) or 2n^2*C(2n,n)^2 (strong)."""
    if kind not in DIVISOR_KINDS:
        raise ValueError(f"divisor kind must be one of {DIVISOR_KINDS}")
    if n < 1:
        raise ValueError("divisor needs n >= 1")
    central = binomial(2 * n, n)
    if kind == "weak":
        return 2 * n * central
    return 2 * n * n * central * central


def divisors(kind: str, ns: range):
    """Yield divisor(kind, n) for each n of ns, a range of step 1.

    C(2n, n)**e (e = 1 weak, 2 strong) is a row of _binomial_rows over
    _DIVISOR_TABLES, built by exact.binomial at ns.start and stepped along
    n: a chain of its own, apart from the row that sums steps, so that no
    fault in one chain reaches both a sum and its divisor.  divisor stays
    the per-point reference.
    """
    if kind not in DIVISOR_KINDS:
        raise ValueError(f"divisor kind must be one of {DIVISOR_KINDS}")
    if ns.step != 1:
        raise ValueError("divisors needs a range of step 1")
    if ns and ns.start < 1:
        raise ValueError("divisors needs n >= 1")
    e = 1 if kind == "weak" else 2
    for n, (central, _) in zip(ns, _binomial_rows(_DIVISOR_TABLES[kind], (),
                                                  ns)):
        yield 2 * n ** e * central


class DivisionCheck(NamedTuple):
    """Exact division with remainder; quotient is set only on success, and
    a non-integral value has neither quotient nor remainder.  The fields
    are ints (or a Fraction value), or integral Decimals throughout."""

    value: int | Fraction | Decimal
    divisor: int | Decimal
    quotient: int | Decimal | None
    remainder: int | Decimal | None

    @property
    def integral(self) -> bool:
        return self.remainder is not None

    @property
    def ok(self) -> bool:
        return self.remainder == 0

    @property
    def exact_quotient(self) -> Fraction:
        """value / divisor as a Fraction, whether or not it divides."""
        from fractions import Fraction
        return Fraction(self.value) / Fraction(self.divisor)


def divide(value: int | Fraction, div: int) -> DivisionCheck:
    """Division with remainder of an int or a Fraction by div."""
    if value.denominator != 1:
        return DivisionCheck(value, div, None, None)
    q, r = divmod(value.numerator, div)
    return DivisionCheck(value, div, q if r == 0 else None, r)


def check_divisibility(spec: SumSpec | str, kind: str | None,
                       n: int) -> DivisionCheck:
    """Division-with-remainder test of divisor(kind, n) | eval_sum(spec, n).

    kind=None uses the divisor family the sum is stated with.
    """
    if isinstance(spec, str):
        spec = sum_spec(spec)
    if n < 2:
        raise ValueError("check_divisibility needs n >= 2")
    if kind is None:
        kind = spec.divisor_kind
    return divide(eval_sum(spec, n), divisor(kind, n))


def check_divisibility_valuations(spec: SumSpec | str, kind: str | None,
                                  n: int) -> tuple[bool, tuple[tuple[int, int, int], ...]]:
    """Independent divisibility certificate via prime valuations.

    For every prime p up to 2n (the divisor's entire prime support),
    compares v_p(divisor) — computed from Legendre's formula, not from the
    divisor integer — with v_p of the sum.  Returns (ok, failures), each
    failure a triple (p, v_p(divisor), v_p(value)).
    """
    if isinstance(spec, str):
        spec = sum_spec(spec)
    if n < 2:
        raise ValueError("check_divisibility_valuations needs n >= 2")
    if kind is None:
        kind = spec.divisor_kind
    failures = valuation_failures(eval_sum(spec, n), kind, n)
    return not failures, failures


def valuation_failures(value: int, kind: str,
                       n: int) -> tuple[tuple[int, int, int], ...]:
    """Primes p <= 2n with v_p(divisor(kind, n)) > v_p(value), as triples
    (p, v_p(divisor), v_p(value)); v_p(divisor) comes from Legendre's
    formula, never from the divisor integer.  Empty when value is 0.

    The powers p**v_p(divisor) multiply into one modulus, and one
    remainder of value modulo it decides whether any prime fails.  Only a
    non-zero remainder looks at the primes one by one, by one remainder
    modulo p**v_p(divisor) each, and counts v_p(value) at a prime that
    fails."""
    if kind not in DIVISOR_KINDS:
        raise ValueError(f"divisor kind must be one of {DIVISOR_KINDS}")
    if value == 0:
        return ()
    e = 1 if kind == "weak" else 2
    powers = []
    for p in primes_upto(2 * n):
        v_div = e * (int_valuation(p, n)
                     + legendre_valuation(p, 2 * n)
                     - 2 * legendre_valuation(p, n))
        if p == 2:
            v_div += 1
        if v_div:
            powers.append((p, v_div))
    if value % prod(p ** v_div for p, v_div in powers) == 0:
        return ()
    return tuple((p, v_div, int_valuation(p, value)) for p, v_div in powers
                 if value % p ** v_div)


# ---------------------------------------------------------------------------
# Audit plumbing
# ---------------------------------------------------------------------------

class LemmaAudit(NamedTuple):
    """Outcome of an exhaustive scan: every violation is reproducible by
    re-running the corresponding single-point operation."""

    lemma: str
    params: tuple[tuple[str, int | str], ...]
    checked: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


class MarginRecord(NamedTuple):
    """LHS minus RHS of a floor inequality at one point."""

    m: int
    n: int
    k: int
    margin: int

    @property
    def violation(self) -> bool:
        return self.margin < 0


# ---------------------------------------------------------------------------
# Binomial-quotient audits (pointwise divisibility facts)
# ---------------------------------------------------------------------------

def lemma22_point(n: int, k: int) -> DivisionCheck:
    """(2n+2k-1)*C(2k,k) divides n*C(2n,n)*C(2n+2k,n+k)*C(n+k,2k)."""
    if n < 1 or k < 0 or k > n:
        raise ValueError("lemma22_point needs n >= 1 and 0 <= k <= n")
    value = (n * binomial(2 * n, n) * binomial(2 * n + 2 * k, n + k)
             * binomial(n + k, 2 * k))
    return divide(value, (2 * n + 2 * k - 1) * binomial(2 * k, k))


def lemma22_row(n: int) -> list[DivisionCheck]:
    """lemma22_point(n, k) for k = 1..n, with the binomials of
    _LEMMA22_TABLE stepped along k (_binomial_rows)."""
    if n < 1:
        raise ValueError("lemma22_row needs n >= 1")
    return [divide(n * num, (2 * n + 2 * k - 1) * den) for k, (num, den)
            in enumerate(_binomial_rows(_LEMMA22_TABLE, (n,),
                                        range(1, n + 1)), 1)]


class QuotientIdentity(NamedTuple):
    """A division check whose quotient must match a closed form."""

    division: DivisionCheck
    closed_form: int

    @property
    def ok(self) -> bool:
        return self.division.ok and self.division.quotient == self.closed_form


def lemma23_point(n: int) -> QuotientIdentity:
    """64*(2n+1) divides n^2*(n+1)*C(2n,n)*C(2n-2,n-1)*C(2n+2,n+1), with
    quotient (2n-1)^2 * C(2n-3,n-1)^3."""
    if n < 2:
        raise ValueError("lemma23_point needs n >= 2")
    value = (n * n * (n + 1) * binomial(2 * n, n)
             * binomial(2 * n - 2, n - 1) * binomial(2 * n + 2, n + 1))
    division = divide(value, 64 * (2 * n + 1))
    closed = (2 * n - 1) ** 2 * binomial(2 * n - 3, n - 1) ** 3
    return QuotientIdentity(division, closed)


def lemma23_rows(n_max: int) -> Iterator[QuotientIdentity]:
    """lemma23_point(n) for n = 2..n_max, one at a time, with the value's
    three central binomials and the closed form's C(2n-3, n-1)**3 stepped
    along n as the two sides of _LEMMA23_TABLE (_binomial_rows).  A bad
    n_max raises here, not at the first row."""
    if n_max < 2:
        raise ValueError("lemma23_rows needs n_max >= 2")
    ns = range(2, n_max + 1)
    return (QuotientIdentity(divide(n * n * (n + 1) * num, 64 * (2 * n + 1)),
                             (2 * n - 1) ** 2 * den)
            for n, (num, den) in zip(ns, _binomial_rows(_LEMMA23_TABLE, (),
                                                        ns)))


# ---------------------------------------------------------------------------
# Floor margins of lemmas 2.4/2.5 (eight floors) and 2.6 (five floors)
# ---------------------------------------------------------------------------

def _form_values(forms, *point: int) -> list[tuple[int, int]]:
    """(argument, weight) of each form at the point (n[, k])."""
    return [(c0 + sum(map(mul, cs, point)), w) for (c0, *cs), w in forms]


def _rising(x: int, c: int) -> int:
    """(x+1)(x+2)...(x+c): the factor that takes x! to (x+c)!."""
    return prod(range(x + 1, x + c + 1))


def _moving_forms(forms, *head: int) -> list[tuple[int, int, int, int, bool]]:
    """(b, c, |c|, |w|, rises) for each form whose argument moves with its
    last variable t by c per step, the variables before it fixed at head.
    From t to t + 1 the integers b + c*t + 1 .. b + c*t + |c| enter the
    form's factorial (c > 0) or leave it (c < 0), so a product of
    factorials**w gains them |w| times above the line (rises) or below."""
    moving = []
    for (c0, *cs), w in forms:
        c = cs[-1]
        if c:
            b = c0 + sum(map(mul, cs, head)) + min(c, 0)
            moving.append((b, c, abs(c), abs(w), (c > 0) == (w > 0)))
    return moving


def _step_factors(moving, t: int) -> tuple[int, int]:
    """(up, down) that take a product of factorials over moving from t to
    t + 1, as product * up / down."""
    up = down = 1
    for b, c, width, power, rises in moving:
        step = _rising(b + c * t, width) ** power
        if rises:
            up *= step
        else:
            down *= step
    return up, down


def floor_margin(m: int, n: int, k: int) -> MarginRecord:
    """Margin of the eight-floor inequality, via floor division only."""
    if m < 2:
        raise ValueError("floor_margin needs m >= 2")
    if not 0 <= k <= n:
        raise ValueError("floor_margin needs n >= k >= 0")
    return MarginRecord(m, n, k, sum(
        w * (x // m) for x, w in _form_values(_EIGHT_FLOOR_FORMS, n, k)))


def floor_margin_fractional(m: int, n: int, k: int) -> Fraction:
    """The same margin computed from fractional parts only: the weighted
    forms sum to zero, so sum(w * floor(x/m)) equals
    -sum(w * (x mod m)) / m, which never touches floor division."""
    if m < 2:
        raise ValueError("floor_margin_fractional needs m >= 2")
    if not 0 <= k <= n:
        raise ValueError("floor_margin_fractional needs n >= k >= 0")
    from fractions import Fraction
    return Fraction(-sum(w * (x % m) for x, w
                         in _form_values(_EIGHT_FLOOR_FORMS, n, k)), m)


def _floor_route(m: int, w: int, values: range) -> list[int]:
    """w * floor(x/m) at each x of values, by floor division only."""
    return [w * (x // m) for x in values]


def _fractional_route(m: int, w: int, values: range) -> list[int]:
    """-w * (x mod m) at each x of values, by residues only; the weighted
    forms sum to zero, so these add up to m * margin over all forms."""
    return [-w * (x % m) for x in values]


def _row_sums(tables, starts, strides, length: int) -> list[int]:
    """The forms' tables summed along a row: from each start, length
    entries every stride-th, or one entry for all when the stride is 0."""
    total = repeat(sum(table[a] for table, a, stride
                       in zip(tables, starts, strides) if not stride), length)
    for table, a, stride in zip(tables, starts, strides):
        if stride:
            total = map(add, total, table[a:a + stride * length:stride])
    return list(total)


def _margin_rows(forms, rows) -> tuple[int, list]:
    """Floor margins of weighted affine forms along rows (m, head, t0, t1),
    the points head + (t,) for t0 <= t < t1.  Per m, each route tabulates
    each form on the progression of its values on the rows; a row sums a
    slice per form, or one entry for a form the row does not move.  The
    routes meet in integers, m * margin against the fractional numerator,
    at every point; a mismatch raises.  Returns the points checked and
    (m, point, margin) for each negative margin, in row order."""
    checked, negative = 0, []
    for m, group in groupby(rows, itemgetter(0)):
        group = [(*head, t0, t1 - t0) for _, head, t0, t1 in group if t0 < t1]
        if not group:
            continue
        floors, residues, starts, strides = [], [], [], []
        for (c0, *cs), w in forms:  # values at each row's start and end
            firsts = [c0 + sum(map(mul, cs, row)) for row in group]
            ends = [x + cs[-1] * row[-1] for x, row in zip(firsts, group)]
            gap = gcd(cs[-1], *(x - firsts[0] for x in firsts)) or 1
            values = range(min(firsts + ends), max(firsts + ends) + 1, gap)
            floors.append(_floor_route(m, w, values))
            residues.append(_fractional_route(m, w, values))
            starts.append([(x - values.start) // gap for x in firsts])
            strides.append(cs[-1] // gap)
        for (*head, t0, length), row_starts in zip(group, zip(*starts)):
            margins = _row_sums(floors, row_starts, strides, length)
            if list(map(mul, margins, repeat(m))) \
                    != _row_sums(residues, row_starts, strides, length):
                raise ArithmeticError(f"floor/fractional margin mismatch "
                                      f"on the row {(m, *head)}")
            checked += length
            if min(margins) < 0:
                negative.extend((m, (*head, t), margin) for t, margin
                                in enumerate(margins, t0) if margin < 0)
    return checked, negative


LEMMA24_REGIONS = ("all", "k0", "case3a")


def _sub_range(whole: range, part: range | None, name: str) -> range:
    """part, default whole; every value of part must lie in whole."""
    if part is None:
        return whole
    if part and (part[0] not in whole or part[-1] not in whole):
        raise ValueError(f"{name} must lie within {whole}")
    return part


def lemma24_scan(m_max: int, m_range: range | None = None, *,
                 region: str = "all",
                 full_range: int | None = None) -> LemmaAudit:
    """Scan the eight-floor inequality for 2 <= m <= m_max.

    By default n runs over the residues 0..m-1 plus the boundary row n=m
    (the margin only depends on n and k mod m, which the scan itself
    re-proves by comparing against the fractional-part form at every
    point); full_range=N instead scans all 0 <= n <= N directly.  region
    restricts the points audited: "k0" keeps the k=0 slice, "case3a"
    keeps points with 2n+k-1 >= 3m/2.  m_range restricts the scan to a
    part of 2..m_max; params still name the whole scan, so the audits of
    consecutive parts add up to the audit of the whole.
    The row kernel _margin_rows takes a row per (m, n) along k from the
    region's first k, or for "k0" a row per m along n.
    """
    if m_max < 2:
        raise ValueError("lemma24_scan needs m_max >= 2")
    if region not in LEMMA24_REGIONS:
        raise ValueError(f"region must be one of {LEMMA24_REGIONS}")
    if full_range is not None and full_range < 0:
        raise ValueError("full_range must be nonnegative")
    ms = _sub_range(range(2, m_max + 1), m_range, "m_range")
    tops = [m if full_range is None else full_range for m in ms]
    if region == "k0":  # the k = 0 slice, equal forms merged: rows along n
        weights: Counter = Counter()
        for (c0, c_n, _), w in _EIGHT_FLOOR_FORMS:
            weights[c0, c_n] += w
        forms = [(form, w) for form, w in weights.items() if w]
        rows = ((m, (), 0, top + 1) for m, top in zip(ms, tops))
    else:  # one row per (m, n), along k; case3a from 2(2n+k-1) >= 3m on
        forms = _EIGHT_FLOOR_FORMS
        rows = ((m, (n,), 0 if region == "all"
                 else max(0, (3 * m - 4 * n + 3) // 2), n + 1)
                for m, top in zip(ms, tops) for n in range(top + 1))
    checked, negative = _margin_rows(forms, rows)
    params = (("m_max", m_max), ("region", region),
              ("full_range", "none" if full_range is None else full_range))
    return LemmaAudit("2.4", params, checked, tuple(  # k0 points are (n,)
        MarginRecord(m, *(*point, 0)[:2], margin)
        for m, point, margin in negative))


# ---------------------------------------------------------------------------
# Integrality of W(n,k) and its valuation certificate
# ---------------------------------------------------------------------------

def lemma25_w(n: int, k: int) -> Fraction:
    """W(n,k) as a binomial product over C(2k,k)^2, cross-validated against
    its factorial form k!^3*(2n)!*(2k+4n-2)! / ((2k)!^3*n!*(n-1)!*(n-k)!^2
    *(k+2n-1)!) by cross-multiplication."""
    if n < 1 or not 0 <= k <= n:
        raise ValueError("lemma25_w needs n >= 1 and 0 <= k <= n")
    from fractions import Fraction
    num = (binomial(2 * n, n) * binomial(n, k) * binomial(k + n, 2 * k)
           * binomial(k + 2 * n - 1, n - 1)
           * binomial(2 * k + 4 * n - 2, k + 2 * n - 1))
    value = Fraction(num, binomial(2 * k, k) ** 2)
    fact_num = factorial(k) ** 3 * factorial(2 * n) * factorial(2 * k + 4 * n - 2)
    fact_den = (factorial(2 * k) ** 3 * factorial(n) * factorial(n - 1)
                * factorial(n - k) ** 2 * factorial(k + 2 * n - 1))
    if value.numerator * fact_den != value.denominator * fact_num:
        raise ArithmeticError(
            f"binomial and factorial forms of W disagree at {(n, k)}")
    return value


def lemma25_row(n: int) -> list[tuple[int, int]]:
    """W(n,k) for k = 1..n as pairs (P, D) with W = P/D: P the product
    C(2n,n) C(n,k) C(k+n,2k) C(k+2n-1,n-1) C(2k+4n-2,k+2n-1) and
    D = C(2k,k)**2, as in lemma25_w, stepped along k as the two sides of
    _LEMMA25_TABLE (_binomial_rows).  lemma25_scan holds them against
    the Legendre route at every point."""
    if n < 1:
        raise ValueError("lemma25_row needs n >= 1")
    return list(_binomial_rows(_LEMMA25_TABLE, (n,), range(1, n + 1)))


def _legendre_sums(n: int, k: int) -> list[tuple[int, int]]:
    """(p, v_p(W(n,k))) by Legendre's formula over the eight-floor table,
    for every prime p up to the largest factorial argument of the point."""
    values = _form_values(_EIGHT_FLOOR_FORMS, n, k)
    return [(p, sum(w * legendre_valuation(p, x) for x, w in values))
            for p in primes_upto(max(x for x, _ in values))]


def lemma25_valuations(n: int, k: int, w: Fraction | None = None
                       ) -> tuple[tuple[int, int, int], ...]:
    """Per-prime triples (p, margin-sum route, direct-valuation route).

    The first route sums the eight-floor margins over all powers of p
    (equivalently, combines Legendre factorial valuations); the second
    reduces W(n,k) to lowest terms and counts powers of p directly, in w
    when the caller holds W(n,k) already, else in lemma25_w(n, k).
    """
    ratio = lemma25_w(n, k) if w is None else w
    return tuple((p, v, rat_valuation(p, ratio))
                 for p, v in _legendre_sums(n, k))


def _lemma25_start(n: int, size: int) -> list[int]:
    """The exponent vector of W(n,1) as a list of length size: v_p at index
    p from _legendre_sums, zero at non-primes and at p > 4n, where no
    factorial argument reaches p."""
    exps = [0] * size
    for p, v in _legendre_sums(n, 1):
        exps[p] = v
    return exps


def _lemma25_steps(n: int, exps: list[int], spf: list[int]):
    """Step an exponent vector from W(n,1) to W(n,n), one k at a time.

    Yields (k, negatives, r) for k = 1..n, with exps updated in place to
    the vector at k, negatives the count of its negative entries and r the
    product of p**e over its positive entries.  Each step adds the
    valuations of the ratio's integers, read off the sieve spf, times their
    exponents; an entry moving from a to b multiplies or exactly divides r
    by p**(max(b, 0) - max(a, 0)).
    """
    steps = [(b + j, c, power if rises else -power)
             for b, c, width, power, rises
             in _moving_forms(_EIGHT_FLOOR_FORMS, n)
             for j in range(1, width + 1)]
    negatives = sum(1 for e in exps if e < 0)
    r = 1
    for p, e in enumerate(exps):
        if e > 0:
            r *= p ** e
    for k in range(1, n + 1):
        yield k, negatives, r
        if k == n:
            return
        delta: dict[int, int] = {}
        for a, c, weight in steps:
            m = a + c * k
            while m > 1:
                p = spf[m]
                m //= p
                delta[p] = delta.get(p, 0) + weight
        up = down = 1
        for p, d in delta.items():
            a = exps[p]
            b = exps[p] = a + d
            negatives += (b < 0) - (a < 0)
            change = max(b, 0) - max(a, 0)
            if change > 0:
                up *= p ** change
            elif change < 0:
                down *= p ** -change
        r = r * up // down


def lemma25_scan(n_max: int, n_range: range | None = None) -> LemmaAudit:
    """Assert W(n,k) integral for 1 <= k <= n <= n_max, with a valuation
    certificate that must reconstruct W exactly at every point.  n_range
    restricts the scan to a part of 1..n_max, as m_range does for
    lemma24_scan.

    For each n the exponent vector of W(n,1) comes from Legendre's formula
    once; stepping along k by the term ratio W(n,k+1)/W(n,k) then gives the
    vector of every W(n,k) at O(log n) small operations per point, with a
    count of negative exponents and the integer R they reconstruct kept
    current.  The binomial route to W(n,k) = P/D is lemma25_row, stepped
    along k too, from _LEMMA25_TABLE and never from the floor forms.  A
    point passes when no exponent is negative and
    R*D == P.  Otherwise W becomes a Fraction: a negative exponent is a
    violation, a W of 0 is one too, with R as its witness (R is never 0,
    and 0 has no valuation), and R differing from W names, through
    lemma25_valuations of that W, each prime where the Legendre sum and
    the direct valuation disagree.  R differing from W where every prime
    agrees means the stepping itself is wrong, which raises.
    """
    if n_max < 1:
        raise ValueError("lemma25_scan needs n_max >= 1")
    ns = _sub_range(range(1, n_max + 1), n_range, "n_range")
    spf = smallest_prime_factors(6 * n_max + 2)
    checked = 0
    violations = []
    for n in ns:
        exps = _lemma25_start(n, len(spf))
        for (k, negatives, reconstructed), (product, central_sq) in zip(
                _lemma25_steps(n, exps, spf), lemma25_row(n)):
            checked += 1
            if not negatives and reconstructed * central_sq == product:
                continue
            from fractions import Fraction  # only a failing point builds W
            w = Fraction(product, central_sq)
            if w.denominator != 1:
                violations.append(("non-integral", n, k, w))
            elif negatives:
                violations.append(("negative-valuation", n, k, tuple(
                    (p, e) for p, e in enumerate(exps) if e < 0)))
            elif not w:  # no valuation of 0: the routes disagree outright
                violations.append(("zero-value", n, k, reconstructed))
            elif reconstructed != w.numerator:
                mismatches = [("valuation-mismatch", n, k, p, margin_sum,
                               direct)
                              for p, margin_sum, direct
                              in lemma25_valuations(n, k, w)
                              if margin_sum != direct]
                if not mismatches:
                    raise ArithmeticError(
                        f"stepped valuation certificate of W is wrong at "
                        f"{(n, k)}")
                violations.extend(mismatches)
    params = (("n_max", n_max),)
    return LemmaAudit("2.5", params, checked, tuple(violations))


# ---------------------------------------------------------------------------
# Factorial divisibility and its five-floor inequality
# ---------------------------------------------------------------------------

def lemma26_point(n: int) -> DivisionCheck:
    """(2n-1)!*(2n-2)!*(3n-3)! divides (6n-5)!*(n-1)!."""
    if n < 1:
        raise ValueError("lemma26_point needs n >= 1")
    value = factorial(6 * n - 5) * factorial(n - 1)
    div = factorial(2 * n - 1) * factorial(2 * n - 2) * factorial(3 * n - 3)
    return divide(value, div)


def lemma26_rows(n_max: int) -> Iterator[DivisionCheck]:
    """lemma26_point(n) for n = 1..n_max, one at a time, with the five
    factorials of _FIVE_FLOOR_FORMS stepped along n instead of looked up,
    in base 10.

    The products start at n = 1, where every factorial argument is 0 or 1,
    and a form c0 + c_n*n moves from n to n + 1 by the rising product of
    its c_n next integers, into the numerator or the denominator by the
    sign of its weight (_step_factors): small multiplications only.  The
    products are integral Decimals under exact.DECIMAL_CONTEXT, where
    nothing rounds, so every field of a check is a Decimal that str renders
    in linear time; no large int is built or converted."""
    from .exact import DECIMAL_CONTEXT as ctx, Decimal
    moving = _moving_forms(_FIVE_FLOOR_FORMS)
    num = den = Decimal(1)
    for n in range(1, n_max + 1):
        if n > 1:  # from n - 1 to n
            up, down = _step_factors(moving, n - 1)
            num, den = ctx.multiply(num, up), ctx.multiply(den, down)
        q, r = ctx.divmod(num, den)
        yield DivisionCheck(num, den, q if r == 0 else None, r)


def lemma26_floor_margin(m: int, n: int) -> int:
    """Margin of floor((6n-5)/m) + floor((n-1)/m) against the three
    subtracted floors, via floor division only."""
    if m < 2:
        raise ValueError("lemma26_floor_margin needs m >= 2")
    if n < 1:
        raise ValueError("lemma26_floor_margin needs n >= 1")
    return sum(w * (x // m) for x, w in _form_values(_FIVE_FLOOR_FORMS, n))


def lemma26_ineq_scan(m_max: int, m_range: range | None = None) -> LemmaAudit:
    """Exhaustive five-floor margin scan over 2 <= m <= m_max, 1 <= n <= m,
    or over the part m_range of 2..m_max as in lemma24_scan.

    As with the eight-floor scan, both sides have equal linear sums
    (7n-6), so every margin is cross-checked against its fractional-part
    form.  The row kernel _margin_rows runs one row per m, along n."""
    if m_max < 2:
        raise ValueError("lemma26_ineq_scan needs m_max >= 2")
    ms = _sub_range(range(2, m_max + 1), m_range, "m_range")
    checked, negative = _margin_rows(_FIVE_FLOOR_FORMS,
                                     ((m, (), 1, m + 1) for m in ms))
    params = (("m_max", m_max),)
    return LemmaAudit("2.6", params, checked, tuple(
        MarginRecord(m, n, 0, margin) for m, (n,), margin in negative))


# ---------------------------------------------------------------------------
# Closed-form ratio identities for the scaled pair terms
# ---------------------------------------------------------------------------

RATIO_IDENTITIES = ("g1_col1", "g1_gen", "f1_corner", "catalan_split",
                    "g2_gen", "f2_corner", "telescoped_sum")


class RatioCheck(NamedTuple):
    """Both sides of one closed-form identity, evaluated independently.

    alt carries the intermediate closed form when the derivation states
    the same quantity twice; equality requires all recorded forms to
    agree."""

    identity: str
    big_n: int
    k: int | None
    lhs: Fraction
    rhs: Fraction
    alt: Fraction | None = None

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs and (self.alt is None or self.alt == self.lhs)


# The right sides of g1_gen and g2_gen carry 2**(4k + offset).
_TWO_POWER_OFFSETS = {"g1_gen": -8, "g2_gen": -7}


def ratio_k_values(identity: str, big_n: int):
    """Admissible k range for an identity (None when k is not a parameter)."""
    if identity not in RATIO_IDENTITIES:
        raise ValueError(f"unknown ratio identity {identity!r}")
    if identity == "g1_gen":
        return range(2, big_n + 1)
    if identity == "g2_gen":
        return range(0, big_n + 1)
    return None


def _scaled(pair: WZPairSpec, big_n: int, x: Fraction) -> DivisionCheck:
    """B^(N-1)*x against P(N): the pair's scale base B, divisor family P."""
    return divide(pair.scale_base ** (big_n - 1) * x,
                  divisor(pair.divisor_kind, big_n))


def _catalan(n: int) -> Fraction:
    """C(4n-4, 2n-2) / (2n-1), the Catalan number of index 2n-2."""
    from fractions import Fraction
    return Fraction(binomial(4 * n - 4, 2 * n - 2), 2 * n - 1)


def ratio_identity(identity: str, big_n: int, k: int | None = None) -> RatioCheck:
    """Evaluate both sides of one scaled-term closed form exactly.

    The left side scales the stored pair terms by the pair's own base and
    divisor family.  The right side is a quantity that a lemma function
    audits, times a power of 2; those functions never read the pair
    documents.  f1_corner reads the Catalan term of catalan_split.
    """
    if identity not in RATIO_IDENTITIES:
        raise ValueError(f"unknown ratio identity {identity!r}")
    if big_n < 2:
        raise ValueError("ratio identities need N >= 2")
    k_range = ratio_k_values(identity, big_n)
    if k_range is None:
        if k is not None:
            raise ValueError(f"{identity} does not take a k parameter")
    else:
        if k is None:
            raise ValueError(f"{identity} needs k in {k_range}")
        if k not in k_range:
            raise ValueError(f"{identity} needs k in {k_range}, got {k}")
    from fractions import Fraction

    from .hyperterm import eval_term
    n = big_n
    alt: Fraction | None = None
    pair1, pair2 = builtin_pair("guillera1"), builtin_pair("guillera2")

    if identity == "g1_col1":
        lhs = _scaled(pair1, n, eval_term(pair1.g.term, n, 1)).exact_quotient
        rhs = lemma23_point(n).division.exact_quotient
    elif identity == "g1_gen":
        lhs = _scaled(pair1, n, eval_term(pair1.g.term, n, k)).exact_quotient
        rhs = ((-1) ** (k + 1)
               * Fraction(2) ** (4 * k + _TWO_POWER_OFFSETS[identity])
               * binomial(2 * n - 2 * k, n - k)
               * lemma22_point(n, k).exact_quotient)
    elif identity == "f1_corner":
        lhs = _scaled(pair1, n,
                      eval_term(pair1.f.term, n - 1, n - 1)).exact_quotient
        alt = Fraction(
            (-1) ** (n + 1) * 2 ** (4 * n - 5) * (8 * n * n - 10 * n + 3)
            * binomial(2 * n - 2, n - 1) ** 2 * binomial(4 * n - 4, 2 * n - 2),
            n * n * binomial(2 * n, n) ** 2)
        rhs = (-1) ** (n + 1) * 2 ** (4 * n - 7) * (4 * n - 3) * _catalan(n)
    elif identity == "catalan_split":
        lhs = _catalan(n)
        rhs = Fraction(binomial(4 * n - 4, 2 * n - 2)
                       - binomial(4 * n - 4, 2 * n - 3))
    elif identity == "g2_gen":
        lhs = _scaled(pair2, n, eval_term(pair2.g.term, n, k)).exact_quotient
        rhs = (Fraction(2) ** (4 * k + _TWO_POWER_OFFSETS[identity])
               * lemma25_w(n, k))
    elif identity == "f2_corner":
        lhs = _scaled(pair2, n,
                      eval_term(pair2.f.term, n - 1, n - 1)).exact_quotient
        alt = Fraction(
            3 * 2 ** (4 * n - 5) * (12 * n * n - 16 * n + 5)
            * binomial(2 * n - 2, n - 1) * binomial(3 * n - 3, n - 1)
            * binomial(6 * n - 6, 3 * n - 3),
            n * n * binomial(2 * n, n) ** 2)
        rhs = 3 * 2 ** (4 * n - 7) * lemma26_point(n).exact_quotient
    else:  # telescoped_sum: the pair telescopes to its own sum
        lhs = _scaled(pair2, n, sum(eval_term(pair2.f.term, j, 0)
                                    for j in range(n))).value
        rhs = Fraction(eval_sum(pair2.name, n))
    return RatioCheck(identity, n, k, lhs, rhs, alt)


def ratio_row_failures(identity: str, big_n: int) -> list[RatioCheck]:
    """ratio_identity(identity, N, k) at each k where it is not equal, in
    the order of k, for identity g1_gen or g2_gen: the whole row of N at
    once.

    The left side is the pair's G(N, k) as an unreduced pair, the row
    G(N, k) over ratio_k_values(identity, N) taken by one eval_term_row,
    times B^(N-1) over P(N); an undefined G(N, k) raises its TermEvalError.
    The right side reads the stepped rows: lemma22_row(N) for g1_gen, and
    for g2_gen lemma25_w(N, 0) at k = 0, then lemma25_row(N).  The sides
    are compared by cross-multiplication, and only a failing k builds its
    Fractions.
    """
    if identity not in _TWO_POWER_OFFSETS:
        raise ValueError(f"ratio rows are stated for "
                         f"{sorted(_TWO_POWER_OFFSETS)}, not {identity!r}")
    if big_n < 2:
        raise ValueError("ratio identities need N >= 2")
    from fractions import Fraction

    from .hyperterm import TermEvalError, eval_term_row
    n = big_n
    pair = builtin_pair("guillera1" if identity == "g1_gen" else "guillera2")
    scale = pair.scale_base ** (n - 1)
    div = divisor(pair.divisor_kind, n)
    if identity == "g1_gen":  # from k = 2
        rights = [((-1) ** (k + 1) * binomial(2 * n - 2 * k, n - k)
                   * check.value, check.divisor)
                  for k, check in enumerate(lemma22_row(n)[1:], 2)]
    else:
        w0 = lemma25_w(n, 0)
        rights = chain([(w0.numerator, w0.denominator)], lemma25_row(n))
    k_range = ratio_k_values(identity, n)
    failures = []
    for k, (r_num, r_den), g in zip(k_range, rights,
                                    eval_term_row(pair.g.term, n, k_range)):
        if isinstance(g, TermEvalError):
            raise g
        e = 4 * k + _TWO_POWER_OFFSETS[identity]
        if e >= 0:
            r_num <<= e
        else:
            r_den <<= -e
        g_num, g_den = g
        l_num, l_den = g_num * scale, g_den * div
        if l_num * r_den != r_num * l_den:
            failures.append(RatioCheck(identity, n, k, Fraction(l_num, l_den),
                                       Fraction(r_num, r_den)))
    return failures
