"""Grid, symbolic, and telescoping audits for certificate pairs.

A pair (F, G) is accepted when F(n,k-1) - F(n,k) = G(n+1,k) - G(n,k).  The
grid check tests that equation pointwise over exact rationals; the symbolic
check proves it for all (n, k) at once by cancelling the common
hypergeometric part; the telescoping audit scales column sums of G to
integers and divides them by the target divisor.

telescope_audits steps the conclusions along a run of N by
hyperterm.k0_prefix_sums, and telescope_audit is its value at one N.  An
undefined term is an entry of its own, its TermEvalError, and fails that N.

The grid and telescope audits work on the unreduced integer pairs of
hyperterm.eval_term_row, which evaluates a term along a run of k and falls
back to eval_term_pair per point where a binomial can vanish.  The grid
compares its two differences by cross-multiplication, and the telescope
audit decides each scaled value by one divmod and sums the integers; a
passing audit builds no Fraction.
Only a violation's sides and a non-integral value become Fractions, in
lowest terms, so reports read as they would over Fractions throughout.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .hyperterm import TermEvalError, eval_term_row, k0_prefix_sums, \
    shift_quotient, term_quotient
from .pairs import WZPairSpec
from .polyalg import RationalFunction
from .verify import DivisionCheck, divide, divisors

GridPoint = tuple[int, int]
Pair = tuple[int, int]  # (num, den), den > 0: an unreduced exact value
Entry = DivisionCheck | TermEvalError  # a telescope entry or why it is not


def _difference(p: Pair, q: Pair) -> Pair:
    """p - q of two unreduced pairs, unreduced."""
    return p[0] * q[1] - q[0] * p[1], p[1] * q[1]


GridRow = tuple[int, list[tuple[GridPoint, Fraction, Fraction]],
                list[tuple[GridPoint, str]]]


def wz_grid_rows(pair: WZPairSpec, rows: range) -> list[GridRow]:
    """Check consecutive grid rows; one (checked, violations, skipped) per
    row n, over 1 <= k <= n.

    Points where some term is undefined (a denominator vanishes) are
    reported as skipped rather than failing the audit; the reason is the
    first failure among F(n,k-1), F(n,k), G(n+1,k), G(n,k) in that order.
    F(n,k) is evaluated once for k = 0..n, as one eval_term_row, and
    shared by neighbouring points; the row G(n+1,k) checked against row n
    is kept as G(n,k) for row n+1, so each term value is evaluated once
    per block of rows.  Values are unreduced integer pairs, those of
    eval_term_pair, and the two sides are compared by cross-multiplication;
    only a violation reduces them, to the lowest-terms Fractions it reports.
    """
    if rows.step != 1 or not rows or rows.start < 1:
        raise ValueError("rows must be a nonempty run of n >= 1")
    f, g = pair.f.term, pair.g.term
    # g_row[k - 1] holds G(n, k) for 1 <= k <= n; g_next likewise for n + 1.
    g_row = eval_term_row(g, rows.start, range(1, rows.start + 1))
    results: list[GridRow] = []
    for n in rows:
        f_row = eval_term_row(f, n, range(n + 1))
        g_next = eval_term_row(g, n + 1,
                               range(1, n + 2 if n + 1 in rows else n + 1))
        checked = 0
        violations: list[tuple[GridPoint, Fraction, Fraction]] = []
        skipped: list[tuple[GridPoint, str]] = []
        for k in range(1, n + 1):
            values = f_row[k - 1], f_row[k], g_next[k - 1], g_row[k - 1]
            error = next((v for v in values if isinstance(v, TermEvalError)),
                         None)
            if error is not None:
                skipped.append(((n, k), str(error)))
                continue
            checked += 1
            lhs = _difference(values[0], values[1])
            rhs = _difference(values[2], values[3])
            if lhs[0] * rhs[1] != rhs[0] * lhs[1]:
                violations.append(((n, k), Fraction(*lhs), Fraction(*rhs)))
        results.append((checked, violations, skipped))
        g_row = g_next
    return results


def wz_grid_row(pair: WZPairSpec, n: int) -> GridRow:
    """Check one grid row 1 <= k <= n; returns (checked, violations, skipped)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return wz_grid_rows(pair, range(n, n + 1))[0]


def wz_certificate(pair: WZPairSpec) -> RationalFunction:
    """The rational certificate r(n,k) = F(n,k) / G(n,k)."""
    return term_quotient(pair.f.term, pair.g.term)


def wz_symbolic_check(pair: WZPairSpec
                      ) -> tuple[bool, RationalFunction, RationalFunction]:
    """Prove the pair identity for all (n, k) at once.

    Dividing the defining equation by G(n,k) leaves only rational
    functions: with r = F/G the identity reads

        (F(n,k-1)/F(n,k)) * r - r - G(n+1,k)/G(n,k) + 1 = 0.

    Returns the vanishing flag, the residual of that equation and the
    certificate r it was built from; the residual is identically zero
    exactly when the pair telescopes.
    """
    cert = wz_certificate(pair)
    f_back = shift_quotient(pair.f.term, 0, -1)
    g_up = shift_quotient(pair.g.term, 1, 0)
    residual = f_back * cert - cert - g_up + RationalFunction.const(1)
    return residual.is_zero(), residual, cert


class TelescopeAudit(NamedTuple):
    """Scaled column audit of G at a fixed row N.

    Writing B for the scale base and s = B**scale_exp, the audit records
    s*G(N,k) for k = 1..N-1, their sum, the scaled corner s*F(N-1,N-1),
    and the telescoped conclusion s * sum(F(n,0) for n < N); each entry is
    a DivisionCheck by P(N), ok only for an integer that P(N) divides, or
    the TermEvalError of an undefined term (the sum's is the first G's).
    """

    pair_name: str
    big_n: int
    divisor_kind: str
    divisor: int
    scale_exp: int
    g_terms: tuple[tuple[int, Entry], ...]
    g_sum: Entry
    corner: Entry
    conclusion: Entry

    @property
    def failure(self) -> tuple[str, Entry] | None:
        """(label, entry) of the first undefined entry, else of the first
        failing one, in the order g_term_k<k>, g_sum, corner, conclusion."""
        entries = ([(f"g_term_k{k}", rec) for k, rec in self.g_terms]
                   + [("g_sum", self.g_sum), ("corner", self.corner),
                      ("conclusion", self.conclusion)])
        return (next((e for e in entries if isinstance(e[1], TermEvalError)),
                     None)
                or next((e for e in entries if not e[1].ok), None))

    @property
    def ok(self) -> bool:
        return self.failure is None


def _scaled_division(value: Pair | TermEvalError, scale: Pair,
                     div: int) -> Entry:
    """scale * value, an int or a non-integral Fraction, divided by div."""
    if isinstance(value, TermEvalError):
        return value
    num, den = scale[0] * value[0], scale[1] * value[1]
    q, r = divmod(num, den)
    return divide(Fraction(num, den) if r else q, div)


def telescope_audits(pair: WZPairSpec, big_ns: range, *,
                     scale_exp: int | None = None,
                     divisor_kind: str | None = None):
    """Audit each row N of big_ns, a range of N >= 2 of step 1, of the
    telescoped identity for one pair.

    scale_exp defaults to N-1, which clears every denominator for the
    builtin pairs; pass a different exponent to probe how sharp that
    scaling is.  divisor_kind defaults to the pair's own convention.
    """
    if big_ns.step != 1 or (big_ns and big_ns.start < 2):
        raise ValueError("telescoping audits need a range of N >= 2 of step 1")
    kind = pair.divisor_kind if divisor_kind is None else divisor_kind
    f, g = pair.f.term, pair.g.term
    for big_n, prefix, div in zip(big_ns, k0_prefix_sums(f, big_ns),
                                  divisors(kind, big_ns)):
        exp = big_n - 1 if scale_exp is None else scale_exp
        # B**exp as a pair; its den may be negative, which divmod allows.
        scale = ((pair.scale_base ** exp, 1) if exp >= 0
                 else (1, pair.scale_base ** -exp))
        g_terms = tuple((k, _scaled_division(value, scale, div))
                        for k, value in enumerate(
                            eval_term_row(g, big_n, range(1, big_n)), 1))
        errors = [rec for _, rec in g_terms if isinstance(rec, TermEvalError)]
        g_sum = errors[0] if errors else divide(
            sum(rec.value for _, rec in g_terms), div)
        corner, = eval_term_row(f, big_n - 1, range(big_n - 1, big_n))
        yield TelescopeAudit(pair.name, big_n, kind, div, exp, g_terms, g_sum,
                             _scaled_division(corner, scale, div),
                             _scaled_division(prefix, scale, div))


def telescope_audit(pair: WZPairSpec, big_n: int, *,
                    scale_exp: int | None = None,
                    divisor_kind: str | None = None) -> TelescopeAudit:
    """Audit row N of the telescoped identity: telescope_audits over N
    alone, which steps the sum of F(n, 0) for n < N afresh."""
    return next(telescope_audits(pair, range(big_n, big_n + 1),
                                 scale_exp=scale_exp,
                                 divisor_kind=divisor_kind))
