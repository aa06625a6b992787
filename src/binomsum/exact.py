"""Exact integer and rational arithmetic primitives.

All functions operate on Python ints (arbitrary precision) and
fractions.Fraction; nothing here ever rounds, and int_text renders an int
of any size in decimal.  Neither fractions nor decimal is imported here:
rat_valuation reads numerator and denominator, which ints have too.

DECIMAL_CONTEXT is the one context for integer arithmetic in base 10, for
numbers that are only ever printed: it keeps every digit and traps every
rounding, so each operation under it is exact or raises.  This module is
the only one that imports decimal, on the first access to Decimal or
DECIMAL_CONTEXT (PEP 562), so a process that makes no Decimal, such as a
sumcheck or a lemma 2.2-2.5 audit, never loads it.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

factorial = math.factorial


def __getattr__(name: str):
    """Decimal or DECIMAL_CONTEXT, made with decimal's import on first
    access and the same object on every access after."""
    if name not in ("Decimal", "DECIMAL_CONTEXT"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, \
        DivisionByZero, Inexact, InvalidOperation, Overflow, Rounded
    globals().update(Decimal=Decimal, DECIMAL_CONTEXT=Context(
        prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
        traps=[Inexact, Rounded, InvalidOperation, DivisionByZero,
               Overflow]))
    return globals()[name]


def binomial(a: int, b: int) -> int:
    """Binomial coefficient with the zero convention.

    C(a, b) = 0 whenever b < 0, a < 0, or b > a; otherwise math.comb(a, b).
    The zero convention is what makes hypergeometric terms vanish outside
    their support, so audits rely on it rather than raising.
    """
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


def int_text(value: int) -> str:
    """str(value) for an int of any size.

    Within sys.get_int_max_str_digits() digits this is str() itself.
    Beyond it, |value| is split by divmod at about half its digits, and
    each half is rendered the same way, so every str() call stays under
    the limit, which itself stays in force.  For the 4,300 to 10,000
    digits the int audits produce (sumcheck near n = 2000) and the
    coefficients a symbolic render may carry, this is faster than a divide
    and conquer through exact decimal values, which wins only above about
    15,000 digits.  Numbers that are computed only to be printed (lemma
    2.6's rows) are kept in base 10 from the start, under DECIMAL_CONTEXT.
    """
    try:
        return str(value)
    except ValueError:  # more digits than the int-to-str limit allows
        pass
    half = (abs(value).bit_length() * 1233 >> 12) // 2  # log10(2) ~ 1233/4096
    hi, lo = divmod(abs(value), 10 ** half)
    digits = int_text(hi) + int_text(lo).zfill(half)
    return "-" + digits if value < 0 else digits


def legendre_valuation(p: int, n: int) -> int:
    """v_p(n!) as the sum of floor(n / p^i); p must be prime (caller's duty)."""
    if p < 2:
        raise ValueError(f"modulus {p} is not a valid prime")
    if n < 0:
        raise ValueError(f"negative factorial argument {n}")
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def int_valuation(p: int, m: int) -> int:
    """Exponent of p in the nonzero integer m."""
    if p < 2:
        raise ValueError(f"modulus {p} is not a valid prime")
    if m == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def rat_valuation(p: int, x: Fraction | int) -> int:
    """v_p of a nonzero rational, an int or a Fraction in lowest terms:
    v_p(numerator) - v_p(denominator)."""
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    v = int_valuation(p, x.numerator)
    if x.denominator != 1:
        v -= int_valuation(p, x.denominator)
    return v


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit, ascending (simple sieve)."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p:: p] = bytearray((limit - p * p) // p + 1)
    return [i for i, flag in enumerate(sieve) if flag]


def smallest_prime_factors(limit: int) -> list[int]:
    """spf[m] = the smallest prime factor of m, for 0 <= m <= limit.

    Entries 0 and 1 are 0; m >= 2 is prime exactly when spf[m] == m.  A
    limit below 0 gives the empty list.  Linear sieve (Gries and Misra,
    CACM 1978): each composite is struck once, by its smallest prime.
    """
    spf = [0] * (max(limit, -1) + 1)
    primes: list[int] = []
    for i in range(2, limit + 1):
        if spf[i] == 0:
            spf[i] = i
            primes.append(i)
        for p in primes:
            if p > spf[i] or i * p > limit:
                break
            spf[i * p] = p
    return spf
