"""Line-oriented text format for hypergeometric terms.

    # optional note lines
    term <name>
    sign (-1)^(<linform>)            optional, default exponent 0
    base <int>^(<linform>)           zero or more
    factor binom(<linform>,<linform>)^<int>   power optional, default 1
    poly <polynomial>                required
    denompoly <polynomial>           optional, default 1
    end

Polynomials use +, -, *, ^ over integer literals and the symbols n and
k; whitespace inside a line is insignificant and '#' starts a comment.
Serialization is canonical (decreasing lex term order, n before k), so
serialize(parse(serialize(parse(text)))) == serialize(parse(text)) and
files written by the serializer round-trip byte for byte, unless a base in
them is longer than the int-from-str digit limit (see serialize_document).
"""
from __future__ import annotations

import re
import sys
from fractions import Fraction

from .exact import int_text
from .hyperterm import (BaseFactor, BinomFactor, HypergeometricTerm,
                        LinearForm, TermDocument, ZERO_FORM)
from .polyalg import BivarPoly

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.:\-]*$")


class DslError(ValueError):
    """Base class for term-source errors; carries a 1-based line number."""

    def __init__(self, message: str, line: int, col: int | None = None):
        loc = f"line {line}" if col is None else f"line {line}, col {col}"
        super().__init__(f"{loc}: {message}")
        self.line = line
        self.col = col


class ParseError(DslError):
    """Malformed syntax."""


class SemanticError(DslError):
    """Well-formed syntax with an invalid meaning (bad base, zero denom)."""


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|([+\-*^(),]))")


class _Tokens:
    """Token stream over one line's payload with column tracking."""

    def __init__(self, text: str, line: int, col0: int):
        self.line = line
        self.toks: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                bad_col = col0 + pos + (len(text[pos:]) - len(stripped))
                raise ParseError(f"unexpected character {stripped[0]!r}",
                                 line, bad_col + 1)
            kind = "INT" if m.group(1) else ("NAME" if m.group(2) else "SYM")
            value = m.group(1) or m.group(2) or m.group(3)
            self.toks.append((kind, value, col0 + m.start() + len(m.group(0))
                              - len(value) + 1))
            pos = m.end()
        self.idx = 0

    def peek(self) -> tuple[str, str, int]:
        if self.idx < len(self.toks):
            return self.toks[self.idx]
        return ("EOF", "", self.toks[-1][2] + len(self.toks[-1][1]) if self.toks else 1)

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != "EOF":
            self.idx += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {tok[1] or 'end of line'!r}",
                             self.line, tok[2])
        return tok

    def at_end(self) -> bool:
        return self.peek()[0] == "EOF"

    def expect_end(self) -> None:
        tok = self.peek()
        if tok[0] != "EOF":
            raise ParseError(f"trailing input {tok[1]!r}", self.line, tok[2])


def _literal(toks: _Tokens, value: str, col: int) -> int:
    """The INT token value as an int; a literal longer than the int-from-str
    digit limit is a ParseError at its position, not a crash."""
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"integer literal of {len(value)} digits exceeds "
                         f"the {sys.get_int_max_str_digits()}-digit limit",
                         toks.line, col) from None


def _parse_int(toks: _Tokens) -> int:
    sign = 1
    tok = toks.peek()
    if tok == ("SYM", "-", tok[2]):
        toks.next()
        sign = -1
    kind, value, col = toks.next()
    if kind != "INT":
        raise ParseError(f"expected integer, found {value or 'end of line'!r}",
                         toks.line, col)
    return sign * _literal(toks, value, col)


def _parse_poly(toks: _Tokens) -> BivarPoly:
    """sum of products of INT | n | k, each with an optional ^INT power."""
    total: dict[tuple[int, int], int] = {}
    first = True
    while True:
        sign = 1
        tok = toks.peek()
        if tok[0] == "SYM" and tok[1] in "+-":
            toks.next()
            sign = -1 if tok[1] == "-" else 1
        elif not first:
            break
        coeff, en, ek = sign, 0, 0
        while True:
            kind, value, col = toks.next()
            if kind == "INT":
                base, exp = _literal(toks, value, col), 1
            elif kind == "NAME" and value in ("n", "k"):
                base, exp = value, 1
            else:
                raise ParseError(
                    f"expected integer, 'n' or 'k', found {value or 'end of line'!r}",
                    toks.line, col)
            nxt = toks.peek()
            if nxt[0] == "SYM" and nxt[1] == "^":
                toks.next()
                kind2, value2, col2 = toks.next()
                if kind2 != "INT":
                    raise ParseError(
                        f"expected non-negative exponent, found {value2 or 'end of line'!r}",
                        toks.line, col2)
                exp = _literal(toks, value2, col2)
            if base == "n":
                en += exp
            elif base == "k":
                ek += exp
            else:
                coeff *= base ** exp
            nxt = toks.peek()
            if nxt[0] == "SYM" and nxt[1] == "*":
                toks.next()
                continue
            break
        total[(en, ek)] = total.get((en, ek), 0) + coeff
        first = False
        tok = toks.peek()
        if not (tok[0] == "SYM" and tok[1] in "+-"):
            break
    return BivarPoly({m: Fraction(c) for m, c in total.items() if c})


def _parse_linform(toks: _Tokens) -> LinearForm:
    start = toks.peek()
    poly = _parse_poly(toks)
    if poly.total_degree() > 1:
        raise ParseError("expression is not linear in n and k",
                         toks.line, start[2])
    a = poly.coefficient(1, 0)
    b = poly.coefficient(0, 1)
    c = poly.coefficient(0, 0)
    return LinearForm(int(a), int(b), int(c))


def _strip_comment(raw: str) -> str:
    cut = raw.find("#")
    return raw if cut < 0 else raw[:cut]


_KEYWORD_RE = re.compile(r"^(\s*)(\S+)")


def parse_document(text: str) -> TermDocument:
    """Parse one term document; raises ParseError/SemanticError on bad input."""
    name: str | None = None
    note_lines: list[str] = []
    sign: LinearForm | None = None
    bases: list[BaseFactor] = []
    binoms: list[BinomFactor] = []
    numer: BivarPoly | None = None
    denom: BivarPoly | None = None
    ended = False
    last_line = 0

    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            if name is None:
                note_lines.append(stripped[1:].removeprefix(" "))
            continue
        if ended:
            raise ParseError("content after 'end'", line_no, 1)
        m = _KEYWORD_RE.match(_strip_comment(raw))
        keyword = m.group(2)
        col0 = m.end(0)
        payload = _strip_comment(raw)[col0:]

        if keyword == "term":
            if name is not None:
                raise ParseError("duplicate 'term' line", line_no, 1)
            candidate = payload.strip()
            if not _NAME_RE.match(candidate):
                raise ParseError(f"invalid term name {candidate!r}", line_no,
                                 col0 + 1)
            name = candidate
            continue
        if name is None:
            raise ParseError(f"expected 'term', found {keyword!r}", line_no, 1)

        toks = _Tokens(payload, line_no, col0)
        if keyword == "sign":
            if sign is not None:
                raise ParseError("duplicate 'sign' line", line_no, 1)
            toks.expect("SYM", "(")
            toks.expect("SYM", "-")
            one = toks.expect("INT")
            if one[1] != "1":
                raise ParseError("sign base must be (-1)", line_no, one[2])
            toks.expect("SYM", ")")
            toks.expect("SYM", "^")
            toks.expect("SYM", "(")
            sign = _parse_linform(toks)
            toks.expect("SYM", ")")
            toks.expect_end()
        elif keyword == "base":
            tok = toks.peek()
            base = _parse_int(toks)
            if abs(base) < 2:
                raise SemanticError(f"base {base} must have absolute value >= 2",
                                    line_no, tok[2])
            toks.expect("SYM", "^")
            toks.expect("SYM", "(")
            exponent = _parse_linform(toks)
            toks.expect("SYM", ")")
            toks.expect_end()
            bases.append(BaseFactor(base, exponent))
        elif keyword == "factor":
            word = toks.expect("NAME")
            if word[1] != "binom":
                raise ParseError(f"expected 'binom', found {word[1]!r}",
                                 line_no, word[2])
            toks.expect("SYM", "(")
            top = _parse_linform(toks)
            toks.expect("SYM", ",")
            bottom = _parse_linform(toks)
            toks.expect("SYM", ")")
            power = 1
            if not toks.at_end():
                toks.expect("SYM", "^")
                power = _parse_int(toks)
            toks.expect_end()
            binoms.append(BinomFactor(top, bottom, power))
        elif keyword == "poly":
            if numer is not None:
                raise ParseError("duplicate 'poly' line", line_no, 1)
            numer = _parse_poly(toks)
            toks.expect_end()
        elif keyword == "denompoly":
            if denom is not None:
                raise ParseError("duplicate 'denompoly' line", line_no, 1)
            denom = _parse_poly(toks)
            toks.expect_end()
            if denom.is_zero():
                raise SemanticError("denominator polynomial is zero", line_no,
                                    col0 + 1)
        elif keyword == "end":
            toks.expect_end()
            ended = True
        else:
            raise ParseError(f"unknown keyword {keyword!r}", line_no, 1)

    if name is None:
        raise ParseError("missing 'term' line", last_line + 1 if last_line else 1)
    if numer is None:
        raise ParseError("missing 'poly' line", last_line)
    if not ended:
        raise ParseError("missing 'end' line", last_line)

    term = HypergeometricTerm(
        sign_exponent=sign if sign is not None else ZERO_FORM,
        base_factors=tuple(bases),
        binom_factors=tuple(binoms),
        numer_poly=numer,
        denom_poly=denom if denom is not None else BivarPoly.const(1),
    )
    return TermDocument(name=name, term=term, note="\n".join(note_lines))


def _digit_parts(digits: str, e: int = 0) -> list[tuple[int, int]]:
    """(d, e) pairs, the d * 10**e summing to the decimal digits, each d
    within the int-from-str digit limit: the digits halved as
    exact.int_text halves them, with zero parts left out."""
    if len(digits) <= (sys.get_int_max_str_digits() or len(digits)):
        return [(int(digits), e)] if digits.strip("0") else []
    half = len(digits) // 2
    return _digit_parts(digits[:-half], e + half) + _digit_parts(
        digits[-half:], e)


def _poly_text(poly: BivarPoly) -> str:
    """poly.render(), but an integer coefficient longer than the
    int-from-str digit limit is written as like monomials d*m*10^e, one
    per part of its digits (_digit_parts), which the parser adds up."""
    terms = []
    for m, c in sorted(poly.items(), reverse=True):
        parts = ([(c, 0)] if c.denominator != 1 else
                 _digit_parts(int_text(abs(c.numerator))))
        terms += [BivarPoly({m: d if c > 0 else -d}).render()
                  + (f"*10^{e}" if e else "") for d, e in parts]
    return "+".join(terms).replace("+-", "-") or "0"


def serialize_document(doc: TermDocument) -> str:
    """Canonical text form; parse(serialize(d)) reproduces d exactly.

    Every integer is written exactly at any size.  A coefficient longer
    than the int-from-str digit limit, which parse would reject as one
    literal, is written as like monomials (_poly_text), so it round-trips
    too.  A base is one literal, and one past the limit (exact.int_text)
    does not parse back."""
    lines: list[str] = []
    if doc.note:
        for note_line in doc.note.split("\n"):
            lines.append(f"# {note_line}" if note_line else "#")
    lines.append(f"term {doc.name}")
    t = doc.term
    if t.sign_exponent != ZERO_FORM:
        lines.append(f"sign (-1)^({_poly_text(t.sign_exponent.as_poly())})")
    for bf in t.base_factors:
        lines.append(f"base {int_text(bf.base)}"
                     f"^({_poly_text(bf.exponent.as_poly())})")
    for fb in t.binom_factors:
        suffix = "" if fb.power == 1 else f"^{fb.power}"
        lines.append(f"factor binom({_poly_text(fb.top.as_poly())},"
                     f"{_poly_text(fb.bottom.as_poly())}){suffix}")
    lines.append(f"poly {_poly_text(t.numer_poly)}")
    if t.denom_poly != BivarPoly.const(1):
        lines.append(f"denompoly {_poly_text(t.denom_poly)}")
    lines.append("end")
    return "\n".join(lines) + "\n"

