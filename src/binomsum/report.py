"""Uniform audit report records and their serializers.

Every value a record carries is exact: witnesses keep the ints, Fractions
and integral Decimals the audits computed, and the writers render each one
in decimal through number_text, which is exact at any size.  This module
imports neither fractions nor decimal: number_text names their classes
only for a value that is neither an int nor a str, so a report of ints
loads neither.  Records are
taken one at a time from any iterable, and no writer holds more than the
record in hand.  spill writes a report into a seekable text stream and
returns the function that copies it out, in chunks of _CHUNK characters
through out.write; the command line spills into a file, so that a run
that stops early writes nothing.  JSON and CSV lines go whole into the
spill.  The human table needs its column widths before its first line, so
it keeps only each record's short heads (status, check and params), spills
the witness text, and pads the heads as it copies.  write puts a report on
a stream directly (the human table through a spill in memory), and render
returns the same bytes as one string.  All three output formats are
deterministic functions of the record sequence, so report bytes are
identical no matter how the records were computed.
"""
from __future__ import annotations

import io
from functools import partial
from typing import TYPE_CHECKING, Callable, NamedTuple, TextIO

from .exact import int_text
from .records import Validated

if TYPE_CHECKING:
    from fractions import Fraction

    from .exact import Decimal

FORMATS = ("json", "csv", "human")

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


class _RecordFields(NamedTuple):
    check: str
    params: tuple[tuple[str, int | str], ...]
    status: str
    witness: tuple[tuple[str, int | Fraction | Decimal | str], ...] = ()


class ReportRecord(Validated, _RecordFields):
    """One audit outcome: which check, at which parameters, with witnesses."""

    __slots__ = ()

    def _validate(self) -> None:
        if self.status not in (PASS, FAIL, SKIPPED):
            raise ValueError(f"unknown status {self.status!r}")


# ---------------------------------------------------------------------------
# Exact decimal text of any size
# ---------------------------------------------------------------------------

def number_text(value: int | Fraction | Decimal | str) -> str:
    """str(value), exact at any size: an int in decimal, a Fraction as
    p/q (or p when q is 1), an integral Decimal of exponent 0 by str in
    linear time, and any other value as str gives it.  Any other Decimal
    (1E+3, 2.5, NaN) raises ValueError, so no report prints scientific
    notation.

    Ints and strs are rendered before either class is named, so a report
    of ints loads neither fractions nor decimal.  Any other value is a
    Decimal, whose module is loaded by then, or a Fraction, whose module
    has loaded decimal too."""
    if isinstance(value, int):
        return int_text(value)
    if isinstance(value, str):
        return value
    from .exact import Decimal
    if isinstance(value, Decimal):
        if not value.same_quantum(1):  # exponent 0: the only one rendered
            raise ValueError(f"{value!r} is not an integer of exponent 0")
        return str(value)
    from fractions import Fraction
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int_text(value.numerator)
        return f"{int_text(value.numerator)}/{int_text(value.denominator)}"
    return str(value)


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------

def _witness_obj(record: ReportRecord) -> dict:
    return {key: number_text(value) for key, value in record.witness}


def _write_json(records, out: TextIO) -> None:
    """One JSON object per line with keys check, params, status, witness."""
    import json  # here, so that human-format runs never load it
    for rec in records:
        out.write(json.dumps(
            {"check": rec.check, "params": dict(rec.params),
             "status": rec.status, "witness": _witness_obj(rec)},
            sort_keys=True, separators=(",", ":")))
        out.write("\n")


def _write_csv(records, out: TextIO) -> None:
    """Fixed columns check,params,status,witness; structured cells as JSON."""
    import csv  # here, so that human-format runs never load it
    import json
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["check", "params", "status", "witness"])
    for rec in records:
        writer.writerow([
            rec.check,
            json.dumps(dict(rec.params), sort_keys=True, separators=(",", ":")),
            rec.status,
            json.dumps(_witness_obj(rec), sort_keys=True, separators=(",", ":")),
        ])


def _pairs_text(pairs: tuple[tuple[str, object], ...]) -> str:
    return " ".join(f"{key}={number_text(value)}" for key, value in pairs)


# Characters per read from a spill and per write of its copy.
_CHUNK = 1 << 13


def _copy(spill: TextIO, out: TextIO, size: int | None = None) -> None:
    """The next size characters of spill, or all that are left, to out."""
    while size is None or size > 0:
        chunk = spill.read(_CHUNK if size is None else min(size, _CHUNK))
        if not chunk:
            return
        out.write(chunk)
        if size is not None:
            size -= len(chunk)


def _copy_all(spill: TextIO, out: TextIO) -> None:
    spill.seek(0)
    _copy(spill, out)


def _spill_human(records, into: TextIO):
    """An aligned table: STATUS CHECK PARAMS | WITNESS.  The heads and
    the widths of their columns stay here; each witness's text goes into
    the spill, and the copy pads each head to the widths and appends its
    witness."""
    heads = []  # (status, check, params text, witness characters)
    widths = [0, 0, 0]
    for rec in records:
        head = (rec.status, rec.check, _pairs_text(rec.params))
        widths = [max(w, len(text)) for w, text in zip(widths, head)]
        size = into.write(_pairs_text(rec.witness).rstrip()) \
            if rec.witness else 0
        heads.append((*head, size))

    def copy(out: TextIO) -> None:
        status_w, check_w, params_w = widths
        into.seek(0)
        for status, check, params, size in heads:
            line = (f"{status.upper():<{status_w}}  {check:<{check_w}}  "
                    f"{params:<{params_w}}")
            if not size:
                out.write(line.rstrip() + "\n")
                continue
            out.write(line + "  | ")
            _copy(into, out, size)
            out.write("\n")

    return copy


def _write_human(records, out: TextIO) -> None:
    _spill_human(records, io.StringIO())(out)


_WRITERS = {"json": _write_json, "csv": _write_csv, "human": _write_human}


def write(records, fmt: str, out: TextIO) -> None:
    """Write the report of records in format fmt to the text stream out,
    one record at a time: JSON and CSV lines straight to out, the human
    table through a spill in memory."""
    if fmt not in _WRITERS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    _WRITERS[fmt](records, out)


def spill(records, fmt: str, into: TextIO) -> Callable[[TextIO], None]:
    """Write the report of records, an iterable taken one record at a
    time, in format fmt into `into`, an empty text stream open for reading
    and writing; return copy(out), which writes the report to the text
    stream out from there."""
    if fmt == "human":
        return _spill_human(records, into)
    write(records, fmt, into)
    return partial(_copy_all, into)


def render(records, fmt: str) -> str:
    """The report as one string: the bytes write puts on a stream."""
    buf = io.StringIO()
    write(records, fmt, buf)
    return buf.getvalue()
