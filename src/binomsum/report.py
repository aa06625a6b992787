"""Uniform audit report records and their serializers.

Every value a record carries is exact: witnesses keep the ints, Fractions
and integral Decimals the audits computed, and the writers render each one
in decimal through number_text, which is exact at any size.  A report is
written to a text stream one record at a time; render returns the same
bytes as one string.  All three output formats are deterministic
functions of the record list, so report bytes are identical no matter
how the records were computed.
"""
from __future__ import annotations

import io
from fractions import Fraction
from typing import NamedTuple, TextIO

from .exact import Decimal, int_text
from .records import Validated

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

_UNIT = Decimal(1)  # exponent 0: the only quantum number_text renders


def number_text(value: int | Fraction | Decimal | str) -> str:
    """str(value), exact at any size: an int in decimal, a Fraction as
    p/q (or p when q is 1), an integral Decimal of exponent 0 by str in
    linear time, and any other value as str gives it.  Any other Decimal
    (1E+3, 2.5, NaN) raises ValueError, so no report prints scientific
    notation."""
    if isinstance(value, int):
        return int_text(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int_text(value.numerator)
        return f"{int_text(value.numerator)}/{int_text(value.denominator)}"
    if isinstance(value, Decimal) and not value.same_quantum(_UNIT):
        raise ValueError(f"{value!r} is not an integer of exponent 0")
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


def _write_human(records, out: TextIO) -> None:
    """An aligned table: STATUS CHECK PARAMS | WITNESS.  The widths come
    from the short columns first; each witness is rendered with its line."""
    heads = [(rec.status.upper(), rec.check, _pairs_text(rec.params))
             for rec in records]
    if not heads:
        return
    status_w, check_w, params_w = (max(map(len, column))
                                   for column in zip(*heads))
    for rec, (status, check, params) in zip(records, heads):
        line = f"{status:<{status_w}}  {check:<{check_w}}  {params:<{params_w}}"
        if rec.witness:
            line += f"  | {_pairs_text(rec.witness)}"
        out.write(line.rstrip() + "\n")


_WRITERS = {"json": _write_json, "csv": _write_csv, "human": _write_human}


def write(records: list[ReportRecord], fmt: str, out: TextIO) -> None:
    """Write the report of records in format fmt to the text stream out,
    one record at a time."""
    if fmt not in _WRITERS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    _WRITERS[fmt](records, out)


def render(records: list[ReportRecord], fmt: str) -> str:
    """The report as one string: the bytes write puts on a stream."""
    buf = io.StringIO()
    write(records, fmt, buf)
    return buf.getvalue()
