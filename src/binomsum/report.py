"""Uniform audit report records and their serializers.

Every value a record carries is exact: big integers and rationals are
rendered as decimal / fraction strings, never floats.  All three output
formats are deterministic functions of the record list, so report bytes
are identical no matter how the records were computed.
"""
from __future__ import annotations

import io
from typing import NamedTuple

from .records import Validated

FORMATS = ("json", "csv", "human")

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


class _RecordFields(NamedTuple):
    check: str
    params: tuple[tuple[str, int | str], ...]
    status: str
    witness: tuple[tuple[str, str], ...] = ()


class ReportRecord(Validated, _RecordFields):
    """One audit outcome: which check, at which parameters, with witnesses."""

    __slots__ = ()

    def _validate(self) -> None:
        if self.status not in (PASS, FAIL, SKIPPED):
            raise ValueError(f"unknown status {self.status!r}")


def _params_obj(record: ReportRecord) -> dict:
    return {key: value for key, value in record.params}


def _witness_obj(record: ReportRecord) -> dict:
    return {key: value for key, value in record.witness}


def render_json(records: list[ReportRecord]) -> str:
    """One JSON object per line with keys check, params, status, witness."""
    import json  # here, so that human-format runs never load it
    lines = []
    for rec in records:
        lines.append(json.dumps(
            {"check": rec.check, "params": _params_obj(rec),
             "status": rec.status, "witness": _witness_obj(rec)},
            sort_keys=True, separators=(",", ":")))
    return "".join(line + "\n" for line in lines)


def render_csv(records: list[ReportRecord]) -> str:
    """Fixed columns check,params,status,witness; structured cells as JSON."""
    import csv  # here, so that human-format runs never load it
    import json
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check", "params", "status", "witness"])
    for rec in records:
        writer.writerow([
            rec.check,
            json.dumps(_params_obj(rec), sort_keys=True, separators=(",", ":")),
            rec.status,
            json.dumps(_witness_obj(rec), sort_keys=True, separators=(",", ":")),
        ])
    return buf.getvalue()


def _pairs_text(pairs: tuple[tuple[str, object], ...]) -> str:
    return " ".join(f"{key}={value}" for key, value in pairs)


def render_human(records: list[ReportRecord]) -> str:
    """An aligned table: STATUS CHECK PARAMS | WITNESS."""
    if not records:
        return ""
    rows = [(rec.status.upper(), rec.check, _pairs_text(rec.params),
             _pairs_text(rec.witness)) for rec in records]
    status_w = max(len(r[0]) for r in rows)
    check_w = max(len(r[1]) for r in rows)
    params_w = max(len(r[2]) for r in rows)
    lines = []
    for status, check, params, witness in rows:
        line = f"{status:<{status_w}}  {check:<{check_w}}  {params:<{params_w}}"
        if witness:
            line += f"  | {witness}"
        lines.append(line.rstrip())
    return "".join(line + "\n" for line in lines)


def render(records: list[ReportRecord], fmt: str) -> str:
    if fmt == "json":
        return render_json(records)
    if fmt == "csv":
        return render_csv(records)
    if fmt == "human":
        return render_human(records)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
