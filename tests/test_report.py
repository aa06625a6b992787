import csv
import io
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import binomsum.report as report_module
from binomsum.report import FORMATS, ReportRecord, number_text, render, write

SAMPLE = [
    ReportRecord("sumcheck", (("sum", "sun_a"), ("n", 2)), "pass",
                 (("value", "24"), ("quotient", "1"))),
    ReportRecord("lemma", (("id", "2.4"), ("m", 2), ("n", 1), ("k", 1)),
                 "fail", (("margin", "-1"),)),
    ReportRecord("wzcheck", (("pair", "guillera1"), ("n", 3), ("k", 1)),
                 "skipped", (("reason", "pole"),)),
]


def test_status_is_validated():
    with pytest.raises(ValueError):
        ReportRecord("x", (), "maybe")


def test_json_is_one_object_per_line():
    text = render(SAMPLE, "json")
    lines = text.splitlines()
    assert len(lines) == 3
    first = json.loads(lines[0])
    assert first == {"check": "sumcheck",
                     "params": {"sum": "sun_a", "n": 2},
                     "status": "pass",
                     "witness": {"value": "24", "quotient": "1"}}
    assert sorted(first) == list(first)  # keys are sorted


def test_json_big_integers_are_strings():
    big = str(2 ** 400)
    rec = ReportRecord("sumcheck", (("n", 5),), "pass", (("value", big),))
    parsed = json.loads(render([rec], "json").strip())
    assert parsed["witness"]["value"] == big
    assert isinstance(parsed["witness"]["value"], str)


def test_csv_header_and_cells():
    rows = list(csv.reader(io.StringIO(render(SAMPLE, "csv"))))
    assert rows[0] == ["check", "params", "status", "witness"]
    assert len(rows) == 4
    assert rows[1][0] == "sumcheck"
    assert json.loads(rows[2][1]) == {"id": "2.4", "m": 2, "n": 1, "k": 1}
    assert rows[3][2] == "skipped"


def test_human_format_lines_up():
    lines = render(SAMPLE, "human").splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("PASS")
    assert lines[1].startswith("FAIL")
    assert lines[2].startswith("SKIP")
    assert "margin=-1" in lines[1]


def test_render_dispatch_and_empty_input():
    for fmt in FORMATS:
        stream = io.StringIO()
        write(SAMPLE, fmt, stream)
        assert render(SAMPLE, fmt) == stream.getvalue()
    # empty record set renders to empty output (header-only for csv)
    assert render([], "json") == ""
    assert render([], "human") == ""
    assert render([], "csv") == "check,params,status,witness\n"
    with pytest.raises(ValueError):
        render(SAMPLE, "xml")
    with pytest.raises(ValueError):
        write(SAMPLE, "xml", io.StringIO())


def test_rendering_is_deterministic():
    for fmt in FORMATS:
        assert render(SAMPLE, fmt) == render(list(SAMPLE), fmt)


class _Lines(io.StringIO):
    """A text stream that records each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def test_writers_put_one_record_at_a_time_on_the_stream():
    for fmt in FORMATS:
        stream = _Lines()
        write(SAMPLE, fmt, stream)
        assert stream.getvalue() == render(SAMPLE, fmt)
        assert max(len(text) for text in stream.writes) < 120, fmt


@pytest.mark.parametrize("digits", [1, 4300, 4301, 4400, 6000, 30000])
@pytest.mark.parametrize("sign", [1, -1])
def test_number_text_is_exact_at_any_size(int_str_limit, digits, sign):
    for value in (sign * 10 ** (digits - 1), sign * (10 ** digits - 1),
                  sign * 7 ** int(digits / 0.8451)):
        assert number_text(value) == int_str_limit(value)
    with pytest.raises(ValueError):  # the guard itself stays in force
        str(10 ** 4300)


def test_number_text_of_fractions_and_text(int_str_limit):
    big = 3 ** 20000
    assert number_text(Fraction(-big, 2)) == f"-{int_str_limit(big)}/2"
    assert number_text(Fraction(big)) == int_str_limit(big)
    assert number_text(Fraction(-28755, 32768)) == "-28755/32768"
    assert number_text("agree") == "agree"
    assert number_text(0) == "0"


def test_witness_numbers_render_as_their_text_in_every_format():
    numbers = ReportRecord("lemma", (("n", 3),), "pass",
                           (("value", 24), ("ratio", Fraction(-1, 3))))
    texts = ReportRecord("lemma", (("n", 3),), "pass",
                         (("value", "24"), ("ratio", "-1/3")))
    for fmt in FORMATS:
        assert render([numbers], fmt) == render([texts], fmt)


def test_number_text_of_integral_decimals(int_str_limit):
    big = 7 ** 12000  # over 10,000 digits
    assert number_text(Decimal(int_str_limit(big))) == int_str_limit(big)
    assert number_text(Decimal(-6006)) == "-6006"
    assert number_text(Decimal(0)) == "0"
    numbers = ReportRecord("lemma", (("n", 3),), "pass",
                           (("value", Decimal(70)), ("remainder", Decimal(0))))
    texts = ReportRecord("lemma", (("n", 3),), "pass",
                         (("value", "70"), ("remainder", "0")))
    for fmt in FORMATS:
        assert render([numbers], fmt) == render([texts], fmt)


def test_number_text_names_each_class_only_for_its_own_values():
    # report is imported before fractions and decimal, and number_text
    # loads neither for an int or a str; a Decimal is rendered without
    # fractions, and a Fraction after its own import.
    src = str(Path(report_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys\n"
         "from binomsum.report import number_text\n"
         "def loaded(): return sorted(m for m in sys.modules if m in "
         "('decimal', 'fractions'))\n"
         "print(number_text(-6006), number_text('agree'), loaded())\n"
         "from decimal import Decimal\n"
         "print(number_text(Decimal(-6006)), loaded())\n"
         "from fractions import Fraction\n"
         "print(number_text(Fraction(-28755, 32768)), "
         "number_text(Fraction(12, 4)), loaded())"],
        capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "-6006 agree []", "-6006 ['decimal']",
        "-28755/32768 3 ['decimal', 'fractions']"]


@pytest.mark.parametrize("text", ["1E+3", "7E-2", "2.5", "70.0", "NaN",
                                  "sNaN", "-Infinity"])
def test_number_text_refuses_other_decimals(text):
    # Each would print as scientific notation, a fraction or no number.
    with pytest.raises(ValueError, match="exponent 0"):
        number_text(Decimal(text))
