import json
import os
import shutil
import subprocess
import sys
import tomllib
import tracemalloc
from functools import partial
from pathlib import Path

import pytest

import binomsum.cli as cli_module
import binomsum.verify as verify_module
from binomsum.cli import LEMMA_IDS, _blocks, _merged, _worker_count, main
from binomsum.exact import legendre_valuation
from binomsum.hyperterm import eval_term
from binomsum.pairs import builtin_document, builtin_document_text
from binomsum.report import number_text
from binomsum.verify import check_divisibility, lemma24_scan, lemma25_scan, \
    lemma26_ineq_scan


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(text):
    return [json.loads(line) for line in text.splitlines()]


# ---------------------------------------------------------------------------
# sumcheck
# ---------------------------------------------------------------------------

def test_sumcheck_contract_example(capsys):
    code, out, _ = run_cli(capsys, "sumcheck", "--sum", "guillera1",
                           "--divisor", "strong", "--n-min", "2",
                           "--n-max", "50", "--format", "json")
    assert code == 0
    records = json_lines(out)
    assert len(records) == 49
    assert all(rec["status"] == "pass" for rec in records)
    first = records[0]
    assert first["params"] == {"sum": "guillera1", "divisor": "strong", "n": 2}
    assert first["witness"]["quotient"] == "-11"
    assert first["witness"]["value"] == "-3168"


def test_sumcheck_all_sums_with_valuation_route(capsys):
    code, out, _ = run_cli(capsys, "sumcheck", "--n-max", "6",
                           "--valuation-check", "--format", "json")
    assert code == 0
    records = json_lines(out)
    assert len(records) == 7 * 5
    assert all(rec["witness"]["valuation"] == "agree" for rec in records)


def test_sumcheck_failure_sets_exit_one(capsys):
    code, out, _ = run_cli(capsys, "sumcheck", "--sum", "sun_a",
                           "--divisor", "strong", "--n-max", "3",
                           "--format", "json")
    assert code == 1
    records = json_lines(out)
    assert any(rec["status"] == "fail" for rec in records)
    failing = [rec for rec in records if rec["status"] == "fail"]
    assert all("remainder" in rec["witness"] for rec in failing)


def test_sumcheck_rejects_bad_range(capsys):
    code, _, err = run_cli(capsys, "sumcheck", "--n-min", "1", "--n-max", "5")
    assert code == 2
    assert "n-min" in err


def test_sumcheck_witnesses_beyond_the_digit_limit(capsys, int_str_limit):
    # S(1990) of guillera2 has about 9,600 digits, over int.__str__'s limit.
    code, out, err = run_cli(capsys, "sumcheck", "--sum", "guillera2",
                             "--n-min", "1990", "--n-max", "1990",
                             "--format", "json")
    assert (code, err) == (0, "")
    (record,) = json_lines(out)
    assert len(record["witness"]["value"]) > 4300
    division = check_divisibility("guillera2", None, 1990)
    assert record["witness"] == {key: int_str_limit(getattr(division, key))
                                 for key in ("value", "divisor", "quotient")}


# ---------------------------------------------------------------------------
# wzcheck
# ---------------------------------------------------------------------------

def test_wzcheck_symbolic_contract_example(capsys):
    code, out, _ = run_cli(capsys, "wzcheck", "--pair", "builtin:guillera2",
                           "--mode", "symbolic", "--format", "json")
    assert code == 0
    (record,) = json_lines(out)
    assert record["status"] == "pass"
    assert record["witness"]["residual"] == "0"
    assert "certificate" in record["witness"]


def test_wzcheck_grid_summary(capsys):
    code, out, _ = run_cli(capsys, "wzcheck", "--pair", "builtin:guillera1",
                           "--mode", "grid", "--n-max", "10",
                           "--format", "json")
    assert code == 0
    records = json_lines(out)
    assert len(records) == 1
    summary = records[0]
    assert summary["witness"] == {"points": "55", "violations": "0",
                                  "skipped": "0"}


def test_wzcheck_telescope_records(capsys):
    code, out, _ = run_cli(capsys, "wzcheck", "--pair", "builtin:guillera1",
                           "--mode", "telescope", "--n-min", "2",
                           "--n-max", "4", "--format", "json")
    assert code == 0
    records = json_lines(out)
    assert [rec["params"]["N"] for rec in records] == [2, 3, 4]
    assert records[0]["witness"]["conclusion_quotient"] == "-11"


def test_wzcheck_unknown_builtin(capsys):
    code, _, err = run_cli(capsys, "wzcheck", "--pair", "builtin:missing",
                           "--mode", "grid")
    assert code == 2
    assert "missing" in err


def test_wzcheck_path_pair(tmp_path, capsys):
    pair_dir = tmp_path / "pair"
    pair_dir.mkdir()
    (pair_dir / "a.F").write_text(builtin_document_text("guillera1.F"),
                                  "utf-8")
    (pair_dir / "a.G").write_text(builtin_document_text("guillera1.G"),
                                  "utf-8")
    code, out, _ = run_cli(capsys, "wzcheck", "--pair", str(pair_dir),
                           "--mode", "grid", "--n-max", "6",
                           "--format", "json")
    assert code == 0
    assert json_lines(out)[0]["params"]["pair"] == "pair"

    code, _, err = run_cli(capsys, "wzcheck", "--pair", str(pair_dir),
                           "--mode", "telescope", "--n-max", "3")
    assert code == 2
    assert "scale-base" in err

    code, out, _ = run_cli(capsys, "wzcheck", "--pair", str(pair_dir),
                           "--mode", "telescope", "--n-max", "3",
                           "--scale-base", "-4096", "--format", "json")
    assert code == 0
    assert json_lines(out)[0]["witness"]["conclusion_quotient"] == "-11"


def test_wzcheck_path_pair_given_as_dot_is_named_after_the_directory(
        tmp_path, monkeypatch, capsys):
    pair_dir = tmp_path / "guillera1"
    pair_dir.mkdir()
    for name in ("guillera1.F", "guillera1.G"):
        (pair_dir / name).write_text(builtin_document_text(name), "utf-8")
    alias = tmp_path / "alias"
    alias.symlink_to(pair_dir)  # named as given, not after its target
    monkeypatch.chdir(pair_dir)
    names = []
    for text in (".", str(pair_dir), str(alias)):
        code, out, _ = run_cli(capsys, "wzcheck", "--pair", text,
                               "--mode", "symbolic", "--format", "json")
        assert code == 0
        names.append(json_lines(out)[0]["params"]["pair"])
    assert names == ["guillera1", "guillera1", "alias"]


def test_wzcheck_rejects_bad_pair_directory(tmp_path, capsys):
    code, _, err = run_cli(capsys, "wzcheck", "--pair", str(tmp_path),
                           "--mode", "grid")
    assert code == 2
    assert ".F" in err


# ---------------------------------------------------------------------------
# lemma
# ---------------------------------------------------------------------------

def test_lemma24_contract_example(capsys):
    code, out, _ = run_cli(capsys, "lemma", "--id", "2.4", "--m-max", "2",
                           "--format", "json")
    assert code == 1
    records = json_lines(out)
    assert records[0]["status"] == "fail"
    assert records[0]["witness"]["violations"] == "1"
    violation = records[1]
    assert violation["params"] == {"id": "2.4", "m": 2, "n": 1, "k": 1}
    assert violation["witness"]["margin"] == "-1"


def test_lemma24_regions_clean(capsys):
    for region in ("k0", "case3a"):
        code, out, _ = run_cli(capsys, "lemma", "--id", "2.4", "--m-max",
                               "30", "--region", region, "--format", "json")
        assert code == 0
        (summary,) = json_lines(out)
        assert summary["witness"]["violations"] == "0"


def test_lemma24_full_range(capsys):
    code, out, _ = run_cli(capsys, "lemma", "--id", "2.4", "--m-max", "2",
                           "--full-range", "3", "--format", "json")
    assert code == 1
    records = json_lines(out)
    points = {(rec["params"]["m"], rec["params"]["n"], rec["params"]["k"])
              for rec in records[1:]}
    assert points == {(2, 1, 1), (2, 3, 1), (2, 3, 3)}


def test_lemma22_rows(capsys):
    code, out, _ = run_cli(capsys, "lemma", "--id", "2.2", "--n-max", "12",
                           "--format", "json")
    assert code == 0
    records = json_lines(out)
    assert len(records) == 12
    assert all(rec["witness"]["violations"] == "0" for rec in records)


def test_lemma23_quotient_witnesses(capsys):
    code, out, _ = run_cli(capsys, "lemma", "--id", "2.3", "--n-max", "5",
                           "--format", "json")
    assert code == 0
    records = json_lines(out)
    assert records[0]["witness"]["quotient"] == "9"
    assert records[1]["witness"]["closed_form"] == "675"


def test_lemma25_summary(capsys):
    code, out, _ = run_cli(capsys, "lemma", "--id", "2.5", "--n-max", "12",
                           "--format", "json")
    assert code == 0
    (summary,) = json_lines(out)
    assert summary["status"] == "pass"
    assert summary["witness"]["checked"] == "78"


def test_lemma26_points_and_inequality(capsys):
    code, out, _ = run_cli(capsys, "lemma", "--id", "2.6", "--n-max", "10",
                           "--m-max", "20", "--format", "json")
    assert code == 0
    records = json_lines(out)
    assert len(records) == 11
    assert records[0]["witness"]["quotient"] == "1"
    assert records[1]["witness"]["quotient"] == "70"
    assert records[-1]["params"]["inequality"] == "five-floor"


def test_lemma_rejects_bad_bounds(capsys):
    code, _, err = run_cli(capsys, "lemma", "--id", "2.4", "--m-max", "1")
    assert code == 2
    assert "m-max" in err


# ---------------------------------------------------------------------------
# ratio
# ---------------------------------------------------------------------------

def test_ratio_single_identity(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--id", "g1_col1", "--n-min", "2",
                           "--n-max", "6", "--format", "json")
    assert code == 0
    records = json_lines(out)
    assert len(records) == 5
    assert records[0]["witness"]["lhs"] == "9"


def test_ratio_k_family_summaries(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--id", "g2_gen", "--n-min", "2",
                           "--n-max", "4", "--format", "json")
    assert code == 0
    records = json_lines(out)
    assert [rec["witness"]["k_checked"] for rec in records] == ["3", "4", "5"]


def test_ratio_all(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--n-min", "2", "--n-max", "3",
                           "--format", "json")
    assert code == 0
    ids = [rec["params"]["id"] for rec in json_lines(out)]
    assert ids == ["g1_col1", "g1_col1", "g1_gen", "g1_gen", "f1_corner",
                   "f1_corner", "catalan_split", "catalan_split", "g2_gen",
                   "g2_gen", "f2_corner", "f2_corner", "telescoped_sum",
                   "telescoped_sum"]


def _telescoped_sum_report(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--id", "telescoped_sum",
                           "--n-max", "60", "--format", "json")
    return code, json_lines(out)


def test_telescoped_sum_row_equals_ratio_identity_and_fails_where_perturbed(
        capsys, monkeypatch):
    expected = [{"check": "ratio", "params": {"N": n, "id": "telescoped_sum"},
                 "status": "pass" if check.equal else "fail",
                 "witness": {"lhs": number_text(check.lhs),
                             "rhs": number_text(check.rhs)}}
                for n in range(2, 61)
                for check in [verify_module.ratio_identity("telescoped_sum",
                                                           n)]]
    assert _telescoped_sum_report(capsys) == (0, expected)

    real = cli_module.sums

    def one_too_many_at_37(spec, ns):
        for n, value in zip(ns, real(spec, ns)):
            yield value + (n == 37)

    monkeypatch.setattr(cli_module, "sums", one_too_many_at_37)
    code, records = _telescoped_sum_report(capsys)
    assert code == 1
    assert [rec["params"]["N"] for rec in records
            if rec["status"] == "fail"] == [37]
    assert records[35]["witness"] == {
        "lhs": expected[35]["witness"]["lhs"],
        "rhs": str(int(expected[35]["witness"]["rhs"]) + 1)}
    assert records[:35] + records[36:] == expected[:35] + expected[36:]


def test_telescoped_sum_rows_start_anywhere_and_build_no_fraction(
        monkeypatch):
    from fractions import Fraction
    cli_module.builtin_pair("guillera2")  # parsed before counting
    whole = cli_module._telescoped_sum_records(range(2, 41))
    built = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    late = cli_module._telescoped_sum_records(range(17, 41))
    monkeypatch.undo()
    assert built == []
    assert late == whole[15:]
    assert {rec.status for rec in whole} == {"pass"}


# ---------------------------------------------------------------------------
# term
# ---------------------------------------------------------------------------

def test_term_eval_builtin(capsys):
    code, out, _ = run_cli(capsys, "term", "eval", "builtin:guillera1.F",
                           "--n", "2", "--k", "1", "--format", "json")
    assert code == 0
    (record,) = json_lines(out)
    assert record["witness"]["value"] == "-28755/32768"


def test_term_eval_witness_beyond_the_digit_limit(capsys, int_str_limit):
    code, out, err = run_cli(capsys, "term", "eval", "builtin:guillera1.F",
                             "--n", "3000", "--k", "0", "--format", "json")
    assert (code, err) == (0, "")
    (record,) = json_lines(out)
    value = eval_term(builtin_document("guillera1.F").term, 3000, 0)
    assert len(record["witness"]["value"]) > 4300
    assert record["witness"]["value"] == int_str_limit(value)


def test_term_eval_requires_point(capsys):
    code, _, err = run_cli(capsys, "term", "eval", "builtin:guillera1.F")
    assert code == 2
    assert "--n" in err


def test_term_serialize_round_trips(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "term", "serialize", "builtin:guillera2.G")
    assert code == 0
    assert out == builtin_document_text("guillera2.G")

    src = tmp_path / "copy.G"
    src.write_text(out, "utf-8")
    code, out2, _ = run_cli(capsys, "term", "serialize", str(src))
    assert code == 0
    assert out2 == out


def test_term_parse_reports_structure(capsys):
    code, out, _ = run_cli(capsys, "term", "parse", "builtin:guillera1.F",
                           "--format", "json")
    assert code == 0
    (record,) = json_lines(out)
    assert record["witness"]["name"] == "guillera1.F"
    assert record["witness"]["binom_factors"] == "5"


def test_term_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.F"
    bad.write_text("term x\npoly 3*n-\nend\n", "utf-8")
    code, _, err = run_cli(capsys, "term", "parse", str(bad))
    assert code == 2
    assert "bad.F" in err


def test_overlong_literal_exits_two_naming_its_position(tmp_path, capsys):
    text = "term long\npoly 3*n+" + "1" * 5000 + "\nend\n"
    where = "line 2, col 10: integer literal of 5000 digits"
    doc = tmp_path / "long.F"
    doc.write_text(text, "utf-8")
    for argv in (["term", "parse", str(doc)],
                 ["term", "eval", str(doc), "--n", "1", "--k", "0"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"long.F: {where}" in err
    pair_dir = tmp_path / "pair"
    pair_dir.mkdir()
    (pair_dir / "long.F").write_text(text, "utf-8")
    (pair_dir / "long.G").write_text(builtin_document_text("guillera1.G"),
                                     "utf-8")
    code, out, err = run_cli(capsys, "wzcheck", "--pair", str(pair_dir),
                             "--mode", "symbolic")
    assert (code, out) == (2, "")
    assert err.startswith("binomsum: error: cannot load pair") and where in err


@pytest.mark.parametrize("body,line", [
    ("poly 10^5000*n+1", "poly {big}*n*10^2500+1"),
    ("factor binom(10^5000*n,k)\npoly 1", "factor binom({big}*n*10^2500,k)"),
], ids=["poly", "factor"])
def test_term_serialize_coefficients_beyond_the_digit_limit(
        tmp_path, capsys, int_str_limit, body, line):
    # A 5001-digit coefficient is written as 10^2500 times 10^2500, in
    # literals within the limit, so the output parses back to itself.
    doc = tmp_path / "big.F"
    doc.write_text(f"term big\n{body}\nend\n", "utf-8")
    code, out, err = run_cli(capsys, "term", "serialize", str(doc))
    assert (code, err) == (0, "")
    assert line.format(big=10 ** 2500) in out.splitlines()
    again = tmp_path / "again.F"
    again.write_text(out, "utf-8")
    code, out_again, err = run_cli(capsys, "term", "serialize", str(again))
    assert (code, out_again, err) == (0, out, "")


def test_term_eval_pole_is_audit_failure(tmp_path, capsys):
    doc = tmp_path / "pole.F"
    doc.write_text("term pole\npoly 1\ndenompoly n-2\nend\n", "utf-8")
    code, out, _ = run_cli(capsys, "term", "eval", str(doc),
                           "--n", "2", "--k", "0", "--format", "json")
    assert code == 1
    (record,) = json_lines(out)
    assert record["status"] == "fail"


# ---------------------------------------------------------------------------
# Output handling, parallelism, determinism
# ---------------------------------------------------------------------------

def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "sumcheck", "--sum", "sun_a", "--n-max",
                           "4", "--format", "json", "--output", str(target))
    assert code == 0
    assert out == ""
    assert len(target.read_text("utf-8").splitlines()) == 3


def test_reports_byte_identical_across_jobs(tmp_path, capsys):
    outputs = []
    for jobs in ("1", "2", "3"):
        target = tmp_path / f"jobs{jobs}.json"
        code, _, _ = run_cli(capsys, "sumcheck", "--n-max", "12",
                             "--format", "json", "--jobs", jobs,
                             "--output", str(target))
        assert code == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_grid_reports_byte_identical_across_jobs(tmp_path, capsys):
    outputs = []
    for jobs in ("1", "4"):
        target = tmp_path / f"grid{jobs}.json"
        code, _, _ = run_cli(capsys, "wzcheck", "--pair", "builtin:guillera2",
                             "--mode", "grid", "--n-max", "15",
                             "--format", "json", "--jobs", jobs,
                             "--output", str(target))
        assert code == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]


def test_jobs_env_var_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BINOMSUM_JOBS", "2")
    a = tmp_path / "env.json"
    code, _, _ = run_cli(capsys, "sumcheck", "--sum", "sun_b", "--n-max",
                         "8", "--format", "json", "--output", str(a))
    assert code == 0
    monkeypatch.setenv("BINOMSUM_JOBS", "zero")
    code, _, err = run_cli(capsys, "sumcheck", "--sum", "sun_b")
    assert code == 2
    assert "BINOMSUM_JOBS" in err


def test_jobs_must_be_positive(capsys):
    code, _, err = run_cli(capsys, "sumcheck", "--jobs", "0")
    assert code == 2
    assert "jobs" in err


def test_csv_and_human_formats(capsys):
    code, out, _ = run_cli(capsys, "sumcheck", "--sum", "sun_a", "--n-max",
                           "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "check,params,status,witness"
    code, out, _ = run_cli(capsys, "sumcheck", "--sum", "sun_a", "--n-max",
                           "3", "--format", "human")
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines())


def test_console_script_installed():
    # Without an installed script, run the target that pyproject.toml
    # declares for it.
    src = Path(cli_module.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    command = [shutil.which("binomsum")]
    if command[0] is None:
        project = tomllib.loads((src.parent / "pyproject.toml").read_text())
        module, _, function = \
            project["project"]["scripts"]["binomsum"].partition(":")
        command = [sys.executable, "-c",
                   f"from {module} import {function}; {function}()"]
    proc = subprocess.run(command + ["lemma", "--id", "2.4", "--m-max", "2"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "m=2" in proc.stdout


def test_usage_error_exit_code():
    src = Path(cli_module.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "binomsum.cli"],
        capture_output=True, text=True, env=env)
    # no subcommand: argparse usage failure
    assert proc.returncode == 2


def test_worker_count_clamped_to_items_and_cpus(monkeypatch):
    monkeypatch.setattr(cli_module.os, "cpu_count", lambda: 2)
    assert _worker_count(10 ** 6, 50) == 2
    assert _worker_count(10 ** 6, 1) == 1
    assert _worker_count(1, 50) == 1
    assert _worker_count(2, 0) == 1
    monkeypatch.setattr(cli_module.os, "cpu_count", lambda: 8)
    assert _worker_count(3, 50) == 3
    assert _worker_count(16, 5) == 5
    monkeypatch.setattr(cli_module.os, "cpu_count", lambda: None)
    assert _worker_count(4, 50) == 1


# ---------------------------------------------------------------------------
# Exit codes 2 and 3: rejected input and internal errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv,message", [
    (["lemma", "--id", "2.4", "--full-range", "-1"],
     "--full-range must be >= 0"),
    (["lemma", "--id", "2.4", "--n-max", "0"], "lemma 2.4 takes no --n-max"),
    (["lemma", "--id", "2.2", "--m-max", "5"], "lemma 2.2 takes no --m-max"),
    (["lemma", "--id", "2.3", "--m-max", "5"], "lemma 2.3 takes no --m-max"),
    (["lemma", "--id", "2.5", "--m-max", "5"], "lemma 2.5 takes no --m-max"),
    (["lemma", "--id", "2.5", "--region", "k0"],
     "--region and --full-range apply to lemma 2.4 only"),
    (["lemma", "--id", "2.6", "--full-range", "3"],
     "--region and --full-range apply to lemma 2.4 only"),
    (["wzcheck", "--pair", "{pair}", "--mode", "grid", "--scale-base", "0"],
     "scale base must be nonzero"),
    (["wzcheck", "--pair", "builtin:guillera1", "--mode", "grid", "--n-max",
      "3", "--n-min", "50", "--scale-base", "0", "--scale-exp", "7"],
     "--scale-base applies to path pairs only"),
    (["wzcheck", "--pair", "builtin:guillera1", "--mode", "telescope",
      "--scale-base", "4"], "--scale-base applies to path pairs only"),
    (["wzcheck", "--pair", "builtin:guillera1", "--mode", "grid", "--n-min",
      "50"], "wzcheck --mode grid takes no --n-min"),
    (["wzcheck", "--pair", "{pair}", "--mode", "symbolic", "--n-min", "2"],
     "wzcheck --mode symbolic takes no --n-min"),
    (["wzcheck", "--pair", "builtin:guillera1", "--mode", "grid",
      "--scale-exp", "7"], "wzcheck --mode grid takes no --scale-exp"),
    (["wzcheck", "--pair", "builtin:guillera2", "--mode", "symbolic",
      "--divisor", "weak"], "wzcheck --mode symbolic takes no --divisor"),
    (["wzcheck", "--pair", "{pair}", "--mode", "grid", "--divisor", "strong"],
     "wzcheck --mode grid takes no --divisor"),
    (["wzcheck", "--pair", "builtin:guillera1", "--mode", "symbolic",
      "--n-max", "5"], "wzcheck --mode symbolic takes no --n-max"),
    (["term", "parse", "builtin:guillera1.F", "--n", "3"],
     "term parse takes no --n"),
    (["term", "parse", "builtin:guillera1.F", "--k", "0"],
     "term parse takes no --k"),
    (["term", "serialize", "builtin:guillera2.G", "--n", "1", "--k", "1"],
     "term serialize takes no --n"),
])
def test_rejects_bad_or_ignored_input(tmp_path, capsys, argv, message):
    (tmp_path / "a.F").write_text(builtin_document_text("guillera1.F"),
                                  "utf-8")
    (tmp_path / "a.G").write_text(builtin_document_text("guillera1.G"),
                                  "utf-8")
    argv = [arg.format(pair=tmp_path) for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("binomsum: error: ") and err.endswith("\n")
    assert message in err and err.count("\n") == 1


def _mismatched_route(m, w, values):
    return [1234] * len(values)


_STEPPED = verify_module._stepped


def _inexact_stepped(value, runs):
    # Every step's ratio gains the prime 10007 below the line, which no
    # small binomial product has, so the first step leaves a remainder.
    runs = runs.copy()
    runs[10007, 0] -= 1
    return _STEPPED(value, runs)


@pytest.mark.parametrize("target,replacement,argv,kind", [
    ("binomsum.verify._fractional_route", _mismatched_route,
     ["lemma", "--id", "2.4", "--m-max", "3"], "ArithmeticError"),
    ("binomsum.verify._stepped", _inexact_stepped,
     ["lemma", "--id", "2.3", "--n-max", "5"], "ArithmeticError"),
    ("binomsum.verify._stepped", _inexact_stepped,
     ["lemma", "--id", "2.2", "--n-max", "5"], "ArithmeticError"),
])
def test_internal_error_exits_three(monkeypatch, capsys, target, replacement,
                                    argv, kind):
    monkeypatch.setattr(target, replacement)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith(f"binomsum: internal error: {kind}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_lemma25_routes_that_disagree_are_fail_records(monkeypatch, capsys):
    # k!^2 in place of k!^3 in the floor forms: the Legendre route loses
    # v_p(k!) at every prime, while the binomial route keeps the true W.
    # Their disagreement is an audit failure (exit 1), not an internal
    # error.
    monkeypatch.setattr(verify_module, "_EIGHT_FLOOR_FORMS", tuple(
        (form, 2 if form == (0, 0, 1) else w)
        for form, w in verify_module._EIGHT_FLOOR_FORMS))
    code, out, err = run_cli(capsys, "lemma", "--id", "2.5", "--n-max", "6",
                             "--format", "json")
    assert (code, err) == (1, "")
    summary, *records = json_lines(out)
    assert summary["status"] == "fail"
    assert all(record["status"] == "fail" for record in records)
    mismatches = [record for record in records
                  if record["witness"]["reason"] == "valuation-mismatch"]
    assert mismatches
    for record in mismatches:
        witness, k = record["witness"], record["params"]["k"]
        assert int(witness["direct"]) - int(witness["margin_sum"]) \
            == legendre_valuation(int(witness["p"]), k), record


def test_lemma25_zero_binomial_route_is_a_fail_record(monkeypatch, capsys):
    # The binomial route gives P = 0 at (n, k) = (5, 3): W = 0 has no
    # valuation to compare, so the disagreement is one FAIL record that
    # names the Legendre route's W, not an internal error.
    row = verify_module.lemma25_row

    def planted(n):
        return [(0, d) if (n, k) == (5, 3) else (p, d)
                for k, (p, d) in enumerate(row(n), 1)]

    monkeypatch.setattr(verify_module, "lemma25_row", planted)
    code, out, err = run_cli(capsys, "lemma", "--id", "2.5", "--n-max", "6",
                             "--format", "json")
    assert (code, err) == (1, "")
    summary, *records = json_lines(out)
    assert (summary["status"], summary["witness"]["violations"]) \
        == ("fail", "1")
    assert records == [{
        "check": "lemma", "params": {"id": "2.5", "n": 5, "k": 3},
        "status": "fail",
        "witness": {"reason": "zero-value",
                    "legendre_value": str(verify_module.lemma25_w(5, 3))}}]


def _planted_in_lemma26_rows(monkeypatch):
    step = verify_module._step_factors

    def planted(moving, t):
        if t + 1 == 150:
            raise ArithmeticError("planted at n = 150")
        return step(moving, t)

    monkeypatch.setattr(verify_module, "_step_factors", planted)


def _planted_in_the_third_sum(monkeypatch):
    third = list(verify_module.SUM_SPECS)[2]
    sums = cli_module.sums

    def planted(spec, ns):
        if spec.name == third:
            raise ArithmeticError(f"planted in {third}")
        return sums(spec, ns)

    monkeypatch.setattr(cli_module, "sums", planted)


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("plant,argv", [
    (_planted_in_lemma26_rows, ["lemma", "--id", "2.6", "--n-max", "300"]),
    (_planted_in_the_third_sum, ["sumcheck", "--n-max", "30"]),
], ids=["lemma26-rows", "third-sum"])
def test_an_error_mid_stream_writes_nothing(monkeypatch, capsys, tmp_path,
                                            plant, argv, jobs):
    # Records before the error are already spilled; none of them may reach
    # stdout or the --output file.  At --jobs 2 every pool starts, so the
    # third sum fails in a worker.
    plant(monkeypatch)
    if jobs == "2":
        monkeypatch.setattr(cli_module, "_POOL_COST_NS", 0)
        monkeypatch.setattr(cli_module.os, "cpu_count", lambda: 2)
    target = tmp_path / "report.json"
    for extra in ([], ["--output", str(target)]):
        code, out, err = run_cli(capsys, *argv, "--format", "json",
                                 "--jobs", jobs, *extra)
        assert (code, out) == (3, "")
        assert err.startswith("binomsum: internal error: ArithmeticError: "
                              "planted ")
        assert err.count("\n") == 1 and err.endswith("\n")
    assert not target.exists()


def test_a_spill_that_cannot_be_created_exits_two(monkeypatch, capsys,
                                                  tmp_path):
    monkeypatch.setenv("TMPDIR", str(tmp_path / "missing"))
    target = tmp_path / "report.txt"
    code, out, err = run_cli(capsys, "lemma", "--id", "2.3", "--output",
                             str(target))
    assert (code, out) == (2, "")
    assert err.startswith("binomsum: error: cannot create a spill file ")
    assert str(tmp_path / "missing") in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["json", "human"])
@pytest.mark.parametrize("lemma,n_max", [
    ("2.6", 300), ("2.6", 600), ("2.3", 500), ("2.3", 2000)])
def test_streamed_lemma_reports_hold_no_whole_report(tmp_path, fmt, lemma,
                                                      n_max):
    # Every row is spilled before the next is stepped: the Python heap
    # stays under 1 MB while the reports grow to 0.7-11 MB.  A first small
    # run loads what the format loads, so the traced run allocates only
    # what the audit holds.
    target = tmp_path / "report"
    argv = ["lemma", "--id", lemma, "--format", fmt, "--output", str(target)]
    assert main(argv + ["--n-max", "3"]) == 0
    tracemalloc.start()
    try:
        assert main(argv + ["--n-max", str(n_max)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert target.stat().st_size > 700_000
    assert peak < 1_000_000, peak


def test_serial_import_does_not_load_the_process_pool():
    src = str(Path(cli_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, binomsum.cli; "
                               "print('concurrent.futures.process' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_small_parallel_run_does_not_load_the_process_pool():
    # Seven items of negligible work never pay for a pool at --jobs 2.
    src = str(Path(cli_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, sys; from binomsum.cli import main; "
         "code = main(['sumcheck', '--sum', 'all', '--n-min', '2', "
         "'--n-max', '5', '--jobs', '2', '--output', os.devnull]); "
         "print(code, 'concurrent.futures.process' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "0 False\n")


# Items _pid_item has run in this process; a worker appends to its own copy.
_HERE = []


def _pid_item(item):
    _HERE.append(item)
    return item, os.getpid()


@pytest.mark.parametrize("switch,pooled", [(1, True), (4, True), (5, False)])
def test_pmap_runs_a_prefix_here_and_the_rest_in_a_pool(monkeypatch, switch,
                                                        pooled):
    # The clock stands still until `switch` items ran here, then jumps far
    # ahead, so the pool takes over before item `switch` if two workers
    # have work left (two items or more).
    items = list(range(6))
    _HERE.clear()
    monkeypatch.setattr(cli_module, "perf_counter_ns",
                        lambda: 0 if len(_HERE) < switch else 10 ** 12)
    monkeypatch.setattr(cli_module, "_POOL_COST_NS", 1)
    monkeypatch.setattr(cli_module.os, "cpu_count", lambda: 2)
    results = list(cli_module._pmap(_pid_item, items, 2))
    assert [item for item, _ in results] == items
    here = switch if pooled else len(items)
    assert [pid == os.getpid() for _, pid in results] == (
        [True] * here + [False] * (len(items) - here))


def test_pmap_submits_a_bounded_window_of_chunks(monkeypatch):
    # The pool takes over at the second item: 199 items left for two
    # workers make 9 chunks of 24 or fewer.  Only a window of 4 is
    # submitted before the first pooled result is taken; the rest follow
    # as results are taken, in order.
    from concurrent.futures import ProcessPoolExecutor
    monkeypatch.setattr(cli_module, "_POOL_COST_NS", 0)
    monkeypatch.setattr(cli_module.os, "cpu_count", lambda: 2)
    submitted = []
    submit = ProcessPoolExecutor.submit

    def counted(self, fn, *args):
        submitted.append(len(args[1]))
        return submit(self, fn, *args)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", counted)
    results = cli_module._pmap(_pid_item, list(range(200)), 2)
    assert next(results) == (0, os.getpid())
    assert next(results)[0] == 1 and submitted == [24] * 4
    assert [item for item, _ in results] == list(range(2, 200))
    assert submitted == [24] * 8 + [7]


def test_pmap_stays_serial_at_one_job(monkeypatch):
    monkeypatch.setattr(cli_module, "_POOL_COST_NS", 0)
    results = list(cli_module._pmap(_pid_item, list(range(4)), 1))
    assert results == [(item, os.getpid()) for item in range(4)]


def test_import_loads_neither_dataclasses_nor_the_report_formats():
    # dataclasses pulls in inspect, ast, dis and tokenize; csv and json are
    # loaded by the writers that need them, so a whole human-format run
    # loads none of them either.  -S keeps site hooks out.
    src = str(Path(cli_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, binomsum.cli\n"
         "def loaded(): return sorted(m for m in "
         "('dataclasses', 'inspect', 'csv', 'json') if m in sys.modules)\n"
         "print(loaded())\n"
         "code = binomsum.cli.main(['term', 'parse', 'builtin:guillera2.G'])\n"
         "print(code, loaded())"],
        capture_output=True, text=True, env=env)
    first, *report, last = proc.stdout.splitlines()
    assert (proc.returncode, first, last) == (0, "[]", "0 []")
    assert len(report) == 1 and report[0].startswith("PASS  term")


def test_sum_and_lemma_audits_load_neither_terms_nor_certificates():
    # The term language (dsl, hyperterm, polyalg) and wz are imported only
    # by the handlers that use them; the package re-exports every name of
    # __all__ on first access, and dir() lists each of them.
    src = str(Path(cli_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import io, sys, contextlib, binomsum.cli\n"
         "def loaded(): return sorted(m for m in sys.modules if m in "
         "('binomsum.dsl', 'binomsum.hyperterm', 'binomsum.polyalg', "
         "'binomsum.wz'))\n"
         "print(loaded())\n"
         "with contextlib.redirect_stdout(io.StringIO()):\n"
         "    codes = [binomsum.cli.main(argv.split()) for argv in (\n"
         "        'sumcheck --n-max 6 --valuation-check', 'lemma --id 2.3')]\n"
         "print(codes, loaded())\n"
         "import binomsum\n"
         "names = {}\n"
         "exec('from binomsum import *', names)\n"
         "exported = set(binomsum.__all__)\n"
         "print(sorted(exported - set(names)),\n"
         "      sorted(exported - set(dir(binomsum))), loaded())"],
        capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "[]", "[0, 0] []",
        "[] [] ['binomsum.dsl', 'binomsum.hyperterm', 'binomsum.polyalg', "
        "'binomsum.wz']"]


def test_integer_audits_load_neither_fractions_nor_decimal():
    # exact makes Decimal and DECIMAL_CONTEXT on first access (PEP 562),
    # report names the two classes only for a value that is neither an int
    # nor a str, and verify imports Fraction where one is built; so the
    # sum audits and lemmas 2.2-2.5, lemma 2.4's failing default run
    # included, load neither module, and lemma 2.6 loads decimal only.
    src = str(Path(cli_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import io, sys, contextlib, binomsum.cli\n"
         "def loaded(): return sorted(m for m in sys.modules if m in "
         "('decimal', 'fractions'))\n"
         "for argv in ('sumcheck', 'sumcheck --valuation-check',\n"
         "             'lemma --id 2.2', 'lemma --id 2.3', 'lemma --id 2.4',\n"
         "             'lemma --id 2.5', 'lemma --id 2.6 --n-max 40 "
         "--m-max 40'):\n"
         "    with contextlib.redirect_stdout(io.StringIO()):\n"
         "        code = binomsum.cli.main(argv.split())\n"
         "    print(code, loaded())\n"
         "import binomsum.exact as exact\n"
         "print(exact.DECIMAL_CONTEXT is exact.DECIMAL_CONTEXT, loaded())"],
        capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "0 []", "0 []", "0 []", "0 []", "1 []", "0 []", "0 ['decimal']",
        "True ['decimal']"]


def test_a_planted_lemma25_failure_builds_its_fraction_where_it_fails():
    # The scan builds W as a Fraction only at a failing point, importing
    # fractions there; the record is the one a passing import would give.
    src = str(Path(cli_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, binomsum.cli, binomsum.verify as verify\n"
         "real = verify.lemma25_row\n"
         "def planted(n):\n"
         "    return [(p, d * 101) if (n, k) == (4, 3) else (p, d)\n"
         "            for k, (p, d) in enumerate(real(n), 1)]\n"
         "verify.lemma25_row = planted\n"
         "print('fractions' in sys.modules)\n"
         "code = binomsum.cli.main('lemma --id 2.5 --n-max 5 --format csv'"
         ".split())\n"
         "print(code, 'fractions' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    before, _, summary, record, after = proc.stdout.splitlines()
    w = verify_module.lemma25_w(4, 3) / 101
    assert (before, after) == ("False", "1 True")
    assert summary.startswith("lemma,") and ",fail," in summary
    assert record == ('lemma,"{""id"":""2.5"",""k"":3,""n"":4}",fail,'
                      f'"{{""reason"":""non-integral"",""value"":""{w}""}}"')


@pytest.mark.parametrize("n_max", [1, 2, 3, 7, 45, 60])
@pytest.mark.parametrize("blocks", [1, 2, 8])
def test_row_blocks_cover_the_rows_in_order(n_max, blocks):
    runs = _blocks(range(1, n_max + 1), lambda n: n, blocks)
    assert [n for run in runs for n in run] == list(range(1, n_max + 1))
    assert all(run and run.step == 1 for run in runs)
    assert len(runs) <= blocks
    if blocks > 1 and n_max > 2:
        assert len(runs) > 1


def _equal_parts(values: range, blocks: int) -> list[range]:
    """values cut into `blocks` consecutive parts of near-equal length."""
    cuts = [len(values) * j // blocks for j in range(blocks + 1)]
    return [values[a:b] for a, b in zip(cuts, cuts[1:])]


@pytest.mark.parametrize("blocks", [1, 2, 3, 8])
@pytest.mark.parametrize("scan,values", [
    (partial(lemma24_scan, 14), range(2, 15)),
    (partial(lemma24_scan, 20, region="k0"), range(2, 21)),
    (partial(lemma24_scan, 20, region="case3a"), range(2, 21)),
    (partial(lemma24_scan, 6, full_range=9), range(2, 7)),
    (partial(lemma24_scan, 9, region="case3a", full_range=7), range(2, 10)),
    (partial(lemma25_scan, 40), range(1, 41)),
    (partial(lemma26_ineq_scan, 60), range(2, 61)),
], ids=["2.4-all", "2.4-k0", "2.4-case3a", "2.4-full-range",
        "2.4-case3a-full-range", "2.5", "2.6"])
def test_merged_block_audits_equal_the_whole_scan(scan, values, blocks):
    whole = scan()
    for parts in (_equal_parts(values, blocks),
                  _blocks(values, lambda v: v, blocks)):
        assert _merged([scan(part) for part in parts]) == whole


def test_merged_block_audits_keep_violations_in_scan_order(monkeypatch):
    # Every argument's floor reads 1 and its residue m, so every margin
    # reads the weight sum 5 - 8 = -3: each block contributes violations.
    monkeypatch.setattr(verify_module, "_floor_route",
                        lambda m, w, values: [w] * len(values))
    monkeypatch.setattr(verify_module, "_fractional_route",
                        lambda m, w, values: [w * m] * len(values))
    whole = lemma24_scan(6, region="k0")
    assert len(whole.violations) == whole.checked == 25
    parts = _equal_parts(range(2, 7), 3)
    assert _merged([lemma24_scan(6, part, region="k0")
                    for part in parts]) == whole


def test_scan_parts_must_lie_within_the_scan():
    with pytest.raises(ValueError, match="m_range"):
        lemma24_scan(5, range(4, 7))
    with pytest.raises(ValueError, match="n_range"):
        lemma25_scan(5, range(0, 3))
    with pytest.raises(ValueError, match="m_range"):
        lemma26_ineq_scan(5, range(1, 3))


# ---------------------------------------------------------------------------
# Every subcommand at its defaults
# ---------------------------------------------------------------------------

SMOKE = ([["sumcheck"], ["ratio"]]
         + [["wzcheck", "--pair", f"builtin:{pair}", "--mode", mode]
            for pair in ("guillera1", "guillera2")
            for mode in ("grid", "symbolic", "telescope")]
         + [["lemma", "--id", lemma] for lemma in LEMMA_IDS]
         + [["term", action, "builtin:guillera2.G"]
            for action in ("parse", "serialize")]
         + [["term", "eval", "builtin:guillera2.G", "--n", "5", "--k", "2"]])


@pytest.mark.parametrize("argv", SMOKE, ids=" ".join)
def test_every_subcommand_completes_at_its_defaults(capsys, int_str_limit,
                                                   argv):
    # Under the default digit limit, which lemma 2.6's witnesses pass.
    # --jobs 2 lets the longer audits (lemma 2.5, ratio) take a pool.
    code, out, err = run_cli(capsys, *argv, "--jobs", "2")
    assert (code, err) == (1 if argv == ["lemma", "--id", "2.4"] else 0, "")
    assert out
