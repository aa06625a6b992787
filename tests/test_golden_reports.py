"""Golden reports: every subcommand and wzcheck mode, in every format.

The expected files under tests/golden/ are the exact stdout of each
invocation; a refactor of the command line or of the scans must leave
them byte-identical.  Each case lists the exit code it must return.
"""
import hashlib
from pathlib import Path

import pytest

import binomsum.cli as cli_module
from binomsum.cli import main
from binomsum.pairs import builtin_document_text
from binomsum.report import FORMATS

GOLDEN = Path(__file__).parent / "golden"

SUFFIX = {"json": "json", "csv": "csv", "human": "txt"}

# (name, argv, exit code).  {pair} is a directory holding guillera1.F with
# guillera2.G, a pair that fails every mode; {pole} is a document whose
# denominator vanishes at n = 2; {telescope_pole} holds an F whose
# denominator vanishes at (3, 0), in the conclusion of every N >= 4, with
# guillera1.G.
CASES = [
    ("sumcheck_all", ["sumcheck", "--n-max", "8"], 0),
    ("sumcheck_valuation", ["sumcheck", "--sum", "guillera1", "--n-max",
                            "10", "--valuation-check"], 0),
    ("sumcheck_valuation_wide", ["sumcheck", "--sum", "all", "--n-min", "60",
                                 "--n-max", "70", "--valuation-check"], 0),
    ("sumcheck_fail", ["sumcheck", "--sum", "sun_a", "--divisor", "strong",
                       "--n-max", "6"], 1),
    ("wz_grid", ["wzcheck", "--pair", "builtin:guillera1", "--mode", "grid",
                 "--n-max", "8"], 0),
    ("wz_telescope", ["wzcheck", "--pair", "builtin:guillera2", "--mode",
                      "telescope", "--n-max", "8"], 0),
    ("wz_symbolic", ["wzcheck", "--pair", "builtin:guillera1", "--mode",
                     "symbolic"], 0),
    ("wz_grid_fail", ["wzcheck", "--pair", "{pair}", "--mode", "grid",
                      "--n-max", "6"], 1),
    ("wz_telescope_fail", ["wzcheck", "--pair", "{pair}", "--mode",
                           "telescope", "--n-max", "5", "--scale-base",
                           "-4096"], 1),
    ("wz_symbolic_fail", ["wzcheck", "--pair", "{pair}", "--mode",
                          "symbolic"], 1),
    ("wz_telescope_pole", ["wzcheck", "--pair", "{telescope_pole}", "--mode",
                           "telescope", "--n-max", "5", "--scale-base", "2"],
     1),
    ("lemma22", ["lemma", "--id", "2.2", "--n-max", "20"], 0),
    ("lemma23", ["lemma", "--id", "2.3", "--n-max", "20"], 0),
    ("lemma24_fail", ["lemma", "--id", "2.4", "--m-max", "2"], 1),
    ("lemma24_case3a", ["lemma", "--id", "2.4", "--m-max", "12", "--region",
                        "case3a"], 0),
    ("lemma24_full_range", ["lemma", "--id", "2.4", "--m-max", "3",
                            "--full-range", "4"], 1),
    ("lemma24_default", ["lemma", "--id", "2.4"], 1),
    ("lemma25", ["lemma", "--id", "2.5", "--n-max", "12"], 0),
    ("lemma25_wide", ["lemma", "--id", "2.5", "--n-max", "40"], 0),
    ("lemma26", ["lemma", "--id", "2.6", "--n-max", "40", "--m-max", "30"], 0),
    ("ratio_all", ["ratio", "--n-max", "6"], 0),
    ("term_parse", ["term", "parse", "builtin:guillera2.G"], 0),
    ("term_eval", ["term", "eval", "builtin:guillera1.F", "--n", "3",
                   "--k", "2"], 0),
    ("term_eval_pole", ["term", "eval", "{pole}", "--n", "2", "--k", "0"], 1),
]

# Raw text: the same bytes in every format.
RAW_CASES = [
    ("term_serialize", ["term", "serialize", "builtin:guillera1.G"], 0),
]


# Usage errors: exit 2, no report, exactly this line on stderr.
ERROR_CASES = [
    (["sumcheck", "--n-min", "1"], "sumcheck needs --n-min >= 2"),
    (["sumcheck", "--n-min", "5", "--n-max", "4"],
     "--n-max must be >= --n-min"),
    (["wzcheck", "--pair", "builtin:guillera1", "--mode", "telescope",
      "--n-min", "1"], "telescope audits need --n-min >= 2"),
    (["wzcheck", "--pair", "builtin:guillera1", "--mode", "telescope",
      "--n-min", "4", "--n-max", "3"], "--n-max must be >= --n-min"),
    (["wzcheck", "--pair", "builtin:guillera1", "--mode", "grid",
      "--n-max", "0"], "--n-max must be >= 1"),
    (["wzcheck", "--pair", "{pair}", "--mode", "telescope"],
     "telescope mode on a path pair needs --scale-base"),
    (["ratio", "--n-min", "1"], "ratio identities need --n-min >= 2"),
    (["ratio", "--n-min", "5", "--n-max", "4"], "--n-max must be >= --n-min"),
    (["lemma", "--id", "2.2", "--n-max", "0"], "--n-max must be >= 1"),
    (["lemma", "--id", "2.3", "--n-max", "1"], "lemma 2.3 needs --n-max >= 2"),
    (["lemma", "--id", "2.4", "--m-max", "1"], "lemma 2.4 needs --m-max >= 2"),
    (["lemma", "--id", "2.5", "--n-max", "0"], "--n-max must be >= 1"),
    (["lemma", "--id", "2.6", "--n-max", "0"], "--n-max must be >= 1"),
    (["lemma", "--id", "2.6", "--m-max", "1"], "lemma 2.6 needs --m-max >= 2"),
    (["term", "eval", "builtin:guillera1.F", "--n", "1"],
     "term eval needs --n and --k"),
    (["term", "parse", "builtin:nope.F"], "unknown builtin document 'nope.F'"),
    (["sumcheck", "--jobs", "0"], "--jobs must be at least 1"),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    pair = root / "mixed"
    pair.mkdir()
    (pair / "mixed.F").write_text(builtin_document_text("guillera1.F"), "utf-8")
    (pair / "mixed.G").write_text(builtin_document_text("guillera2.G"), "utf-8")
    pole = root / "pole.F"
    pole.write_text("term pole\npoly 1\ndenompoly n-2\nend\n", "utf-8")
    telescope_pole = root / "tpole"
    telescope_pole.mkdir()
    (telescope_pole / "tpole.F").write_text(
        "term tpole.F\npoly 1\ndenompoly n+k-3\nend\n", "utf-8")
    (telescope_pole / "tpole.G").write_text(
        builtin_document_text("guillera1.G"), "utf-8")
    return {"pair": str(pair), "pole": str(pole),
            "telescope_pole": str(telescope_pole)}


def _run(capsys, argv, inputs):
    code = main([arg.format(**inputs) for arg in argv])
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, captured.out.encode("utf-8")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_report_bytes(capsys, inputs, name, argv, code, fmt):
    got = _run(capsys, argv + ["--format", fmt, "--jobs", "1"], inputs)
    expected = (GOLDEN / f"{name}.{SUFFIX[fmt]}").read_bytes()
    assert got == (code, expected)


@pytest.mark.parametrize("name,argv,code", RAW_CASES,
                         ids=[c[0] for c in RAW_CASES])
def test_raw_text_bytes(capsys, inputs, name, argv, code):
    expected = (GOLDEN / f"{name}.txt").read_bytes()
    for fmt in FORMATS:
        got = _run(capsys, argv + ["--format", fmt], inputs)
        assert got == (code, expected)


@pytest.mark.parametrize("argv,message", ERROR_CASES,
                         ids=[" ".join(c[0]) for c in ERROR_CASES])
def test_usage_error_messages(capsys, inputs, argv, message):
    code = main([arg.format(**inputs) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        2, "", f"binomsum: error: {message}\n")


def test_report_bytes_at_two_jobs(capsys, inputs):
    for fmt in FORMATS:
        for name, argv, code in CASES:
            got = _run(capsys, argv + ["--format", fmt, "--jobs", "2"], inputs)
            expected = (GOLDEN / f"{name}.{SUFFIX[fmt]}").read_bytes()
            assert got == (code, expected), (name, fmt)


@pytest.fixture
def forced_pool(monkeypatch):
    """At --jobs 2 a pool of two workers takes over from the second work
    item of every audit that has two or more."""
    monkeypatch.setattr(cli_module, "_POOL_COST_NS", 0)
    monkeypatch.setattr(cli_module.os, "cpu_count", lambda: 2)


@pytest.mark.parametrize("fmt", FORMATS)
def test_report_bytes_in_a_forced_pool(capsys, inputs, forced_pool, fmt):
    for name, argv, code in CASES:
        got = _run(capsys, argv + ["--format", fmt, "--jobs", "2"], inputs)
        expected = (GOLDEN / f"{name}.{SUFFIX[fmt]}").read_bytes()
        assert got == (code, expected), name


# Split scans at their benchmark or default sizes, against the --jobs 1
# reports of the whole scans taken before they were split.
SPLIT_SCANS = [
    (["lemma", "--id", "2.4", "--region", "case3a", "--m-max", "60"],
     b'{"check":"lemma","params":{"full_range":"none","id":"2.4",'
     b'"m_max":60,"region":"case3a"},"status":"pass",'
     b'"witness":{"checked":"24334","violations":"0"}}\n'),
    (["lemma", "--id", "2.5"],
     b'{"check":"lemma","params":{"id":"2.5","n_max":200},"status":"pass",'
     b'"witness":{"checked":"20100","violations":"0"}}\n'),
    (["lemma", "--id", "2.6", "--n-max", "200"],
     "64fd56d07b8f90ea3c055df3828d9283ad3b60a6b1837182cd01605ff27522fa"),
    (["wzcheck", "--pair", "builtin:guillera1", "--mode", "telescope",
      "--n-max", "45"],
     "83820b43dfcac82d5fa9d0bca9d163443d89ad63d33952e35cbb6bf8bf2b347f"),
    (["ratio", "--id", "all", "--n-max", "40"],
     "0ff20b1bdd60c6036803a80c8f5197bb73ad7a968cb5bd1c026c0c8f504f6cdd"),
]


@pytest.mark.parametrize("argv,expected", SPLIT_SCANS,
                         ids=[" ".join(c[0][1:]) for c in SPLIT_SCANS])
def test_split_scan_bytes_in_a_forced_pool(capsys, inputs, forced_pool, argv,
                                           expected):
    code, out = _run(capsys, argv + ["--format", "json", "--jobs", "2"],
                     inputs)
    assert code == 0
    if isinstance(expected, str):  # sha256 of a large report
        out = hashlib.sha256(out).hexdigest()
    assert out == expected
