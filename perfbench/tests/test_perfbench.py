"""Self-tests of the benchmark: seeding, point counting, judging, tracing.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from binomsum.cli import main as cli_main  # noqa: E402
from harness import (ProcessRun, Runner, cli_argv, judge,  # noqa: E402
                     report_points, report_records, scrubbed_env,
                     traced_argv)
from run import (CALIBRATION_NOMINAL_S, GOLDEN, end_to_end,  # noqa: E402
                 layer_units)
from workloads import (DEFAULT_SEED, SUMS_BAND, WORKLOADS, Audit,  # noqa: E402
                       audit_list)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_audit_list(workload):
    assert audit_list(workload, 7) == audit_list(workload, 7)
    lists = {tuple(audit_list(workload, seed)) for seed in range(6)}
    assert len(lists) > 1
    for audit in audit_list(workload, 7):
        assert "--jobs" not in audit.args
        assert audit.format in ("json", "csv", "human")


def test_lemma26_stays_at_its_defaults():
    for seed in range(6):
        keys = [a.key for a in audit_list("lemmas", seed)]
        assert "lemma --id 2.6 --format human" in keys


def test_only_lemma26_has_a_known_failure():
    known = {a.key for w in WORKLOADS for seed in range(6)
             for a in audit_list(w, seed) if a.known_failure}
    assert known == {"lemma --id 2.6 --format human"}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_golden_has_every_default_seed_audit(workload):
    golden = json.loads(GOLDEN.read_text())["reports"][workload]
    keys = [a.key for a in audit_list(workload, DEFAULT_SEED)]
    assert sorted(keys) == sorted(golden)
    assert [k for k in keys if golden[k] is None] == \
        [a.key for a in audit_list(workload, DEFAULT_SEED) if a.known_failure]


def test_sums_windows_cover_the_band():
    for seed in range(6):
        windows = sorted(
            (int(a.args[a.args.index("--n-min") + 1]),
             int(a.args[a.args.index("--n-max") + 1]))
            for a in audit_list("sums", seed)
            if "--valuation-check" not in a.args)
        assert (windows[0][0], windows[-1][1]) == SUMS_BAND
        assert all(b + 1 == c for (_, b), (c, _) in zip(windows, windows[1:]))
        assert all(b - a + 1 >= 8 for a, b in windows)


# (CLI args without --format, expected points, expected statuses)
TINY = [
    (["sumcheck", "--sum", "guillera1", "--n-max", "3"], 2, {"pass"}),
    (["sumcheck", "--sum", "guillera1", "--n-max", "3", "--valuation-check"],
     2, {"pass"}),
    (["wzcheck", "--pair", "builtin:guillera1", "--mode", "grid",
      "--n-max", "3"], 6, {"pass"}),
    (["wzcheck", "--pair", "builtin:guillera1", "--mode", "telescope",
      "--n-max", "3"], 2, {"pass"}),
    (["wzcheck", "--pair", "builtin:guillera2", "--mode", "symbolic"],
     1, {"pass"}),
    (["ratio", "--id", "all", "--n-max", "2"], 9, {"pass"}),
    (["lemma", "--id", "2.2", "--n-max", "3"], 6, {"pass"}),
    (["lemma", "--id", "2.3", "--n-max", "3"], 2, {"pass"}),
    (["lemma", "--id", "2.4", "--m-max", "3"], 17, {"fail"}),
    (["lemma", "--id", "2.4", "--region", "case3a", "--m-max", "5"],
     27, {"pass"}),
    (["lemma", "--id", "2.5", "--n-max", "5"], 15, {"pass"}),
    (["lemma", "--id", "2.6", "--n-max", "2", "--m-max", "3"], 7, {"pass"}),
    (["term", "parse", "builtin:guillera1.F"], 1, {"pass"}),
]


@pytest.mark.parametrize("fmt", ["json", "csv", "human"])
@pytest.mark.parametrize("args,points,statuses", TINY,
                         ids=[" ".join(t[0][:3]) for t in TINY])
def test_points_of_tiny_reports(capsys, args, points, statuses, fmt):
    cli_main(args + ["--format", fmt])
    records = report_records(capsys.readouterr().out, fmt)
    assert report_points(records) == points
    assert {status for status, _ in records} == statuses


def _run(exit_code=0, digest="a", size=10, records=(("pass", 3),), jobs=1):
    return ProcessRun(("python3", "--jobs", str(jobs)), exit_code, 0.1, 1000,
                      digest, size, None if records is None else
                      list(records))


def test_judge_counts_points_of_a_good_audit():
    audit = Audit(("lemma", "--format", "human"))
    outcome = judge(audit, (_run(), _run(jobs=2)), "a", "a")
    assert not outcome.failed and outcome.points == 3


CRASH = (_run(exit_code=1, size=0, records=()),
         _run(exit_code=1, size=0, records=(), jobs=2))


@pytest.mark.parametrize("runs,reference,golden", [
    (CRASH, "a", None),                              # a crash, no report
    ((_run(exit_code=-9, size=0, records=()), _run(jobs=2)),
     "a", None),                                     # killed at the limit
    ((_run(), _run(digest="b", jobs=2)), "a", None),  # jobs differ
    ((_run(), _run(jobs=2)), "b", None),              # changed
    ((_run(), _run(jobs=2)), "a", "b"),               # golden
    ((_run(records=(("fail", None),)), _run(jobs=2)), "a", None),
    ((_run(records=None), _run(jobs=2)), "a", None),  # unreadable
])
def test_judge_failures_are_wrong(runs, reference, golden):
    outcome = judge(Audit(("x", "--format", "human")), runs, reference,
                    golden)
    assert outcome.failed and outcome.points == 0
    assert outcome.wrong


def test_known_crash_fails_but_is_not_wrong():
    audit = Audit(("lemma", "--format", "human"), known_failure="crash")
    outcome = judge(audit, CRASH, "a", None)
    assert outcome.failed and not outcome.wrong
    # The same audit printing a failing report is wrong.
    runs = (_run(exit_code=1, records=(("fail", None),)),
            _run(exit_code=1, records=(("fail", None),), jobs=2))
    outcome = judge(audit, runs, "a", None)
    assert outcome.failed and outcome.wrong


def test_expected_failures_are_not_failures():
    audit = Audit(("lemma", "--format", "human"), expected_exit=1,
                  expected_statuses=frozenset({"pass", "fail"}))
    runs = (_run(exit_code=1, records=(("fail", 16), ("fail", None))),
            _run(exit_code=1, records=(("fail", 16), ("fail", None)),
                 jobs=2))
    outcome = judge(audit, runs, "a", None)
    assert not outcome.failed and outcome.points == 17


def test_end_to_end_divides_out_the_host_speed():
    audit = Audit(("x", "--format", "human"))

    def one_round(slowdown):
        runs = tuple(ProcessRun(("python3", "--jobs", str(jobs)), 0,
                                slowdown * 0.5 / jobs, 2048, "a", 10,
                                [("pass", 5)]) for jobs in (1, 2))
        return ({"setup_s": [slowdown * 0.1],
                 "calibration_s": [slowdown * CALIBRATION_NOMINAL_S]},
                [judge(audit, runs, "a", None)])

    rounds, outcomes = zip(one_round(1), one_round(2), one_round(2))
    metrics = end_to_end(list(rounds), list(outcomes))
    assert metrics["setup_s"] == pytest.approx(0.1)
    assert metrics["points_per_s"] == pytest.approx(10)  # 5 points in 0.5 s
    assert metrics["points_per_s_jobs2"] == pytest.approx(20)
    assert metrics["peak_rss_mb"] == 2
    assert metrics["host_scale"] == pytest.approx(2)
    assert metrics["raw_setup_s"] == pytest.approx(0.2)
    assert metrics["raw_points_per_s"] == pytest.approx(5)


def test_children_get_a_scrubbed_environment(monkeypatch):
    monkeypatch.setenv("BINOMSUM_JOBS", "2")
    monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "0")
    env = scrubbed_env(ROOT)
    assert env["PYTHONPATH"] == str(ROOT / "src")
    assert "BINOMSUM_JOBS" not in env
    assert "PYTHONINTMAXSTRDIGITS" not in env


@pytest.mark.parametrize("args,exit_code", [
    (("lemma", "--id", "2.2", "--n-max", "40", "--format", "human"), 0),
    (("sumcheck", "--n-max", "30", "--valuation-check", "--format", "json"),
     0),
    (("lemma", "--id", "2.6", "--format", "human"), 1),  # crashes
])
def test_tracer_is_transparent(tmp_path, args, exit_code):
    trace_path = tmp_path / "trace.json"
    fmt = args[-1]
    with Runner(ROOT, tmp_path, perf_counter() + 120) as runner:
        plain = runner.run(cli_argv(args, 1), fmt)
        traced = runner.run(traced_argv(args, 1, trace_path), fmt)
    assert plain.exit_code == traced.exit_code == exit_code
    assert plain.sha256 == traced.sha256
    trace = json.loads(trace_path.read_text())
    assert trace["missing"] == []
    edges = {(key, parent): calls for key, parent, calls, *_ in trace["edges"]}
    assert edges[("cli.main", "")] == 1


def test_benchmark_json_lists_what_run_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
