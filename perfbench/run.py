"""Seeded, closed-loop benchmark of the binomsum command-line audits.

One client runs the CLI as a child process, one audit at a time, over a
workload's seeded audit list: each audit in turn, after a setup probe,
with ``--jobs 1`` and then ``--jobs 2`` (clamped to the CPU count).  Such
a round repeats while the next one still fits in ``--seconds``.

    python3 perfbench/run.py --workload sums --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all              # end-to-end table
    python3 perfbench/run.py --workload all --trace 1    # per-layer table
    python3 perfbench/run.py --write-golden              # re-take digests

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable table and
the provenance.  Every run also writes its full record, including the
exact argv of every child, to ``perfbench/out/``.  See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from harness import Outcome, Runner, cli_argv, judge, traced_argv
from tracer import EXTRA_UNITS, TARGETS
from workloads import DEFAULT_SEED, WORKLOADS, Audit, audit_list

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORK = OUT / "tmp"  # the children's stdout and trace files
GOLDEN = BENCH / "golden.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}

# Measured and printed, but not an end-to-end metric of BENCHMARK.json:
# whether a second CPU is free varies over minutes on a shared host, so
# the value does not repeat well enough to gate a change (see README.md).
UNGATED = {"points_per_s_jobs2": "1/s", "host_scale": "ratio",
           "raw_setup_s": "s", "raw_points_per_s": "1/s"}

SETUP_ARGS = ("term", "parse", "builtin:guillera1.F")
# A fixed pure-Python loop over small and big integers that uses nothing
# of the repository.  Its time follows the speed the host gives the
# benchmark, and no change to binomsum can move it.  CALIBRATION_NOMINAL_S
# is its time on the machine of README.md's first numbers at full speed;
# see end_to_end().
CALIBRATION = """
n = 0
for i in range(150_000):
    n += i * i % 7
f = 1
for i in range(2, 3000):
    f *= i
"""
CALIBRATION_NOMINAL_S = 0.032
# Children still running this long after a workload started are killed,
# so that a run ends well within three minutes.
HARD_LIMIT_S = 150.0


def layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for _, _, key, extra, _ in TARGETS:
        units[f"{key}.calls"] = "count"
        units[f"{key}.self_s"] = "s"
        if extra is not None:
            units[f"{key}.{extra}"] = EXTRA_UNITS[extra]
    units["cli._pmap.wall_s_jobs2"] = "s"
    units["trace_overhead"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _git(*args: str) -> str | None:
    # The ceiling keeps git from taking a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                              capture_output=True, text=True, timeout=30,
                              stdin=subprocess.DEVNULL)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(**run: object) -> dict:
    """Machine, interpreter and source identity of a run."""
    in_repo = _git("rev-parse", "--show-toplevel") == str(ROOT)
    status = _git("status", "--porcelain", "--untracked-files=no") \
        if in_repo else None
    return {**run,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_rev": _git("rev-parse", "HEAD") if in_repo else None,
            "git_dirty": None if status is None else bool(status),
            "src_sha256": _src_sha256()}


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

def load_golden(audits: list[Audit], workload: str) -> dict[str, str | None]:
    """The golden digest of each audit; None only where golden.json says so.

    An audit without an entry is an error: its report would go unchecked.
    """
    golden = json.loads(GOLDEN.read_text("utf-8"))["reports"][workload]
    missing = [a.key for a in audits if a.key not in golden]
    if missing:
        sys.exit(f"golden.json has no digest for {missing}; "
                 "re-take it with --write-golden at the parent commit")
    return golden


def probe_setup(runner: Runner) -> float:
    """Wall time of one minimal invocation."""
    run = runner.run(cli_argv(SETUP_ARGS, None))
    if run.exit_code != 0 or run.records != [("pass", None)]:
        sys.exit(f"setup probe failed: exit {run.exit_code}, "
                 f"records {run.records}")
    return run.wall_s


def calibrate(runner: Runner) -> float:
    """Wall time of one calibration child."""
    run = runner.run([sys.executable, "-S", "-c", CALIBRATION])
    if run.exit_code != 0:
        sys.exit(f"calibration failed: exit {run.exit_code}")
    return run.wall_s


def plain_round(runner: Runner, audits: list[Audit], jobs2: int,
                references: dict, golden: dict) -> tuple[dict, list[Outcome]]:
    """Each audit at --jobs 1 and then at --jobs 2, after a setup probe
    and a calibration.

    The probes are spread over the round, so that a slow stretch of the
    host does not catch all of them at once.
    """
    setup, calibration, outcomes = [], [], []
    for audit in audits:
        setup.append(probe_setup(runner))
        calibration.append(calibrate(runner))
        runs = tuple(runner.run(cli_argv(audit.args, jobs), audit.format)
                     for jobs in (1, jobs2))
        outcomes.append(judge(
            audit, runs, references.setdefault(audit.key, runs[0].sha256),
            golden[audit.key] if golden else None))
    return {"setup_s": setup, "calibration_s": calibration}, outcomes


def end_to_end(rounds: list[dict], outcomes: list[list[Outcome]]) -> dict:
    """End-to-end metrics over all rounds of a plain run.

    On a shared host the speed of every child drifts by up to 2x over
    seconds and minutes.  So each round's times are divided by that round's
    host scale: the mean time of its calibration children over
    CALIBRATION_NOMINAL_S.  Each metric is the median over rounds of the
    scaled values; the unscaled ones are kept as ``raw_*``.  An audit that
    failed in any round adds its time but no points.
    """
    points = sum(min(o.points for o in column) for column in zip(*outcomes))
    scales = [statistics.mean(r["calibration_s"]) / CALIBRATION_NOMINAL_S
              for r in rounds]
    setup = [statistics.mean(r["setup_s"]) for r in rounds]

    def round_times(run_index: int) -> list[float]:
        return [sum(o.runs[run_index].wall_s for o in round_outcomes)
                for round_outcomes in outcomes]

    def scaled(values: list[float]) -> float:
        return statistics.median(v / s for v, s in zip(values, scales))

    return {
        "setup_s": scaled(setup),
        "points_per_s": points / scaled(round_times(0)),
        "points_per_s_jobs2": points / scaled(round_times(1)),
        "peak_rss_mb": max(run.maxrss_kb for round_outcomes in outcomes
                           for o in round_outcomes for run in o.runs) / 1024,
        "host_scale": statistics.median(scales),
        "raw_setup_s": statistics.median(setup),
        "raw_points_per_s": points / statistics.median(round_times(0)),
    }


def _trace_table(path: Path) -> list[list]:
    try:
        return json.loads(path.read_text("utf-8"))["edges"]
    except FileNotFoundError:  # the child died before writing it
        return []


def traced_round(runner: Runner, audits: list[Audit], jobs2: int,
                 references: dict, golden: dict) -> tuple[dict, list[Outcome]]:
    """Untraced, traced and parent-side traced --jobs 2 run of each audit."""
    extras = {key: extra for _, _, key, extra, _ in TARGETS}
    metrics = dict.fromkeys(layer_units(), 0)
    trace_path = runner.workdir / "trace.json"
    outcomes = []
    plain_s = traced_s = 0.0
    for audit in audits:
        plain = runner.run(cli_argv(audit.args, 1), audit.format)
        runs, tables = [plain], []
        for jobs in (1, jobs2):
            trace_path.unlink(missing_ok=True)
            runs.append(runner.run(
                traced_argv(audit.args, jobs, trace_path), audit.format))
            tables.append(_trace_table(trace_path))
        outcomes.append(judge(audit, tuple(runs),
                              references.setdefault(audit.key, plain.sha256),
                              golden[audit.key] if golden else None))
        for key, _parent, calls, _total_s, self_s, extra in tables[0]:
            metrics[f"{key}.calls"] += calls
            metrics[f"{key}.self_s"] += self_s
            if extras[key] is not None:
                metrics[f"{key}.{extras[key]}"] += extra
        metrics["cli._pmap.wall_s_jobs2"] += sum(
            row[3] for row in tables[1] if row[0] == "cli._pmap")
        plain_s += plain.wall_s
        traced_s += runs[1].wall_s
    metrics["trace_overhead"] = traced_s / plain_s
    return metrics, outcomes


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = perf_counter()
    jobs2 = min(2, os.cpu_count() or 1)
    audits = audit_list(workload, seed)
    golden = load_golden(audits, workload) if seed == DEFAULT_SEED else {}
    run_round = traced_round if trace else plain_round
    references: dict[str, str] = {}
    rounds, outcomes = [], []
    with Runner(ROOT, WORK, deadline=start + HARD_LIMIT_S) as runner:
        if not trace:
            probe_setup(runner)  # warm-up: bytecode caches, page cache
        loop_start = perf_counter()
        while True:
            metrics, round_outcomes = run_round(runner, audits, jobs2,
                                                references, golden)
            rounds.append(metrics)
            outcomes.append(round_outcomes)
            now = perf_counter()
            per_round = (now - loop_start) / len(rounds)
            if (now - loop_start + per_round > seconds
                    or now - start + per_round > HARD_LIMIT_S):
                break

    if trace:
        units, ungated = layer_units(), {}
        values = {name: statistics.median(r[name] for r in rounds)
                  for name in units}
    else:
        units, ungated = END_TO_END, UNGATED
        values = end_to_end(rounds, outcomes)
    outcomes = [o for round_outcomes in outcomes for o in round_outcomes]
    record = {
        "provenance": provenance(workload=workload, seed=seed,
                                 seconds=seconds, trace=int(trace),
                                 jobs=[1, jobs2],
                                 golden_checked=bool(golden)),
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
        "ungated": {name: {"value": values[name], "unit": unit}
                    for name, unit in ungated.items()},
        "rounds": rounds,
        "audits": [{"argv": [list(r.argv) for r in o.runs],
                    "exit": [r.exit_code for r in o.runs],
                    "wall_s": [r.wall_s for r in o.runs],
                    "maxrss_kb": [r.maxrss_kb for r in o.runs],
                    "points": o.points, "reasons": o.reasons,
                    "wrong": o.wrong}
                   for o in outcomes],
    }
    out_file = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n", "utf-8")
    return record


# ---------------------------------------------------------------------------
# Golden digests and output
# ---------------------------------------------------------------------------

def write_golden() -> None:
    """Digest every default-seed report at --jobs 1 into golden.json.

    An audit's known crash (lemma 2.6) gets a null digest: it already fails
    on its exit code, and a fix must not then fail on the digest of the
    crash.  Any other failure stops the run, as there is nothing to trust.
    """
    reports = {}
    with Runner(ROOT, WORK, deadline=perf_counter() + 3600) as runner:
        for workload in WORKLOADS:
            reports[workload] = {}
            for audit in audit_list(workload, DEFAULT_SEED):
                run = runner.run(cli_argv(audit.args, 1), audit.format)
                outcome = judge(audit, (run,), run.sha256, None)
                if outcome.wrong:
                    sys.exit(f"no golden digest for {audit.key}: "
                             f"{'; '.join(outcome.reasons)}")
                reports[workload][audit.key] = \
                    None if outcome.failed else run.sha256
    golden = {"seed": DEFAULT_SEED,
              "provenance": provenance(purpose="golden digests"),
              "reports": reports}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", "utf-8")
    print(f"wrote {GOLDEN}")


def print_table(results: dict[str, dict]) -> None:
    tables = [{**r["metrics"], **r["ungated"],
               "failed_share": {"value": r["failed"] / r["attempted"],
                                "unit": "share"}}
              for r in results.values()]
    width = max(len(name) for name in tables[0]) + 2
    print("metric".ljust(width) + "unit".ljust(8)
          + "".join(w.rjust(16) for w in results))
    for name, metric in tables[0].items():
        print(name.ljust(width) + metric["unit"].ljust(8)
              + "".join(f"{t[name]['value']:16.6g}" for t in tables))
    for workload, result in results.items():
        print(f"{workload}: attempted {result['attempted']}, failed "
              f"{result['failed']}, correct {result['correct']}")
        failures = Counter(
            ("FAILED" if audit["wrong"] else "FAILED (known failure)",
             f"{' '.join(audit['argv'][0][3:-2])}: "
             f"{'; '.join(audit['reasons'])}")
            for audit in result["audits"] if audit["reasons"])
        for (label, failure), times in failures.items():
            print(f"  {label} {times}x {failure}")
    print("provenance: " + json.dumps(
        next(iter(results.values()))["provenance"], sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="re-take golden.json from the default seed")
    args = parser.parse_args()
    if not (ROOT / "src" / "binomsum" / "cli.py").is_file():
        print(f"run.py: no binomsum sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    if args.write_golden:
        write_golden()
        return 0

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
               for w in workloads}
    print_table(results)
    if args.workload == "all":
        metrics = {f"{w}.{name}": metric for w, r in results.items()
                   for name, metric in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
