"""Run audits as child processes, parse their reports and judge outcomes.

Children run one at a time in a scrubbed environment: ``PYTHONPATH`` points
at the checkout's ``src`` and every other ``PYTHON*`` or ``BINOMSUM_*``
variable is dropped, so neither ``BINOMSUM_JOBS`` nor
``PYTHONINTMAXSTRDIGITS`` can change what the program does.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from workloads import Audit

# What the ``binomsum`` console script runs.
CONSOLE = "from binomsum.cli import console_main; console_main()"
TRACER = Path(__file__).resolve().with_name("tracer.py")
SPAWNER = TRACER.with_name("spawner.py")

COUNT_KEYS = ("checked", "points", "k_checked")


def scrubbed_env(root: Path) -> dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("PYTHON", "BINOMSUM_"))}
    env["PYTHONPATH"] = str(root / "src")
    return env


@dataclass(frozen=True)
class ProcessRun:
    """One finished child: argv, exit code, wall time, peak RSS, report.

    ``maxrss_kb`` comes from ``wait4`` in the spawner and so covers the
    child's worker processes too.  Of the report only the digest, the size
    and the parsed records are kept.
    """

    argv: tuple[str, ...]
    exit_code: int
    wall_s: float
    maxrss_kb: int
    sha256: str
    report_bytes: int
    records: list[tuple[str, int | None]] | None  # None: unreadable
    error: str = ""


def cli_argv(args: tuple[str, ...], jobs: int | None) -> list[str]:
    """The argv of the ``binomsum`` console script."""
    tail = [] if jobs is None else ["--jobs", str(jobs)]
    return [sys.executable, "-c", CONSOLE, *args, *tail]


def traced_argv(args: tuple[str, ...], jobs: int,
                trace_path: Path) -> list[str]:
    return [sys.executable, str(TRACER), str(trace_path), "--", *args,
            "--jobs", str(jobs)]


class Runner:
    """Runs children one at a time through ``spawner.py``.

    Use as a context manager: leaving it ends the spawner and waits for it.
    """

    def __init__(self, root: Path, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline  # perf_counter() value; children are killed
        self.env = scrubbed_env(root)
        self.spawner = subprocess.Popen(
            [sys.executable, "-S", str(SPAWNER)], cwd=root, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()

    def run(self, argv: list[str], fmt: str = "human") -> ProcessRun:
        """Run one child to its end; parse its stdout as a `fmt` report."""
        out_path = self.workdir / "stdout.bin"
        request = {"argv": argv, "env": self.env, "stdout": str(out_path),
                   "timeout": self.deadline - perf_counter()}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("spawner ended unexpectedly")
        exit_code, maxrss_kb, wall_s = json.loads(reply)
        stdout = out_path.read_bytes()
        records, error = None, ""
        try:
            records = report_records(stdout.decode("utf-8"), fmt)
        except (ValueError, KeyError, IndexError) as exc:
            error = f"{type(exc).__name__}: {exc}"
        return ProcessRun(tuple(argv), exit_code, wall_s, maxrss_kb,
                          hashlib.sha256(stdout).hexdigest(), len(stdout),
                          records, error)


def report_records(text: str, fmt: str) -> list[tuple[str, int | None]]:
    """(status, stated point count or None) for each record of a report."""
    if fmt == "json":
        rows = [json.loads(line) for line in text.splitlines()]
        return [(row["status"], _count(row["witness"])) for row in rows]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))[1:]
        return [(row[2], _count(json.loads(row[3]))) for row in rows]
    # human: "STATUS  CHECK  PARAMS  | key=value key=value"
    records = []
    for line in text.splitlines():
        _, _, witness = line.partition("  | ")
        pairs = dict(token.split("=", 1) for token in witness.split()
                     if "=" in token)
        records.append((line.split(None, 1)[0].lower(), _count(pairs)))
    return records


def _count(witness: dict) -> int | None:
    for key in COUNT_KEYS:
        if key in witness:
            return int(witness[key])
    return None


def report_points(records: list[tuple[str, int | None]]) -> int:
    """Stated counts, or one per record that states none."""
    return sum(1 if count is None else count for _, count in records)


@dataclass
class Outcome:
    """One audit's runs (--jobs 1 first, then --jobs 2), judged together."""

    audit: Audit
    runs: tuple[ProcessRun, ...]
    reasons: list[str] = field(default_factory=list)
    points: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.reasons)

    @property
    def wrong(self) -> bool:
        """A failure other than the audit's known crash.

        The known crash is tolerated only as a crash: a known-failure audit
        that prints any report and still fails is wrong like any other.
        """
        known_crash = bool(self.audit.known_failure) and not any(
            run.report_bytes for run in self.runs)
        return self.failed and not known_crash


def judge(audit: Audit, runs: tuple[ProcessRun, ...], reference: str,
          golden: str | None) -> Outcome:
    """Check exit codes, statuses, byte equality and the golden digest.

    ``runs[0]`` is the --jobs 1 run whose points count; every run's report
    must equal ``reference``, the first --jobs 1 digest of this audit, and
    ``golden`` when one is given.
    """
    outcome = Outcome(audit, runs)
    for run in runs:
        jobs = run.argv[-1]
        if run.exit_code != audit.expected_exit:
            outcome.reasons.append(f"--jobs {jobs}: exit {run.exit_code}, "
                                   f"expected {audit.expected_exit}")
        if run.records is None:
            outcome.reasons.append(f"--jobs {jobs}: unreadable report: "
                                   f"{run.error}")
            continue
        unexpected = {status for status, _ in run.records} \
            - audit.expected_statuses
        if unexpected:
            outcome.reasons.append(
                f"--jobs {jobs}: unexpected status {sorted(unexpected)}")
    digest = runs[0].sha256
    if any(run.sha256 != digest for run in runs[1:]):
        outcome.reasons.append("reports differ between its runs")
    if digest != reference:
        outcome.reasons.append("report differs from this run's first report")
    if golden is not None and digest != golden:
        outcome.reasons.append("report digest differs from the golden digest")
    if not outcome.reasons:
        outcome.points = report_points(runs[0].records)
    return outcome
