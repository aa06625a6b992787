"""The console entry point: exit paths, leftover processes, os._exit guard.

console_main ends the process by os._exit once main() has returned, so
nothing may be left that interpreter teardown would flush or join: each
exit code and stderr line below is the one an ending by sys.exit gives
with unbuffered stdout, and a forced pool leaves no process behind.  The
children run ``python -m binomsum.cli`` in an environment without PYTHON*
or BINOMSUM_* variables, with stdout buffered unless a test says not.
"""
import ast
import inspect
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import binomsum
import binomsum.cli as cli_module
from binomsum.cli import build_parser, main

SRC = Path(binomsum.__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"

BROKEN_PIPE = "binomsum: internal error: BrokenPipeError: [Errno 32] Broken pipe\n"
NO_STDOUT = ("binomsum: internal error: AttributeError: "
             "'NoneType' object has no attribute 'write'\n")
USAGE = "usage: binomsum [-h] {sumcheck,wzcheck,lemma,ratio,term} ...\n"

SMALL = ["sumcheck", "--sum", "sun_a", "--n-max", "3"]
LARGE = ["sumcheck", "--n-max", "400", "--format", "json"]

# Audits with their golden human reports: lemma 2.5, whose records are held
# until its summary is known, and the two whose rows stream from a stepper.
STREAMED = [
    (["lemma", "--id", "2.5", "--n-max", "40"], "lemma25_wide.txt"),
    (["lemma", "--id", "2.6", "--n-max", "40", "--m-max", "30"], "lemma26.txt"),
    (["lemma", "--id", "2.3", "--n-max", "20"], "lemma23.txt"),
]


def child_env(jobs: str, buffered: bool = True) -> dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("PYTHON", "BINOMSUM_"))}
    env.update(PYTHONPATH=str(SRC), BINOMSUM_JOBS=jobs, COLUMNS="80")
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def console(argv, jobs, *, buffered=True, **kwargs):
    """python -m binomsum.cli argv with --jobs at jobs (through
    BINOMSUM_JOBS, which also reaches argv without a subcommand)."""
    return subprocess.run([sys.executable, "-m", "binomsum.cli", *argv],
                          env=child_env(jobs, buffered), capture_output=True,
                          timeout=60, **kwargs)


JOBS = pytest.mark.parametrize("jobs", ["1", "2"])


@JOBS
@pytest.mark.parametrize("buffered", [True, False],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [SMALL, LARGE], ids=["small", "large"])
def test_a_pipe_without_reader_exits_three(argv, buffered, jobs):
    # A small buffered report reaches the pipe only when main flushes it;
    # a failure met at teardown instead would exit 120 with an "Exception
    # ignored" traceback.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "binomsum.cli", *argv],
            env=child_env(jobs, buffered), stdout=write_end,
            stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr.decode()) == (3, BROKEN_PIPE)


@JOBS
def test_a_closed_stdout_exits_three(jobs):
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh",
         sys.executable, "-m", "binomsum.cli", *SMALL],
        env=child_env(jobs), capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) \
        == (3, b"", NO_STDOUT)


@JOBS
def test_stdout_report_is_complete(jobs):
    for argv, name in STREAMED:
        proc = console(argv, jobs)
        assert (proc.returncode, proc.stderr) == (0, b""), argv
        assert proc.stdout == (GOLDEN / name).read_bytes(), argv


@JOBS
def test_output_file_is_complete(tmp_path, jobs):
    path = tmp_path / "console.json"
    proc = console(LARGE + ["--output", str(path)], jobs)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    reference = tmp_path / "main.json"
    assert main(LARGE + ["--output", str(reference)]) == 0
    assert path.read_bytes() == reference.read_bytes()
    assert len(reference.read_bytes()) > 3_000_000
    for argv, name in STREAMED:
        path = tmp_path / name
        proc = console(argv + ["--output", str(path)], jobs)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert path.read_bytes() == (GOLDEN / name).read_bytes(), argv


@JOBS
def test_no_subcommand_exits_two(jobs):
    proc = console([], jobs, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", USAGE + "binomsum: error: the following arguments are "
                       "required: command\n")


@JOBS
def test_a_configuration_error_exits_two(jobs):
    proc = console(["sumcheck", "--n-min", "1"], jobs, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "binomsum: error: sumcheck needs --n-min >= 2\n")


@JOBS
def test_help_exits_zero(monkeypatch, jobs):
    monkeypatch.setenv("COLUMNS", "80")
    proc = console(["--help"], jobs, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, build_parser().format_help(), "")


# ---------------------------------------------------------------------------
# A forced pool leaves nothing running
# ---------------------------------------------------------------------------

# Starts every pool: _pmap's rule holds from the second item on, and two
# CPUs are claimed.  Each pool announces itself on stderr.
FORCED_POOL = """
import concurrent.futures, os, sys
import binomsum.cli as cli
cli._POOL_COST_NS = 0
os.cpu_count = lambda: 2
start = concurrent.futures.ProcessPoolExecutor.__init__
def announced(self, *args, **kwargs):
    print("pool", file=sys.stderr)
    start(self, *args, **kwargs)
concurrent.futures.ProcessPoolExecutor.__init__ = announced
{plant}
sys.argv[1:] = {argv!r}
cli.console_main()
"""

# Makes the third sum of sumcheck raise, in whichever process runs it.
THIRD_SUM_RAISES = """
third = list(cli.SUM_SPECS)[2]
sums = cli.sums
def planted(spec, ns):
    if spec.name == third:
        raise ArithmeticError("planted in " + third)
    return sums(spec, ns)
cli.sums = planted
"""


def session_members(sid: int) -> list[str]:
    """The /proc/<pid>/stat lines of the processes in session sid."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:  # the process ended while we looked
            continue
        # The command name may hold spaces and parentheses; the fields
        # after its closing parenthesis are state, ppid, pgrp, session.
        if int(text.rpartition(")")[2].split()[3]) == sid:
            members.append(text)
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs /proc")
@pytest.mark.parametrize("name,argv", [
    ("sumcheck_all.json", ["sumcheck", "--n-max", "8", "--format", "json"]),
    ("lemma25_wide.txt", ["lemma", "--id", "2.5", "--n-max", "40"]),
    ("wz_grid.csv", ["wzcheck", "--pair", "builtin:guillera1", "--mode",
                     "grid", "--n-max", "8", "--format", "csv"]),
])
def test_forced_pool_leaves_no_process_in_its_session(tmp_path, name, argv):
    code, out, err, left = forced_pool(tmp_path, argv)
    assert (code, err) == (0, b"pool\n")
    assert out == (GOLDEN / name).read_bytes()
    assert left == []


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs /proc")
def test_a_worker_error_mid_stream_leaves_no_process_in_its_session(
        tmp_path):
    # The first sum runs here and is spilled; the pool then takes the rest
    # and the third sum raises in a worker.  Nothing is written, and the
    # pool is joined before the process ends.
    code, out, err, left = forced_pool(
        tmp_path, ["sumcheck", "--n-max", "30", "--format", "json"],
        THIRD_SUM_RAISES)
    assert (code, out) == (3, b"")
    assert err == (b"pool\nbinomsum: internal error: ArithmeticError: "
                   b"planted in sun_c\n")
    assert left == []


def forced_pool(tmp_path, argv, plant=""):
    """(exit code, stdout, stderr, processes left in its session) of argv
    at --jobs 2 under FORCED_POOL, after the lines of plant."""
    # Files, not pipes: a worker left running would hold a pipe open, and
    # reading it would wait for that worker.
    out, err = tmp_path / "out", tmp_path / "err"
    with out.open("wb") as stdout, err.open("wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-c",
             FORCED_POOL.format(argv=argv + ["--jobs", "2"], plant=plant)],
            env=child_env("1"), stdout=stdout, stderr=stderr,
            start_new_session=True)
    try:
        code = proc.wait(timeout=60)
        left = session_members(proc.pid)
    finally:
        try:  # the session's process group: only what this test started
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return code, out.read_bytes(), err.read_bytes(), left


def _pid(item):
    return item, os.getpid()


def test_pmap_joins_its_pool_before_it_returns(monkeypatch):
    monkeypatch.setattr(cli_module, "_POOL_COST_NS", 0)
    monkeypatch.setattr(cli_module.os, "cpu_count", lambda: 2)
    threads = set(threading.enumerate())
    results = list(cli_module._pmap(_pid, list(range(8)), 2))
    assert [item for item, _ in results] == list(range(8))
    assert any(pid != os.getpid() for _, pid in results)
    assert set(threading.enumerate()) == threads
    assert multiprocessing.active_children() == []


def test_session_scan_sees_a_running_member():
    proc = subprocess.Popen([sys.executable, "-c", "import sys; sys.stdin.read()"],
                            stdin=subprocess.PIPE, start_new_session=True)
    try:
        assert len(session_members(proc.pid)) == 1
    finally:
        proc.communicate(b"", timeout=60)
    assert session_members(proc.pid) == []


# ---------------------------------------------------------------------------
# Static guard: os._exit only where main() has returned
# ---------------------------------------------------------------------------

def _names_exit(node: ast.AST) -> bool:
    """node spells os._exit: an attribute, a bare name, an import of it, or
    the string getattr would take."""
    return (isinstance(node, ast.Attribute) and node.attr == "_exit"
            or isinstance(node, ast.Name) and node.id == "_exit"
            or isinstance(node, ast.alias) and node.name == "_exit"
            or isinstance(node, ast.Constant) and node.value == "_exit")


def process_exits(source: str) -> list[tuple[str, int]]:
    """(enclosing top-level function or "<module>", line) of every
    spelling of os._exit in source."""
    found = []
    for top in ast.parse(source).body:
        where = top.name if isinstance(top, ast.FunctionDef) else "<module>"
        found += [(where, getattr(node, "lineno", top.lineno))
                  for node in ast.walk(top) if _names_exit(node)]
    return found


def _calls_main(node: ast.AST) -> bool:
    return any(isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
               and sub.func.id == "main" for sub in ast.walk(node))


def test_only_console_main_ends_the_process():
    package = Path(binomsum.__file__).parent
    found = {str(path.relative_to(package)): process_exits(path.read_text())
             for path in sorted(package.rglob("*.py"))}
    assert len(found) >= 10
    used = {module: exits for module, exits in found.items() if exits}
    assert {module: [where for where, _ in exits]
            for module, exits in used.items()} == {"cli.py": ["console_main"]}
    # Every statement of console_main that names os._exit comes after the
    # first of its own statements (not a branch of one) that calls main().
    tree = ast.parse((package / "cli.py").read_text())
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "console_main").body
    first_main = next(i for i, stmt in enumerate(body) if _calls_main(stmt))
    exits = [i for i, stmt in enumerate(body)
             if any(_names_exit(node) for node in ast.walk(stmt))]
    assert exits and min(exits) > first_main

def test_exit_guard_flags_each_spelling():
    source = ("import os\nfrom os import _exit as bye\n"
              "def f():\n    os._exit(1)\n"
              "def g():\n    getattr(os, '_exit')(0)\n"
              "def h():\n    _exit(2)\n"
              "os.exit = 1\n")
    assert process_exits(source) == [
        ("<module>", 2), ("f", 4), ("g", 6), ("h", 8)]


# ---------------------------------------------------------------------------
# Static guard: the handlers and _pmap stream their records
# ---------------------------------------------------------------------------

def _yields(node: ast.AST) -> bool:
    """node yields in its own scope: nested functions, lambdas and classes
    are scopes of their own."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(child, (ast.Yield, ast.YieldFrom)) or _yields(child):
            return True
    return False


def generator_functions(source: str) -> dict[str, bool]:
    """{name: whether it is a generator function} for each top-level
    function of source."""
    return {top.name: _yields(top) for top in ast.parse(source).body
            if isinstance(top, ast.FunctionDef)}


def test_handlers_and_pmap_are_generator_functions():
    # A handler that returned a list would hold its whole report again;
    # _cmd_term returns one record or the serialized text.
    package = Path(binomsum.__file__).parent
    found = generator_functions((package / "cli.py").read_text())
    handlers = sorted(name for name in found if name.startswith("_cmd_"))
    assert handlers == ["_cmd_lemma", "_cmd_ratio", "_cmd_sumcheck",
                        "_cmd_term", "_cmd_wzcheck"]
    streaming = {name: found[name] for name in handlers + ["_pmap"]}
    assert streaming == {name: name != "_cmd_term" for name in streaming}
    assert streaming == {name: inspect.isgeneratorfunction(
        getattr(cli_module, name)) for name in streaming}


def test_generator_guard_sees_only_a_function_s_own_yields():
    source = ("def f():\n    yield 1\n"
              "def g():\n    return [x for x in range(3)]\n"
              "def h():\n    def inner():\n        yield 1\n"
              "    return inner()\n"
              "def i():\n    if True:\n        yield from g()\n")
    assert generator_functions(source) == {
        "f": True, "g": False, "h": False, "i": True}
