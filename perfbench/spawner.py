"""Start audit processes from a small process, so their peak RSS is theirs.

On Linux a child's ``ru_maxrss`` includes the resident set of the process
that started it, as it was at ``exec`` time.  The benchmark's own
interpreter is as large as a small audit, so it hands each start to this
process, which runs with ``python3 -S`` and imports almost nothing.

Protocol: one JSON request per stdin line,
``{"argv": [...], "env": {...}, "stdout": PATH, "timeout": SECONDS}``;
one JSON reply per stdout line, ``[exit_code, maxrss_kb, wall_s]``.  The
child leads a new process group, which is killed as a whole (workers
included) after ``timeout`` seconds.  The spawner exits at end of input.
"""
import json
import os
import signal
import sys
from time import perf_counter


def main() -> None:
    child = [0]

    def kill_group(signum, frame):
        try:
            os.killpg(child[0], signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGALRM, kill_group)
    for line in sys.stdin:
        request = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, request["stdout"],
             os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
        ]
        start = perf_counter()
        child[0] = os.posix_spawn(request["argv"][0], request["argv"],
                                  request["env"], file_actions=actions,
                                  setsid=True)
        signal.alarm(max(1, int(request["timeout"])))
        _, status, usage = os.wait4(child[0], 0)
        signal.alarm(0)
        wall_s = perf_counter() - start
        print(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_maxrss,
                          wall_s]), flush=True)


if __name__ == "__main__":
    main()
