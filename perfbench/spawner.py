"""Spawn and time the benchmark's op processes, one at a time.

    python -I -S perfbench/spawner.py

Reads one request per stdin line, a JSON list ``[argv, stdout_path,
stderr_path, timeout_s]``; runs ``argv`` with this process's environment and
those redirects, kills it if it outlives ``timeout_s``, and answers with a
JSON line ``[exit code, wall s, max RSS KiB]``.  An argument ``{spawned}`` is
replaced by the monotonic time just before the spawn.

Ops are spawned here, not by run.py, because Linux counts the
spawning process's resident memory in a child's max RSS.  This process
imports only a few standard modules and runs without ``site``, so it stays
smaller than any op and the reported max RSS is the op's own.
"""

import json
import os
import select
import signal
import sys
import time


def run(argv, stdout, stderr, timeout):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644),
    ]
    start = time.monotonic()
    argv = [repr(start) if arg == "{spawned}" else arg for arg in argv]
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    try:
        handle = os.pidfd_open(pid)
        try:
            exited = select.select([handle], [], [], max(timeout, 0.0))[0]
        finally:
            os.close(handle)
        if not exited:
            os.kill(pid, signal.SIGKILL)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status, usage = os.wait4(pid, 0)
    return [os.waitstatus_to_exitcode(status), time.monotonic() - start, usage.ru_maxrss]


def main():
    # SIGTERM from run.py kills and reaps the running op before exiting.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(*json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
