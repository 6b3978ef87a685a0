"""Lean launcher that runs benchmark requests as child processes.

Run as ``python3 -S bench/spawn.py STDOUT_FILE STDERR_FILE`` with the
working directory and environment the children should get.  Each line on
standard input is one command, its arguments separated by NUL characters.
For each, the launcher starts the command with stdin from /dev/null and
stdout/stderr truncated into the two files, waits for it, and writes one
line back: exit code, wall seconds, user+sys seconds and peak RSS in KiB.

A separate process is needed because Linux reports, as a spawned child's
peak RSS, at least the peak RSS of the process that spawned it.  This
launcher imports nothing beyond ``os``, ``sys`` and ``time``, so its own
peak stays below any Python child's and the figure is the child's own.

Children are pinned to the allowed CPUs in turn.  Left to the scheduler,
every child ran on the same CPU, so a whole run saw the contention of
that one CPU's host core; taking turns exposes every run to all of them
alike.
"""

import os
import sys
import time


def main() -> None:
    stdout_path, stderr_path = sys.argv[1], sys.argv[2]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    cpus = sorted(os.sched_getaffinity(0))
    for turn, line in enumerate(sys.stdin):
        argv = line.rstrip("\n").split("\0")
        # The child inherits this process's CPU set.
        os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
        out = os.open(stdout_path, flags, 0o644)
        err = os.open(stderr_path, flags, 0o644)
        try:
            actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                       (os.POSIX_SPAWN_DUP2, out, 1),
                       (os.POSIX_SPAWN_DUP2, err, 2)]
            start = time.perf_counter()
            pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
            _, status, usage = os.wait4(pid, 0)
            elapsed = time.perf_counter() - start
        finally:
            os.close(out)
            os.close(err)
        cpu = usage.ru_utime + usage.ru_stime
        sys.stdout.write(f"{os.waitstatus_to_exitcode(status)} {elapsed!r} {cpu!r} "
                         f"{usage.ru_maxrss}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
