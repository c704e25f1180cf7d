"""Starts the benchmark's child processes from a small process of its own.

Linux carries the spawning process's resident size into a child's
``ru_maxrss`` (the old address space's peak is recorded when the child
execs). Children started straight from ``run.py``, which holds parsed
outputs and oracle arrays, would report that memory as their own peak. This
helper imports nothing heavy and stays small. ``run.py`` writes one JSON
request per line to its stdin and reads one JSON reply per line from its
stdout; it exits when stdin closes.

Request: {"argv": [...], "env": {...}, "stderr": path, "timeout": seconds}
Reply:   {"start": t, "end": t, "exit": code, "utime": s, "stime": s, "maxrss_kib": n}
with times from the monotonic clock, which child processes share.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    running = {}

    def on_alarm(signum, frame):
        if "pid" in running:
            os.kill(running["pid"], signal.SIGKILL)

    signal.signal(signal.SIGALRM, on_alarm)
    for line in sys.stdin:
        req = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        start = time.monotonic()
        pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=actions)
        running["pid"] = pid
        signal.alarm(int(req["timeout"]))
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            signal.alarm(0)
            running.clear()
        end = time.monotonic()
        reply = {
            "start": start,
            "end": end,
            "exit": os.waitstatus_to_exitcode(status),
            "utime": usage.ru_utime,
            "stime": usage.ru_stime,
            "maxrss_kib": usage.ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
