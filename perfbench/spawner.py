#!/usr/bin/env python3
"""Start run.py's child processes from a process that stays small.

Linux reports a child's max RSS as at least the peak RSS of the process
that started it, and run.py's output checks grow it past the size of a
small serp process.  So run.py starts its children through this one.

Reads one JSON request per line on stdin,
    {"cmd": [...], "env": {...}, "stdout": path, "stderr": path, "timeout": seconds},
runs the command to completion with its output in the two files, and
answers with one JSON line: seconds (wall), exit, cpu_s (user + system)
and rss_mb (max RSS).  A command still running after `timeout` is killed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(req["cmd"], stdout=out, stderr=err, env=req["env"])
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({
            "seconds": seconds,
            "exit": proc.returncode,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
