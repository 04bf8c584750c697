"""Starts the benchmark's child processes from a small interpreter.

Usage: python spawner.py   (one JSON request per stdin line, one reply per stdout line)

On Linux a child's ``ru_maxrss`` starts from the resident size of the
process that spawned it, and keeps it across ``exec``. The benchmark's own
process has liftwing, numpy and scipy loaded, so a child it started would
never report less than that. This process imports only the standard
library, so the peak resident sizes it returns are the children's own.

Request: ``{"cmd": [...], "cwd": dir, "env": {...}, "timeout": s}``. The
child's stdout and stderr go to ``stdout.txt`` and ``stderr.txt`` in ``cwd``.
Reply: ``{"rc": exit code, "wall_s": s, "maxrss_kb": KiB}``.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    cwd = req["cwd"]
    with open(os.path.join(cwd, "stdout.txt"), "w") as out, \
            open(os.path.join(cwd, "stderr.txt"), "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["cmd"], cwd=cwd, env=req["env"], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            # wait4, unlike Popen.wait, returns the child's own resource usage
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
