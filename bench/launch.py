#!/usr/bin/env python3
"""Run one command and write its wall time and resource usage as JSON.

    python3 bench/launch.py RESULT_JSON TIMEOUT_S CMD [ARG...]

run.py starts every measured child through this small interpreter, which
imports nothing heavy. On exec, Linux carries the resident-set high-water
mark of the process that execs into the new program's ``ru_maxrss``; run.py
holds the workload's arrays, so a child it started directly would report
run.py's peak instead of its own whenever that is the larger. Started from
here, the command inherits this process's few MB instead.

The command's stdout and stderr are this process's. It is killed after
TIMEOUT_S seconds, or when this process gets SIGTERM, and always waited
for; the result then has a non-zero ``returncode``.
"""
import json
import os
import signal
import subprocess
import sys
import threading
import time


def main() -> int:
    result_path, timeout, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    signal.signal(signal.SIGTERM, lambda signum, frame: proc.kill())
    try:
        # reaped with wait4, not Popen.wait, to get the command's own usage
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    finally:
        timer.cancel()
    with open(result_path, "w") as fh:
        json.dump(
            {
                "returncode": os.waitstatus_to_exitcode(status),
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                # ru_maxrss is in KiB on Linux
                "rss_kib": usage.ru_maxrss,
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
