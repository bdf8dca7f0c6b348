"""Start the benchmark's commands from a process that stays small.

At exec, Linux carries the parent's peak RSS into the child's ru_maxrss,
so a child started by the driver, whose memory grows while it checks
multi-megabyte outputs, would report the driver's peak instead of its own.
This helper holds no data.  Run it with the working directory and the
environment the commands need; it reads one JSON argument list per line
on stdin, runs it with stdout and stderr sent to the files `stdout` and
`stderr`, and answers with one JSON line {"code", "seconds", "rss_kb"}
holding the exit code, the wall time and the peak RSS from wait4.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        argv = json.loads(line)
        with open("stdout", "wb") as out, open("stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": proc.returncode, "seconds": seconds, "rss_kb": usage.ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
