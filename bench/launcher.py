"""Run the benchmark's commands from a small process.

On Linux a child's max RSS counts the RSS of the process it was forked from,
so commands forked straight from the benchmark process, which holds inputs
and expected tables, would report that process's size.  run.py starts this
script once per run and sends it one request per line on stdin:

    [argv, stdout path, stderr path, timeout seconds]

It runs each command to completion (killing it at the timeout) and answers
with one line:

    [exit code, wall seconds, max RSS in MB]

It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def main() -> None:
    for line in sys.stdin:
        argv, out_path, err_path, timeout = json.loads(line)
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            elapsed = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([proc.returncode, elapsed, usage.ru_maxrss / 1024.0]), flush=True)


if __name__ == "__main__":
    main()
