"""Child-process launcher for the detect benchmark.

Reads one JSON request per line on stdin ({"argv", "env", "stdout",
"stderr"}), runs the command to completion and answers with one JSON line:
its wall time from start to exit, its exit code, and its peak RSS from
``os.wait4``.

It runs as a process of its own, started while the benchmark is still small,
because Linux folds the RSS a process had when it forked into the child's
``ru_maxrss``; children forked from this small launcher report their own
peak, not the benchmark's.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], env=request["env"],
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall, "exit": proc.returncode,
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
