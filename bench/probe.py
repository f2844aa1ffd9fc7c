"""Set-up probe: do what a benchmark process does before its first timed job
(imports, job list, warm-up job), then print the monotonic clock.

    python3 bench/probe.py <workload> <seed>

run.py starts this in a fresh process and subtracts its own monotonic clock
at launch, so the difference is the set-up time including interpreter start.
"""

import sys
import time

sys.dont_write_bytecode = True  # leave no bytecode in the checkout

import jobs  # noqa: E402

if __name__ == "__main__":
    jobs.prepare(sys.argv[1], int(sys.argv[2]))
    print(time.monotonic())
