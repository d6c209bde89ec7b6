"""Set-up probe: start as a workload's process starts, then report readiness.

Run as ``python3 perfbench/probe.py <workload> <src>``. For ``cli`` the
probe only imports ``modal_ent.cli``, which is what every CLI call pays
before it can work. For the in-process workloads it imports the workload
module and runs the workload's warm-up on a small input. It prints one line,
``ready <seconds>``, where the number is the time it spent generating that
input, which the caller subtracts: input generation is not set-up.
"""

import os
import sys
import time

if __name__ == "__main__":
    workload, src = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    if workload == "cli":
        import modal_ent.cli  # noqa: F401

        generation_s = 0.0
    else:
        import workloads

        start = time.perf_counter()
        runner = workloads.make(workload, 0, os.getcwd(), src)
        generation_s = time.perf_counter() - start
        runner.warm_up()
    print(f"ready {generation_s!r}", flush=True)
