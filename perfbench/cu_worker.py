"""Solver process for the cu-exact workload.

    python3 perfbench/cu_worker.py SEED ROUNDS

Rebuilds the seeded instance pool, prints ``ready``, then answers each
stdin line ``INDEX TRACED`` with one JSON line: the CU layout
``assign_dus_to_cus`` returned for that instance, its wall and CPU time,
and its spans when TRACED is 1.  A line ``cal`` is answered with the wall
and CPU time of one host-speed calibration (``calib.py``).  The benchmark
kills and restarts this process when an instance overruns the wall limit.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import calib  # noqa: E402
import gen  # noqa: E402
from ranslicer import planner  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    pool = gen.make_cu_pool(int(sys.argv[1]), int(sys.argv[2]))
    config = planner.PlannerConfig()
    calibrator = calib.Calibrator()
    print("ready", flush=True)
    for line in sys.stdin:
        if line.strip() == "cal":
            print(json.dumps({"cal": calibrator()}), flush=True)
            continue
        index, traced = map(int, line.split())
        dus, area, cu_vnfd = pool[index]
        tracer = Tracer() if traced else None
        if tracer:
            tracer.op = index
            tracer.install()
        try:
            cpu0, wall0 = time.process_time(), time.perf_counter()
            skeletons = planner.assign_dus_to_cus(dus, area, cu_vnfd, config)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        finally:
            if tracer:
                tracer.uninstall()
        layout = [[s.cu_host_pop, [du.du_id for du in s.dus]] for s in skeletons]
        reply = {"layout": layout, "wall": wall, "cpu": cpu, "trace": tracer.export() if tracer else None}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
