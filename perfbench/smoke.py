"""Self-test of the benchmark: every job of every workload, once.

    python3 perfbench/smoke.py

Runs one plain and one traced pass of each workload (seed 0) and exits
non-zero unless every job's output passes its checks and the traced
layer self times account for the traced pass time.  Takes about 90 s.
"""

import sys
import time

import jobs
from run import LAYERS, Runner, layer_metrics


def main() -> int:
    bad = 0
    for workload in jobs.WORKLOADS:
        runner = Runner(workload, 0, time.monotonic() + 170)
        for mode in ("plain", "traced"):
            res = runner.spawn(mode)
            if "error" in res:
                print(f"FAIL {workload} {mode}: {res['error']}")
                bad += 1
                continue
            for job in res["jobs"]:
                status = "ok  " if job["error"] is None else "FAIL"
                bad += job["error"] is not None
                print(f"{status} {workload:<9} {mode:<6} {job['s']:7.3f} s  "
                      f"{job['name']}" + (f"  ({job['error']})"
                                          if job["error"] else ""))
            if mode == "traced":
                m = layer_metrics(res["trace"], res)
                share = m["trace.accounted_frac"]
                parts = ", ".join(f"{p} {m[p + '.self_s']:.2f}"
                                  for p in LAYERS)
                print(f"     {workload} layer self times / traced wall_s = "
                      f"{share:.4f} ({parts})")
                if not 0.95 <= share <= 1.01:
                    print(f"FAIL {workload}: layer self times do not "
                          f"account for the traced pass")
                    bad += 1
    print("smoke: " + ("all jobs pass" if not bad else f"{bad} failures"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
