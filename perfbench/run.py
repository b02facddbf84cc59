"""The grasscodes benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it benchmarks ``src/`` there
and changes nothing under it.  The load is a closed loop with a single
client: each pass is a fresh interpreter (``perfbench/passrun.py``) that
runs the workload's jobs one after another, and the next pass starts
when the previous one has ended.  Passes repeat until ``--seconds`` have
passed.  No worker pool (``-j 1``), one thread per BLAS/OpenMP library.

``--trace 0`` reports the end-to-end metrics: medians over the passes of
the pass time (``wall_s``) and peak memory, and the median set-up time
over the passes and extra set-up-only interpreters.  ``--trace 1``
alternates plain and traced passes and reports the per-layer metrics of
the traced ones (see ``tracer.py``); their overhead is the ratio of the
two medians.

Times are reported in nominal seconds: each measured time is scaled by
the speed of the host at that moment, gauged by a fixed probe
(``hostspeed.py``), because shared hosts drift by 20-40 % over minutes.
The measured times are printed next to them and kept in the record.

Every line printed before the last is for people; the last line is one
JSON object with the keys correct, attempted, failed and metrics.  The
full record (host, every pass, every job, the spans) goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import jobs  # noqa: E402  (stdlib only; the program is never imported here)

SETUP_PROBES = 9      # set-up-only interpreters per run, besides the passes
RUN_LIMIT_S = 170     # a run must end within 180 s
LAYERS = ("gf", "qcombin", "grassmann", "exterior", "linalg", "codes",
          "macwilliams", "cli")
VERIFY_SUITES = {"nogin": "verify_nogin", "second": "verify_second_weight",
                 "attained": "verify_attained_family",
                 "strings": "verify_string_section",
                 "zanella": "verify_zanella_incidence",
                 "l2": "verify_l2_dichotomy"}


def hermetic_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "PLUCKER_"))}
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               NUMEXPR_NUM_THREADS="1", LC_ALL="C",
               # glibc's initial mmap threshold, fixed: left dynamic, it
               # grows after the first large free, and peak memory then
               # depends on which job ran before the largest one
               MALLOC_MMAP_THRESHOLD_="131072")
    return env


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def host_info() -> dict:
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for i in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{i}/"
        level, kind = _read(base + "level"), _read(base + "type")
        if level in ("2", "3") and kind != "Instruction":
            caches[f"L{level}"] = _read(base + "size")
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, **caches,
            "python": platform.python_version(),
            "platform": platform.platform()}


class Runner:
    """Starts one interpreter at a time and waits for it to end."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.env = hermetic_env()
        self.fields = jobs.fields(workload)

    def spawn(self, mode: str) -> dict:
        """Run passrun.py; returns its JSON, or {"error": ...}."""
        cmd = [sys.executable, "-s", os.path.join(HERE, "passrun.py"), SRC,
               self.workload, str(self.seed), mode, *self.fields]
        t0 = time.monotonic()
        timeout = max(1.0, self.deadline - t0)
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, text=True,
                                  capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"{mode} pass killed after {timeout:.0f} s"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-3:]
            return {"error": f"{mode} pass exit {proc.returncode}: "
                             + " | ".join(tail)}
        out = json.loads(lines[-1])
        out["setup_raw_s"] = out.pop("ready") - t0
        out["setup_s"] = out["setup_raw_s"] * out["setup_scale"]
        out["mode"] = mode
        return out


def median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(trace: dict, record: dict) -> dict:
    """Per-layer metrics of one traced pass, from the tracer's report.

    Times are in nominal seconds, like the end-to-end ones.
    """
    agg, counts, scale = trace["agg"], trace["counts"], record["scale"]

    def calls(name):
        return agg.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return agg.get(name, [0, 0.0, 0.0])[1] * scale

    def self_s(*names):
        return scale * sum(agg.get(n, [0, 0.0, 0.0])[2] for n in names)

    def layer(prefix):
        return self_s(*[n for n in agg if n.split(".")[0] == prefix])

    def ratio(a, b):
        return a / b if b else 0.0

    jobs_ = record["jobs"]
    wall = record["wall_s"] * scale
    m = {
        "gf.build_s": self_s("gf.__init__"),
        "gf.fields": calls("gf.__init__"),
        "grassmann.points": counts.get("grassmann.enumerate_cell.yields", 0),
        "grassmann.enumerate_self_s": self_s(
            "grassmann.enumerate_cell", "grassmann.enumerate_grassmannian",
            "grassmann.enumerate_schubert_variety", "grassmann.string_fiber"),
        "grassmann.plucker_calls": calls("grassmann.plucker"),
        "grassmann.plucker_self_s": self_s("grassmann.plucker"),
        "grassmann.minors": calls("grassmann.determinant"),
        "grassmann.determinant_self_s": self_s("grassmann.determinant"),
        "codes.point_table_calls": calls("codes.point_table"),
        "codes.point_table_self_s": self_s("codes.point_table"),
        "codes.point_table_builds_per_spec": ratio(
            calls("codes.point_table"), trace["distinct_specs"]),
        "codes.sweep_self_s": self_s("codes.weight_distribution"),
        "codes.sweep_ns_per_codeword": ratio(
            1e9 * self_s("codes.weight_distribution"),
            counts.get("sweep.codewords", 0)),
        "codes.class_weights_self_s": self_s("codes.class_weights"),
        "codes.class_weights_yields": counts.get("codes.class_weights.yields",
                                                 0),
        "codes.codeword_weight_calls": calls("codes.codeword_weight"),
        "codes.codeword_weight_self_s": self_s("codes.codeword_weight"),
        **{f"codes.verify_{s}_s": total(f"codes.{fn}")
           for s, fn in VERIFY_SUITES.items()},
        "codes.budget_refusals": sum(j["refused"] for j in jobs_),
        "exterior.check_functional_calls": calls("exterior.check_functional"),
        "exterior.check_functional_self_s": self_s(
            "exterior.check_functional"),
        "exterior.decomposable_ratio": ratio(
            counts.get("check_functional.decomposable", 0),
            calls("exterior.check_functional")),
        "exterior.evaluate_calls": calls("exterior.evaluate"),
        "exterior.evaluate_self_s": self_s("exterior.evaluate"),
        "linalg.rank_calls": calls("linalg.rank"),
        "linalg.rank_self_s": self_s("linalg.rank"),
        "qcombin.check_index_tuple_calls": calls("qcombin.check_index_tuple"),
        "macwilliams.checks": calls("macwilliams.check_macwilliams"),
        "macwilliams.check_self_s": self_s("macwilliams.check_macwilliams"),
        "cli.main_self_s": self_s("cli.main"),
        "cli.output_bytes": sum(j["output_bytes"] for j in jobs_),
        "proc.cpu_s": record["cpu_s"] * scale,
        "host.probe_ms": record["probe_s"] * 1e3,
        "trace.spans": len(trace["spans"]),
        "trace.wall_s": wall,
    }
    for prefix in LAYERS:
        m[f"{prefix}.self_s"] = layer(prefix)
    m["bench.self_s"] = self_s("bench.job")
    m["trace.accounted_frac"] = ratio(
        sum(m[f"{p}.self_s"] for p in LAYERS), wall)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "grasscodes", "__init__.py")):
        print(f"error: no grasscodes package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    start = time.monotonic()
    runner = Runner(args.workload, args.seed, start + RUN_LIMIT_S)

    # untimed: compiles the bytecode caches a returning user would have
    warm = runner.spawn("setup")
    if "error" in warm:
        print(f"error: {warm['error']}", file=sys.stderr)
        return 2
    setups = [runner.spawn("setup") for _ in range(SETUP_PROBES)]
    setups = [p for p in setups if "error" not in p]

    passes = []
    modes = ["plain", "traced"] if args.trace else ["plain"]
    measure_start = time.monotonic()
    while True:
        t0 = time.monotonic()
        for mode in modes:
            passes.append(runner.spawn(mode))
        # start another round only if it would end near --seconds: the run
        # overshoots by at most half a round
        now = time.monotonic()
        if now + 0.5 * (now - t0) - measure_start >= args.seconds \
                or now + (now - t0) >= runner.deadline:
            break

    n_jobs = len(jobs.build(args.workload, args.seed))
    attempted = failed = 0
    errors = []
    for p in passes:
        attempted += n_jobs
        if "error" in p:
            failed += n_jobs
            errors.append(p["error"])
            continue
        bad = [j for j in p["jobs"] if j["error"]]
        failed += len(bad)
        errors += [f"{j['name']}: {j['error']}" for j in bad]

    ok = [p for p in passes if "error" not in p]
    plain = [p for p in ok if p["mode"] == "plain"]
    traced = [p for p in ok if p["mode"] == "traced"]
    setups += plain
    e2e = {
        "setup_s": median([p["setup_s"] for p in setups]),
        "wall_s": median([p["wall_s"] * p["scale"] for p in plain]),
        "peak_rss_mib": median([p["peak_rss_kib"] / 1024 for p in plain]),
    }
    raw = {
        "setup_raw_s": median([p["setup_raw_s"] for p in setups]),
        "wall_raw_s": median([p["wall_s"] for p in plain]),
        "probe_ms": median([p["probe_s"] * 1e3 for p in plain]),
        "fail_frac": failed / attempted if attempted else 1.0,
    }
    if args.trace:
        per_pass = [layer_metrics(p["trace"], p) for p in traced]
        values = {k: median([m[k] for m in per_pass])
                  for k in (per_pass[0] if per_pass else {})}
        if values:
            values["trace.overhead_frac"] = \
                values["trace.wall_s"] / e2e["wall_s"] - 1
        wanted = spec["per_layer"]
    else:
        values = e2e
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}

    host = host_info()
    host["numpy"] = warm.get("numpy")
    print(f"grasscodes benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(plain)} plain + {len(traced)} "
          f"traced, set-up samples={len(setups)}")
    print(f"host: {host['nproc']} cpus, {host['cpu_model']}, "
          f"L2 {host.get('L2')}, L3 {host.get('L3')}, "
          f"python {host['python']}, numpy {host['numpy']}")
    units = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB",
             "setup_raw_s": "s (measured)", "wall_raw_s": "s (measured)",
             "probe_ms": "ms (host-speed probe)", "fail_frac": "ratio"}
    for name, v in {**e2e, **raw}.items():
        print(f"  {name:<36} {v:>14.6g} {units[name]}")
    if args.trace:
        for m in wanted:
            print(f"  {m['name']:<36} {metrics[m['name']]['value']:>14.6g} "
                  f"{m['unit']}")
    for err in errors[:10]:
        print(f"  FAILED {err}")

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    record_path = os.path.join(
        HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as fh:
        json.dump({"args": vars(args), "host": host, "env": {
            k: v for k, v in runner.env.items()
            if k.startswith(("PYTHON", "OMP", "OPENBLAS", "MKL", "NUMEXPR",
                             "MALLOC"))},
            "end_to_end": e2e, "measured": raw, "metrics": metrics,
            "setups": setups, "passes": passes}, fh)
    print(f"record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({"correct": failed == 0 and bool(plain),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
