"""One pass over a workload's job list, in a fresh interpreter.

Usage: passrun.py SRC WORKLOAD SEED MODE FIELD...

MODE is ``setup`` (set up and stop), ``plain`` or ``traced``.  Set-up is
``import grasscodes`` (which loads numpy) and the CLI module, plus one
``GF`` per field the workload uses; a CLI user pays it on every call.
The pass then runs every job back to back, one at a time, timing only
the call itself, and checks every output afterwards.  A host-speed probe
runs right after set-up and every 0.2 s during the jobs (``hostspeed``);
``setup_scale`` and ``scale`` turn the measured seconds into nominal
ones.  The last line of stdout is a JSON object with the raw timings, the
scales, the job records and, when traced, the tracer's report.
"""

import sys
import time


def main(argv: list[str]) -> None:
    src, workload, seed, mode, *field_names = argv
    import grasscodes
    import grasscodes.cli
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(grasscodes)
    fields = {f: grasscodes.GF.from_string(f) for f in field_names}
    ready = time.monotonic()

    import json
    import os
    import resource

    import numpy

    import jobs as joblist
    from checks import Checker
    from hostspeed import NOMINAL_PROBE_S, Sampler, setup_probe

    expected = os.path.join(os.path.abspath(src), "grasscodes")
    if os.path.dirname(os.path.abspath(grasscodes.__file__)) != expected:
        raise SystemExit(f"grasscodes imported from {grasscodes.__file__}")
    result = {"ready": ready, "numpy": numpy.__version__,
              "setup_scale": NOMINAL_PROBE_S / setup_probe()}
    if mode == "setup":
        print(json.dumps(result))
        return

    job_list = joblist.build(workload, int(seed))
    outputs: list = []
    records: list[dict] = []
    cpu0 = time.process_time()
    with Sampler(tracer.exclude if tracer else None) as sampler:
        for job in job_list:
            if tracer:
                tracer.job = job["id"]
            probed = sampler.probe_s
            record, output = _run_job(grasscodes, job, outputs, fields, tracer)
            # the probes that interrupted the job are not the job's time
            record["s"] -= sampler.probe_s - probed
            records.append(record)
            outputs.append(output)
            release_memory()
    result["probe_s"] = sampler.mean()
    result["scale"] = NOMINAL_PROBE_S / result["probe_s"]
    result["probes"] = len(sampler.samples)
    result["cpu_s"] = time.process_time() - cpu0
    result["peak_rss_kib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()
        result["trace"] = tracer.report()

    checker = Checker(grasscodes, fields)
    for job, record, output in zip(job_list, records, outputs):
        if record["error"] is None:
            try:
                failures = checker.check(job, output)
            except Exception as exc:
                failures = [f"check raised {type(exc).__name__}: {exc}"]
            if failures:
                record["error"] = "; ".join(failures)
    result["wall_s"] = sum(r["s"] for r in records)
    result["jobs"] = records
    print(json.dumps(result))


def _run_job(grasscodes, job: dict, outputs: list, fields: dict, tracer):
    """Run one job, timing only the call; returns (record, output)."""
    import contextlib
    import io
    record = {"id": job["id"], "name": job["name"], "s": 0.0,
              "error": None, "refused": False, "output_bytes": 0}
    root = tracer.span("bench.job") if tracer else contextlib.nullcontext()
    try:
        if job["kind"] == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err), root:
                t0 = time.perf_counter()
                rc = grasscodes.cli.main(job["argv"])
                record["s"] = time.perf_counter() - t0
            record["output_bytes"] = len(out.getvalue().encode())
            record["refused"] = rc == 2
            if rc:
                record["error"] = f"exit {rc}: {err.getvalue().strip()}"
            return record, (rc, out.getvalue())
        call = _library_call(grasscodes, job, outputs, fields)
        with root:
            t0 = time.perf_counter()
            value = call()
            record["s"] = time.perf_counter() - t0
        return record, value
    except Exception as exc:  # a failed job is counted, not fatal
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record, None


def release_memory() -> None:
    """Hand the previous job's garbage back to the OS between jobs.

    A CLI user runs each job in its own process; without this the peak
    memory of a pass would depend on which job ran before the largest one.
    """
    import ctypes
    import gc
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):  # not glibc
        pass


def _library_call(grasscodes, job: dict, outputs: list, fields: dict):
    """The public library call a job makes, with its input prepared.

    Inputs are parsed here, outside the timed call; calls go through the
    module attributes so that a traced pass sees them.
    """
    import json
    code = job["code"]
    if job["kind"] == "macwilliams":
        rc, text = outputs[job["input"]]
        dist = json.loads(text)
        counts = {int(w): int(c) for w, c in dist["counts"].items()}
        n, k = int(dist["spec"]["n"]), int(dist["spec"]["k"])
        q = fields[code["field"]].q
        return lambda: grasscodes.macwilliams.check_macwilliams(
            counts, n, q, k)
    if job["kind"] == "generator":
        return lambda: grasscodes.codes.build_generator(grasscodes.CodeSpec(
            fields[code["field"]], code["ell"], code["m"], code["alpha"]))
    if job["kind"] == "full_rank":
        gen = outputs[job["input"]]
        return gen.full_rank
    raise ValueError(f"unknown job kind {job['kind']!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
