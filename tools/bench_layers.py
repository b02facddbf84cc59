"""Per-layer timings of a full sweep on a fixed parameter matrix, as JSON.

    PYTHONPATH=src python tools/bench_layers.py --label after --out BENCH.json

For every code of the matrix it times the public layers of a sweep, as
the median of 7 calls in one process (a best of 3 could not resolve a
change to a ~10 ms layer on a shared host): the raw minors
(``codes.minors_table``), the point table (``codes.point_table``, the
minors normalized), the attained-family suite on that table
(``codes.verify_attained_family``, for 2 <= ell <= m-2), the Zanella
suite on the fixed functional X_first + X_last of the first and last
index tuples (``codes.verify_zanella_incidence``, with the echelon
matrices built untimed, on codes of at most ``ZANELLA_POINTS`` points),
the weight
distribution as ``wdist`` computes it on a new ``Code``
(``codes.weight_distribution``, which takes the split on these codes
and prices it as a split),
the codeword-weight transform (``codes.weight_array``), the histogram of
its array (``codes.weight_distribution`` on a ``Code`` whose weights are
already built, the branch ``verify --suite all`` takes: the histogram
and its invariant checks), the dual distribution
(``macwilliams.dual_distribution``), the MacWilliams check
(``macwilliams.check_macwilliams``) on the distribution at lengths up to
``MACWILLIAMS_LENGTH``, and the Nogin suite where the matrix asks for it.
It also records the tracemalloc peaks of one untimed ``weight_array``
call and of one untimed histogram, and whether the default operation
budget refuses a sweep of the code (``codes.check_work`` on the sweep,
as the suites that read every codeword's weight call it), with the
``BudgetExceeded`` text.  A layer that refuses its own work is recorded
as ``refused: <text>``, and the layers that need its result are skipped.
Host speed drifts between runs, so record the parent and the change in
alternating runs (before, after, after, before).

The ``cli`` entry times two calls of ``cli.main`` with stdout captured:
``params`` with the caches of the argument parser and of the field
spelling cleared before each call, as in a new process, and the
all-class Zanella report on C(2,4) over F_3 written with ``-o``, with
its tracemalloc peak.

The run is stored under ``runs[label]`` of the output file, beside the
runs already there, so one file can hold the same matrix before and after
a change: run the script once with PYTHONPATH at each source tree.
Integers are written as strings.  Needs only the standard library and
numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import tempfile
import time
import tracemalloc

import numpy as np

from grasscodes import cli
from grasscodes.codes import (BudgetExceeded, Code, CodeSpec, DEFAULT_BUDGET,
                              check_work, minors_table, point_table,
                              verify_attained_family, verify_nogin,
                              verify_zanella_incidence, weight_array,
                              weight_distribution)
from grasscodes.exterior import DualFunctional
from grasscodes.gf import GF
from grasscodes.macwilliams import check_macwilliams, dual_distribution

# (p, e, ell, m, time the Nogin suite): the fixed matrix, C(2,7) over F_2,
# C(2,8) and C(3,7) over F_2, which the memory ceiling refuses, C(3,6)
# over F_3 (the benchmark's generator code) and C(3,7) over F_3, whose
# sweeps the operation budget refuses, and C(2,5) over F_5 and C(2,4) over
# F_7, the attained-suite codes whose family tables take the odd-p gather
# kernel (C(2,5) over F_5 also sweeps 5^10 codewords, at a ~0.5 GB peak)
MATRIX = [
    (2, 1, 3, 6, False), (3, 1, 2, 5, True), (2, 2, 2, 5, False),
    (5, 1, 2, 4, False), (2, 3, 2, 4, False), (3, 2, 2, 4, False),
    (2, 4, 2, 4, False), (3, 1, 2, 6, False), (2, 1, 2, 7, False),
    (2, 1, 2, 8, False), (3, 1, 3, 6, False), (3, 1, 3, 7, False),
    (2, 1, 3, 7, False), (5, 1, 2, 5, False), (7, 1, 2, 4, False),
]
REPEATS = 7
# the Zanella layer's limit, so that the script also runs on source trees
# whose suite tests every covector on every point: there C(3,7) over F_3
# (925 771 points) takes minutes per call
ZANELLA_POINTS = 10**5
# the MacWilliams layer's limit, so that the script also runs on source
# trees whose check steps the recurrence at every length: there it takes
# about 0.1-0.5 s per call at n ~ 10^4 (C(2,8) and C(3,7) over F_2), and
# about 4 s at C(3,6) over F_3 (n = 33 880)
MACWILLIAMS_LENGTH = 12_000
# the calls of the ``cli`` entry
CLI_PARAMS = ["params", "-q", "3", "-l", "2", "-m", "5"]
CLI_REPORT = ["verify", "-q", "3", "-l", "2", "-m", "4", "--suite", "zanella"]


def median_of(fn):
    """(median wall time over REPEATS calls in seconds, last result)."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def host_info() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": model, "nproc": str(os.cpu_count()),
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform()}


def bench_code(p: int, e: int, ell: int, m: int, nogin: bool) -> dict:
    spec = CodeSpec(GF(p, e), ell, m)
    q, n, k = spec.field.q, spec.n, spec.k
    row = {"code": spec.describe(), "q": str(q), "ell": str(ell),
           "m": str(m), "n": str(n), "k": str(k), "codewords": str(q**k)}
    try:
        check_work(spec, ["sweep"], DEFAULT_BUDGET)
        row["default_budget"] = "allowed"
    except BudgetExceeded as exc:
        row["default_budget"] = f"refused: {exc}"
    layers = row["layers_s"] = {}
    code = Code(spec)
    layers["minors_table"], _ = median_of(lambda: minors_table(spec))
    layers["point_table"], code.table = median_of(lambda: point_table(spec))
    if 2 <= ell <= m - 2:
        layers["verify_attained"], _ = median_of(
            lambda: verify_attained_family(code))
    if n <= ZANELLA_POINTS:
        tuples = spec.support
        func = DualFunctional(spec.field, ell, m,
                              {tuples[0]: 1, tuples[-1]: 1})
        code.matrices
        layers["verify_zanella"], _ = median_of(
            lambda: verify_zanella_incidence(code, func))
    dist = None
    try:
        layers["weight_distribution"], dist = median_of(
            lambda: weight_distribution(Code(spec)))
    except BudgetExceeded as exc:
        layers["weight_distribution"] = f"refused: {exc}"
    if dist is not None and n <= MACWILLIAMS_LENGTH:
        layers["check_macwilliams"], _ = median_of(
            lambda: check_macwilliams(dist.counts, n, q, k))
    try:
        layers["weight_array"], weights = median_of(lambda: weight_array(code))
    except BudgetExceeded as exc:
        layers["weight_array"] = f"refused: {exc}"
        return row
    row["weight_array_peak_bytes"] = str(
        peak_bytes(lambda: weight_array(code)))
    code.weights = weights
    layers["histogram"], counted = median_of(lambda: weight_distribution(code))
    row["histogram_peak_bytes"] = str(
        peak_bytes(lambda: weight_distribution(code)))
    counts = counted.counts
    try:
        layers["dual_distribution"], _ = median_of(
            lambda: dual_distribution(counts, n, q, k))
    except BudgetExceeded as exc:
        layers["dual_distribution"] = f"refused: {exc}"
    if nogin:
        layers["verify_nogin"], _ = median_of(lambda: verify_nogin(Code(spec)))
    return row


def bench_cli() -> dict:
    def call(argv: list[str], cold: bool = False) -> None:
        if cold:
            cli._build_parser.cache_clear()
            GF.from_string.cache_clear()
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError(f"grasscodes {' '.join(argv)} failed")

    with tempfile.TemporaryDirectory() as tmp:
        report = CLI_REPORT + ["-o", os.path.join(tmp, "report.json")]
        return {
            "params": " ".join(CLI_PARAMS),
            "params_s": median_of(lambda: call(CLI_PARAMS, cold=True))[0],
            "report": " ".join(CLI_REPORT + ["-o", "FILE"]),
            "report_s": median_of(lambda: call(report))[0],
            "report_peak_bytes": str(peak_bytes(lambda: call(report))),
            "report_bytes": str(os.path.getsize(report[-1]))}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True,
                    help="name of this run in the output file")
    ap.add_argument("--out", required=True, help="JSON file to update")
    args = ap.parse_args()
    try:
        with open(args.out) as fh:
            record = json.load(fh)
    except FileNotFoundError:
        record = {"runs": {}}
    run = {"date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "host": host_info(), "repeats": str(REPEATS), "codes": []}
    run["cli"] = bench_cli()
    print(json.dumps(run["cli"]), flush=True)
    for case in MATRIX:
        run["codes"].append(bench_code(*case))
        print(json.dumps(run["codes"][-1]), flush=True)
    record["runs"][args.label] = run
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
