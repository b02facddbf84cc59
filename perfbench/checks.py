"""Exact answers for every benchmark job, checked outside the timed region.

Closed forms (lengths, d = q^(ell(m-ell)), d2, q^delta(alpha), the
[m ell]_q decomposable class count, the Pless power moments 0-2) are
computed here from scratch, not by the program.  Weight distributions are
pinned in ``expected.json``.  The program's slow reference
``codeword_weight`` serves as an oracle on seeded functionals.
"""

from __future__ import annotations

import json
import os

from jobs import field_order, index_tuples, support

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "expected.json")) as _fh:
    PINNED = json.load(_fh)["distributions"]


def code_key(code: dict) -> str:
    alpha = code["alpha"]
    a = "" if alpha is None else "_(" + ",".join(map(str, alpha)) + ")"
    return f"C{a}({code['ell']},{code['m']})/F_{code['field']}"


def gauss(m: int, ell: int, q: int) -> int:
    """[m ell]_q by counting: subspaces of F_q^m of dimension ell."""
    num = den = 1
    for i in range(ell):
        num *= q**m - q**i
        den *= q**ell - q**i
    return num // den


def cell_dim(beta) -> int:
    return sum(beta) - len(beta) * (len(beta) + 1) // 2


def code_length(code: dict) -> int:
    q, ell, m = field_order(code["field"]), code["ell"], code["m"]
    if code["alpha"] is None:
        return gauss(m, ell, q)
    return sum(q ** cell_dim(b) for b in support(ell, m, code["alpha"]))


def min_weight(code: dict) -> int:
    q, ell, m = field_order(code["field"]), code["ell"], code["m"]
    if code["alpha"] is None:
        return q ** (ell * (m - ell))
    return q ** cell_dim(code["alpha"])


def second_weight(q: int, ell: int, m: int) -> int:
    return q ** (ell * (m - ell)) + q ** (ell * (m - ell) - 2)


def pless_moments(counts: dict[int, int], n: int, q: int, k: int) -> list[str]:
    """Power moments 0-2 of a projective, nondegenerate [n, k]_q code."""
    failures = []
    m0 = sum(counts.values())
    m1 = sum(w * a for w, a in counts.items())
    m2 = sum(w * w * a for w, a in counts.items())
    if m0 != q**k:
        failures.append(f"moment 0: {m0} != q^k")
    if m1 != (q - 1) * q ** (k - 1) * n:
        failures.append(f"moment 1: {m1}")
    if m2 != (q - 1) * q ** (k - 2) * n * ((q - 1) * n + 1):
        failures.append(f"moment 2: {m2}")
    return failures


class Checker:
    """Checks one pass's outputs; the oracle uses the program's slow path."""

    def __init__(self, grasscodes, fields: dict):
        self.gc = grasscodes
        self.fields = fields
        self._tables: dict = {}

    def _spec(self, code: dict):
        return self.gc.CodeSpec(self.fields[code["field"]], code["ell"],
                                code["m"], code["alpha"])

    def oracle_weight(self, code: dict, vec) -> int:
        """codeword_weight of the functional with coefficient vector vec."""
        spec = self._spec(code)
        key = code_key(code)
        if key not in self._tables:
            self._tables[key] = self.gc.point_table(spec)
        func = self.gc.DualFunctional.from_vector(
            vec, spec.ell, spec.m, spec.field, spec.support)
        return self.gc.codeword_weight(func, spec, self._tables[key])

    def check(self, job: dict, result) -> list[str]:
        """Failures of one job: an empty list means its output is exact.

        ``result`` is (exit code, stdout) for a CLI job and the return
        value for a library call.
        """
        kind = job["check"]
        if job["kind"] == "cli":
            rc, out = result
            if rc != 0:
                return [f"exit code {rc}"]
            result = json.loads(out)
            if kind in ("verify", "strings", "zanella") \
                    and result["pass"] is not True:
                return ["report pass is false"]
        return getattr(self, "_" + kind)(job, result)

    # -- sweep ----------------------------------------------------------------

    def _wdist(self, job, out) -> list[str]:
        code = job["code"]
        q, ell, m = field_order(code["field"]), code["ell"], code["m"]
        counts = {int(w): int(c) for w, c in out["counts"].items()}
        n, k = int(out["spec"]["n"]), int(out["spec"]["k"])
        fails = []
        if n != code_length(code):
            fails.append(f"n = {n}")
        if k != len(support(ell, m, code["alpha"])):
            fails.append(f"k = {k}")
        pinned = {int(w): int(c) for w, c in PINNED[code_key(code)].items()}
        if counts != pinned:
            fails.append("distribution differs from the pinned one")
        nonzero = sorted(w for w in counts if w)
        if nonzero[0] != min_weight(code):
            fails.append(f"min weight {nonzero[0]}")
        if code["alpha"] is None and 2 <= ell <= m - 2 \
                and nonzero[1] != second_weight(q, ell, m):
            fails.append(f"second weight {nonzero[1]}")
        fails += pless_moments(counts, n, q, k)
        for vec in job["oracle"]:
            w = self.oracle_weight(code, vec)
            if not w or counts.get(w, 0) == 0:
                fails.append(f"oracle weight {w} not in the distribution")
        return fails

    def _macwilliams(self, job, ok) -> list[str]:
        return [] if ok is True else ["check_macwilliams returned False"]

    # -- classify -------------------------------------------------------------

    def _verify(self, job, out) -> list[str]:
        code = job["code"]
        q, ell, m = field_order(code["field"]), code["ell"], code["m"]
        fails = []
        suites = [r["suite"] for r in out["reports"]]
        if job["argv"][-1] == "all":
            # C(2,4)/F_2: nogin, second, strings on the 2^3-1 classes
            # supported on tuples ending at m, zanella on all 2^6-1,
            # identities, l2, attained
            want = ["nogin", "second"] + ["strings"] * (q**3 - 1) \
                + ["zanella"] * (q**6 - 1) + ["identities", "l2", "attained"]
            if suites != want:
                fails.append(f"suites run: {suites}")
        elif suites != [job["argv"][-1]]:
            fails.append(f"suites run: {suites}")
        for report in out["reports"]:
            check = getattr(self, "_report_" + report["suite"], None)
            if check:
                fails += check(report, q, ell, m)
        return fails

    def _report_nogin(self, r, q, ell, m) -> list[str]:
        count = r["checks"][1]
        ok = int(r["d"]) == q ** (ell * (m - ell)) \
            and int(count["lhs"]) == int(count["rhs"]) == gauss(m, ell, q)
        return [] if ok else ["nogin: d or decomposable class count"]

    def _report_second(self, r, q, ell, m) -> list[str]:
        dist = r["distribution"]["counts"]
        code = {"field": str(q), "ell": ell, "m": m, "alpha": None}
        pinned = PINNED[code_key(code)]
        lhs = int(r["checks"][2]["lhs"])
        ok = dist == pinned and lhs == second_weight(q, ell, m)
        return [] if ok else ["second: distribution or d2"]

    def _report_l2(self, r, q, ell, m) -> list[str]:
        c = r["checks"][0]
        classes = (q**6 - 1) // (q - 1)
        ok = int(c["nondecomposable_classes"]) == classes - gauss(4, 2, q) \
            and int(c["expected_meet"]) == q**3 + q**2 + q + 1
        return [] if ok else ["l2: class count or meet size"]

    def _report_attained(self, r, q, ell, m) -> list[str]:
        theta = tuple(int(x) for x in r["theta"])
        free = sum(1 for b in index_tuples(ell, m)
                   if not all(x <= y for x, y in zip(b, theta))) - 1
        family = (q - 1) * q**free
        ok = int(r["expected_weight"]) == second_weight(q, ell, m) \
            and int(r["checks"][0]["sampled"]) == min(200, family)
        return [] if ok else ["attained: d2 or sample count"]

    def _decompose(self, job, out) -> list[str]:
        code = job["code"]
        # Nogin: a hyperplane is decomposable iff its codeword has weight d
        dec = self.oracle_weight(code, job["vector"]) == min_weight(code)
        degree = code["m"] - code["ell"]
        fails = []
        if out["decomposable"] is not dec:
            fails.append(f"verdict {out['decomposable']}, oracle {dec}")
        if dec and len(out["annihilator_basis"]) != degree:
            fails.append("annihilator basis size")
        return fails

    # -- geometry -------------------------------------------------------------

    def _generator(self, job, gen) -> list[str]:
        n = code_length(job["code"])
        return [] if gen.n == len(gen.columns) == n else [f"n = {gen.n}"]

    def _full_rank(self, job, ok) -> list[str]:
        return [] if ok is True else ["generator not of full rank"]

    def _strings(self, job, out) -> list[str]:
        code = job["code"]
        q, ell, m = field_order(code["field"]), code["ell"], code["m"]
        report = out["reports"][0]
        values = set(report["fiber_counts"].values())
        if len(report["fiber_counts"]) != q ** (m - ell) or len(values) != 1:
            return ["fiber counts"]
        # the hyperplane holds the whole sub-Grassmannian G(ell, m-1) and
        # the same number of points in each of the q^(m-ell) fibers
        meet = code_length(code) - self.oracle_weight(code, job["vector"])
        if meet != gauss(m - 1, ell, q) + q ** (m - ell) * int(values.pop()):
            return [f"section size {meet} against the fibers"]
        return []

    def _zanella(self, job, out) -> list[str]:
        code = job["code"]
        q, m = field_order(code["field"]), code["m"]
        report = out["reports"][0]
        meet = code_length(code) - self.oracle_weight(code, job["vector"])
        fails = []
        if int(report["section_size"]) != meet:
            fails.append(f"section size {report['section_size']} != {meet}")
        if len(report["sub_counts"]) != (q**m - 1) // (q - 1):
            fails.append("number of hyperplanes of V_m")
        return fails

    def _strings_full(self, job, out) -> list[str]:
        code = job["code"]
        q, ell, m = field_order(code["field"]), code["ell"], code["m"]
        fibers = out["fibers"]
        ok = int(out["sub_grassmannian_points"]) == gauss(m - 1, ell, q) \
            and len(fibers) == q ** (m - ell) \
            and all(len(f) == gauss(m - 1, ell - 1, q)
                    for f in fibers.values())
        return [] if ok else ["string partition sizes"]

