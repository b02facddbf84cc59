"""Acceptance gate: one test per headline claim, with pinned runtimes.

Each test prints a single PASS/FAIL line so the gate can be read off a
plain pytest -s run.  Every numeric assertion is exact; the only
tolerances are the wall-clock budgets.
"""

import time

from grasscodes.codes import (Code, CodeSpec, class_weights,
                              verify_attained_family, verify_l2_dichotomy,
                              verify_nogin, verify_string_section,
                              weight_distribution)
from grasscodes.exterior import (DualFunctional, functional_to_wedge,
                                 wedge_of_vectors, wedge_pairing)
from grasscodes.gf import GF
from grasscodes.grassmann import enumerate_grassmannian, plucker
from grasscodes.macwilliams import check_macwilliams, dual_distribution
from grasscodes.qcombin import (verify_e_inequalities,
                                verify_gaussian_identities)


def _gate(name: str, ok: bool, elapsed: float, limit: float) -> None:
    in_time = elapsed <= limit
    verdict = "PASS" if (ok and in_time) else "FAIL"
    print(f"[{verdict}] {name}: {elapsed:.2f}s (limit {limit:.0f}s)")
    assert ok, f"{name}: result check failed"
    assert in_time, f"{name}: took {elapsed:.2f}s, limit {limit}s"


def test_01_c24_q2_distribution():
    t0 = time.monotonic()
    spec = CodeSpec(GF(2), 2, 4)
    dist = weight_distribution(Code(spec))
    ok = (dist.counts == {0: 1, 16: 35, 20: 28}
          and dist.min_weight() == 16
          and dist.second_weight() == 20)
    _gate("01 C(2,4) q=2 distribution {0:1,16:35,20:28}", ok,
          time.monotonic() - t0, 1.0)


def test_02_minimum_weight_classification():
    t0 = time.monotonic()
    sets = [(2, 2, 4), (3, 2, 4), (4, 2, 4), (2, 2, 5), (2, 3, 5)]
    ok = True
    for q, ell, m in sets:
        field = GF(2, 2) if q == 4 else GF(q)
        report = verify_nogin(Code(CodeSpec(field, ell, m)))
        ok = ok and report["pass"]
    _gate("02 minimum weight iff decomposable, 5 parameter sets", ok,
          time.monotonic() - t0, 30.0)


def test_03_second_weight_gap():
    t0 = time.monotonic()
    sets = [(2, 2, 4), (3, 2, 4), (2, 2, 5), (2, 3, 5)]
    ok = True
    for q, ell, m in sets:
        spec = CodeSpec(GF(q), ell, m)
        dist = weight_distribution(Code(spec))
        d = q ** (ell * (m - ell))
        d2 = d + q ** (ell * (m - ell) - 2)
        ok = ok and dist.min_weight() == d and dist.second_weight() == d2
        ok = ok and not [w for w in dist.counts if d < w < d2]
    _gate("03 second weight gap empty and bound attained, 4 sets", ok,
          time.monotonic() - t0, 120.0)


def test_04_c36_q2_performance():
    t0 = time.monotonic()
    spec = CodeSpec(GF(2), 3, 6)
    dist = weight_distribution(Code(spec))
    ok = (dist.min_weight() == 512
          and dist.second_weight() == 640
          and dist.total() == 2**20
          and check_macwilliams(dist.counts, spec.n, 2, spec.k))
    _gate("04 C(3,6) q=2 full sweep, min 512 / second 640 / 2^20 words", ok,
          time.monotonic() - t0, 600.0)


def test_05_combinatorial_identities():
    t0 = time.monotonic()
    ok = True
    for q in (2, 3, 4, 5):
        for m in range(1, 9):
            for ell in range(1, m + 1):
                ok = ok and all(c["pass"]
                                for c in verify_gaussian_identities(m, ell, q))
                if ell <= m - 1:
                    ok = ok and all(c["pass"]
                                    for c in verify_e_inequalities(ell, m, q))
    _gate("05 Gaussian-binomial and bound identities, l<=m<=8, q in {2,3,4,5}",
          ok, time.monotonic() - t0, 1.0)


def test_06_string_decomposition():
    t0 = time.monotonic()
    from grasscodes.codes import class_representatives
    from grasscodes.grassmann import in_last_column_locus, string_fiber
    from grasscodes.qcombin import gaussian_binomial, index_tuples
    import itertools
    ok = True
    for q, ell, m in [(2, 2, 4), (2, 2, 5), (2, 3, 5), (3, 2, 4)]:
        field = GF(q)
        code = Code(CodeSpec(field, ell, m))
        # partition: fibers disjoint, correct size, cover the locus
        seen = set()
        for nu in itertools.product(range(q), repeat=m - ell):
            fiber = [mat.rows for mat in string_fiber(nu, ell, m, field)]
            ok = ok and len(fiber) == gaussian_binomial(m - 1, ell - 1, q)
            ok = ok and not (seen & set(fiber))
            seen.update(fiber)
        locus = {mat.rows for mat in enumerate_grassmannian(ell, m, field)
                 if in_last_column_locus(mat)}
        ok = ok and seen == locus
        # fiberwise sections for every class supported on {a : a_l = m}
        last = [a for a in index_tuples(ell, m) if a[-1] == m]
        for vec in class_representatives(q, len(last)):
            func = DualFunctional.from_vector(vec, ell, m, field, last)
            ok = ok and verify_string_section(code, func)["pass"]
    _gate("06 string decomposition partition and fiberwise sections, 4 sets",
          ok, time.monotonic() - t0, 60.0)


def test_07_schubert_code():
    t0 = time.monotonic()
    spec = CodeSpec(GF(2), 2, 4, alpha=(1, 4))
    dist = weight_distribution(Code(spec))
    ok = spec.n == 7 and spec.k == 3 and dist.min_weight() == 4
    _gate("07 Schubert code at theta=(1,4): [7, 3, 4] over F_2", ok,
          time.monotonic() - t0, 1.0)


def test_08_attained_family():
    t0 = time.monotonic()
    ok = True
    for ell, m in [(2, 4), (2, 5)]:
        report = verify_attained_family(Code(CodeSpec(GF(2), ell, m)),
                                        max_samples=200)
        ok = ok and report["pass"] and report["checks"][0]["sampled"] > 0
    _gate("08 attained second-weight family at (2,4), (2,5), q=2", ok,
          time.monotonic() - t0, 10.0)


def test_09_two_weight_property():
    t0 = time.monotonic()
    ok = True
    for q in (2, 3, 4):
        field = GF(2, 2) if q == 4 else GF(q)
        ok = ok and verify_l2_dichotomy(Code(CodeSpec(field, 2, 4)))["pass"]
    _gate("09 C(2,4) two-weight: nondecomposables meet in q^3+q^2+q+1", ok,
          time.monotonic() - t0, 30.0)


def test_10_cross_path_consistency():
    t0 = time.monotonic()
    ok = True
    for q in (2, 3):
        field = GF(q)
        code = Code(CodeSpec(field, 2, 4))
        wedges = [wedge_of_vectors(field, 4, [list(r) for r in mat.rows])
                  for mat in enumerate_grassmannian(2, 4, field)]
        coords = [plucker(mat).coords
                  for mat in enumerate_grassmannian(2, 4, field)]
        for vec, _ in class_weights(code):
            func = DualFunctional.from_vector(vec, 2, 4, field)
            z = functional_to_wedge(func)
            for w, c in zip(wedges, coords):
                if wedge_pairing(z, w) != func.evaluate(c):
                    ok = False
    _gate("10 direct evaluation vs signed wedge pairing, (2,4) q in {2,3}",
          ok, time.monotonic() - t0, 30.0)


def test_11_nogin_by_duality_at_c36():
    t0 = time.monotonic()
    ok = True
    for ell in (3, 2):
        report = verify_nogin(Code(CodeSpec(GF(2), ell, 6)))
        ok = ok and report["pass"]
    _gate("11 Nogin by duality at C(3,6) and C(2,6), q=2", ok,
          time.monotonic() - t0, 10.0)


def test_12_macwilliams_frontier():
    t0 = time.monotonic()
    ok = True
    for field, ell, m in [(GF(2, 3), 2, 4), (GF(2), 2, 7)]:
        spec = CodeSpec(field, ell, m)
        dist = weight_distribution(Code(spec))
        args = (dist.counts, spec.n, field.q, spec.k)
        ok = ok and check_macwilliams(*args) is True
        ok = ok and dual_distribution(*args)[0] == 1
    _gate("12 MacWilliams at n = 4745 (C(2,4), q=8) and C(2,7), q=2", ok,
          time.monotonic() - t0, 10.0)
