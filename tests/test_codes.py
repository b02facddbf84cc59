import os
import random
import subprocess
import sys

import numpy as np
import pytest

import grasscodes
from grasscodes import codes
from grasscodes.codes import (BudgetExceeded, CodeSpec, InvariantError,
                              WeightDistribution, build_generator,
                              class_count, class_representatives,
                              class_weights, codeword_weight, min_distance,
                              point_table, schubert_min_distance,
                              second_min_weight, special_theta,
                              verify_attained_family, verify_l2_dichotomy,
                              verify_nogin, verify_second_weight,
                              verify_string_section, verify_zanella_incidence,
                              weight_array, weight_distribution)
from grasscodes.exterior import DualFunctional, parse_functional
from grasscodes.gf import GF
from grasscodes.macwilliams import check_macwilliams, dual_distribution


def test_spec_parameters(f2, f3):
    spec = CodeSpec(f2, 2, 4)
    assert (spec.n, spec.k) == (35, 6)
    spec = CodeSpec(f3, 2, 4)
    assert (spec.n, spec.k) == (130, 6)
    spec = CodeSpec(f2, 3, 6)
    assert (spec.n, spec.k) == (1395, 20)


def test_schubert_spec_parameters(f2):
    spec = CodeSpec(f2, 2, 4, alpha=(1, 4))
    assert spec.is_schubert
    assert (spec.n, spec.k) == (7, 3)
    # the top tuple gives back the full Grassmann code
    full = CodeSpec(f2, 2, 4, alpha=(3, 4))
    assert not full.is_schubert
    assert (full.n, full.k) == (35, 6)


def test_spec_validation(f2):
    with pytest.raises(ValueError):
        CodeSpec(f2, 0, 4)
    with pytest.raises(ValueError):
        CodeSpec(f2, 2, 4, alpha=(1, 2, 3))


def test_generator_matrix_full_rank(f2, f3):
    for spec in (CodeSpec(f2, 2, 4), CodeSpec(f3, 2, 4),
                 CodeSpec(f2, 2, 4, alpha=(1, 4)), CodeSpec(f2, 2, 4, alpha=(2, 4))):
        gen = build_generator(spec)
        assert gen.n == spec.n and gen.k == spec.k
        assert gen.full_rank()


def test_point_table_normalized(f3):
    for coords in point_table(CodeSpec(f3, 2, 4)):
        assert next(c for c in coords if c) == 1


@pytest.mark.parametrize("field,ell,m,alpha", [
    # the Schubert codes of the benchmark's sweep workload
    (GF(2), 3, 6, (2, 4, 6)), (GF(3), 2, 5, (2, 5)),
    (GF(2, 2), 2, 5, (2, 4)), (GF(3, 2), 2, 4, (2, 4)),
    # (1,4) over F_8 and F_9 at m = 4: at m = 5 the full table of the
    # Grassmann code has 3-6 * 10^5 points
    (GF(2, 3), 2, 4, (1, 4)), (GF(3, 2), 2, 4, (1, 4)),
    (GF(2), 2, 4, (1, 3)), (GF(3), 2, 5, (1, 5)), (GF(2), 3, 6, (1, 3, 5)),
])
def test_schubert_table_is_linear_section(field, ell, m, alpha):
    """Omega_alpha = {p_beta = 0 : beta not <= alpha}: the Grassmann rows
    vanishing off the down-set, restricted to it, are the Schubert table."""
    schubert = CodeSpec(field, ell, m, alpha)
    support = CodeSpec(field, ell, m).support
    keep = [i for i, a in enumerate(support) if a in schubert.support]
    off = [i for i in range(len(support)) if i not in keep]
    rows = [tuple(x[i] for i in keep)
            for x in point_table(CodeSpec(field, ell, m))
            if not any(x[i] for i in off)]
    assert rows == point_table(schubert)


def test_class_representatives(f3):
    reps = list(class_representatives(3, 3))
    assert len(reps) == class_count(3, 3) == 13
    assert len(set(reps)) == 13
    for vec in reps:
        lead = next(c for c in vec if c)
        assert lead == 1
    # deterministic order
    assert reps == list(class_representatives(3, 3))


def test_codeword_weight_single_coordinate(f2):
    """Weight of X_alpha is n minus the hyperplane section e(ell, m)."""
    spec = CodeSpec(f2, 2, 4)
    table = point_table(spec)
    for alpha in [(1, 2), (2, 3), (3, 4)]:
        func = DualFunctional(f2, 2, 4, {alpha: 1})
        assert codeword_weight(func, spec, table) == 16


def test_codeword_weight_schubert_support_check(f2):
    spec = CodeSpec(f2, 2, 4, alpha=(1, 4))
    func = parse_functional("X:3,4", 2, 4, f2)
    with pytest.raises(ValueError):
        codeword_weight(func, spec)


def test_weight_distribution_c24_q2(f2):
    dist = weight_distribution(CodeSpec(f2, 2, 4))
    assert dist.counts == {0: 1, 16: 35, 20: 28}
    dist.check_invariants()
    assert dist.min_weight() == 16 and dist.second_weight() == 20


def test_weight_distribution_c24_q3(f3):
    dist = weight_distribution(CodeSpec(f3, 2, 4))
    assert dist.counts == {0: 1, 81: 260, 90: 468}
    assert dist.total() == 3**6


def test_weight_distribution_c24_q4():
    f4 = GF(2, 2)
    dist = weight_distribution(CodeSpec(f4, 2, 4))
    q = 4
    assert dist.min_weight() == q**4
    assert dist.second_weight() == q**4 + q**2
    assert set(dist.counts) == {0, q**4, q**4 + q**2}
    assert dist.total() == q**6


def test_wht_agrees_with_direct_sweep(f2):
    """The histogram and the per-class view of the weight array agree."""
    spec = CodeSpec(f2, 2, 5)
    dist = weight_distribution(spec)
    counts = {}
    for _, w in class_weights(spec):
        counts[w] = counts.get(w, 0) + 1
    counts[0] = 1
    assert dist.counts == counts


def test_weight_distribution_c24_q7():
    dist = weight_distribution(CodeSpec(GF(7), 2, 4))
    assert dist.counts == {0: 1, 2401: 17100, 2450: 100548}


# (p, e, modulus, ell, m, alpha).  F_4 has a single irreducible quadratic,
# so only F_8, F_9 and F_16 get a non-default modulus.
ENGINE_CODES = [
    (3, 1, None, 2, 4, None), (3, 1, None, 2, 5, (2, 5)),
    (2, 2, None, 2, 4, None), (2, 2, None, 2, 5, (2, 4)),
    (5, 1, None, 2, 4, None), (5, 1, None, 2, 4, (1, 4)),
    (7, 1, None, 2, 4, None), (7, 1, None, 2, 4, (2, 4)),
    (2, 3, None, 2, 4, (2, 4)), (2, 3, (1, 0, 1, 1), 2, 3, None),
    (3, 2, None, 2, 4, (2, 4)), (3, 2, (2, 2, 1), 2, 4, (2, 4)),
    (11, 1, None, 2, 3, None), (11, 1, None, 2, 4, (2, 4)),
    (2, 4, None, 2, 3, None), (2, 4, (1, 0, 0, 1, 1), 2, 4, (1, 4)),
]


@pytest.mark.parametrize("p,e,modulus,ell,m,alpha", ENGINE_CODES,
                         ids=lambda v: "".join(map(str, v))
                         if isinstance(v, tuple) else str(v))
def test_weight_array_matches_codeword_weight(p, e, modulus, ell, m, alpha):
    field = GF(p, e, modulus=modulus)
    spec = CodeSpec(field, ell, m, alpha)
    q, k = field.q, spec.k
    table = point_table(spec)
    weights = weight_array(spec, table)
    assert weights.shape == (q**k,) and weights.dtype == np.int64
    assert np.flatnonzero(weights == 0).tolist() == [0]
    # seeded samples from every weight class, so that a wrong labelling,
    # which permutes the codewords, also meets the rare minimum weight
    rng = random.Random(f"{p}^{e}:{modulus}:{ell}:{m}:{alpha}")
    for w in np.unique(weights[1:]):
        hits = np.flatnonzero(weights == w)
        for idx in (int(hits[rng.randrange(len(hits))]) for _ in range(6)):
            vec = [idx // q ** (k - 1 - i) % q for i in range(k)]
            func = DualFunctional.from_vector(vec, ell, m, field, spec.support)
            assert codeword_weight(func, spec, table) == w, vec


@pytest.mark.parametrize("spec", [CodeSpec(GF(3), 2, 4),
                                  CodeSpec(GF(2, 2), 2, 4, alpha=(2, 4))],
                         ids=["C24-F3", "C24-alpha24-F4"])
def test_class_weights_order(spec):
    q, k = spec.field.q, spec.k
    pairs = list(class_weights(spec))
    assert [vec for vec, _ in pairs] == list(class_representatives(q, k))
    weights = weight_array(spec)
    for vec, w in pairs:
        assert w == weights[sum(c * q ** (k - 1 - i) for i, c in enumerate(vec))]


def test_memory_ceiling_refuses_before_allocating(monkeypatch):
    spec = CodeSpec(GF(2, 2), 2, 6)  # 4^15 codewords: 8 GiB per int64 array

    def no_table(spec):
        raise AssertionError("point table built for a refused sweep")
    monkeypatch.setattr(codes, "point_table", no_table)
    with pytest.raises(BudgetExceeded, match="bytes"):
        weight_array(spec)
    with pytest.raises(BudgetExceeded, match="bytes"):
        weight_distribution(spec, budget=10**20)
    with pytest.raises(BudgetExceeded, match="bytes"):
        next(class_weights(spec))


def test_budget_enforced(f2):
    with pytest.raises(BudgetExceeded) as exc:
        weight_distribution(CodeSpec(f2, 2, 4), budget=100)
    assert exc.value.required > 100
    # generous budget passes
    weight_distribution(CodeSpec(f2, 2, 4), budget=10**7)


def test_schubert_distribution_c14(f2):
    """C_(1,4)(2, 4) over F_2 is a [7, 3, 4] code (a simplex code)."""
    spec = CodeSpec(f2, 2, 4, alpha=(1, 4))
    dist = weight_distribution(spec)
    assert dist.counts == {0: 1, 4: 7}
    assert schubert_min_distance((1, 4), 4, 2) == 4


def test_schubert_min_distance_attained(f2, f3):
    for field, alpha, m in [(f2, (1, 4), 4), (f2, (2, 4), 4), (f3, (1, 4), 4),
                            (f2, (2, 5), 5)]:
        ell = len(alpha)
        spec = CodeSpec(field, ell, m, alpha=alpha)
        dist = weight_distribution(spec)
        assert dist.min_weight() == schubert_min_distance(alpha, m, field.q)


def test_closed_forms(f2):
    assert min_distance(CodeSpec(f2, 2, 4)) == 16
    assert second_min_weight(CodeSpec(f2, 2, 4)) == 20
    assert min_distance(CodeSpec(f2, 3, 6)) == 512
    assert second_min_weight(CodeSpec(f2, 3, 6)) == 640
    with pytest.raises(ValueError):
        second_min_weight(CodeSpec(f2, 1, 4))


def test_special_theta(f2):
    assert special_theta(2, 4) == (1, 4)
    assert special_theta(2, 5) == (2, 5)
    assert special_theta(3, 6) == (2, 5, 6)
    with pytest.raises(ValueError):
        special_theta(1, 4)


@pytest.mark.parametrize("q,ell,m", [(2, 2, 4), (3, 2, 4), (2, 2, 5), (2, 3, 5)])
def test_verify_nogin(q, ell, m):
    report = verify_nogin(CodeSpec(GF(q), ell, m))
    assert report["pass"], report


@pytest.mark.parametrize("q,ell,m", [(2, 2, 4), (3, 2, 4), (2, 2, 5)])
def test_verify_second_weight(q, ell, m):
    report = verify_second_weight(CodeSpec(GF(q), ell, m))
    assert report["pass"], report


@pytest.mark.parametrize("q,ell,m", [(2, 2, 4), (2, 2, 5), (3, 2, 4)])
def test_verify_attained_family(q, ell, m):
    report = verify_attained_family(ell, m, GF(q), max_samples=50)
    assert report["pass"], report
    # (q-1) q^(|Delta(theta)| - 1) members fit under the cap: all checked
    check = report["checks"][0]
    assert check["sampled"] == check["family"] == (q - 1) * q**2


@pytest.mark.parametrize("bad", [0, -1])
def test_verify_attained_family_rejects_empty_sample(f2, bad):
    with pytest.raises(ValueError):
        verify_attained_family(2, 4, f2, max_samples=bad)


def test_attained_sample_covers_every_leading_coefficient():
    # C(2,4) over F_16: theta = (1,4), two free tuples, 15 * 16^2 members
    draws = list(codes._attained_sample(16, 2, 200))
    assert len(draws) == len(set(draws)) == 200
    assert {d[0] for d in draws} == set(range(1, 16))
    assert all(len(d) == 3 and all(0 <= c < 16 for c in d[1:]) for d in draws)
    assert draws == list(codes._attained_sample(16, 2, 200))  # fixed seed
    # a family under the cap runs whole, in lexicographic order
    assert list(codes._attained_sample(3, 1, 200)) == \
        [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]


def test_verify_string_section(f2, f3):
    for field, ell, m in [(f2, 2, 4), (f3, 2, 4), (f2, 3, 5)]:
        last = [a for a in CodeSpec(field, ell, m).support if a[-1] == m]
        for vec in class_representatives(field.q, len(last)):
            func = DualFunctional.from_vector(vec, ell, m, field, last)
            report = verify_string_section(func)
            assert report["pass"], report


def test_verify_string_section_rejects_bad_support(f2):
    func = parse_functional("X:1,2", 2, 4, f2)
    with pytest.raises(ValueError):
        verify_string_section(func)


def test_verify_zanella_incidence(f2):
    for text in ["X:3,4", "X:1,2 + X:3,4", "X:1,4 + X:2,3"]:
        report = verify_zanella_incidence(parse_functional(text, 2, 4, f2))
        assert report["pass"], report


def test_zanella_equality_case(f2):
    # all covector counts coincide for v1^v2 + v3^v4, forcing equality
    report = verify_zanella_incidence(parse_functional("X:1,2 + X:3,4", 2, 4, f2))
    names = [c["identity"] for c in report["checks"]]
    assert "incidence-equality" in names


@pytest.mark.parametrize("q", [2, 3, 4])
def test_verify_l2_dichotomy(q):
    field = GF(2, 2) if q == 4 else GF(q)
    report = verify_l2_dichotomy(field)
    assert report["pass"], report


@pytest.mark.parametrize("ell,m", [(2, 4), (3, 5)])
def test_nondecomposable_sub_grassmannian_sections(ell, m):
    """ell = m-2: each codimension-1 sub-Grassmannian is a projective space,
    so a hyperplane either contains it or cuts it in e(m-2, m-1) points.

    For m = 4 nondecomposable hyperplanes never contain a sub-Grassmannian
    (every wedge 2-form on a 3-space factors); for m = 5 containment does
    occur, e.g. X:1,2,5 + X:3,4,5 contains all of G(3, span(v1..v4)).
    Either way the total section stays within e'(m-2, m)."""
    from grasscodes.codes import _point_in_kernel
    from grasscodes.exterior import check_functional
    from grasscodes.grassmann import plucker
    from grasscodes.qcombin import e_bound, e_prime_bound, gaussian_binomial
    field = GF(2)
    spec = CodeSpec(field, ell, m)
    pts = list(spec.points())
    coords = [plucker(p).coords for p in pts]
    proper = e_bound(m - 2, m - 1, 2)
    full = gaussian_binomial(m - 1, m - 2, 2)
    any_contained = False
    for vec in class_representatives(2, spec.k):
        func = DualFunctional.from_vector(vec, ell, m, field)
        if check_functional(func):
            continue
        on_pi = [not func.evaluate(c) for c in coords]
        assert sum(on_pi) <= e_prime_bound(ell, m, 2)
        for u in class_representatives(2, m):
            cnt = sum(1 for p, hit in zip(pts, on_pi)
                      if hit and _point_in_kernel(p, u, field))
            assert cnt in (proper, full), (func, u, cnt)
            any_contained = any_contained or cnt == full
    assert any_contained == (m == 5)


def test_macwilliams_simplex():
    # [7,3] simplex over F_2 dualizes to the [7,4] Hamming code
    dual = dual_distribution({0: 1, 4: 7}, 7, 2, 3)
    assert dual == {0: 1, 3: 7, 4: 7, 7: 1}
    assert check_macwilliams({0: 1, 4: 7}, 7, 2, 3)


def test_macwilliams_rejects_inconsistent():
    assert not check_macwilliams({0: 1, 4: 6}, 7, 2, 3)


def test_macwilliams_on_grassmann(f2, f3):
    for field, ell, m in [(f2, 2, 4), (f3, 2, 4), (f2, 2, 5)]:
        spec = CodeSpec(field, ell, m)
        dist = weight_distribution(spec)
        assert check_macwilliams(dist.counts, spec.n, field.q, spec.k)


def test_distribution_serialization(f2):
    dist = weight_distribution(CodeSpec(f2, 2, 4))
    d = dist.to_json_dict()
    assert d["counts"] == {"0": "1", "16": "35", "20": "28"}
    assert dist.to_csv().splitlines()[0] == "weight,count"


# Corrupted distributions of C(2,4): a doubled zero word, a weight above n,
# Pless moment 1 broken (moment 0 kept), only moment 2 broken, and over
# F_3 class counts not divisible by q - 1.
CORRUPTED = [(2, {0: 2, 16: 35, 20: 27}), (2, {0: 1, 16: 35, 20: 28, 36: 1}),
             (2, {0: 1, 16: 36, 20: 27}),
             (2, {0: 1, 15: 1, 16: 33, 17: 1, 20: 28}),
             (3, {0: 1, 81: 259, 90: 469})]


@pytest.mark.parametrize("q,counts", CORRUPTED)
def test_corrupted_distribution_raises(q, counts):
    with pytest.raises(InvariantError):
        WeightDistribution(CodeSpec(GF(q), 2, 4), counts).check_invariants()


def test_invariants_survive_optimize_flag():
    script = (
        "from grasscodes.codes import CodeSpec, InvariantError, "
        "WeightDistribution\n"
        "from grasscodes.gf import GF\n"
        "dist = WeightDistribution(CodeSpec(GF(2), 2, 4), "
        "{0: 1, 16: 36, 20: 27})\n"
        "try:\n"
        "    dist.check_invariants()\n"
        "except InvariantError:\n"
        "    print('raised', __debug__)\n")
    src = os.path.dirname(os.path.dirname(grasscodes.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["raised", "False"]


def test_transform_divisibility_checked(monkeypatch):
    # a label map that is not the trace dual breaks the count identity
    monkeypatch.setattr(codes, "_trace_dual",
                        lambda field: np.array([0, 1, 2, 3, 4, 5, 6, 7, 7]))
    with pytest.raises(InvariantError, match="divisible"):
        weight_array(CodeSpec(GF(3, 2), 2, 4))
