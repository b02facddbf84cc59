import itertools
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import grasscodes
from grasscodes import codes, exterior, grassmann, macwilliams
from grasscodes.cli import _jsonify
from grasscodes.codes import (BudgetExceeded, Code, CodeSpec, GeneratorMatrix,
                              InvariantError, WeightDistribution,
                              build_generator, check_work, class_count,
                              class_representatives, class_weights,
                              codeword_weight, decomposable_table,
                              min_distance,
                              point_table, schubert_min_distance,
                              second_min_weight, special_theta,
                              verify_attained_family, verify_l2_dichotomy,
                              verify_nogin, verify_second_weight,
                              verify_string_section, verify_string_sections,
                              verify_zanella_incidence,
                              verify_zanella_incidences, weight_array,
                              weight_distribution)
from grasscodes.exterior import (DualFunctional, check_functional,
                                 parse_functional)
from grasscodes.gf import GF
from grasscodes.grassmann import (enumerate_grassmannian,
                                  enumerate_schubert_variety, plucker,
                                  string_fiber)
from grasscodes.linalg import rank as matrix_rank
from grasscodes.macwilliams import check_macwilliams, dual_distribution
from grasscodes.linalg import ranks
from grasscodes.qcombin import (alternating_count, delta, delta_set,
                                gaussian_binomial, index_tuples)


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
    rows = [[x[i] for i in keep]
            for x in point_table(CodeSpec(field, ell, m)).tolist()
            if not any(x[i] for i in off)]
    assert rows == point_table(schubert).tolist()


# (p, e, modulus, ell, m, alpha): F_2, F_3, F_5, F_4, F_8, F_9 and F_16,
# Grassmann and Schubert codes, ell in {1, 2, 3, m-1}
TABLE_CODES = [
    (2, 1, None, 3, 6, None), (2, 1, None, 3, 6, (2, 4, 6)),
    (2, 1, None, 1, 4, None), (3, 1, None, 2, 4, None),
    (3, 1, None, 1, 4, (3,)), (3, 1, None, 3, 4, None),
    (3, 1, None, 2, 5, (2, 5)), (5, 1, None, 2, 4, None),
    (5, 1, None, 2, 4, (2, 4)), (2, 2, None, 2, 5, (2, 4)),
    (2, 2, None, 4, 5, None), (2, 3, None, 1, 3, None),
    (2, 3, (1, 0, 1, 1), 2, 4, (1, 4)), (3, 2, None, 3, 4, None),
    (3, 2, (2, 2, 1), 2, 4, (2, 4)), (2, 4, None, 2, 3, None),
    (2, 4, None, 2, 4, (1, 4)),
    # Schubert codes whose cells have rows without slots above rows with
    # them, over F_3, F_9 and F_2
    (3, 1, None, 3, 5, (1, 2, 5)), (3, 2, None, 3, 5, (1, 3, 5)),
    (2, 1, None, 4, 6, (1, 2, 5, 6)),
]


@pytest.mark.parametrize("p,e,modulus,ell,m,alpha", TABLE_CODES,
                         ids=lambda v: "".join(map(str, v))
                         if isinstance(v, tuple) else str(v))
def test_point_table_matches_plucker_oracle(p, e, modulus, ell, m, alpha):
    """The batched table is plucker(mat).normalized(), point by point,
    restricted to the support."""
    field = GF(p, e, modulus=modulus)
    spec = CodeSpec(field, ell, m, alpha)
    points = enumerate_grassmannian(ell, m, field) if alpha is None \
        else enumerate_schubert_variety(alpha, m, field)
    keep = [i for i, a in enumerate(index_tuples(ell, m)) if a in spec.support]
    oracle = [[coords[i] for i in keep]
              for coords in (plucker(mat).normalized().coords for mat in points)]
    table = point_table(spec)
    assert table.dtype == np.uint8 and table.shape == (spec.n, spec.k)
    assert table.tolist() == oracle


# (p, e) of every field up to order 9
SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


@st.composite
def small_codes(draw):
    """A Grassmann or Schubert code of at most 1500 points and a nonzero
    functional on its support."""
    p, e = draw(st.sampled_from(SMALL_FIELDS))
    field = GF(p, e)
    m = draw(st.integers(2, 5))
    ell = draw(st.integers(1, m - 1))
    alpha = draw(st.sampled_from([None] + index_tuples(ell, m)))
    spec = CodeSpec(field, ell, m, alpha)
    assume(spec.n <= 1500)
    vec = draw(st.lists(st.integers(0, field.q - 1), min_size=spec.k,
                        max_size=spec.k))
    vec[draw(st.integers(0, spec.k - 1))] = draw(st.integers(1, field.q - 1))
    return spec, DualFunctional.from_vector(vec, ell, m, field, spec.support)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(small_codes())
def test_codeword_weight_matches_point_count(code):
    spec, func = code
    points = enumerate_grassmannian(spec.ell, spec.m, spec.field) \
        if spec.alpha is None \
        else enumerate_schubert_variety(spec.alpha, spec.m, spec.field)
    expected = sum(1 for mat in points if func.evaluate(plucker(mat).coords))
    assert codeword_weight(func, spec, point_table(spec)) == expected


def test_class_representatives(f3):
    reps = list(class_representatives(3, 3))
    assert len(reps) == class_count(3, 3) == 13
    assert len(set(reps)) == 13
    for vec in reps:
        lead = next(c for c in vec if c)
        assert lead == 1
    # deterministic order
    assert reps == list(class_representatives(3, 3))


@pytest.mark.parametrize("q,k", [(2, 1), (2, 7), (3, 4), (4, 3), (9, 2),
                                 (16, 2)])
def test_class_representatives_match_digit_loop(q, k):
    expected = []
    for lead in range(k):
        for t in range(q ** (k - lead - 1)):
            vec = [0] * k
            vec[lead] = 1
            for j in range(k - 1, lead, -1):
                vec[j] = t % q
                t //= q
            expected.append(tuple(vec))
    assert list(class_representatives(q, k)) == expected
    assert [sum(c * q ** (k - 1 - i) for i, c in enumerate(vec))
            for vec in expected] == codes._class_indices(q, k).tolist()


@pytest.mark.parametrize("q,k", [(2, 1), (2, 20), (3, 6), (4, 5), (9, 3),
                                 (16, 4)])
def test_codeword_index_round_trip(q, k):
    rng = random.Random(q * 100 + k)
    idx = np.array([0, q**k - 1] + [rng.randrange(q**k) for _ in range(50)])
    vecs = codes._digits(idx, q, k)
    assert vecs.dtype == np.uint8 and vecs.shape == (len(idx), k)
    assert (vecs @ codes._places(q, k)).tolist() == idx.tolist()
    assert vecs.tolist() == [[i // q ** (k - 1 - j) % q for j in range(k)]
                             for i in idx.tolist()]


@pytest.mark.parametrize("q,ell,m", [(2, 2, 5), (3, 2, 4), (4, 1, 3),
                                    (3, 3, 3)])
def test_fiber_labels_in_product_order(q, ell, m):
    field = GF(2, 2) if q == 4 else GF(q)
    assert codes._fiber_labels(CodeSpec(field, ell, m)) == [
        ",".join(map(str, nu))
        for nu in itertools.product(range(q), repeat=m - ell)]


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
        codeword_weight(func, spec, point_table(spec))


def test_weight_distribution_c24_q2(f2):
    dist = weight_distribution(Code(CodeSpec(f2, 2, 4)))
    assert dist.counts == {0: 1, 16: 35, 20: 28}
    dist.check_invariants()
    assert dist.min_weight() == 16 and dist.second_weight() == 20


def test_weight_distribution_c24_q3(f3):
    dist = weight_distribution(Code(CodeSpec(f3, 2, 4)))
    assert dist.counts == {0: 1, 81: 260, 90: 468}
    assert dist.total() == 3**6


def test_weight_distribution_c24_q4():
    f4 = GF(2, 2)
    dist = weight_distribution(Code(CodeSpec(f4, 2, 4)))
    q = 4
    assert dist.min_weight() == q**4
    assert dist.second_weight() == q**4 + q**2
    assert set(dist.counts) == {0, q**4, q**4 + q**2}
    assert dist.total() == q**6


def test_wht_agrees_with_direct_sweep(f2):
    """The histogram and the per-class view of the weight array agree."""
    spec = CodeSpec(f2, 2, 5)
    dist = weight_distribution(Code(spec))
    counts = {}
    for _, w in class_weights(Code(spec)):
        counts[w] = counts.get(w, 0) + 1
    counts[0] = 1
    assert dist.counts == counts


def test_weight_distribution_c24_q7():
    dist = weight_distribution(Code(CodeSpec(GF(7), 2, 4)))
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
    code = Code(spec)
    table = code.table
    weights = weight_array(code)
    assert weights.shape == (q**k,) and weights.dtype == np.int32
    assert np.flatnonzero(weights == 0).tolist() == [0]
    _assert_codeword_weights(spec, table, weights,
                             f"{p}^{e}:{modulus}:{ell}:{m}:{alpha}")


@pytest.mark.parametrize("p,e,modulus,ell,m,alpha", ENGINE_CODES,
                         ids=lambda v: "".join(map(str, v))
                         if isinstance(v, tuple) else str(v))
def test_minors_table_normalizes_to_point_table(p, e, modulus, ell, m, alpha):
    # Code.table holds each point's right-echelon minors, cell after cell
    # of the support: 1 at the cell's pivot tuple and 0 at every later
    # tuple; normalized in one pass, they are point_table
    field = GF(p, e, modulus=modulus)
    spec = CodeSpec(field, ell, m, alpha)
    raw = Code(spec).table
    assert raw.shape == (spec.n, spec.k) and raw.dtype == np.uint8
    start = 0
    for j, cell in enumerate(spec.support):
        rows = raw[start:start + field.q ** delta(cell)]
        assert (rows[:, j] == 1).all() and not rows[:, j + 1:].any(), cell
        start += len(rows)
    assert start == spec.n
    assert np.array_equal(codes._normalize_rows(field, raw.copy()),
                          point_table(spec))


def _assert_codeword_weights(spec, table, weights, seed):
    """``weights`` agrees with ``codeword_weight`` on seeded samples from
    every weight class, so that a wrong labelling, which permutes the
    codewords, also meets the rare minimum weight."""
    q, k = spec.field.q, spec.k
    rng = random.Random(seed)
    for w in np.unique(weights[1:]):
        hits = np.flatnonzero(weights == w)
        for idx in (int(hits[rng.randrange(len(hits))]) for _ in range(6)):
            vec = [idx // q ** (k - 1 - i) % q for i in range(k)]
            func = DualFunctional.from_vector(vec, spec.ell, spec.m,
                                              spec.field, spec.support)
            assert codeword_weight(func, spec, table) == w, vec


@pytest.mark.parametrize("spec", [CodeSpec(GF(3), 2, 4),
                                  CodeSpec(GF(2, 2), 2, 4, alpha=(2, 4))],
                         ids=["C24-F3", "C24-alpha24-F4"])
def test_class_weights_order(spec):
    q, k = spec.field.q, spec.k
    pairs = list(class_weights(Code(spec)))
    assert [vec for vec, _ in pairs] == list(class_representatives(q, k))
    weights = weight_array(Code(spec))
    for vec, w in pairs:
        assert w == weights[sum(c * q ** (k - 1 - i) for i, c in enumerate(vec))]


def test_memory_ceiling_refuses_before_allocating(monkeypatch):
    spec = CodeSpec(GF(2, 2), 2, 6)  # 4^15 codewords: 8 GiB per int64 array

    def no_table(spec):
        raise AssertionError("point table built for a refused sweep")
    monkeypatch.setattr(codes, "minors_table", no_table)
    with pytest.raises(BudgetExceeded, match="bytes"):
        weight_array(Code(spec))
    with pytest.raises(BudgetExceeded, match="bytes"):
        # the Schubert code C_(4,6)(2,6) sweeps 4^14 codewords: 4 GiB
        weight_distribution(Code(CodeSpec(GF(2, 2), 2, 6, alpha=(4, 6))),
                            budget=10**20)
    with pytest.raises(BudgetExceeded, match="bytes"):
        next(class_weights(Code(spec)))


def test_check_work_refuses_first_piece_in_order(f2):
    spec = CodeSpec(f2, 3, 6)  # 1 048 575 classes of 1395 points
    check_work(spec, [])
    check_work(spec, [], budget=1)
    check_work(spec, ["table", "sweep", "strings"], budget=10**10)
    # the table is priced in bytes only, so the sweep refuses first
    with pytest.raises(BudgetExceeded, match="^sweep requires "
                       r"~1462762125 operations, budget is 1000$"):
        check_work(spec, ["table", "sweep", "zanella"], budget=1000)
    # without a budget the zanella reports refuse on bytes, first in list
    # order although the sweep fits
    with pytest.raises(BudgetExceeded, match="^--suite zanella requires "
                       r"~21273489600 bytes, budget is 2147483648$"):
        check_work(spec, ["zanella", "sweep"])
    # C(2,4): 7 classes on the strings coefficients, 63 in a sweep
    with pytest.raises(BudgetExceeded, match="^--suite strings requires "
                       r"~245 operations, budget is 100$"):
        check_work(CodeSpec(f2, 2, 4), ["strings", "sweep"], budget=100)


def test_budget_enforced(f2):
    spec = CodeSpec(f2, 2, 5, alpha=(2, 5))  # a Schubert code: a sweep
    with pytest.raises(BudgetExceeded) as exc:
        weight_distribution(Code(spec), budget=100)
    assert exc.value.required > 100
    # generous budget passes
    weight_distribution(Code(spec), budget=10**7)


def test_split_priced_as_one_inner_sweep_per_rank_class(f2):
    # C(2,4): 2 rank classes of f' on F_2^3, each a sweep of C(1,3),
    # 7 classes of 7 points
    spec = CodeSpec(f2, 2, 4)
    with pytest.raises(BudgetExceeded,
                       match=r"^split requires ~98 operations, budget is 97$"):
        weight_distribution(Code(spec), budget=97)
    assert weight_distribution(Code(spec), budget=98).counts == \
        _nogin_distribution(4, 2)


def test_schubert_distribution_c14(f2):
    """C_(1,4)(2, 4) over F_2 is a [7, 3, 4] code (a simplex code)."""
    spec = CodeSpec(f2, 2, 4, alpha=(1, 4))
    dist = weight_distribution(Code(spec))
    assert dist.counts == {0: 1, 4: 7}
    assert schubert_min_distance((1, 4), 4, 2) == 4


def test_schubert_min_distance_attained(f2, f3):
    for field, alpha, m in [(f2, (1, 4), 4), (f2, (2, 4), 4), (f3, (1, 4), 4),
                            (f2, (2, 5), 5)]:
        ell = len(alpha)
        spec = CodeSpec(field, ell, m, alpha=alpha)
        dist = weight_distribution(Code(spec))
        assert dist.min_weight() == schubert_min_distance(alpha, m, field.q)


@st.composite
def schubert_codes(draw):
    """A Schubert code C_alpha(ell, m) with at most 10^5 codewords over a
    field of order at most 9."""
    p, e = draw(st.sampled_from(SMALL_FIELDS))
    field = GF(p, e)
    m = draw(st.integers(1, 6))
    ell = draw(st.integers(1, m))
    spec = CodeSpec(field, ell, m, draw(st.sampled_from(index_tuples(ell, m))))
    assume(field.q**spec.k <= 10**5)
    return spec


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(schubert_codes())
def test_schubert_min_distance_is_q_delta(spec):
    weights = weight_array(Code(spec))
    assert int(weights[1:].min()) == \
        schubert_min_distance(spec.alpha, spec.m, spec.field.q)


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
    report = verify_nogin(Code(CodeSpec(GF(q), ell, m)))
    assert report["pass"], report


@pytest.mark.parametrize("q,ell,m", [(2, 2, 4), (3, 2, 4), (2, 2, 5)])
def test_verify_second_weight(q, ell, m):
    report = verify_second_weight(Code(CodeSpec(GF(q), ell, m)))
    assert report["pass"], report


@pytest.mark.parametrize("q,ell,m", [(2, 2, 4), (2, 2, 5), (3, 2, 4)])
def test_verify_attained_family(q, ell, m):
    report = verify_attained_family(Code(CodeSpec(GF(q), ell, m)),
                                    max_samples=50)
    assert report["pass"], report
    # (q-1) q^(|Delta(theta)| - 1) members fit under the cap: all checked
    check = report["checks"][0]
    assert check["sampled"] == check["family"] == (q - 1) * q**2


def _attained_oracle(code: Code, max_samples: int = 200) -> list[dict]:
    """Every sampled member of the attained family as a failure entry,
    weighed point by point: ``codeword_weight`` on the table and
    ``evaluate_rows`` on Omega_theta, both independent of the transform."""
    spec = code.spec
    field, ell, m, q = spec.field, spec.ell, spec.m, spec.field.q
    theta = special_theta(ell, m)
    gamma = tuple(range(m - ell, m))
    dtheta = delta_set(theta, m)
    free = [a for a in dtheta if a != gamma]
    table = code.table
    off = [spec.support.index(a) for a in dtheta]
    omega = table[~table[:, off].any(axis=1)]
    expected = []
    for c_theta, *c_free in codes._attained_sample(q, len(free), max_samples):
        coeffs = {theta: c_theta, gamma: 1, **dict(zip(free, c_free))}
        func = DualFunctional(field, ell, m, coeffs)
        meet = int(np.count_nonzero(func.evaluate_rows(omega) == 0))
        expected.append({"functional": func.to_json_dict(),
                         "weight": codeword_weight(func, spec, table),
                         "omega_meet": meet})
    return expected


ATTAINED_ORACLE_CODES = [(GF(2, 2), 2, 4), (GF(3, 2), 2, 4), (GF(5), 2, 5),
                         (GF(2), 3, 6)]


@pytest.mark.parametrize("field,ell,m", ATTAINED_ORACLE_CODES,
                         ids=["C24-F4", "C24-F9", "C25-F5", "C36-F2"])
def test_attained_family_matches_pointwise_oracle(field, ell, m):
    code = Code(CodeSpec(field, ell, m))
    report = verify_attained_family(code)
    oracle = _attained_oracle(code)
    assert report["pass"], report
    assert report["checks"][0]["sampled"] == len(oracle)
    assert report["expected_weight"] == second_min_weight(code.spec)
    assert {o["weight"] for o in oracle} == {report["expected_weight"]}
    assert {o["omega_meet"] for o in oracle} == \
        {report["expected_omega_meet"]}


@pytest.mark.parametrize("field,ell,m", ATTAINED_ORACLE_CODES,
                         ids=["C24-F4", "C24-F9", "C25-F5", "C36-F2"])
def test_attained_family_failures_carry_oracle_values(monkeypatch, field,
                                                      ell, m):
    # one weight more than the true d2: every sampled member must fail, in
    # sample order, with the weight and meet the oracle finds
    d2 = second_min_weight(CodeSpec(field, ell, m))
    monkeypatch.setattr(codes, "second_min_weight", lambda spec: d2 + 1)
    code = Code(CodeSpec(field, ell, m))
    report = verify_attained_family(code)
    check = report["checks"][0]
    assert not report["pass"] and not check["pass"]
    assert report["expected_weight"] == d2 + 1
    assert check["failures"] == _attained_oracle(code)
    assert len(check["failures"]) == check["sampled"]


@pytest.mark.parametrize("bad", [0, -1])
def test_verify_attained_family_rejects_empty_sample(f2, bad):
    with pytest.raises(ValueError):
        verify_attained_family(Code(CodeSpec(f2, 2, 4)), max_samples=bad)


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
        code = Code(CodeSpec(field, ell, m))
        last = [a for a in code.spec.support if a[-1] == m]
        for vec in class_representatives(field.q, len(last)):
            func = DualFunctional.from_vector(vec, ell, m, field, last)
            report = verify_string_section(code, func)
            assert report["pass"], report


def test_string_section_fibers_match_string_fiber(f2, f3):
    """The suite's fiber counts are the points of each string_fiber on the
    hyperplane, and its truncated count the points of G(ell-1, m-1)."""
    for field, ell, m, text in [(f2, 1, 3, "X:3"), (f3, 2, 4, "X:1,4 + 2*X:3,4"),
                                (f2, 3, 5, "X:1,2,5 + X:3,4,5"),
                                (f3, 2, 5, "X:2,5 + X:4,5")]:
        func = parse_functional(text, ell, m, field)
        report = verify_string_section(Code(CodeSpec(field, ell, m)), func)
        expected = {",".join(map(str, nu)):
                    sum(1 for mat in string_fiber(nu, ell, m, field)
                        if not func.evaluate(plucker(mat).coords))
                    for nu in itertools.product(range(field.q), repeat=m - ell)}
        assert report["fiber_counts"] == expected
        if ell >= 2:
            reduced = DualFunctional(field, ell - 1, m - 1,
                                     {a[:-1]: c for a, c in func.coeffs.items()})
            sub = sum(1 for mat in enumerate_grassmannian(ell - 1, m - 1, field)
                      if not reduced.evaluate(plucker(mat).coords))
            assert report["checks"][1]["rhs"] == sub


def test_verify_string_section_rejects_bad_support(f2):
    func = parse_functional("X:1,2", 2, 4, f2)
    with pytest.raises(ValueError):
        verify_string_section(Code(CodeSpec(f2, 2, 4)), func)


def test_verify_zanella_incidence(f2):
    code = Code(CodeSpec(f2, 2, 4))
    for text in ["X:3,4", "X:1,2 + X:3,4", "X:1,4 + X:2,3"]:
        report = verify_zanella_incidence(code,
                                          parse_functional(text, 2, 4, f2))
        assert report["pass"], report


def test_zanella_counts_match_point_oracle(monkeypatch, f2, f3):
    # C(2,2): the one point is off X:1,2, an empty section; C(2,3), and
    # C(1,4) in 8-byte blocks, end on a block of fewer class numbers than
    # subspaces
    cases = [(f2, 2, 4, "X:1,4 + X:2,3"), (f3, 2, 4, "X:1,2 + 2*X:3,4 + X:2,4"),
             (f2, 3, 5, "X:1,2,3 + X:2,4,5"), (f3, 1, 3, "X:1"),
             (f2, 2, 3, "X:1,2"), (f3, 1, 4, "X:1 + X:2"),
             (f3, 2, 2, "X:1,2")]
    for block_bytes in (codes._ANNIHILATOR_BYTES, 8):
        # 8 bytes: each block holds just the bins of the histogram, so a
        # section spans several blocks
        monkeypatch.setattr(codes, "_ANNIHILATOR_BYTES", block_bytes)
        for field, ell, m, text in cases:
            func = parse_functional(text, ell, m, field)
            report = verify_zanella_incidence(Code(CodeSpec(field, ell, m)),
                                              func)
            on_pi = [mat for mat in enumerate_grassmannian(ell, m, field)
                     if not func.evaluate(plucker(mat).coords)]
            assert report["section_size"] == len(on_pi)
            assert report["sub_counts"] == [
                sum(1 for mat in on_pi if _point_in_kernel(mat, u))
                for u in class_representatives(field.q, m)]


def test_zanella_equality_case(f2):
    # all covector counts coincide for v1^v2 + v3^v4, forcing equality
    report = verify_zanella_incidence(Code(CodeSpec(f2, 2, 4)),
                                      parse_functional("X:1,2 + X:3,4", 2, 4, f2))
    names = [c["identity"] for c in report["checks"]]
    assert "incidence-equality" in names


@pytest.mark.parametrize("q,ell,m", [(2, 2, 4), (3, 2, 4), (4, 2, 4),
                                    (2, 2, 5), (2, 3, 5), (2, 1, 3),
                                    (4, 3, 4), (4, 1, 4)])
def test_all_class_reports_match_per_functional(q, ell, m):
    """The strings and Zanella suites over every class give, class by
    class, the report of the suite on that one functional (for ell = 1
    without a truncation check)."""
    field = GF(2, 2) if q == 4 else GF(q)
    spec = CodeSpec(field, ell, m)
    code = Code(spec)
    last = [a for a in spec.support if a[-1] == m]
    for every, one, support in ((verify_string_sections,
                                 verify_string_section, last),
                                (verify_zanella_incidences,
                                 verify_zanella_incidence, spec.support)):
        reference = [one(code, DualFunctional.from_vector(vec, ell, m, field,
                                                          support))
                     for vec in class_representatives(q, len(support))]
        assert _jsonify(every(code)) == _jsonify(reference)


@pytest.mark.parametrize("field", [GF(2), GF(3)], ids=["F2", "F3"])
def test_top_cell_spec_is_the_grassmann_code(field):
    """alpha = (m-ell+1, ..., m) gives the Grassmann code itself: the
    strings and Zanella functions report on it as on the plain spec, and a
    proper Schubert spec is still refused."""
    text = "X:1,4 + X:3,4"
    suites = [
        lambda code: codes.string_partition(code, False),
        lambda code: codes.string_partition(code, True),
        verify_string_sections, verify_zanella_incidences,
        lambda code: verify_string_section(
            code, parse_functional(text, 2, 4, field)),
        lambda code: verify_zanella_incidence(
            code, parse_functional(text, 2, 4, field)),
    ]
    for run in suites:
        assert _jsonify(run(Code(CodeSpec(field, 2, 4, alpha=(3, 4))))) == \
            _jsonify(run(Code(CodeSpec(field, 2, 4))))
        with pytest.raises(ValueError, match="Grassmann"):
            run(Code(CodeSpec(field, 2, 4, alpha=(2, 4))))


def test_trace_dual_built_once_per_field():
    # every _table_weights call reads it; equal fields share one table
    dual = codes._trace_dual(GF(2, 4))
    assert codes._trace_dual(GF(2, 4)) is dual
    assert not dual.flags.writeable


def test_all_class_suites_refuse_before_work(monkeypatch, f2):
    # C(3,6)/F_2: 1 048 575 Zanella reports of 63 counts; C(4,8)/F_2:
    # 2^35 - 1 strings reports
    def no_cells(*args):
        raise AssertionError("cell built for refused reports")
    for module in (codes, grassmann):
        monkeypatch.setattr(module, "cell_matrices", no_cells)
        monkeypatch.setattr(module, "schubert_minors", no_cells)
    for every, spec in ((verify_zanella_incidences, CodeSpec(f2, 3, 6)),
                        (verify_string_sections, CodeSpec(f2, 4, 8))):
        with pytest.raises(BudgetExceeded, match="bytes"):
            every(Code(spec))
    with pytest.raises(ValueError, match="Grassmann"):
        verify_zanella_incidences(Code(CodeSpec(f2, 2, 4, (2, 4))))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_verify_l2_dichotomy(q):
    field = GF(2, 2) if q == 4 else GF(q)
    report = verify_l2_dichotomy(Code(CodeSpec(field, 2, 4)))
    assert report["pass"], report


# -- Nogin and two-weight suites by duality -----------------------------------

def _rank_oracle(spec):
    """The per-class path: the rank test on every scalar class.  Returns the
    decomposable representatives and their number."""
    found = set()
    n_dec = 0
    for vec in class_representatives(spec.field.q, spec.k):
        func = DualFunctional.from_vector(vec, spec.ell, spec.m, spec.field)
        if check_functional(func):
            found.add(vec)
            n_dec += 1
    return found, n_dec


def _multiples(field, rows):
    """Codeword indices of every nonzero multiple of the rows."""
    q, k = field.q, len(rows[0])
    return sorted(sum(field.mul(t, c) * q ** (k - 1 - i)
                      for i, c in enumerate(row))
                  for row in rows for t in range(1, q))


def _digits(i, q, k):
    """The coefficient vector of codeword index i."""
    return [i // q ** (k - 1 - j) % q for j in range(k)]


def _vector(spec, functional_json):
    """The coefficient vector of a functional in report form."""
    func = DualFunctional(spec.field, spec.ell, spec.m,
                          {tuple(map(int, a.split(","))): int(c)
                           for a, c in functional_json.items()})
    return func.vector()


@pytest.mark.parametrize("field,ell,m", [
    (GF(2), 2, 4), (GF(3), 2, 4), (GF(2, 2), 2, 4), (GF(2), 2, 5),
    (GF(2), 3, 5)], ids=["C24-F2", "C24-F3", "C24-F4", "C25-F2", "C35-F2"])
def test_decomposable_table_matches_rank_oracle(field, ell, m):
    spec = CodeSpec(field, ell, m)
    rows = decomposable_table(Code(spec))
    assert rows.dtype == np.uint8 and rows.shape[1] == spec.k
    found, n_dec = _rank_oracle(spec)
    assert set(map(tuple, rows.tolist())) == found
    assert len(rows) == n_dec == gaussian_binomial(m, ell, field.q)
    report = verify_nogin(Code(spec))
    assert report["checks"][1]["lhs"] == n_dec


@st.composite
def grassmann_codes(draw):
    """A Grassmann code with at most 10^5 codewords over a field of order
    at most 9, ell = m included."""
    p, e = draw(st.sampled_from(SMALL_FIELDS))
    field = GF(p, e)
    m = draw(st.integers(1, 6))
    spec = CodeSpec(field, draw(st.integers(1, m)), m)
    assume(field.q**spec.k <= 10**5)
    return spec


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(grassmann_codes())
def test_dual_grassmannian_is_minimum_weight_set(spec):
    rows = decomposable_table(Code(spec)).tolist()
    weights = weight_array(Code(spec))
    assert _multiples(spec.field, rows) == \
        np.flatnonzero(weights == min_distance(spec)).tolist()


def test_nogin_report_layout(f3):
    spec = CodeSpec(f3, 2, 5)
    report = verify_nogin(Code(spec))
    assert [c["identity"] for c in report["checks"]] == [
        "min-weight-iff-decomposable", "decomposable-class-count",
        "rank-cross-check"]
    cross = report["checks"][2]
    assert (cross["decomposable"], cross["sampled"]) == (1210, 200)
    assert report == verify_nogin(Code(spec))  # the sample seed is fixed
    # fewer nondecomposable classes than the cap: all are checked
    cross = verify_nogin(Code(CodeSpec(GF(2), 2, 4)))["checks"][2]
    assert (cross["decomposable"], cross["sampled"]) == (35, 28)
    checks = verify_l2_dichotomy(Code(CodeSpec(f3, 2, 4)))["checks"]
    assert [c["identity"] for c in checks] == ["two-weight", "rank-cross-check"]
    assert checks[0]["nondecomposable_classes"] == 364 - 130


def test_flipped_shuffle_sign_fails_nogin(monkeypatch, f3):
    spec = CodeSpec(f3, 2, 4)
    true_rows = set(map(tuple, decomposable_table(Code(spec)).tolist()))
    monkeypatch.setattr(codes, "shuffle_sign",
                        lambda a, m: -exterior.shuffle_sign(a, m)
                        if a == (1, 2) else exterior.shuffle_sign(a, m))
    wrong_rows = set(map(tuple, decomposable_table(Code(spec)).tolist()))
    assert wrong_rows != true_rows
    report = verify_nogin(Code(spec))
    assert not report["pass"]
    check, _, cross = report["checks"]
    assert not check["pass"] and not cross["pass"]
    # one failure per class, each a class of the symmetric difference
    listed = [_vector(spec, f["functional"]) for f in check["failures"]]
    assert len(listed) == len(set(listed))
    assert set(listed) == true_rows ^ wrong_rows
    assert [f["decomposable"] for f in check["failures"]] == \
        [vec in wrong_rows for vec in listed]


@pytest.mark.parametrize("delta", [1, -1])
def test_corrupted_weight_array_fails_nogin(monkeypatch, f3, delta):
    spec = CodeSpec(f3, 2, 4)
    d, q, k = min_distance(spec), 3, spec.k
    weights = weight_array(Code(spec))
    # a non-normalized codeword: twice a decomposable one (delta = 1), or
    # twice a nondecomposable one (delta = -1)
    target = [i for i in np.flatnonzero(weights == d if delta > 0
                                        else weights > d).tolist()
              if next(c for c in _digits(i, q, k) if c) == 2][0]
    weights[target] = d + delta
    monkeypatch.setattr(codes, "weight_array", lambda code: weights)
    report = verify_nogin(Code(spec))
    assert not report["pass"]
    assert report["checks"][0]["failures"] == [
        {"functional": DualFunctional.from_vector(
            _digits(target, q, k), 2, 4, f3).to_json_dict(),
         "weight": d + delta, "decomposable": delta > 0}]
    assert report["checks"][2]["pass"]  # the rank test is not affected


def test_nogin_lists_each_failing_class_once(monkeypatch, f3):
    # C(2,4)/F_3: both multiples of a decomposable class c and the double
    # of a nondecomposable class c' fail; c is listed once, at its first
    # bad index (c itself), and c' at 2 c'
    spec = CodeSpec(f3, 2, 4)
    d, q, k = min_distance(spec), 3, spec.k
    weights = weight_array(Code(spec))
    index = {tuple(_digits(i, q, k)): i for i in range(q**k)}
    dec = tuple(decomposable_table(Code(spec))[0].tolist())
    other = next(tuple(_digits(i, q, k)) for i in np.flatnonzero(
        weights > d).tolist() if next(c for c in _digits(i, q, k) if c) == 1)
    double = [tuple(f3.mul(2, c) for c in vec) for vec in (dec, other)]
    for vec in (dec, double[0]):
        weights[index[vec]] = d + 1
    weights[index[double[1]]] = d - 1
    monkeypatch.setattr(codes, "weight_array", lambda code: weights)
    failures = verify_nogin(Code(spec))["checks"][0]["failures"]
    listed = sorted([(index[dec], dec, d + 1, True),
                     (index[double[1]], double[1], d - 1, False)])
    assert failures == [
        {"functional": DualFunctional.from_vector(
            vec, 2, 4, f3).to_json_dict(), "weight": w, "decomposable": flag}
        for _, vec, w, flag in listed]


def test_corrupted_weight_array_fails_l2(monkeypatch, f3):
    spec = CodeSpec(f3, 2, 4)
    weights = weight_array(Code(spec))
    target = int(np.flatnonzero(weights > min_distance(spec))[0])
    weights[target] -= 1
    monkeypatch.setattr(codes, "weight_array", lambda code: weights)
    report = verify_l2_dichotomy(Code(spec))
    assert not report["pass"]
    assert report["checks"][0]["failures"] == [
        {"functional": DualFunctional.from_vector(
            _digits(target, 3, 6), 2, 4, f3).to_json_dict(),
         "meet": spec.n - int(weights[target])}]


def test_rank_cross_check_reports_disagreement(monkeypatch, f2):
    # a rank test that calls every functional decomposable (rank ell)
    monkeypatch.setattr(codes, "annihilator_ranks",
                        lambda field, ell, m, vecs: np.full(len(vecs), ell))
    for report in (verify_nogin(Code(CodeSpec(f2, 2, 4))),
                   verify_l2_dichotomy(Code(CodeSpec(f2, 2, 4)))):
        cross = report["checks"][-1]
        assert not report["pass"] and not cross["pass"]
        # every nondecomposable class sampled (28 of them) is listed
        assert len(cross["failures"]) == cross["sampled"] == 28
        assert all(f["decomposable"] is True for f in cross["failures"])
        assert all(c["pass"] for c in report["checks"][:-1])


def test_decomposable_table_rejects_schubert(f2):
    with pytest.raises(ValueError):
        decomposable_table(Code(CodeSpec(f2, 2, 4, alpha=(1, 4))))


# -- generator rank and the byte ceiling on tables -------------------------------

@pytest.mark.parametrize("field,ell,m", [
    (GF(2), 3, 6), (GF(3), 2, 5), (GF(2, 2), 2, 4), (GF(3, 2), 2, 4),
    (GF(3), 1, 3)], ids=["C36-F2", "C25-F3", "C24-F4", "C24-F9", "C13-F3"])
def test_table_rank_matches_linalg_rank(field, ell, m):
    table = point_table(CodeSpec(field, ell, m))
    rng = np.random.default_rng(0)
    mixed = table.copy()
    # column 0 becomes c times column 1 plus column 2: rank k - 1
    c = field.q - 1
    mixed[:, 0] = field.add_array[field.mul_array[c, table[:, 1]], table[:, 2]] \
        if table.shape[1] > 2 else 0
    # full rank only through a row the evenly spread sample skips
    lone = table.copy()
    lone[:, 0] = 0
    lone[1, 0] = 1
    cases = [table, table[::-1], table[:, 1:], lone,
             np.concatenate([table, table[:, :1]], axis=1),  # duplicated column
             table[:3], table[rng.permutation(len(table))[:table.shape[1]]],
             mixed, np.zeros_like(table[:5])]
    for case in cases:
        assert codes._table_rank(field, case) == \
            matrix_rank(field, case.T.tolist())


def test_full_rank_detects_deficient_generator(f3):
    spec = CodeSpec(f3, 2, 4)
    gen = build_generator(spec)
    assert gen.full_rank()
    dup = gen.columns.copy()
    dup[:, 0] = dup[:, 5]
    assert not GeneratorMatrix(spec, dup).full_rank()
    assert not GeneratorMatrix(spec, gen.columns[:5]).full_rank()


def test_table_byte_ceiling_refuses_before_allocating(monkeypatch):
    f16 = GF(2, 4)
    spec = CodeSpec(f16, 2, 6)  # a 16^8-point cell: about 48 GiB of minors

    def no_cells(*args):
        raise AssertionError("cell built for a refused table")
    for module in (codes, grassmann):
        monkeypatch.setattr(module, "cell_matrices", no_cells)
        monkeypatch.setattr(module, "schubert_minors", no_cells)
    tracemalloc.start()
    try:
        for call in (lambda: point_table(spec),
                     lambda: build_generator(spec),
                     lambda: verify_string_section(
                         Code(spec), parse_functional("X:1,6", 2, 6, f16)),
                     lambda: verify_zanella_incidence(
                         Code(spec), parse_functional("X:1,2", 2, 6, f16)),
                     lambda: verify_attained_family(Code(spec))):
            with pytest.raises(BudgetExceeded, match="bytes"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_point_table_builds_no_matrices(monkeypatch, f3):
    def no_matrices(*args):
        raise AssertionError("echelon matrices built for a point table")
    monkeypatch.setattr(codes, "cell_matrices", no_matrices)
    spec = CodeSpec(f3, 2, 4)
    assert point_table(spec).tolist() == [
        list(plucker(mat).normalized().coords)
        for mat in enumerate_grassmannian(2, 4, f3)]


@pytest.mark.parametrize("p,e,ell,m", [(3, 1, 3, 6), (2, 4, 2, 4),
                                       (2, 1, 4, 7)])
def test_cell_arrays_peak_within_estimate(p, e, ell, m):
    """The tracemalloc peaks of the walk (``schubert_minors`` over the whole
    Grassmannian), of ``point_table`` and of ``Code.matrices`` each stay
    within the table price of ``check_work``."""
    spec = CodeSpec(GF(p, e), ell, m)
    top = tuple(range(m - ell + 1, m + 1))
    for build in (lambda: grassmann.schubert_minors(top, m, spec.field),
                  lambda: point_table(spec), lambda: Code(spec).matrices):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < codes._table_bytes(spec)


def _point_in_kernel(mat, u) -> bool:
    """Every row of the echelon matrix pairs to 0 with the covector u."""
    field = mat.field
    for row in mat.rows:
        acc = 0
        for x, c in zip(row, u):
            acc = field.add(acc, field.mul(x, c))
        if acc:
            return False
    return True


@pytest.mark.parametrize("p,e,ell,m", [
    (2, 2, 2, 4), (2, 3, 2, 4), (3, 2, 1, 3), (3, 2, 2, 3), (2, 2, 1, 4),
    (2, 3, 3, 4), (3, 1, 3, 3), (2, 2, 2, 2)])
def test_annihilator_classes_match_point_oracle(monkeypatch, p, e, ell, m):
    """Each point's row of ``_annihilator_classes`` holds exactly the
    numbers of the covector classes u with the point in ker u, for ell = 1,
    ell = m-1 and ell = m (an empty annihilator), in one block and in
    blocks of three points."""
    field = GF(p, e)
    code = Code(CodeSpec(field, ell, m))
    points = list(enumerate_grassmannian(ell, m, field))
    # at most 40 points, spread over every cell
    idx = np.linspace(0, len(points) - 1, min(40, len(points))).astype(int)
    mats = code.matrices[idx]
    assert mats.tolist() == [list(map(list, points[i].rows)) for i in idx]
    covectors = list(class_representatives(field.q, m))
    expected = [[c for c, u in enumerate(covectors)
                 if _point_in_kernel(points[i], u)] for i in idx]
    width = class_count(field.q, m - ell) if ell < m else 0
    assert all(len(row) == width for row in expected)
    whole = list(codes._annihilator_classes(field, mats))
    monkeypatch.setattr(codes, "_ANNIHILATOR_BYTES", 8 * max(1, width) * 3)
    blocks = list(codes._annihilator_classes(field, mats))
    assert len(whole) == 1 and len(blocks) == (-(-len(idx) // 3) if width
                                               else 1)
    for got in (whole, blocks):
        rows = np.concatenate(got)
        assert rows.shape == (len(idx), width)
        assert np.sort(rows, axis=1).tolist() == expected
    # an empty section: no class numbers
    empty = list(codes._annihilator_classes(field, mats[:0]))
    assert sum(len(block) for block in empty) == 0


def test_zanella_peak_within_blocks():
    """After the table and the matrices are built, the single-functional
    Zanella suite on C(2,4)/F_16 holds its class numbers in blocks: its
    tracemalloc peak stays within five blocks (a block and its
    temporaries, and the block before it) plus 4 bytes per point for the
    hyperplane mask over the table, although the section's class numbers
    fill several blocks."""
    f16 = GF(2, 4)
    code = Code(CodeSpec(f16, 2, 4))
    code.table, code.matrices
    func = parse_functional("X:1,2", 2, 4, f16)
    tracemalloc.start()
    try:
        report = verify_zanella_incidence(code, func)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = codes._ANNIHILATOR_BYTES
    assert report["section_size"] * class_count(16, 2) * 8 > 4 * block
    assert peak < 5 * block + 4 * code.spec.n


@pytest.mark.parametrize("ell,m", [(2, 4), (3, 5)])
def test_nondecomposable_sub_grassmannian_sections(ell, m):
    """ell = m-2: each codimension-1 sub-Grassmannian is a projective space,
    so a hyperplane either contains it or cuts it in e(m-2, m-1) points.

    For m = 4 nondecomposable hyperplanes never contain a sub-Grassmannian
    (every wedge 2-form on a 3-space factors); for m = 5 containment does
    occur, e.g. X:1,2,5 + X:3,4,5 contains all of G(3, span(v1..v4)).
    Either way the total section stays within e'(m-2, m)."""
    from grasscodes.qcombin import e_bound, e_prime_bound
    field = GF(2)
    spec = CodeSpec(field, ell, m)
    pts = list(enumerate_grassmannian(ell, m, field))
    coords = [plucker(p).coords for p in pts]
    proper = e_bound(m - 2, m - 1, 2)
    full = gaussian_binomial(m - 1, m - 2, 2)
    # the points of each sub-Grassmannian G(ell, ker u), computed once
    covectors = list(class_representatives(2, m))
    in_kernel = [[_point_in_kernel(p, u) for p in pts] for u in covectors]
    any_contained = False
    for vec in class_representatives(2, spec.k):
        func = DualFunctional.from_vector(vec, ell, m, field)
        if check_functional(func):
            continue
        on_pi = [not func.evaluate(c) for c in coords]
        assert sum(on_pi) <= e_prime_bound(ell, m, 2)
        for u, inside in zip(covectors, in_kernel):
            cnt = sum(1 for hit, kept in zip(on_pi, inside) if hit and kept)
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
        dist = weight_distribution(Code(spec))
        assert check_macwilliams(dist.counts, spec.n, field.q, spec.k)


def test_macwilliams_rejects_weights_outside_range():
    for weight in (9, -2):
        counts = {0: 1, 4: 7, weight: 3}
        assert not check_macwilliams(counts, 7, 2, 3)
        with pytest.raises(ValueError, match=f"weight {weight} outside 0..7"):
            dual_distribution(counts, 7, 2, 3)
    assert not check_macwilliams({0: 1, 4: -7}, 7, 2, 3)
    with pytest.raises(ValueError, match="negative count -7 at weight 4"):
        dual_distribution({0: 1, 4: -7}, 7, 2, 3)


def _dual_oracle(counts: dict[int, int], n: int, q: int,
                 k: int) -> dict[int, int]:
    """The dual distribution from the expanded enumerator
    q^(-k) sum_i A_i (x + (q-1) y)^(n-i) (x - y)^i, by products of
    binomial coefficient lists: O(#weights * n^2), for weights in 0..n."""
    acc = [0] * (n + 1)
    for i, a_i in counts.items():
        if not a_i:
            continue
        a = [comb(n - i, j) * (q - 1) ** j for j in range(n - i + 1)]
        b = [(-1) ** s * comb(i, s) for s in range(i + 1)]
        for j, aj in enumerate(a):
            for s, bs in enumerate(b):
                acc[j + s] += a_i * aj * bs
    size = q**k
    dual = {}
    for j, total in enumerate(acc):
        if total % size != 0:
            raise ValueError(f"MacWilliams transform not integral at weight {j}")
        b_j = total // size
        if b_j < 0:
            raise ValueError(f"MacWilliams transform negative at weight {j}")
        if b_j:
            dual[j] = b_j
    return dual


# every code the tests sweep, and the Schubert codes of the benchmark's
# sweep workload, up to n = 1210 (the oracle is quadratic in n)
SWEPT_CODES = [(p, e, modulus, ell, m, alpha)
               for p, e, modulus, ell, m, alpha in ENGINE_CODES + [
                   (2, 1, None, 2, 4, None), (2, 1, None, 2, 5, None),
                   (2, 1, None, 3, 5, None), (3, 1, None, 2, 5, None),
                   (2, 1, None, 2, 4, (1, 4)), (2, 1, None, 2, 4, (2, 4)),
                   (3, 1, None, 2, 4, (1, 4)), (2, 1, None, 2, 5, (2, 5)),
                   (2, 1, None, 3, 6, (2, 4, 6)), (2, 3, None, 2, 5, (1, 4)),
                   (3, 2, None, 2, 5, (1, 4))]
               if CodeSpec(GF(p, e, modulus=modulus), ell, m, alpha).n <= 1210]


@pytest.mark.parametrize("p,e,modulus,ell,m,alpha", SWEPT_CODES,
                         ids=lambda v: "".join(map(str, v))
                         if isinstance(v, tuple) else str(v))
def test_dual_distribution_matches_oracle(p, e, modulus, ell, m, alpha):
    spec = CodeSpec(GF(p, e, modulus=modulus), ell, m, alpha)
    counts = weight_distribution(Code(spec)).counts
    args = (counts, spec.n, spec.field.q, spec.k)
    assert dual_distribution(*args) == _dual_oracle(*args)
    assert check_macwilliams(*args)


@st.composite
def count_dicts(draw):
    """Random counts on weights 0..n; mostly inconsistent distributions,
    and for k = 0 often consistent ones."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    n = draw(st.integers(1, 40))
    counts = draw(st.dictionaries(st.integers(0, n), st.integers(0, 60),
                                  max_size=5))
    return counts, n, q, draw(st.integers(0, 3))


def _outcome(transform, args):
    try:
        return transform(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(count_dicts())
def test_dual_distribution_agrees_with_oracle(args):
    assert _outcome(dual_distribution, args) == _outcome(_dual_oracle, args)
    assert check_macwilliams(*args) == _dual_verdict(*args)


def _dual_verdict(counts: dict[int, int], n: int, q: int, k: int) -> bool:
    """The MacWilliams verdict read off the whole ``dual_distribution``."""
    try:
        dual = dual_distribution(counts, n, q, k)
    except ValueError:
        return False
    return dual.get(0) == 1 and sum(dual.values()) == q ** (n - k)


def _pinned_distributions():
    """(code name, spec, counts) of the distributions the benchmark pins."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
    pinned = json.loads(path.read_text())["distributions"]
    for name, counts in pinned.items():
        alpha, ell, m, p, e = re.fullmatch(
            r"C(?:_\(([\d,]+)\))?\((\d+),(\d+)\)/F_(\d+)(?:\^(\d+))?",
            name).groups()
        alpha = tuple(map(int, alpha.split(","))) if alpha else None
        spec = CodeSpec(GF(int(p), int(e or 1)), int(ell), int(m), alpha)
        yield name, spec, {int(w): int(c) for w, c in counts.items()}


def test_dual_distribution_priced_before_work(monkeypatch):
    def no_steps(*args):
        raise AssertionError("Krawtchouk steps started")
    # the steps run inline in the one transform loop
    monkeypatch.setattr(macwilliams, "_transform_sums", no_steps)
    # C(2,4) over F_16, n = 70 161: its n + 1 exact sums are priced over
    # the ceiling before any step
    spec = CodeSpec(GF(2, 4), 2, 4)
    counts = weight_distribution(Code(spec)).counts
    with pytest.raises(BudgetExceeded, match=r"^dual distribution requires "
                       r"~\d+ bytes, budget is 2147483648$") as refused:
        dual_distribution(counts, spec.n, 16, spec.k)
    assert refused.value.required > codes.MAX_SWEEP_BYTES
    # a length under the price reaches the steps
    with pytest.raises(AssertionError, match="steps started"):
        dual_distribution({0: 1, 4: 7}, 7, 2, 3)


def test_streamed_check_matches_dual_distribution():
    names = []
    for name, spec, counts in _pinned_distributions():
        n, q, k = spec.n, spec.field.q, spec.k
        top = max(counts)
        # the pinned one, then one word and q - 1 words moved down one
        # weight, a count off by one, a weight beyond n, a negative count
        variants = [counts,
                    {**counts, top: counts[top] - 1, top - 1: 1},
                    {**counts, top: counts[top] - (q - 1),
                     top - 1: counts.get(top - 1, 0) + (q - 1)},
                    {**counts, top: counts[top] + 1},
                    {**counts, n + 1: q - 1},
                    {**counts, top: -counts[top]}]
        verdicts = [check_macwilliams(c, n, q, k) for c in variants]
        assert verdicts == [_dual_verdict(c, n, q, k) for c in variants]
        assert verdicts[0] and not any(verdicts[3:]), name
        names.append(name)
    assert len(names) == 12


class _SkewedWeight(int):
    """A weight whose product with q comes out one too large, so that every
    recurrence step using it computes a corrupted numerator."""

    def __rmul__(self, other):
        return int(other) * int(self) + 1


def test_krawtchouk_recurrence_checked():
    counts = {0: 1, _SkewedWeight(4): 7}
    # q = 2 steps half the lengths by the reflection, with odd and even n;
    # q = 3 steps every length
    for n, q in [(7, 2), (8, 2), (7, 3)]:
        message = rf"not exact at K_\d+\(4\), n={n}, q={q}$"
        with pytest.raises(InvariantError, match=message):
            dual_distribution(counts, n, q, 3)
        # not swallowed as an inconsistent distribution
        with pytest.raises(InvariantError, match=message):
            check_macwilliams(counts, n, q, 3)


# (counts, n, k) over F_2: the lengths 1, 2 and 3 of the reflection's edge
# cases, odd and even n, A_0 = 0, weight n present and a single weight;
# {0: 1, 2: 3} and {0: 1, 4: 3} have integral duals with B_0 = 1 and the
# right sum, but a negative B_1
BINARY_DISTRIBUTIONS = [
    ({0: 1, 1: 1}, 1, 1), ({1: 1}, 1, 0), ({0: 1, 2: 1}, 2, 1),
    ({0: 1, 1: 2, 2: 1}, 2, 2), ({0: 1, 2: 3}, 2, 2), ({0: 1, 4: 3}, 4, 2),
    ({0: 1, 3: 1}, 3, 1), ({2: 3}, 3, 0),
    ({0: 1, 3: 7, 4: 7, 7: 1}, 7, 4), ({0: 1, 4: 7}, 7, 3),
    ({0: 1, 4: 14, 8: 1}, 8, 4), ({0: 1, 4: 6}, 7, 3),
    ({3: 2, 5: 1, 6: 4}, 6, 1), ({0: 1}, 5, 0), ({5: 9}, 10, 2),
]


@pytest.mark.parametrize("counts,n,k", BINARY_DISTRIBUTIONS)
def test_binary_reflection_matches_oracle(counts, n, k):
    args = (counts, n, 2, k)
    assert _outcome(dual_distribution, args) == _outcome(_dual_oracle, args)
    assert check_macwilliams(*args) == _dual_verdict(*args)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 6, 7])
def test_transform_sums_give_each_length_once(n, q):
    items = [(0, 1), (1, 2), (n, 1)]
    seen = [j for j, _ in macwilliams._transform_sums(items, n, q)]
    assert sorted(seen) == list(range(n + 1))


def test_streamed_check_peak_bounded(f2):
    # C(2,7) over F_2, n = 2667: the check holds two steps of each weight's
    # recurrence, not the n + 1 sums of ~n + k bits each (~0.9 MB)
    spec = CodeSpec(f2, 2, 7)
    counts = weight_distribution(Code(spec)).counts
    tracemalloc.start()
    try:
        assert check_macwilliams(counts, spec.n, 2, spec.k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


def _optimized_output(script: str) -> list[str]:
    """The words ``script`` prints when run under ``python -O``."""
    src = os.path.dirname(os.path.dirname(grasscodes.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True,
                          check=True).stdout.split()


def test_krawtchouk_check_survives_optimize_flag():
    script = (
        "from grasscodes.macwilliams import check_macwilliams\n"
        "from grasscodes.qcombin import InvariantError\n"
        "class Skewed(int):\n"
        "    def __rmul__(self, other):\n"
        "        return int(other) * int(self) + 1\n"
        "try:\n"
        "    check_macwilliams({0: 1, Skewed(4): 7}, 7, 2, 3)\n"
        "except InvariantError:\n"
        "    print('raised', __debug__)\n")
    assert _optimized_output(script) == ["raised", "False"]


def test_distribution_serialization(f2):
    dist = weight_distribution(Code(CodeSpec(f2, 2, 4)))
    d = dist.to_json_dict()
    assert d["counts"] == {"0": "1", "16": "35", "20": "28"}
    # every integer a string, as in the rest of the CLI's JSON
    assert d["spec"] == {"q": "2", "ell": "2", "m": "4", "n": "35", "k": "6"}
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
    assert _optimized_output(script) == ["raised", "False"]


def test_transform_divisibility_checked(monkeypatch):
    # a label map that is not the trace dual breaks the count identity
    monkeypatch.setattr(codes, "_trace_dual",
                        lambda field: np.array([0, 1, 2, 3, 4, 5, 6, 7, 7]))
    with pytest.raises(InvariantError, match="divisible"):
        weight_array(Code(CodeSpec(GF(3, 2), 2, 4)))


def test_walsh_hadamard_divisibility_checked(monkeypatch):
    # a label map that is not the trace dual still gives counts divisible
    # by q for p = 2; an off-by-one in one transform entry does not
    transform = codes._transform_swapped

    def skewed(buf, p, s):
        out = transform(buf, p, s)
        out[0, 1] += 1
        return out
    monkeypatch.setattr(codes, "_transform_swapped", skewed)
    with pytest.raises(InvariantError, match="divisible by 4"):
        weight_array(Code(CodeSpec(GF(2, 2), 2, 4)))


def test_walsh_hadamard_check_survives_optimize_flag():
    script = (
        "from grasscodes import codes\n"
        "from grasscodes.codes import Code, CodeSpec, InvariantError, "
        "weight_array\n"
        "from grasscodes.gf import GF\n"
        "transform = codes._transform_swapped\n"
        "def skewed(buf, p, s):\n"
        "    out = transform(buf, p, s)\n"
        "    out[0, 1] += 1\n"
        "    return out\n"
        "codes._transform_swapped = skewed\n"
        "try:\n"
        "    weight_array(Code(CodeSpec(GF(2, 2), 2, 4)))\n"
        "except InvariantError:\n"
        "    print('raised', __debug__)\n")
    assert _optimized_output(script) == ["raised", "False"]


def test_residue_butterfly_divisibility_checked(monkeypatch):
    # an off-by-one in one odd-p count: p N0 - n (q - p) moves by p = 3,
    # which q (p - 1) = 6 does not divide
    transform = codes._transform_swapped

    def skewed(buf, p, s):
        out = transform(buf, p, s)
        out[0, 1] += 1
        return out
    monkeypatch.setattr(codes, "_transform_swapped", skewed)
    with pytest.raises(InvariantError, match="divisible by 6"):
        weight_array(Code(CodeSpec(GF(3), 2, 4)))


def test_residue_butterfly_check_survives_optimize_flag():
    script = (
        "from grasscodes import codes\n"
        "from grasscodes.codes import Code, CodeSpec, InvariantError, "
        "weight_array\n"
        "from grasscodes.gf import GF\n"
        "transform = codes._transform_swapped\n"
        "def skewed(buf, p, s):\n"
        "    out = transform(buf, p, s)\n"
        "    out[0, 1] += 1\n"
        "    return out\n"
        "codes._transform_swapped = skewed\n"
        "try:\n"
        "    weight_array(Code(CodeSpec(GF(3), 2, 4)))\n"
        "except InvariantError:\n"
        "    print('raised', __debug__)\n")
    assert _optimized_output(script) == ["raised", "False"]


def test_int32_bound_checked(monkeypatch):
    # p (q-1) n = 2^31: a broadcast table has 2^30 rows but no memory, and
    # the bound must refuse it before any work
    def no_labels(field):
        raise AssertionError("labels built past the int32 bound")
    monkeypatch.setattr(codes, "_trace_dual", no_labels)
    spec = CodeSpec(GF(2), 2, 4)
    code = Code(spec)
    code.table = np.broadcast_to(np.zeros(spec.k, dtype=np.uint8),
                                 (2**30, spec.k))
    with pytest.raises(InvariantError, match="overflow int32"):
        weight_array(code)


def _direct_weights(field: GF, rows: np.ndarray) -> np.ndarray:
    """count_nonzero of c.x over the rows x, for every c in index order,
    through the 2-D tables."""
    q, k = field.q, rows.shape[1]
    coeffs = np.indices((q,) * k, dtype=np.uint8).reshape(k, -1).T
    values = np.zeros((len(coeffs), len(rows)), dtype=np.uint8)
    for j in range(k):
        values = field.add_array[
            values, field.mul_array[coeffs[:, j, None], rows[None, :, j]]]
    return np.count_nonzero(values, axis=1)


def _few_distinct_rows(rng, field: GF, k: int, n: int):
    """(n rows drawn from at most five distinct ones, a zero row among
    them, and the weights of that table: the direct weights of each
    distinct row times its multiplicity)."""
    values = rng.integers(0, field.q, (5, k), dtype=np.uint8)
    values[0] = 0
    pick = rng.integers(0, len(values), n)
    mult = np.bincount(pick, minlength=len(values))
    return values[pick], sum(c * _direct_weights(field, values[[i]])
                             for i, c in enumerate(mult))


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2),
                                 (2, 4)])
def test_table_weights_match_direct_evaluation(monkeypatch, p, e):
    field = GF(p, e)
    q = field.q
    lanes = set()
    histogram = codes._label_histogram

    def spy(field, table, lane):
        lanes.add(lane)
        return histogram(field, table, lane)
    monkeypatch.setattr(codes, "_label_histogram", spy)
    rng = np.random.default_rng([p, e])
    for k in range(1, 5):
        rows = rng.integers(0, field.q, (30, k), dtype=np.uint8)
        rows[3] = rows[7] = rows[11] = rows[0]  # repeated rows
        rows[5] = rows[9] = 0  # zero rows
        for case in (rows, np.zeros((4, k), dtype=np.uint8), rows[:1]):
            weights = codes._table_weights(field, case, "rows")
            assert weights.dtype == np.int32
            assert np.array_equal(weights, _direct_weights(field, case))
        # several times q^k rows, so each distinct row is labelled once:
        # in the int16 lane where 3 q^k rows fit it, and in int32
        for n in (3 * q**k, max(3 * q**k, 2**15)):
            case, expected = _few_distinct_rows(rng, field, k, n)
            weights = codes._table_weights(field, case, "rows")
            assert weights.dtype == np.int32
            assert np.array_equal(weights, expected)
    assert lanes == {np.int16, np.int32}


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2),
                                 (2, 4), (2, 3)])
def test_label_histogram_matches_swapped_indices(p, e):
    # the reference: the natural base-q index of every labelled multiple
    # over (q-1) N entries, moved by _swap_digits and counted with add.at;
    # for odd e k (F_8 always, F_4, F_16 and F_9 at odd K) one column's
    # digits straddle the swap point
    field = GF(p, e)
    q = field.q
    labels = codes._trace_dual(field)[field.mul_array[1:]]
    rng = np.random.default_rng([p, e, 19])
    cases = []
    for k in range(1, 6):
        rows = rng.integers(0, q, (40, k), dtype=np.uint8)
        rows[3] = rows[8]  # a repeated row
        rows[5] = 0  # a zero row
        cases.append(rows)
        if q**k <= 2**12:
            # three times q^k rows from a few distinct ones, a zero row
            # among them: each distinct row is labelled once
            cases.append(_few_distinct_rows(rng, field, k, 3 * q**k)[0])
    for rows in cases:
        k = rows.shape[1]
        idx = np.zeros((q - 1, len(rows)), dtype=np.int64)
        for column in rows.T:
            idx = idx * q + labels[:, column]
        expected = np.zeros((1 if p == 2 else p, q**k), dtype=np.int64)
        np.add.at(expected[0], codes._swap_digits(idx.ravel(), p, e * k), 1)
        # int16 holds the counts while (q-1) N < 2^15, as in _table_weights
        for lane in ((np.int16, np.int32) if (q - 1) * len(rows) < 2**15
                     else (np.int32,)):
            hist = codes._label_histogram(field, rows, lane)
            assert hist.dtype == lane and np.array_equal(hist, expected)


# (code, whether its count buffer, p q^k int16 counts for odd p and q^k
# for p = 2, fits in 2^18 bytes): per p, one code on each side of that
# size, where the step kernel of the odd-p transform changes.  The price
# has no fixed term, so the smallest codes, priced at a few KiB, are left
# out: C(2,4) over F_2 is priced 1 KiB against ~8 KiB of fixed overhead
SWEEP_PEAK_CODES = [
    (CodeSpec(GF(2), 2, 6), True), (CodeSpec(GF(2), 3, 6), False),
    (CodeSpec(GF(3), 2, 4), True), (CodeSpec(GF(3), 2, 5), False),
    (CodeSpec(GF(5), 2, 4), True), (CodeSpec(GF(5), 2, 5, (2, 5)), False),
    (CodeSpec(GF(7), 2, 4, (2, 4)), True), (CodeSpec(GF(7), 2, 4), False),
]


@pytest.mark.parametrize("spec,small", SWEEP_PEAK_CODES,
                         ids=[s.describe() for s, _ in SWEEP_PEAK_CODES])
def test_sweep_peak_within_price(monkeypatch, spec, small):
    # ``check_work`` prices a sweep's bytes as an upper bound: the traced
    # peak of ``weight_array`` on a built table stays under it
    field = spec.field
    rows = 1 if field.p == 2 else field.p
    assert (rows * field.q**spec.k * 2 <= 2**18) == small
    monkeypatch.setattr(codes, "MAX_SWEEP_BYTES", 0)
    with pytest.raises(BudgetExceeded) as priced:
        check_work(spec, ["sweep"])
    monkeypatch.undo()
    code = Code(spec)
    code.table
    tracemalloc.start()
    try:
        weights = weight_array(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(weights) == field.q**spec.k
    assert peak <= priced.value.required


@pytest.mark.parametrize("p", [2, 3])
def test_table_weights_lanes_agree_at_int16_boundary(monkeypatch, p):
    # (q-1) N = 2^15 - (q-1) runs in int16 and one more row in int32; the
    # extra row is zero, so both weigh the same multiset of nonzero rows
    lanes = []
    histogram = codes._label_histogram

    def spy(field, table, lane):
        lanes.append(lane)
        return histogram(field, table, lane)
    monkeypatch.setattr(codes, "_label_histogram", spy)
    field = GF(p)
    n = 2**15 // (p - 1) - 1
    rng = np.random.default_rng(p)
    for rows in (rng.integers(0, p, (n, 3), dtype=np.uint8),
                 np.tile(np.array([1, 0, 1], dtype=np.uint8), (n, 1))):
        small = codes._table_weights(field, rows, "rows")
        big = codes._table_weights(
            field, np.concatenate([rows, np.zeros((1, 3), np.uint8)]), "rows")
        assert np.array_equal(small, big)
        assert np.array_equal(small, _direct_weights(field, rows))
    assert lanes == [np.int16, np.int32] * 2


def _walsh_hadamard_oracle(f: np.ndarray) -> None:
    """In place: f(c) <- sum_y f(y) (-1)^<c, y> over F_2^r, one stage per
    bit, stage h over runs of h entries."""
    h = 1
    while h < f.size:
        a, b = f.reshape(-1, 2, h).swapaxes(0, 1)  # views
        a += b
        b *= -2
        b += a  # (a + b) - 2b = a - b
        h *= 2


@pytest.mark.parametrize("r", range(1, 15))
def test_two_phase_walsh_hadamard_matches_oracle(r):
    values = np.random.default_rng(r).integers(-50, 51, size=2**r)
    expected = values.copy()
    _walsh_hadamard_oracle(expected)
    if r <= 6:
        y = np.arange(2**r)
        parity = np.array([[bin(c & v).count("1") % 2 for v in y] for c in y])
        assert np.array_equal((1 - 2 * parity) @ values, expected)
    f = np.zeros((1, 2**r), dtype=np.int32)
    f[0, codes._swap_digits(np.arange(2**r), 2, r)] = values
    out = codes._transform_swapped(f, 2, r)
    assert out.dtype == np.int32 and np.array_equal(out[0], expected)


def _residue_butterfly_oracle(buf: np.ndarray, p: int) -> np.ndarray:
    """N[r, c] = #{y : <c, y> = r mod p} over F_p^s, y counted buf[0, y]
    times, all in natural order; buf has shape (p, p^s), zero below row 0.
    One step per digit, the step of stride lo over runs of lo entries."""
    src, dst = buf, np.empty_like(buf)
    lo = 1
    while lo < src.shape[1]:
        a, b = src.reshape(p, -1, p, lo), dst.reshape(p, -1, p, lo)
        for c in range(p):
            out = b[:, :, c]
            out[...] = a[:, :, 0]
            for y in range(1, p):
                s = c * y % p
                out[s:] += a[:p - s, :, y]
                if s:
                    out[:s] += a[p - s:, :, y]
        src, dst = dst, src
        lo *= p
    return src


# every digit count s up to 3^10, 5^6, 7^4, 11^3 and 13^2; s = 1 has an
# empty low half
RESIDUE_SIZES = [(p, s) for p, top in ((3, 10), (5, 6), (7, 4), (11, 3),
                                       (13, 2))
                 for s in range(1, top + 1)]


@pytest.mark.parametrize("lane", [np.int16, np.int32], ids=["int16", "int32"])
@pytest.mark.parametrize("p,s", RESIDUE_SIZES,
                         ids=[f"{p}^{s}" for p, s in RESIDUE_SIZES])
def test_swapped_residue_butterfly_matches_oracle(p, s, lane):
    size = p**s
    # int16 holds any total mass below 2^15; int32 gets far more
    mass = 2**15 - 1 if lane is np.int16 else 2**24
    values = np.random.default_rng([p, s]).multinomial(
        mass, np.full(size, 1 / size))
    expected = np.zeros((p, size), dtype=np.int64)
    expected[0] = values
    expected = _residue_butterfly_oracle(expected, p)
    if size <= 125:
        digits = np.arange(size)[:, None] // p ** np.arange(s) % p
        dots = digits @ digits.T % p  # dots[c, y] = <c, y>
        brute = [[values[dots[c] == r].sum() for c in range(size)]
                 for r in range(p)]
        assert np.array_equal(brute, expected)
    buf = np.zeros((p, size), dtype=lane)
    buf[0, codes._swap_digits(np.arange(size), p, s)] = values
    out = codes._transform_swapped(buf, p, s)
    assert out.dtype == lane and np.array_equal(out, expected)


@pytest.mark.parametrize("lane", [np.int16, np.int32], ids=["int16", "int32"])
def test_residue_sizes_run_both_kernels(monkeypatch, lane):
    # the sizes the oracle test checks take both odd-p step kernels in each
    # lane, so a mis-set ``_GATHER_BYTES`` cannot leave one of them unchecked
    ran = set()
    for name in ("_residue_steps", "_gather_steps"):
        def spy(*args, kernel=getattr(codes, name), name=name, **kwargs):
            ran.add(name)
            return kernel(*args, **kwargs)
        monkeypatch.setattr(codes, name, spy)
    for p, s in RESIDUE_SIZES:
        codes._transform_swapped(np.zeros((p, p**s), dtype=lane), p, s)
    assert ran == {"_residue_steps", "_gather_steps"}


@pytest.mark.parametrize("r", [1, 2, 7, 12])
def test_int16_walsh_hadamard_wraps_exactly(r):
    # total mass 2^15 - 1, 20 000 of it at y = 2^r - 1: that entry is a b
    # of the first stage, where b * -2 leaves int16 and wraps around
    values = np.random.default_rng(r).multinomial(
        2**15 - 1 - 20000, np.full(2**r, 2.0**-r))
    values[-1] += 20000
    pos = codes._swap_digits(np.arange(2**r), 2, r)
    out = {}
    for lane in (np.int16, np.int32):
        f = np.zeros((1, 2**r), dtype=lane)
        f[0, pos] = values
        out[lane] = codes._transform_swapped(f, 2, r)[0]
    expected = values.copy()
    _walsh_hadamard_oracle(expected)
    assert out[np.int16].dtype == np.int16
    assert np.array_equal(out[np.int16], out[np.int32])
    assert np.array_equal(out[np.int32], expected)


@pytest.mark.parametrize("e,m,lane", [(3, 4, np.int32), (2, 5, np.int16)],
                         ids=["C24-F8", "C25-F4"])
def test_weight_array_lane(monkeypatch, e, m, lane):
    spec = CodeSpec(GF(2, e), 2, m)
    # (q-1) n: 7 * 4745 = 33 215 for C(2,4)/F_8, 3 * 5797 for C(2,5)/F_4
    assert ((spec.field.q - 1) * spec.n >= 2**15) == (lane is np.int32)
    seen = []
    transform = codes._transform_swapped

    def recording(buf, p, s):
        seen.append(buf.dtype)
        return transform(buf, p, s)
    monkeypatch.setattr(codes, "_transform_swapped", recording)
    code = Code(spec)
    table = code.table
    weights = weight_array(code)
    assert seen == [lane] and weights.dtype == np.int32
    _assert_codeword_weights(spec, table, weights, f"lane:{e}:{m}")


# every point of C(2,4) repeated: (q-1) n just below and just above 2^15
@pytest.mark.parametrize("q,reps", [(2, 936), (2, 937), (3, 126), (3, 127)])
def test_weight_array_exact_at_lane_edge(q, reps):
    spec = CodeSpec(GF(q), 2, 4)
    code, repeated_code = Code(spec), Code(spec)
    repeated = repeated_code.table = np.tile(code.table, (reps, 1))
    assert ((q - 1) * len(repeated) < 2**15) == (reps in (936, 126))
    weights = weight_array(repeated_code)
    assert weights.dtype == np.int32
    assert np.array_equal(weights, reps * weight_array(code))


def _nogin_distribution(m: int, q: int) -> dict[int, int]:
    """Nogin (1996): a codeword of C(2, m) whose alternating form has rank
    2r weighs q^(2(m-r-1)) (q^(2r) - 1) / (q^2 - 1)."""
    return {q ** (2 * (m - r - 1)) * (q ** (2 * r) - 1) // (q**2 - 1):
            alternating_count(m, r, q) for r in range(m // 2 + 1)}


# C(2, m) and its dual C(m-2, m), which has the same distribution
@pytest.mark.parametrize("p,e,ell,m", [(2, 4, 2, 4), (2, 1, 2, 7),
                                       (2, 2, 2, 5), (2, 3, 2, 4),
                                       (3, 1, 2, 6),
                                       (2, 1, 5, 7), (2, 1, 4, 6)],
                         ids=["C24-F16", "C27-F2", "C25-F4", "C24-F8",
                              "C26-F3", "C57-F2", "C46-F2"])
def test_weight_array_matches_nogin_closed_form(p, e, ell, m):
    field = GF(p, e)
    hist = np.bincount(weight_array(Code(CodeSpec(field, ell, m))))
    counts = {w: c for w, c in enumerate(hist.tolist()) if c}
    assert counts == _nogin_distribution(m, field.q)


def _alternating_matrices(field: GF, m: int, vecs: np.ndarray) -> np.ndarray:
    """The (N, m, m) alternating matrices with entry c_a at a = (i, j),
    i < j, and -c_a at (j, i), for coefficient rows over index_tuples(2, m)."""
    mats = np.zeros((len(vecs), m, m), dtype=np.uint8)
    for col, (i, j) in enumerate(index_tuples(2, m)):
        mats[:, i - 1, j - 1] = vecs[:, col]
        mats[:, j - 1, i - 1] = field.neg_array[vecs[:, col]]
    return mats


@pytest.mark.parametrize("q,m", [(2, 4), (3, 4), (2, 5)])
def test_weight_array_matches_rank_of_every_codeword(q, m):
    # per codeword: the weight of c is the Nogin weight of the rank 2r of
    # its alternating matrix, row-reduced on its own
    field = GF(q)
    spec = CodeSpec(field, 2, m)
    k = spec.k
    idx = np.arange(q**k)
    vecs = (idx[:, None] // q ** np.arange(k - 1, -1, -1) % q).astype(np.uint8)
    r = ranks(field, _alternating_matrices(field, m, vecs)) // 2
    nogin = q ** (2 * (m - r - 1)) * (q ** (2 * r) - 1) // (q**2 - 1)
    assert np.array_equal(weight_array(Code(spec)), nogin)


# (p, e, modulus, ell, m): every Grassmann code the split can take that
# sweeps in test time, odd q, extension fields and ell in {1, m-1} among
# them
SPLIT_CODES = [
    (2, 1, None, 2, 4), (3, 1, None, 2, 4), (5, 1, None, 2, 4),
    (7, 1, None, 2, 4), (2, 2, None, 2, 4), (2, 3, None, 2, 4),
    (3, 2, None, 2, 4), (3, 2, (2, 2, 1), 2, 4), (2, 4, None, 2, 4),
    (2, 1, None, 2, 5), (3, 1, None, 2, 5), (2, 2, None, 2, 5),
    (2, 1, None, 3, 5), (3, 1, None, 3, 5), (2, 1, None, 3, 6),
    (2, 1, None, 2, 6), (3, 1, None, 2, 6), (2, 1, None, 4, 6),
    (2, 1, None, 2, 7), (2, 1, None, 5, 7),
    (2, 1, None, 1, 2), (2, 1, None, 1, 4), (3, 1, None, 1, 4),
    (2, 2, None, 1, 3), (11, 1, None, 1, 3), (3, 1, None, 3, 4),
    (2, 3, (1, 0, 1, 1), 2, 3), (11, 1, None, 2, 3), (2, 4, None, 2, 3),
]


@pytest.mark.parametrize("p,e,modulus,ell,m", SPLIT_CODES,
                         ids=lambda v: "".join(map(str, v))
                         if isinstance(v, tuple) else str(v))
def test_split_matches_sweep_on_every_side(p, e, modulus, ell, m):
    spec = CodeSpec(GF(p, e, modulus=modulus), ell, m)
    values, hist = np.unique(weight_array(Code(spec)), return_counts=True)
    swept = dict(zip(values.tolist(), hist.tolist()))
    sides = codes._split_sides(spec)
    assert sides and set(sides) <= {ell, m - ell}
    for s in sides:
        assert codes._split_counts(spec, s) == swept, s
    assert weight_distribution(Code(spec)).counts == swept


def test_split_sides():
    def sides(ell, m, alpha=None):
        return codes._split_sides(CodeSpec(GF(2), ell, m, alpha))
    # the complement branch of C(3,5) over F_3 above is side 3
    assert sides(3, 5) == [2, 3]
    assert sides(3, 6) == [3]
    assert sides(2, 7) == [2, 5]  # k'' = 6 before 15
    assert sides(3, 7) == [4]
    assert sides(1, 4) == [1, 3]
    assert sides(4, 8) == sides(4, 4) == sides(2, 4, (2, 4)) == []
    assert sides(2, 4, (3, 4)) == [2]  # the top cell is the Grassmann code


@pytest.mark.parametrize("q,m", [(2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
                                 (3, 5), (3, 6), (4, 5), (5, 5), (16, 4)])
def test_split_matches_nogin_closed_form(q, m):
    field = GF(2, 2) if q == 4 else GF(2, 4) if q == 16 else GF(q)
    for ell in (2, m - 2):
        dist = weight_distribution(Code(CodeSpec(field, ell, m)))
        assert dist.counts == _nogin_distribution(m, q)


C37_F2 = {0: 1, 4096: 11811, 5120: 2314956, 5376: 1763776,
          5504: 45354240, 5632: 59527440, 5760: 2243523072,
          5888: 18016971840, 5952: 13545799680, 6016: 444471552}


def test_split_c37_f2_spectrum():
    # past the sweep: 2^35 codewords, 2^20 per transform on side 4
    for ell in (3, 4):
        spec = CodeSpec(GF(2), ell, 7)
        dist = weight_distribution(Code(spec))
        assert dist.counts == C37_F2
    d2 = second_min_weight(spec)
    assert dist.counts[d2] == 2314956 == \
        gaussian_binomial(7, 5, 2) * alternating_count(5, 2, 2)
    assert check_macwilliams(dist.counts, spec.n, 2, spec.k)


def test_split_c36_f3_second_weight_count():
    spec = CodeSpec(GF(3), 3, 6)
    dist = weight_distribution(Code(spec))  # passes the Pless moments
    assert dist.total() == 3**20 and dist.min_weight() == min_distance(spec)
    assert dist.second_weight() == second_min_weight(spec)
    assert dist.counts[dist.second_weight()] == 20612592 == \
        gaussian_binomial(6, 5, 3) * alternating_count(5, 2, 3)


def test_split_refuses_before_allocating(monkeypatch):
    def no_table(spec):
        raise AssertionError("point table built for a refused split")
    monkeypatch.setattr(codes, "minors_table", no_table)
    # C(3,7) over F_3: side 4 needs a transform of 3^20 codewords
    with pytest.raises(BudgetExceeded, match="^split requires"):
        weight_distribution(Code(CodeSpec(GF(3), 3, 7)), budget=None)
    # C(2,7) over F_16: the C(2,6) table of side 2 is over the ceiling
    with pytest.raises(BudgetExceeded, match="^point table requires"):
        weight_distribution(Code(CodeSpec(GF(2, 4), 2, 7)), budget=None)


def test_rank_classes_only_where_they_exist():
    # the 3-forms on F_2^7 fall into several GL_7-orbits, not "zero and
    # nonzero", so side 3 of C(3,8) has no rank classes and no split price
    with pytest.raises(ValueError, match="no rank classes"):
        codes._rank_classes(GF(2), 3, 7)
    with pytest.raises(ValueError, match="no rank classes"):
        check_work(CodeSpec(GF(2), 3, 8), ["split"])
    # ranks 0, 2, 4, 6 of 2-forms and of their complements; zero and
    # nonzero for 1-forms and 0-forms and their complements
    for s, classes in [(1, 2), (2, 4), (5, 4), (6, 2), (7, 2)]:
        sizes = [size for _, size in codes._rank_classes(GF(2), s, 7)]
        assert len(sizes) == classes and sum(sizes) == 2 ** comb(7, s)


def test_weight_distribution_routes(monkeypatch, f2, f3):
    # a Grassmann code with a side goes through the split, with no sweep
    sweep = weight_array
    monkeypatch.setattr(codes, "weight_array", None)
    assert weight_distribution(Code(CodeSpec(f3, 2, 4))).counts == \
        {0: 1, 81: 260, 90: 468}
    # built weights are read, and so are those of a Schubert code
    monkeypatch.setattr(codes, "weight_array", sweep)
    monkeypatch.setattr(codes, "_split_counts", None)
    code = Code(CodeSpec(f2, 2, 4))
    assert code.weights.size == 2**6
    assert weight_distribution(code).counts == {0: 1, 16: 35, 20: 28}
    schubert = Code(CodeSpec(f2, 2, 4, alpha=(1, 4)))
    assert weight_distribution(schubert).counts == {0: 1, 4: 7}


def _unique_counts(weights: np.ndarray) -> dict[int, int]:
    values, hist = np.unique(weights, return_counts=True)
    return dict(zip(values.tolist(), hist.tolist()))


def test_weight_counts_match_unique():
    """``_weight_counts`` gives ``np.unique``'s histogram, keys ascending
    and zero counts left out, at every length around the block length B,
    with the top weight present or absent, and with top + 1 > B, where a
    block holds top + 1 weights."""
    block = codes._BLOCK_BYTES // np.dtype(np.int32).itemsize
    rng = np.random.default_rng(0)
    for top in (1, 9, 300, block + 10):
        for size in (0, 1, block - 1, block, block + 1, 3 * block + 5):
            for present in (True, False):
                # even weights below top, so that zero counts lie inside
                # the range
                weights = 2 * rng.integers(0, (top + 1) // 2, size,
                                           dtype=np.int32)
                if present and size:
                    weights[rng.integers(size)] = top
                counts = codes._weight_counts(weights, top)
                assert counts == _unique_counts(weights)
                assert list(counts) == sorted(counts)
                assert 0 not in counts.values()
                assert (top in counts) == (present and size > 0)
    for bad in ([0, 4], [-1, 0]):
        with pytest.raises(ValueError):
            codes._weight_counts(np.array(bad, dtype=np.int32), 3)


def test_weight_distribution_counts_a_sweep_without_unique(monkeypatch):
    # C_(2,4)(2,4) over F_9: a Schubert code, so a sweep, of 9^5 = 59 049
    # codewords, more than one block of ``_weight_counts``
    spec = CodeSpec(GF(3, 2), 2, 4, alpha=(2, 4))
    oracle = _unique_counts(weight_array(Code(spec)))
    assert sum(oracle.values()) == 9**5 > codes._BLOCK_BYTES // 4

    def no_sort(*args, **kwargs):
        raise AssertionError("np.unique called")
    monkeypatch.setattr(np, "unique", no_sort)
    assert weight_distribution(Code(spec)).counts == oracle


def test_weight_counts_peak_is_blocked():
    # np.unique sorts a copy of all 2^20 weights (4 MiB, 6 MiB traced);
    # the blocked histogram holds one block and its counts
    weights = np.random.default_rng(1).integers(0, 1396, 2**20,
                                                dtype=np.int32)
    tracemalloc.start()
    try:
        codes._weight_counts(weights, 1395)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
