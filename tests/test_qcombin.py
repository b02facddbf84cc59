import itertools
import math

import numpy as np
import pytest

from grasscodes.gf import GF
from grasscodes.linalg import ranks
from grasscodes.qcombin import (alternating_count, bruhat_leq,
                                check_index_tuple, complement,
                                delta, delta_set, e_bound,
                                e_prime_bound, format_index_tuple,
                                gaussian_binomial, index_tuples, nabla_set,
                                parse_index_tuple, verify_e_inequalities,
                                verify_gaussian_identities)


def test_index_tuples_lex_order():
    assert index_tuples(2, 4) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_index_tuples_count():
    for ell, m in [(1, 5), (2, 6), (3, 6), (3, 8)]:
        assert len(index_tuples(ell, m)) == math.comb(m, ell)


def test_check_index_tuple_rejects():
    with pytest.raises(ValueError):
        check_index_tuple((2, 2), 4)
    with pytest.raises(ValueError):
        check_index_tuple((3, 1), 4)
    with pytest.raises(ValueError):
        check_index_tuple((1, 5), 4)
    with pytest.raises(ValueError):
        check_index_tuple((0, 2), 4)
    with pytest.raises(ValueError):
        check_index_tuple((), 4)


def test_delta():
    assert delta((1, 2)) == 0
    assert delta((3, 4)) == 4
    assert delta((2, 3)) == 2
    assert delta((4, 5, 6)) == 9  # top cell of (3, 6)


def test_delta_sums_to_length():
    # sum over the cells of q^delta is the number of points
    for ell, m, q in [(2, 4, 2), (2, 4, 3), (3, 6, 2)]:
        assert sum(q ** delta(a) for a in index_tuples(ell, m)) == \
            gaussian_binomial(m, ell, q)


def test_bruhat():
    assert bruhat_leq((1, 3), (2, 4))
    assert bruhat_leq((2, 4), (2, 4))
    assert not bruhat_leq((1, 4), (2, 3))
    assert not bruhat_leq((2, 3), (1, 4))
    with pytest.raises(ValueError):
        bruhat_leq((1, 2), (1, 2, 3))


def test_nabla_and_delta_partition():
    for alpha in index_tuples(2, 5):
        down = nabla_set(alpha, 5)
        up = delta_set(alpha, 5)
        assert sorted(down + up) == index_tuples(2, 5)
        assert alpha in down


def test_nabla_example():
    assert nabla_set((1, 4), 4) == [(1, 2), (1, 3), (1, 4)]
    assert delta_set((1, 4), 4) == [(2, 3), (2, 4), (3, 4)]


def test_complement():
    assert complement((1, 3), 4) == (2, 4)
    assert complement((2, 4, 5), 6) == (1, 3, 6)
    assert complement((1, 2, 3, 4), 4) == ()


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(6, 3, 2) == 1395
    assert gaussian_binomial(5, 2, 2) == 155
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(5, 0, 7) == 1
    assert gaussian_binomial(5, 5, 7) == 1


def test_e_bounds():
    assert e_bound(2, 4, 2) == 35 - 16 == 19
    assert e_prime_bound(2, 4, 2) == 19 - 4 == 15
    assert e_bound(1, 3, 2) == 7 - 4 == 3
    with pytest.raises(ValueError):
        e_prime_bound(1, 2, 2)


def test_identities_hold_broadly():
    for q in (2, 3, 4, 5):
        for m in range(1, 9):
            for ell in range(1, m + 1):
                for chk in verify_gaussian_identities(m, ell, q):
                    assert chk["pass"], (q, m, ell, chk)


def test_e_inequalities_hold_broadly():
    for q in (2, 3, 4, 5):
        for m in range(2, 9):
            for ell in range(1, m):
                for chk in verify_e_inequalities(ell, m, q):
                    assert chk["pass"], (q, m, ell, chk)


def test_strict_inequalities_are_strict():
    checks = {c["identity"]: c for c in verify_e_inequalities(2, 5, 2)}
    assert checks["a"]["lhs"] < checks["a"]["rhs"]
    assert checks["c"]["lhs"] < checks["c"]["rhs"]


def test_tuple_serialization_roundtrip():
    for alpha in index_tuples(3, 6):
        assert parse_index_tuple(format_index_tuple(alpha), 6) == alpha
    with pytest.raises(ValueError):
        parse_index_tuple("1,x", 4)
    with pytest.raises(ValueError):
        parse_index_tuple("3,2", 4)


@pytest.mark.parametrize("q", [2, 3])
def test_alternating_count_matches_rank_count(q):
    # every alternating n x n matrix over F_q, n <= 4, row-reduced
    field = GF(q)
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        mats = np.zeros((q ** len(pairs), n, n), dtype=np.uint8)
        for idx, vec in enumerate(itertools.product(range(q),
                                                    repeat=len(pairs))):
            for (i, j), c in zip(pairs, vec):
                mats[idx, i, j], mats[idx, j, i] = c, field.neg(c)
        counts = np.bincount(ranks(field, mats), minlength=n + 1)
        assert counts[1::2].sum() == 0  # alternating ranks are even
        assert [alternating_count(n, r, q) for r in range(n // 2 + 1)] \
            == counts[::2].tolist()


def test_alternating_count_rejects():
    assert alternating_count(0, 0, 2) == 1
    for n, r in [(3, 2), (4, -1), (-1, 0)]:
        with pytest.raises(ValueError):
            alternating_count(n, r, 2)
