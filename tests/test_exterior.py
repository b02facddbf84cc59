import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grasscodes import exterior, grassmann
from grasscodes.codes import class_representatives
from grasscodes.exterior import (DualFunctional, WedgeElement,
                                 annihilator_basis, annihilator_dimension,
                                 annihilator_matrix, annihilator_ranks,
                                 check_functional, functional_to_wedge,
                                 is_decomposable, parse_functional,
                                 shuffle_sign, wedge_columns, wedge_layout,
                                 wedge_of_vectors, wedge_pairing,
                                 wedge_with_vector)
from grasscodes.gf import GF
from grasscodes.grassmann import (enumerate_grassmannian, plucker,
                                  schubert_minors)
from grasscodes.linalg import rank as matrix_rank
from grasscodes.qcombin import index_tuples


def test_shuffle_sign_small():
    # (alpha^C, alpha) for alpha = (3,4) in m = 4 is (1,2,3,4): even
    assert shuffle_sign((3, 4), 4) == 1
    # alpha = (1,2): shuffle is (3,4,1,2), 4 inversions: even
    assert shuffle_sign((1, 2), 4) == 1
    # alpha = (1,3): shuffle is (2,4,1,3), 3 inversions: odd
    assert shuffle_sign((1, 3), 4) == -1


def test_shuffle_sign_complement_relation():
    # (alpha^C, alpha) and (alpha, alpha^C) differ by a block swap of sizes
    # (m-ell, ell), so the two signs multiply to (-1)^(ell(m-ell))
    from grasscodes.qcombin import complement
    for m in (4, 5, 6):
        for ell in range(1, m):
            for alpha in index_tuples(ell, m):
                s1 = shuffle_sign(alpha, m)
                s2 = shuffle_sign(complement(alpha, m), m)
                assert s1 * s2 == (-1) ** (ell * (m - ell))


def test_functional_rejects_zero(f2):
    with pytest.raises(ValueError):
        DualFunctional(f2, 2, 4, {})
    with pytest.raises(ValueError):
        DualFunctional(f2, 2, 4, {(1, 2): 0})


def test_functional_prunes_and_validates(f3):
    f = DualFunctional(f3, 2, 4, {(1, 2): 1, (3, 4): 0, (2, 3): 2})
    assert set(f.coeffs) == {(1, 2), (2, 3)}
    with pytest.raises(ValueError):
        DualFunctional(f3, 2, 4, {(1, 2, 3): 1})


def test_functional_roundtrip_vector(f3):
    vec = (0, 1, 0, 2, 0, 1)
    f = DualFunctional.from_vector(vec, 2, 4, f3)
    assert f.vector() == vec


def test_parse_functional(f3):
    f = parse_functional("X:1,4 + 2*X:2,3", 2, 4, f3)
    assert f.coeffs == {(1, 4): 1, (2, 3): 2}
    assert str(f) == "X:1,4 + 2*X:2,3"
    with pytest.raises(ValueError):
        parse_functional("Y:1,2", 2, 4, f3)
    with pytest.raises(ValueError):
        parse_functional("5*X:1,2", 2, 4, f3)
    with pytest.raises(ValueError):
        parse_functional("X:1,2,3", 2, 4, f3)


def test_wedge_of_vectors_alternating(f3):
    v = (1, 2, 0, 1)
    assert wedge_of_vectors(f3, 4, [v, v]).is_zero()
    w = (0, 1, 1, 0)
    z1 = wedge_of_vectors(f3, 4, [v, w])
    z2 = wedge_of_vectors(f3, 4, [w, v])
    neg = {a: f3.neg(c) for a, c in z2.coeffs.items()}
    assert z1.coeffs == neg


def test_wedge_matches_minors(f3):
    """Row wedge of an echelon matrix carries exactly the Pluecker minors."""
    for mat in itertools.islice(enumerate_grassmannian(2, 4, f3), 40):
        z = wedge_of_vectors(f3, 4, [list(r) for r in mat.rows])
        p = dict(zip(index_tuples(2, 4), plucker(mat).coords))
        for alpha in index_tuples(2, 4):
            assert z.coeffs.get(alpha, 0) == p[alpha]


def test_wedge_degree_overflow(f2):
    z = wedge_of_vectors(f2, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(ValueError):
        wedge_with_vector(z, (1, 1, 1))


def test_pairing_equals_direct_evaluation(f2, f3):
    """The signed identification makes wedge pairing agree with evaluation."""
    for field in (f2, f3):
        q = field.q
        funcs = []
        rng = random.Random(11)
        for _ in range(10):
            vec = [rng.randrange(q) for _ in range(6)]
            if any(vec):
                funcs.append(DualFunctional.from_vector(vec, 2, 4, field))
        for func in funcs:
            z = functional_to_wedge(func)
            assert z.degree == 2
            for mat in enumerate_grassmannian(2, 4, field):
                w = wedge_of_vectors(field, 4, [list(r) for r in mat.rows])
                assert wedge_pairing(z, w) == func.evaluate(plucker(mat).coords)


def test_decomposable_wedges(f2, f3):
    for field in (f2, f3):
        z = wedge_of_vectors(field, 4, [(1, 0, 1, 0), (0, 1, 1, 0)])
        assert is_decomposable(z)
        assert annihilator_dimension(z) == 2
    # v1^v2 + v3^v4 is the classic nondecomposable element
    z = WedgeElement(GF(2), 4, 2, {(1, 2): 1, (3, 4): 1})
    assert not is_decomposable(z)
    assert annihilator_dimension(z) == 0


def test_wedge_str(f3):
    z = WedgeElement(f3, 4, 2, {(1, 2): 1, (3, 4): 2})
    assert str(z) == "v1^v2 + 2*v3^v4"
    assert str(WedgeElement(f3, 4, 2, {})) == "0"
    # degree 0, the wedge of a functional at ell = m: its scalar
    assert str(WedgeElement(f3, 3, 0, {(): 2})) == "2"
    assert str(WedgeElement(f3, 3, 0, {(): 1})) == "1"


def test_annihilator_basis_spans_the_rows(f3):
    z = wedge_of_vectors(f3, 4, [(1, 2, 0, 1), (0, 0, 1, 1)])
    basis = annihilator_basis(z)
    assert len(basis) == 2
    for x in basis:
        assert wedge_with_vector(z, x).is_zero()


def test_top_degree_always_decomposable(f2):
    z = wedge_of_vectors(f2, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert annihilator_dimension(z) == 3
    assert is_decomposable(z)
    # the zero wedge of top degree raises, as it does in every lower degree
    for func in (annihilator_dimension, is_decomposable, annihilator_basis):
        with pytest.raises(ValueError, match="zero wedge element"):
            func(WedgeElement(f2, 3, 3, {}))


def test_check_functional_examples(f2):
    # X:3,4 is the hyperplane of a decomposable wedge (a single coordinate)
    assert check_functional(parse_functional("X:3,4", 2, 4, f2))
    # X:1,2 + X:3,4 corresponds to v3^v4 + v1^v2, nondecomposable
    assert not check_functional(parse_functional("X:1,2 + X:3,4", 2, 4, f2))


@pytest.mark.parametrize("field", [GF(3), GF(2, 2)], ids=["F3", "F4"])
def test_wedge_columns_match_wedge_with_vector(field):
    rng = np.random.default_rng(field.q)
    for m in range(1, 7):
        for i in range(m):
            basis = list(itertools.combinations(range(1, m + 1), i))
            rows = rng.integers(0, field.q, (4, len(basis)), dtype=np.uint8)
            ext = wedge_layout(field, rows)
            for a in range(1, m + 1):
                e = [int(j == a) for j in range(1, m + 1)]
                got = ext[:, wedge_columns(i, m, a)].tolist()
                for row, out in zip(rows.tolist(), got):
                    z = wedge_with_vector(
                        WedgeElement(field, m, i, dict(zip(basis, row))), e)
                    assert out == [z.coeffs.get(b, 0)
                                   for b in index_tuples(i + 1, m)]


def _flipped_wedge_columns(i, m, a):
    """``wedge_columns`` with the sign of every other entry flipped."""
    k = math.comb(m, i)
    cols = wedge_columns(i, m, a).copy()
    odd = cols[1::2]
    odd[odd < 2 * k] = (odd[odd < 2 * k] + k) % (2 * k)
    return cols


def test_annihilator_ranks_do_not_share_the_wedge_map(monkeypatch, f3):
    # the rank cross-check stays independent of the map behind the point
    # table: a wrong map breaks the minors but no annihilator rank
    rng = np.random.default_rng(3)
    cases = [(2, 4, np.array(list(class_representatives(3, 6)),
                             dtype=np.uint8)),
             (2, 5, rng.integers(0, 3, (200, 10), dtype=np.uint8)),
             (3, 5, rng.integers(0, 3, (200, 10), dtype=np.uint8))]
    cases = [(ell, m, vecs[vecs.any(axis=1)]) for ell, m, vecs in cases]
    expected = [annihilator_ranks(f3, ell, m, vecs) for ell, m, vecs in cases]
    minors = schubert_minors((3, 4), 4, f3)
    monkeypatch.setattr(exterior, "wedge_columns", _flipped_wedge_columns)
    monkeypatch.setattr(grassmann, "wedge_columns", _flipped_wedge_columns)
    assert not np.array_equal(schubert_minors((3, 4), 4, f3), minors)
    for (ell, m, vecs), ranks in zip(cases, expected):
        assert np.array_equal(annihilator_ranks(f3, ell, m, vecs), ranks)


# -- batched annihilator ranks --------------------------------------------------

def _annihilator_rank(field, ell, m, vec):
    """The per-functional path: rank of one annihilator matrix."""
    func = DualFunctional.from_vector(vec, ell, m, field)
    return matrix_rank(field, annihilator_matrix(functional_to_wedge(func)))


def _assert_ranks_match(field, ell, m, vecs):
    got = annihilator_ranks(field, ell, m, vecs)
    assert got.shape == (len(vecs),)
    assert got.tolist() == [_annihilator_rank(field, ell, m, v)
                            for v in vecs.tolist()]
    return got


@pytest.mark.parametrize("field,ell,m", [
    (GF(2), 2, 4), (GF(3), 2, 4), (GF(2, 2), 2, 4), (GF(2), 2, 5),
    (GF(2), 3, 5), (GF(3), 1, 3), (GF(3), 3, 4), (GF(2), 4, 5)],
    ids=["C24-F2", "C24-F3", "C24-F4", "C25-F2", "C35-F2", "C13-F3",
         "C34-F3", "C45-F2"])
def test_annihilator_ranks_every_class(field, ell, m):
    k = len(index_tuples(ell, m))
    vecs = np.array(list(class_representatives(field.q, k)), dtype=np.uint8)
    _assert_ranks_match(field, ell, m, vecs)


@pytest.mark.parametrize("field,ell,m", [
    (GF(2), 3, 6), (GF(3), 2, 5), (GF(3, 2), 2, 4)],
    ids=["C36-F2", "C25-F3", "C24-F9"])
def test_annihilator_ranks_sample(field, ell, m):
    k = len(index_tuples(ell, m))
    rng = np.random.default_rng(0)
    vecs = rng.integers(0, field.q, (600, k), dtype=np.uint8)
    # half the rows keep about two coefficients, which makes most of them
    # decomposable: both verdicts occur
    vecs[300:][rng.random((300, k)) > 2 / k] = 0
    ranks = _assert_ranks_match(field, ell, m, vecs[vecs.any(axis=1)])
    assert (ranks == ell).any() and (ranks != ell).any()


@st.composite
def functional_rows(draw):
    """Up to five nonzero coefficient vectors of C(ell, m), 1 <= ell < m <= 6,
    over a field of order at most 9."""
    field = GF(*draw(st.sampled_from(
        [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])))
    m = draw(st.integers(2, 6))
    ell = draw(st.integers(1, m - 1))
    k = len(index_tuples(ell, m))
    rows = draw(st.lists(st.lists(st.integers(0, field.q - 1), min_size=k,
                                  max_size=k).filter(any),
                         min_size=1, max_size=5))
    return field, ell, m, np.array(rows, dtype=np.uint8)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(functional_rows())
def test_annihilator_ranks_agree_with_rank(args):
    _assert_ranks_match(*args)


def test_annihilator_ranks_decomposable_iff_rank_ell(f3):
    vecs = np.array([parse_functional(s, 2, 4, f3).vector()
                     for s in ("X:3,4", "X:1,2 + X:3,4", "X:1,4 + 2*X:2,3")])
    assert annihilator_ranks(f3, 2, 4, vecs).tolist() == [2, 4, 4]
    # ell = m: the single class X:1..m is decomposable
    assert annihilator_ranks(f3, 4, 4, np.array([[2]])).tolist() == [4]


def test_annihilator_ranks_rejects_bad_rows(f3):
    with pytest.raises(ValueError, match="length 6"):
        annihilator_ranks(f3, 2, 4, np.ones((2, 5), dtype=np.uint8))
    with pytest.raises(ValueError, match="nonzero"):
        annihilator_ranks(f3, 2, 4, np.array([[1, 0, 0, 0, 0, 0],
                                              [0, 0, 0, 0, 0, 0]]))
    with pytest.raises(ValueError):  # as for the zero wedge
        annihilator_matrix(WedgeElement(f3, 4, 2, {}))
    with pytest.raises(ValueError, match="field element"):
        annihilator_ranks(f3, 2, 4, np.array([[3, 0, 0, 0, 0, 0]]))
