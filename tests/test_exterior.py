import itertools
import random

import pytest

from grasscodes.exterior import (DualFunctional, WedgeElement,
                                 annihilator_basis, annihilator_dimension,
                                 check_functional, functional_to_wedge,
                                 is_decomposable, parse_functional,
                                 restrict_functional, shuffle_sign,
                                 wedge_of_vectors, wedge_pairing,
                                 wedge_with_vector)
from grasscodes.gf import GF
from grasscodes.grassmann import enumerate_grassmannian, plucker
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
        p = plucker(mat).as_dict()
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


def test_check_functional_examples(f2):
    # X:3,4 is the hyperplane of a decomposable wedge (a single coordinate)
    assert check_functional(parse_functional("X:3,4", 2, 4, f2))
    # X:1,2 + X:3,4 corresponds to v3^v4 + v1^v2, nondecomposable
    assert not check_functional(parse_functional("X:1,2 + X:3,4", 2, 4, f2))


def test_restrict_functional(f2):
    func = parse_functional("X:1,3 + X:2,4", 2, 4, f2)
    r = restrict_functional(func, (1, 4))
    assert r is not None and set(r.coeffs) == {(1, 3)}
    gone = restrict_functional(parse_functional("X:3,4", 2, 4, f2), (1, 4))
    assert gone is None


def test_projective_equality(f3):
    a = parse_functional("X:1,4 + 2*X:2,3", 2, 4, f3)
    b = a.scaled(2)
    assert a.projectively_equal(b)
    c = parse_functional("X:1,4 + X:2,3", 2, 4, f3)
    assert not a.projectively_equal(c)
