import random

import numpy as np
import pytest

from grasscodes.gf import GF
from grasscodes.grassmann import (EchelonMatrix, _free_positions,
                                  cell_matrices, determinant, enumerate_cell,
                                  enumerate_grassmannian,
                                  enumerate_schubert_variety,
                                  in_last_column_locus, plucker, project_tau,
                                  schubert_minors, string_fiber,
                                  string_label)
from grasscodes.linalg import rank, row_reduce
from grasscodes.qcombin import (delta, gaussian_binomial, index_tuples,
                                nabla_set)


def test_echelon_validation(f2):
    # pivot of each row is its last nonzero entry and equals 1
    EchelonMatrix(f2, 4, ((1, 1, 0, 0), (0, 0, 1, 1)), (2, 4))
    with pytest.raises(ValueError):
        # entry right of the pivot
        EchelonMatrix(f2, 4, ((1, 1, 1, 0), (0, 0, 0, 1)), (2, 4))
    with pytest.raises(ValueError):
        # nonzero in another row's pivot column
        EchelonMatrix(f2, 4, ((0, 1, 0, 0), (0, 1, 0, 1)), (2, 4))
    with pytest.raises(ValueError):
        # pivot not a unit
        EchelonMatrix(GF(3), 4, ((0, 2, 0, 0), (0, 0, 0, 1)), (2, 4))


def test_cell_sizes(f2, f3):
    for field in (f2, f3):
        q = field.q
        for alpha in index_tuples(2, 4):
            mats = list(enumerate_cell(alpha, 4, field))
            assert len(mats) == q ** delta(alpha)
            assert len(set(m.rows for m in mats)) == len(mats)


@pytest.mark.parametrize("ell,m,q", [(1, 3, 2), (2, 4, 2), (2, 4, 3), (2, 5, 2),
                                     (3, 5, 2), (3, 6, 2)])
def test_grassmannian_count(ell, m, q):
    field = GF(q)
    count = sum(1 for _ in enumerate_grassmannian(ell, m, field))
    assert count == gaussian_binomial(m, ell, q)


@pytest.mark.parametrize("p,e,ell,m", [
    (2, 1, 3, 6), (3, 1, 2, 5), (2, 2, 1, 4), (3, 2, 3, 4), (2, 4, 2, 3),
    (3, 1, 3, 3),  # ell = m: no row has a slot
    (5, 1, 1, 3),  # ell = 1
    (2, 1, 3, 5),  # alpha = (1, 2, 5): rows without slots above one with
    (3, 2, 3, 5),  # an odd extension field, cells up to 9^6 points
    (2, 1, 4, 6),
])
def test_cell_arrays_match_enumeration(p, e, ell, m):
    """Each cell's ``cell_matrices`` equals enumerate_cell, row for row.

    A cell over WALK points is checked on SAMPLE evenly spaced rows: each
    is an echelon matrix whose slots hold the base-q digits of its index,
    as enumerate_cell orders them.
    """
    field = GF(p, e)
    for alpha in index_tuples(ell, m):
        mats = cell_matrices(alpha, m, field)
        assert mats.dtype == np.uint8
        assert len(mats) == field.q ** delta(alpha)
        if len(mats) <= WALK:
            assert mats.tolist() == [[list(r) for r in mat.rows]
                                     for mat in enumerate_cell(alpha, m,
                                                               field)]
            continue
        slots = _free_positions(alpha, m)
        for i in np.linspace(0, len(mats) - 1, SAMPLE, dtype=int):
            mat = EchelonMatrix(field, m, tuple(map(tuple, mats[i].tolist())),
                                alpha)
            digits = np.unravel_index(i, (field.q,) * len(slots))
            assert [mat.rows[r][c] for r, c in slots] == list(digits)


WALK, SAMPLE = 8192, 2048


def _schubert_point(alpha, m, field, i):
    """The i-th point of ``enumerate_schubert_variety(alpha, m, field)``,
    built from its cell and the base-q digits of its index in the cell."""
    for beta in nabla_set(alpha, m):
        size = field.q ** delta(beta)
        if i >= size:
            i -= size
            continue
        rows = [[0] * m for _ in beta]
        for r, b in enumerate(beta):
            rows[r][b - 1] = 1
        slots = _free_positions(beta, m)
        digits = np.unravel_index(i, (field.q,) * len(slots))
        for (r, c), x in zip(slots, digits):
            rows[r][c] = int(x)
        return EchelonMatrix(field, m, tuple(map(tuple, rows)), beta)
    raise IndexError(i)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)])
def test_schubert_minors_match_plucker(p, e):
    """The walk's rows equal ``plucker(mat).coords`` over
    ``enumerate_schubert_variety``, row for row, on every supported field:
    ell = 1, ell = m, whole Grassmannians and proper Schubert alpha.

    Past CAP points, ROWS evenly spaced rows are checked, each against the
    point ``_schubert_point`` builds for its index."""
    field = GF(p, e)
    for alpha, m in [((3,), 3), ((1, 2, 3), 3), ((3, 4), 4), ((2, 4), 4),
                     ((1, 4), 5), ((2, 4, 5), 5), ((1, 3, 5), 6),
                     *LARGER.get((p, e), [])]:
        coords = schubert_minors(alpha, m, field)
        n = sum(field.q ** delta(b) for b in nabla_set(alpha, m))
        assert coords.dtype == np.uint8
        assert coords.shape == (n, len(index_tuples(len(alpha), m)))
        if n <= CAP:
            assert coords.tolist() == [
                list(plucker(mat).coords)
                for mat in enumerate_schubert_variety(alpha, m, field)]
            continue
        for i in np.linspace(0, n - 1, ROWS, dtype=int):
            mat = _schubert_point(alpha, m, field, int(i))
            assert coords[i].tolist() == list(plucker(mat).coords)


CAP, ROWS = 1024, 256
# ell = 3 and 4 over F_2, and cells up to 9^6 points
LARGER = {(2, 1): [((4, 5, 6), 6), ((3, 4, 5, 6), 6)], (3, 2): [((3, 4, 5), 5)]}


def test_schubert_variety_count(f2):
    # nabla((1,4)) = {(1,2),(1,3),(1,4)} so 1 + 2 + 4 = 7 points
    assert sum(1 for _ in enumerate_schubert_variety((1, 4), 4, f2)) == 7


def test_enumeration_rows_have_full_rank(f3):
    for mat in enumerate_grassmannian(2, 4, f3):
        assert rank(f3, [list(r) for r in mat.rows]) == 2


def test_determinant_values(f3):
    assert determinant(f3, [[1, 2], [2, 1]]) == (1 * 1 - 2 * 2) % 3
    assert determinant(f3, [[1, 2], [2, 1]]) == 0  # 1 - 4 = -3 = 0 mod 3
    assert determinant(f3, [[0, 1], [1, 0]]) == f3.neg(1)
    assert determinant(f3, [[2, 0], [0, 2]]) == 1


def test_determinant_matches_permutation_expansion():
    f5 = GF(5)
    rng = random.Random(5)
    import itertools
    for _ in range(25):
        a = [[rng.randrange(5) for _ in range(3)] for _ in range(3)]
        expect = 0
        for perm in itertools.permutations(range(3)):
            sign = 1
            inv = sum(1 for i in range(3) for j in range(i + 1, 3)
                      if perm[i] > perm[j])
            term = 1
            for r, c in enumerate(perm):
                term = f5.mul(term, a[r][c])
            if inv % 2:
                term = f5.neg(term)
            expect = f5.add(expect, term)
        assert determinant(f5, a) == expect


def test_plucker_pivot_coordinate_is_one(f2):
    for mat in enumerate_grassmannian(2, 4, f2):
        coords = dict(zip(index_tuples(2, 4), plucker(mat).coords))
        assert coords[mat.pivots] == 1


def test_plucker_injective_on_grassmannian(f3):
    seen = set()
    for mat in enumerate_grassmannian(2, 4, f3):
        key = plucker(mat).normalized().coords
        assert key not in seen
        seen.add(key)
    assert len(seen) == gaussian_binomial(4, 2, 3)


def test_plucker_satisfies_quadratic_relation(f3):
    # p12 p34 - p13 p24 + p14 p23 = 0 for every point of G(2, V_4)
    for mat in enumerate_grassmannian(2, 4, f3):
        p = dict(zip(index_tuples(2, 4), plucker(mat).coords))
        acc = f3.mul(p[(1, 2)], p[(3, 4)])
        acc = f3.sub(acc, f3.mul(p[(1, 3)], p[(2, 4)]))
        acc = f3.add(acc, f3.mul(p[(1, 4)], p[(2, 3)]))
        assert acc == 0


def test_plucker_gl_invariance(f3):
    """Row operations change Pluecker coordinates only by a global scalar."""
    rng = random.Random(7)
    mats = list(enumerate_grassmannian(2, 4, f3))
    for _ in range(20):
        mat = rng.choice(mats)
        # random invertible 2x2 change of basis applied to the rows
        while True:
            g = [[rng.randrange(3) for _ in range(2)] for _ in range(2)]
            if determinant(f3, g):
                break
        new_rows = []
        for i in range(2):
            row = []
            for j in range(4):
                acc = 0
                for t in range(2):
                    acc = f3.add(acc, f3.mul(g[i][t], mat.rows[t][j]))
                row.append(acc)
            new_rows.append(row)
        # re-echelonize through linear algebra and compare projectively
        direct = plucker(mat).normalized().coords
        from grasscodes.qcombin import index_tuples as its
        coords = []
        for alpha in its(2, 4):
            sub = [[new_rows[i][a - 1] for a in alpha] for i in range(2)]
            coords.append(determinant(f3, sub))
        lead = next(c for c in coords if c)
        inv = f3.inv(lead)
        assert tuple(f3.mul(inv, c) for c in coords) == direct


def test_string_locus_and_label(f2):
    mats = list(enumerate_grassmannian(2, 4, f2))
    locus = [m for m in mats if in_last_column_locus(m)]
    # cells (1,4), (2,4), (3,4) with deltas 2, 3, 4: 4 + 8 + 16 = 28 points
    assert len(locus) == sum(2 ** delta(a) for a in [(1, 4), (2, 4), (3, 4)])
    assert len(locus) == 28
    for m in locus:
        assert len(string_label(m)) == 2


def test_string_partition_is_a_bijection(f2, f3):
    """Fibers partition the last-column locus and each maps onto M(l-1, m-1)."""
    for field, ell, m in [(f2, 2, 4), (f2, 2, 5), (f2, 3, 5), (f3, 2, 4)]:
        q = field.q
        seen = set()
        total = 0
        import itertools
        for nu in itertools.product(range(q), repeat=m - ell):
            fiber = list(string_fiber(nu, ell, m, field))
            assert len(fiber) == gaussian_binomial(m - 1, ell - 1, q)
            for mat in fiber:
                assert in_last_column_locus(mat)
                assert string_label(mat) == nu
                assert mat.rows not in seen
                seen.add(mat.rows)
            total += len(fiber)
        locus = [mm for mm in enumerate_grassmannian(ell, m, field)
                 if in_last_column_locus(mm)]
        assert total == len(locus)
        assert seen == {mm.rows for mm in locus}


def test_projection_section_roundtrip(f3):
    for nu in [(0, 0), (1, 2), (2, 1)]:
        for mat in string_fiber(nu, 2, 4, f3):
            sub = project_tau(mat)
            assert sub.m == 3 and sub.ell == 1
            assert sub.pivots == mat.pivots[:-1]


def test_projection_errors(f2):
    mat = EchelonMatrix(f2, 4, ((1, 0, 0, 0), (0, 1, 0, 0)), (1, 2))
    with pytest.raises(ValueError):
        project_tau(mat)  # last pivot not in last column
    one_row = EchelonMatrix(f2, 4, ((1, 1, 0, 1),), (4,))
    with pytest.raises(ValueError):
        project_tau(one_row)  # needs two rows


def test_row_reduce_rank(f2):
    rows = [[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 0]]
    _, r = row_reduce(f2, rows)
    assert r == 2
