"""Enumeration of Grassmannians over F_q via right-row-reduced echelon forms.

The canonical representative of an ell-dimensional subspace is the unique
ell x m matrix whose rows span it and such that the LAST nonzero entry of
each row is a 1 (the pivot), pivots move strictly right down the rows, and
pivot columns are otherwise zero.  This right-handed convention (rather
than the textbook left one) is what makes the Schubert cells and the
string decomposition below come out as stated.

Entries are stored as raw field-element indices (see ``gf``); columns are
0-based internally while pivot tuples and Pluecker index tuples are
1-based, matching the serialization format.

``schubert_minors`` and ``cell_matrices`` are the batched forms used to
tabulate codes: a whole Schubert variety as one uint8 array of Pluecker
coordinates, built by one walk over the pivot prefixes of its cells, the
wedge of the rows so far extended linearly by each free entry of the next
(``exterior.wedge_columns``), or a cell as one uint8 array of echelon
matrices.  ``enumerate_cell`` and ``plucker`` are their reference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .exterior import wedge_columns, wedge_layout
from .gf import GF
from .linalg import determinant  # plucker calls it through this global
from .qcombin import check_index_tuple, delta, index_tuples, nabla_set

__all__ = [
    "EchelonMatrix", "PluckerVector",
    "enumerate_cell", "enumerate_grassmannian", "enumerate_schubert_variety",
    "plucker", "determinant", "cell_matrices", "schubert_minors",
    "in_last_column_locus", "string_label", "string_fiber", "project_tau",
]


@dataclass(frozen=True)
class EchelonMatrix:
    """An ell x m matrix in right-row-reduced echelon form over a GF."""

    field: GF
    m: int
    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    def __post_init__(self):
        ell = len(self.rows)
        check_index_tuple(self.pivots, self.m)
        if len(self.pivots) != ell:
            raise ValueError("one pivot per row required")
        piv = set(self.pivots)
        for i, row in enumerate(self.rows):
            if len(row) != self.m:
                raise ValueError("ragged row")
            p = self.pivots[i]
            if row[p - 1] != 1:
                raise ValueError(f"row {i} has no unit pivot at column {p}")
            if any(row[j] for j in range(p, self.m)):
                raise ValueError(f"row {i} has entries right of its pivot")
            if any(row[a - 1] for a in piv if a != p):
                raise ValueError(f"row {i} nonzero in another pivot column")

    @property
    def ell(self) -> int:
        return len(self.rows)

    def __str__(self) -> str:
        fmt = self.field.format_element
        return ";".join(",".join(fmt(x) for x in row) for row in self.rows)


def _free_positions(pivots: tuple[int, ...], m: int) -> list[tuple[int, int]]:
    """Row-major (row, 0-based column) slots not forced by echelon shape."""
    piv = set(pivots)
    return [(i, j) for i, p in enumerate(pivots)
            for j in range(p - 1) if (j + 1) not in piv]


def enumerate_cell(alpha: Sequence[int], m: int, field: GF) -> Iterator[EchelonMatrix]:
    """All q^delta(alpha) echelon matrices with pivot tuple alpha."""
    alpha = check_index_tuple(tuple(alpha), m)
    ell = len(alpha)
    base = [[0] * m for _ in range(ell)]
    for i, p in enumerate(alpha):
        base[i][p - 1] = 1
    slots = _free_positions(alpha, m)
    for values in itertools.product(range(field.q), repeat=len(slots)):
        rows = [list(r) for r in base]
        for (i, j), v in zip(slots, values):
            rows[i][j] = v
        yield EchelonMatrix(field, m, tuple(tuple(r) for r in rows), alpha)


def enumerate_grassmannian(ell: int, m: int, field: GF) -> Iterator[EchelonMatrix]:
    """Every point of G(ell, V_m) once, cells in lexicographic pivot order."""
    for alpha in index_tuples(ell, m):
        yield from enumerate_cell(alpha, m, field)


def enumerate_schubert_variety(alpha: Sequence[int], m: int,
                               field: GF) -> Iterator[EchelonMatrix]:
    """Union of the cells C_beta over beta <= alpha, in pivot order."""
    alpha = check_index_tuple(tuple(alpha), m)
    for beta in nabla_set(alpha, m):
        yield from enumerate_cell(beta, m, field)


@dataclass(frozen=True)
class PluckerVector:
    """Pluecker coordinates, aligned with index_tuples(ell, m) lex order."""

    field: GF
    ell: int
    m: int
    coords: tuple[int, ...]

    def __post_init__(self):
        if not any(self.coords):
            raise ValueError("Pluecker vector must be nonzero")

    def normalized(self) -> "PluckerVector":
        """Scale so the first nonzero coordinate is 1 (projective form)."""
        lead = next(c for c in self.coords if c)
        if lead == 1:
            return self
        inv = self.field.inv(lead)
        return PluckerVector(self.field, self.ell, self.m,
                             tuple(self.field.mul(inv, c) for c in self.coords))


def plucker(mat: EchelonMatrix) -> PluckerVector:
    """All ell x ell minors of the echelon representative, in lex order."""
    field, ell, m = mat.field, mat.ell, mat.m
    coords = []
    for alpha in index_tuples(ell, m):
        sub = [[mat.rows[i][a - 1] for a in alpha] for i in range(ell)]
        coords.append(determinant(field, sub))
    return PluckerVector(field, ell, m, tuple(coords))


def cell_matrices(alpha: Sequence[int], m: int, field: GF) -> np.ndarray:
    """The q^delta(alpha) echelon matrices of the cell C_alpha, a
    (q^delta, ell, m) uint8 array in ``enumerate_cell`` order."""
    alpha = check_index_tuple(tuple(alpha), m)
    ell, q = len(alpha), field.q
    slots = _free_positions(alpha, m)
    mats = np.zeros((q ** len(slots), ell, m), dtype=np.uint8)
    mats[:, range(ell), [p - 1 for p in alpha]] = 1
    if slots:
        rows, cols = zip(*slots)
        # the point's index in base q, first slot most significant, as in
        # itertools.product
        digits = np.indices((q,) * len(slots), dtype=np.uint8)
        mats[:, rows, cols] = digits.reshape(len(slots), -1).T
    return mats


def schubert_minors(alpha: Sequence[int], m: int, field: GF) -> np.ndarray:
    """The Pluecker coordinates (``plucker``, not normalized) of the
    Schubert variety of alpha, an (n, C(m, ell)) uint8 array in
    ``index_tuples`` order, rows in ``enumerate_schubert_variety`` order.
    One walk over pivot prefixes: row i is e_p plus x e_c over the columns
    c < p outside the prefix, so each column in turn is a child pivot
    p <= alpha_i, whose wedges are T + w ^ e_p, then a slot extending T,
    the sums of x (w ^ e_c) over the slots so far."""
    alpha = check_index_tuple(tuple(alpha), m)
    sizes = [field.q ** delta(b) for b in nabla_set(alpha, m)]
    table = np.empty((sum(sizes), len(index_tuples(len(alpha), m))), np.uint8)
    cells = iter(np.split(table, np.cumsum(sizes)[:-1]))  # in lex order
    xs = np.arange(field.q, dtype=np.uint8)[:, None]

    def walk(w: np.ndarray, prefix: tuple[int, ...]) -> None:
        i, last = len(prefix), prefix[-1] if prefix else 0
        cols = [c for c in range(1, alpha[i] + 1) if c not in prefix]
        wedges = wedge_layout(field, w)[:, np.stack(
            [wedge_columns(i, m, c) for c in cols])]
        shape = (len(w), -1, wedges.shape[2])

        def add(sums, term):  # every row of sums plus every row of term
            return term if sums is None else field.vadd(
                sums[:, :, None], term[:, None]).reshape(shape)

        # T is done + final, None before any slot: done sums every slot
        # but the last, an (n, q^s, C(m, i+1)) array, and final holds the
        # last one's x (w ^ e_c) at every x in F_q
        done = final = None
        for j, c in enumerate(cols):
            wedge = wedges[:, None, j]
            if c > last:
                child = add(done, wedge if final is None else field.vadd(
                    final, wedge)).reshape(-1, shape[2])
            if c == alpha[i]:
                done = final = None  # freed before the last subtree
            else:
                done = done if final is None else add(done, final)
                final = field.vmul(wedge, xs)
            if c > last and i + 1 < len(alpha):
                walk(child, prefix + (c,))
            elif c > last:  # a leaf: its rows go straight into the table
                next(cells)[...] = child

    walk(np.ones((1, 1), dtype=np.uint8), ())
    return table


# -- the string decomposition ------------------------------------------------

def in_last_column_locus(mat: EchelonMatrix) -> bool:
    """True iff the pivot of the last row sits in the last column."""
    return mat.pivots[-1] == mat.m


def _check_locus(mat: EchelonMatrix) -> None:
    if mat.ell < 1 or not in_last_column_locus(mat):
        raise ValueError("matrix does not have its last pivot in the last column")


def string_label(mat: EchelonMatrix) -> tuple[int, ...]:
    """Read the m - ell free entries of the last row, ascending columns.

    The columns read are the non-pivot columns of the truncated matrix
    obtained by deleting the last row and column.
    """
    _check_locus(mat)
    piv = set(mat.pivots[:-1])
    cols = [j for j in range(1, mat.m) if j not in piv]
    last = mat.rows[-1]
    return tuple(last[j - 1] for j in cols)


def project_tau(mat: EchelonMatrix) -> EchelonMatrix:
    """Delete the last row and column; lands in M(ell-1, m-1)."""
    _check_locus(mat)
    if mat.ell < 2:
        raise ValueError("projection needs at least two rows")
    rows = tuple(row[: mat.m - 1] for row in mat.rows[:-1])
    return EchelonMatrix(mat.field, mat.m - 1, rows, mat.pivots[:-1])


def string_fiber(nu: Sequence[int], ell: int, m: int,
                 field: GF) -> Iterator[EchelonMatrix]:
    """All matrices with last pivot in column m and the given label.

    Applies the section map to every element of M(ell-1, m-1): append a
    zero column, then a last row carrying 1 in column m, the label values
    in the non-pivot columns, and zeros in the pivot columns.
    """
    nu = tuple(nu)
    if len(nu) != m - ell:
        raise ValueError(f"label must have length {m - ell}")
    if any(not 0 <= v < field.q for v in nu):
        raise ValueError("label entries must be field element indices")
    for sub in enumerate_grassmannian(ell - 1, m - 1, field) if ell > 1 else [None]:
        if ell == 1:
            last = list(nu) + [1]
            yield EchelonMatrix(field, m, (tuple(last),), (m,))
            continue
        piv = set(sub.pivots)
        free_cols = [j for j in range(1, m) if j not in piv]
        last = [0] * m
        last[m - 1] = 1
        for j, v in zip(free_cols, nu):
            last[j - 1] = v
        rows = tuple(row + (0,) for row in sub.rows) + (tuple(last),)
        yield EchelonMatrix(field, m, rows, sub.pivots + (m,))
