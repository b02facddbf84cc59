"""Dense exact linear algebra over a GF, on raw element indices.

The list-based functions work on tiny matrices by plain Gaussian
elimination; ``ranks`` row-reduces a whole stack of uint8 matrices.
"""

from __future__ import annotations

import numpy as np

from .gf import GF

__all__ = ["row_reduce", "rank", "ranks", "kernel_basis", "determinant"]


def row_reduce(field: GF, rows: list[list[int]]) -> tuple[list[list[int]], int]:
    """Reduced row echelon form (left convention) and rank."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    rk = 0
    for col in range(ncols):
        piv = next((r for r in range(rk, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        inv = field.inv(rows[rk][col])
        rows[rk] = [field.mul(inv, v) for v in rows[rk]]
        for r in range(len(rows)):
            if r != rk and rows[r][col]:
                f = rows[r][col]
                rows[r] = [field.sub(a, field.mul(f, b))
                           for a, b in zip(rows[r], rows[rk])]
        rk += 1
        if rk == len(rows):
            break
    return rows, rk


def rank(field: GF, rows: list[list[int]]) -> int:
    return row_reduce(field, rows)[1]


def ranks(field: GF, mats: np.ndarray) -> np.ndarray:
    """Rank of every matrix of an (N, r, c) uint8 stack, as N int64s: one
    pass per column clears it in every row with the matrix's first row
    that is nonzero there (leaving that row zero), then drops it."""
    neg, inv = field.neg_array, field.inv_array
    every = np.arange(len(mats))
    rk = np.zeros(len(mats), dtype=np.int64)
    for _ in range(mats.shape[2]):
        lead_col = mats[:, :, 0]
        piv = (lead_col != 0).argmax(axis=1)
        lead = lead_col[every, piv]
        rk += lead != 0
        # the pivot row scaled to lead 1, negated
        pivot = neg[field.vmul(inv[lead][:, None], mats[every, piv, 1:])]
        mats = field.vadd(mats[:, :, 1:],
                          field.vmul(lead_col[:, :, None], pivot[:, None, :]))
    return rk


def kernel_basis(field: GF, rows: list[list[int]]) -> list[tuple[int, ...]]:
    """Basis of {x : M x = 0} for the matrix with the given rows."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, rk = row_reduce(field, rows)
    pivots = []
    c = 0
    for r in range(rk):
        while c < ncols and not reduced[r][c]:
            c += 1
        pivots.append(c)
        c += 1
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg(reduced[r][f])
        basis.append(tuple(vec))
    return basis


def determinant(field: GF, rows: list[list[int]]) -> int:
    """Determinant over GF by Gaussian elimination (raw element indices)."""
    n = len(rows)
    a = [list(r) for r in rows]
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = field.neg(det)
        det = field.mul(det, a[col][col])
        inv = field.inv(a[col][col])
        for r in range(col + 1, n):
            if a[r][col]:
                f = field.mul(a[r][col], inv)
                for c in range(col, n):
                    a[r][c] = field.sub(a[r][c], field.mul(f, a[col][c]))
    return det
