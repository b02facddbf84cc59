"""Wedge elements, the hyperplane/wedge identification, and decomposability.

A hyperplane of the Pluecker space, written as sum(c_a X_a) over index
tuples a, is identified with the wedge element

    z = sum_a c_a * eps(a) * v_{a^C},

where a^C is the complementary tuple and eps(a) is the sign of the
shuffle permutation (a^C, a) of (1, ..., m).  With that sign the pairing
of z against the row wedge of any point equals the direct evaluation
sum(c_a p_a), which is the convention every verification suite relies on.

``wedge_columns`` owns the batched w ^ e_a map, for the point table and
the split alike; ``annihilator_ranks`` derives its signs on its own, so
that the rank cross-check shares no code with the point table.
``annihilator_basis`` is the one reduction of a single wedge's annihilator;
its dimension and the decomposability verdict are that basis's length.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from functools import cache
from typing import Sequence

import numpy as np

from .gf import GF
from .linalg import kernel_basis, ranks
from .qcombin import (check_index_tuple, complement, format_index_tuple,
                      index_tuples, parse_index_tuple)

__all__ = [
    "DualFunctional", "WedgeElement", "shuffle_sign",
    "functional_to_wedge", "wedge_with_vector", "wedge_of_vectors",
    "wedge_pairing", "annihilator_matrix", "annihilator_basis",
    "annihilator_dimension", "is_decomposable", "check_functional",
    "annihilator_ranks", "parse_functional", "form_values", "wedge_layout",
    "wedge_columns",
]


def shuffle_sign(alpha: tuple[int, ...], m: int) -> int:
    """Sign of the permutation (alpha^C, alpha) of (1, ..., m): +1 or -1."""
    seq = complement(alpha, m) + tuple(alpha)
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
              if seq[i] > seq[j])
    return -1 if inv % 2 else 1


def form_values(field: GF, coeffs: dict, coords: np.ndarray,
                support: Sequence[tuple[int, ...]]) -> np.ndarray:
    """sum_a c_a x_a at every row x of an (N, len(support)) uint8 array
    whose columns are the tuples of ``support``, for the coefficients
    c_a of ``coeffs`` (any tuples, the zero form included); the N values
    as a uint8 array."""
    col = {a: i for i, a in enumerate(support)}
    acc = np.zeros(len(coords), dtype=np.uint8)
    for a, c in coeffs.items():
        acc = field.vadd(acc, field.mul_array[c][coords[:, col[a]]])
    return acc


@cache
def _all_tuples(ell: int, m: int) -> tuple[tuple[int, ...], ...]:
    """``index_tuples(ell, m)``, built once per (ell, m)."""
    return tuple(index_tuples(ell, m))


@dataclass(frozen=True)
class DualFunctional:
    """A hyperplane of the Pluecker space: coefficients over I(ell, m)."""

    field: GF
    ell: int
    m: int
    coeffs: dict[tuple[int, ...], int] = dc_field(default_factory=dict)

    def __post_init__(self):
        clean = {check_index_tuple(a, self.m): c
                 for a, c in self.coeffs.items() if c}
        if any(len(a) != self.ell for a in clean):
            raise ValueError("coefficient tuples must have length ell")
        if not clean:
            raise ValueError("functional must be nonzero")
        object.__setattr__(self, "coeffs", clean)

    @staticmethod
    def from_vector(vec: Sequence[int], ell: int, m: int, field: GF,
                    support: Sequence[tuple[int, ...]] | None = None) -> "DualFunctional":
        tuples = list(support) if support is not None else _all_tuples(ell, m)
        return DualFunctional(field, ell, m,
                              {a: c for a, c in zip(tuples, vec) if c})

    def vector(self) -> tuple[int, ...]:
        return tuple(self.coeffs.get(a, 0) for a in _all_tuples(self.ell, self.m))

    def evaluate(self, coords: Sequence[int]) -> int:
        """Direct evaluation sum(c_a p_a) against a coordinate vector."""
        acc = 0
        for a, c in zip(_all_tuples(self.ell, self.m), coords):
            if c and a in self.coeffs:
                acc = self.field.add(acc, self.field.mul(self.coeffs[a], c))
        return acc

    def evaluate_rows(self, coords: np.ndarray,
                      support: Sequence[tuple[int, ...]] | None = None) -> np.ndarray:
        """``evaluate`` at every row of an (N, len(support)) uint8 array of
        coordinates whose columns are the tuples of ``support`` (default
        all of I(ell, m)); returns the N values as a uint8 array."""
        tuples = support if support is not None else _all_tuples(self.ell, self.m)
        return form_values(self.field, self.coeffs, coords, tuples)

    def to_json_dict(self) -> dict[str, str]:
        fmt = self.field.format_element
        return {format_index_tuple(a): fmt(c)
                for a, c in sorted(self.coeffs.items())}

    def __str__(self) -> str:
        terms = []
        for a, c in sorted(self.coeffs.items()):
            x = f"X:{format_index_tuple(a)}"
            terms.append(x if c == 1 else f"{self.field.format_element(c)}*{x}")
        return " + ".join(terms)


@dataclass(frozen=True)
class WedgeElement:
    """An element of the degree-d exterior power, coefficients over I(d, m)."""

    field: GF
    m: int
    degree: int
    coeffs: dict[tuple[int, ...], int] = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.degree == 0:
            clean = {(): c % self.field.q for a, c in self.coeffs.items() if c}
        else:
            clean = {check_index_tuple(a, self.m): c
                     for a, c in self.coeffs.items() if c}
        if any(len(a) != self.degree for a in clean):
            raise ValueError("basis tuples must match the degree")
        object.__setattr__(self, "coeffs", clean)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        fmt = self.field.format_element
        terms = []
        for a, c in sorted(self.coeffs.items()):
            mono = "^".join(f"v{i}" for i in a)
            # degree 0 (ell = m): the one coefficient is the element
            terms.append(fmt(c) if not a else mono if c == 1
                         else f"{fmt(c)}*{mono}")
        return " + ".join(terms)


def functional_to_wedge(func: DualFunctional) -> WedgeElement:
    """Convert a hyperplane functional to its wedge element.

    Each coefficient picks up the shuffle sign eps(a), making
    ``wedge_pairing`` against a point's row wedge agree with
    ``DualFunctional.evaluate``.
    """
    field, m = func.field, func.m
    coeffs: dict[tuple[int, ...], int] = {}
    for alpha, c in func.coeffs.items():
        if shuffle_sign(alpha, m) < 0:
            c = field.neg(c)
        coeffs[complement(alpha, m)] = c
    return WedgeElement(field, m, m - func.ell, coeffs)


def wedge_with_vector(z: WedgeElement, x: Sequence[int]) -> WedgeElement:
    """Exterior product z ^ x for a vector x of V_m, with shuffle signs."""
    field, m = z.field, z.m
    if z.degree + 1 > m:
        raise ValueError("degree overflow: cannot wedge past top degree")
    if len(x) != m:
        raise ValueError(f"vector must have length {m}")
    out: dict[tuple[int, ...], int] = {}
    for beta, c in z.coeffs.items():
        bset = set(beta)
        for j, xj in enumerate(x, start=1):
            if not xj or j in bset:
                continue
            term = field.mul(c, xj)
            # moving v_j left past every factor of beta greater than j
            if sum(1 for b in beta if b > j) % 2:
                term = field.neg(term)
            merged = tuple(sorted(beta + (j,)))
            acc = field.add(out.get(merged, 0), term)
            if acc:
                out[merged] = acc
            else:
                out.pop(merged, None)
    return WedgeElement(field, m, z.degree + 1, out)


def wedge_layout(field: GF, w: np.ndarray) -> np.ndarray:
    """The (N, 2K + 1) uint8 array [w, -w, 0] of an (N, K) array of wedge
    coordinates, the layout that ``wedge_columns`` indexes."""
    neg = w if field.p == 2 else field.neg_array[w]  # -w = w for p = 2
    return np.concatenate([w, neg, np.zeros((len(w), 1), dtype=np.uint8)],
                          axis=1)


@cache
def wedge_columns(i: int, m: int, a: int) -> np.ndarray:
    """The columns of ``wedge_layout`` that give w ^ e_a, for w in the i-th
    exterior power of F_q^m (the batched ``wedge_with_vector``): coordinate
    b of ``index_tuples(i + 1, m)`` is zero unless a is in b, and
    otherwise w at b without a, negated when an odd number of entries of
    b exceed a.  Built once per (i, m, a)."""
    prev = {b: j for j, b in
            enumerate(itertools.combinations(range(1, m + 1), i))}
    k = len(prev)
    return np.array([prev[tuple(x for x in b if x != a)]
                     + k * (sum(x > a for x in b) % 2) if a in b else 2 * k
                     for b in index_tuples(i + 1, m)])


def wedge_of_vectors(field: GF, m: int, vectors: Sequence[Sequence[int]]) -> WedgeElement:
    """Iterated exterior product of row vectors; degree len(vectors)."""
    z = WedgeElement(field, m, 0, {(): 1})
    for v in vectors:
        z = wedge_with_vector(z, v)
    return z


def wedge_pairing(z: WedgeElement, w: WedgeElement) -> int:
    """Coefficient of v_1 ^ ... ^ v_m in z ^ w (degrees must sum to m)."""
    if z.m != w.m or z.degree + w.degree != z.m:
        raise ValueError("degrees must be complementary")
    field, m = z.field, z.m
    acc = 0
    for alpha, wa in w.coeffs.items():
        za = z.coeffs.get(complement(alpha, m))
        if za:
            term = field.mul(za, wa)
            if shuffle_sign(alpha, m) < 0:
                term = field.neg(term)
            acc = field.add(acc, term)
    return acc


def annihilator_matrix(z: WedgeElement) -> list[list[int]]:
    """Rows j = coordinates of z ^ e_j on the degree-(d+1) basis."""
    if z.is_zero():
        raise ValueError("zero wedge element")
    m = z.m
    basis = index_tuples(z.degree + 1, m)
    rows = []
    for j in range(1, m + 1):
        e = [0] * m
        e[j - 1] = 1
        prod = wedge_with_vector(z, e)
        rows.append([prod.coeffs.get(b, 0) for b in basis])
    return rows


def annihilator_dimension(z: WedgeElement) -> int:
    """dim of {x in V_m : z ^ x = 0}."""
    return len(annihilator_basis(z))


def annihilator_basis(z: WedgeElement) -> list[tuple[int, ...]]:
    """A basis of the annihilator space, as coordinate vectors over F_q."""
    if z.is_zero():
        raise ValueError("zero wedge element")
    m = z.m
    if z.degree == m:
        return [tuple(1 if i == j else 0 for i in range(m)) for j in range(m)]
    mat = annihilator_matrix(z)
    # x * M = 0 for row vectors x, i.e. the kernel of the transpose
    ncols = len(mat[0])
    transpose = [[mat[j][c] for j in range(m)] for c in range(ncols)]
    return kernel_basis(z.field, transpose)


def is_decomposable(z: WedgeElement) -> bool:
    """True iff z factors as a wedge of ``degree`` many vectors."""
    return annihilator_dimension(z) == z.degree


def check_functional(func: DualFunctional) -> bool:
    """Decomposability verdict for the hyperplane of a functional."""
    return is_decomposable(functional_to_wedge(func))


def annihilator_ranks(field: GF, ell: int, m: int, vecs) -> np.ndarray:
    """Rank of ``annihilator_matrix(functional_to_wedge(f))`` for every row
    f of an (N, C(m, ell)) array of coefficient vectors (columns in
    ``index_tuples(ell, m)`` order); f is decomposable iff its rank is ell.

    All N transposed annihilator matrices are gathered at once: entry
    (b, j), b in I(m-ell+1, m), is the coefficient of v_b in z ^ e_j, i.e.
    z at b minus j with the sign of ``wedge_with_vector``, where z carries
    coefficient eps(a) c_a at complement(a).  ``linalg.ranks`` reduces
    them together.
    """
    if not 1 <= ell <= m:
        raise ValueError(f"need 1 <= ell <= m, got ell={ell}, m={m}")
    tuples = index_tuples(ell, m)
    vecs = np.asarray(vecs)
    if vecs.ndim != 2 or vecs.shape[1] != len(tuples):
        raise ValueError(f"functionals must be rows of length {len(tuples)}")
    if ((vecs < 0) | (vecs >= field.q)).any():
        raise ValueError("coefficients must be field element indices")
    if not vecs.any(axis=1).all():
        raise ValueError("functional must be nonzero")
    col = {a: i for i, a in enumerate(tuples)}
    rows = index_tuples(m - ell + 1, m)
    # gather index (len(tuples) is an appended zero column) and sign of
    # every entry: eps(a) for the wedge, then one sign per factor of b
    # greater than j for moving v_j into place
    src = np.full((len(rows), m), len(tuples))
    flip = np.zeros((len(rows), m), dtype=bool)
    for r, b in enumerate(rows):
        for j in b:
            # a = complement(b minus j), built directly: b minus j is empty
            # when ell = m
            a = tuple(x for x in range(1, m + 1) if x == j or x not in b)
            src[r, j - 1] = col[a]
            flip[r, j - 1] = (shuffle_sign(a, m) < 0) != (
                sum(1 for x in b if x > j) % 2 == 1)
    padded = np.concatenate(
        [vecs.astype(np.uint8), np.zeros((len(vecs), 1), dtype=np.uint8)], axis=1)
    mats = padded[:, src]
    mats[:, flip] = field.neg_array[mats[:, flip]]
    return ranks(field, mats)


def parse_functional(s: str, ell: int, m: int, field: GF) -> DualFunctional:
    """Parse the CLI shorthand, e.g. "X:1,4 + 2*X:2,3"."""
    coeffs: dict[tuple[int, ...], int] = {}
    for raw in s.split("+"):
        term = raw.strip()
        if not term:
            raise ValueError(f"empty term in functional {s!r}")
        if "*" in term:
            cpart, xpart = term.split("*", 1)
            coeff = int(cpart.strip())
        else:
            coeff, xpart = 1, term
        xpart = xpart.strip()
        if not xpart.startswith("X:"):
            raise ValueError(f"bad term {term!r}: expected X:<tuple>")
        if not 0 <= coeff < field.q:
            raise ValueError(f"coefficient {coeff} not a field element index")
        alpha = parse_index_tuple(xpart[2:], m)
        if len(alpha) != ell:
            raise ValueError(f"tuple {alpha} has length {len(alpha)}, expected {ell}")
        coeffs[alpha] = field.add(coeffs.get(alpha, 0), coeff)
    return DualFunctional(field, ell, m, coeffs)
