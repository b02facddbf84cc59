"""Grassmann and Schubert codes: generator matrices, weight distributions,
and the theorem-verification suites.

The projective system of a code is the ordered list of the Pluecker
coordinate vectors of all Grassmannian or Schubert points, kept as one
(n, k) uint8 array; the weight of the codeword attached to a hyperplane
functional is the number of points where the functional does not vanish.
That number, and every section and incidence the suites count, is the
same for any rescaling of a point's vector.  So ``Code.table`` keeps the
minors as ``minors_table`` builds them, each point's right-echelon
representative, and only ``point_table`` (hence ``build_generator``) and
``decomposable_table`` normalize, in one pass, to the representative
whose first nonzero coordinate is 1.

A ``Code`` builds each array the suites read once, on first use; a
command makes one.  ``minors_table`` is the one builder of Pluecker
minors; ``Code.matrices`` holds the echelon matrices alone.

A codeword c in F_q^k is held as its big-endian base-q index
c @ ``_places(q, k)``, and ``_digits`` gives the vectors back.

Engine: ``weight_array`` gives the int32 weight of all q^k codewords at
once by an exact character transform over F_q^k = F_p^(ek) (MacWilliams
& Sloane ch. 5): one two-phase driver, ``_transform_swapped``, runs the
steps of a Walsh-Hadamard transform for p = 2 or of a residue-count
butterfly for odd p, on a digit-swapped layout and then, after one
transposed copy, in natural order, so that every step runs over whole
rows of at least p^(ek // 2) entries.  The transform runs in int16 when
(q-1) n < 2^15, since its values lie within +-(q-1) n, and in int32
above.  The transform (``_table_weights``) weighs the rows of any
uint8 array; the attained-family suite runs it on the ell + 2 columns its
family uses.  Its input, the histogram of the labelled multiples of the
rows, is written straight into the digit-swapped layout
(``_label_histogram``): the swap only moves base-p digits, so one
(q-1, q) table per column gives each label its place there, and the
places are added column by column into one int64 buffer.
``class_weights`` is a view of the transform.

The split (``split_distribution``) gives the weight distribution of a
Grassmann code without a sweep, from the paper's decomposition of
G(ell, m) into G(ell, m-1) and strings of q^(m-ell) points over
G(ell-1, m-1).  A functional splits as f = (f', f'') over the tuples
without and with m; its weight is that of f' on G(ell, m-1), plus a fixed
amount per string where f is not constant, plus q^(m-ell) times the
weight of f'' over the strings where it is; f' is read on each string
through ``exterior.wedge_columns``.  The distribution over f''
is constant on the GL_(m-1)(F_q)-orbit of f', and on the side
s in {ell, m-ell} with s <= 2 or s >= m-3 (C(ell, m) and C(m-ell, m) are
equivalent codes) those orbits are rank classes of alternating forms,
sized by ``qcombin.alternating_count``.  So each class costs one
transform of q^(C(m-1, s-1)) codewords.  ``weight_distribution`` is the
one place that picks the engine, and it prices the engine it runs: the
histogram of ``code.weights`` when that array is built (no new work),
else the split when the code has such a side, refused as a split, else
a sweep, refused as a sweep (Schubert codes, C(ell, m) with
4 <= ell <= m-4, and C(m, m)).

The decomposition suites run on the same engine.  The strings suite
weighs, fiber by fiber, the points of the last-column locus; the Zanella
suite weighs, covector by covector, the points in each V_{m-1} = ker u.
A class meets a set of points in their number minus its weight over
them, so one transform per fiber or covector checks every scalar class
at once (``verify_string_sections``, ``verify_zanella_incidences``).
A point lies in ker u exactly when u is in its annihilator, which the
echelon matrix gives directly, so ``_annihilator_classes`` lists the
[m-ell, 1]_q covector classes of each point once, and both Zanella
suites read them: the per-functional one as a histogram, the all-class
one as an incidence mask by covector.  The per-functional
``verify_string_section`` and ``verify_zanella_incidence`` share their
fiber and covector helpers and report builders; their reports stay the
reference.  Their fiber layout, ``_string_fibers``, also gives
``string_partition`` with ``full`` (``strings --full``) from the echelon
matrices, each distinct row formatted once; the plain partition counts
the same fibers from the cell sizes.

``check_work`` is the one refusal policy: it prices each named piece of
work (a point table, a sweep, a split, the strings or Zanella suite over
every class, the string partition) in operations against a budget and
in bytes against ``MAX_SWEEP_BYTES``, and raises ``BudgetExceeded`` for
the first piece refused, before any work starts.  A sweep and a split
are priced in one unit, classes times points: a split costs one sweep
of the inner code C(s-1, m-1) per rank class.

Nogin's theorem by duality: the minimum-weight classes are the decomposable
hyperplanes, i.e. the points of the dual Grassmannian G(m-ell, m)
(``decomposable_table``); the Nogin and two-weight suites compare that set
with the weight array, and keep the annihilator rank test as a
cross-check on every decomposable and a seeded sample of the rest, all
reduced at once by ``exterior.annihilator_ranks``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field
from functools import cache, cached_property, reduce

import numpy as np

from .exterior import (DualFunctional, annihilator_ranks, form_values,
                       shuffle_sign, wedge_columns, wedge_layout)
from .gf import GF
from .linalg import ranks
from .qcombin import (InvariantError, alternating_count, check_index_tuple,
                      complement, delta, delta_set, format_index_tuple,
                      gaussian_binomial, index_tuples, nabla_set)
from .grassmann import cell_matrices, cell_minors

__all__ = [
    "CodeSpec", "Code", "GeneratorMatrix", "WeightDistribution",
    "BudgetExceeded", "InvariantError", "DEFAULT_BUDGET", "MAX_SWEEP_BYTES",
    "build_generator", "point_table", "minors_table", "check_work",
    "decomposable_table",
    "codeword_weight", "class_representatives", "class_weights",
    "weight_array", "weight_distribution", "split_distribution",
    "min_distance", "second_min_weight", "schubert_min_distance",
    "verify_nogin", "verify_second_weight", "verify_attained_family",
    "verify_string_section", "verify_zanella_incidence",
    "verify_string_sections", "verify_zanella_incidences",
    "verify_l2_dichotomy", "string_partition",
]

DEFAULT_BUDGET = 10**10

# Fixed ceiling on the bytes one piece of work allocates (see check_work).
MAX_SWEEP_BYTES = 2 * 2**30


class BudgetExceeded(RuntimeError):
    """Raised when a sweep, a point table or a per-class suite loop would
    exceed the operation budget or memory; ``what`` names the refused work."""

    def __init__(self, what: str, required: int, unit: str, budget: int):
        super().__init__(f"{what} requires ~{required} {unit}, budget is {budget}")
        self.required = required
        self.budget = budget


@dataclass(frozen=True)
class CodeSpec:
    """A Grassmann code C(ell, m) or a Schubert code C_alpha(ell, m)."""

    field: GF
    ell: int
    m: int
    alpha: tuple[int, ...] | None = None

    def __post_init__(self):
        if not 1 <= self.ell <= self.m:
            raise ValueError(f"need 1 <= ell <= m, got ell={self.ell}, m={self.m}")
        if self.alpha is not None:
            a = check_index_tuple(self.alpha, self.m)
            if len(a) != self.ell:
                raise ValueError("alpha must lie in I(ell, m)")
            object.__setattr__(self, "alpha", a)

    @property
    def is_schubert(self) -> bool:
        return self.alpha is not None and self.alpha != tuple(
            range(self.m - self.ell + 1, self.m + 1))

    # support, k and n are computed on first read and kept; the support is
    # a tuple, so that no caller can change what every later read returns
    @cached_property
    def support(self) -> tuple[tuple[int, ...], ...]:
        """Coordinate tuples carried by the code, in lexicographic order."""
        if self.alpha is None:
            return tuple(index_tuples(self.ell, self.m))
        return tuple(nabla_set(self.alpha, self.m))

    @cached_property
    def k(self) -> int:
        return len(self.support)

    @cached_property
    def n(self) -> int:
        if self.alpha is None:
            return gaussian_binomial(self.m, self.ell, self.field.q)
        return sum(self.field.q ** delta(b) for b in self.support)

    def describe(self) -> str:
        name = f"C({self.ell},{self.m})" if self.alpha is None \
            else f"C_{self.alpha}({self.ell},{self.m})"
        return f"{name} over {self.field!r}"


# peak bytes of the all-class strings and Zanella reports, from the count
# arrays through the JSON text of ``verify``: per report, plus per count in
# it.  Fitted on peak RSS, less that of a run with -f, of C(2,6)/F_2 and
# C(2,5)/F_3 Zanella (5.2 KB + 165 B) and C(3,7)/F_2, C(5,7)/F_2,
# C(3,6)/F_3, C(4,6)/F_3 strings (at most 7.2 KB + 351 B), rounded up
_REPORT_BYTES = 8192
_COUNT_BYTES = {"strings": 384, "zanella": 192}

# bytes of one block of ``_normalize_rows``: well under glibc's default
# mmap threshold of 128 KiB, so each block's temporaries reuse heap pages
_BLOCK_BYTES = 2**15

# bytes of the class numbers in one block of ``_annihilator_classes``; a
# block's few temporaries of that size stay under 1 MiB, and ell = 1 codes,
# whose points each carry [m-1, 1]_q classes, still get several points per
# block (C(1,5) over F_16: 3), so the per-block calls do not dominate
_ANNIHILATOR_BYTES = 2**17

# peak bytes of the ``strings`` listing: per fiber, and with --full per
# point plus per matrix entry; fitted on peak RSS (see README), rounded up
_FIBER_BYTES, _POINT_BYTES, _ENTRY_BYTES = 512, 512, 16


def check_work(spec: CodeSpec, works, budget: int | None = None) -> None:
    """Refuse the named pieces of work on ``spec`` before any of them
    starts: raise ``BudgetExceeded`` for the first piece of ``works``, in
    list order, whose operations exceed ``budget`` (None: no limit) or,
    checked after that, whose bytes exceed ``MAX_SWEEP_BYTES``.

    - ``"table"``: ``minors_table`` (so ``point_table``) or
      ``Code.matrices``, cell by cell; the largest cell as ``cell_minors``
      or ``cell_matrices`` builds it (``_cell_bytes``) and 2k + 24 bytes
      per point of it, plus two bytes per point for every coordinate or
      matrix entry kept across cells.  Bytes only.
    - ``"sweep"``: a pass over every scalar class, priced as classes times
      points, and one transform over the q^k codewords.
    - ``"split"``: ``_split_counts`` on side ell of ``spec``, priced in
      the sweep's unit as one sweep of the inner code C(ell-1, m-1) per
      rank class (``_rank_classes``), and one transform over
      q^C(m-1, ell-1) codewords.
    - ``"strings"``, ``"zanella"``: the suite over every scalar class of
      the coefficients it supports, priced as classes times points, and
      its reports, one per class.  A strings report counts the q^(m-ell)
      fibers, a Zanella report the (q^m - 1)/(q - 1) subspaces V_{m-1}.
    - ``"partition"``, ``"partition-full"``: ``string_partition`` without
      and with ``full``, per fiber and per point of the locus.  Bytes only.
    """
    field, ell, m = spec.field, spec.ell, spec.m
    q = field.q
    for work in works:
        if work == "table":
            top = ell * (m - ell) if spec.alpha is None else delta(spec.alpha)
            ops, nbytes = None, (_cell_bytes(field, ell, m, top)
                                 + q**top * (2 * spec.k + 24)
                                 + 2 * spec.n * max(spec.k, ell * m))
        elif work.startswith("partition"):
            fibers = q ** (m - ell)
            ops, nbytes = None, fibers * _FIBER_BYTES
            if work == "partition-full":
                nbytes += (fibers * gaussian_binomial(m - 1, ell - 1, q)
                           * (_POINT_BYTES + _ENTRY_BYTES * ell * m))
        else:
            k = spec.k if work in ("sweep", "zanella") \
                else math.comb(m - 1, ell - 1)
            if work == "split":  # one sweep of C(ell-1, m-1) per rank class
                ops = (len(_rank_classes(field, ell, m - 1))
                       * class_count(q, k)
                       * gaussian_binomial(m - 1, ell - 1, q))
            else:
                ops = class_count(q, k) * spec.n
            if work in ("sweep", "split"):
                # one ``_table_weights`` call: 16 B per codeword, plus 8p B
                # for odd p, is a deliberate upper bound.  Besides the 4 B
                # int32 weights, the transform holds for p = 2 its buffer
                # and a transposed copy, 2 or 4 B each in the int16 or
                # int32 lane, and for odd p two buffers of p q^k counts at
                # 2 or 4 B
                nbytes = q**k * (16 if field.p == 2 else 16 + 8 * field.p)
            else:
                counts = q ** (m - ell) if work == "strings" \
                    else class_count(q, m)
                nbytes = class_count(q, k) * (_REPORT_BYTES
                                              + counts * _COUNT_BYTES[work])
        what = {"table": "point table", "sweep": "sweep", "split": "split",
                "partition": "string partition", "partition-full":
                "string partition --full"}.get(work, f"--suite {work}")
        _refuse(what, ops, nbytes, budget)


def _refuse(what: str, ops: int | None, nbytes: int,
            budget: int | None = None) -> None:
    """The refusal rule of ``check_work`` (and of
    ``macwilliams.dual_distribution``) for one piece of work, ``what``:
    ``BudgetExceeded`` when its operations exceed ``budget`` (None, for
    either: no limit) or, checked after that, its bytes exceed
    ``MAX_SWEEP_BYTES``."""
    if budget is not None and ops is not None and ops > budget:
        raise BudgetExceeded(what, ops, "operations", budget)
    if nbytes > MAX_SWEEP_BYTES:
        raise BudgetExceeded(what, nbytes, "bytes", MAX_SWEEP_BYTES)


def _cell_bytes(field: GF, ell: int, m: int, top: int) -> int:
    """The peak bytes of ``cell_minors`` and ``cell_matrices``, priced as
    one build, on a cell of q^top points: its matrices, the base-q digits
    of its slots and five minor arrays as wide as the widest exterior
    power up to ell.  The minors hold about three at most, at the last
    slot of its largest row: the index of one table gather and its result,
    each as large as the output, and the wedges before that slot with
    their scaled copy, each q times smaller."""
    width = max(len(index_tuples(i, m)) for i in range(1, ell + 1))
    return field.q**top * (ell * m + top + 5 * width)


def _normalize_rows(field: GF, coords: np.ndarray) -> np.ndarray:
    """Scale each (nonzero) row of ``coords`` in place so that its first
    nonzero entry is 1, and return it; nothing to do when q = 2.

    The lead is looked up column by column, only in the rows still zero.
    Scaling row x by t = 1 / lead(x) is one byte-table lookup: t q + x_i,
    below q^2 <= 256, indexes the flat multiplication table, which
    ``bytes.translate`` reads without the 8-byte index copy of a numpy
    gather.  It runs on blocks of ``_BLOCK_BYTES``, so that no temporary
    outgrows the allocator's reusable heap."""
    q = field.q
    if q == 2:
        return coords
    lead = coords[:, 0].copy()
    rest = np.flatnonzero(lead == 0)
    for column in coords.T[1:]:
        if not len(rest):
            break
        lead[rest] = column[rest]
        rest = rest[lead[rest] == 0]
    coords += (field.inv_array[lead] * np.uint8(q))[:, None]
    table = field.mul_array.tobytes().ljust(256, b"\0")
    step = max(1, _BLOCK_BYTES // coords.shape[1])
    for i in range(0, len(coords), step):
        block = coords[i:i + step]
        block[...] = np.frombuffer(block.tobytes().translate(table),
                                   np.uint8).reshape(block.shape)
    return coords


def minors_table(spec: CodeSpec) -> np.ndarray:
    """The Pluecker coordinates of every point as ``cell_minors`` gives
    them, an (n, k) uint8 array in ``point_table`` order, not normalized.

    Row i is ``plucker(mat)`` of the i-th point, restricted to the columns
    of ``spec.support``: its right-echelon representative, whose minor at
    the pivot tuple of its cell is 1 and whose later minors in lex order
    are 0.  It is the same projective point as row i of ``point_table``,
    so every weight, section and incidence the suites count reads the
    same off either; ``Code.table`` keeps it.  Raises ``BudgetExceeded``
    over ``MAX_SWEEP_BYTES``, before allocating.
    """
    check_work(spec, ["table"])
    field, ell, m = spec.field, spec.ell, spec.m
    # the cells of the code are its support; a point of the Schubert
    # variety vanishes off the support
    cells = [cell_minors(alpha, m, field) for alpha in spec.support]
    if spec.is_schubert:
        all_tuples = index_tuples(ell, m)
        keep = [all_tuples.index(a) for a in spec.support]
        cells = [minors[:, keep] for minors in cells]
    return np.concatenate(cells)


def point_table(spec: CodeSpec) -> np.ndarray:
    """The normalized coordinates of every point, an (n, k) uint8 array.

    Row i is ``plucker(mat).normalized()`` of the i-th point of
    ``enumerate_grassmannian`` (for a Schubert code,
    ``enumerate_schubert_variety``), restricted to the columns of
    ``spec.support``: ``minors_table`` normalized in one pass (restricting
    keeps the leading coordinate, since the point vanishes off the
    support).  Raises ``BudgetExceeded`` over ``MAX_SWEEP_BYTES``, before
    allocating.
    """
    return _normalize_rows(spec.field, minors_table(spec))


@dataclass(eq=False)
class Code:
    """A code and the arrays its suites read, each built on first use and
    kept as long as the object; a member may be assigned before its first
    use.  The members call the module's functions by name, so that a
    wrapper installed on them sees every build."""

    spec: CodeSpec
    table = cached_property(lambda self: minors_table(self.spec))
    weights = cached_property(lambda self: weight_array(self))
    decomposables = cached_property(lambda self: decomposable_table(self))

    @cached_property
    def matrices(self) -> np.ndarray:
        """The echelon matrix of every point, an (n, ell, m) uint8 array in
        ``point_table`` order, built cell by cell with ``cell_matrices``;
        refused like the table, before any cell is built."""
        s = self.spec
        check_work(s, ["table"])
        return np.concatenate([cell_matrices(alpha, s.m, s.field)
                               for alpha in s.support])

    @cached_property
    def dual(self) -> Code:
        """C(m-ell, m); this code itself when 2 ell = m."""
        s = self.spec
        if 2 * s.ell == s.m:
            return self
        return Code(CodeSpec(s.field, s.m - s.ell, s.m))

    @cached_property
    def truncation(self) -> Code:
        """C(ell-1, m-1)."""
        s = self.spec
        return Code(CodeSpec(s.field, s.ell - 1, s.m - 1))


def decomposable_table(code: Code) -> np.ndarray:
    """The [m ell]_q decomposable hyperplane classes of C(ell, m), one
    normalized coefficient vector per row: an (N, k) uint8 array.

    They are the points of the dual Grassmannian G(m-ell, m) (Nogin 1996):
    a point with Pluecker coordinates p_b is the wedge element sum p_b v_b,
    which ``functional_to_wedge`` reaches from the functional with
    coefficient eps(a) p_b at a = complement(b), eps the shuffle sign.
    Rows follow the points of ``code.dual.table``.
    """
    spec = code.spec
    if spec.is_schubert:
        raise ValueError("decomposable classes are defined for Grassmann codes")
    field, ell, m = spec.field, spec.ell, spec.m
    if ell == m:
        return np.ones((1, 1), dtype=np.uint8)  # G(0, m): the empty wedge
    dual = code.dual
    col = {b: j for j, b in enumerate(dual.spec.support)}
    coeffs = dual.table[:, [col[complement(a, m)] for a in spec.support]]
    flip = [i for i, a in enumerate(spec.support) if shuffle_sign(a, m) < 0]
    coeffs[:, flip] = field.neg_array[coeffs[:, flip]]
    return _normalize_rows(field, coeffs)


def _table_rank(field: GF, table: np.ndarray) -> int:
    """Rank of an (N, k) uint8 array.  About 4k rows spread evenly over the
    table are reduced first: when they have rank k, so has the table."""
    n, k = table.shape
    if ranks(field, table[None, ::max(1, n // (4 * k))])[0] == k:
        return k
    return int(ranks(field, table[None])[0])


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """k x n generator matrix whose columns are the projective points.

    ``columns`` is the (n, k) uint8 ``point_table``: row j of the array is
    column j of the matrix.
    """

    spec: CodeSpec
    columns: np.ndarray

    @property
    def k(self) -> int:
        return self.spec.k

    @property
    def n(self) -> int:
        return len(self.columns)

    def full_rank(self) -> bool:
        return _table_rank(self.spec.field, self.columns) == self.k


def build_generator(spec: CodeSpec) -> GeneratorMatrix:
    cols = point_table(spec)
    if len(cols) != spec.n:
        raise InvariantError("point count disagrees with closed-form length")
    return GeneratorMatrix(spec, cols)


def codeword_weight(func: DualFunctional, spec: CodeSpec,
                    table: np.ndarray) -> int:
    """Number of points of ``table``, the code's ``Code.table`` or
    ``point_table``, where the functional does not vanish: the reference
    for ``weight_array``."""
    if func.ell != spec.ell or func.m != spec.m or func.field != spec.field:
        raise ValueError("functional does not match the code parameters")
    support = spec.support
    if spec.alpha is not None:
        allowed = set(support)
        if any(a not in allowed for a in func.coeffs):
            raise ValueError("functional must be supported on the down-set of alpha")
    return int(np.count_nonzero(func.evaluate_rows(table, support)))


# -- scalar-class sweep ------------------------------------------------------

def class_count(q: int, k: int) -> int:
    return (q**k - 1) // (q - 1)


def _places(q: int, k: int) -> np.ndarray:
    """q^(k-1-j) for j < k: the codeword c of F_q^k has index
    c @ _places(q, k)."""
    return q ** np.arange(k - 1, -1, -1, dtype=np.int64)


def _digits(idx: np.ndarray, q: int, k: int) -> np.ndarray:
    """The coefficient vectors of the codeword indices ``idx``, an (N, k)
    uint8 array: the inverse of ``_places``."""
    return (np.asarray(idx, dtype=np.int64)[:, None] // _places(q, k)
            % q).astype(np.uint8)


def _class_indices(q: int, k: int) -> np.ndarray:
    """Codeword index of every ``class_representatives`` vector, in order:
    the classes led by a 1 in position k-1-j hold indices [q^j, 2 q^j)."""
    return np.concatenate([np.arange(q**j, 2 * q**j, dtype=np.int64)
                           for j in reversed(range(k))])


def class_representatives(q: int, k: int):
    """One representative per scalar class: first nonzero coefficient 1.

    Deterministic order: by position of the leading 1, then by the base-q
    digits of the tail (earlier coordinates most significant), i.e. by
    codeword index.
    """
    return map(tuple, _digits(_class_indices(q, k), q, k).tolist())


def class_weights(code: Code):
    """Yield (representative vector, weight) over all scalar classes, in
    ``class_representatives`` order, read off ``code.weights``."""
    weights = code.weights  # refused before any class is built
    q, k = code.spec.field.q, code.spec.k
    yield from zip(class_representatives(q, k),
                   weights[_class_indices(q, k)].tolist())


@cache
def _trace_dual(field: GF) -> np.ndarray:
    """ell(a) = sum_s Tr(a x^s) p^s (x^s has index p^s), so that the F_p
    inner product of the base-p digits of c with ell(a) is Tr(c a).  Built
    once per field and kept read-only."""
    p, e = field.p, field.e
    tr = [reduce(field.add, (reduce(field.mul, [b] * p**j, 1)
                             for j in range(e)), 0)
          for b in range(field.q)]
    dual = np.array([sum(tr[field.mul(a, p**s)] * p**s for s in range(e))
                     for a in range(field.q)])
    dual.flags.writeable = False
    return dual


def _swap_digits(idx: np.ndarray, p: int, s: int) -> np.ndarray:
    """Position of y in F_p^s in the layout the transforms read: the low
    s // 2 base-p digits of y and its high digits trade places."""
    lo = p ** (s // 2)
    return idx % lo * (p**s // lo) + idx // lo


def _transpose_into(out: np.ndarray, rows: np.ndarray) -> None:
    """out[..., j, i] = rows[..., i, j], copied 64 rows of ``rows`` at a
    time so that the writes to the contiguous ``out`` stay cached."""
    for i in range(0, rows.shape[-2], 64):
        out[..., i:i + 64] = rows[..., i:i + 64, :].swapaxes(-1, -2)


def _butterfly_steps(src: np.ndarray, dst: np.ndarray, p: int,
                     stride: int) -> tuple[np.ndarray, np.ndarray]:
    """The p = 2 steps of ``_transform_swapped`` on the bits of stride
    ``stride`` and up, in place on src; returns src and dst.  In int16
    b * -2 may wrap around; two's complement still leaves the exact a - b
    whenever that fits, as every true value of the transform does."""
    h = stride
    while h < src.shape[1]:
        a, b = src.reshape(-1, 2, h).swapaxes(0, 1)  # views
        a += b
        b *= -2
        b += a  # (a + b) - 2b = a - b
        h *= 2
    return src, dst


def _residue_steps(src: np.ndarray, dst: np.ndarray, p: int,
                   stride: int) -> tuple[np.ndarray, np.ndarray]:
    """The odd-p steps of ``_transform_swapped`` on the digits of stride
    ``stride`` and up, from src into dst and back, one per digit:
    N'[r, .., c_d, ..] = sum_y N[r - c_d y, .., y, ..]; returns the buffer
    holding the result and the free one."""
    while stride < src.shape[1]:
        a, b = src.reshape(p, -1, p, stride), dst.reshape(p, -1, p, stride)
        for c in range(p):
            out = b[:, :, c]
            out[...] = a[:, :, 0]
            for y in range(1, p):
                s = c * y % p
                out[s:] += a[:p - s, :, y]
                if s:
                    out[:s] += a[p - s:, :, y]
        src, dst = dst, src
        stride *= p
    return src, dst


def _transform_swapped(buf: np.ndarray, p: int, s: int) -> np.ndarray:
    """The character transform over F_p^s of row 0 of ``_label_histogram``,
    y counted buf[0, _swap_digits(y, p, s)] times: for p = 2 row 0 becomes
    sum_y f(y) (-1)^<c, y>, and for odd p row r becomes
    N[r, c] = #{y : <c, y> = r mod p}.  Viewed as (rows, p^lo, p^hi), the
    steps on the low digits of y run from stride p^hi; one transposed copy
    restores natural order for the steps on the high digits, from stride
    p^lo, so no step has an inner loop shorter than p^(s // 2).  The step
    kernel is chosen by characteristic.  Overwrites buf and returns the
    result in natural order and buf's dtype; int16 holds it exactly while
    the total count stays below 2^15."""
    lo = s // 2
    hi = s - lo
    steps = _butterfly_steps if p == 2 else _residue_steps
    src, dst = steps(buf, np.empty_like(buf), p, p**hi)
    _transpose_into(dst.reshape(-1, p**hi, p**lo),
                    src.reshape(-1, p**lo, p**hi))
    return steps(dst, src, p, p**lo)[0]


def _label_histogram(field: GF, table: np.ndarray, lane: type) -> np.ndarray:
    """A (1, q^k) array for p = 2, (p, q^k) for odd p, of dtype ``lane``,
    zero below row 0, where row 0 counts the labelled multiples of the
    points of ``table`` at each codeword index, in the layout of
    ``_swap_digits``."""
    q, p, k = field.q, field.p, table.shape[1]
    s = field.e * k
    # labels[t - 1, a] = ell(t a); each point x enters as ell(t x), t != 0,
    # at the base-q index of its labelled coordinates.  The swap only moves
    # base-p digits, so column j's label lands, digits already in place,
    # at _swap_digits(label q^(k-1-j)); those places are added one column
    # at a time into one buffer
    labels = _trace_dual(field)[field.mul_array[1:]]
    idx = np.zeros((q - 1, len(table)), dtype=np.int64)
    places = np.empty_like(idx)
    for j, column in enumerate(table.T):
        # mode "clip" (the labels are in range): in the default mode,
        # ``take`` buffers its ``out``
        np.take(_swap_digits(labels * q ** (k - 1 - j), p, s), column,
                axis=1, out=places, mode="clip")
        idx += places
    hist = np.zeros((1 if p == 2 else p, q**k), dtype=lane)
    # a 1 of the histogram's own dtype keeps ``add.at`` on its uncast
    # loop; a Python int 1 is read as int64, which is ~30x slower
    np.add.at(hist[0], idx.ravel(), lane(1))
    return hist


def _table_weights(field: GF, rows: np.ndarray, what: str) -> np.ndarray:
    """Weights of all q^K codewords over the rows of an (N, K) uint8 array,
    int32, c at index sum_i c_i q^(K-i): the number of rows x, counted with
    multiplicity, where c.x != 0.  Rows may repeat or be zero.

    The transform runs in int16 when (q-1) N < 2^15 and in int32 above:
    each of its values is a signed (p = 2) or nonnegative (odd p) partial
    sum of the (q-1) N labels, so it lies within +-(q-1) N.  The first
    step after it widens to int32.  ``what`` names the rows in the
    ``InvariantError`` of a failed check.
    """
    q, p, e = field.q, field.p, field.e
    n, k = rows.shape
    # every count below lies within +-p (q-1) n, exact in int32; for a
    # code's table the byte ceiling keeps it there, since (q-1) n < q^k
    if p * (q - 1) * n >= 2**31:
        raise InvariantError(f"{what}: counts overflow int32")
    lane = np.int16 if (q - 1) * n < 2**15 else np.int32
    # with Z = #{x : c.x = 0}, N0(c) = #{(x, t) : Tr(t c.x) = 0}
    # = (q-1) Z + (n-Z)(q/p-1), for any multiset of rows; the transform of
    # the label histogram over F_p^(ek) gives N0 - N1 = q Z - n for p = 2
    # and N0 for odd p
    buf = _transform_swapped(_label_histogram(field, rows, lane), p, e * k)
    if p == 2:
        f = np.add(buf[0], n, dtype=np.int32)  # = q Z
    else:
        f = np.multiply(buf[0], p, dtype=np.int32)
        f -= n * (q - p)  # = q (p-1) Z
    del buf
    den = q * (p - 1)
    if (f & (q - 1) if p == 2 else f % den).any():
        raise InvariantError(f"{what}: counts not divisible by {den}")
    if p == 2:
        f >>= e
    else:
        f //= den
    return np.subtract(n, f, out=f)


def weight_array(code: Code) -> np.ndarray:
    """Weights of all q^k codewords, int32, c at index sum_i c_i q^(k-i):
    ``_table_weights`` of ``code.table``.  Raises ``BudgetExceeded`` over
    ``MAX_SWEEP_BYTES``, before allocating.
    """
    spec = code.spec
    check_work(spec, ["sweep"])
    return _table_weights(spec.field, code.table, spec.describe())


# -- full weight distribution ------------------------------------------------

@dataclass(frozen=True)
class WeightDistribution:
    """Exact map weight -> codeword count for a complete sweep."""

    spec: CodeSpec
    counts: dict[int, int] = dc_field(default_factory=dict)

    def total(self) -> int:
        return sum(self.counts.values())

    def min_weight(self) -> int:
        return min(w for w in self.counts if w > 0)

    def second_weight(self) -> int:
        nonzero = sorted(w for w in self.counts if w > 0)
        if len(nonzero) < 2:
            raise ValueError("distribution has a single nonzero weight")
        return nonzero[1]

    def check_invariants(self) -> None:
        """Raise ``InvariantError`` unless the counts are consistent: they
        must meet the Pless power moments 0-2 of a projective code
        (MacWilliams & Sloane ch. 5), cross-multiplied."""
        q, k, n = self.spec.field.q, self.spec.k, self.spec.n

        def require(ok: bool, what: str) -> None:
            if not ok:
                raise InvariantError(f"{self.spec.describe()}: {what}")

        require(self.counts.get(0) == 1, "zero word must appear exactly once")
        for w, c in self.counts.items():
            if w:
                require(0 < w <= n, f"weight {w} outside (0, n]")
                require(c % (q - 1) == 0, "nonzero counts divide by q-1")
        m0, m1, m2 = (sum(w**j * c for w, c in self.counts.items())
                      for j in range(3))
        require(m0 == q**k, "counts must sum to q^k")
        require(m1 == (q - 1) * q ** (k - 1) * n, "first Pless moment")
        require(q * q * m2 == (q - 1) * q**k * n * ((q - 1) * n + 1),
                "second Pless moment")

    def to_json_dict(self) -> dict:
        s = self.spec
        spec = {"q": str(s.field.q), "ell": str(s.ell), "m": str(s.m),
                "n": str(s.n), "k": str(s.k)}
        if s.alpha is not None:
            spec["alpha"] = ",".join(map(str, s.alpha))
        return {"spec": spec,
                "counts": {str(w): str(c) for w, c in sorted(self.counts.items())},
                "complete": True}

    def to_csv(self) -> str:
        lines = ["weight,count"]
        lines += [f"{w},{c}" for w, c in sorted(self.counts.items())]
        return "\n".join(lines) + "\n"


def weight_distribution(code: Code,
                        budget: int = DEFAULT_BUDGET) -> WeightDistribution:
    """Exact counts for all q^k codewords of the code.  They are the
    histogram of ``code.weights`` when that array is already built, else
    ``split_distribution`` when the code has a side for it, else the
    histogram of a sweep.  This is the one choice of engine, and each
    engine is priced as itself (``check_work`` on the ``"split"`` of the
    first side, or on the ``"sweep"``) before any work starts."""
    spec = code.spec
    if "weights" not in vars(code):
        sides = _split_sides(spec)
        if sides:
            check_work(CodeSpec(spec.field, sides[0], spec.m), ["split"],
                       budget)
            return split_distribution(code)
        check_work(spec, ["sweep"], budget)
    weights, hist = np.unique(code.weights, return_counts=True)
    counts = dict(zip(weights.tolist(), hist.tolist()))
    dist = WeightDistribution(spec, counts)
    dist.check_invariants()
    return dist


# -- the split: one transform per rank class ---------------------------------

def _split_sides(spec: CodeSpec) -> list[int]:
    """The sides s in {ell, m-ell} that ``split_distribution`` can take
    for a Grassmann code, the smallest k'' = C(m-1, s-1) first (C(ell, m)
    and C(m-ell, m) are equivalent codes).  On side s the split form f'
    lies in the dual of the s-th exterior power of F_q^(m-1); for s <= 2
    or s >= m-3 its orbits under GL_(m-1)(F_q) and scalars are rank
    classes (``_rank_classes``)."""
    ell, m = spec.ell, spec.m
    if spec.is_schubert:
        return []
    return sorted({s for s in (ell, m - ell)
                   if 1 <= s < m and (s <= 2 or s >= m - 3)},
                  key=lambda s: math.comb(m - 1, s - 1))


def _rank_classes(field: GF, s: int, n: int) -> list[tuple[list, int]]:
    """The classes of the forms f' on the s-th exterior power of F_q^n,
    for s <= 2 or s >= n-2, as (index tuples of a representative whose
    coefficients are all 1, class size).

    With t = s, or t = n - s when s > 2, f' is a t-form or the complement
    of one; the classes are those of the t-form: its ranks 2r, represented
    by sum_{i<r} X_(2i+1, 2i+2) in A(n, 2r) forms, for t = 2, and zero or
    nonzero for t <= 1.  The representative of a complement has the
    complementary tuples in [n]; the signs the complement map gives do
    not change the rank."""
    t = s if s <= 2 else n - s
    if t == 2:
        forms = [([(2 * i + 1, 2 * i + 2) for i in range(r)],
                  alternating_count(n, r, field.q))
                 for r in range(n // 2 + 1)]
    else:
        forms = [([], 1),
                 ([tuple(range(1, t + 1))], field.q ** math.comb(n, t) - 1)]
    if t != s:
        forms = [([tuple(x for x in range(1, n + 1) if x not in b)
                   for b in tuples], size) for tuples, size in forms]
    return forms


def _split_counts(spec: CodeSpec, s: int) -> dict[int, int]:
    """The weight distribution of C(s, m), equivalent to the Grassmann
    code ``spec``, from the split f = (f', f'') over the tuples without
    and with m.  Over the fiber of q^(m-s) points above each point U' of
    G(s-1, m-1), f is affine in the last row u with linear part
    u -> f'(U' ^ u), so with N = [m-1, s-1]_q and Z = Z(f') the points U'
    where f'(U' ^ e_j) = 0 for every j < m,

        wt(f) = wt_{G(s, m-1)}(f') + (N - |Z|)(q^(m-s) - q^(m-s-1))
                + q^(m-s) wt_Z(f'').

    The distribution over f'' is constant on a class of f', so each class
    of ``_rank_classes`` adds its size times the histogram of one
    ``_table_weights`` call over the Z rows of the C(s-1, m-1) table.  The
    two tables and that q^k'' transform are priced under
    ``MAX_SWEEP_BYTES`` before any is built."""
    field, m = spec.field, spec.m
    q, n = field.q, m - 1
    outer = CodeSpec(field, s, n)
    inner = CodeSpec(field, s - 1, n) if s >= 2 else None
    check_work(outer, ["table"])
    if inner is not None:
        check_work(inner, ["table"])
    check_work(CodeSpec(field, s, m), ["split"])
    outer_table = minors_table(outer)
    # G(0, m-1) is one point, with the single coordinate of the empty tuple
    inner_table = np.ones((1, 1), dtype=np.uint8) if inner is None \
        else minors_table(inner)
    ext = wedge_layout(field, inner_table)
    # row j-1: the columns of ext that give U' ^ e_j
    wedges = np.stack([wedge_columns(s - 1, n, j) for j in range(1, n + 1)])
    col = {a: i for i, a in enumerate(outer.support)}
    per_string, fiber = q ** (m - s) - q ** (m - s - 1), q ** (m - s)
    what = f"{spec.describe()} split"
    counts: dict[int, int] = {}
    for tuples, size in _rank_classes(field, s, n):
        coeffs = dict.fromkeys(tuples, 1)
        wt_outer = int(np.count_nonzero(form_values(
            field, coeffs, outer_table, outer.support)))
        # f'(U' ^ e_j) for every j at once, from the columns f' reads: at
        # most n/2 per U' and j, the most tuples a representative has
        reads = ext.take(wedges[:, [col[a] for a in tuples]], axis=1)
        on_z = ~form_values(field, coeffs, reads.reshape(len(ext) * n, -1),
                            tuples).reshape(-1, n).any(axis=1)
        base = wt_outer + (len(inner_table) - int(on_z.sum())) * per_string
        hist = np.bincount(_table_weights(field, inner_table[on_z], what))
        for w in np.flatnonzero(hist).tolist():
            weight = base + fiber * w
            counts[weight] = counts.get(weight, 0) + size * int(hist[w])
    return counts


def split_distribution(code: Code) -> WeightDistribution:
    """The weight distribution of a Grassmann code from the paper's split
    of G(ell, m) into G(ell, m-1) and strings over G(ell-1, m-1), on the
    first of ``_split_sides`` (``_split_counts``): one transform of
    q^k'' codewords per rank class instead of a sweep of q^k.  Raises
    ``ValueError`` for a code without a side and ``BudgetExceeded`` over
    ``MAX_SWEEP_BYTES`` before any work; the counts pass
    ``check_invariants``."""
    spec = code.spec
    sides = _split_sides(spec)
    if not sides:
        raise ValueError(f"no side of {spec.describe()} has rank classes "
                         "to split over")
    dist = WeightDistribution(spec, _split_counts(spec, sides[0]))
    dist.check_invariants()
    return dist


# -- closed forms ------------------------------------------------------------

def min_distance(spec: CodeSpec) -> int:
    """Closed-form minimum distance q^(ell(m-ell)) of the Grassmann code."""
    if spec.is_schubert:
        raise ValueError("use schubert_min_distance for Schubert codes")
    return spec.field.q ** (spec.ell * (spec.m - spec.ell))


def second_min_weight(spec: CodeSpec) -> int:
    """Closed-form second minimum weight, defined for 2 <= ell <= m-2."""
    if spec.is_schubert:
        raise ValueError("second weight formula applies to Grassmann codes")
    if not 2 <= spec.ell <= spec.m - 2:
        raise ValueError("second weight undefined: code has a single nonzero weight")
    exp = spec.ell * (spec.m - spec.ell)
    return spec.field.q**exp + spec.field.q ** (exp - 2)


def schubert_min_distance(alpha: tuple[int, ...], m: int, q: int) -> int:
    """q^delta(alpha), the minimum distance of C_alpha(ell, m)."""
    check_index_tuple(alpha, m)
    return q ** delta(alpha)


# -- verification suites -----------------------------------------------------

def _suite_report(name: str, checks: list[dict], **extra) -> dict:
    report = {"suite": name, "pass": all(c["pass"] for c in checks),
              "checks": checks}
    report.update(extra)
    return report


# seed and size of the sample of nondecomposable classes that the rank
# test cross-checks; fixed, so that reports reproduce
_CROSS_CHECK_SEED = 0
_CROSS_CHECK_SAMPLES = 200


def _functional_dicts(field: GF, tuples, vecs: np.ndarray) -> list[dict]:
    """``DualFunctional.to_json_dict`` of the functional with coefficients
    v over ``tuples``, for every row v of the uint8 array ``vecs``: its
    nonzero coefficients, keyed by tuple in sorted order."""
    order = sorted(range(len(tuples)), key=lambda i: tuples[i])
    names = [format_index_tuple(tuples[i]) for i in order]
    fmt = [field.format_element(c) for c in range(field.q)]
    return [{a: fmt[c] for a, c in zip(names, vec) if c}
            for vec in vecs[:, order].tolist()]


def _failures(field: GF, tuples, vecs: np.ndarray, **values) -> list[dict]:
    """One failure entry per row of ``vecs``: its functional over
    ``tuples`` (``_functional_dicts``), then its entry of each list in
    ``values`` under that keyword."""
    return [{"functional": func, **dict(zip(values, row))}
            for func, *row in zip(_functional_dicts(field, tuples, vecs),
                                  *values.values())]


def _dual_classes(code: Code):
    """The decomposable classes of a Grassmann code (``code.decomposables``),
    a mask over the codeword indices marking all their multiples, and the
    class indices (``_class_indices``) of every other class."""
    spec = code.spec
    q, k = spec.field.q, spec.k
    rows = code.decomposables
    is_dec = np.zeros(q**k, dtype=bool)
    is_dec[spec.field.mul_array[1:][:, rows] @ _places(q, k)] = True  # t c
    classes = _class_indices(q, k)
    return rows, is_dec, classes[~is_dec[classes]]


def _rank_cross_check(spec: CodeSpec, rows: np.ndarray,
                      others: np.ndarray) -> dict:
    """The annihilator rank test (Nogin 1996: f is decomposable iff its
    annihilator has dimension m - ell) must call every decomposable row
    decomposable, and every class of ``others`` in a sample of at most
    ``_CROSS_CHECK_SAMPLES`` (drawn with ``_CROSS_CHECK_SEED``) not.  One
    call of ``annihilator_ranks`` reduces all of them; failures are listed
    decomposable rows first, then the sampled classes in index order."""
    q, k = spec.field.q, spec.k
    if len(others) > _CROSS_CHECK_SAMPLES:
        rng = random.Random(_CROSS_CHECK_SEED)
        others = others[sorted(rng.sample(range(len(others)),
                                          _CROSS_CHECK_SAMPLES))]
    vecs = np.concatenate([rows, _digits(others, q, k)])
    expected = np.arange(len(vecs)) < len(rows)
    found = annihilator_ranks(spec.field, spec.ell, spec.m, vecs) == spec.ell
    wrong = found != expected
    failures = _failures(spec.field, spec.support, vecs[wrong],
                         decomposable=found[wrong].tolist())
    return {"identity": "rank-cross-check", "decomposable": len(rows),
            "sampled": len(others), "failures": failures,
            "pass": not failures}


def verify_nogin(code: Code) -> dict:
    """Minimum weight = q^(ell(m-ell)), attained exactly by decomposables.

    The codewords of weight d in ``code.weights`` must be the multiples of
    the ``code.decomposables`` rows, and no nonzero codeword may weigh
    less; a failure lists one functional per scalar class.
    """
    spec = code.spec
    field, q, k = spec.field, spec.field.q, spec.k
    d = min_distance(spec)
    weights = code.weights
    rows, is_dec, others = _dual_classes(code)
    at_d = weights == d
    bad = np.flatnonzero((weights[1:] < d) | (at_d[1:] != is_dec[1:])) + 1
    # the first bad index of each class, in index order
    _, first = np.unique(_normalize_rows(field, _digits(bad, q, k))
                         @ _places(q, k), return_index=True)
    listed = bad[np.sort(first)]
    failures = _failures(field, spec.support, _digits(listed, q, k),
                         weight=weights[listed].tolist(),
                         decomposable=is_dec[listed].tolist())
    n_min = int(np.count_nonzero(at_d)) // (q - 1)
    expected_classes = gaussian_binomial(spec.m, spec.ell, q)
    checks = [
        {"identity": "min-weight-iff-decomposable", "failures": failures,
         # distinct rows must give (q - 1) N distinct multiples
         "pass": not bad.size
         and int(np.count_nonzero(is_dec)) == (q - 1) * len(rows)},
        {"identity": "decomposable-class-count", "lhs": n_min,
         "rhs": expected_classes, "pass": n_min == expected_classes},
        _rank_cross_check(spec, rows, others),
    ]
    return _suite_report("nogin", checks, code=spec.describe(), d=d)


def verify_second_weight(code: Code,
                         budget: int = DEFAULT_BUDGET) -> dict:
    """No weight strictly inside (d, d + q^(ell(m-ell)-2)]; bound attained."""
    spec = code.spec
    d = min_distance(spec)
    d2 = second_min_weight(spec)
    dist = weight_distribution(code, budget=budget)
    gap = [w for w in dist.counts if d < w < d2]
    checks = [
        {"identity": "min-weight", "lhs": dist.min_weight(), "rhs": d,
         "pass": dist.min_weight() == d},
        {"identity": "gap-empty", "violations": gap, "pass": not gap},
        {"identity": "second-weight-attained", "lhs": dist.second_weight(),
         "rhs": d2, "pass": dist.second_weight() == d2},
    ]
    return _suite_report("second", checks, code=spec.describe(),
                         distribution=dist.to_json_dict())


def special_theta(ell: int, m: int) -> tuple[int, ...]:
    """The tuple (m-ell-1, m-ell+2, ..., m) with delta = ell(m-ell) - 2."""
    if not 2 <= ell <= m - 2:
        raise ValueError("theta requires 2 <= ell <= m-2")
    return (m - ell - 1,) + tuple(range(m - ell + 2, m + 1))


# seed of the attained-family sample; fixed, so that reports reproduce
_ATTAINED_SEED = 0


def _attained_sample(q: int, nfree: int, max_samples: int):
    """Coefficient tuples (c_theta, c_free...) the attained suite checks.

    The whole family of (q-1) q^nfree members, in lexicographic order, when
    it fits under ``max_samples``; otherwise ``max_samples`` distinct
    members drawn with ``_ATTAINED_SEED``, spread evenly over the q-1
    values of c_theta (every value once the cap reaches q-1).
    """
    size = q**nfree
    if (q - 1) * size <= max_samples:
        idx = np.arange(size, q * size)
    else:
        rng = random.Random(_ATTAINED_SEED)
        per, extra = divmod(max_samples, q - 1)
        idx = np.array([c_theta * size + code for c_theta in range(1, q)
                        for code in sorted(rng.sample(
                            range(size), per + (c_theta <= extra)))])
    return map(tuple, _digits(idx, q, nfree + 1).tolist())


def verify_attained_family(code: Code, max_samples: int = 200) -> dict:
    """Second-weight family: c_t X_theta + sum over Delta(theta) + X_gamma.

    Checks the functionals of ``_attained_sample`` (nonzero theta
    coefficient, unit gamma coefficient); each must have full-code weight
    d + q^(ell(m-ell)-2) and must meet the Schubert variety at theta in
    exactly n_theta - q^(ell(m-ell)-2) points.

    The family lives on the ell + 2 coordinates theta, gamma and the rest
    of Delta(theta), so two ``_table_weights`` calls weigh every functional
    on them at once: one over those columns of ``code.table``, one over
    the same columns of the points of Omega_theta.  A sampled member is
    read off both at the index of its coefficients (c_theta, 1, c_free...);
    only a failure is rendered as a functional.
    """
    if max_samples < 1:
        raise ValueError(f"max_samples must be at least 1, got {max_samples}")
    spec = code.spec
    field, ell, m = spec.field, spec.ell, spec.m
    expected_weight = second_min_weight(spec)
    theta = special_theta(ell, m)
    gamma = tuple(range(m - ell, m))
    table = code.table
    dtheta = delta_set(theta, m)
    free = [a for a in dtheta if a != gamma]
    q = field.q
    n_theta = CodeSpec(field, ell, m, alpha=theta).n
    expected_meet = n_theta - q ** (ell * (m - ell) - 2)
    col = {a: i for i, a in enumerate(spec.support)}
    family = (theta, gamma, *free)
    family_cols = [col[a] for a in family]
    # Omega_theta is the linear section {p_beta = 0 : beta in Delta(theta)}
    omega = table[~table[:, [col[a] for a in dtheta]].any(axis=1)]
    what = f"{spec.describe()} attained family"
    weights = _table_weights(field, table[:, family_cols], what)
    omega_weights = _table_weights(field, omega[:, family_cols], what)
    # (c_theta, c_free...) -> (c_theta, 1, c_free...) -> codeword index
    sample = np.array(list(_attained_sample(q, len(free), max_samples)),
                      dtype=np.int64)
    idx = np.insert(sample, 1, 1, axis=1) @ _places(q, len(family))
    w = weights[idx]
    meet = len(omega) - omega_weights[idx]
    bad = np.flatnonzero((w != expected_weight) | (meet != expected_meet))
    failures = _failures(field, family, _digits(idx[bad], q, len(family)),
                         weight=w[bad].tolist(), omega_meet=meet[bad].tolist())
    checks = [{"identity": "attained-family", "sampled": len(sample),
               "family": (q - 1) * q ** len(free), "failures": failures,
               "pass": not failures}]
    return _suite_report("attained", checks, theta=theta, gamma=gamma,
                         expected_weight=expected_weight,
                         expected_omega_meet=expected_meet)


def _check_grassmann(code: Code, suite: str) -> None:
    """Refuse a Schubert code; the top cell is the Grassmann code itself."""
    if code.spec.is_schubert:
        raise ValueError(f"the {suite} suite applies to Grassmann codes")


def _check_functional_code(code: Code, func: DualFunctional) -> None:
    """Refuse a functional that is not one of the Grassmann code ``code``."""
    s = code.spec
    if s.is_schubert or (s.field, s.ell, s.m) != (func.field, func.ell,
                                                  func.m):
        raise ValueError("functional must be of the Grassmann code")


def _string_columns(spec: CodeSpec) -> list[int]:
    """Columns of the tuples ending at m among ``spec.support``: the
    coordinates of a functional whose hyperplane contains the
    sub-Grassmannian G(ell, V_{m-1}).  Dropping the m of each gives the
    support of the truncation C(ell-1, m-1), in the same order."""
    return [i for i, a in enumerate(spec.support) if a[-1] == spec.m]


def _fiber_labels(spec: CodeSpec) -> list[str]:
    """The fiber labels nu of the strings reports, lexicographic: the
    digits of 0, 1, ..., q^(m-ell) - 1."""
    q, s = spec.field.q, spec.m - spec.ell
    return [",".join(map(str, nu))
            for nu in _digits(np.arange(q**s), q, s).tolist()]


def _strings_report(functional: dict, labels: list[str], on_h: list[int],
                    sub: int | None) -> dict:
    """The strings report of one functional: ``on_h`` holds its points on
    the hyperplane in the fibers of ``labels``, and ``sub`` those of its
    re-indexed functional on G(ell-1, V_{m-1}) (None for ell = 1)."""
    values = set(on_h)
    checks = [{"identity": "fibers-equal", "values": sorted(values),
               "pass": len(values) == 1}]
    if sub is not None:
        v = next(iter(values))
        checks.append({"identity": "fiber-matches-truncation", "lhs": v,
                       "rhs": sub, "pass": v == sub})
    return _suite_report("strings", checks, functional=functional,
                         fiber_counts=dict(zip(labels, on_h)))


def _string_fibers(spec: CodeSpec, points: np.ndarray) -> np.ndarray:
    """The rows of ``points`` (one per point, in ``point_table`` order) in
    the last-column locus, as an (n', q^(m-ell), ...) array: [i, nu] is
    the i-th point of fiber nu, nu indexing ``_fiber_labels``.

    The locus is the cells with alpha_ell = m, and a fiber the set of its
    points whose last row carries nu in its m - ell free columns.  Those
    are the last slots of ``enumerate_cell``, so nu is a point's index in
    its cell mod q^(m-ell), and every such cell holds a multiple of
    q^(m-ell) points."""
    q, cells = spec.field.q, spec.support
    locus = np.repeat([a[-1] == spec.m for a in cells],
                      [q ** delta(a) for a in cells])
    # compress copies whole rows, about 3x faster here than points[locus]
    return points.compress(locus, axis=0).reshape(
        -1, q ** (spec.m - spec.ell), *points.shape[1:])


def string_partition(code: Code, full: bool) -> dict:
    """The string partition of a Grassmann code: the number of points off
    the last-column locus (those of G(ell, V_{m-1})), and each fiber's
    size or, with ``full``, its echelon matrices, by label sorted as
    text.  The sizes come from the cell sizes alone; both listings are
    refused like the matrices and then by their own price
    (``check_work``) before any work."""
    _check_grassmann(code, "strings")
    spec = code.spec
    check_work(spec, ["table", "partition-full" if full else "partition"])
    q, count = spec.field.q, spec.field.q ** (spec.m - spec.ell)
    # the points of the locus of _string_fibers, in count fibers of equal size
    locus = sum(q ** delta(a) for a in spec.support if a[-1] == spec.m)
    if full:
        # the codeword index of every row, and each distinct row as text once
        rows = _string_fibers(spec, code.matrices).swapaxes(0, 1) \
            @ _places(q, spec.m)
        text = dict.fromkeys(rows.ravel().tolist())
        names = [spec.field.format_element(x) for x in range(q)]
        for key, row in zip(text, _digits(np.fromiter(text, np.int64),
                                          q, spec.m).tolist()):
            text[key] = ",".join([names[x] for x in row])
        values = [[";".join([text[i] for i in mat]) for mat in fiber]
                  for fiber in rows.tolist()]
    else:
        values = [locus // count] * count
    return {"sub_grassmannian_points": spec.n - locus,
            "fibers": dict(sorted(zip(_fiber_labels(spec), values)))}


def verify_string_section(code: Code, func: DualFunctional) -> dict:
    """Fiberwise hyperplane sections against the truncated Grassmannian.

    Requires the functional supported on tuples with last entry m (the
    hyperplane then contains the sub-Grassmannian).  Checks that all
    q^(m-ell) fibers meet the hyperplane equally, matching the count for
    the re-indexed functional on G(ell-1, V_{m-1}).
    """
    ell, m, field = func.ell, func.m, func.field
    _check_functional_code(code, func)
    if any(a[-1] != m for a in func.coeffs):
        raise ValueError("functional must be supported on tuples ending at m")
    cols = _string_columns(code.spec)
    last = [code.spec.support[i] for i in cols]
    fibers = _string_fibers(code.spec, code.table[:, cols])
    zero = func.evaluate_rows(fibers.reshape(-1, len(last)), last) == 0
    on_h = zero.reshape(fibers.shape[:2]).sum(axis=0)
    # ell = 1: the truncated code is the empty product; fibers are single
    # points and there is no reduced count to match
    sub = None
    if ell >= 2:
        reduced = DualFunctional(field, ell - 1, m - 1,
                                 {a[:-1]: c for a, c in func.coeffs.items()})
        sub_code = code.truncation
        sub = sub_code.spec.n - codeword_weight(reduced, sub_code.spec,
                                                sub_code.table)
    return _strings_report(func.to_json_dict(), _fiber_labels(code.spec),
                           on_h.tolist(), sub)


def verify_string_sections(code: Code) -> list[dict]:
    """``verify_string_section`` of every scalar class supported on the
    tuples ending at m, in ``class_representatives`` order.

    One ``_table_weights`` call per fiber weighs every class on its rows,
    and one over the points of C(ell-1, m-1) gives every truncated count.
    Raises ``BudgetExceeded`` when the reports would exceed
    ``MAX_SWEEP_BYTES``, before any work.
    """
    spec = code.spec
    _check_grassmann(code, "strings")
    check_work(spec, ["strings"])
    field = spec.field
    cols = _string_columns(spec)
    last = [spec.support[i] for i in cols]
    classes = _class_indices(field.q, len(last))
    fibers = _string_fibers(spec, code.table[:, cols])
    what = f"{spec.describe()} strings suite"
    on_h = np.stack([len(fibers) - _table_weights(field, fibers[:, nu],
                                                  what)[classes]
                     for nu in range(fibers.shape[1])], axis=1)
    # ell = 1: no truncated count, as in verify_string_section; otherwise
    # the truncation's table is weighed here, so that weight_array stays
    # the one sweep of the command's own code
    subs = [None] * len(classes)
    if spec.ell >= 2:
        sub_code = code.truncation
        subs = (sub_code.spec.n - _table_weights(
            field, sub_code.table, sub_code.spec.describe())[classes]).tolist()
    labels = _fiber_labels(spec)
    return [_strings_report(functional, labels, counts, sub)
            for functional, counts, sub in zip(
                _functional_dicts(field, last,
                                  _digits(classes, field.q, len(last))),
                on_h.tolist(), subs)]


def _annihilator_classes(field: GF, mats: np.ndarray):
    """The covectors that vanish on each point of an (N, ell, m) stack of
    echelon matrices: yields, for consecutive blocks of the points, an
    (N', [m-ell, 1]_q) int64 array whose row lists the
    ``class_representatives(q, m)`` numbers of the classes in that
    point's annihilator V^perp = {u : v.u = 0 for every v in V}, so that
    V lies in ker u exactly for those u.

    With pivots alpha_i and free columns c_1 < ... < c_(m-ell), V^perp has
    the basis k_c = e_c - sum_i M[i, c] e_(alpha_i).  Row i is 0 right of
    its pivot, so M[i, c] != 0 only for c < alpha_i: k_c leads with the 1
    at c and vanishes at the other free columns.  So for y over
    ``class_representatives(q, m-ell)``, led by a 1 at j, u = sum y_j k_(c_j)
    is already in normal form, led by a 1 at t = c_j, and its class number
    is (q^m - q^(m-t))/(q-1) + I - q^(m-1-t), I = u @ ``_places(q, m)``.
    Column by column that is a row gather per free column and, at each
    pivot, a field sum of row gathers.  A block holds at most
    ``_ANNIHILATOR_BYTES`` of class numbers (one point at least)."""
    q = field.q
    n, ell, m = mats.shape
    s = m - ell
    if not s:  # ell = m: V^perp = 0
        yield np.zeros((n, 0), dtype=np.int64)
        return
    ys = _digits(_class_indices(q, s), q, s)
    place = _places(q, m)
    # the class numbers before those led at column t, less the lead's place
    before = (q**m - q * place) // (q - 1) - place
    lead = np.repeat(np.arange(s), q ** np.arange(s - 1, -1, -1))
    # row gathers by column: free[j][c] is what y_j at the free column c
    # adds to the class number, y_j q^(m-1-c), plus before[c] for the y
    # led at j; times[j][a] = a y_j
    free = [np.outer(place, y) + np.outer(before, lead == j)
            for j, y in enumerate(ys.T)]
    times = [np.ascontiguousarray(field.mul_array[:, y]) for y in ys.T]
    step = max(1, _ANNIHILATOR_BYTES // (8 * len(ys)))
    for start in range(0, n, step):
        block = mats[start:start + step]
        # the pivot of a row is its last nonzero column
        pivots = m - 1 - np.argmax(block[:, :, ::-1] != 0, axis=2)
        is_free = np.ones((len(block), m), dtype=bool)
        np.put_along_axis(is_free, pivots, False, axis=1)
        cols = np.nonzero(is_free)[1].reshape(-1, s)
        classes = free[0][cols[:, 0]]
        for table, col in zip(free[1:], cols.T[1:]):
            classes += table[col]
        # -M[i, c_j], so that u at alpha_i is a sum of their multiples
        coeffs = field.neg_array[np.take_along_axis(block, cols[:, None], 2)]
        for row, pivot in zip(coeffs.swapaxes(0, 1), pivots.T):
            value = reduce(field.vadd, (table[a] for table, a in
                                        zip(times, row.T)))
            classes += value * place[pivot][:, None]
        yield classes


def _runs(blocks, size: int):
    """The entries of the arrays of ``blocks``, in order, joined into flat
    runs of consecutive blocks: each run holds at least ``size`` entries,
    but the last may hold fewer, and a run of one block is that block."""
    run, total = [], 0
    for block in blocks:
        run.append(block.ravel())
        total += block.size
        if total >= size:
            yield run[0] if len(run) == 1 else np.concatenate(run)
            run, total = [], 0
    if run:
        yield run[0] if len(run) == 1 else np.concatenate(run)


def _zanella_report(spec: CodeSpec, total: int, sub_counts: list[int]) -> dict:
    """The Zanella report of one hyperplane: ``total`` points on it, and
    ``sub_counts`` of them in each (m-1)-subspace of V_m."""
    q, ell, m = spec.field.q, spec.ell, spec.m
    a = max(sub_counts)
    # |G cap Pi| * (q^(m-ell) - 1) <= a * (q^m - 1), exact integers
    lhs = total * (q ** (m - ell) - 1)
    rhs = a * (q**m - 1)
    checks = [{"identity": "incidence-bound", "lhs": lhs, "rhs": rhs,
               "pass": lhs <= rhs}]
    if all(c == a for c in sub_counts):
        checks.append({"identity": "incidence-equality", "lhs": lhs,
                       "rhs": rhs, "pass": lhs == rhs})
    return _suite_report("zanella", checks, section_size=total,
                         max_sub_count=a, sub_counts=sub_counts)


def verify_zanella_incidence(code: Code, func: DualFunctional) -> dict:
    """Incidence-count bound for hyperplane sections over all V_{m-1}.

    The points of the section in V_{m-1} = ker u are those whose
    annihilator holds u, so the counts are the histogram of
    ``_annihilator_classes`` over the section, one ``np.bincount`` per run
    of blocks (``_runs``)."""
    _check_functional_code(code, func)
    # the echelon matrices of the points on the hyperplane
    on_pi = code.matrices[func.evaluate_rows(code.table) == 0]
    subspaces = class_count(func.field.q, func.m)
    # a histogram costs its bins as well as its numbers, so blocks are
    # counted together until they hold as many numbers as there are bins:
    # ell = 1 codes carry [m-1, 1]_q numbers per point, a few points a block
    sub_counts = sum((np.bincount(run, minlength=subspaces) for run in
                      _runs(_annihilator_classes(func.field, on_pi),
                            subspaces)),
                     np.zeros(subspaces, dtype=np.int64))
    return _zanella_report(code.spec, len(on_pi), sub_counts.tolist())


def verify_zanella_incidences(code: Code) -> list[dict]:
    """``verify_zanella_incidence`` of every scalar class, in
    ``class_representatives`` order.

    A class c meets the subspace ker u in the points of ker u minus the
    weight of c over them, so one ``_table_weights`` call per covector u
    over the rows of ``code.table`` in ker u counts every class; the
    section sizes are read off ``code.weights``.  The points in each
    ker u are a row of one incidence mask, set from the
    ``_annihilator_classes`` numbers of every point.  Raises
    ``BudgetExceeded`` when the reports would exceed ``MAX_SWEEP_BYTES``,
    before any work.
    """
    spec = code.spec
    _check_grassmann(code, "zanella")
    check_work(spec, ["zanella"])
    field = spec.field
    classes = _class_indices(field.q, spec.k)
    table = code.table
    what = f"{spec.describe()} zanella suite"
    # in_ker[u, i]: point i lies in ker u
    in_ker = np.zeros((class_count(field.q, spec.m), spec.n), dtype=bool)
    in_ker[np.concatenate(list(_annihilator_classes(field, code.matrices))),
           np.arange(spec.n)[:, None]] = True
    sub_counts = np.stack([
        len(rows) - _table_weights(field, table[rows], what)[classes]
        for rows in map(np.flatnonzero, in_ker)], axis=1)
    totals = spec.n - code.weights[classes]
    return [_zanella_report(spec, total, counts)
            for total, counts in zip(totals.tolist(), sub_counts.tolist())]


def verify_l2_dichotomy(code: Code) -> dict:
    """Every nondecomposable hyperplane class of C(2, 4) meets G(2, V_4) in
    exactly q^3 + q^2 + q + 1 points (the code is a two-weight code).

    The classes outside ``code.decomposables`` are read off
    ``code.weights``; the rank test cross-checks them as in
    ``verify_nogin``.
    """
    spec = code.spec
    if (spec.ell, spec.m) != (2, 4):
        raise ValueError("l2 suite applies to C(2, 4)")
    q = spec.field.q
    expected_meet = q**3 + q**2 + q + 1
    rows, _, others = _dual_classes(code)
    meets = spec.n - code.weights[others]
    wrong = meets != expected_meet
    failures = _failures(spec.field, spec.support,
                         _digits(others[wrong], q, spec.k),
                         meet=meets[wrong].tolist())
    checks = [{"identity": "two-weight",
               "nondecomposable_classes": len(others),
               "expected_meet": expected_meet, "failures": failures,
               "pass": not failures},
              _rank_cross_check(spec, rows, others)]
    return _suite_report("l2", checks, code=spec.describe())
