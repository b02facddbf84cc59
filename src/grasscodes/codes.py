"""Grassmann and Schubert codes: generator matrices, weight distributions,
and the theorem-verification suites.

The projective system of a code is the ordered list of (projectively
normalized) Pluecker coordinate vectors of all Grassmannian or Schubert
points; the weight of the codeword attached to a hyperplane functional is
the number of points where the functional does not vanish.

Engine: ``weight_array`` gives the weight of all q^k codewords at once by
an exact integer character transform over F_q^k = F_p^(ek) (MacWilliams
& Sloane ch. 5): a Walsh-Hadamard butterfly for p = 2, a residue-count
butterfly for odd p.  ``weight_distribution`` is its histogram and
``class_weights`` a view of it.  Sweeps over the operation budget or the
fixed memory ceiling ``MAX_SWEEP_BYTES`` are refused before any work.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field

import numpy as np

from .exterior import DualFunctional, check_functional
from .gf import GF
from .linalg import rank as matrix_rank
from .qcombin import (InvariantError, check_index_tuple, delta, delta_set,
                      gaussian_binomial, index_tuples, nabla_set)
from .grassmann import (enumerate_grassmannian, enumerate_schubert_variety,
                        plucker, string_fiber)

__all__ = [
    "CodeSpec", "GeneratorMatrix", "WeightDistribution", "BudgetExceeded",
    "InvariantError", "DEFAULT_BUDGET", "MAX_SWEEP_BYTES", "build_generator",
    "point_table", "codeword_weight", "class_representatives",
    "class_weights", "check_budget", "weight_array", "weight_distribution",
    "min_distance", "second_min_weight", "schubert_min_distance",
    "verify_nogin", "verify_second_weight", "verify_attained_family",
    "verify_string_section", "verify_zanella_incidence",
    "verify_l2_dichotomy",
]

DEFAULT_BUDGET = 10**10

# Fixed ceiling on the bytes one sweep allocates (see _sweep_bytes).
MAX_SWEEP_BYTES = 2 * 2**30


class BudgetExceeded(RuntimeError):
    """Raised when a sweep would exceed the operation budget or memory."""

    def __init__(self, required: int, budget: int, unit: str = "operations"):
        super().__init__(f"sweep requires ~{required} {unit}, budget is {budget}")
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

    @property
    def support(self) -> list[tuple[int, ...]]:
        """Coordinate tuples carried by the code, in lexicographic order."""
        if self.alpha is None:
            return index_tuples(self.ell, self.m)
        return nabla_set(self.alpha, self.m)

    @property
    def k(self) -> int:
        return len(self.support)

    @property
    def n(self) -> int:
        if self.alpha is None:
            return gaussian_binomial(self.m, self.ell, self.field.q)
        return sum(self.field.q ** delta(b) for b in nabla_set(self.alpha, self.m))

    def points(self):
        if self.alpha is None:
            return enumerate_grassmannian(self.ell, self.m, self.field)
        return enumerate_schubert_variety(self.alpha, self.m, self.field)

    def describe(self) -> str:
        name = f"C({self.ell},{self.m})" if self.alpha is None \
            else f"C_{self.alpha}({self.ell},{self.m})"
        return f"{name} over {self.field!r}"


def point_table(spec: CodeSpec) -> list[tuple[int, ...]]:
    """Normalized coordinate vectors of every point, in enumeration order;
    building it costs more than a sweep over it, so memoize at call sites."""
    support = spec.support
    if spec.alpha is None:
        keep = None
    else:
        all_tuples = index_tuples(spec.ell, spec.m)
        want = set(support)
        keep = [i for i, a in enumerate(all_tuples) if a in want]
    table = []
    for mat in spec.points():
        # a point of the Schubert variety vanishes off the support, so
        # normalizing before restricting leaves the same leading 1
        coords = plucker(mat).normalized().coords
        if keep is not None:
            coords = tuple(coords[i] for i in keep)
        table.append(coords)
    return table


@dataclass(frozen=True)
class GeneratorMatrix:
    """k x n generator matrix whose columns are the projective points."""

    spec: CodeSpec
    columns: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return self.spec.k

    @property
    def n(self) -> int:
        return len(self.columns)

    def rows(self) -> list[list[int]]:
        return [[col[i] for col in self.columns] for i in range(self.k)]

    def full_rank(self) -> bool:
        return matrix_rank(self.spec.field, self.rows()) == self.k


def build_generator(spec: CodeSpec) -> GeneratorMatrix:
    cols = tuple(point_table(spec))
    if len(cols) != spec.n:
        raise InvariantError("point count disagrees with closed-form length")
    return GeneratorMatrix(spec, cols)


def codeword_weight(func: DualFunctional, spec: CodeSpec,
                    table: list[tuple[int, ...]] | None = None) -> int:
    """Number of enumerated points where the functional does not vanish."""
    if func.ell != spec.ell or func.m != spec.m or func.field != spec.field:
        raise ValueError("functional does not match the code parameters")
    support = spec.support
    if spec.alpha is not None:
        allowed = set(support)
        if any(a not in allowed for a in func.coeffs):
            raise ValueError("functional must be supported on the down-set of alpha")
    if table is None:
        table = point_table(spec)
    idx = {a: i for i, a in enumerate(support)}
    terms = [(idx[a], c) for a, c in func.coeffs.items()]
    field = spec.field
    weight = 0
    for coords in table:
        acc = 0
        for i, c in terms:
            if coords[i]:
                acc = field.add(acc, field.mul(c, coords[i]))
        if acc:
            weight += 1
    return weight


# -- scalar-class sweep ------------------------------------------------------

def class_count(q: int, k: int) -> int:
    return (q**k - 1) // (q - 1)


def class_representatives(q: int, k: int):
    """One representative per scalar class: first nonzero coefficient 1.

    Deterministic order: by position of the leading 1, then by the base-q
    digits of the tail (earlier coordinates most significant).
    """
    for lead in range(k):
        tail = k - lead - 1
        for t in range(q**tail):
            vec = [0] * k
            vec[lead] = 1
            x = t
            for j in range(k - 1, lead, -1):
                vec[j] = x % q
                x //= q
            yield tuple(vec)


def class_weights(spec: CodeSpec, table: list[tuple[int, ...]] | None = None):
    """Yield (representative vector, weight) over all scalar classes, in
    ``class_representatives`` order, read off ``weight_array``."""
    weights = weight_array(spec, table)
    q, k = spec.field.q, spec.k
    # the classes led by a 1 in position k-1-j hold indices [q^j, 2 q^j)
    indices = (i for j in reversed(range(k)) for i in range(q**j, 2 * q**j))
    for vec, i in zip(class_representatives(q, k), indices):
        yield vec, weights.item(i)


def check_budget(spec: CodeSpec, budget: int | None = DEFAULT_BUDGET) -> None:
    """Refuse a full sweep before any work: over ``budget`` operations,
    counted as scalar classes times points, or over ``MAX_SWEEP_BYTES``."""
    field, size = spec.field, spec.field.q**spec.k
    required = class_count(field.q, spec.k) * spec.n
    if budget is not None and required > budget:
        raise BudgetExceeded(required, budget)
    # weight_array's peak: the int64 weights and one int64 temporary, and
    # for odd p two int32 buffers of p q^k counts
    nbytes = 16 * size + (0 if field.p == 2 else 8 * field.p * size)
    if nbytes > MAX_SWEEP_BYTES:
        raise BudgetExceeded(nbytes, MAX_SWEEP_BYTES, "bytes")


def _trace_dual(field: GF) -> np.ndarray:
    """ell(a) = sum_s Tr(a x^s) p^s (x^s has index p^s), so that the F_p
    inner product of the base-p digits of c with ell(a) is Tr(c a)."""
    p, e = field.p, field.e
    tr = [sum((field.element(b) ** p**j for j in range(e)), field.zero).idx
          for b in range(field.q)]
    return np.array([sum(tr[field.mul(a, p**s)] * p**s for s in range(e))
                     for a in range(field.q)])


def _walsh_hadamard(f: np.ndarray) -> None:
    """In place: f(c) <- sum_y f(y) (-1)^<c, y> over F_2^r, len(f) = 2^r."""
    h = 1
    while h < f.size:
        a, b = f.reshape(-1, 2, h).swapaxes(0, 1)  # views
        a += b
        b *= -2
        b += a  # (a + b) - 2b = a - b
        h *= 2


def _residue_butterfly(buf: np.ndarray, p: int) -> np.ndarray:
    """N[r, c] = #{y : <c, y> = r mod p} over F_p^s, y counted buf[0, y]
    times; buf has shape (p, p^s), zero below row 0.  One step per digit:
    N'[r, .., c_d, ..] = sum_y N[r - c_d y, .., y, ..]."""
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


def weight_array(spec: CodeSpec,
                 table: list[tuple[int, ...]] | None = None) -> np.ndarray:
    """Weights of all q^k codewords, int64, c at index sum_i c_i q^(k-i).

    Raises ``BudgetExceeded`` over ``MAX_SWEEP_BYTES``, before allocating.
    """
    field = spec.field
    q, p, k = field.q, field.p, spec.k
    check_budget(spec, None)
    if table is None:
        table = point_table(spec)
    n = len(table)
    # labels[t - 1, a] = ell(t a); each point x enters as ell(t x), t != 0
    labels = _trace_dual(field)[np.array(field._mul)[1:]]
    places = q ** np.arange(k - 1, -1, -1, dtype=np.int64)
    idx = labels[:, np.array(table).reshape(n, k)] @ places
    acc = np.bincount(idx.ravel(), minlength=q**k)
    # acc becomes p N0(c), N0(c) = #{(x, t) : Tr(t c.x) = 0}
    # = (q-1) Z + (n-Z)(q/p-1), where Z = #{x : c.x = 0}
    if p == 2:
        _walsh_hadamard(acc)  # N0 - N1, with N0 + N1 = (q-1) n
        acc += (q - 1) * n
    else:
        # int32 is exact: counts are at most (q-1) n < q^k, and the byte
        # ceiling keeps q^k below 2^31
        buf = np.zeros((p, q**k), dtype=np.int32)
        buf[0], acc = acc, None
        acc = np.multiply(_residue_butterfly(buf, p)[0], p, dtype=np.int64)
        del buf
    acc -= n * (q - p)  # = Z q (p-1)
    den = q * (p - 1)
    if (acc % den).any():
        raise InvariantError(f"{spec.describe()}: counts not divisible by {den}")
    acc //= den
    return np.subtract(n, acc, out=acc)


# -- full weight distribution ------------------------------------------------

@dataclass(frozen=True)
class WeightDistribution:
    """Exact map weight -> codeword count for a complete sweep."""

    spec: CodeSpec
    counts: dict[int, int] = dc_field(default_factory=dict)
    complete: bool = True

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
        """Raise ``InvariantError`` unless the counts are consistent; a
        complete distribution must meet the Pless power moments 0-2 of a
        projective code (MacWilliams & Sloane ch. 5), cross-multiplied."""
        q, k, n = self.spec.field.q, self.spec.k, self.spec.n

        def require(ok: bool, what: str) -> None:
            if not ok:
                raise InvariantError(f"{self.spec.describe()}: {what}")

        require(self.counts.get(0) == 1, "zero word must appear exactly once")
        for w, c in self.counts.items():
            if w:
                require(0 < w <= n, f"weight {w} outside (0, n]")
                require(c % (q - 1) == 0, "nonzero counts divide by q-1")
        if self.complete:
            m0, m1, m2 = (sum(w**j * c for w, c in self.counts.items())
                          for j in range(3))
            require(m0 == q**k, "counts must sum to q^k")
            require(m1 == (q - 1) * q ** (k - 1) * n, "first Pless moment")
            require(q * q * m2 == (q - 1) * q**k * n * ((q - 1) * n + 1),
                    "second Pless moment")

    def to_json_dict(self) -> dict:
        spec = {"q": self.spec.field.q, "ell": self.spec.ell, "m": self.spec.m,
                "n": str(self.spec.n), "k": self.spec.k}
        if self.spec.alpha is not None:
            spec["alpha"] = ",".join(map(str, self.spec.alpha))
        return {"spec": spec,
                "counts": {str(w): str(c) for w, c in sorted(self.counts.items())},
                "complete": self.complete}

    def to_csv(self) -> str:
        lines = ["weight,count"]
        lines += [f"{w},{c}" for w, c in sorted(self.counts.items())]
        return "\n".join(lines) + "\n"


def weight_distribution(spec: CodeSpec,
                        budget: int = DEFAULT_BUDGET) -> WeightDistribution:
    """Exact counts for all q^k codewords of the code."""
    check_budget(spec, budget)
    hist = np.bincount(weight_array(spec)).tolist()
    counts = {w: c for w, c in enumerate(hist) if c}
    dist = WeightDistribution(spec, counts, complete=True)
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


def verify_nogin(spec: CodeSpec) -> dict:
    """Minimum weight = q^(ell(m-ell)), attained exactly by decomposables."""
    if spec.is_schubert:
        raise ValueError("Nogin suite applies to Grassmann codes")
    d = min_distance(spec)
    table = point_table(spec)
    support = spec.support
    n_dec = 0
    failures = []
    for vec, w in class_weights(spec, table):
        func = DualFunctional.from_vector(vec, spec.ell, spec.m, spec.field,
                                          support)
        dec = check_functional(func)
        if dec:
            n_dec += 1
        if w < d or (w == d) != dec:
            failures.append({"functional": func.to_json_dict(), "weight": w,
                             "decomposable": dec})
    expected_classes = gaussian_binomial(spec.m, spec.ell, spec.field.q)
    checks = [
        {"identity": "min-weight-iff-decomposable", "failures": failures,
         "pass": not failures},
        {"identity": "decomposable-class-count", "lhs": n_dec,
         "rhs": expected_classes, "pass": n_dec == expected_classes},
    ]
    return _suite_report("nogin", checks, code=spec.describe(), d=d)


def verify_second_weight(spec: CodeSpec,
                         budget: int = DEFAULT_BUDGET) -> dict:
    """No weight strictly inside (d, d + q^(ell(m-ell)-2)]; bound attained."""
    d = min_distance(spec)
    d2 = second_min_weight(spec)
    dist = weight_distribution(spec, budget=budget)
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
        return itertools.product(range(1, q), *[range(q)] * nfree)
    rng = random.Random(_ATTAINED_SEED)
    per, extra = divmod(max_samples, q - 1)
    return ((c_theta, *(code // q**j % q for j in reversed(range(nfree))))
            for c_theta in range(1, q)
            for code in sorted(rng.sample(range(size),
                                          per + (c_theta <= extra))))


def verify_attained_family(ell: int, m: int, field: GF,
                           max_samples: int = 200) -> dict:
    """Second-weight family: c_t X_theta + sum over Delta(theta) + X_gamma.

    Checks the functionals of ``_attained_sample`` (nonzero theta
    coefficient, unit gamma coefficient); each must have full-code weight
    d + q^(ell(m-ell)-2) and must meet the Schubert variety at theta in
    exactly n_theta - q^(ell(m-ell)-2) points.
    """
    if max_samples < 1:
        raise ValueError(f"max_samples must be at least 1, got {max_samples}")
    theta = special_theta(ell, m)
    gamma = tuple(range(m - ell, m))
    spec = CodeSpec(field, ell, m)
    table = point_table(spec)
    dtheta = delta_set(theta, m)
    free = [a for a in dtheta if a != gamma]
    q = field.q
    family = (q - 1) * q ** len(free)
    expected_weight = q ** (ell * (m - ell)) + q ** (ell * (m - ell) - 2)
    n_theta = CodeSpec(field, ell, m, alpha=theta).n
    expected_meet = n_theta - q ** (ell * (m - ell) - 2)
    # Omega_theta is the linear section {p_beta = 0 : beta in Delta(theta)}
    off = [i for i, a in enumerate(spec.support) if a in dtheta]
    omega = [x for x in table if not any(x[i] for i in off)]
    failures = []
    n_checked = 0
    for c_theta, *c_free in _attained_sample(q, len(free), max_samples):
        coeffs = {theta: c_theta, gamma: 1}
        for a, c in zip(free, c_free):
            if c:
                coeffs[a] = c
        func = DualFunctional(field, ell, m, coeffs)
        w = codeword_weight(func, spec, table)
        meet = sum(1 for x in omega if not func.evaluate(x))
        n_checked += 1
        if w != expected_weight or meet != expected_meet:
            failures.append({"functional": func.to_json_dict(), "weight": w,
                             "omega_meet": meet})
    checks = [{"identity": "attained-family", "sampled": n_checked,
               "family": family, "failures": failures, "pass": not failures}]
    return _suite_report("attained", checks, theta=theta, gamma=gamma,
                         expected_weight=expected_weight,
                         expected_omega_meet=expected_meet)


def verify_string_section(func: DualFunctional) -> dict:
    """Fiberwise hyperplane sections against the truncated Grassmannian.

    Requires the functional supported on tuples with last entry m (the
    hyperplane then contains the sub-Grassmannian).  Checks that all
    q^(m-ell) fibers meet the hyperplane equally, matching the count for
    the re-indexed functional on G(ell-1, V_{m-1}).
    """
    ell, m, field = func.ell, func.m, func.field
    if any(a[-1] != m for a in func.coeffs):
        raise ValueError("functional must be supported on tuples ending at m")
    fiber_counts = {}
    for nu in itertools.product(range(field.q), repeat=m - ell):
        cnt = 0
        for mat in string_fiber(nu, ell, m, field):
            if not func.evaluate(plucker(mat).coords):
                cnt += 1
        fiber_counts[nu] = cnt
    # ell = 1: the truncated code is the empty product; fibers are single
    # points and there is no reduced count to match
    sub = None
    if ell >= 2:
        reduced = DualFunctional(field, ell - 1, m - 1,
                                 {a[:-1]: c for a, c in func.coeffs.items()})
        sub = sum(1 for mat in enumerate_grassmannian(ell - 1, m - 1, field)
                  if not reduced.evaluate(plucker(mat).coords))
    values = set(fiber_counts.values())
    checks = [{"identity": "fibers-equal", "values": sorted(values),
               "pass": len(values) == 1}]
    if sub is not None:
        v = next(iter(values))
        checks.append({"identity": "fiber-matches-truncation", "lhs": v,
                       "rhs": sub, "pass": v == sub})
    return _suite_report("strings", checks,
                         functional=func.to_json_dict(),
                         fiber_counts={",".join(map(str, k)): v
                                       for k, v in sorted(fiber_counts.items())})


def _point_in_kernel(mat, u, field: GF) -> bool:
    for row in mat.rows:
        acc = 0
        for x, c in zip(row, u):
            if x and c:
                acc = field.add(acc, field.mul(x, c))
        if acc:
            return False
    return True


def verify_zanella_incidence(func: DualFunctional) -> dict:
    """Incidence-count bound for hyperplane sections over all V_{m-1}."""
    ell, m, field = func.ell, func.m, func.field
    q = field.q
    spec = CodeSpec(field, ell, m)
    pts = list(spec.points())
    coords = [plucker(p).coords for p in pts]
    on_pi = [not func.evaluate(c) for c in coords]
    total = sum(on_pi)
    sub_counts = []
    # every (m-1)-subspace of V_m, as the kernel of a covector up to scalar
    for u in class_representatives(q, m):
        cnt = sum(1 for p, hit in zip(pts, on_pi)
                  if hit and _point_in_kernel(p, u, field))
        sub_counts.append(cnt)
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


def verify_l2_dichotomy(field: GF) -> dict:
    """Every nondecomposable hyperplane class of C(2, 4) meets G(2, V_4) in
    exactly q^3 + q^2 + q + 1 points (the code is a two-weight code)."""
    spec = CodeSpec(field, 2, 4)
    q = field.q
    n = spec.n
    expected_meet = q**3 + q**2 + q + 1
    table = point_table(spec)
    support = spec.support
    failures = []
    n_nondec = 0
    for vec, w in class_weights(spec, table):
        func = DualFunctional.from_vector(vec, 2, 4, field, support)
        if check_functional(func):
            continue
        n_nondec += 1
        if n - w != expected_meet:
            failures.append({"functional": func.to_json_dict(),
                             "meet": n - w})
    checks = [{"identity": "two-weight", "nondecomposable_classes": n_nondec,
               "expected_meet": expected_meet, "failures": failures,
               "pass": not failures}]
    return _suite_report("l2", checks, code=spec.describe())
