"""Exact MacWilliams transform, used as a global checksum on sweeps.

The dual weight distribution of an [n, k] code over F_q with A_i words of
weight i is

    B_j = q^(-k) * S_j,    S_j = sum_i A_i K_j(i),

where K_j is the q-ary Krawtchouk polynomial of length n (MacWilliams &
Sloane, *The Theory of Error-Correcting Codes*, ch. 5).  A complete
distribution is consistent only if every B_j is a nonnegative integer,
with B_0 = 1 and sum_j B_j = q^(n-k).

``_transform_sums`` forms the S_j in exact Python integers.  Weight 0 is
in closed form, K_j(0) = C(n, j) (q-1)^j, stepped as
K_{j+1}(0) = K_j(0) (q-1)(n-j) / (j+1).  At each other weight i with
A_i != 0, the values K_j(i) come from the three-term recurrence

    (j+1) K_{j+1}(i) = (j + (q-1)(n-j) - q i) K_j(i) - (q-1)(n-j+1) K_{j-1}(i)

with K_{-1} = 0 and K_0 = 1.  For q = 2 the reflection
K_{n-j}(i) = (-1)^i K_j(i) halves the steps: the weights step only for
j <= n/2, and with E and O the parts of S_j over the even and the odd
weights, each step gives S_j = E + O and S_{n-j} = E - O.  So the sums
come as (j, S_j) pairs, each j in 0..n once: in increasing j for q != 2,
and as 0, n, 1, n-1, ... for q = 2; a reader of the first few B_j filters
them by j.  All the weights step in lockstep, holding two steps of each.
Every K_j(i) is an integer, so each division by j+1 is exact; a remainder
is a program fault and raises ``InvariantError``.  The whole transform
costs O(#weights * n) big-integer steps, about half of them for q = 2.

``dual_distribution`` runs every step and keeps the n + 1 sums.  It
prices them before its first step and refuses them over
``codes.MAX_SWEEP_BYTES`` by the rule of ``codes.check_work``.

``check_macwilliams`` gives the same verdict from three facts of ch. 5,
and runs only a short tail of the steps:

* Totals.  sum_j K_j(i) is q^n at i = 0 and 0 elsewhere, and K_0 = 1.  So
  B_0 = 1 iff sum_i A_i = q^k, and sum_j B_j = q^(n-k) iff A_0 = 1.
* Integrality.  The binomial moments satisfy
  sum_i C(n-i, nu) A_i = q^(k-nu) sum_(j<=nu) C(n-j, nu-j) B_j.  The
  system is triangular with unit diagonal, so every B_j is an integer iff
  q^(k-nu) divides sum_i C(n-i, nu) A_i for nu = 0..k-1: k congruences of
  #weights binomials each.
* Sign.  Orthogonality of the K_j bounds every S_j away from 0 except on
  a few lengths at the ends, found from the weights alone (``_tail``).
  Only those steps of the recurrence run, and their S_j are checked as
  before: nonnegative and divisible by q^k.  C(3,6) over F_2 runs 13 of
  698 steps, C(2,4) over F_16 (n = 70 161) 4 of 70 162.
"""

from __future__ import annotations

import math
from typing import Iterator

from .codes import _refuse
from .qcombin import InvariantError

__all__ = ["dual_distribution", "check_macwilliams"]


def _nonzero_counts(counts: dict[int, int], n: int) -> list[tuple[int, int]]:
    """The (i, A_i) with A_i != 0; raises ``ValueError`` on a weight outside
    0..n or a negative count."""
    for i, a_i in counts.items():
        if not 0 <= i <= n:
            raise ValueError(f"weight {i} outside 0..{n}")
        if a_i < 0:
            raise ValueError(f"negative count {a_i} at weight {i}")
    return [(i, a_i) for i, a_i in counts.items() if a_i]


def _transform_sums(items: list[tuple[int, int]], n: int, q: int,
                    last: int | None = None) -> Iterator[tuple[int, int]]:
    """(j, sum_i A_i K_j(i)) over the (i, A_i) of ``items``, once for each
    j in 0..n: in increasing j for q != 2, and for q = 2 the pairs j and
    n - j from each step j <= n/2, as 0, n, 1, n - 1, ...  With ``last``,
    only the steps j <= last run.  Every sum is 0 when ``items`` is
    empty."""
    reflect = q == 2
    steps = n // 2 + 1 if reflect else n + 1
    if last is not None:
        steps = min(steps, last + 1)
    a_0, k_0 = 0, 1  # A_0 and K_j(0)
    # a lane per weight i != 0: K_(j-1)(i), K_j(i), the recurrence's factor
    # at j = 0, A_i, and whether i is odd under the reflection
    lanes = []
    for i, a_i in items:
        if i:
            lanes.append([0, 1, (q - 1) * n - q * i, a_i,
                          reflect and i % 2 == 1, i])
        else:
            a_0 = a_i
    even = a_0 + sum(lane[3] for lane in lanes if not lane[4])
    odd = sum(lane[3] for lane in lanes if lane[4])
    for j in range(steps):
        if j:
            k_0, rem = divmod(k_0 * ((q - 1) * (n - j + 1)), j)
            if rem:
                raise InvariantError(f"Krawtchouk recurrence not exact at "
                                     f"K_{j}(0), n={n}, q={q}")
            even, odd = a_0 * k_0, 0
            shift, back = (q - 2) * (j - 1), (q - 1) * (n - j + 2)
            for lane in lanes:
                prev, cur, c, a_i, is_odd, i = lane
                k, rem = divmod((c - shift) * cur - back * prev, j)
                if rem:
                    raise InvariantError(
                        f"Krawtchouk recurrence not exact at K_{j}({i}), "
                        f"n={n}, q={q}")
                lane[0], lane[1] = cur, k
                if is_odd:
                    odd += a_i * k
                else:
                    even += a_i * k
        if not reflect:
            yield j, even
        else:
            yield j, even + odd
            if n - j != j:
                yield n - j, even - odd


def _tail(items: list[tuple[int, int]], n: int, q: int) -> int:
    """The last step of ``_transform_sums`` that ``check_macwilliams``
    runs: past it, every S_j is positive when A_0 = 1.

    Orthogonality, sum_i v_i K_j(i)^2 = q^n v_j with v_i = C(n, i)
    (q-1)^i = K_i(0), bounds |K_j(i)| by sqrt(q^n v_j / v_i).  So
    S_j >= sqrt(v_j) (sqrt(v_j) - W), W = sum_(i != 0) A_i sqrt(q^n / v_i),
    and S_j > 0 wherever v_j >= U^2 for an integer U > W, here
    U = sum_(i != 0) A_i (isqrt(ceil(q^n / v_i)) + 1).  v_j is log-concave
    in j, so the lengths with v_j < U^2 are the steps j up to the first
    v_j >= U^2, their reflections n - j for q = 2, and for q > 2 also a top
    end exactly when v_n = (q-1)^n < U^2: then every step runs."""
    space, root, v_i, prev = q**n, 0, 1, 0
    for i, a_i in sorted(items):
        if not i:
            continue
        gap = i - prev
        if gap < min(i, n - i):
            # v_i from the last v by their ratio, cheaper than a binomial
            # of min(i, n - i) factors when the weights lie close together
            v_i = v_i * (q - 1)**gap * math.perm(n - prev, gap) \
                // math.perm(i, gap)
        else:
            v_i = math.comb(n, i) * (q - 1)**i
        prev = i
        root += a_i * (math.isqrt(-(-space // v_i)) + 1)
    bound = root * root
    if q == 2:
        top = n // 2
    else:
        # (q-1)^n >= 2^(n (bits(q-1) - 1)), so the power is formed only
        # when that floor does not already reach the bound
        top = n
        if (n * ((q - 1).bit_length() - 1) < bound.bit_length()
                and (q - 1)**n < bound):
            return top
    last, v_j = 0, (q - 1) * n  # v_j holds v_(last+1)
    while last < top and v_j < bound:
        last += 1
        v_j = v_j * (q - 1) * (n - last) // (last + 1)
    return last


# peak bytes of ``dual_distribution`` per bit of its n + 1 sums
# sum_i A_i K_j(i), each below q^(n+k) in absolute value, so priced at
# (n + k) log2(q) bits: the tracemalloc peaks of C(2,4)/F_8, C(2,6)/F_3
# and C(2,7)/F_2 are 0.101, 0.111 and 0.128 B per bit, rounded up
_DUAL_BYTES_PER_BIT = 0.13


def dual_distribution(counts: dict[int, int], n: int, q: int, k: int) -> dict[int, int]:
    """Weight distribution of the dual code, exact; raises ``ValueError``
    on a weight outside 0..n, a negative count, or an inconsistent
    distribution, and ``codes.BudgetExceeded`` before any step when its
    n + 1 exact sums would exceed ``codes.MAX_SWEEP_BYTES``."""
    _refuse("dual distribution", None, math.ceil(
        _DUAL_BYTES_PER_BIT * (n + 1) * (n + k) * math.log2(q)))
    # every step runs before a B_j is judged, so that an inexact step
    # raises ``InvariantError`` rather than an inconsistency; each sum is
    # then replaced by its B_j, so the two are never held together
    dual = [0] * (n + 1)
    for j, total in _transform_sums(_nonzero_counts(counts, n), n, q):
        dual[j] = total
    size = q**k
    for j, total in enumerate(dual):
        dual[j], rem = divmod(total, size)
        if rem:
            raise ValueError(f"MacWilliams transform not integral at weight {j}")
        if dual[j] < 0:
            raise ValueError(f"MacWilliams transform negative at weight {j}")
    return {j: b_j for j, b_j in enumerate(dual) if b_j}


def check_macwilliams(counts: dict[int, int], n: int, q: int, k: int) -> bool:
    """True iff the dual distribution is integral and nonnegative, with
    B_0 = 1 and sum_j B_j = q^(n-k): A_0 = 1 and sum_i A_i = q^k, the k - 1
    congruences, and S_j >= 0 on the lengths of ``_tail``.  The tail's
    steps run whatever the rest finds, so that an inexact step still
    raises ``InvariantError``."""
    try:
        items = _nonzero_counts(counts, n)
    except ValueError:
        return False
    size = q**k
    # sum_j K_j(i) is q^n at i = 0 and 0 elsewhere: S_0 = sum_i A_i and
    # sum_j S_j = q^n A_0
    ok = dict(items).get(0) == 1 and sum(a_i for _, a_i in items) == size
    # B_j integral for every j iff q^(k-nu) divides the nu-th binomial
    # moment for nu < k, the case nu = 0 being sum_i A_i = q^k
    ok = ok and all(
        not sum(math.comb(n - i, nu) * a_i for i, a_i in items) % q**(k - nu)
        for nu in range(1, k))
    for _, total_j in _transform_sums(items, n, q, _tail(items, n, q)):
        ok = ok and total_j >= 0 and not total_j % size
    return ok
