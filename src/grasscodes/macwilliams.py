"""Exact MacWilliams transform, used as a global checksum on sweeps.

The dual weight distribution of an [n, k] code over F_q with A_i words of
weight i is

    B_j = q^(-k) * S_j,    S_j = sum_i A_i K_j(i),

where K_j is the q-ary Krawtchouk polynomial of length n.  Weight 0 is in
closed form, K_j(0) = C(n, j) (q-1)^j, stepped as
K_{j+1}(0) = K_j(0) (q-1)(n-j) / (j+1).  At each other weight i with
A_i != 0, the values K_j(i) come from the three-term recurrence

    (j+1) K_{j+1}(i) = (j + (q-1)(n-j) - q i) K_j(i) - (q-1)(n-j+1) K_{j-1}(i)

with K_{-1} = 0 and K_0 = 1, in exact Python integers.  For q = 2 the
reflection K_{n-j}(i) = (-1)^i K_j(i) halves the steps: the weights step
only for j <= n/2, and with E and O the parts of S_j over the even and
the odd weights, each step gives S_j = E + O and S_{n-j} = E - O.  So
``_transform_sums`` yields (j, S_j) pairs, each j in 0..n once: in
increasing j for q != 2, and as 0, n, 1, n-1, ... for q = 2.  All the
weights step in lockstep in one loop, so each sum is formed as soon as its
K_j(i) are known; ``check_macwilliams`` checks and drops it at once,
holding two steps of each weight, O(#weights * n log q) bits, where
``dual_distribution`` places every sum in its list of n + 1.  Every
K_j(i) is an integer, so each division by j+1 is exact; a remainder is a
program fault and raises ``InvariantError``.  The cost is
O(#weights * n) big-integer steps, about half of them for q = 2.  A
complete distribution is consistent only if every B_j is a nonnegative
integer.  ``dual_distribution`` prices the n + 1 values it keeps before
its first step and refuses them over ``codes.MAX_SWEEP_BYTES`` by the rule
of ``codes.check_work``.  A reader of the first few B_j filters the pairs
by j, since for q = 2 they do not come first.
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


def _transform_sums(items: list[tuple[int, int]], n: int,
                    q: int) -> Iterator[tuple[int, int]]:
    """(j, sum_i A_i K_j(i)) over the (i, A_i) of ``items``, once for each
    j in 0..n: in increasing j for q != 2, and for q = 2 the pairs j and
    n - j from each step j <= n/2, as 0, n, 1, n - 1, ...  Every sum is 0
    when ``items`` is empty."""
    reflect = q == 2
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
    for j in range(n // 2 + 1 if reflect else n + 1):
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
    B_0 = 1 and sum_j B_j = q^(n-k).  Each sum S_j = q^k B_j is checked and
    dropped as it is formed; a bad one does not stop the steps, so that an
    inexact step still raises ``InvariantError``."""
    try:
        items = _nonzero_counts(counts, n)
    except ValueError:
        return False
    size = q**k
    # with every B_j integral, sum_j B_j = q^(n-k) is sum_j S_j = q^n, so
    # each sum S_j = q^k B_j needs a remainder, not a quotient
    ok, total = True, 0
    for j, total_j in _transform_sums(items, n, q):
        ok = ok and total_j >= 0 and not total_j % size
        if j == 0:
            ok = ok and total_j == size
        total += total_j
    return ok and total == q**n
