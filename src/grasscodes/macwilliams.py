"""Exact MacWilliams transform, used as a global checksum on sweeps.

The dual weight distribution of an [n, k] code over F_q with A_i words of
weight i is

    B_j = q^(-k) * sum_i A_i K_j(i),

where K_j is the q-ary Krawtchouk polynomial of length n.  At each weight
i with A_i != 0, the values K_0(i), ..., K_n(i) come from the three-term
recurrence

    (j+1) K_{j+1}(i) = (j + (q-1)(n-j) - q i) K_j(i) - (q-1)(n-j+1) K_{j-1}(i)

with K_{-1} = 0 and K_0 = 1, in exact Python integers.  The recurrences
of all weights step in lockstep over j, so each sum over i is formed as
soon as its K_j(i) are known; ``check_macwilliams`` checks and drops it
at once, holding two steps, O(#weights * n log q) bits, where
``dual_distribution`` keeps every B_j.  Every K_j(i) is an integer, so each
division by j+1 is exact; a remainder is a program fault and raises
``InvariantError``.  The cost is O(#weights * n) big-integer steps.  A
complete distribution is consistent only if every B_j is a nonnegative
integer.  ``dual_distribution`` prices the n + 1 values it keeps before
its first step and refuses them over ``codes.MAX_SWEEP_BYTES`` by the rule
of ``codes.check_work``.
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


def _weighted_krawtchouk(n: int, i: int, a_i: int, q: int) -> Iterator[int]:
    """A_i K_0(i), ..., A_i K_n(i) for length n over F_q, one at a time;
    the recurrence's factor j + (q-1)(n-j) - q i is c - (q-2) j."""
    c = (q - 1) * n - q * i
    prev, cur = 0, 1
    yield a_i
    for j in range(n):
        nxt, rem = divmod((c - (q - 2) * j) * cur
                          - (q - 1) * (n - j + 1) * prev, j + 1)
        if rem:
            raise InvariantError(
                f"Krawtchouk recurrence not exact at K_{j + 1}({i}), "
                f"n={n}, q={q}")
        prev, cur = cur, nxt
        yield a_i * cur


def _transform_sums(items: list[tuple[int, int]], n: int,
                    q: int) -> Iterator[int]:
    """sum_i A_i K_j(i) over the (i, A_i) of ``items``, for j = 0, ..., n
    (nothing when ``items`` is empty)."""
    for terms in zip(*(_weighted_krawtchouk(n, i, a_i, q)
                       for i, a_i in items)):
        yield sum(terms)


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
    dual = list(_transform_sums(_nonzero_counts(counts, n), n, q))
    size = q**k
    for j, total in enumerate(dual):
        if total % size != 0:
            raise ValueError(f"MacWilliams transform not integral at weight {j}")
        dual[j] = total // size
        if dual[j] < 0:
            raise ValueError(f"MacWilliams transform negative at weight {j}")
    return {j: b_j for j, b_j in enumerate(dual) if b_j}


def check_macwilliams(counts: dict[int, int], n: int, q: int, k: int) -> bool:
    """True iff the dual distribution is integral and nonnegative, with
    B_0 = 1 and sum_j B_j = q^(n-k).  Each B_j is checked and dropped as
    it is formed; a bad one does not stop the steps, so that an inexact
    step still raises ``InvariantError``."""
    try:
        items = _nonzero_counts(counts, n)
    except ValueError:
        return False
    size = q**k
    ok, b_0, total = True, None, 0
    for j, total_j in enumerate(_transform_sums(items, n, q)):
        b_j, rem = divmod(total_j, size)
        ok = ok and not rem and b_j >= 0
        if j == 0:
            b_0 = b_j
        total += b_j
    return ok and b_0 == 1 and total == q ** (n - k)
