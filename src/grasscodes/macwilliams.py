"""Exact MacWilliams transform, used as a global checksum on sweeps.

The dual weight distribution of an [n, k] code over F_q with A_i words of
weight i is

    B_j = q^(-k) * sum_i A_i K_j(i),

where K_j is the q-ary Krawtchouk polynomial of length n.  At each weight
i with A_i != 0, the values K_0(i), ..., K_n(i) come from the three-term
recurrence

    (j+1) K_{j+1}(i) = (j + (q-1)(n-j) - q i) K_j(i) - (q-1)(n-j+1) K_{j-1}(i)

with K_{-1} = 0 and K_0 = 1, in exact Python integers.  Every K_j(i) is an
integer, so each division by j+1 is exact; a remainder is a program fault
and raises ``InvariantError``.  The cost is O(#weights * n) big-integer
steps.  A complete distribution is consistent only if every B_j is a
nonnegative integer.
"""

from __future__ import annotations

from .qcombin import InvariantError

__all__ = ["dual_distribution", "check_macwilliams"]


def _krawtchouk(n: int, i: int, q: int) -> list[int]:
    """K_0(i), ..., K_n(i) for length n over F_q."""
    values = [1]
    prev, cur = 0, 1
    for j in range(n):
        num = (j + (q - 1) * (n - j) - q * i) * cur \
            - (q - 1) * (n - j + 1) * prev
        nxt, rem = divmod(num, j + 1)
        if rem:
            raise InvariantError(
                f"Krawtchouk recurrence not exact at K_{j + 1}({i}), n={n}, q={q}")
        prev, cur = cur, nxt
        values.append(cur)
    return values


def dual_distribution(counts: dict[int, int], n: int, q: int, k: int) -> dict[int, int]:
    """Weight distribution of the dual code, exact; raises ``ValueError``
    on a weight outside 0..n, a negative count, or an inconsistent
    distribution."""
    acc = [0] * (n + 1)
    for i, a_i in counts.items():
        if not 0 <= i <= n:
            raise ValueError(f"weight {i} outside 0..{n}")
        if a_i < 0:
            raise ValueError(f"negative count {a_i} at weight {i}")
        if a_i:
            for j, c in enumerate(_krawtchouk(n, i, q)):
                acc[j] += a_i * c
    size = q**k
    dual = {}
    for j, total in enumerate(acc):
        if total % size != 0:
            raise ValueError(f"MacWilliams transform not integral at weight {j}")
        b_j = total // size
        if b_j < 0:
            raise ValueError(f"MacWilliams transform negative at weight {j}")
        if b_j:
            dual[j] = b_j
    return dual


def check_macwilliams(counts: dict[int, int], n: int, q: int, k: int) -> bool:
    """True iff the dual distribution is integral and nonnegative."""
    try:
        dual = dual_distribution(counts, n, q, k)
    except ValueError:
        return False
    return dual.get(0) == 1 and sum(dual.values()) == q ** (n - k)
