"""Index tuples, Bruhat order and Gaussian-binomial combinatorics.

An index tuple is a strictly increasing tuple (a_1, ..., a_l) of integers
with 1 <= a_1 < ... < a_l <= m; throughout the package they are plain
Python tuples with 1-based entries.  The ambient dimension m is passed
explicitly where it matters.  The fixed ordering of tuples is always
lexicographic.
"""

from __future__ import annotations

import itertools

__all__ = [
    "index_tuples", "check_index_tuple", "delta", "bruhat_leq",
    "nabla_set", "delta_set", "complement",
    "gaussian_binomial", "e_bound", "e_prime_bound",
    "verify_gaussian_identities", "verify_e_inequalities",
    "parse_index_tuple", "format_index_tuple", "InvariantError",
]


class InvariantError(AssertionError):
    """An exact identity failed; raised explicitly, so ``python -O`` keeps it."""


def check_index_tuple(alpha: tuple[int, ...], m: int) -> tuple[int, ...]:
    alpha = tuple(alpha)
    if not alpha:
        raise ValueError("index tuple must be nonempty")
    if any(a >= b for a, b in zip(alpha, alpha[1:])):
        raise ValueError(f"index tuple {alpha} is not strictly increasing")
    if alpha[0] < 1 or alpha[-1] > m:
        raise ValueError(f"index tuple {alpha} out of range [1, {m}]")
    return alpha


def index_tuples(ell: int, m: int) -> list[tuple[int, ...]]:
    """All C(m, ell) strictly increasing tuples, lexicographically ascending."""
    if not 1 <= ell <= m:
        raise ValueError(f"need 1 <= ell <= m, got ell={ell}, m={m}")
    return list(itertools.combinations(range(1, m + 1), ell))


def delta(alpha: tuple[int, ...]) -> int:
    """Affine cell dimension: sum(alpha) - l(l+1)/2."""
    ell = len(alpha)
    return sum(alpha) - ell * (ell + 1) // 2


def bruhat_leq(alpha: tuple[int, ...], beta: tuple[int, ...]) -> bool:
    """Componentwise order on tuples of equal length."""
    if len(alpha) != len(beta):
        raise ValueError("tuples must have equal length")
    return all(a <= b for a, b in zip(alpha, beta))


def nabla_set(alpha: tuple[int, ...], m: int) -> list[tuple[int, ...]]:
    """Down-set of alpha: all beta <= alpha, lexicographically ordered."""
    return [b for b in index_tuples(len(alpha), m) if bruhat_leq(b, alpha)]


def delta_set(alpha: tuple[int, ...], m: int) -> list[tuple[int, ...]]:
    """Complement of the down-set: all beta not<= alpha."""
    return [b for b in index_tuples(len(alpha), m) if not bruhat_leq(b, alpha)]


def complement(alpha: tuple[int, ...], m: int) -> tuple[int, ...]:
    """The unique increasing tuple partitioning {1, ..., m} with alpha."""
    s = set(check_index_tuple(alpha, m))
    return tuple(i for i in range(1, m + 1) if i not in s)


def gaussian_binomial(m: int, ell: int, q: int) -> int:
    """The Gaussian binomial [m choose ell]_q as an exact integer."""
    if not 0 <= ell <= m:
        raise ValueError(f"need 0 <= ell <= m, got ell={ell}, m={m}")
    num = den = 1
    for i in range(ell):
        num *= q**m - q**i
        den *= q**ell - q**i
    if num % den:
        raise InvariantError(f"[{m} {ell}]_{q}: {den} does not divide {num}")
    return num // den


def e_bound(ell: int, m: int, q: int) -> int:
    """Maximum hyperplane section size [m ell]_q - q^(ell(m-ell))."""
    if not 1 <= ell <= m:
        raise ValueError(f"need 1 <= ell <= m, got ell={ell}, m={m}")
    return gaussian_binomial(m, ell, q) - q ** (ell * (m - ell))


def e_prime_bound(ell: int, m: int, q: int) -> int:
    """Second-maximum section size e(ell, m) - q^(ell(m-ell)-2)."""
    if ell * (m - ell) < 2:
        raise ValueError(f"e' undefined for ell={ell}, m={m}: ell(m-ell) < 2")
    return e_bound(ell, m, q) - q ** (ell * (m - ell) - 2)


def _report(name: str, lhs: int, rhs: int, strict: bool = False) -> dict:
    ok = lhs < rhs if strict else lhs == rhs
    return {"identity": name, "lhs": lhs, "rhs": rhs, "pass": ok}


def verify_gaussian_identities(m: int, ell: int, q: int) -> list[dict]:
    """Check the symmetry, q-Pascal, and ratio identities exactly.

    (a) [m l] = [m m-l]
    (b) [m l] = [m-1 l] + q^(m-l) [m-1 l-1]
    (c) [m l] (q^(m-l) - 1) = (q^m - 1) [m-1 l]   (cross-multiplied form)
    """
    if not 1 <= ell <= m:
        raise ValueError(f"need 1 <= ell <= m, got ell={ell}, m={m}")
    g = gaussian_binomial
    out = [_report("symmetry", g(m, ell, q), g(m, m - ell, q))]
    if m >= 1 and ell >= 1:
        pascal = g(m - 1, ell, q) + q ** (m - ell) * g(m - 1, ell - 1, q) \
            if ell <= m - 1 else q ** (m - ell) * g(m - 1, ell - 1, q)
        out.append(_report("q-pascal", g(m, ell, q), pascal))
    if ell <= m - 1:
        out.append(_report("ratio",
                           g(m, ell, q) * (q ** (m - ell) - 1),
                           (q**m - 1) * g(m - 1, ell, q)))
    return out


def verify_e_inequalities(ell: int, m: int, q: int) -> list[dict]:
    """Check the four (in)equalities bounding e and e' exactly.

    (a) e(l, m-1) (q^m - 1) < e(l, m) (q^(m-l) - 1)      [cross-multiplied]
    (b) [m-1 l]_q + q^(m-l) e(l-1, m-1) = e(l, m)
    (c) e'(l, m-1) (q^m - 1) < e'(l, m) (q^(m-l) - 1)    [2 <= l <= m-2]
    (d) [m-1 l]_q + q^(m-l) e'(l-1, m-1) = e'(l, m)      [2 <= l <= m-2]
    """
    if not 1 <= ell <= m - 1:
        raise ValueError(f"need 1 <= ell <= m-1, got ell={ell}, m={m}")
    out = []
    out.append(_report("a",
                       e_bound(ell, m - 1, q) * (q**m - 1),
                       e_bound(ell, m, q) * (q ** (m - ell) - 1),
                       strict=True))
    # e(0, m-1) = [m-1 0] - q^0 = 0, so (b) degenerates correctly at ell = 1
    e_prev = e_bound(ell - 1, m - 1, q) if ell >= 2 else 0
    out.append(_report("b",
                       gaussian_binomial(m - 1, ell, q) + q ** (m - ell) * e_prev,
                       e_bound(ell, m, q)))
    if 2 <= ell <= m - 2:
        out.append(_report("c",
                           e_prime_bound(ell, m - 1, q) * (q**m - 1),
                           e_prime_bound(ell, m, q) * (q ** (m - ell) - 1),
                           strict=True))
        out.append(_report("d",
                           gaussian_binomial(m - 1, ell, q)
                           + q ** (m - ell) * e_prime_bound(ell - 1, m - 1, q),
                           e_prime_bound(ell, m, q)))
    return out


def parse_index_tuple(s: str, m: int) -> tuple[int, ...]:
    """Parse the serialized form "1,3,4"."""
    try:
        alpha = tuple(int(part) for part in s.split(","))
    except ValueError:
        raise ValueError(f"bad index tuple {s!r}") from None
    return check_index_tuple(alpha, m)


def format_index_tuple(alpha: tuple[int, ...]) -> str:
    return ",".join(str(a) for a in alpha)
