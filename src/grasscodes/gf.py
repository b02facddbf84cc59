"""Exact arithmetic in small finite fields F_q, q = p^e.

Elements are integers in [0, q), with no element object.  For e = 1 the
integer is the residue mod p; for e > 1 its base-p digits are the
coefficients of the polynomial representative, constant term first:

    idx = c0 + c1*p + ... + c_{e-1}*p^(e-1).

Scalar arithmetic goes through tables precomputed at construction and
stored as tuples, so a ``GF`` instance is immutable and cheap to share;
``GF.from_string`` hands out one instance per spelling for the life of
the process.  The same tables are
kept as read-only uint8 numpy arrays (``add_array``, ``mul_array``,
``neg_array``, ``inv_array``) for arithmetic on arrays of elements:
``mul_array[c][x]`` multiplies an array by one element, and ``vadd(a, b)``
and ``vmul(a, b)`` combine two uint8 arrays elementwise, by a kernel
chosen from the characteristic:

- in characteristic 2 an index is the coefficient bit vector, so ``vadd``
  is XOR under every modulus, and over F_2 ``vmul`` is AND;
- over a prime field F_p, p odd, ``vadd`` adds in uint8 and folds:
  s = a + b <= 2p - 2, and min(s, s - p) is s - p when s >= p and s
  otherwise, since s - p then wraps above 255 - p;
- every other product, and the sum in F_9, is one gather from the
  flattened table at a * q + b.  Since q <= 16 that index is at most
  q^2 - 1 <= 255, so it is computed in uint8, one byte per entry.

The default moduli are fixed (one irreducible polynomial per supported
extension), which keeps element encodings reproducible across runs.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["GF", "DEFAULT_MAX_ORDER"]

DEFAULT_MAX_ORDER = 16

# Irreducible moduli, coefficient lists with constant term first.
_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),  # x^4 + x + 1
    (3, 2): (1, 0, 1),        # x^2 + 1
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_mod(a: list[int], mod: tuple[int, ...], p: int) -> list[int]:
    """Reduce a (little-endian) polynomial modulo a monic modulus over F_p."""
    a = list(a)
    e = len(mod) - 1
    for i in range(len(a) - 1, e - 1, -1):
        c = a[i] % p
        if c:
            for j in range(e + 1):
                a[i - e + j] = (a[i - e + j] - c * mod[j]) % p
    return [c % p for c in a[:e]] + [0] * max(0, e - len(a))


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _is_irreducible(mod: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= e/2."""
    e = len(mod) - 1
    if e == 1:
        return True
    if mod[-1] != 1:
        return False
    for deg in range(1, e // 2 + 1):
        for code in range(p**deg):
            div = tuple(code // p**i % p for i in range(deg)) + (1,)  # monic
            if not any(_poly_mod(mod, div, p)):
                return False
    return True


def _read_only(table: list) -> np.ndarray:
    arr = np.array(table, dtype=np.uint8)
    arr.flags.writeable = False
    return arr


class GF:
    """The finite field F_q with q = p^e elements.

    Orders above ``DEFAULT_MAX_ORDER`` = 16 are refused.  An extension uses
    the fixed modulus of ``_MODULI`` unless an irreducible one is given; a
    prime field takes no modulus.
    Two GF instances compare equal iff they have the same characteristic,
    degree and modulus.
    """

    def __init__(self, p: int, e: int = 1, modulus: tuple[int, ...] | None = None):
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        q = p**e
        if q > DEFAULT_MAX_ORDER:
            raise ValueError(
                f"field order {q} exceeds maximum {DEFAULT_MAX_ORDER}")
        self.p = p
        self.e = e
        self.q = q
        if e == 1:
            if modulus is not None:
                raise ValueError(f"the prime field F_{p} takes no modulus")
            # plain arithmetic mod p: polynomials of degree 0 reduced mod x
            self.modulus = (0, 1)
        else:
            mod = tuple(modulus) if modulus is not None else _MODULI[(p, e)]
            if len(mod) != e + 1 or mod[-1] != 1:
                raise ValueError("modulus must be monic of degree e")
            if not _is_irreducible(mod, p):
                raise ValueError(f"modulus {mod} is reducible over F_{p}")
            self.modulus = mod
        self._build_tables()

    # -- construction helpers -------------------------------------------------

    @staticmethod
    @functools.cache
    def from_string(s: str) -> "GF":
        """Parse the CLI field syntax "q" or "p^e", e.g. "3", "4", "2^2".

        Each spelling is built once per process and the same instance is
        returned on every later call; a bad spelling raises every time."""
        parts = s.split("^")
        top = DEFAULT_MAX_ORDER
        try:
            if len(parts) == 1:
                q = int(parts[0])
                pe = [(p, e) for p in range(2, top + 1) if _is_prime(p)
                      for e in range(1, top.bit_length()) if p**e == q]
                if not pe:
                    raise ValueError(f"{q} is not a prime power <= {top}")
                return GF(*pe[0])
            if len(parts) == 2:
                return GF(int(parts[0]), int(parts[1]))
        except ValueError as exc:
            raise ValueError(f"bad field spec {s!r}: {exc}") from None
        raise ValueError(f"bad field spec {s!r}")

    def _build_tables(self) -> None:
        p = self.p
        elems = [self.coeffs(a) for a in range(self.q)]

        def idx(cs) -> int:
            return sum(c % p * p**i for i, c in enumerate(cs))

        self._add = tuple(tuple(idx([x + y for x, y in zip(a, b)])
                                for b in elems) for a in elems)
        self._neg = tuple(idx([-x for x in a]) for a in elems)
        self._mul = tuple(tuple(idx(_poly_mod(_poly_mul(a, b, p),
                                              self.modulus, p))
                                for b in elems) for a in elems)
        self._inv = (0, *(row.index(1) for row in self._mul[1:]))
        self.add_array, self.mul_array, self.neg_array, self.inv_array = (
            _read_only(t) for t in (self._add, self._mul, self._neg, self._inv))
        # read-only views, entry a * q + b
        self._add_flat = self.add_array.ravel()
        self._mul_flat = self.mul_array.ravel()

    # -- elementwise arithmetic on arrays -------------------------------------

    def vadd(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a + b elementwise for uint8 arrays of elements (broadcast)."""
        if self.p == 2:
            return np.bitwise_xor(a, b, dtype=np.uint8)
        if self.e == 1:
            s = np.add(a, b, dtype=np.uint8)
            return np.minimum(s, s - np.uint8(self.p), out=s)
        return self._add_flat[a * self.q + b]

    def vmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a * b elementwise for uint8 arrays of elements (broadcast)."""
        if self.q == 2:
            return np.bitwise_and(a, b, dtype=np.uint8)
        return self._mul_flat[a * self.q + b]

    # -- scalar arithmetic on element indices ---------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self._inv[a]

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector (c0, ..., c_{e-1}) of element index a."""
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def format_element(self, a: int) -> str:
        if self.e == 1:
            return str(a)
        return "(" + ",".join(str(c) for c in self.coeffs(a)) + ")"

    def __eq__(self, other) -> bool:
        return (isinstance(other, GF) and self.p == other.p and self.e == other.e
                and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e})"

