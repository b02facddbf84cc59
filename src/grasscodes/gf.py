"""Exact arithmetic in small finite fields F_q, q = p^e.

Elements are carried as integers in [0, q).  For e = 1 the integer is the
residue mod p; for e > 1 its base-p digits are the coefficients of the
polynomial representative, constant term first:

    idx = c0 + c1*p + ... + c_{e-1}*p^(e-1).

All arithmetic goes through tables precomputed at construction, so a
``GF`` instance is immutable and cheap to share.  The default moduli are
fixed (one irreducible polynomial per supported extension), which keeps
element encodings reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GF", "FieldElement", "DEFAULT_MAX_ORDER"]

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


class GF:
    """The finite field F_q with q = p^e elements.

    Orders above ``DEFAULT_MAX_ORDER`` = 16 are refused.  An extension uses
    the fixed modulus of ``_MODULI`` unless an irreducible one is given.
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
    def from_string(s: str) -> "GF":
        """Parse the CLI field syntax "q" or "p^e", e.g. "3", "4", "2^2"."""
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

        self._add = [[idx([x + y for x, y in zip(a, b)]) for b in elems]
                     for a in elems]
        self._neg = [idx([-x for x in a]) for a in elems]
        self._mul = [[idx(_poly_mod(_poly_mul(a, b, p), self.modulus, p))
                      for b in elems] for a in elems]
        self._inv = [0] + [row.index(1) for row in self._mul[1:]]

    # -- raw integer arithmetic (internal fast path) --------------------------

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

    def div(self, a: int, b: int) -> int:
        return self._mul[a][self.inv(b)]

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

    # -- element-level API -----------------------------------------------------

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def element(self, idx: int) -> "FieldElement":
        if not 0 <= idx < self.q:
            raise ValueError(f"element index {idx} out of range for F_{self.q}")
        return FieldElement(self, idx)

    def elements(self):
        """All q elements exactly once, zero first, in canonical order."""
        for i in range(self.q):
            yield FieldElement(self, i)

    def __iter__(self):
        return self.elements()

    def __len__(self) -> int:
        return self.q

    def __eq__(self, other) -> bool:
        return (isinstance(other, GF) and self.p == other.p and self.e == other.e
                and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e})"


@dataclass(frozen=True)
class FieldElement:
    """An element of a GF instance; immutable, fully reduced."""

    field: GF
    idx: int

    def _check(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement):
            raise TypeError(f"cannot combine FieldElement with {type(other).__name__}")
        if self.field != other.field:
            raise ValueError("mismatched fields")

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.field, self.field.add(self.idx, other.idx))

    def __sub__(self, other):
        self._check(other)
        return FieldElement(self.field, self.field.sub(self.idx, other.idx))

    def __mul__(self, other):
        self._check(other)
        return FieldElement(self.field, self.field.mul(self.idx, other.idx))

    def __truediv__(self, other):
        self._check(other)
        return FieldElement(self.field, self.field.div(self.idx, other.idx))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.idx))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.idx))

    def __bool__(self) -> bool:
        return self.idx != 0

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.coeffs(self.idx)

    def __str__(self) -> str:
        return self.field.format_element(self.idx)

    def __repr__(self) -> str:
        return f"{self.field!r}:{self}"
