"""GF(p^f) arithmetic in a fixed polynomial basis.

Elements are plain ints in [0, q) encoding polynomials c0 + c1*x + ... as
base-p digit strings (c0 least significant).  The modulus is pinned to the
lexicographically smallest monic irreducible of degree f (coefficients
compared low-degree first), so element encodings are stable across runs.
"""

from __future__ import annotations

import itertools

import numpy as np

MAX_ORDER = 1 << 16
TABLE_MAX = 256  # precompute full q x q op tables up to here


class NonPrimeError(ValueError):
    pass


class FieldTooLargeError(ValueError):
    pass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    """Polynomial division over GF(p); coefficient lists low-degree first."""
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p)
    quot = [0] * max(1, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = (num[i] * inv_lead) % p
        if c:
            quot[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def _is_irreducible(mod: list[int], p: int) -> bool:
    """Trial division against all monic polynomials of degree <= f/2."""
    f = len(mod) - 1
    for d in range(1, f // 2 + 1):
        for coeffs in itertools.product(range(p), repeat=d):
            den = list(coeffs) + [1]
            _, rem = _poly_divmod(mod, den, p)
            if rem == [0]:
                return False
    return True


def _smallest_irreducible(p: int, f: int) -> list[int]:
    # monic x^f + c_{f-1} x^{f-1} + ... + c0; scan (c0, c1, ...) in lex order
    for coeffs in itertools.product(range(p), repeat=f):
        mod = list(coeffs) + [1]
        if _is_irreducible(mod, p):
            return mod
    raise AssertionError("no irreducible polynomial found")  # unreachable


class Field:
    """An immutable finite field GF(p^f) with table-driven arithmetic."""

    def __init__(self, p: int, f: int):
        if not is_prime(p):
            raise NonPrimeError(f"p = {p} is not prime")
        if f < 1:
            raise ValueError("f must be >= 1")
        q = p**f
        if q > MAX_ORDER:
            raise FieldTooLargeError(f"q = {q} exceeds {MAX_ORDER}")
        self.p = p
        self.f = f
        self.q = q
        if f == 1:
            self.modulus = [0, 1]  # x - 0 convention: plain mod-p arithmetic
        else:
            self.modulus = _smallest_irreducible(p, f)
        self._build_tables()

    def _build_tables(self):
        p, f, q = self.p, self.f, self.q
        if q <= TABLE_MAX:
            a = np.arange(q)
            if f == 1:
                self.add_table = (a[:, None] + a[None, :]) % p
                self.mul_table = (a[:, None] * a[None, :]) % p
            else:
                digits = np.zeros((q, f), dtype=np.int64)
                v = a.copy()
                for i in range(f):
                    digits[:, i] = v % p
                    v //= p
                add = np.zeros((q, q), dtype=np.int64)
                weights = p ** np.arange(f)
                for x in range(q):
                    s = (digits[x][None, :] + digits) % p
                    add[x] = s @ weights
                self.add_table = add
                mul = np.zeros((q, q), dtype=np.int64)
                for x in range(q):
                    for y in range(q):
                        mul[x, y] = self._poly_product(x, y)
                self.mul_table = mul
        else:
            self.add_table = None
            self.mul_table = None
        self.neg_table = np.zeros(q, dtype=np.int64)
        for x in range(q):
            self.neg_table[x] = self._neg_raw(x)
        self.inv_table = np.zeros(q, dtype=np.int64)
        for x in range(1, q):
            self.inv_table[x] = pow_elem(self, x, q - 2)

    # -- raw digit-level arithmetic (used to build tables and above TABLE_MAX)

    def _digits(self, x: int) -> list[int]:
        out = []
        for _ in range(self.f):
            out.append(x % self.p)
            x //= self.p
        return out

    def _encode(self, ds: list[int]) -> int:
        v = 0
        for c in reversed(ds):
            v = v * self.p + c
        return v

    def _poly_product(self, x: int, y: int) -> int:
        p, f = self.p, self.f
        if f == 1:
            return (x * y) % p
        a, b = self._digits(x), self._digits(y)
        res = [0] * (2 * f - 1)
        for i, u in enumerate(a):
            if u:
                for j, v in enumerate(b):
                    res[i + j] = (res[i + j] + u * v) % p
        for i in range(2 * f - 2, f - 1, -1):
            c = res[i]
            if c:
                res[i] = 0
                for j in range(f):
                    res[i - f + j] = (res[i - f + j] - c * self.modulus[j]) % p
        return self._encode(res[:f])

    def _add_raw(self, x: int, y: int) -> int:
        if self.f == 1:
            return (x + y) % self.p
        a, b = self._digits(x), self._digits(y)
        return self._encode([(u + v) % self.p for u, v in zip(a, b)])

    def _neg_raw(self, x: int) -> int:
        if self.f == 1:
            return (-x) % self.p
        return self._encode([(-c) % self.p for c in self._digits(x)])

    # -- public element ops (ints in, ints out)

    def add(self, x: int, y: int) -> int:
        if self.add_table is not None:
            return int(self.add_table[x, y])
        return self._add_raw(x, y)

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if self.mul_table is not None:
            return int(self.mul_table[x, y])
        return self._poly_product(x, y)

    def neg(self, x: int) -> int:
        return int(self.neg_table[x])

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return int(self.inv_table[x])

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def element_order(self, x: int) -> int:
        """Multiplicative order of a nonzero element."""
        if x == 0:
            raise ZeroDivisionError("zero has no multiplicative order")
        o, y = 1, x
        while y != 1:
            y = self.mul(y, x)
            o += 1
        return o

    def __repr__(self):
        return f"Field(p={self.p}, f={self.f}, q={self.q})"


def pow_elem(field: Field, x: int, e: int) -> int:
    r = 1
    b = x
    while e:
        if e & 1:
            r = field.mul(r, b)
        b = field.mul(b, b)
        e >>= 1
    return r

