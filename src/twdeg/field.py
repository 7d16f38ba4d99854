"""GF(p^f) arithmetic in a fixed polynomial basis.

Elements are plain ints in [0, q) encoding polynomials c0 + c1*x + ... as
base-p digit strings (c0 least significant).  The modulus is pinned to the
lexicographically smallest monic irreducible of degree f (coefficients
compared low-degree first), so element encodings are stable across runs.
Every operation reads a table built once, in array arithmetic, when the
field is made.
"""

from __future__ import annotations

import itertools

import numpy as np

MAX_ORDER = 1 << 9  # the (2f - 1, q, q) product array stays under 36 MB


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
        # digits[i, x] is the coefficient c_i of x; encode inverts it plane by plane
        digits = np.arange(q) // p ** np.arange(f)[:, None] % p

        def encode(planes):
            return sum(p**i * (plane % p) for i, plane in enumerate(planes))

        self.add_table = encode(digits[i, :, None] + digits[i] for i in range(f))
        prod = np.zeros((2 * f - 1, q, q), dtype=np.int64)
        for i, j in itertools.product(range(f), repeat=2):
            prod[i + j] += np.outer(digits[i], digits[j])
        # top degree down: x^d = x^(d-f) x^f and x^f = -(c0 + ... + c_{f-1} x^(f-1))
        for d, j in itertools.product(range(2 * f - 2, f - 1, -1), range(f)):
            prod[d - f + j] -= prod[d] % p * self.modulus[j]
        self.mul_table = encode(prod[:f])
        self.neg_table = encode(-digits)
        self.inv_table = np.argmax(self.mul_table == 1, axis=1)  # 0 at x = 0

    def add(self, x: int, y: int) -> int:
        return int(self.add_table[x, y])

    def mul(self, x: int, y: int) -> int:
        return int(self.mul_table[x, y])

    def neg(self, x: int) -> int:
        return int(self.neg_table[x])

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return int(self.inv_table[x])

    def __repr__(self):
        return f"Field(p={self.p}, f={self.f}, q={self.q})"
