import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from twdeg.field import Field, FieldTooLargeError, NonPrimeError, is_prime

SMALL_FIELDS = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (31, 1)]


def test_prime_field():
    F = Field(7, 1)
    assert F.q == 7
    assert F.mul(3, 5) == 1  # 15 mod 7


def test_gf4_modulus():
    F = Field(2, 2)
    assert F.q == 4
    assert F.modulus == [1, 1, 1]  # x^2 + x + 1
    # x * x = x + 1: encodings x=2, x+1=3
    assert F.mul(2, 2) == 3


def test_gf25_modulus_is_first_irreducible():
    # enumerate monic quadratics over GF(5) by (c0, c1), reject those with a root
    def has_root(c0, c1):
        return any((x * x + c1 * x + c0) % 5 == 0 for x in range(5))

    first = next(
        (c0, c1)
        for c0, c1 in itertools.product(range(5), repeat=2)
        if not has_root(c0, c1)
    )
    F = Field(5, 2)
    assert (F.modulus[0], F.modulus[1]) == first
    assert F.modulus[2] == 1


def test_gf25_inverses():
    F = Field(5, 2)
    for a in range(1, 25):
        assert F.mul(F.inv(a), a) == 1


def test_errors():
    with pytest.raises(NonPrimeError):
        Field(6, 1)
    with pytest.raises(FieldTooLargeError):
        Field(2, 17)
    F = Field(7, 1)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


@pytest.mark.parametrize("p,f", SMALL_FIELDS)
def test_axioms_exhaustive(p, f):
    """Full associativity/distributivity/inverse check for q <= 32."""
    F = Field(p, f)
    q = F.q
    if q > 32:
        pytest.skip("exhaustive triple check capped at q = 32")
    els = range(q)
    for a in els:
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            assert F.add(a, F.neg(a)) == 0
    for a in els:
        for b in els:
            for c in els:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("p,f", SMALL_FIELDS)
def test_multiplicative_group_cyclic(p, f):
    F = Field(p, f)
    assert any(reference.field_order(F, a) == F.q - 1 for a in range(1, F.q))


@pytest.mark.parametrize("p,f", SMALL_FIELDS)
def test_tables_match_schoolbook(p, f):
    """Every entry of the add and mul tables equals the digit-wise sum and the
    schoolbook product reduced modulo F.modulus."""
    F = Field(p, f)
    els = range(F.q)
    assert F.add_table.tolist() == [[reference.field_add(F, x, y) for y in els] for x in els]
    assert F.mul_table.tolist() == [[reference.field_mul(F, x, y) for y in els] for x in els]


@pytest.mark.parametrize("p,f", [(7, 3), (2, 9)])
def test_tables_match_schoolbook_sampled(p, f):
    F = Field(p, f)
    rng = np.random.default_rng(F.q)
    for x, y in rng.integers(0, F.q, (2000, 2)).tolist():
        assert F.add(x, y) == reference.field_add(F, x, y)
        assert F.mul(x, y) == reference.field_mul(F, x, y)


def test_encoding_bijective():
    F = Field(3, 2)
    seen = {F.add(a, 0) for a in range(9)}
    assert seen == set(range(9))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 342), st.integers(0, 342), st.integers(0, 342))
def test_gf343_axioms_sampled(a, b, c):
    F = _gf343()
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    if a != 0:
        assert F.mul(a, F.inv(a)) == 1


def _gf343(cache={}):
    if "F" not in cache:
        cache["F"] = Field(7, 3)
    return cache["F"]


def test_large_field_beyond_tables():
    F = Field(2, 9)
    for a in (1, 17, 300, 511):
        assert F.mul(a, F.inv(a)) == 1
    assert F.mul(2, F.mul(3, 5)) == F.mul(F.mul(2, 3), 5)


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
