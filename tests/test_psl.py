import numpy as np
import pytest

import reference
from conftest import group_for
from twdeg import atlas, engine as eng, wreath
from twdeg.checks import factor_prime_power
from twdeg.field import Field
from twdeg.psl import (
    MAX_TABLE_BYTES,
    GroupTooLargeError,
    inversion_perm,
    point_stabilizer,
    psl_generators,
    psl_group,
    psl_order,
    table_bytes,
    translation_perm,
)

ALL_Q = [4, 5, 7, 8, 9, 11, 13]


@pytest.mark.parametrize("q", ALL_Q)
def test_group_order(q):
    T = group_for(q)
    assert T.order == psl_order(q)


@pytest.mark.parametrize("q", ALL_Q)
def test_point_stabilizer_order(q):
    T = group_for(q)
    P1 = point_stabilizer(T, q)
    assert P1.order == atlas.expected_order(q, "P1")
    assert T.identity in P1


def test_generator_shapes():
    F = Field(7, 1)
    gens = psl_generators(F)
    assert len(gens) == 2  # prime field: translation and inversion only
    t, s = gens
    assert t[7] == 7  # x -> x + 1 fixes infinity
    assert s[0] == 7 and s[7] == 0  # x -> -1/x swaps 0 and infinity
    assert t[3] == 4
    # inversion squares to the identity permutation
    assert reference.compose(s, s) == tuple(range(8))


def test_generators_prime_power():
    F = Field(2, 3)
    gens = psl_generators(F)
    assert len(gens) == F.f + 1  # basis translations plus the inversion


def test_translation_perm():
    F = Field(5, 1)
    t = translation_perm(F, 2)
    assert t == (2, 3, 4, 0, 1, 5)


def test_inversion_perm_gf4():
    F = Field(2, 2)
    s = inversion_perm(F)
    assert s[0] == 4 and s[4] == 0 and s[1] == 1


def test_bfs_determinism():
    a = psl_group(Field(7, 1))
    b = psl_group(Field(7, 1))
    assert np.array_equal(a.elements, b.elements)
    assert tuple(a.elements[0].tolist()) == tuple(range(8))


@pytest.mark.parametrize("q", ALL_Q)
def test_transitive_orbit_stabilizer(q):
    T = group_for(q)
    orbit = {e[q] for e in T.elements}
    assert orbit == set(range(q + 1))
    P1 = point_stabilizer(T, q)
    assert T.order == (q + 1) * P1.order


@pytest.mark.parametrize("q", [4, 5])
def test_simple_exhaustive(q):
    """Normal closure of every nontrivial element is the whole group."""
    T = group_for(q)
    for g in range(1, T.order):
        cls = reference.conjugacy_class(T, g)
        closure = eng.generate(T, cls)
        assert closure.order == T.order


@pytest.mark.parametrize("q", [7, 8, 9, 11, 13])
def test_simple_spot_checks(q):
    import random

    T = group_for(q)
    rng = random.Random(q)
    for g in rng.sample(range(1, T.order), 5):
        cls = reference.conjugacy_class(T, g)
        assert eng.generate(T, cls).order == T.order


def test_too_large():
    with pytest.raises(GroupTooLargeError):
        psl_group(Field(2, 9))  # order ~ 1.3e8


PRIME_POWERS = [q for q, (p, f) in ((q, factor_prime_power(q)) for q in range(4, 84)) if p**f == q]


def assert_matches_dict_bfs(H, gens):
    """H equals the dict BFS of its generators: elements, generator
    indices, and the greedy base with its lookup, dtypes included."""
    elements, generators = reference.dict_bfs(H.degree, gens)
    base = reference.greedy_base(elements)
    lookup = reference.base_lookup(elements, base)
    assert H.elements.dtype == elements.dtype and np.array_equal(H.elements, elements)
    assert H.generators == generators
    assert H.base == base
    assert H._lookup.dtype == lookup.dtype and np.array_equal(H._lookup, lookup)


@pytest.mark.parametrize("q", [q if q <= 32 else pytest.param(q, marks=pytest.mark.slow)
                               for q in PRIME_POWERS])
def test_psl_build_matches_dict_bfs(q):
    """The level-at-a-time build against base (0, 1, 2) gives what the dict
    BFS and the greedy base give."""
    F = Field(*factor_prime_power(q))
    assert_matches_dict_bfs(psl_group(F), psl_generators(F))


@pytest.mark.parametrize("swap", [True, False])
def test_wreath_build_matches_dict_bfs(T4, swap):
    """T wr S_2 and T x T at q = 4, built against three points per block."""
    triples = [t for g in T4.generators for t in ((g, 0, 0), (0, g, 0))] + [(0, 0, 1)] * swap
    gens = tuple(map(tuple, wreath.wreath_perms(T4, triples).tolist()))
    assert_matches_dict_bfs(wreath.wreath_full_table(T4, swap), gens)


@pytest.mark.parametrize("order, base", [(167, (0, 1, 2)), (100, (0, 1, 2)),
                                         (169, (0, 1, 2)), (168, (0, 1))])
def test_wrong_order_or_base_raises(order, base):
    """An order below the true one raises before a row past it is written;
    one above it, or a base that does not separate the elements, leaves
    rows unfilled and raises too."""
    with pytest.raises(ValueError, match="the generators give"):
        eng.GroupTable.from_generators(8, psl_generators(Field(7, 1)), base, order)


@pytest.mark.parametrize("q", [4, 8, 9, 23, 47])
def test_table_bytes_matches_build(q):
    T = psl_group(Field(*factor_prime_power(q)))
    assert table_bytes(q) == T.elements.nbytes + T._lookup.nbytes


def test_table_byte_cap():
    """The cap admits every q <= 211 and no q >= 223; q = 271, which an
    order cap of 10^7 admitted, needs some 5.5 GB."""
    assert table_bytes(127) < 0.15e9
    assert table_bytes(211) <= MAX_TABLE_BYTES < table_bytes(223)
    assert table_bytes(271) > 5 * MAX_TABLE_BYTES


def test_bad_point():
    T = group_for(7)
    with pytest.raises(ValueError):
        point_stabilizer(T, 99)


@pytest.mark.parametrize("q", ALL_Q)
def test_orders_match_repeated_mul(q):
    """GroupTable.orders, which multiplies only the elements whose order is
    not yet known, against powers taken one scalar mul at a time."""
    T = group_for(q)

    def order(g):
        power, k = g, 1
        while power != T.identity:
            power, k = T.mul(power, g), k + 1
        return k

    assert T.orders.tolist() == [order(g) for g in range(T.order)]
