import numpy as np
import pytest

from conftest import group_for
from twdeg import engine as eng
from twdeg.field import Field
from twdeg.psl import (
    GroupTooLargeError,
    inversion_perm,
    p1_order,
    point_stabilizer,
    psl_generators,
    psl_group,
    psl_order,
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
    assert P1.order == p1_order(q)
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
    assert eng.compose(s, s) == eng.identity_perm(8)


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
    assert tuple(a.elements[0].tolist()) == eng.identity_perm(8)


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
        cls = eng.conjugacy_class(T, g)
        closure = eng.generate(T, cls)
        assert closure.order == T.order


@pytest.mark.parametrize("q", [7, 8, 9, 11, 13])
def test_simple_spot_checks(q):
    import random

    T = group_for(q)
    rng = random.Random(q)
    for g in rng.sample(range(1, T.order), 5):
        cls = eng.conjugacy_class(T, g)
        assert eng.generate(T, cls).order == T.order


def test_too_large():
    with pytest.raises(GroupTooLargeError):
        psl_group(Field(2, 9))  # order ~ 1.3e8


def test_bad_point():
    T = group_for(7)
    with pytest.raises(ValueError):
        point_stabilizer(T, 99)
