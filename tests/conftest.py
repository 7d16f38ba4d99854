import numpy as np
import pytest

from reference import compose
from twdeg.field import Field
from twdeg.psl import psl_group

_GROUPS = {}
_TABLES = {}


def group_for(q: int):
    """Session-cached PSL(2,q) tables keyed by q."""
    if q not in _GROUPS:
        from twdeg.checks import factor_prime_power

        p, f = factor_prime_power(q)
        _GROUPS[q] = psl_group(Field(p, f))
    return _GROUPS[q]


def compose_index(T, i: int, j: int) -> int:
    """The product of elements i and j by composing their permutation
    tuples and looking the result up: the reference for T.product."""
    g, h = (tuple(T.elements[k].tolist()) for k in (i, j))
    return int(T.index(compose(g, h)))


def reference_table(T) -> np.ndarray:
    """The brute-force n x n multiplication table of a small group, from
    compose_index; cached per table."""
    if id(T) not in _TABLES:
        n = T.order
        _TABLES[id(T)] = (T, np.array([[compose_index(T, i, j) for j in range(n)]
                                       for i in range(n)]))
    return _TABLES[id(T)][1]


@pytest.fixture
def scan_log(monkeypatch):
    """The alpha values (as bytes) of every wreath.stabilizer_subdegree call."""
    from twdeg import wreath

    scanned = []
    scan = wreath.stabilizer_subdegree

    def recording_scan(alpha, *args, **kwargs):
        scanned.append(alpha.values.tobytes())
        return scan(alpha, *args, **kwargs)

    monkeypatch.setattr(wreath, "stabilizer_subdegree", recording_scan)
    return scanned


@pytest.fixture
def containment_log(monkeypatch):
    """The kind of D of every wreath.inside_stabilizer(D, alpha) call."""
    from twdeg import wreath

    checked = []
    inside = wreath.inside_stabilizer

    def recording_inside(D, alpha):
        checked.append(D.kind)
        return inside(D, alpha)

    monkeypatch.setattr(wreath, "inside_stabilizer", recording_inside)
    return checked


@pytest.fixture
def act_log(monkeypatch):
    """One entry per wreath.act_alpha(alpha, h) call: True when h fixes
    alpha."""
    from twdeg import wreath

    acted = []
    act = wreath.act_alpha

    def recording_act(alpha, h):
        image = act(alpha, h)
        acted.append(image == alpha)
        return image

    monkeypatch.setattr(wreath, "act_alpha", recording_act)
    return acted


@pytest.fixture(scope="session")
def T7():
    return group_for(7)


@pytest.fixture(scope="session")
def T11():
    return group_for(11)


@pytest.fixture(scope="session")
def T13():
    return group_for(13)


@pytest.fixture(scope="session")
def T4():
    return group_for(4)


@pytest.fixture(scope="session")
def T5():
    return group_for(5)


@pytest.fixture(scope="session")
def T8():
    return group_for(8)


@pytest.fixture(scope="session")
def T9():
    return group_for(9)
