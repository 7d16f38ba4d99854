import pytest

from twdeg.field import Field
from twdeg.psl import psl_group

_GROUPS = {}


def group_for(q: int):
    """Session-cached PSL(2,q) tables keyed by q."""
    if q not in _GROUPS:
        from twdeg.checks import factor_prime_power

        p, f = factor_prime_power(q)
        _GROUPS[q] = psl_group(Field(p, f))
    return _GROUPS[q]


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
