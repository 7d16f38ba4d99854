"""The exact m = 2 sweep of the generic pair at every prime power
q = 3 mod 4 from 7 to 127, outside Tier-1: run it with `pytest -m slow`.

At each q the P1 x P1 coset function and the involution-class function are
scanned exactly, and the obstruction ingredients are checked.  The values
are the paper's: 2(q+1)^2 and (q(q-1)/2)^2.
"""

import pytest

from twdeg import checks

SWEEP_Q = [7, 11, 19, 23, 27, 31, 43, 47, 59, 67, 71, 79, 83, 103, 107, 127]


@pytest.mark.slow
@pytest.mark.parametrize("q", SWEEP_Q)
def test_exact_generic_pair(monkeypatch, q):
    monkeypatch.setattr(checks, "_CTX", {})  # one q's tables at a time
    p1 = checks.p1_product_subdegree(q, True)
    assert (p1.kind, p1.value) == ("exact-stabilizer", 2 * (q + 1) ** 2)
    involution = checks.class_subdegree(q, 2, 2, True)
    assert (involution.kind, involution.value) == ("exact-stabilizer", (q * (q - 1) // 2) ** 2)
    assert checks.ctx_obstruction(q).all_pass
