"""Acceptance criteria, one test per criterion, each printing a summary line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.

Criterion 7 (dihedral class census): the external acceptance list stated two
conjugacy classes of dihedral subgroups at (q=11, d=5) and (q=13, d=7).  The
test asserts one class at each instead.  In PSL(2,11) a D10 has a normal
Sylow 5-subgroup, whose normalizer is dihedral of order q-1 = 10; so every
D10 is a Sylow normalizer and all of them are conjugate.  The same argument
makes every D14 in PSL(2,13) the normalizer of a Sylow 7-subgroup.  A direct
count agrees: PSL(2,11) has 66 subgroups D10 and the conjugation orbit of
one of them has 66 members; PSL(2,13) has 78 subgroups D14 and one orbit has
78 members.  This matches Dickson's classification (two classes exactly when
2d divides (q +- 1)/(2, q-1), one otherwise), `checks.census_rule`, and the
brute-force `CENSUS_TRUTH` table in `tests/test_engine.py`.
"""

import time
from math import gcd

import numpy as np

import reference
from conftest import group_for
from twdeg import atlas, checks, engine as eng, wreath as wr
from twdeg.engine import IsoFingerprint
from twdeg.field import Field
from twdeg.psl import point_stabilizer, psl_group, psl_order
from twdeg.checks import RunConfig, factor_prime_power


def report(n, ok, t0, detail=""):
    dt = time.time() - t0
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({dt:.2f}s)"
    if detail:
        line += f"  {detail}"
    print(line)
    return dt


def test_criterion_1_group_construction():
    t0 = time.time()
    ok = True
    for q in (4, 7, 8, 9, 11, 13):
        p, f = factor_prime_power(q)
        T = psl_group(Field(p, f))
        P1 = point_stabilizer(T, q)
        ok = ok and T.order == psl_order(q) and P1.order == atlas.expected_order(q, "P1")
    dt = report(1, ok, t0, "orders by enumeration, q in {4,7,8,9,11,13}")
    assert ok
    assert dt < 1.0


def test_criterion_2_involution_centralizers():
    t0 = time.time()
    ok = True
    for q, side in ((7, +1), (11, +1), (9, -1), (13, -1)):
        T = group_for(q)
        g = int(T.elements_of_order(2)[0])
        C = eng.centralizer(T, g)
        ok = ok and eng.fingerprint(C) == IsoFingerprint.dihedral(q + side)
    dt = report(2, ok, t0, "D_{q+1} at 7,11; D_{q-1} at 9,13")
    assert ok
    assert dt < 1.0


def test_criterion_3_exact_subdegrees_q7():
    t0 = time.time()
    T = group_for(7)
    P1 = point_stabilizer(T, 7)
    _, res_inv, _ = wr.build_centralizer_fn(T, int(T.elements_of_order(2)[0]))
    _, res_7, _ = wr.build_centralizer_fn(T, int(T.elements_of_order(7)[0]))
    s = next(g for g in range(T.order) if g not in P1.member_set)
    D = wr.product_sub(P1)
    res_g = wr.stabilizer_subdegree(wr.build_coset_fn(D, (0, s, 0)))
    S4 = atlas.find_named_subgroup(T, "S4").subgroup
    wit = wr.find_witness_t(T, S4, 2, label="S4").witness
    alpha = wr.build_coset_fn(wr.wreath_sub(S4), (0, wit["shift"][0], 0), eta=wit["eta"])
    res_s4 = wr.stabilizer_subdegree(alpha)
    ok = (
        res_inv.subdegree == 441
        and res_7.subdegree == 576
        and res_g.subdegree == 128
        and set(reference.stabilizer_members(res_g)) == set(reference.member_triples(D))
        and res_s4.subdegree == 49
        and set(reference.stabilizer_members(res_s4))
        == set(reference.member_triples(wr.wreath_sub(S4)))
        and gcd(49, 576) == 1
        and gcd(441, 128) == 1
    )
    dt = report(3, ok, t0, "441/576/128(P1xP1)/49(S4 wr S2), gcds = 1")
    assert ok
    assert dt < 30.0


def test_criterion_4_exact_subdegrees_q11():
    t0 = time.time()
    T = group_for(11)
    P1 = point_stabilizer(T, 11)
    A5 = atlas.find_named_subgroup(T, "A5").subgroup
    wit = wr.find_witness_t(T, A5, 2, label="A5").witness
    alpha = wr.build_coset_fn(wr.wreath_sub(A5), (0, wit["shift"][0], 0), eta=wit["eta"])
    r1 = wr.stabilizer_subdegree(alpha).subdegree
    _, res11, _ = wr.build_centralizer_fn(T, int(T.elements_of_order(11)[0]))
    s = next(g for g in range(T.order) if g not in P1.member_set)
    rg = wr.stabilizer_subdegree(wr.build_coset_fn(wr.product_sub(P1), (0, s, 0))).subdegree
    _, res_inv, _ = wr.build_centralizer_fn(T, int(T.elements_of_order(2)[0]))
    ok = (
        (r1, res11.subdegree) == (121, 3600)
        and gcd(121, 3600) == 1
        and (rg, res_inv.subdegree) == (288, 3025)
        and gcd(288, 3025) == 1
    )
    dt = report(4, ok, t0, "pairs (121,3600) and (288,3025)")
    assert ok
    assert dt < 300.0


def test_criterion_5_witness_searches():
    t0 = time.time()
    ok = True
    details = []
    for q in (7, 23):
        T = group_for(q)
        K = atlas.find_named_subgroup(T, "S4").subgroup
        w = atlas.search_intersection(T, K, IsoFingerprint.klein4(), kind="3.5a", label="S4")
        ok = ok and isinstance(w, atlas.IntersectionWitness)
        details.append(f"3.5a@q{q}")
    for q in (4, 8):
        T = group_for(q)
        K = atlas.find_named_subgroup(T, "DihedralPlus").subgroup
        w = atlas.search_intersection(T, K, IsoFingerprint.cyclic(2), kind="3.6")
        ok = ok and isinstance(w, atlas.IntersectionWitness)
        details.append(f"3.6@q{q}")
    T11 = group_for(11)
    K11 = atlas.find_named_subgroup(T11, "A5").subgroup
    nf = atlas.search_intersection(T11, K11, IsoFingerprint.cyclic(2), kind="3.4", label="A5")
    ok = ok and isinstance(nf, atlas.NotFound) and nf.scanned == 11
    T19 = group_for(19)
    K19 = atlas.find_named_subgroup(T19, "A5").subgroup
    w19 = atlas.search_intersection(T19, K19, IsoFingerprint.cyclic(2), kind="3.4", label="A5")
    ok = ok and isinstance(w19, atlas.IntersectionWitness)
    trip = atlas.search_triple_intersection(T11, K11, IsoFingerprint.cyclic(2))
    ok = ok and isinstance(trip, atlas.IntersectionWitness)
    if ok:
        r, s = trip.elements
        for g in (r, s, T11.mul(s, T11.inverse(r))):
            ok = ok and g not in K11.member_set
    dt = report(5, ok, t0, "3.5a@{7,23}, 3.6@{4,8}, 3.4 NotFound@11/witness@19, triple@11")
    assert ok
    assert dt < 120.0


def test_criterion_6_double_counting():
    t0 = time.time()
    ok = True
    T11 = group_for(11)
    K = atlas.find_named_subgroup(T11, "A5").subgroup
    for fp in (IsoFingerprint.cyclic(2), IsoFingerprint.sym3(),
               IsoFingerprint.dihedral(10), IsoFingerprint.klein4()):
        R = atlas.subgroup_of(K, fp)
        eng.count_conjugate_overgroups(T11, K, R)  # identity asserted internally
    T7 = group_for(7)
    S4 = atlas.find_named_subgroup(T7, "S4").subgroup
    for fp in (IsoFingerprint.cyclic(2), IsoFingerprint.klein4(),
               IsoFingerprint.sym3(), IsoFingerprint.dihedral(8)):
        R = atlas.subgroup_of(S4, fp)
        eng.count_conjugate_overgroups(T7, S4, R)
    T19 = group_for(19)
    A5 = atlas.find_named_subgroup(T19, "A5").subgroup
    R = atlas.subgroup_of(A5, IsoFingerprint.cyclic(2))
    y = eng.count_conjugate_overgroups(T19, A5, R)
    ok = ok and y == 5
    dt = report(6, ok, t0, "identity at (11,A5) and (7,S4); f(C2)=5 at q=19")
    assert ok
    assert dt < 60.0


def test_criterion_7_dickson_census():
    """Dihedral class counts match Dickson's classification: two classes at
    (11, 3), one class on either torus at (11, 5), (13, 6) and (13, 7)."""
    t0 = time.time()
    stated = [(11, 3, 2), (11, 5, 1), (13, 6, 1), (13, 7, 1)]
    mismatches = []
    for q, d, expected in stated:
        T = group_for(q)
        actual = eng.dihedral_class_census(T, d)
        if actual != expected:
            mismatches.append((q, d, expected, actual))
    ok = not mismatches
    dt = report(7, ok, t0, f"mismatches={mismatches}" if mismatches else "all four counts")
    assert dt < 60.0
    assert ok, f"census counts differ, as (q, d, expected, actual): {mismatches}"


def test_criterion_8_coset_involutions():
    t0 = time.time()
    ok = all(
        atlas.coset_involution_check(group_for(q), point_stabilizer(group_for(q), q))
        for q in (4, 5, 7, 8, 9, 11, 13)
    )
    dt = report(8, ok, t0, "q in {4,5,7,8,9,11,13}")
    assert ok
    assert dt < 10.0


def test_criterion_9_obstructions_and_alpha_properties():
    t0 = time.time()
    ok = True
    for q in (7, 8, 11):
        T = group_for(q)
        ok = ok and wr.obstruction_checks(T, point_stabilizer(T, q)).all_pass
    # action axiom, 10^4 random samples
    T7 = group_for(7)
    n = T7.order
    rng = np.random.default_rng(424242)
    for _ in range(10_000):
        alpha = wr.random_alpha(T7, rng)
        h1 = (int(rng.integers(n)), int(rng.integers(n)), int(rng.integers(2)))
        h2 = (int(rng.integers(n)), int(rng.integers(n)), int(rng.integers(2)))
        if wr.act_alpha(alpha, wr.w2_product(T7, h1, h2)) != wr.act_alpha(
            wr.act_alpha(alpha, h1), h2
        ):
            ok = False
            break
    # twisted-equivariance round trip at q = 4, 5
    for q in (4, 5):
        res = checks.lm_roundtrip({"q": q})
        ok = ok and res.status == "pass"
    # full T x T invariance forces the identity, over 10^4 samples
    T4 = group_for(4)
    Tfull = eng.Subgroup(T4, range(T4.order))
    rng = np.random.default_rng(5150)
    for _ in range(10_000):
        alpha = wr.random_alpha(T4, rng)
        if wr.check_XY_conditions(alpha, Tfull, Tfull):
            ok = ok and alpha.is_identity()
    ok = ok and wr.check_XY_conditions(wr.identity_alpha(T4), Tfull, Tfull)
    dt = report(9, ok, t0, "obstructions q in {7,8,11}; action axiom/round trip/propagation")
    assert ok
    assert dt < 60.0


def test_criterion_10_maximality_census():
    t0 = time.time()
    r1 = checks.lm_max_census_h({"q": 4})
    r2 = checks.lm_max_census_t2({"q": 4})
    ok = r1.status == "pass" and r2.status == "pass"
    dt = report(10, ok, t0, "wreath and product maximal types at q=4")
    assert ok
    assert dt < 120.0


def test_acceptance_note_arithmetic_certificates():
    """Large-q table entries are certified arithmetically with exact gcds."""
    t0 = time.time()
    ok = True
    for q, pair in ((29, (30, 203)), (59, (60, 1711))):
        order = psl_order(q)
        r_index, d_index = pair
        ok = ok and order % r_index == 0 and order % d_index == 0
        ok = ok and order // atlas.expected_order(q, "P1") == r_index  # r side comes from P1
        ok = ok and order // 60 == d_index  # d side comes from A5
        for m in (2, 3, 6):
            ok = ok and gcd(r_index**m, d_index**m) == 1
    ok = ok and gcd(30**2, 203**2) == 1 and gcd(2 * 60**2, 203**2) == 1
    dt = report(11, ok, t0, "q in {29,59} certificate arithmetic and gcds")
    assert ok
    assert dt < 5.0
