"""Fingerprints decide isomorphism for the subgroups arising here.

The engine distinguishes isomorphism types only by (order, element-order
multiset, abelian flag).  This module documents that the surrogate is exact
on the groups the checks actually compare: every pair of subgroups of
PSL(2,7) and of PSL(2,9) with equal fingerprints is isomorphic (verified by
an explicit generator-mapping isomorphism when they are not conjugate), and
the named small families are pairwise distinguishable at equal orders.
"""

from collections import defaultdict, deque

import pytest

from conftest import group_for
from twdeg import engine as eng
from twdeg.engine import IsoFingerprint


def all_proper_subgroups(T):
    """The full subgroup lattice, by closing cyclic joins."""
    cyclics = {}
    for g in range(1, T.order):
        S = eng.generate(T, [g])
        cyclics.setdefault(S.member_set, S)
    subs = {frozenset({T.identity}): eng.generate(T, [])}
    for mem, S in cyclics.items():
        subs[mem] = S
    frontier = list(subs.values())
    half = T.order // 2
    while frontier:
        new = []
        for S in frontier:
            for cmem, C in cyclics.items():
                if cmem <= S.member_set:
                    continue
                gens = S.generating_set() + C.generating_set()
                size = eng._closure_size_capped(T, gens, half)
                if size > half:
                    continue
                S2 = eng.generate(T, gens)
                if S2.member_set not in subs:
                    subs[S2.member_set] = S2
                    new.append(S2)
        frontier = new
    return list(subs.values())


def are_isomorphic(A: eng.Subgroup, B: eng.Subgroup) -> bool:
    """Brute-force generator-mapping isomorphism test for small groups."""
    TA, TB = A.parent, B.parent
    if A.order != B.order:
        return False
    gens = A.generating_set()
    if not gens:
        return True
    # BFS words over the generators, recording how each element is reached
    parent = {TA.identity: None}
    order_in = deque([TA.identity])
    reach = [TA.identity]
    while order_in:
        x = order_in.popleft()
        for gi, g in enumerate(gens):
            y = TA.mul(x, g)
            if y not in parent:
                parent[y] = (x, gi)
                order_in.append(y)
                reach.append(y)
    assert len(reach) == A.order
    b_members = [int(m) for m in B.members]
    orders_b = defaultdict(list)
    for m in b_members:
        orders_b[TB.order_of(m)].append(m)

    def try_images(imgs):
        phi = {TA.identity: TB.identity}
        for y in reach[1:]:
            x, gi = parent[y]
            phi[y] = TB.mul(phi[x], imgs[gi])
        if len(set(phi.values())) != A.order:
            return False
        if set(phi.values()) != set(b_members):
            return False
        mem = list(phi.keys())
        for a in mem:
            for b in mem:
                if phi[TA.mul(a, b)] != TB.mul(phi[a], phi[b]):
                    return False
        return True

    def backtrack(i, chosen):
        if i == len(gens):
            return try_images(chosen)
        for cand in orders_b[TA.order_of(gens[i])]:
            if backtrack(i + 1, chosen + [cand]):
                return True
        return False

    return backtrack(0, [])


def conjugacy_class_id(T, S: eng.Subgroup) -> frozenset:
    """Canonical representative (smallest member set) of the conjugacy orbit."""
    best = S.member_set
    for g in range(T.order):
        c = S.conjugate_set(g)
        if sorted(c) < sorted(best):
            best = c
    return best


@pytest.mark.parametrize("q,multiclass", [(7, 3), (9, 6)])
def test_equal_fingerprints_imply_isomorphic(q, multiclass):
    T = group_for(q)
    subs = all_proper_subgroups(T)
    buckets = defaultdict(list)
    for S in subs:
        buckets[eng.fingerprint(S)].append(S)
    exercised = 0
    for fp, bucket in buckets.items():
        if len(bucket) == 1:
            continue
        # compare one representative per conjugacy class
        reps = {}
        for S in bucket:
            reps.setdefault(conjugacy_class_id(T, S), S)
        reps = list(reps.values())
        if len(reps) > 1:
            exercised += 1
        base = reps[0]
        for other in reps[1:]:
            assert are_isomorphic(base, other), f"fingerprint {fp} is ambiguous at q={q}"
    # non-vacuity: the explicit isomorphism path must actually run (e.g. the
    # two conjugacy classes of S4 at q=7 and of A5 at q=9 share fingerprints)
    assert exercised == multiclass


@pytest.mark.parametrize("q,count", [(7, 179), (9, 501)])
def test_lattice_sizes(q, count):
    """Total subgroup counts act as a regression pin on the enumeration."""
    T = group_for(q)
    subs = all_proper_subgroups(T)
    assert len(subs) + 1 == count  # proper subgroups plus the group itself


def test_named_families_distinguishable():
    families = {}
    for n in range(2, 121):
        families[f"C{n}"] = IsoFingerprint.cyclic(n)
    for n in range(4, 121, 2):
        families[f"D{n}"] = IsoFingerprint.dihedral(n)
    families["A4"] = IsoFingerprint.alt4()
    families["S4"] = IsoFingerprint.sym4()
    families["A5"] = IsoFingerprint.alt5()
    names = sorted(families)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            fa, fb = families[a], families[b]
            if fa.order != fb.order:
                continue
            if (a, b) == ("C2", "D2") or {a, b} == {"D4", "C2^2"}:
                continue
            # D4 is the Klein four group; identical by design
            if {a, b} == {"S3", "D6"}:
                continue
            assert fa != fb, f"{a} and {b} share a fingerprint"
