import numpy as np
import pytest

from conftest import compose_index, group_for
from twdeg import atlas, engine as eng
from twdeg.engine import IsoFingerprint
from twdeg.psl import point_stabilizer


def test_generate_trivial(T7):
    S = eng.generate(T7, [])
    assert S.order == 1 and T7.identity in S


def test_generate_cyclic(T7):
    g = int(T7.elements_of_order(7)[0])
    assert eng.generate(T7, [g]).order == 7


def test_generate_p1_plus_outside_is_whole_group(T7):
    P1 = point_stabilizer(T7, 7)
    outside = next(g for g in range(T7.order) if g not in P1.member_set)
    S = eng.generate(T7, P1.generating_set() + [outside])
    assert S.order == T7.order


def test_generate_idempotent(T7):
    P1 = point_stabilizer(T7, 7)
    again = eng.generate(T7, list(P1.members))
    assert again.member_set == P1.member_set


def test_centralizer_involution_q7(T7):
    g = int(T7.elements_of_order(2)[0])
    C = eng.centralizer(T7, g)
    assert C.order == 8
    assert eng.fingerprint(C) == IsoFingerprint.dihedral(8)


def test_centralizer_involution_q13(T13):
    g = int(T13.elements_of_order(2)[0])
    C = eng.centralizer(T13, g)
    assert C.order == 12
    assert eng.fingerprint(C) == IsoFingerprint.dihedral(12)


def test_centralizer_order7(T7):
    g = int(T7.elements_of_order(7)[0])
    assert eng.centralizer(T7, g).order == 7


def test_conjugacy_class_sizes(T7, T13):
    assert len(eng.conjugacy_class(T7, int(T7.elements_of_order(2)[0]))) == 21
    assert len(eng.conjugacy_class(T13, int(T13.elements_of_order(2)[0]))) == 91
    assert len(eng.conjugacy_class(T7, T7.identity)) == 1


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13])
def test_class_size_times_centralizer(q):
    """|g^T| * |C_T(g)| = |T| for every element."""
    T = group_for(q)
    seen = set()
    for g in range(T.order):
        if g in seen:
            continue
        cls = eng.conjugacy_class(T, g)
        seen.update(int(c) for c in cls)
        C = eng.centralizer(T, g)
        assert len(cls) * C.order == T.order


def test_normalizer_whole_group(T7):
    full = eng.Subgroup(T7, range(T7.order))
    assert eng.normalizer(T7, full).order == T7.order


def test_normalizer_p1(T7):
    P1 = point_stabilizer(T7, 7)
    assert eng.normalizer(T7, P1).member_set == P1.member_set


def test_normalizer_d6_in_a5_q19():
    T = group_for(19)
    A5 = atlas.find_named_subgroup(T, "A5").subgroup
    D6 = atlas.subgroup_of(A5, IsoFingerprint.sym3())
    assert eng.normalizer(T, D6).order == 6


def test_intersect(T7):
    P1 = point_stabilizer(T7, 7)
    assert eng.intersect(P1, P1).member_set == P1.member_set
    s = next(g for g in range(T7.order) if g not in P1.member_set)
    I = eng.intersect(P1, P1.conjugate(s))
    assert I.order == 3
    assert eng.fingerprint(I) == IsoFingerprint.cyclic(3)
    # symmetric
    J = eng.intersect(P1.conjugate(s), P1)
    assert I.member_set == J.member_set


def test_intersect_parent_mismatch(T7, T11):
    A = point_stabilizer(T7, 7)
    B = point_stabilizer(T11, 11)
    with pytest.raises(eng.ParentMismatchError):
        eng.intersect(A, B)


def test_center(T7):
    g = int(T7.elements_of_order(7)[0])
    C7 = eng.generate(T7, [g])
    assert eng.center(C7).member_set == C7.member_set  # abelian
    D8 = eng.centralizer(T7, int(T7.elements_of_order(2)[0]))
    assert eng.center(D8).order == 2
    S4 = atlas.find_named_subgroup(T7, "S4").subgroup
    assert eng.center(S4).order == 1


def test_fingerprint_examples(T7):
    S4 = atlas.find_named_subgroup(T7, "S4").subgroup
    assert eng.fingerprint(S4) == IsoFingerprint.sym4()
    kleins = atlas.klein_subgroups(S4)
    assert all(eng.fingerprint(V) == IsoFingerprint.klein4() for V in kleins)
    assert IsoFingerprint.klein4() == IsoFingerprint(4, ((1, 1), (2, 3)), True)
    assert IsoFingerprint.dihedral(8) == IsoFingerprint(8, ((1, 1), (2, 5), (4, 2)), False)
    assert IsoFingerprint.alt5() == IsoFingerprint(60, ((1, 1), (2, 15), (3, 20), (5, 24)), False)


def test_fingerprint_conjugation_invariant(T11):
    rng = np.random.default_rng(3)
    A5 = atlas.find_named_subgroup(T11, "A5").subgroup
    fp = eng.fingerprint(A5)
    for g in rng.integers(0, T11.order, 5):
        assert eng.fingerprint(A5.conjugate(int(g))) == fp


def test_is_maximal(T7):
    P1 = point_stabilizer(T7, 7)
    assert eng.is_maximal(T7, P1)
    g = int(T7.elements_of_order(7)[0])
    C7 = eng.generate(T7, [g])
    assert not eng.is_maximal(T7, C7)


def test_count_conjugate_overgroups_self(T7):
    S4 = atlas.find_named_subgroup(T7, "S4").subgroup
    assert eng.count_conjugate_overgroups(T7, S4, S4) == 1


def test_count_conjugate_overgroups_q7(T7):
    S4 = atlas.find_named_subgroup(T7, "S4").subgroup
    for fp in (IsoFingerprint.cyclic(2), IsoFingerprint.klein4(),
               IsoFingerprint.sym3(), IsoFingerprint.dihedral(8)):
        R = atlas.subgroup_of(S4, fp)
        y = eng.count_conjugate_overgroups(T7, S4, R)  # identity asserted inside
        assert y >= 1


def test_count_conjugate_overgroups_q17_nonnormal_klein():
    T = group_for(17)
    S4 = atlas.find_named_subgroup(T, "S4").subgroup
    # pick a Klein four subgroup that is not normal in S4
    nn = [V for V in atlas.klein_subgroups(S4)
          if not all(T.conj(v, k) in V.member_set
                     for v in V.generating_set() for k in S4.generating_set())]
    assert nn
    y = eng.count_conjugate_overgroups(T, S4, nn[0])
    assert y >= 3


def test_count_conjugate_overgroups_f_c2_q19():
    T = group_for(19)
    A5 = atlas.find_named_subgroup(T, "A5").subgroup
    R = atlas.subgroup_of(A5, IsoFingerprint.cyclic(2))
    assert eng.count_conjugate_overgroups(T, A5, R) == 5  # (q+1)/4


def test_count_conjugate_overgroups_not_maximal(T7):
    g = int(T7.elements_of_order(7)[0])
    C7 = eng.generate(T7, [g])
    R = eng.generate(T7, [])
    with pytest.raises(eng.NotMaximalError):
        eng.count_conjugate_overgroups(T7, C7, R)


CENSUS_TRUTH = [
    # ground truths frozen from an independent brute-force enumeration:
    # two classes exactly when 2d divides the relevant torus order
    (7, 3, 1), (7, 4, 1),
    (11, 3, 2), (11, 5, 1), (11, 6, 1),
    (13, 3, 2), (13, 6, 1), (13, 7, 1),
    (19, 3, 1), (19, 5, 2), (19, 9, 1), (19, 10, 1),
]


@pytest.mark.parametrize("q,d,expected", CENSUS_TRUTH)
def test_dihedral_class_census(q, d, expected):
    T = group_for(q)
    assert eng.dihedral_class_census(T, d) == expected


def test_dihedral_census_rejects_bad_d(T7):
    with pytest.raises(eng.NoSuchSubgroupError):
        eng.dihedral_class_census(T7, 5)  # 5 divides neither 3 nor 4
    with pytest.raises(eng.NoSuchSubgroupError):
        eng.dihedral_class_census(T7, 2)


def test_lagrange_and_closure(T7):
    rng = np.random.default_rng(11)
    for _ in range(10):
        gens = [int(g) for g in rng.integers(0, T7.order, 2)]
        S = eng.generate(T7, gens)
        assert T7.order % S.order == 0
        assert T7.identity in S
        mem = list(S)
        for a in mem[:8]:
            assert T7.inverse(a) in S.member_set
            for b in mem[:8]:
                assert T7.mul(a, b) in S.member_set


def _check_products(T, i, j):
    """Scalar, batch and chained products of the pairs (i, j) agree with
    composing permutation tuples and looking the result up."""
    ref = np.array([compose_index(T, a, b) for a, b in zip(i.tolist(), j.tolist())])
    assert np.array_equal(T.product(i, j), ref)
    assert [T.mul(a, b) for a, b in zip(i.tolist(), j.tolist())] == ref.tolist()
    k = np.roll(i, 1)
    chained = [compose_index(T, ab, c) for ab, c in zip(ref.tolist(), k.tolist())]
    assert np.array_equal(T.product(i, j, k), chained)
    # x t y^-1 over all t, the shape of act_alpha
    x, y = int(i[0]), int(j[0])
    xty = [compose_index(T, compose_index(T, x, t), T.inverse(y)) for t in range(T.order)]
    assert np.array_equal(T.product(x, np.arange(T.order), T.inv[y]), xty)


def _check_lookup(T):
    """The base-image lookup maps every element back to its BFS index."""
    assert np.array_equal(T.index(T.elements), np.arange(T.order))
    assert np.array_equal(T.product(T.inv, np.arange(T.order)), np.zeros(T.order))


@pytest.mark.parametrize("q", [4, 5])
def test_products_match_reference_all_pairs(q):
    T = group_for(q)
    _check_lookup(T)
    assert len(T.base) == 3
    i, j = np.divmod(np.arange(T.order**2), T.order)
    _check_products(T, i, j)


def test_products_match_reference_q23():
    T = group_for(23)
    _check_lookup(T)
    rng = np.random.default_rng(23)
    _check_products(T, rng.integers(0, T.order, 20_000), rng.integers(0, T.order, 20_000))


@pytest.mark.parametrize("swap", [True, False])
def test_products_match_reference_wreath_q4(T4, swap):
    """T wr S_2 and T x T at q = 4: three base points per block, and the
    10^6-entry lookup in the smallest dtype that holds the indices."""
    from twdeg import wreath as wr

    H = wr.wreath_full_table(T4, swap=swap)
    _check_lookup(H)
    assert len(H.base) == 6 and H._lookup.size == 10**6
    assert H._lookup.dtype == np.int16
    rng = np.random.default_rng(7)
    _check_products(H, rng.integers(0, H.order, 20_000), rng.integers(0, H.order, 20_000))


def test_p1_product_memory_q23(monkeypatch):
    """PSL(2,23) and its P1 x P1 coset function, built and scanned exactly,
    stay far below an n x n table (147 MB at n = 6072)."""
    import tracemalloc

    from twdeg import checks
    from twdeg.field import Field
    from twdeg.psl import psl_group

    monkeypatch.setattr(checks, "_CTX", {})
    tracemalloc.start()
    try:
        psl_group(Field(23, 1))
        assert checks.ctx_p1_product(23)[3] == 2 * 24**2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25e6, f"traced peak {peak / 1e6:.1f} MB"


def test_subgroup_conjugates(T7):
    from twdeg.psl import point_stabilizer

    P1 = point_stabilizer(T7, 7)
    conj = eng.subgroup_conjugates(T7, P1)
    assert len(conj) == 8  # one stabilizer per projective point
    assert len({c.member_set for c in conj}) == 8
    g = int(T7.elements_of_order(7)[0])
    C7 = eng.generate(T7, [g])
    assert len(eng.subgroup_conjugates(T7, C7)) == 8  # Sylow count
