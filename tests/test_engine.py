import functools
from math import gcd

import numpy as np
import pytest

import reference
from conftest import compose_index, group_for
from test_golden import BUDGETS
from twdeg import atlas, checks, engine as eng
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
    assert len(reference.conjugacy_class(T7, int(T7.elements_of_order(2)[0]))) == 21
    assert len(reference.conjugacy_class(T13, int(T13.elements_of_order(2)[0]))) == 91
    assert len(reference.conjugacy_class(T7, T7.identity)) == 1


def test_conjugation_orbits_of_involutions_outside_p1(T11):
    """The P1-orbits on the involutions outside P1 at q = 11 partition that
    set, are closed under conjugation by every member of P1, and each starts
    at its smallest index."""
    P1 = point_stabilizer(T11, 11)
    invs = T11.elements_of_order(2)
    outside = invs[~eng.member_mask(P1)[invs]]
    orbits = eng.conjugation_orbits(T11, outside, P1)
    joined = np.concatenate(orbits)
    assert len(joined) == len(set(joined.tolist())) == len(outside)
    assert set(joined.tolist()) == set(outside.tolist())
    for orbit in orbits:
        images = T11.product(T11.inv[P1.members], orbit[:, None], P1.members)
        assert set(images.ravel().tolist()) == set(orbit.tolist())
        assert orbit[0] == orbit.min()
    reps = [int(orbit[0]) for orbit in orbits]
    assert reps == sorted(reps)


def test_conjugation_orbits_reject_open_points(T7):
    g = int(T7.elements_of_order(2)[0])
    with pytest.raises(ValueError):
        eng.conjugation_orbits(T7, [g], eng.generate(T7, T7.generators))


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13])
def test_class_size_times_centralizer(q):
    """|g^T| * |C_T(g)| = |T| for every element."""
    T = group_for(q)
    seen = set()
    for g in range(T.order):
        if g in seen:
            continue
        cls = reference.conjugacy_class(T, g)
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
    kleins = reference.klein_subgroups(S4)
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
    nn = [V for V in reference.klein_subgroups(S4)
          if not all(reference.conj(T, v, k) in V.member_set
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


CENSUS_QD = [(p["q"], p["d"]) for _, _, p in checks.lemma_specs(
    checks.RunConfig(q_list=[4, 5, 7, 8, 9, 11, 13, 16, 17, 19], q_explicit=True),
    "dickson-census")]


@pytest.mark.parametrize("q,d", CENSUS_QD)
def test_dihedral_class_census_matches_reference(q, d):
    """The census over normalizer orbits equals the brute-force census of
    dihedral member sets and their conjugates, at every valid d."""
    T = group_for(q)
    assert eng.dihedral_class_census(T, d) == reference.dihedral_class_census(T, d)


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
        assert checks.ctx_p1_product(23)[1].value == 2 * 24**2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25e6, f"traced peak {peak / 1e6:.1f} MB"


def test_psl_build_memory_q83():
    """PSL(2,83) is built into its final element array and lookup, a BFS
    level at a time: its traced peak stays near the 26 MB those two hold.
    A dict keyed by every row took the peak to 119 MB."""
    import tracemalloc

    from twdeg.field import Field
    from twdeg.psl import psl_group

    tracemalloc.start()
    try:
        psl_group(Field(83, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60e6, f"traced peak {peak / 1e6:.1f} MB"


def test_subgroup_conjugates(T7):
    from twdeg.psl import point_stabilizer

    P1 = point_stabilizer(T7, 7)
    conj = reference.subgroup_conjugates(T7, P1)
    assert len(conj) == 8  # one stabilizer per projective point
    assert len({c.member_set for c in conj}) == 8
    g = int(T7.elements_of_order(7)[0])
    C7 = eng.generate(T7, [g])
    assert len(reference.subgroup_conjugates(T7, C7)) == 8  # Sylow count


# -- batched coset representatives and class labels ------------------------------

@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13])
def test_coset_representatives_match_one_coset_at_a_time(q, monkeypatch):
    """Every atlas subgroup present at q, the trivial group and T: the
    representatives marked a batch of cosets at a time are those of the
    one-coset loop, with one element, 50 entries or CHUNK_ENTRIES entries
    per batch; swept only within a union of every other coset, they are
    every other representative."""
    T = group_for(q)
    subgroups = [atlas.find_named_subgroup(T, label).subgroup
                 for label in atlas.LABELS if atlas.label_exists(q, label)]
    subgroups += [eng.Subgroup(T, [T.identity]), eng.Subgroup(T, range(T.order))]
    for chunk in (1, 50, eng.CHUNK_ENTRIES):
        monkeypatch.setattr(eng, "CHUNK_ENTRIES", chunk)
        for S in subgroups:
            reps = reference.coset_representatives(T, S)
            assert eng.coset_representatives(T, S) == reps
            within = np.zeros(T.order, dtype=bool)
            within[T.product(S.members[:, None], reps[::2])] = True
            assert eng.coset_representatives(T, S, within) == reps[::2]


def test_coset_representatives_of_lemma_6_1_types():
    """The maximal-subgroup types of T wr S_2 at q = 4 that lemma 6.1 lists."""
    from twdeg import checks

    T = checks.ctx_group(4)
    H = _table("wr")
    for name, S in checks._h_maximal_types(T, H).items():
        reps = eng.coset_representatives(H, S)
        assert len(reps) == H.order // S.order, name
        assert reps == reference.coset_representatives(H, S), name


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_class_labels_match_conjugacy_classes(q):
    """Each element is labelled by the smallest member of its conjugacy
    class, so equal labels are the same partition as the classes."""
    T = group_for(q)
    labels = T.class_labels
    for g in range(T.order):
        cls = reference.conjugacy_class(T, g)
        assert labels[g] == cls[0]
        assert np.array_equal(np.flatnonzero(labels == labels[g]), cls)


# -- joins of a known subgroup, grown by cosets -------------------------------------

def _join_cases(G, seed: int, count: int = 12):
    """(S, g) pairs: S generated by one or two random elements, g random,
    and every third g taken inside S."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        S = eng.generate(G, [int(a) for a in rng.integers(0, G.order, 1 + i % 2)])
        g = int(S.members[rng.integers(S.order)]) if i % 3 == 0 else int(rng.integers(G.order))
        yield S, g


@functools.cache
def _table(q):
    """PSL(2,q), or T wr S_2 ("wr") and T x T ("tt") at q = 4."""
    from twdeg import wreath as wr

    if isinstance(q, int):
        return group_for(q)
    return wr.wreath_full_table(group_for(4), swap=q == "wr")


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, "wr", "tt"])
def test_extend_matches_closure(q):
    """<S, g> grown by cosets of S equals the element BFS of the same
    generators (_extend from the trivial subgroup), with and without a cap;
    the capped count exceeds the cap exactly when the full closure does.
    Capped at |G|/2, generate gives None exactly when the join is G, and the
    join otherwise."""
    G = _table(q)
    half = G.order // 2
    whole = 0
    for S, g in _join_cases(G, seed=G.order):
        gens = S.generating_set() + [g]
        full = eng._extend(G, np.arange(G.order) == G.identity, gens)
        assert np.array_equal(eng._extend(G, eng.member_mask(S), gens), full)
        size = np.count_nonzero(full)
        for cap in (S.order, size - 1, size, half):
            capped = np.count_nonzero(eng._extend(G, eng.member_mask(S), gens, cap))
            assert (capped > cap) == (size > cap)
            if size <= cap:
                assert capped == size
        join = eng.generate(G, gens)
        assert eng.generate(G, gens, S) == join
        whole += size == G.order
        for capped in (eng.generate(G, gens, S, half), eng.generate(G, gens, cap=half)):
            assert capped is None if size == G.order else capped == join
    assert 0 < whole < 12  # both outcomes of the cap


def _brute_closure(G, gens) -> np.ndarray:
    """The mask of <gens>: the identity times words in gens, one product of
    everything marked with gens per round, until a round adds nothing."""
    seen = np.arange(G.order) == G.identity
    while True:
        grown = seen.copy()
        grown[G.product(np.flatnonzero(seen)[:, None], gens)] = True
        if np.array_equal(grown, seen):
            return seen
        seen = grown


@pytest.mark.parametrize("q", [4, 7, 9, "wr"])
def test_grow_cosets_marks_double_cosets(q):
    """From the mask of M, the cosets of M grown from s under the
    generators of M are exactly the double coset M s M = {m s m'}, every
    product of two members of M taken.  From the trivial subgroup and the
    bare generators, the cosets are elements: with or without a cap, the
    marked count exceeds the cap exactly when the full closure does."""
    G = _table(q)
    trivial = np.arange(G.order) == G.identity
    for M, s in _join_cases(G, seed=G.order + 1):
        grown = eng._grow_cosets(G, eng.member_mask(M), M.members, [s], M.generating_set())
        want = eng.member_mask(M)
        want[G.product(M.members[:, None], s, M.members)] = True
        assert np.array_equal(grown, want)
        gens = M.generating_set() + [s]
        full = _brute_closure(G, gens)
        assert np.array_equal(eng._grow_cosets(G, trivial.copy(), [G.identity], gens, gens), full)
        size = np.count_nonzero(full)
        for cap in (1, size - 1, size, G.order // 2):
            capped = eng._grow_cosets(G, trivial.copy(), [G.identity], gens, gens, cap)
            assert (np.count_nonzero(capped) > cap) == (size > cap)


@pytest.mark.parametrize("q", [4, 7, 9, "wr"])
def test_generating_set_matches_greedy_from_scratch(q):
    G = _table(q)
    for S, _ in _join_cases(G, seed=5):
        fresh = eng.Subgroup(G, S.members)
        assert fresh.generating_set() == reference.greedy_generating_set(fresh)


@pytest.mark.parametrize("q", [4, 7, 9, "wr"])
def test_intersect_matches_member_sets(q):
    """The members common to both, as sorted indices: for random pairs,
    pairs of cyclic subgroups of coprime orders (they meet in the identity
    alone), and S with itself."""
    G = _table(q)
    cases = list(_join_cases(G, seed=11))
    pairs = [(S, R) for (S, _), (R, _) in zip(cases, cases[1:])]
    pairs += [(S, S) for S, _ in cases]
    cyclic = {}
    for g in np.random.default_rng(12).integers(0, G.order, 40).tolist():
        C = eng.generate(G, [g])
        cyclic.setdefault(C.order, C)
    coprime = [(A, B) for a, A in cyclic.items() for b, B in cyclic.items()
               if a > 1 and b > 1 and gcd(a, b) == 1]
    assert coprime
    for A, B in coprime:
        assert eng.intersect(A, B).members.tolist() == [G.identity]
    for S, R in pairs + coprime:
        both = np.flatnonzero(eng.member_mask(S) & eng.member_mask(R))
        assert np.array_equal(eng.intersect(S, R).members, both)


def test_unique_matches_np_unique():
    rng = np.random.default_rng(3)
    arrays = [rng.integers(0, k, size) for k, size in ((3, 50), (100, 100), (10**6, 40))]
    arrays += [np.sort(a) for a in arrays]
    arrays += [rng.integers(-5, 5, (7, 9)), np.arange(12).reshape(3, 4) % 5]
    arrays += [np.array([], dtype=np.int64), np.array([4]), np.zeros(6, dtype=np.int8)]
    for a in arrays:
        got, want = eng.unique(a), np.unique(a)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert eng.unique([]).shape == np.unique([]).shape == (0,)


def test_subgroup_sorts_and_dedups(T7):
    P1 = point_stabilizer(T7, 7)
    shuffled = np.random.default_rng(1).permutation(np.concatenate([P1.members, P1.members]))
    for members in (shuffled, shuffled.tolist(), frozenset(P1.members.tolist())):
        S = eng.Subgroup(T7, members)
        assert np.array_equal(S.members, P1.members) and S.order == P1.order
        assert S.member_set == P1.member_set and S == P1
    assert eng.Subgroup(T7, [5, 3, 3, 0]).members.tolist() == [0, 3, 5]
    assert eng.Subgroup(T7, []).order == 0


def test_lemma_6_1_closures_from_scratch(monkeypatch):
    """lemma 6.1 grows the joins of subgroups it already holds by cosets.
    From empty contexts the element BFS from bare generators (_extend from
    the trivial subgroup) runs 49 times.  Rebuilding every join, greedy
    generating-set step and overgroup test from scratch ran it 320 times;
    rebuilding only the overgroup tests of is_maximal, 74 times."""
    from twdeg import checks

    calls = []
    extend = eng._extend

    def counted(G, seen, *args, **kwargs):
        if np.count_nonzero(seen) == 1:
            calls.append(1)
        return extend(G, seen, *args, **kwargs)

    monkeypatch.setattr(checks, "_CTX", {})
    monkeypatch.setattr(eng, "_extend", counted)
    cfg = checks.RunConfig()
    (result,) = checks.execute_specs(checks.lemma_specs(cfg, "6.1"), cfg)
    assert result.status == "pass"
    assert len(calls) <= 60


def test_default_table4_product_count(monkeypatch):
    """The exact scans of the default table4 work in whole-array steps: from
    empty contexts its checks make 2,053 GroupTable.product calls, within
    the golden budget of table4.  One small product per coset
    representative, per anchor point, per orbit generator and level, and a
    class loop in every scan made 5,703.  The products hold 1,469,410
    entries in all: coset sweeps of no more elements than cosets left, joins
    stopped at join_cap and L-filters over double cosets; full batches of
    CHUNK_ENTRIES, joins capped at |G|/2 and masks over all of T held
    2,675,750."""
    from twdeg import checks

    calls = []
    entries = []
    product = eng.GroupTable.product

    def counted(self, *factors):
        calls.append(1)
        result = product(self, *factors)
        entries.append(result.size)
        return result

    monkeypatch.setattr(checks, "_CTX", {})
    monkeypatch.setattr(eng.GroupTable, "product", counted)
    cfg = checks.RunConfig()
    results = checks.execute_specs(checks.table4_specs(cfg), cfg)
    assert [r.status for r in results] == ["pass"] * 9
    max_calls, max_entries = BUDGETS["table4"]
    assert len(calls) <= max_calls
    assert sum(entries) <= max_entries


# -- Lagrange-bounded joins ---------------------------------------------------------

def test_join_cap_is_order_over_smallest_prime_of_index():
    for order, sub, cap in ((60, 12, 12), (168, 21, 84), (1092, 12, 156), (7200, 3600, 3600),
                            (7200, 288, 1440), (6072, 253, 3036), (60, 1, 30), (60, 60, 60)):
        assert eng.join_cap(order, sub) == cap, (order, sub)
    for index in range(2, 200):
        p = min(d for d in range(2, index + 1) if index % d == 0)
        assert eng.join_cap(7 * index, 7) == 7 * index // p


def _cap_cases(q):
    """(G, subgroups): every atlas label present at q, or the maximal types
    that lemmas 6.1 ("wr") and 6.2 ("tt") list at q = 4 and, as subgroups
    with proper joins, K x K for the atlas labels K at q = 4."""
    from twdeg import checks, wreath as wr

    if isinstance(q, int):
        T = group_for(q)
        return T, [atlas.find_named_subgroup(T, label).subgroup
                   for label in atlas.LABELS if atlas.label_exists(q, label)]
    T = checks.ctx_group(4)
    G = wr.wreath_full_table(T, swap=q == "wr")
    types = checks._h_maximal_types if q == "wr" else checks._t2_maximal_types
    squares = [checks._embed_triples(T, G, K[:, None], K) for K in (
        checks.ctx_atlas(4, label).subgroup.members for label in ("A4", "DihedralPlus"))]
    return G, list(types(T, G).values()) + squares


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, "wr", "tt"])
def test_capped_joins_match_full_joins(q):
    """Over one g per double coset S g S, a join <S, g> capped at join_cap,
    grown by cosets of S or from the trivial group, is None exactly when the
    full join is G, and the full join otherwise; is_maximal, which stops its
    joins there, agrees with full joins on every subgroup."""
    G, subgroups = _cap_cases(q)
    outcomes, verdicts = set(), []
    for S in subgroups:
        gens = S.generating_set()
        cap = eng.join_cap(G.order, S.order)
        for g in reference.double_coset_representatives(G, S):
            join = eng.generate(G, gens + [g])
            for capped in (eng.generate(G, gens + [g], S, cap),
                           eng.generate(G, gens + [g], cap=cap)):
                assert capped is None if join.order == G.order else capped == join
            outcomes.add(join.order == G.order)
        fresh = eng.Subgroup(G, S.members)  # no cached verdict
        verdicts.append(reference.is_maximal(G, fresh))
        assert eng.is_maximal(G, fresh) == verdicts[-1], (q, S.order)
    # a proper join shows up exactly when some subgroup is not maximal
    assert outcomes == ({True} if all(verdicts) else {True, False})
