import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import group_for, reference_table
from twdeg import atlas, engine as eng, wreath as wr
from twdeg.engine import IsoFingerprint
from twdeg.psl import point_stabilizer


# -- multiplication conventions ---------------------------------------------------

def test_swap_conjugation(T4):
    c, d = 3, 7
    iota = (0, 0, 1)
    out = wr.w2_product(T4, wr.w2_product(T4, iota, (c, d, 0)), iota)
    assert out == (d, c, 0)


def test_w2_associative_random(T4):
    rng = np.random.default_rng(0)
    n = T4.order
    for _ in range(300):
        u, v, w = (
            (int(rng.integers(n)), int(rng.integers(n)), int(rng.integers(2)))
            for _ in range(3)
        )
        lhs = wr.w2_product(T4, wr.w2_product(T4, u, v), w)
        rhs = wr.w2_product(T4, u, wr.w2_product(T4, v, w))
        assert lhs == rhs


def test_w2_inverse(T4):
    rng = np.random.default_rng(1)
    n = T4.order
    for _ in range(100):
        u = (int(rng.integers(n)), int(rng.integers(n)), int(rng.integers(2)))
        assert wr.w2_product(T4, u, wr.w2_inv(T4, u)) == wr.w2_identity()


def test_wm_matches_w2(T4):
    rng = np.random.default_rng(2)
    n = T4.order
    swap = (1, 0)
    ident = (0, 1)
    for _ in range(100):
        a, b, c, d = (int(x) for x in rng.integers(0, n, 4))
        k, l = int(rng.integers(2)), int(rng.integers(2))
        u2 = wr.w2_product(T4, (a, b, k), (c, d, l))
        um = wr.wm_product(T4, ((a, b), swap if k else ident), ((c, d), swap if l else ident))
        assert um[0] == (u2[0], u2[1])
        assert (um[1] == swap) == (u2[2] == 1)


def test_wm_associative_m3(T4):
    import itertools
    rng = np.random.default_rng(3)
    n = T4.order
    sigmas = list(itertools.permutations(range(3)))
    for _ in range(200):
        els = []
        for _ in range(3):
            parts = tuple(int(x) for x in rng.integers(0, n, 3))
            els.append((parts, sigmas[int(rng.integers(6))]))
        u, v, w = els
        lhs = wr.wm_product(T4, wr.wm_product(T4, u, v), w)
        assert lhs == wr.wm_product(T4, u, wr.wm_product(T4, v, w))
        assert wr.wm_product(T4, u, wr.wm_inv(T4, u))[0] == (0, 0, 0)


def test_full_table_guard():
    T = group_for(17)
    with pytest.raises(wr.WreathTooLargeError):
        wr.wreath_full_table(T)


def test_full_table_q4(T4):
    H = wr.wreath_full_table(T4)
    assert H.order == 7200
    # triple embedding round-trips
    rng = np.random.default_rng(4)
    for _ in range(50):
        u = (int(rng.integers(60)), int(rng.integers(60)), int(rng.integers(2)))
        assert wr.wreath_triple(T4, wr.wreath_perm(T4, u)) == u


def test_conjugate_structure_m3(T4):
    """(K wr S_3)^t cap L for t = (1,1,s) is (K cap K^s) x S_2 shaped."""
    K = point_stabilizer(T4, 4)
    s = next(g for g in range(T4.order) if g not in K.member_set)
    mem = wr.filter_L_members(T4, K, (0, 0, s))
    I = eng.intersect(K, K.conjugate(s))
    assert len(mem) == I.order * 2  # sigma fixes the last coordinate
    assert all(sig[2] == 2 for _, sig in mem)
    assert {x for x, sig in mem if sig == (0, 1, 2)} == set(int(m) for m in I.members)


# -- the alpha action ---------------------------------------------------------------

def direct_act(T, alpha, h):
    vals = [alpha.evaluate(wr.w2_product(T, h, (t, 0, 0))) for t in range(T.order)]
    return wr.AlphaFn(T, np.array(vals, dtype=np.int64))


@pytest.mark.parametrize("q", [4, 5])
def test_act_matches_direct(q):
    T = group_for(q)
    rng = np.random.default_rng(q)
    n = T.order
    for _ in range(25):
        alpha = wr.random_alpha(T, rng)
        h = (int(rng.integers(n)), int(rng.integers(n)), int(rng.integers(2)))
        assert wr.act_alpha(alpha, h) == direct_act(T, alpha, h)


def test_act_identity_and_trivial(T7):
    rng = np.random.default_rng(9)
    alpha = wr.random_alpha(T7, rng)
    assert wr.act_alpha(alpha, wr.w2_identity()) == alpha
    triv = wr.identity_alpha(T7)
    h = (3, 5, 1)
    assert wr.act_alpha(triv, h) == triv


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_action_axiom_hypothesis(data):
    T = group_for(4)
    n = T.order
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    alpha = wr.random_alpha(T, rng)
    h1 = (data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1)),
          data.draw(st.integers(0, 1)))
    h2 = (data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1)),
          data.draw(st.integers(0, 1)))
    lhs = wr.act_alpha(alpha, wr.w2_product(T, h1, h2))
    rhs = wr.act_alpha(wr.act_alpha(alpha, h1), h2)
    assert lhs == rhs


@pytest.mark.parametrize("q", [4, 5])
def test_twisted_equivariance(q):
    """f built from alpha satisfies f(z*ell) = f(z)^phi(ell) across H x L."""
    T = group_for(q)
    rng = np.random.default_rng(q + 100)
    n = T.order
    alpha = wr.random_alpha(T, rng)
    ells = [(x, x, k) for x in rng.integers(0, n, 6) for k in (0, 1)]
    ells = [(int(x), int(x), k) for (x, _, k) in ells]
    for a in range(n):
        for b, k in ((0, 0), (int(rng.integers(n)), 1)):
            z = (a, b, k)
            fz = alpha.evaluate(z)
            for ell in ells:
                assert alpha.evaluate(wr.w2_product(T, z, ell)) == T.conj(fz, ell[0])


# -- stabilizers --------------------------------------------------------------------

def naive_stab(T, alpha):
    """Every h = (x, y, k) of H with f^h = f: the two formulas of act_alpha
    evaluated for all x at once, over all y and k, through the brute-force
    multiplication table."""
    M = reference_table(T)
    inv = T.inv
    a = alpha.values
    members = []
    for y in range(T.order):
        yi = int(inv[y])
        straight = M[M[yi][a[M[M, yi]]], y]  # y^-1 alpha(x t y^-1) y
        yt = M[y]
        swap = M[M[inv[yt], a[M[M[:, inv], yi]]], yt]  # (yt)^-1 alpha(x t^-1 y^-1) (yt)
        for k, image in enumerate((straight, swap)):
            members += [(int(x), y, k) for x in np.flatnonzero((image == a).all(axis=1))]
    return members


def test_naive_stab_matches_act_alpha(T4):
    gamma = int(T4.elements_of_order(2)[0])
    alphas = [wr.random_alpha(T4, np.random.default_rng(3)),
              wr.build_centralizer_fn(T4, gamma, 2)[0]]
    for alpha in alphas:
        direct = [
            (x, y, k) for x in range(T4.order) for y in range(T4.order) for k in (0, 1)
            if wr.act_alpha(alpha, (x, y, k)) == alpha
        ]
        assert set(naive_stab(T4, alpha)) == set(direct)
    assert len(direct) == 2 * 4**2  # C_T(gamma) wr S_2, |C_T(gamma)| = 4


def _stabilizer_cases(T, q):
    """A random function, {1, g}-valued functions on random sets and on all
    of T, the centralizer function of each element order, and coset
    functions over P1 x P1 and over one K wr S_2."""
    rng = np.random.default_rng(q)
    cases = [wr.random_alpha(T, rng)]
    for density in (0.1, 0.5, 1.0):
        values = np.full(T.order, T.identity)
        values[rng.random(T.order) < density] = rng.integers(1, T.order)
        cases.append(wr.AlphaFn(T, values))
    for order in sorted(set(T.orders.tolist()) - {1}):
        cases.append(wr.build_centralizer_fn(T, int(T.elements_of_order(order)[0]), 2)[0])
    P1 = point_stabilizer(T, q)
    s = next(g for g in range(T.order) if g not in P1.member_set)
    cases.append(wr.build_coset_fn(wr.product_sub(P1, P1), (0, s, 0)))
    K = atlas.find_named_subgroup(T, "S4" if q == 7 else "DihedralPlus").subgroup
    wit = wr.find_witness_t(T, K, 2, maximal=False)
    cases.append(wr.build_coset_fn(wr.wreath_sub(K), (0, wit.shift[0], 0), eta=wit.eta))
    return cases


@pytest.mark.parametrize("q", [4, 5, 7])
def test_stabilizer_matches_naive(q):
    T = group_for(q)
    for alpha in _stabilizer_cases(T, q):
        res = wr.stabilizer_subdegree(alpha)
        naive = naive_stab(T, alpha)
        assert res.stabilizer_order == len(naive)
        assert set(res.members) == set(naive)
        assert res.members == sorted(res.members, key=lambda u: (u[1], u[2], u[0]))
        assert res.subdegree == 2 * T.order**2 // len(naive)


def test_stabilizer_trivial_alpha(T7):
    res = wr.stabilizer_subdegree(wr.identity_alpha(T7))
    assert res.subdegree == 1
    assert res.stabilizer_order == 2 * T7.order**2


def test_centralizer_fn_values_q7(T7):
    gamma2 = int(T7.elements_of_order(2)[0])
    _, res2, cert2 = wr.build_centralizer_fn(T7, gamma2, 2)
    assert res2.subdegree == 441 and cert2.kind == "exact-stabilizer"
    gamma7 = int(T7.elements_of_order(7)[0])
    _, res7, _ = wr.build_centralizer_fn(T7, gamma7, 2)
    assert res7.subdegree == 576
    C = eng.centralizer(T7, gamma7)
    assert set(res7.members) == set(wr.wreath_sub(C).member_triples())


def test_centralizer_fn_m3_certificate(T7):
    gamma = int(T7.elements_of_order(2)[0])
    _, _, cert = wr.build_centralizer_fn(T7, gamma, 3)
    assert cert.kind == "lemma-2.10-class"
    assert cert.value == 21**3


def test_centralizer_fn_trivial_element(T7):
    with pytest.raises(wr.TrivialElementError):
        wr.build_centralizer_fn(T7, T7.identity, 2)


def test_coset_fn_p1_product(T7):
    P1 = point_stabilizer(T7, 7)
    s = next(g for g in range(T7.order) if g not in P1.member_set)
    D = wr.product_sub(P1, P1)
    alpha = wr.build_coset_fn(D, (0, s, 0))
    assert not alpha.is_identity()
    res = wr.stabilizer_subdegree(alpha)
    assert res.subdegree == 2 * 8 * 8
    assert set(res.members) == set(D.member_triples())


def _explicit(D):
    return wr.WreathSub2(D.T, "explicit", explicit=frozenset(D.member_triples()))


def test_coset_fn_explicit_matches_structured(T4, T7):
    P1 = point_stabilizer(T4, 4)
    s = next(g for g in range(T4.order) if g not in P1.member_set)
    D = wr.product_sub(P1, P1)
    assert wr.build_coset_fn(D, (0, s, 0)) == wr.build_coset_fn(_explicit(D), (0, s, 0))
    # the wreath kind: S4 wr S_2 at q = 7 with its witness shift and eta
    K = atlas.find_named_subgroup(T7, "S4").subgroup
    wit = wr.find_witness_t(T7, K, 2, label="S4")
    D = wr.wreath_sub(K)
    t = (0, wit.shift[0], 0)
    a1 = wr.build_coset_fn(D, t, eta=wit.eta)
    assert a1 == wr.build_coset_fn(_explicit(D), t, eta=wit.eta)
    assert wr.stabilizer_subdegree(a1).subdegree == 49


@pytest.mark.parametrize("q", [4, 7])
def test_d_t_cap_L_explicit_matches_structured(q):
    """Structured masks agree with the explicit member test."""
    T = group_for(q)
    P1 = point_stabilizer(T, q)
    K = atlas.find_named_subgroup(T, "S4" if q == 7 else "DihedralPlus").subgroup
    rng = np.random.default_rng(q)
    shifts = [(0, 0)] + [tuple(int(s) for s in rng.integers(0, T.order, 2)) for _ in range(4)]
    for D in (wr.product_sub(P1, P1), wr.wreath_sub(K), wr.product_sub(P1, K)):
        for t1, t2 in shifts:
            assert wr.d_t_cap_L(D, (t1, t2, 0)) == wr.d_t_cap_L(_explicit(D), (t1, t2, 0))


def test_coset_fn_bad_eta(T7):
    P1 = point_stabilizer(T7, 7)
    s = next(g for g in range(T7.order) if g not in P1.member_set)
    D = wr.product_sub(P1, P1)
    with pytest.raises(wr.NotCentralError):
        wr.build_coset_fn(D, (0, s, 0), eta=T7.identity)
    # an element outside the centralizing set fails too
    bad = next(
        g for g in range(1, T7.order)
        if not all(T7.mul(g, y) == T7.mul(y, g) for (y, _) in wr.d_t_cap_L(D, (0, s, 0)))
    )
    with pytest.raises(wr.NotCentralError):
        wr.build_coset_fn(D, (0, s, 0), eta=bad)


def test_find_witness_s4_q7(T7):
    K = atlas.find_named_subgroup(T7, "S4").subgroup
    wit = wr.find_witness_t(T7, K, 2, label="S4")
    assert wit is not None
    assert wit.certificate.value == 49
    alpha = wr.build_coset_fn(wr.wreath_sub(K), (0, wit.shift[0], 0), eta=wit.eta)
    res = wr.stabilizer_subdegree(alpha)
    assert res.subdegree == 49
    assert set(res.members) == set(wr.wreath_sub(K).member_triples())


def test_find_witness_requires_maximal(T7):
    g = int(T7.elements_of_order(7)[0])
    C7 = eng.generate(T7, [g])
    with pytest.raises(eng.NotMaximalError):
        wr.find_witness_t(T7, C7, 2)


def test_find_witness_p1_m3_q7(T7):
    P1 = point_stabilizer(T7, 7)
    wit = wr.find_witness_t(T7, P1, 3, label="P1")
    assert wit is not None and wit.certificate.value == 8**3


def test_find_witness_a5_q11_m6_pair(T11):
    K = atlas.find_named_subgroup(T11, "A5").subgroup
    trip = atlas.search_triple_intersection(T11, K, IsoFingerprint.cyclic(2))
    wit = wr.find_witness_t(T11, K, 6, label="A5", pair=tuple(trip.elements))
    assert wit is not None
    assert wit.certificate.value == 11**6


def test_find_witness_a5_q11_m3_singles_fail(T11):
    """Single-shift scans fail at q=11 (all pairwise intersections are
    centerless), so the plain search returns nothing for m=3."""
    K = atlas.find_named_subgroup(T11, "A5").subgroup
    assert wr.find_witness_t(T11, K, 3, label="A5") is None


def test_check_xy_conditions(T7):
    P1 = point_stabilizer(T7, 7)
    s = next(g for g in range(T7.order) if g not in P1.member_set)
    alpha = wr.build_coset_fn(wr.product_sub(P1, P1), (0, s, 0))
    assert wr.check_XY_conditions(alpha, P1, P1)
    assert wr.check_XY_conditions(alpha, P1, P1, full_scan=True)
    Tfull = eng.Subgroup(T7, range(T7.order))
    assert wr.check_XY_conditions(wr.identity_alpha(T7), Tfull, Tfull)
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = wr.random_alpha(T7, rng)
        if not a.is_identity():
            assert not wr.check_XY_conditions(a, Tfull, Tfull)


def test_check_xy_generator_vs_full_scan(T7):
    """Generator checks and full scans agree on a batch of random functions."""
    P1 = point_stabilizer(T7, 7)
    rng = np.random.default_rng(23)
    cases = [wr.random_alpha(T7, rng) for _ in range(10)]
    s = next(g for g in range(T7.order) if g not in P1.member_set)
    cases.append(wr.build_coset_fn(wr.product_sub(P1, P1), (0, s, 0)))
    for alpha in cases:
        assert wr.check_XY_conditions(alpha, P1, P1) == wr.check_XY_conditions(
            alpha, P1, P1, full_scan=True
        )


def test_check_wreath_conditions(T7):
    gamma = int(T7.elements_of_order(2)[0])
    alpha_h, _, _ = wr.build_centralizer_fn(T7, gamma, 2)
    C = eng.centralizer(T7, gamma)
    assert wr.check_wreath_conditions(alpha_h, C)
    # the conditions hold and the exact stabilizer is C wr S_2
    members = wr.stabilizer_subdegree(alpha_h).members
    assert set(members) == set(wr.wreath_sub(C).member_triples())
    assert not wr.check_wreath_conditions(wr.identity_alpha(T7), C)
    P1 = point_stabilizer(T7, 7)
    s = next(g for g in range(T7.order) if g not in P1.member_set)
    alpha_g = wr.build_coset_fn(wr.product_sub(P1, P1), (0, s, 0))
    assert not wr.check_wreath_conditions(alpha_g, P1)


def test_propagate_full_invariance(T4):
    assert wr.propagate_full_invariance(wr.identity_alpha(T4))
    alpha = wr.AlphaFn(T4, np.full(T4.order, 3, dtype=np.int64))
    assert not wr.propagate_full_invariance(alpha)


@pytest.mark.parametrize("q", [7, 8, 11])
def test_obstructions_pass(q):
    T = group_for(q)
    rep = wr.obstruction_checks(T, point_stabilizer(T, q))
    assert rep.all_pass


def test_obstruction_fingerprint_q11(T11):
    rep = wr.obstruction_checks(T11, point_stabilizer(T11, 11))
    assert rep.dihedral_fingerprints == [str(IsoFingerprint.dihedral(10))]


def test_obstruction_wrong_congruence(T9, T13):
    with pytest.raises(wr.WrongCongruenceError):
        wr.obstruction_checks(T9, point_stabilizer(T9, 9))
    with pytest.raises(wr.WrongCongruenceError):
        wr.obstruction_checks(T13, point_stabilizer(T13, 13))


def test_subdegree_divisible_by_maximal_index(T7):
    """Every exact subdegree is divisible by the index of a maximal subgroup."""
    indices = []
    for label in atlas.LABELS:
        if atlas.label_exists(7, label) and atlas.label_maximal(7, label):
            entry = atlas.find_named_subgroup(T7, label)
            indices.append(T7.order // entry.subgroup.order)
    P1 = point_stabilizer(T7, 7)
    s = next(g for g in range(T7.order) if g not in P1.member_set)
    subdegrees = [
        wr.stabilizer_subdegree(wr.build_coset_fn(wr.product_sub(P1, P1), (0, s, 0))).subdegree,
        wr.build_centralizer_fn(T7, int(T7.elements_of_order(2)[0]), 2)[1].subdegree,
        wr.build_centralizer_fn(T7, int(T7.elements_of_order(7)[0]), 2)[1].subdegree,
    ]
    K = atlas.find_named_subgroup(T7, "S4").subgroup
    wit = wr.find_witness_t(T7, K, 2, label="S4")
    alpha = wr.build_coset_fn(wr.wreath_sub(K), (0, wit.shift[0], 0), eta=wit.eta)
    subdegrees.append(wr.stabilizer_subdegree(alpha).subdegree)
    for d in subdegrees:
        assert any(d % ix == 0 for ix in indices), (d, indices)


def test_certificate_roundtrip(T7):
    gamma = int(T7.elements_of_order(7)[0])
    _, _, cert = wr.build_centralizer_fn(T7, gamma, 3)
    rec = cert.to_record()
    assert rec["value"] == str(24**3)  # decimal string
    back = wr.SubdegreeCertificate.from_record(rec)
    assert back.value == cert.value
    assert wr.replay_certificate(back, T7) == cert.value


def test_certificate_replay_witness(T11):
    K = atlas.find_named_subgroup(T11, "A5").subgroup
    wit = wr.find_witness_t(T11, K, 2, label="A5")
    val = wr.replay_certificate(wit.certificate, T11)
    assert val == 121
    # corrupting the stored central element breaks the replay
    bad = wr.SubdegreeCertificate.from_record(wit.certificate.to_record())
    bad.witness["eta"] = 0
    with pytest.raises(AssertionError):
        wr.replay_certificate(bad, T11)


@pytest.mark.parametrize("q", [7, 8, 11])
def test_p1_product_stabilizer_exact(q):
    """For q even or q = 3 mod 4, every function built over P1 x P1 has
    stabilizer exactly P1 x P1 (checked across several shift choices)."""
    T = group_for(q)
    P1 = point_stabilizer(T, q)
    D = wr.product_sub(P1, P1)
    expected = set(D.member_triples())
    reps = [s for s in eng.coset_representatives(T, P1) if s not in P1.member_set]
    for s in reps[:4]:
        alpha = wr.build_coset_fn(D, (0, s, 0))
        assert not alpha.is_identity()
        assert wr.check_XY_conditions(alpha, P1, P1)
        res = wr.stabilizer_subdegree(alpha)
        assert res.subdegree == 2 * (q + 1) ** 2
        assert set(res.members) == expected


def test_centralizer_fn_q13_involution(T13):
    _, res, _ = wr.build_centralizer_fn(T13, int(T13.elements_of_order(2)[0]), 2)
    assert res.subdegree == 91**2


def test_stabilizer_fingerprint_method(T7):
    gamma = int(T7.elements_of_order(2)[0])
    _, res, _ = wr.build_centralizer_fn(T7, gamma, 2)
    fp = res.fingerprint(T7)
    assert fp.order == 2 * 8 * 8  # the centralizer wreath D8 wr S2
    assert not fp.abelian


def test_w2_associative_exhaustive_tiny(T4):
    """Exhaustive associativity over a full small wreath closure."""
    S4sub = atlas.find_named_subgroup(T4, "DihedralMinus").subgroup  # S3, order 6
    triples = list(wr.wreath_sub(S4sub).member_triples())
    assert len(triples) == 72
    subset = triples[::6] + triples[:6]
    for u in subset:
        for v in subset:
            for w in subset:
                assert wr.w2_product(T4, wr.w2_product(T4, u, v), w) == wr.w2_product(
                    T4, u, wr.w2_product(T4, v, w)
                )
    # closure sanity: products stay inside
    tset = set(triples)
    for u in triples:
        for v in triples[::7]:
            assert wr.w2_product(T4, u, v) in tset


def test_replay_p1_product_certificate(T7):
    from twdeg import checks

    cert = checks.p1_product_subdegree(7, False)
    assert cert.kind == "lemma-4.3-divisor"
    assert wr.replay_certificate(cert, T7) == 2 * 64
    # the replay derives the divisor from |T : P1|, not from the stored value
    cert.value = 2 * 64 + 1
    assert wr.replay_certificate(cert, T7) == 2 * 64


@pytest.mark.parametrize("m,value", [(4, 11**4), (5, 11**5)])
def test_find_witness_a5_q11_m45(T11, m, value):
    """The repeated-shift shape also succeeds for the intermediate arities."""
    K = atlas.find_named_subgroup(T11, "A5").subgroup
    trip = atlas.search_triple_intersection(T11, K, eng.IsoFingerprint.cyclic(2))
    wit = wr.find_witness_t(T11, K, m, label="A5", pair=tuple(trip.elements))
    assert wit is not None and wit.certificate.value == value
