import functools
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from conftest import group_for, reference_table
from reference import flatten, wm_inv, wm_product
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
        assert wr.w2_product(T4, u, reference.w2_inv(T4, u)) == (0, 0, 0)


def test_wm_matches_w2(T4):
    rng = np.random.default_rng(2)
    n = T4.order
    swap = (1, 0)
    ident = (0, 1)
    for _ in range(100):
        a, b, c, d = (int(x) for x in rng.integers(0, n, 4))
        k, l = int(rng.integers(2)), int(rng.integers(2))
        u2 = wr.w2_product(T4, (a, b, k), (c, d, l))
        um = wm_product(T4, ((a, b), swap if k else ident), ((c, d), swap if l else ident))
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
        lhs = wm_product(T4, wm_product(T4, u, v), w)
        assert lhs == wm_product(T4, u, wm_product(T4, v, w))
        assert wm_product(T4, u, wm_inv(T4, u))[0] == (0, 0, 0)


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
        assert wr.wreath_triples(T4, wr.wreath_perms(T4, [u])).tolist() == [list(u)]


@pytest.mark.parametrize("swap", [True, False])
def test_bridge_is_a_bijective_homomorphism_q4(T4, swap):
    """wreath_perms maps the triples (a, b, k) of T wr S_2 (k = 0 alone for
    T x T) one to one onto the elements of wreath_full_table, wreath_triples
    maps them back, and wreath_perms carries w2_product to the table's
    product on random pairs."""
    H = wr.wreath_full_table(T4, swap=swap)
    n = T4.order
    grid = np.meshgrid(np.arange(n), np.arange(n), np.arange(2 if swap else 1), indexing="ij")
    triples = np.stack([z.ravel() for z in grid], axis=1)
    assert len(triples) == H.order == (7200 if swap else 3600)
    idx = H.index(wr.wreath_perms(T4, triples))
    assert len(set(idx.tolist())) == H.order
    assert np.array_equal(wr.wreath_triples(T4, H.elements[idx]), triples)
    rng = np.random.default_rng(500)
    u, v = (triples[rng.integers(0, H.order, 500)] for _ in range(2))
    uv = np.stack(wr.w2_product(T4, tuple(u.T), tuple(v.T)), axis=1)
    embed = functools.partial(wr.wreath_perms, T4)
    assert np.array_equal(H.index(embed(uv)), H.product(H.index(embed(u)), H.index(embed(v))))


def test_conjugate_structure_m3(T4):
    """(K wr S_3)^t cap L for t = (1,1,s) is (K cap K^s) x S_2 shaped."""
    K = point_stabilizer(T4, 4)
    s = next(g for g in range(T4.order) if g not in K.member_set)
    mem = flatten(wr.filter_L_members(T4, K, (0, 0, s)))
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
    assert wr.act_alpha(alpha, (0, 0, 0)) == alpha
    triv = wr.identity_alpha(T7)
    h = (3, 5, 1)
    assert wr.act_alpha(triv, h) == triv


def _random_elements(rng, n, size, ks=None):
    """`size` wreath elements as a triple of index arrays; swap bits `ks`
    when given, random otherwise."""
    ks = rng.integers(0, 2, size) if ks is None else np.asarray(ks)
    return rng.integers(0, n, size), rng.integers(0, n, size), ks


@pytest.mark.parametrize("q", [4, 5, 7])
def test_act_alpha_batch_matches_scalar(q):
    """Row by row, the batch action equals act_alpha: mixed swap bits, one
    row, and batches with one swap bit only, where the other selection is
    empty."""
    T = group_for(q)
    n = T.order
    rng = np.random.default_rng(q + 40)
    for size, ks in ((37, None), (1, None), (1, [1]), (9, [0] * 9), (9, [1] * 9)):
        values = rng.integers(0, n, (size, n))
        h = _random_elements(rng, n, size, ks)
        acted = wr.act_alpha_batch(T, values, h)
        assert acted.shape == (size, n)
        for i in range(size):
            hi = tuple(int(z[i]) for z in h)
            assert np.array_equal(acted[i], wr.act_alpha(wr.AlphaFn(T, values[i]), hi).values)


@pytest.mark.parametrize("q", [4, 5, 7])
def test_w2_product_and_evaluate_arrays_match_scalar(q):
    T = group_for(q)
    n = T.order
    rng = np.random.default_rng(q + 50)
    u, v = _random_elements(rng, n, 64), _random_elements(rng, n, 64)
    uv = wr.w2_product(T, u, v)
    alpha = wr.random_alpha(T, rng)
    fu = alpha.evaluate(u)
    for i in range(64):
        ui, vi = tuple(int(z[i]) for z in u), tuple(int(z[i]) for z in v)
        assert tuple(int(z[i]) for z in uv) == reference.w2_mul(T, ui, vi)
        assert int(fu[i]) == reference.evaluate(alpha, ui)
    # a scalar element against index arrays, broadcast to a grid
    h = (3, 5, 1)
    grid = wr.w2_product(T, h, (u[0][:, None], u[1][None, :], 0))
    assert grid[0].shape == (64, 64)
    assert int(grid[1][2, 7]) == reference.w2_mul(T, h, (int(u[0][2]), int(u[1][7]), 0))[1]


@pytest.mark.parametrize("q", [4, 5, 7])
def test_check_xy_batch_matches_rows(q):
    """The batch mask equals the per-row answers, over T x T and over
    P1 x P1, with rows that pass (the identity, a P1 x P1 coset function)
    and rows that fail (random and constant functions)."""
    T = group_for(q)
    n = T.order
    rng = np.random.default_rng(q + 60)
    P1 = point_stabilizer(T, q)
    s = next(g for g in range(n) if g not in P1.member_set)
    coset_fn = wr.build_coset_fn(wr.product_sub(P1), (0, s, 0))
    rows = np.vstack([
        wr.identity_alpha(T).values, coset_fn.values, rng.integers(0, n, (5, n)),
        np.repeat(np.arange(1, n)[:, None], n, axis=1),
    ])
    Tfull = eng.Subgroup(T, range(n))
    for X, Y in ((Tfull, Tfull), (P1, P1)):
        for full_scan in (False, True):
            mask = wr.check_XY_conditions(rows, X, Y, full_scan)
            assert mask.shape == (len(rows),)
            assert mask.tolist() == [
                wr.check_XY_conditions(wr.AlphaFn(T, r), X, Y, full_scan) for r in rows
            ]
    assert wr.check_XY_conditions(rows, P1, P1)[:2].all()


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
                assert alpha.evaluate(wr.w2_product(T, z, ell)) == reference.conj(T, int(fz), ell[0])


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
              wr.build_centralizer_fn(T4, gamma)[0]]
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
        cases.append(wr.build_centralizer_fn(T, int(T.elements_of_order(order)[0]))[0])
    P1 = point_stabilizer(T, q)
    s = next(g for g in range(T.order) if g not in P1.member_set)
    cases.append(wr.build_coset_fn(wr.product_sub(P1), (0, s, 0)))
    K = atlas.find_named_subgroup(T, "S4" if q == 7 else "DihedralPlus").subgroup
    wit = wr.find_witness_t(T, K, 2, maximal=False).witness
    cases.append(wr.build_coset_fn(wr.wreath_sub(K), (0, wit["shift"][0], 0), eta=wit["eta"]))
    return cases


@pytest.mark.parametrize("q", [4, 5, 7])
def test_stabilizer_matches_naive(q):
    T = group_for(q)
    for alpha in _stabilizer_cases(T, q):
        res = wr.stabilizer_subdegree(alpha)
        naive = naive_stab(T, alpha)
        assert res.stabilizer_order == len(naive)
        members = reference.stabilizer_members(res)
        assert set(members) == set(naive)
        assert members == sorted(members, key=lambda u: (u[1], u[2], u[0]))
        assert res.subdegree == 2 * T.order**2 // len(naive)


def _off_anchor_alpha(T, seed):
    """A {1, g}-valued function on a sparse random set that avoids the 64
    anchor points of stabilizer_subdegree (needs |T| > 64): every anchor
    then reads 1, so non-members pass the anchor filter and are verified."""
    rng = np.random.default_rng(seed)
    n = T.order
    off = np.ones(n, dtype=bool)
    off[np.linspace(0, n - 1, 64).astype(np.int64)] = False
    values = np.full(n, T.identity)
    values[off & (rng.random(n) < 0.05)] = rng.integers(1, n)
    return wr.AlphaFn(T, values)


def test_stabilizer_counts_only_verified_elements(act_log):
    """Lambda is the naive one, every found (x_0, y, k) fixes alpha under a
    direct act_alpha, and a false survivor is verified and rejected: at
    q = 7 by the off-anchor function (at q = 4 and 5 every point is an
    anchor)."""
    cases = [(q, alpha) for q in (4, 5, 7) for alpha in _stabilizer_cases(group_for(q), q)]
    cases.append((7, _off_anchor_alpha(group_for(7), 7)))
    rejected = 0
    for q, alpha in cases:
        T = group_for(q)
        act_log.clear()
        res = wr.stabilizer_subdegree(alpha)
        rejected += act_log.count(False)
        a = alpha.values
        assert np.array_equal(res.lam, np.flatnonzero((a[reference_table(T)] == a).all(axis=1)))
        assert all(wr.act_alpha(alpha, h) == alpha for h in res.found)
        assert [h[1:] for h in res.found] == sorted({h[1:] for h in res.found})
    assert rejected > 0
    res = wr.stabilizer_subdegree(cases[-1][1])
    assert res.stabilizer_order == len(naive_stab(group_for(7), cases[-1][1]))


def test_stabilizer_trivial_alpha():
    """The identity function goes through the general scan: Lambda is all
    of T, every (y, k) is found, and every found element fixes it."""
    for q in (4, 5, 7, 8, 9, 11, 13):
        T = group_for(q)
        alpha = wr.identity_alpha(T)
        res = wr.stabilizer_subdegree(alpha)
        assert res.subdegree == 1
        assert res.stabilizer_order == 2 * T.order**2
        assert len(res.lam) == T.order
        assert len(res.found) == 2 * T.order
        assert all(wr.act_alpha(alpha, h) == alpha for h in res.found)


@pytest.mark.parametrize("q", [4, 5, 7])
def test_grow_coset_orbit_matches_one_generator_at_a_time(q):
    """From the trivial coset under two to four random triples, where one
    level often reaches a point by several generators: the orbit and the x_0
    of every point are those of the per-generator loop."""
    T = group_for(q)
    rng = np.random.default_rng(q)
    for _ in range(10):
        gens = [(int(rng.integers(T.order)), int(rng.integers(T.order)), int(rng.integers(2)))
                for _ in range(int(rng.integers(2, 5)))]
        grown = []
        for grow in (wr._grow_coset_orbit, reference.grow_coset_orbit):
            x0 = np.full(2 * T.order, -1, dtype=np.int64)
            x0[2 * T.identity] = T.identity
            grow(T, x0, gens, np.array([2 * T.identity]), gens)
            grown.append(x0)
        assert np.array_equal(*grown)


@pytest.mark.parametrize("q", [4, 5, 7])
def test_stabilizer_matches_orbit_grown_one_generator_at_a_time(q, monkeypatch):
    """20 random functions and the P1 x P1 coset function: lam and found are
    those of a scan whose orbit grows one generator at a time."""
    T = group_for(q)
    rng = np.random.default_rng(20)
    alphas = [wr.random_alpha(T, rng) for _ in range(20)]
    P1 = point_stabilizer(T, q)
    s = next(g for g in range(T.order) if g not in P1.member_set)
    alphas.append(wr.build_coset_fn(wr.product_sub(P1), (0, s, 0)))
    batched = [wr.stabilizer_subdegree(alpha) for alpha in alphas]
    monkeypatch.setattr(wr, "_grow_coset_orbit", reference.grow_coset_orbit)
    for alpha, res in zip(alphas, batched):
        ref = wr.stabilizer_subdegree(alpha)
        assert np.array_equal(res.lam, ref.lam)
        assert res.found == ref.found
    assert len(batched[-1].found) > 1


def test_centralizer_fn_values_q7(T7):
    gamma2 = int(T7.elements_of_order(2)[0])
    _, res2, cert2 = wr.build_centralizer_fn(T7, gamma2)
    assert res2.subdegree == 441 and cert2.kind == "exact-stabilizer"
    gamma7 = int(T7.elements_of_order(7)[0])
    _, res7, _ = wr.build_centralizer_fn(T7, gamma7)
    assert res7.subdegree == 576
    C = eng.centralizer(T7, gamma7)
    members = reference.stabilizer_members(res7)
    assert set(members) == set(reference.member_triples(wr.wreath_sub(C)))


def test_centralizer_fn_m3_certificate(T7):
    gamma = int(T7.elements_of_order(2)[0])
    cert = wr.class_certificate(eng.centralizer(T7, gamma), gamma, 3)
    assert cert.kind == "lemma-2.10-class"
    assert cert.value == 21**3


def test_centralizer_fn_trivial_element(T7):
    with pytest.raises(wr.TrivialElementError):
        wr.build_centralizer_fn(T7, T7.identity)


def test_coset_fn_p1_product(T7):
    P1 = point_stabilizer(T7, 7)
    s = next(g for g in range(T7.order) if g not in P1.member_set)
    D = wr.product_sub(P1)
    alpha = wr.build_coset_fn(D, (0, s, 0))
    assert not alpha.is_identity()
    res = wr.stabilizer_subdegree(alpha)
    assert res.subdegree == 2 * 8 * 8
    assert set(reference.stabilizer_members(res)) == set(reference.member_triples(D))


def _explicit(D):
    return frozenset(reference.member_triples(D))


def test_coset_fn_explicit_matches_structured(T4, T7):
    P1 = point_stabilizer(T4, 4)
    s = next(g for g in range(T4.order) if g not in P1.member_set)
    D = wr.product_sub(P1)
    t = (0, s, 0)
    assert wr.build_coset_fn(D, t) == reference.explicit_coset_fn(T4, _explicit(D), t)
    # the wreath kind: S4 wr S_2 at q = 7 with its witness shift and eta
    K = atlas.find_named_subgroup(T7, "S4").subgroup
    wit = wr.find_witness_t(T7, K, 2, label="S4").witness
    D = wr.wreath_sub(K)
    t = (0, wit["shift"][0], 0)
    a1 = wr.build_coset_fn(D, t, eta=wit["eta"])
    assert a1 == reference.explicit_coset_fn(T7, _explicit(D), t, eta=wit["eta"])
    assert wr.stabilizer_subdegree(a1).subdegree == 49


@pytest.mark.parametrize("q", [4, 7])
def test_d_t_cap_L_explicit_matches_structured(q):
    """Structured masks agree with the explicit member test."""
    T = group_for(q)
    P1 = point_stabilizer(T, q)
    K = atlas.find_named_subgroup(T, "S4" if q == 7 else "DihedralPlus").subgroup
    rng = np.random.default_rng(q)
    shifts = [(0, 0)] + [tuple(int(s) for s in rng.integers(0, T.order, 2)) for _ in range(4)]
    for D in (wr.product_sub(P1), wr.wreath_sub(K)):
        for t1, t2 in shifts:
            t = (t1, t2, 0)
            structured = flatten(wr.d_t_cap_L(D, t))
            assert structured == flatten(reference.explicit_d_t_cap_L(T, _explicit(D), t))


def test_coset_fn_bad_eta(T7):
    P1 = point_stabilizer(T7, 7)
    s = next(g for g in range(T7.order) if g not in P1.member_set)
    D = wr.product_sub(P1)
    with pytest.raises(wr.NotCentralError):
        wr.build_coset_fn(D, (0, s, 0), eta=T7.identity)
    # an element outside the centralizing set fails too
    bad = next(
        g for g in range(1, T7.order)
        if not all(T7.mul(g, y) == T7.mul(y, g) for y, _ in flatten(wr.d_t_cap_L(D, (0, s, 0))))
    )
    with pytest.raises(wr.NotCentralError):
        wr.build_coset_fn(D, (0, s, 0), eta=bad)


@pytest.mark.parametrize("chunk", [1, 50, 1 << 18])
def test_coset_fn_chunked_build(monkeypatch, T4, T7, chunk):
    """build_coset_fn in row chunks of K of at most `chunk` incidences (one
    row each at chunk = 1, every row in one chunk at 2^18, four times the
    default CHUNK_ENTRIES) gives the one-chunk function, and a non-central
    eta still ends in conflicting values, whether the two incidences of a
    point fall in one chunk or in two."""
    P1 = point_stabilizer(T4, 4)
    s = next(g for g in range(T4.order) if g not in P1.member_set)
    K = atlas.find_named_subgroup(T7, "S4").subgroup
    wit = wr.find_witness_t(T7, K, 2, label="S4").witness
    cases = [(wr.product_sub(P1), (0, s, 0), None),
             (wr.wreath_sub(K), (0, wit["shift"][0], 0), wit["eta"])]
    whole = [wr.build_coset_fn(D, t, eta=eta) for D, t, eta in cases]
    monkeypatch.setattr(wr, "CHUNK_ENTRIES", chunk)
    for (D, t, eta), alpha in zip(cases, whole):
        assert wr.build_coset_fn(D, t, eta=eta) == alpha
    P1 = point_stabilizer(T7, 7)
    s = next(g for g in range(T7.order) if g not in P1.member_set)
    D = wr.product_sub(P1)
    parts = [y for y, _ in flatten(wr.d_t_cap_L(D, (0, s, 0)))]
    bad = next(g for g in range(1, T7.order) if not all(T7.mul(g, y) == T7.mul(y, g) for y in parts))
    monkeypatch.setattr(wr, "central_members", lambda T, groups: iter([((0, 1), np.array([bad]))]))
    with pytest.raises(wr.InconsistentFunctionError):
        wr.build_coset_fn(D, (0, s, 0))


def test_find_witness_s4_q7(T7):
    K = atlas.find_named_subgroup(T7, "S4").subgroup
    cert = wr.find_witness_t(T7, K, 2, label="S4")
    assert cert is not None
    assert cert.value == 49
    wit = cert.witness
    alpha = wr.build_coset_fn(wr.wreath_sub(K), (0, wit["shift"][0], 0), eta=wit["eta"])
    res = wr.stabilizer_subdegree(alpha)
    assert res.subdegree == 49
    assert set(reference.stabilizer_members(res)) == set(reference.member_triples(wr.wreath_sub(K)))


def test_find_witness_requires_maximal(T7):
    g = int(T7.elements_of_order(7)[0])
    C7 = eng.generate(T7, [g])
    with pytest.raises(eng.NotMaximalError):
        wr.find_witness_t(T7, C7, 2)


def test_find_witness_p1_m3_q7(T7):
    P1 = point_stabilizer(T7, 7)
    cert = wr.find_witness_t(T7, P1, 3, label="P1")
    assert cert is not None and cert.value == 8**3


def test_find_witness_a5_q11_m6_pair(T11):
    K = atlas.find_named_subgroup(T11, "A5").subgroup
    trip = atlas.search_triple_intersection(T11, K, IsoFingerprint.cyclic(2))
    cert = wr.find_witness_t(T11, K, 6, label="A5")
    assert cert is not None
    assert cert.value == 11**6
    assert cert.witness["shift"] == list(trip.elements)


def test_find_witness_a5_q11_m3_singles_fail(T11):
    """Single-shift candidates fail at q=11 (all pairwise intersections are
    centerless), so the m=3 witness has the shape t = (1,a,b): a single-shift
    witness would have been returned first."""
    K = atlas.find_named_subgroup(T11, "A5").subgroup
    cert = wr.find_witness_t(T11, K, 3, label="A5")
    assert cert is not None and cert.value == 11**3
    a, b = cert.witness["shift"]
    assert cert.witness["t_tuple"] == [T11.identity, a, b]


def test_check_xy_conditions(T7):
    P1 = point_stabilizer(T7, 7)
    s = next(g for g in range(T7.order) if g not in P1.member_set)
    alpha = wr.build_coset_fn(wr.product_sub(P1), (0, s, 0))
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
    cases.append(wr.build_coset_fn(wr.product_sub(P1), (0, s, 0)))
    for alpha in cases:
        assert wr.check_XY_conditions(alpha, P1, P1) == wr.check_XY_conditions(
            alpha, P1, P1, full_scan=True
        )


def test_check_wreath_conditions(T7):
    gamma = int(T7.elements_of_order(2)[0])
    alpha_h, _, _ = wr.build_centralizer_fn(T7, gamma)
    C = eng.centralizer(T7, gamma)
    assert wr.check_wreath_conditions(alpha_h, C)
    # the conditions hold and the exact stabilizer is C wr S_2
    members = reference.stabilizer_members(wr.stabilizer_subdegree(alpha_h))
    assert set(members) == set(reference.member_triples(wr.wreath_sub(C)))
    assert not wr.check_wreath_conditions(wr.identity_alpha(T7), C)
    P1 = point_stabilizer(T7, 7)
    s = next(g for g in range(T7.order) if g not in P1.member_set)
    alpha_g = wr.build_coset_fn(wr.product_sub(P1), (0, s, 0))
    assert not wr.check_wreath_conditions(alpha_g, P1)


@pytest.mark.parametrize("q", [4, 7, 8, 11, 16, 19, 23])
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


def obstruction_reference(T, K) -> wr.ObstructionReport:
    """The obstruction ingredients with (c) tested on every involution
    outside K, as before the reduction to one involution per K-orbit."""
    fixed = None
    for g in K.generating_set():
        C = eng.centralizer(T, g)
        fixed = C if fixed is None else eng.intersect(fixed, C)
    c_ok, fps = True, []
    for t in T.elements_of_order(2).tolist():
        if t in K.member_set:
            continue
        X = eng.generate(T, list(eng.intersect(K, K.conjugate(t)).members) + [t])
        fps.append(str(eng.fingerprint(X)))
        c_ok = c_ok and eng.center(X).order == 1
    return wr.ObstructionReport(
        T.degree - 1, fixed.order == 1, atlas.coset_involution_check(T, K), c_ok,
        sorted(set(fps)),
    )


@pytest.mark.parametrize(
    "q,label",
    [(q, "P1") for q in (4, 7, 8, 11, 16, 19, 23)] + [(7, "S4"), (7, "A4"), (11, "A4")],
)
def test_obstruction_orbits_match_every_involution(q, label):
    """One involution per orbit gives the report of the every-involution
    loop, field for field; S4 and A4 fail (c) with 1, 2 and 4 fingerprints."""
    T = group_for(q)
    if label == "P1":
        K = point_stabilizer(T, q)
    else:
        K = atlas.find_named_subgroup(T, label).subgroup
    rep = wr.obstruction_checks(T, K)
    assert rep == obstruction_reference(T, K)
    if label != "P1":
        assert not rep.dihedral_centers_trivial
        assert len(rep.dihedral_fingerprints) == {"S4": 1, "A4": 2 if q == 7 else 4}[label]


def test_obstruction_builds_one_closure_per_orbit(monkeypatch):
    """At q = 23 the 253 involutions outside P1 form one P1-orbit, and (c)
    generates exactly one group <P1 cap P1^t, t>, for the orbit's smallest t."""
    T = group_for(23)
    P1 = point_stabilizer(T, 23)
    invs = T.elements_of_order(2)
    outside = invs[~eng.member_mask(P1)[invs]]
    orbits = eng.conjugation_orbits(T, outside, P1)
    assert len(outside) == 253 and len(orbits) == 1
    built = []
    generate = wr.engine.generate

    def recording_generate(parent, gens):
        gens = list(gens)
        built.append(gens[-1])
        return generate(parent, gens)

    monkeypatch.setattr(wr.engine, "generate", recording_generate)
    assert wr.obstruction_checks(T, P1).all_pass
    assert built == [int(orbit[0]) for orbit in orbits]


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
        wr.stabilizer_subdegree(wr.build_coset_fn(wr.product_sub(P1), (0, s, 0))).subdegree,
        wr.build_centralizer_fn(T7, int(T7.elements_of_order(2)[0]))[1].subdegree,
        wr.build_centralizer_fn(T7, int(T7.elements_of_order(7)[0]))[1].subdegree,
    ]
    K = atlas.find_named_subgroup(T7, "S4").subgroup
    wit = wr.find_witness_t(T7, K, 2, label="S4").witness
    alpha = wr.build_coset_fn(wr.wreath_sub(K), (0, wit["shift"][0], 0), eta=wit["eta"])
    subdegrees.append(wr.stabilizer_subdegree(alpha).subdegree)
    for d in subdegrees:
        assert any(d % ix == 0 for ix in indices), (d, indices)


def test_certificate_roundtrip(T7):
    gamma = int(T7.elements_of_order(7)[0])
    cert = wr.class_certificate(eng.centralizer(T7, gamma), gamma, 3)
    rec = cert.to_record()
    assert rec["value"] == str(24**3)  # decimal string
    back = wr.SubdegreeCertificate.from_record(rec)
    assert back.value == cert.value
    assert wr.replay_certificate(back, T7) == cert.value


def test_certificate_replay_witness(T11):
    K = atlas.find_named_subgroup(T11, "A5").subgroup
    cert = wr.find_witness_t(T11, K, 2, label="A5")
    val = wr.replay_certificate(cert, T11)
    assert val == 121
    # corrupting the stored central element breaks the replay
    bad = wr.SubdegreeCertificate.from_record(cert.to_record())
    bad.witness["eta"] = 0
    with pytest.raises(AssertionError):
        wr.replay_certificate(bad, T11)


@pytest.mark.parametrize("q", [7, 8, 11])
def test_p1_product_stabilizer_exact(q):
    """For q even or q = 3 mod 4, every function built over P1 x P1 has
    stabilizer exactly P1 x P1 (checked across several shift choices)."""
    T = group_for(q)
    P1 = point_stabilizer(T, q)
    D = wr.product_sub(P1)
    expected = set(reference.member_triples(D))
    reps = [s for s in eng.coset_representatives(T, P1) if s not in P1.member_set]
    for s in reps[:4]:
        alpha = wr.build_coset_fn(D, (0, s, 0))
        assert not alpha.is_identity()
        assert wr.check_XY_conditions(alpha, P1, P1)
        res = wr.stabilizer_subdegree(alpha)
        assert res.subdegree == 2 * (q + 1) ** 2
        assert set(reference.stabilizer_members(res)) == expected


def _equals_by_order(D, alpha, res):
    return wr.inside_stabilizer(D, alpha) and res.stabilizer_order == D.order


@pytest.mark.parametrize("q", [4, 5, 7])
def test_stabilizer_equality_by_order_matches_member_sets(q):
    """The test "D's generators fix alpha and |D| = |H_f|" decides H_f = D
    as the member sets do: for each centralizer function, C_T(gamma) wr S_2
    (yes) and its base C x C (no: |D| = |H_f| / 2); for the P1 x P1 function,
    P1 x P1 (no at q = 5, |H_f| = 200 and |D| = 100, else yes) and P1 wr S_2
    (yes at q = 5, else no: not inside H_f); for a witness function over K,
    K wr S_2 (yes)."""
    T = group_for(q)
    cases = []
    for order in sorted(set(T.orders.tolist()) - {1}):
        gamma = int(T.elements_of_order(order)[0])
        C = eng.centralizer(T, gamma)
        alpha = wr.build_centralizer_fn(T, gamma)[0]
        cases += [(wr.wreath_sub(C), alpha, True), (wr.product_sub(C), alpha, False)]
    P1 = point_stabilizer(T, q)
    s = next(g for g in range(T.order) if g not in P1.member_set)
    P1xP1 = wr.product_sub(P1)
    alpha = wr.build_coset_fn(P1xP1, (0, s, 0))
    cases += [(P1xP1, alpha, q != 5), (wr.wreath_sub(P1), alpha, q == 5)]
    if q == 5:
        assert (wr.stabilizer_subdegree(alpha).stabilizer_order, P1xP1.order) == (200, 100)
    K = atlas.find_named_subgroup(T, "S4" if q == 7 else "DihedralPlus").subgroup
    wit = wr.find_witness_t(T, K, 2, maximal=False).witness
    D = wr.wreath_sub(K)
    cases.append((D, wr.build_coset_fn(D, (0, wit["shift"][0], 0), eta=wit["eta"]), True))
    for D, alpha, equal in cases:
        res = wr.stabilizer_subdegree(alpha)
        assert (set(reference.stabilizer_members(res)) == set(reference.member_triples(D))) == equal
        assert _equals_by_order(D, alpha, res) == equal


def test_stabilizer_equality_by_order_p1_product_q9(T9):
    """At q = 9 (1 mod 4) the P1 x P1 function has |H_f| = 2592 against
    |P1 x P1| = 1296: both tests say no."""
    P1 = point_stabilizer(T9, 9)
    s = next(g for g in range(T9.order) if g not in P1.member_set)
    D = wr.product_sub(P1)
    alpha = wr.build_coset_fn(D, (0, s, 0))
    res = wr.stabilizer_subdegree(alpha)
    assert (res.stabilizer_order, D.order) == (2592, 1296)
    assert wr.inside_stabilizer(D, alpha) and not _equals_by_order(D, alpha, res)
    assert set(reference.member_triples(D)) < set(reference.stabilizer_members(res))


@pytest.mark.parametrize("q,label,pair", [
    (8, "DihedralPlus", [1, 3]), (4, "DihedralMinus", None), (5, "P1", None),
    (13, "A4", [34, 208]), (11, "A5", [1, 6]),
])
def test_triple_candidate_skips_collapsing_pairs(q, label, pair):
    """The C2 triple-intersection candidate of the witness search skips a
    pair (r, s) with r, s or s r^-1 in K, whose triple intersection collapses
    to a pairwise one, instead of raising: with no single-shift candidates,
    find_witness_t returns the first pair that meets the side conditions, or
    None.  The q = 11 A5 pair of lemma 4.2-triple is unchanged."""
    T = group_for(q)
    K = atlas.find_named_subgroup(T, label).subgroup
    cert = wr.find_witness_t(T, K, 4, shifts=[], maximal=False)
    assert (cert and cert.witness["shift"]) == pair
    if pair is not None:
        r, s = pair
        assert not {r, s, T.mul(s, T.inverse(r))} & K.member_set
        assert cert.witness["t_tuple"] == [T.identity, r, r, s]


def test_centralizer_fn_q13_involution(T13):
    _, res, _ = wr.build_centralizer_fn(T13, int(T13.elements_of_order(2)[0]))
    assert res.subdegree == 91**2


def test_stabilizer_fingerprint_method(T7):
    gamma = int(T7.elements_of_order(2)[0])
    _, res, _ = wr.build_centralizer_fn(T7, gamma)
    fp = reference.wreath_members_fingerprint(T7, reference.stabilizer_members(res))
    assert fp.order == 2 * 8 * 8  # the centralizer wreath D8 wr S2
    assert not fp.abelian


def test_w2_associative_exhaustive_tiny(T4):
    """Exhaustive associativity over a full small wreath closure."""
    S4sub = atlas.find_named_subgroup(T4, "DihedralMinus").subgroup  # S3, order 6
    triples = list(reference.member_triples(wr.wreath_sub(S4sub)))
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
            assert tuple(int(z) for z in wr.w2_product(T4, u, v)) in tset


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
    cert = wr.find_witness_t(T11, K, m, label="A5")
    assert cert is not None and cert.value == value
    assert cert.witness["shift"] == list(trip.elements)


@pytest.mark.parametrize("q", [4, 7, 11])
def test_m2_witness_equivalence(q):
    """At m = 2 the general search equals the d_t_cap_L scan: for every
    maximal atlas label and coset representative s, filter_L_members at
    t = (1, s) gives the members of d_t_cap_L, and find_witness_t picks the
    (shift, eta) of a member-by-member scan over d_t_cap_L, or finds nothing
    when that scan does."""
    T = group_for(q)
    labels = [lb for lb in atlas.LABELS
              if atlas.label_exists(q, lb) and atlas.label_maximal(q, lb)]
    assert labels
    for label in labels:
        K = atlas.find_named_subgroup(T, label).subgroup
        D = wr.wreath_sub(K)
        reference_pick = None
        for s in eng.coset_representatives(T, K):
            mem = flatten(wr.d_t_cap_L(D, (0, s, 0)))
            general = flatten(wr.filter_L_members(T, K, (T.identity, s)))
            assert sorted(general) == sorted(mem), (label, s)
            found = next(reference.central_members(T, mem), None)
            if reference_pick is None and found is not None:
                reference_pick = ([s], found[0])
        cert = wr.find_witness_t(T, K, 2, label=label)
        got = None if cert is None else (cert.witness["shift"], cert.witness["eta"])
        assert got == reference_pick, label


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13])
def test_grouped_search_matches_member_list(q):
    """Flattened, filter_L_members and central_members give the member list
    and the full sequence of central members of the one-member-at-a-time
    reference, for every maximal atlas label and m = 2..6: on every
    candidate the search visits, up to and including the first with a
    central member, and on every single-shift candidate.  central_members
    is an iterator whose first group holds the reference's first central
    member, and find_witness_t keeps the reference's first pick."""
    T = group_for(q)
    labels = [lb for lb in atlas.LABELS
              if atlas.label_exists(q, lb) and atlas.label_maximal(q, lb)]
    for label in labels:
        K = atlas.find_named_subgroup(T, label).subgroup
        for m in range(2, 7):
            first = None
            candidates = wr.witness_candidates(T, K, m)
            while True:
                try:
                    shift, t = next(candidates)
                except StopIteration:
                    break
                if first is not None and len(shift) > 1:
                    break
                flat = reference.filter_L_members(T, K, t)
                groups = wr.filter_L_members(T, K, t)
                assert [sig for sig, _ in groups] == sorted({sig for _, sig in flat})
                assert flatten(groups) == flat, (label, m, t)
                central = reference.all_central(T, flat)
                assert flatten(wr.central_members(T, groups)) == central, (label, m, t)
                lazy = wr.central_members(T, groups)
                assert iter(lazy) is lazy
                head = [(int(xs[0]), sig) for sig, xs in islice(lazy, 1)]
                assert head == central[:1], (label, m, t)
                if first is None and central:
                    first = (list(shift), central[0][0])
            cert = wr.find_witness_t(T, K, m, label=label)
            got = None if cert is None else (cert.witness["shift"], cert.witness["eta"])
            assert got == first, (label, m)


@pytest.mark.parametrize("label", ["P1", "DihedralPlus", "A5"])
def test_grouped_search_many_distinct_entries(T11, label):
    """filter_L_members and central_members match the reference on t-tuples
    with 4 to 6 distinct entries, which the search never builds but a
    replayed certificate may hold.  Each t_j is k_j s_j, k_j in K and s_j a
    coset representative: the member set is that of (s_1, ..., s_m), so it
    is not empty."""
    K = atlas.find_named_subgroup(T11, label).subgroup
    ks = [int(k) for k in K.members[:6]]
    reps = eng.coset_representatives(T11, K)
    for m in (4, 5, 6):
        for shape in ([0] * m, [0] * (m - 2) + [1, 1], [0] * (m - 3) + [1, 2, 2]):
            s = [reps[i] for i in shape]
            t = tuple(T11.mul(k, u) for k, u in zip(ks, s))
            assert len(set(t)) == m
            flat = reference.filter_L_members(T11, K, t)
            assert flat == reference.filter_L_members(T11, K, tuple(s)), (m, shape)
            groups = wr.filter_L_members(T11, K, t)
            assert flatten(groups) == flat, (m, shape)
            central = reference.all_central(T11, flat)
            assert flatten(wr.central_members(T11, groups)) == central, (m, shape)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13])
def test_filter_L_members_match_full_masks(q):
    """filter_L_members, the intersection of the double cosets
    t_j^-1 K t_(j sigma), equals the masks over all of T for every atlas
    label, maximal or not, and t-tuples of length 2 to 6: the witness
    shapes (1,...,1,s) and (1,...,1,r,r,s) over coset representatives, and
    random tuples, with a repeated entry or without."""
    T = group_for(q)
    rng = np.random.default_rng(q)
    for label in atlas.LABELS:
        if not atlas.label_exists(q, label):
            continue
        K = atlas.find_named_subgroup(T, label).subgroup
        reps = eng.coset_representatives(T, K)
        for m in range(2, 7):
            r, s = (reps[int(i)] for i in rng.integers(len(reps), size=2))
            drawn = rng.integers(T.order, size=m).tolist()
            tuples = [(0,) * (m - 1) + (s,), ((0,) * (m - 3) + (r, r, s))[-m:],
                      tuple(drawn), tuple(drawn[:-1] + drawn[:1])]
            for t in tuples:
                groups = wr.filter_L_members(T, K, t)
                assert flatten(groups) == reference.filter_L_members(T, K, t), (label, t)
                assert all(np.all(np.diff(xs) > 0) for _, xs in groups)
