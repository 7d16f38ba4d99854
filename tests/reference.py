"""Reference implementations that only the tests use.

Each is a plain, per-element version of something the package computes in
batches, or a helper the package no longer needs; the tests compare the
package against them.
"""

from __future__ import annotations

import functools
from collections import Counter
from itertools import permutations
from math import gcd, lcm

import numpy as np

from twdeg import engine, wreath
from twdeg.engine import GroupTable, IsoFingerprint, Perm, Subgroup, member_mask
from twdeg.wreath import AlphaFn, w2_product


# -- GF(p^f) -----------------------------------------------------------------------

def field_digits(F, x: int) -> list[int]:
    """The base-p digits of x, lowest first: its polynomial coefficients."""
    return [x // F.p**i % F.p for i in range(F.f)]


def field_encode(F, coeffs) -> int:
    return sum(c % F.p * F.p**i for i, c in enumerate(coeffs))


def field_add(F, x: int, y: int) -> int:
    """x + y, digit by digit."""
    return field_encode(F, [a + b for a, b in zip(field_digits(F, x), field_digits(F, y))])


def field_mul(F, x: int, y: int) -> int:
    """The schoolbook product of x and y as polynomials over GF(p), reduced
    modulo F.modulus by long division."""
    p, f = F.p, F.f
    prod = [0] * (2 * f - 1)
    for i, a in enumerate(field_digits(F, x)):
        for j, b in enumerate(field_digits(F, y)):
            prod[i + j] += a * b
    for d in range(len(prod) - 1, f - 1, -1):  # the modulus is monic of degree f
        c = prod[d] % p
        for j, m in enumerate(F.modulus):
            prod[d - f + j] -= c * m
    return field_encode(F, prod[:f])


def field_order(F, x: int) -> int:
    """The multiplicative order of a nonzero x, by repeated products."""
    o, y = 1, x
    while y != 1:
        y, o = F.mul(y, x), o + 1
    return o


# -- group enumeration ---------------------------------------------------------------

def dict_bfs(degree: int, gens: tuple[Perm, ...]) -> tuple[np.ndarray, list[int]]:
    """The element array and generator indices of GroupTable.from_generators
    by a dict keyed by each element's whole row: BFS from the identity, FIFO
    queue, generators in order, one row at a time."""
    dtype = np.min_scalar_type(degree - 1)
    gen_rows = np.array(gens, dtype=dtype).reshape(len(gens), degree)
    frontier = np.arange(degree, dtype=dtype)[None]
    seen = {frontier[0].tobytes(): 0}
    levels = [frontier]
    while len(frontier):
        cand = gen_rows[np.arange(len(gens))[:, None], frontier[:, None, :]]
        new = []
        for row in cand.reshape(-1, degree):
            key = row.tobytes()
            if key not in seen:
                seen[key] = len(seen)
                new.append(row)
        frontier = np.array(new, dtype=dtype).reshape(len(new), degree)
        levels.append(frontier)
    return np.concatenate(levels), [seen[g.tobytes()] for g in gen_rows]


def greedy_base(elements: np.ndarray) -> list[int]:
    """Points, in order, each splitting some set of elements that agree on
    the points before it, until the base images separate all elements."""
    n, degree = elements.shape
    labels, classes, base = np.zeros(n, dtype=np.int64), 1, []
    for p in range(degree):
        if classes == n:
            break
        _, refined = np.unique(labels * degree + elements[:, p], return_inverse=True)
        count = int(refined.max()) + 1
        if count > classes:
            base.append(p)
            labels, classes = refined.reshape(n), count
    return base


def base_lookup(elements: np.ndarray, base: list[int]) -> np.ndarray:
    """BFS index by base images, one axis per base point, in the smallest
    signed dtype holding every index and -1 for "no element"."""
    n, degree = elements.shape
    lookup = np.full((degree,) * len(base), -1, dtype=np.min_scalar_type(-n))
    lookup[tuple(elements[:, b] for b in base)] = np.arange(n)
    return lookup


# -- permutations ------------------------------------------------------------------

def compose(g: Perm, h: Perm) -> Perm:
    """Product g*h acting on the right: x^(g*h) = (x^g)^h."""
    return tuple(h[x] for x in g)


# -- general m wreath elements (tuple, sigma), sigma a point-image tuple ------

def wm_product(T: GroupTable, u, v):
    (t, sig), (w, tau) = u, v
    parts = tuple(T.mul(t[j], w[sig[j]]) for j in range(len(t)))
    return (parts, compose(sig, tau))


def wm_inv(T: GroupTable, u):
    t, sig = u
    m = len(t)
    inv_sig = tuple(sorted(range(m), key=lambda j: sig[j]))
    # (t sigma)^-1 = (s tau) with tau = sigma^-1 and s_j = t_{j^tau}^-1
    parts = tuple(T.inverse(t[inv_sig[j]]) for j in range(m))
    return (parts, inv_sig)


# -- m = 2 elements and functions, one at a time -----------------------------------

def w2_mul(T: GroupTable, u, v):
    """wreath.w2_product for two triples of ints: one T.mul per coordinate."""
    a, b, k = u
    c, d, l = v
    if k == 0:
        return (T.mul(a, c), T.mul(b, d), l)
    return (T.mul(a, d), T.mul(b, c), 1 - l)


def conj(T: GroupTable, x: int, g: int) -> int:
    """x^g = g^-1 x g."""
    return T.mul(T.mul(T.inverse(g), x), g)


def evaluate(alpha: AlphaFn, u) -> int:
    """AlphaFn.evaluate at one triple of ints: alpha(a b^-1) conjugated by b."""
    T = alpha.T
    a, b, _ = u
    return conj(T, int(alpha.values[T.mul(a, T.inverse(b))]), b)


# -- m = 2 subgroups given by their member triples --------------------------------

def w2_inv(T: GroupTable, u):
    a, b, k = u
    return (T.inverse(a), T.inverse(b), 0) if k == 0 else (T.inverse(b), T.inverse(a), 1)


def w2_order(T: GroupTable, u) -> int:
    a, b, k = u
    o = T.orders
    return int(lcm(o[a], o[b]) if k == 0 else 2 * o[T.mul(a, b)])


def triple_closure(T: GroupTable, gens) -> set:
    closed = {(0, 0, 0)}
    frontier = [(0, 0, 0)]
    while frontier:
        nxt = []
        for u in frontier:
            for g in gens:
                v = w2_mul(T, u, g)
                if v not in closed:
                    closed.add(v)
                    nxt.append(v)
        frontier = nxt
    return closed


def explicit_generators(T: GroupTable, members) -> list:
    """Members in sorted order, each outside the closure of those before it."""
    out, closed = [], {(0, 0, 0)}
    for u in sorted(members):
        if u not in closed:
            out.append(u)
            closed = triple_closure(T, out)
            if len(closed) == len(members):
                break
    return out


def wreath_members_fingerprint(T: GroupTable, members) -> IsoFingerprint:
    """Fingerprint of a subgroup of T wr S_2 given as a set of triples."""
    cnt = Counter(w2_order(T, u) for u in members)
    gens = explicit_generators(T, members)
    abelian = all(w2_mul(T, a, b) == w2_mul(T, b, a)
                  for i, a in enumerate(gens) for b in gens[i + 1 :])
    return IsoFingerprint(len(members), tuple(sorted(cnt.items())), abelian)


def explicit_d_t_cap_L(T: GroupTable, members, t):
    """wreath.d_t_cap_L for D given by its member triples: t (x, x, k) t^-1
    tested against D one x at a time."""
    tinv = w2_inv(T, t)
    masks = [[w2_mul(T, w2_mul(T, t, (x, x, k)), tinv) in members
              for x in range(T.order)] for k in (0, 1)]
    groups = zip(permutations(range(2)), (np.flatnonzero(mask) for mask in masks))
    return [(sig, xs) for sig, xs in groups if len(xs)]


def explicit_coset_fn(T: GroupTable, members, t, eta=None) -> AlphaFn:
    """wreath.build_coset_fn for D given by its member triples: alpha at a is
    x^-1 eta x for every (x, x, k) with (a, 1)(x, x, k)^-1 t^-1 in D."""
    if eta is None:
        eta = int(wreath.central_members(T, explicit_d_t_cap_L(T, members, t))[0][1][0])
    tinv = w2_inv(T, t)
    xinv = T.inv.tolist()
    values = np.full(T.order, T.identity)
    for a in range(T.order):
        got = {conj(T, eta, x) for k in (0, 1) for x in range(T.order)
               if w2_mul(T, w2_mul(T, (a, 0, 0), (xinv[x], xinv[x], k)), tinv) in members}
        assert len(got) <= 1, f"conflicting values at point {a}"
        if got:
            values[a] = got.pop()
    return AlphaFn(T, values)


# -- subgroups --------------------------------------------------------------------

def conjugacy_class(G: GroupTable, g: int) -> np.ndarray:
    """The conjugates x^-1 g x over every x in G, sorted and distinct."""
    return np.unique(G.product(G.inv, g, np.arange(G.order)))


def coset_representatives(T: GroupTable, S: Subgroup) -> list[int]:
    """engine.coset_representatives one coset at a time: each element not
    yet covered, in index order, and then its coset S g marked."""
    covered = np.zeros(T.order, dtype=bool)
    reps = []
    for g in range(T.order):
        if not covered[g]:
            reps.append(g)
            covered[T.product(S.members, g)] = True
    return reps


def double_coset_representatives(G: GroupTable, M: Subgroup) -> list[int]:
    """The smallest element of each double coset M g M outside M, in
    increasing order: M g is closed under right multiplication by M's
    generators, one BFS level at a time."""
    gens = M.generating_set()
    covered = member_mask(M)
    reps = []
    for g in range(G.order):
        if covered[g]:
            continue
        reps.append(g)
        frontier = G.product(M.members, g)
        covered[frontier] = True
        while frontier.size:
            reached = G.product(frontier[:, None], gens).ravel()
            frontier = np.unique(reached[~covered[reached]])
            covered[frontier] = True
    return reps


def is_maximal(G: GroupTable, M: Subgroup) -> bool:
    """engine.is_maximal with every join <M, g> grown in full, without a
    cap: one g per double coset."""
    gens = M.generating_set()
    return M.order < G.order and all(
        engine.generate(G, gens + [g]).order == G.order
        for g in double_coset_representatives(G, M)
    )


def first_two_generated(T: GroupTable, order_a: int, order_b: int, order_ab, size: int, fp):
    """atlas._first_two_generated with every closure <a, b> grown in full,
    and without the order filter on a b when order_ab is None."""
    cand_b = T.elements_of_order(order_b)
    for a in T.elements_of_order(order_a).tolist():
        bs = cand_b
        if order_ab is not None:
            bs = cand_b[T.orders[T.product(a, cand_b)] == order_ab]
        for b in bs.tolist():
            S = engine.generate(T, [a, b])
            if S.order == size and engine.fingerprint(S) == fp:
                return S
    return None


def first_subgroup_with_fingerprint(K: Subgroup, target: IsoFingerprint) -> Subgroup | None:
    """atlas.subgroup_of as two loops, single generators then pairs, with
    the trivial target answered directly and None when nothing matches."""
    T = K.parent
    mem = [int(m) for m in K.members]
    if target.order == 1:
        return Subgroup(T, [T.identity])
    singles = [m for m in mem if m != T.identity]
    for a in singles:
        if target.order % T.orders[a] != 0:
            continue
        S = engine.generate(T, [a])
        if S.order == target.order and engine.fingerprint(S) == target:
            return S
    for i, a in enumerate(singles):
        if target.order % T.orders[a] != 0:
            continue
        for b in singles[i + 1 :]:
            if target.order % T.orders[b] != 0:
                continue
            S = engine.generate(T, [a, b])
            if S.order == target.order and engine.fingerprint(S) == target:
                return S
    return None


def subgroup_conjugates(T: GroupTable, S: Subgroup) -> list[Subgroup]:
    """Distinct T-conjugates of S, one per coset of the normalizer."""
    N = engine.normalizer(T, S)
    reps = engine.coset_representatives(T, N)
    return [S.conjugate(g) for g in reps]


def dihedral_class_census(T: GroupTable, d: int) -> int:
    """Number of T-conjugacy classes of dihedral subgroups of order 2d.

    Candidates are built as <c, j> from a cyclic group of order d and an
    involution j inverting it, deduplicated by member set, then partitioned
    into conjugacy orbits.
    """
    q = T.degree - 1
    tori = [(q - 1) // gcd(2, q - 1), (q + 1) // gcd(2, q - 1)]
    if d <= 2 or not any(t % d == 0 for t in tori):
        raise engine.NoSuchSubgroupError(f"no dihedral subgroup of order {2*d} for q={q}")
    invs = T.elements_of_order(2)
    dihedrals = set()
    covered = np.zeros(T.order, dtype=bool)
    for c in T.elements_of_order(d).tolist():
        if covered[c]:
            continue  # each element of order d generates the <c'> it lies in
        C = engine.generate(T, [c])
        covered[C.members] = True
        for j in invs[T.product(invs, c, invs) == T.inverse(c)].tolist():  # j c j = c^-1
            dihedrals.add(C.member_set | frozenset(T.product(C.members, j).tolist()))
    classes = 0
    remaining = set(dihedrals)
    while remaining:
        rep = next(iter(remaining))
        orbit = {C.member_set for C in subgroup_conjugates(T, Subgroup(T, rep))}
        if not orbit <= remaining:
            raise AssertionError("census candidates are not closed under conjugation")
        remaining -= orbit
        classes += 1
    return classes


def coset_involution_check(T: GroupTable, P1: Subgroup) -> bool:
    """atlas.coset_involution_check one coset at a time."""
    orders = T.orders
    for s in coset_representatives(T, P1):
        if s in P1.member_set:
            continue
        if not (orders[T.product(P1.members, s)] == 2).any():
            return False
    return True


def klein_subgroups(K: Subgroup) -> list[Subgroup]:
    """All Klein four subgroups of K, in deterministic order."""
    T = K.parent
    invs = [int(m) for m in K.members if T.orders[m] == 2]
    seen = set()
    out = []
    for i, a in enumerate(invs):
        for b in invs[i + 1 :]:
            if T.mul(a, b) == T.mul(b, a):
                mem = frozenset({T.identity, a, b, T.mul(a, b)})
                if mem not in seen:
                    seen.add(mem)
                    out.append(Subgroup(T, mem))
    return out


def greedy_generating_set(S: Subgroup) -> list[int]:
    """Subgroup.generating_set from scratch: each member, in index order,
    outside the closure of those before it, that closure rebuilt from the
    identity after every step."""
    gens: list[int] = []
    closed = engine.generate(S.parent, gens)
    for m in S.members.tolist():
        if m not in closed:
            gens.append(m)
            closed = engine.generate(S.parent, gens)
            if closed.order == S.order:
                break
    return gens


# -- exact stabilizers ---------------------------------------------------------------

def stabilizer_members(res: wreath.StabilizerResult) -> list[tuple[int, int, int]]:
    """Every member of H_f in a stabilizer scan's result, in (y, k, x) order."""
    return [(x, y, k) for x0, y, k in res.found
            for x in sorted(res.T.product(res.lam, x0).tolist())]


def grow_coset_orbit(T: GroupTable, x0: np.ndarray, gens, frontier: np.ndarray, step) -> None:
    """wreath._grow_coset_orbit one generator at a time: each generator in
    turn gives x_0 to the points it reaches first."""
    while len(frontier) and step:
        reached = []
        for g in step:
            x, y, k = w2_product(T, (x0[frontier], frontier // 2, frontier % 2), g)
            points = 2 * y + k
            new = x0[points] < 0
            x0[points[new]] = x[new]
            reached.append(points[new])
        frontier = np.unique(np.concatenate(reached))
        step = gens


# -- random function samples -------------------------------------------------------

def alpha_rows_one_at_a_time(T: GroupTable, rng: np.random.Generator, size: int) -> np.ndarray:
    """`size` random alpha value rows, one wreath.random_alpha draw each."""
    return np.array([wreath.random_alpha(T, rng).values for _ in range(size)])


# -- the Lemma 2.6 search, one member at a time -----------------------------------

def filter_L_members(T: GroupTable, K: Subgroup, t_tuple) -> list[tuple[int, tuple]]:
    """Members (x, sigma) of (K wr S_m)^t cap L for t = (t_1,...,t_m), one
    tuple per member, sigma by sigma: the mask of t_j x t_(j sigma)^-1 in K
    over all x in T, one pair (t_j, t_(j sigma)) at a time."""
    inK = member_mask(K)

    @functools.cache
    def in_K(u: int, v: int) -> np.ndarray:
        return inK[T.product(u, np.arange(T.order), T.inv[v])]

    out = []
    for sig in permutations(range(len(t_tuple))):
        mask = np.ones(T.order, dtype=bool)
        for j, sj in enumerate(sig):
            mask &= in_K(t_tuple[j], t_tuple[sj])
            if not mask.any():
                break
        out += [(int(x), sig) for x in np.flatnonzero(mask)]
    return out


def central_members(T: GroupTable, mem, central_sig=lambda s: True):
    """The members (x, s) of a subgroup of L, in (s, x) order, with x != 1
    commuting with every T-part and central_sig(s): (x, s)(y, t) = (xy, st)."""
    parts = np.unique([y for y, _ in mem])
    central_x = functools.cache(lambda x: bool(T.commutes_with(x, parts).all()))
    return (
        (x, s) for x, s in sorted(mem, key=lambda u: (u[1], u[0]))
        if x != T.identity and central_sig(s) and central_x(x)
    )


def central_sigma(mem):
    """sigma -> whether sigma commutes with the S_m-part of every member."""
    taus = sorted({tau for _, tau in mem})
    return functools.cache(lambda sig: all(compose(sig, tau) == compose(tau, sig) for tau in taus))


def all_central(T: GroupTable, mem) -> list[tuple[int, tuple]]:
    """Every central member (x, sigma) with x != 1, in (sigma, x) order."""
    return list(central_members(T, mem, central_sigma(mem)))


def flatten(groups) -> list[tuple[int, tuple]]:
    """(sigma, xs) groups as one (x, sigma) tuple per member, in order."""
    return [(int(x), sig) for sig, xs in groups for x in xs]
