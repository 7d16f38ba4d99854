"""Reference implementations that only the tests use.

Each is a plain, per-element version of something the package computes in
batches, or a helper the package no longer needs; the tests compare the
package against them.
"""

from __future__ import annotations

import functools
from itertools import permutations

import numpy as np

from twdeg import engine
from twdeg.engine import GroupTable, Perm, Subgroup, member_mask


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


# -- subgroups --------------------------------------------------------------------

def conjugacy_class(G: GroupTable, g: int) -> np.ndarray:
    """Orbit of g under conjugation by G (closure over generators)."""
    return engine._conjugation_orbit(G, g, G.generators)


def klein_subgroups(K: Subgroup) -> list[Subgroup]:
    """All Klein four subgroups of K, in deterministic order."""
    T = K.parent
    invs = [int(m) for m in K.members if T.order_of(int(m)) == 2]
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


# -- the Lemma 2.6 search, one member at a time -----------------------------------

def filter_L_members(T: GroupTable, K: Subgroup, t_tuple) -> list[tuple[int, tuple]]:
    """Members (x, sigma) of (K wr S_m)^t cap L for t = (t_1,...,t_m), one
    tuple per member, sigma by sigma."""
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
