"""H = T wr S_m, its diagonal subgroup L, and the function-space action.

Elements of H are (t_1,...,t_m)sigma with sigma permuting coordinates before
the pointwise product: (t sigma)(u tau) = (t_j * u_{j^sigma})_j (sigma tau).
For m = 2 an element is the compact triple (a, b, k) with k the swap bit.

A function f in the twisted function space N is represented for m = 2 by
the array alpha with alpha(t) = f((t, 1)); then
f((t1,t2)iota^k) = alpha(t1 t2^-1) conjugated by t2, and the H-action
becomes an action on alpha arrays.  Point stabilizers H_f are computed
exactly for m = 2 by anchoring on the values of alpha: the members with a
given (y, k) form one coset of the left stabilizer or none, an anchor value
names the candidate cosets, so none is missed, and every counted member is
a product of two elements checked with act_alpha.  The orbit space N is
never materialized.  For m >= 3 only subdegree certificates are produced,
from computations inside L (|L| = |T| m!).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from itertools import permutations
from math import lcm

import numpy as np

from .engine import (
    GroupTable,
    IsoFingerprint,
    Subgroup,
    centralizer,
    compose,
    intersect,
    member_mask,
)
from .atlas import coset_involution_check
from . import engine

FULL_ENUM_CAP = 3_000_000


class WreathTooLargeError(ValueError):
    pass


class NotCentralError(ValueError):
    pass


class InconsistentFunctionError(AssertionError):
    """Raised if the coset-function construction assigns conflicting values.

    This would falsify the well-definedness guarantee; it must never fire.
    """


class TrivialElementError(ValueError):
    pass


class WrongCongruenceError(ValueError):
    pass


# -- m = 2 wreath element arithmetic on triples (a, b, k) ---------------------

def w2_identity() -> tuple[int, int, int]:
    return (0, 0, 0)


def w2_product(T: GroupTable, u, v):
    a, b, k = u
    c, d, l = v
    if k == 0:
        return (T.mul(a, c), T.mul(b, d), l)
    return (T.mul(a, d), T.mul(b, c), 1 - l)


def w2_inv(T: GroupTable, u):
    a, b, k = u
    if k == 0:
        return (T.inverse(a), T.inverse(b), 0)
    return (T.inverse(b), T.inverse(a), 1)


def w2_order(T: GroupTable, u) -> int:
    a, b, k = u
    if k == 0:
        return lcm(T.order_of(a), T.order_of(b))
    return 2 * T.order_of(T.mul(a, b))


# -- general m: elements (tuple, sigma) with sigma a point-image tuple --------

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


def wreath_full_table(T: GroupTable, swap: bool = True) -> GroupTable:
    """Full enumeration of T wr S_2 as permutations of two point blocks; of
    its base group T x T when `swap` is false."""
    n2 = (2 if swap else 1) * T.order * T.order
    if n2 > FULL_ENUM_CAP:
        raise WreathTooLargeError(f"|H| = {n2} exceeds {FULL_ENUM_CAP}")
    d = T.degree
    gens = []
    for g in T.elements[T.generators].tolist():
        gens.append(tuple(g) + tuple(d + p for p in range(d)))
        gens.append(tuple(range(d)) + tuple(d + p for p in g))
    if swap:
        gens.append(tuple(d + p for p in range(d)) + tuple(range(d)))
    H = GroupTable.from_generators(2 * d, tuple(gens))
    if H.order != n2:
        raise AssertionError(f"wreath enumeration gave {H.order}, expected {n2}")
    return H


def wreath_perm(T: GroupTable, u) -> tuple[int, ...]:
    """Embed an m=2 triple into the block-permutation form of T wr S_2."""
    a, b, k = u
    d = T.degree
    pa, pb = T.elements[a].tolist(), T.elements[b].tolist()
    if k == 0:
        return tuple(pa) + tuple(d + p for p in pb)
    return tuple(d + p for p in pa) + tuple(pb)


def wreath_triple(T: GroupTable, perm) -> tuple[int, int, int]:
    """Inverse of wreath_perm."""
    d = T.degree
    k = 0 if perm[0] < d else 1
    if k == 0:
        pa = tuple(perm[p] for p in range(d))
        pb = tuple(perm[d + p] - d for p in range(d))
    else:
        pa = tuple(perm[p] - d for p in range(d))
        pb = tuple(perm[d + p] for p in range(d))
    return (int(T.index(pa)), int(T.index(pb)), k)


# -- structured subgroups of H (m = 2) ----------------------------------------

@dataclass
class WreathSub2:
    """A subgroup of T wr S_2 in one of the shapes the engine constructs.

    kind "product": K1 x K2 (no swap part); "wreath": K wr S_2;
    "explicit": an arbitrary member set of triples.
    """

    T: GroupTable
    kind: str
    K1: Subgroup | None = None
    K2: Subgroup | None = None
    explicit: frozenset | None = None

    @property
    def order(self) -> int:
        if self.kind == "product":
            return self.K1.order * self.K2.order
        if self.kind == "wreath":
            return 2 * self.K1.order * self.K1.order
        return len(self.explicit)

    def contains(self, u) -> bool:
        a, b, k = u
        if self.kind == "product":
            return k == 0 and a in self.K1.member_set and b in self.K2.member_set
        if self.kind == "wreath":
            return a in self.K1.member_set and b in self.K1.member_set
        return u in self.explicit

    def generators(self) -> list[tuple[int, int, int]]:
        out = []
        if self.kind in ("product", "wreath"):
            k2 = self.K1 if self.kind == "wreath" else self.K2
            for g in self.K1.generating_set():
                out.append((g, 0, 0))
            for g in k2.generating_set():
                out.append((0, g, 0))
            if self.kind == "wreath":
                out.append((0, 0, 1))
        else:
            mem = sorted(self.explicit)
            closed = {w2_identity()}
            for u in mem:
                if u not in closed:
                    out.append(u)
                    closed = _triple_closure(self.T, out)
                    if len(closed) == len(self.explicit):
                        break
        return out

    def member_triples(self):
        if self.kind == "product":
            for a in self.K1:
                for b in self.K2:
                    yield (a, b, 0)
        elif self.kind == "wreath":
            for a in self.K1:
                for b in self.K1:
                    yield (a, b, 0)
                    yield (a, b, 1)
        else:
            yield from sorted(self.explicit)


def product_sub(K1: Subgroup, K2: Subgroup) -> WreathSub2:
    return WreathSub2(K1.parent, "product", K1, K2)


def wreath_sub(K: Subgroup) -> WreathSub2:
    return WreathSub2(K.parent, "wreath", K, K)


def _triple_closure(T: GroupTable, gens) -> set:
    closed = {w2_identity()}
    frontier = [w2_identity()]
    while frontier:
        nxt = []
        for u in frontier:
            for g in gens:
                v = w2_product(T, u, g)
                if v not in closed:
                    closed.add(v)
                    nxt.append(v)
        frontier = nxt
    return closed


def wreath_members_fingerprint(T: GroupTable, members) -> IsoFingerprint:
    """Fingerprint of a subgroup of T wr S_2 given as a set of triples."""
    members = sorted(members)
    from collections import Counter

    cnt = Counter(w2_order(T, u) for u in members)
    gens = WreathSub2(T, "explicit", explicit=frozenset(members)).generators()
    abelian = all(
        w2_product(T, a, b) == w2_product(T, b, a)
        for i, a in enumerate(gens)
        for b in gens[i + 1 :]
    )
    return IsoFingerprint(len(members), tuple(sorted(cnt.items())), abelian)


# -- alpha representation ------------------------------------------------------

@dataclass
class AlphaFn:
    """A twisted function on H (m = 2), stored as alpha(t) = f((t, 1))."""

    T: GroupTable
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.int64)

    def __eq__(self, other):
        return isinstance(other, AlphaFn) and np.array_equal(self.values, other.values)

    def is_identity(self) -> bool:
        return bool(np.all(self.values == self.T.identity))

    def evaluate(self, u) -> int:
        """f at an arbitrary wreath element (a, b, k)."""
        T = self.T
        a, b, k = u
        v = int(self.values[T.mul(a, T.inverse(b))])
        return T.conj(v, b)


def identity_alpha(T: GroupTable) -> AlphaFn:
    return AlphaFn(T, np.full(T.order, T.identity, dtype=np.int64))


def random_alpha(T: GroupTable, rng: np.random.Generator) -> AlphaFn:
    return AlphaFn(T, rng.integers(0, T.order, T.order, dtype=np.int64))


def act_alpha(alpha: AlphaFn, h) -> AlphaFn:
    """The image of f under h in H: (f^h)(z) = f(hz), expressed on alpha.

    For h = (x, y):      alpha'(t) = alpha(x t y^-1) ^ y
    For h = (x, y) iota: alpha'(t) = alpha(x t^-1 y^-1) ^ (y t)
    """
    T = alpha.T
    inv = T.inv
    x, y, k = h
    yinv = int(inv[y])
    a = alpha.values
    t = np.arange(T.order)
    if k == 0:
        vals = a[T.product(x, t, yinv)]  # alpha(x t y^-1) over t
        return AlphaFn(T, T.product(yinv, vals, y))
    vals = a[T.product(x, inv, yinv)]  # alpha(x t^-1 y^-1) over t
    return AlphaFn(T, T.product(inv, yinv, vals, y, t))  # (y t)^-1 vals (y t)


@dataclass
class StabilizerResult:
    subdegree: int
    stabilizer_order: int
    members: list | None = None

    def fingerprint(self, T: GroupTable) -> IsoFingerprint:
        if self.members is None:
            raise ValueError("members were not collected")
        return wreath_members_fingerprint(T, self.members)


def stabilizer_subdegree(alpha: AlphaFn, collect_members: bool = True) -> StabilizerResult:
    """Exact |H : H_f| for H = T wr S_2, anchored on the values of alpha.

    Let Lambda = {x : (x, 1, 0) fixes f}.  For fixed (y, k) the members
    (x, y, k) form one right coset Lambda x_0 or none: the quotient of two
    of them is (x' x^-1, 1, 0).  At an anchor point s_0 with v_0 = alpha(s_0)
    a member satisfies
        straight: alpha(x s_0 y^-1)   = y v_0 y^-1,
        swap:     alpha(x s_0^-1 y^-1) = (y s_0) v_0 (y s_0)^-1,
    so x = p y s_0^(-/+1) with p in the fiber of the required value, and
    p -> lambda p moves x to lambda x.  One p per Lambda-coset of the fiber
    therefore reaches every coset Lambda x_0: no member is missed.
    Candidates are filtered on further anchor points by the same identities
    and each survivor is checked with act_alpha over all of T, as is every
    element of Lambda (found from the fiber of v_0 with y = 1).  A counted
    member (lambda x_0, y, k) = (lambda, 1, 0)(x_0, y, k) is the product of
    two verified stabilizer elements, so every counted member is exact.
    Temporaries are proportional to the candidate count; members come in
    (y, k, x) order.
    """
    T = alpha.T
    n = T.order
    inv = T.inv
    a = alpha.values
    everyone = np.arange(n)
    if alpha.is_identity():
        return StabilizerResult(1, 2 * n * n, None)
    # anchor on the value class c minimizing |alpha^-1(c)| * |C_T(v)|
    cls = np.full(n, -1)
    for v in range(n):
        if cls[v] < 0:
            cls[T.product(everyone, v, inv)] = v
    hits = np.bincount(cls[a], minlength=n)
    present = np.flatnonzero(hits)
    c = present[np.argmin(hits[present] * (n // np.bincount(cls, minlength=n)[present]))]
    s0 = int(np.flatnonzero(cls[a] == c)[0])
    v0 = int(a[s0])
    anchors = np.linspace(0, n - 1, 8).astype(np.int64)

    def exact(xs, ys, ks) -> list[tuple[int, int, int]]:
        for s in anchors:
            u = np.where(ks == 0, ys, T.product(ys, s))  # y, resp. y s
            w = T.product(xs, np.where(ks == 0, s, inv[s]), inv[ys])
            keep = a[w] == T.product(u, a[s], inv[u])
            xs, ys, ks = xs[keep], ys[keep], ks[keep]
        cand = zip(xs.tolist(), ys.tolist(), ks.tolist())
        return [h for h in cand if act_alpha(alpha, h) == alpha]

    fiber = np.flatnonzero(a == v0)
    zeros = np.zeros(len(fiber), dtype=np.int64)
    lam = np.array(sorted(x for x, _, _ in exact(T.product(fiber, inv[s0]), zeros, zeros)))
    # one representative per coset Lambda p inside the fiber of class c
    reps = np.array(engine.coset_representatives(T, Subgroup(T, lam)))
    reps = reps[cls[a[reps]] == c]
    reps = reps[np.argsort(a[reps], kind="stable")]
    rv = a[reps]
    want = T.product(everyone, v0, inv)  # y v0 y^-1 over y
    parts = []
    for k, (need, shift) in enumerate(((want, int(inv[s0])), (want[T.product(everyone, s0)], s0))):
        lo = np.searchsorted(rv, need, "left")
        cnt = np.searchsorted(rv, need, "right") - lo
        ys = np.repeat(np.arange(n), cnt)
        ps = reps[np.arange(len(ys)) - np.repeat(np.cumsum(cnt) - cnt - lo, cnt)]
        parts.append((T.product(ps, ys, shift), ys, np.full(len(ys), k)))
    found = sorted(exact(*(np.concatenate(z) for z in zip(*parts))), key=lambda h: h[1:])
    count = len(found) * len(lam)
    order_h = 2 * n * n
    if order_h % count != 0:
        raise AssertionError("stabilizer order does not divide |H|")
    members = None
    if collect_members:
        members = [(x, y, k) for x0, y, k in found for x in sorted(T.product(lam, x0).tolist())]
    return StabilizerResult(order_h // count, count, members)


# -- coset functions (the explicit orbit representatives) ----------------------

def d_t_cap_L(D: WreathSub2, t) -> list[tuple[int, int]]:
    """Members (x, k) of D^t cap L, filtering L by conjugation into D.

    For t = (t1, t2, 0), t (x, x, k) t^-1 is (t1 x t1^-1, t2 x t2^-1, 0) for
    k = 0 and (t1 x t2^-1, t2 x t1^-1, 1) for k = 1; the structured kinds
    test both coordinates with one membership mask each.
    """
    T = D.T
    out = []
    if D.kind == "explicit":
        tinv = w2_inv(T, t)
        for k in (0, 1):
            for x in range(T.order):
                if D.contains(w2_product(T, w2_product(T, t, (x, x, k)), tinv)):
                    out.append((x, k))
        return out
    t1, t2, _ = t
    in1, in2 = member_mask(D.K1), member_mask(D.K2)
    shapes = [(t1, t2)] if D.kind == "product" else [(t1, t2), (t2, t1)]
    for k, (u1, u2) in enumerate(shapes):
        mask = in1[_conj_column(T, t1, u1)] & in2[_conj_column(T, t2, u2)]
        out += [(int(x), k) for x in np.flatnonzero(mask)]
    return out


def _conj_column(T: GroupTable, u: int, v: int) -> np.ndarray:
    """u x v^-1 over all x in T."""
    return T.product(u, np.arange(T.order), T.inv[v])


def _is_central(T: GroupTable, eta: int, mem) -> bool:
    """True iff eta commutes with the T-part of every member (y, k)."""
    return bool(T.commutes_with(eta, np.unique([y for y, _ in mem])).all())


def _first_central(T: GroupTable, mem, central_sig) -> tuple | None:
    """First member (x, s) of a subgroup of L, in (s, x) order, with x != 1
    commuting with every T-part and central_sig(s): (x, s)(y, t) = (xy, st)."""
    parts = np.unique([y for y, _ in mem])
    central_x = functools.cache(lambda x: bool(T.commutes_with(x, parts).all()))
    central = (
        (x, s) for x, s in sorted(mem, key=lambda u: (u[1], u[0]))
        if x != T.identity and central_sig(s) and central_x(x)
    )
    return next(central, None)


def first_central_eta(T: GroupTable, mem) -> tuple[int, int] | None:
    """First central element (eta, k) of a subgroup of L with eta != 1, in
    k-major order; the swap bits commute, so only the T-parts constrain
    commutation."""
    return _first_central(T, mem, lambda k: True)


def build_coset_fn(D: WreathSub2, t, eta: int | None = None) -> AlphaFn:
    """Materialize the function supported on the double coset D t L.

    The value at z = d t ell is eta conjugated by phi(ell); points outside
    D t L get the identity.  Well-definedness (no conflicting assignments)
    is asserted for every point, and the resulting alpha must be
    nonconstant with D inside its stabilizer.
    """
    T = D.T
    if t[2] != 0:
        raise ValueError("use a representative t with trivial swap part")
    mem = d_t_cap_L(D, t)
    if eta is None:
        found = first_central_eta(T, mem)
        if found is None:
            raise NotCentralError("Z(D^t cap L) has no element with nontrivial part")
        eta = found[0]
    elif (
        eta == T.identity
        or not any((eta, k) in set(mem) for k in (0, 1))
        or not _is_central(T, eta, mem)
    ):
        raise NotCentralError("supplied eta is not a central member part")
    inv = T.inv
    n = T.order
    t1, t2, _ = t
    values = np.full(n, T.identity, dtype=np.int64)
    if D.kind in ("product", "wreath"):
        # the point (a, 1) lies in D t (x, x, k) iff a x^-1 t1^-1 in K1 and
        # x^-1 t2^-1 in K2 (k = 0), i.e. x in t2^-1 K2 and a = k1 t1 x; the
        # swapped shape gives x in t1^-1 K2 and a = k1 t2 x
        points, vals = [], []
        for u1, u2 in [(t1, t2)] if D.kind == "product" else [(t1, t2), (t2, t1)]:
            xs = T.product(inv[u2], D.K2.members)
            points.append(T.product(D.K1.members[:, None], u1, xs).ravel())
            vals.append(np.tile(T.product(inv[xs], eta, xs), D.K1.order))  # x^-1 eta x
        points, vals = np.concatenate(points), np.concatenate(vals)
        values[points] = vals
        clash = values[points] != vals
        if clash.any():
            raise InconsistentFunctionError(
                f"conflicting values at point {int(points[clash][0])}"
            )
    else:
        conj_eta = T.product(inv, eta, np.arange(n))  # x -> x^-1 eta x
        tinv = w2_inv(T, t)
        for a_el in range(n):
            got = set()
            for k in (0, 1):
                for x in range(n):
                    xi_ = T.inverse(x)
                    z = w2_product(T, w2_product(T, (a_el, 0, 0), (xi_, xi_, k)), tinv)
                    if D.contains(z):
                        got.add(int(conj_eta[x]))
            if len(got) > 1:
                raise InconsistentFunctionError(f"conflicting values at point {a_el}")
            if got:
                values[a_el] = got.pop()
    alpha = AlphaFn(T, values)
    if alpha.is_identity():
        raise AssertionError("coset function collapsed to the identity")
    for g in D.generators():
        if act_alpha(alpha, g) != alpha:
            raise AssertionError("D is not contained in the stabilizer")
    return alpha


def build_centralizer_fn(T: GroupTable, gamma: int, m: int = 2):
    """Certificate that the m-th power of a class size is a subdegree.

    For m = 2 the function alpha(a) = gamma on C_T(gamma), identity
    elsewhere, is materialized and its exact stabilizer computed; for
    m >= 3 only the class-size certificate is returned.
    """
    if gamma == T.identity:
        raise TrivialElementError("gamma must be nontrivial")
    C = centralizer(T, gamma)
    class_size = T.order // C.order
    q = T.degree - 1
    if m == 2:
        values = np.full(T.order, T.identity, dtype=np.int64)
        values[C.members] = gamma
        alpha = AlphaFn(T, values)
        res = stabilizer_subdegree(alpha)
        if res.subdegree != class_size**2:
            raise AssertionError(
                f"exact stabilizer gives {res.subdegree}, class law gives {class_size**2}"
            )
        expected = set(wreath_sub(C).member_triples())
        if set(res.members) != expected:
            raise AssertionError("stabilizer is not the centralizer wreath")
        cert = SubdegreeCertificate(
            q, m, "exact-stabilizer", class_size**2,
            {"construction": "centralizer", "gamma": gamma, "centralizer_order": C.order},
        )
        return alpha, res, cert
    cert = SubdegreeCertificate(
        q, m, "lemma-2.10-class", class_size**m,
        {"construction": "centralizer", "gamma": gamma, "centralizer_order": C.order},
    )
    return None, None, cert


# -- certificates ---------------------------------------------------------------

@dataclass
class SubdegreeCertificate:
    q: int
    m: int
    kind: str  # exact-stabilizer | lemma-2.6-witness | lemma-2.10-class | lemma-4.3-divisor
    value: int
    witness: dict = dc_field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "q": self.q,
            "m": self.m,
            "kind": self.kind,
            "value": str(self.value),  # decimal string: values can exceed 64 bits
            "witness": {k: (list(v) if isinstance(v, tuple) else v) for k, v in self.witness.items()},
        }

    @staticmethod
    def from_record(rec: dict) -> "SubdegreeCertificate":
        return SubdegreeCertificate(
            rec["q"], rec["m"], rec["kind"], int(rec["value"]), dict(rec["witness"])
        )


@dataclass
class WitnessT:
    """A conjugating tuple t with a usable central element in D^t cap L."""

    q: int
    m: int
    label: str
    shift: tuple[int, ...]  # the nontrivial entries of t = (1,...,1,*)
    eta: int
    swap: int | tuple
    certificate: SubdegreeCertificate


def find_witness_t(
    T: GroupTable,
    K: Subgroup,
    m: int,
    label: str = "",
    maximal: bool = True,
    pair: tuple[int, int] | None = None,
    shifts: list[int] | None = None,
) -> WitnessT | None:
    """Scan t = (1,...,1,s) over coset representatives of K for a central
    element (eta,...,eta)sigma with eta != 1 in Z(D^t cap L), D = K wr S_m.
    For m = 2 `shifts`, when given, replaces the coset representatives.

    For m >= 6 a pair shape t = (1,...,1,r,r,s) is tried when the single
    shape fails (or verified directly when the pair is supplied).  Returns
    None if every candidate is exhausted.
    """
    if maximal and not engine.is_maximal(T, K):
        raise engine.NotMaximalError("K must be maximal in T")
    q = T.degree - 1
    index = T.order // K.order
    if m == 2:
        D = wreath_sub(K)
        for s in engine.coset_representatives(T, K) if shifts is None else shifts:
            mem = d_t_cap_L(D, (0, s, 0))
            found = first_central_eta(T, mem)
            if found is not None:
                eta, k = found
                cert = SubdegreeCertificate(
                    q, m, "lemma-2.6-witness", index**m,
                    {"construction": "coset-fn", "label": label, "shift": [s],
                     "eta": eta, "index": index},
                )
                return WitnessT(q, m, label, (s,), eta, k, cert)
        return None
    # m >= 3: filter L by vectorized masks per sigma
    if pair is None:
        for s in engine.coset_representatives(T, K):
            t_tuple = tuple([T.identity] * (m - 1) + [s])
            wit = _witness_from_tuple(T, K, m, t_tuple, label, index, (s,))
            if wit is not None:
                return wit
        if m < 6:
            return None
        reps = engine.coset_representatives(T, K)
        for r in reps:
            for s in reps:
                t_tuple = tuple([T.identity] * (m - 3) + [r, r, s])
                wit = _witness_from_tuple(T, K, m, t_tuple, label, index, (r, s))
                if wit is not None:
                    return wit
        return None
    r, s = pair
    t_tuple = tuple([T.identity] * (m - 3) + [r, r, s])
    return _witness_from_tuple(T, K, m, t_tuple, label, index, (r, s))


def filter_L_members(T: GroupTable, K: Subgroup, t_tuple) -> list[tuple[int, tuple]]:
    """Members (x, sigma) of (K wr S_m)^t cap L for t = (t_1,...,t_m)."""
    inK = member_mask(K)

    @functools.cache
    def in_K(u: int, v: int) -> np.ndarray:
        # one column per distinct pair: a t-tuple has at most 3 distinct entries
        return inK[_conj_column(T, u, v)]

    out = []
    for sig in permutations(range(len(t_tuple))):
        mask = np.ones(T.order, dtype=bool)
        for j, sj in enumerate(sig):
            mask &= in_K(t_tuple[j], t_tuple[sj])
            if not mask.any():
                break
        out += [(int(x), sig) for x in np.flatnonzero(mask)]
    return out


def _witness_from_tuple(T, K, m, t_tuple, label, index, shift):
    mem = filter_L_members(T, K, t_tuple)
    taus = sorted({tau for _, tau in mem})

    @functools.cache
    def central_sig(sig: tuple) -> bool:
        return all(compose(sig, tau) == compose(tau, sig) for tau in taus)

    found = _first_central(T, mem, central_sig)
    if found is None:
        return None
    eta, sig = found
    q = T.degree - 1
    cert = SubdegreeCertificate(
        q, m, "lemma-2.6-witness", index**m,
        {"construction": "coset-fn", "label": label, "shift": list(shift),
         "t_tuple": list(t_tuple), "eta": eta, "index": index},
    )
    return WitnessT(q, m, label, tuple(shift), eta, sig, cert)


# -- condition checkers ---------------------------------------------------------

def check_XY_conditions(
    alpha: AlphaFn, X: Subgroup, Y: Subgroup, full_scan: bool = False
) -> bool:
    """True iff alpha(x t) = alpha(t) for x in X and alpha(t y) = alpha(t)^y
    for y in Y, i.e. X x Y is inside the stabilizer.

    Generator checks suffice: both conditions compose along products.  The
    full scan is kept for cross-validation.
    """
    T = alpha.T
    a = alpha.values
    t = np.arange(T.order)
    xs = X.members if full_scan else X.generating_set()
    ys = Y.members if full_scan else Y.generating_set()
    for x in xs:
        if not np.array_equal(a[T.product(x, t)], a):
            return False
    inv = T.inv
    for y in ys:
        if not np.array_equal(a[T.product(t, y)], T.product(inv[y], a, y)):
            return False
    return True


def check_wreath_conditions(alpha: AlphaFn, K: Subgroup) -> bool:
    """True iff alpha is left K-invariant, satisfies the swap symmetry
    alpha(t) = alpha(t^-1)^t, and is not identically 1."""
    T = alpha.T
    a = alpha.values
    t = np.arange(T.order)
    for k in K.generating_set():
        if not np.array_equal(a[T.product(k, t)], a):
            return False
    if not np.array_equal(T.product(T.inv, a[T.inv], t), a):
        return False
    return not alpha.is_identity()


def propagate_full_invariance(alpha: AlphaFn) -> bool:
    """Derive alpha == 1 from full T x T invariance by constraint propagation:
    left invariance forces constancy, the conjugation rule forces the constant
    into the (trivial) center."""
    T = alpha.T
    v = int(alpha.values[T.identity])
    if not np.all(alpha.values == v):
        return False
    cen = centralizer(T, v)
    if cen.order != T.order:
        return False
    return v == T.identity


@dataclass
class ObstructionReport:
    q: int
    centralizer_of_p1_trivial: bool
    cosets_have_involutions: bool
    dihedral_centers_trivial: bool
    dihedral_fingerprints: list[str]

    @property
    def all_pass(self) -> bool:
        return (
            self.centralizer_of_p1_trivial
            and self.cosets_have_involutions
            and self.dihedral_centers_trivial
        )


def obstruction_checks(T: GroupTable, P1: Subgroup) -> ObstructionReport:
    """The three finite ingredients blocking a stabilizer of shape P1 wr S_2.

    (a) no nontrivial element of T is centralized by all of P1;
    (b) every coset P1 s with s outside P1 contains an involution;
    (c) for every involution t outside P1, the group generated by
        P1 cap P1^t and t has trivial center.
    Only q even or q = 3 mod 4 qualify.
    """
    q = T.degree - 1
    if q % 2 == 1 and q % 4 != 3:
        raise WrongCongruenceError(f"q = {q} is 1 mod 4")
    gens = P1.generating_set()
    fixed = None
    for g in gens:
        C = centralizer(T, g)
        fixed = C if fixed is None else intersect(fixed, C)
    a_ok = fixed.order == 1
    b_ok = coset_involution_check(T, P1)
    c_ok = True
    fps = []
    for t in T.elements_of_order(2):
        t = int(t)
        if t in P1.member_set:
            continue
        I = intersect(P1, P1.conjugate(t))
        X = engine.generate(T, list(I.members) + [t])
        fps.append(str(engine.fingerprint(X)))
        if engine.center(X).order != 1:
            c_ok = False
    return ObstructionReport(q, a_ok, b_ok, c_ok, sorted(set(fps)))


# -- certificate replay ----------------------------------------------------------

def replay_certificate(cert: SubdegreeCertificate, T: GroupTable) -> int:
    """Recompute the certified value from the stored witness data."""
    from .atlas import find_named_subgroup, label_maximal

    w = cert.witness
    if w.get("construction") == "centralizer":
        gamma = int(w["gamma"])
        if cert.kind == "exact-stabilizer":
            return build_centralizer_fn(T, gamma, 2)[1].subdegree
        return (T.order // centralizer(T, gamma).order) ** cert.m
    construction = w.get("construction")
    if construction in ("coset-fn", "p1-product"):
        K = find_named_subgroup(T, w.get("label", "P1")).subgroup
        index = T.order // K.order
        shift = [int(s) for s in w["shift"]]
        D = wreath_sub(K) if construction == "coset-fn" else product_sub(K, K)
        if cert.kind == "exact-stabilizer":
            alpha = build_coset_fn(D, (0, shift[0], 0), eta=w.get("eta"))
            return stabilizer_subdegree(alpha, collect_members=False).subdegree
        if construction == "p1-product":
            # divisor certificate: the coset function over P1 x P1 exists
            if first_central_eta(T, d_t_cap_L(D, (0, shift[0], 0))) is None:
                raise AssertionError("stored shift no longer yields a central element")
            return 2 * index**2
        if not label_maximal(cert.q, w["label"]):
            raise AssertionError(f"Lemma 2.6 needs {w['label']} maximal at q = {cert.q}")
        m = cert.m
        if "t_tuple" in w:
            t_tuple = tuple(int(x) for x in w["t_tuple"])
        elif len(shift) == 1:
            t_tuple = tuple([T.identity] * (m - 1) + [shift[0]])
        else:
            t_tuple = tuple([T.identity] * (m - 3) + [shift[0], shift[0], shift[1]])
        mem = filter_L_members(T, K, t_tuple)
        eta = int(w["eta"])
        if eta == T.identity or all(x != eta for (x, _) in mem) or not _is_central(T, eta, mem):
            raise AssertionError("stored eta is no longer central")
        return index**m
    raise ValueError(f"unknown certificate witness {w!r}")
