"""H = T wr S_m, its diagonal subgroup L, and the function-space action.

Elements of H are (t_1,...,t_m)sigma with sigma permuting coordinates before
the pointwise product: (t sigma)(u tau) = (t_j * u_{j^sigma})_j (sigma tau).
For m = 2 an element is the compact triple (a, b, k) with k the swap bit.

A function f in the twisted function space N is represented for m = 2 by
the array alpha with alpha(t) = f((t, 1)); then
f((t1,t2)iota^k) = alpha(t1 t2^-1) conjugated by t2, and the H-action
becomes an action on alpha arrays, one formula per swap bit.  act_alpha
applies it to one function; act_alpha_batch applies the same two formulas
to a (B, n) array of functions, one element per row, and w2_product,
AlphaFn.evaluate and check_XY_conditions accept index arrays or rows the
same way.  Point stabilizers H_f are computed exactly for m = 2 by
anchoring on the values of alpha: the members with a given (y, k) form one
coset of the left stabilizer Lambda or none, and an anchor value names the
candidate cosets, so none is missed.  Only generators are checked with
act_alpha: a candidate is verified only when the closure (for Lambda) or the
coset orbit (for the (y, k)) of the elements verified so far does not
already hold it, so every counted member is a product of verified elements.
A result keeps H_f as its order and cosets, not as a member list: H_f = D
for a subgroup D of one of the two WreathSub2 shapes, K x K and K wr S_2
over one K, follows from D's generators fixing f (inside_stabilizer) and
|D| = |H_f|.  build_coset_fn checks D's generators, so
exact_coset_certificate, the one exact certificate of a coset function,
scans once and compares orders.  The orbit space N is never materialized.  For m >= 3 only subdegree
certificates are produced, from computations inside L (|L| = |T| m!).

The Lemma 2.6 witness for K wr S_m comes from one search for every m,
find_witness_t, over one candidate order of t: (1,...,1,s) over the coset
representatives s of K; for m = 3, (1,a,b) over pairs of them; for m >= 6,
(1,...,1,r,r,s) over pairs; for m >= 4, (1,...,1,r,r,s) from the C2 triple
intersection.  The first t whose D^t cap L has a central (eta,...,eta)sigma
with eta != 1 is kept, and replay rebuilds t from the certificate alone.
The members of D^t cap L never form a per-member list: filter_L_members
groups them as (sigma, xs), one sorted index array per sigma, computed once
per distinct set of pairs (t_j, t_(j sigma)); d_t_cap_L is its m = 2 form,
with the sigma = 1 group alone for K x K.  central_members yields the
central groups lazily: one product for the T-parts, then one array pass
per group that holds a central T-part, only when the next group is asked
for.  Search, replay, build_coset_fn and p1_product_divisor share it, and
each takes the first group or asks whether one exists.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from itertools import chain, permutations, product

import numpy as np

from .engine import (
    CHUNK_ENTRIES,
    GroupTable,
    IsoFingerprint,
    Subgroup,
    centralizer,
    intersect,
    member_mask,
    unique,
)
from .atlas import (
    IntersectionWitness,
    coset_involution_check,
    find_named_subgroup,
    label_maximal,
    search_triple_intersection,
)
from . import engine

FULL_ENUM_CAP = 3_000_000
# the largest arity m: filter_L_members lists all m! sigma-groups, which
# peak near 2 GB at m = 10, and a value |T : K|^m grows past reach with m
MAX_M = 10


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

def w2_product(T: GroupTable, u, v):
    """u v for triples of ints and index arrays broadcast together; an int
    acts as a 0-d array."""
    a, b, k = u
    c, d, l = v
    swap = np.asarray(k) == 1
    return (T.product(a, np.where(swap, d, c)), T.product(b, np.where(swap, c, d)),
            np.where(swap, 1 - np.asarray(l), l))


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
    # three points per block: each block's images determine its T-part
    return GroupTable.from_generators(2 * d, tuple(gens), (0, 1, 2, d, d + 1, d + 2), n2)


def wreath_perms(T: GroupTable, triples) -> np.ndarray:
    """The block permutations of wreath_full_table for m = 2 triples
    (a, b, k), one row each: a moves the first block and b the second, and
    k = 1 then swaps the two blocks."""
    a, b, k = np.asarray(triples, dtype=np.int64).reshape(-1, 3).T
    d, k = T.degree, k[:, None]
    return np.concatenate([T.elements[a] + d * k, T.elements[b] + d * (1 - k)], axis=1)


def wreath_triples(T: GroupTable, perms) -> np.ndarray:
    """The (a, b, k) rows of block permutations; inverse of wreath_perms."""
    perms = np.asarray(perms, dtype=np.int64)
    d = T.degree
    k = (perms[:, :1] >= d).astype(np.int64)  # the swap bit, as a column
    a, b = T.index(perms[:, :d] - d * k), T.index(perms[:, d:] - d * (1 - k))
    return np.stack([a, b, k[:, 0]], axis=1)


# -- structured subgroups of H (m = 2) ----------------------------------------

@dataclass
class WreathSub2:
    """A subgroup of T wr S_2 in one of the shapes the engine constructs:
    kind "product" is K x K (no swap part), kind "wreath" is K wr S_2."""

    T: GroupTable
    kind: str
    K: Subgroup

    @property
    def order(self) -> int:
        return self.K.order**2 * (2 if self.kind == "wreath" else 1)

    def generators(self) -> list[tuple[int, int, int]]:
        gens = self.K.generating_set()
        out = [(g, 0, 0) for g in gens] + [(0, g, 0) for g in gens]
        return out + [(0, 0, 1)] if self.kind == "wreath" else out


def product_sub(K: Subgroup) -> WreathSub2:
    return WreathSub2(K.parent, "product", K)


def wreath_sub(K: Subgroup) -> WreathSub2:
    return WreathSub2(K.parent, "wreath", K)


def inside_stabilizer(D: WreathSub2, alpha: "AlphaFn") -> bool:
    """True iff every generator of D fixes alpha, i.e. D lies in H_f.  With
    |D| = |H_f| (stabilizer_subdegree) this proves H_f = D by Lagrange."""
    return all(act_alpha(alpha, g) == alpha for g in D.generators())


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

    def evaluate(self, u):
        """f at wreath elements (a, b, k): alpha(a b^-1) conjugated by b, at
        each pair of a and b broadcast together."""
        T = self.T
        a, b, _ = u
        binv = T.inv[b]
        return T.product(binv, self.values[T.product(a, binv)], b)


def identity_alpha(T: GroupTable) -> AlphaFn:
    return AlphaFn(T, np.full(T.order, T.identity, dtype=np.int64))


def random_alpha(T: GroupTable, rng) -> AlphaFn:
    """A uniform alpha; `rng` has numpy's integers(low, high, size)."""
    return AlphaFn(T, rng.integers(0, T.order, T.order))


def act_alpha(alpha: AlphaFn, h) -> AlphaFn:
    """The image of f under h in H: (f^h)(z) = f(hz), expressed on alpha.

    For h = (x, y):      alpha'(t) = alpha(x t y^-1) ^ y
    For h = (x, y) iota: alpha'(t) = alpha(x t^-1 y^-1) ^ (y t)

    One element at a time; act_alpha_batch acts on many functions at once
    through the same two formulas.
    """
    x, y, k = h
    return AlphaFn(alpha.T, _act(alpha.T, alpha.values, x, y, k))


def act_alpha_batch(T: GroupTable, values: np.ndarray, h) -> np.ndarray:
    """act_alpha over a batch: row i of the (B, n) alpha values under the
    element (x_i, y_i, k_i), with h = (xs, ys, ks) three length-B index
    arrays.  The rows of each swap bit go through act_alpha's formula."""
    xs, ys, ks = (np.asarray(z) for z in h)
    out = np.empty_like(values)
    for k in (0, 1):
        rows = np.flatnonzero(ks == k)
        out[rows] = _act(T, values[rows], xs[rows, None], ys[rows, None], k)
    return out


def _act(T: GroupTable, a: np.ndarray, x, y, k) -> np.ndarray:
    """The alpha values a, of shape (n,) or (B, n), under (x, y, k): one swap
    bit k, with x and y ints or (B, 1) columns."""
    inv = T.inv
    yinv = inv[y]
    t = np.arange(T.order)
    if k == 0:
        vals = _gather(a, T.product(x, t, yinv))  # alpha(x t y^-1) over t
        return T.product(yinv, vals, y)
    vals = _gather(a, T.product(x, inv, yinv))  # alpha(x t^-1 y^-1) over t
    return T.product(inv, yinv, vals, y, t)  # (y t)^-1 vals (y t)


def _gather(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """a[idx] for one function; row by row for a batch."""
    return a[idx] if a.ndim == 1 else np.take_along_axis(a, idx, axis=1)


@dataclass
class StabilizerResult:
    """|H : H_f| and |H_f|, with H_f kept as the right cosets Lambda x_0 of
    Lambda = {x : (x, 1, 0) in H_f}, one per found (x_0, y, k) in (y, k)
    order.  lam is Lambda as a sorted index array, the closure of verified
    elements; each (x_0, y, k) is a product of verified elements."""

    subdegree: int
    stabilizer_order: int
    T: GroupTable
    lam: np.ndarray
    found: list[tuple[int, int, int]]


def stabilizer_subdegree(alpha: AlphaFn) -> StabilizerResult:
    """Exact |H : H_f| for H = T wr S_2, from elements verified with act_alpha.

    Let Lambda = {x : (x, 1, 0) fixes f}.  For fixed (y, k) the members
    (x, y, k) form one right coset Lambda x_0 or none: the quotient of two
    of them is (x' x^-1, 1, 0).  At an anchor point s_0 with v_0 = alpha(s_0)
    a member satisfies
        straight: alpha(x s_0 y^-1)   = y v_0 y^-1,
        swap:     alpha(x s_0^-1 y^-1) = (y s_0) v_0 (y s_0)^-1,
    so x = p y s_0^(-/+1) with p in the fiber of the required value, and
    p -> lambda p moves x to lambda x.  One p per Lambda-coset of the fiber
    therefore reaches every coset Lambda x_0: no member is missed.  The
    candidates are filtered on further anchor points by the same identities:
    64 evenly spaced points, rarest value class first (a common value lets
    more non-members pass), in chunks of 8 until a chunk removes none.  A
    filter match alone never makes a member.

    Only generators are verified.  Every element of Lambda is a candidate
    with y = 1, so Lambda is the closure of the candidates verified in turn,
    each only when it lies outside the closure of those before it.  The
    (y, k) that hold a member form the orbit of the trivial right coset of
    T x 1 under H_f, on 2|T| points: a survivor is verified only when its
    (y, k) is outside the orbit of the elements verified so far (Lambda's
    generators included), and each pass regrows the orbit.  The orbit
    carries an x_0 to each point, so (x_0, y, k) and every counted member
    (lambda x_0, y, k) are products of verified elements, and
    |H_f| = |Lambda| |orbit|.  Temporaries are proportional to the candidate
    count and to |T|; found comes in (y, k) order.
    """
    T = alpha.T
    n = T.order
    inv = T.inv
    a = alpha.values
    everyone = np.arange(n)
    # anchor on the value class c minimizing |alpha^-1(c)| * |C_T(v)|
    cls = T.class_labels
    hits = np.bincount(cls[a], minlength=n)
    present = np.flatnonzero(hits)
    c = present[np.argmin(hits[present] * (n // np.bincount(cls, minlength=n)[present]))]
    s0 = int(np.flatnonzero(cls[a] == c)[0])
    v0 = int(a[s0])
    anchors = np.linspace(0, n - 1, 64).astype(np.int64)
    chunks = anchors[np.argsort(hits[cls[a[anchors]]], kind="stable")].reshape(8, 8)

    def survivors(xs, ys, ks):
        for chunk in chunks[:, :, None]:  # one row per anchor point s
            u = np.where(ks == 0, ys, T.product(ys, chunk))  # y, resp. y s
            w = T.product(xs, np.where(ks == 0, chunk, inv[chunk]), inv[ys])
            keep = (a[w] == T.product(u, a[chunk], inv[u])).all(axis=0)
            if keep.all():
                break
            xs, ys, ks = xs[keep], ys[keep], ks[keep]
        return xs, ys, ks

    fiber = np.flatnonzero(a == v0)
    zeros = np.zeros(len(fiber), dtype=np.int64)
    xs = survivors(T.product(fiber, inv[s0]), zeros, zeros)[0]
    gens: list[tuple[int, int, int]] = []  # every element verified to fix f
    in_lam = everyone == T.identity
    for x in xs.tolist():  # verify each candidate outside the closure so far
        if not in_lam[x] and act_alpha(alpha, (x, 0, 0)) == alpha:
            gens.append((x, 0, 0))
            engine._extend(T, in_lam, [g for g, _, _ in gens])
    lam = np.flatnonzero(in_lam)
    # one representative per coset Lambda p inside the fiber of class c, a
    # union of such cosets: alpha(lambda t) = alpha(t) for lambda in Lambda
    reps = np.array(engine.coset_representatives(T, Subgroup(T, lam), cls[a] == c))
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
    cand = survivors(*(np.concatenate(z) for z in zip(*parts)))
    # x0[2 y + k] is the x_0 carried to orbit point (y, k), -1 off the orbit
    x0 = np.full(2 * n, -1, dtype=np.int64)
    x0[2 * T.identity] = T.identity
    _grow_coset_orbit(T, x0, gens, np.array([2 * T.identity]), gens)
    for h in zip(*(z.tolist() for z in cand)):  # verify each survivor off the orbit so far
        if x0[2 * h[1] + h[2]] < 0 and act_alpha(alpha, h) == alpha:
            gens.append(h)
            _grow_coset_orbit(T, x0, gens, np.flatnonzero(x0 >= 0), [h])
    orbit = np.flatnonzero(x0 >= 0)
    found = list(zip(x0[orbit].tolist(), (orbit // 2).tolist(), (orbit % 2).tolist()))
    count = len(found) * len(lam)
    order_h = 2 * n * n
    if order_h % count != 0:
        raise AssertionError("stabilizer order does not divide |H|")
    return StabilizerResult(order_h // count, count, T, lam, found)


def _grow_coset_orbit(T: GroupTable, x0: np.ndarray, gens, frontier: np.ndarray, step) -> None:
    """Grow the orbit held in x0 (see stabilizer_subdegree) level by level:
    the first level applies the elements `step` to the points `frontier`,
    later levels apply all of `gens` to the points just reached, in one
    product per level.  Right multiplication by (c, d, l) sends (x_0, y, 0)
    to (x_0 c, y d, l) and (x_0, y, 1) to (x_0 d, y c, 1 - l)."""
    while len(frontier) and step:
        g = tuple(np.array(z)[:, None] for z in zip(*step))  # one row per generator
        x, y, k = w2_product(T, (x0[frontier], frontier // 2, frontier % 2), g)
        points = 2 * y + k
        new = x0[points] < 0
        for row in range(len(points) - 1, -1, -1):  # the first generator to reach a point sets x_0
            x0[points[row, new[row]]] = x[row, new[row]]
        frontier = unique(points[new])
        step = gens


# -- coset functions (the explicit orbit representatives) ----------------------

def d_t_cap_L(D: WreathSub2, t) -> list[tuple[tuple, np.ndarray]]:
    """Members of D^t cap L for t = (t1, t2, 0), grouped as in
    filter_L_members: sigma = (0, 1) for the swap bit k = 0 and (1, 0) for
    k = 1.  K x K is the sigma = 1 part of K wr S_2, so it keeps that group
    alone."""
    groups = filter_L_members(D.T, D.K, t[:2])
    return groups if D.kind == "wreath" else [(sig, xs) for sig, xs in groups if sig == (0, 1)]


def central_members(T: GroupTable, groups):
    """The central members of a subgroup of L, given as a list of groups
    (sigma, xs) and yielded lazily as such groups in (sigma, x) order: L is
    T x S_m, so (x, sigma) is central iff x commutes with every T-part and
    sigma with every S_m-part.  Only x != 1 is kept; empty groups are skipped.

    The T-parts form a subgroup P, and each x in P is tested against all of
    P in one chunked |P| x |P| product.  A group's sigma is tested against
    every S_m-part in one array pass, once the group is asked for and holds
    a central x."""
    parts = unique(np.concatenate([xs for _, xs in groups]))
    central = np.zeros(T.order, dtype=bool)
    step = max(1, CHUNK_ENTRIES // len(parts))  # rows x per chunk
    for xs in np.split(parts, range(step, len(parts), step)):
        central[xs] = T.commutes_with(xs[:, None], parts).all(axis=1)
    central[T.identity] = False
    taus = None
    for sig, xs in groups:
        xs = xs[central[xs]]
        if not len(xs):
            continue
        if taus is None:
            taus = np.array([tau for tau, _ in groups], dtype=np.int8)
        s = np.array(sig, dtype=np.int8)
        if (taus[:, s] == s[taus]).all():  # sigma tau = tau sigma as point images, every tau
            yield sig, xs


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
    found = central_members(T, d_t_cap_L(D, t))
    if eta is None:
        eta = next((int(xs[0]) for _, xs in found), None)
        if eta is None:
            raise NotCentralError("Z(D^t cap L) has no element with nontrivial part")
    elif not any(eta in xs for _, xs in found):
        raise NotCentralError("supplied eta is not a central member part")
    inv = T.inv
    n = T.order
    t1, t2, _ = t
    values = np.full(n, T.identity, dtype=np.int64)
    assigned = np.zeros(n, dtype=bool)
    # the point (a, 1) lies in D t (x, x, k) iff a x^-1 t1^-1 in K and
    # x^-1 t2^-1 in K (k = 0), i.e. x in t2^-1 K and a = k1 t1 x; the
    # swapped shape gives x in t1^-1 K and a = k1 t2 x
    K = D.K.members
    step = max(1, CHUNK_ENTRIES // len(K))  # rows k1 per chunk
    for u1, u2 in [(t1, t2)] if D.kind == "product" else [(t1, t2), (t2, t1)]:
        xs = T.product(inv[u2], K)
        vals = T.product(inv[xs], eta, xs)  # x^-1 eta x
        for i in range(0, len(K), step):
            points = T.product(K[i : i + step, None], u1, xs)
            # a clash with an earlier chunk, then one inside this chunk
            clash = assigned[points] & (values[points] != vals)
            values[points] = vals
            assigned[points] = True
            clash |= values[points] != vals
            if clash.any():
                raise InconsistentFunctionError(
                    f"conflicting values at point {int(points[clash][0])}"
                )
    alpha = AlphaFn(T, values)
    if alpha.is_identity():
        raise AssertionError("coset function collapsed to the identity")
    if not inside_stabilizer(D, alpha):
        raise AssertionError("D is not contained in the stabilizer")
    return alpha


def p1_product_divisor(P1: Subgroup, s: int) -> int:
    """2|T : P1|^2, which the subdegree of the coset function over P1 x P1
    at t = (1, s) divides; raises NotCentralError when Z(D^t cap L) gives
    no such function."""
    T = P1.parent
    if next(central_members(T, d_t_cap_L(product_sub(P1), (0, s, 0))), None) is None:
        raise NotCentralError("no central element over P1 x P1")
    return 2 * (T.order // P1.order) ** 2


def build_centralizer_fn(T: GroupTable, gamma: int):
    """Certificate that the square of a class size is an exact subdegree.

    The function alpha(a) = gamma on C = C_T(gamma), identity elsewhere, is
    materialized and its stabilizer shown to be exactly C wr S_2; returns
    alpha, the scan and the certificate.
    """
    C = centralizer(T, gamma)
    cert = class_certificate(C, gamma, 2, "exact-stabilizer")  # refuses gamma = 1
    values = np.full(T.order, T.identity, dtype=np.int64)
    values[C.members] = gamma
    alpha = AlphaFn(T, values)
    res = stabilizer_subdegree(alpha)
    D = wreath_sub(C)
    if not (inside_stabilizer(D, alpha) and res.stabilizer_order == D.order):
        raise AssertionError("stabilizer is not the centralizer wreath")
    return alpha, res, cert


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


def class_certificate(C: Subgroup, gamma: int, m: int, kind: str = "lemma-2.10-class"):
    """|T : C|^m for C = C_T(gamma), the m-th power of the class size of
    gamma; gamma = 1 would give the trivial value 1, and is refused."""
    T = C.parent
    if gamma == T.identity:
        raise TrivialElementError("gamma must be nontrivial")
    return SubdegreeCertificate(
        T.degree - 1, m, kind, (T.order // C.order) ** m,
        {"construction": "centralizer", "gamma": gamma, "centralizer_order": C.order},
    )


def exact_coset_certificate(D: WreathSub2, witness: dict):
    """(certificate, alpha, H_f = D) for the coset function of D at
    t = (1, shift), with the witness's eta or, without one, the first central
    eta.  The certificate is the exact-stabilizer subdegree with a copy of
    the witness.  build_coset_fn has proven D <= H_f, so H_f = D iff
    |H_f| = |D|."""
    T = D.T
    alpha = build_coset_fn(D, (T.identity, int(witness["shift"][0]), 0), eta=witness.get("eta"))
    res = stabilizer_subdegree(alpha)
    cert = SubdegreeCertificate(T.degree - 1, 2, "exact-stabilizer", res.subdegree, dict(witness))
    return cert, alpha, res.stabilizer_order == D.order


def witness_candidates(T: GroupTable, K: Subgroup, m: int, shifts=None):
    """The candidates (shift, t) of the witness search, in order:
    1. t = (1,...,1,s) over the coset representatives s of K, or `shifts`;
    2. m = 3: t = (1,a,b) over all pairs of representatives;
    3. m >= 6: t = (1,...,1,r,r,s) over all pairs of representatives;
    4. m >= 4: t = (1,...,1,r,r,s) with K cap K^r cap K^s = C2 (Theorem 4.2).
    `shift` holds the free entries of the shape.  Candidates are made lazily,
    so a witness found early skips the later searches.
    """

    def t(*tail):
        return (T.identity,) * (m - len(tail)) + tail

    for s in engine.coset_representatives(T, K) if shifts is None else shifts:
        yield (s,), t(s)
    if m == 3:
        for a, b in product(engine.coset_representatives(T, K), repeat=2):
            yield (a, b), t(a, b)
    if m >= 6:
        for r, s in product(engine.coset_representatives(T, K), repeat=2):
            yield (r, s), t(r, r, s)
    if m >= 4:
        trip = search_triple_intersection(T, K, IsoFingerprint.cyclic(2))
        if isinstance(trip, IntersectionWitness):
            r, s = trip.elements
            yield (r, s), t(r, r, s)


def find_witness_t(
    T: GroupTable,
    K: Subgroup,
    m: int,
    label: str = "",
    maximal: bool = True,
    shifts: list[int] | None = None,
) -> SubdegreeCertificate | None:
    """The Lemma 2.6 certificate |T : K|^m from the first candidate t of
    `witness_candidates` for which D^t cap L, D = K wr S_m, has a central
    element (eta,...,eta)sigma with eta != 1; None if every candidate fails.
    """
    if maximal and not engine.is_maximal(T, K):
        raise engine.NotMaximalError("K must be maximal in T")
    index = T.order // K.order
    for shift, t_tuple in witness_candidates(T, K, m, shifts):
        found = next(central_members(T, filter_L_members(T, K, t_tuple)), None)
        if found is not None:
            witness = {"construction": "coset-fn", "label": label, "shift": list(shift)}
            if m > 2:
                witness["t_tuple"] = list(t_tuple)
            witness |= {"eta": int(found[1][0]), "index": index}
            return SubdegreeCertificate(T.degree - 1, m, "lemma-2.6-witness", index**m, witness)
    return None


def filter_L_members(T: GroupTable, K: Subgroup, t_tuple) -> list[tuple[tuple, np.ndarray]]:
    """Members of (K wr S_m)^t cap L for t = (t_1,...,t_m), grouped as
    (sigma, xs): sigma in lexicographic order, xs the sorted x with
    (x,...,x)sigma a member; a sigma without members is left out.

    (x,...,x)sigma is a member iff t_j x t_(j sigma)^-1 lies in K for every
    j, that is x in t_j^-1 K t_(j sigma), so its xs are the intersection of
    these |K|-element sets over the set of pairs (t_j, t_(j sigma)).  The
    search's t-tuples have at most 3 distinct entries, so the m! permutations
    share a handful of pair sets; each is computed once, and its sigmas
    share one xs array.
    """
    # u^-1 K v, sorted: the x with u x v^-1 in K
    coset = functools.cache(lambda u, v: np.sort(T.product(T.inv[u], K.members, v)))

    @functools.cache
    def xs_of(pairs: frozenset) -> np.ndarray:
        first, *rest = (coset(u, v) for u, v in pairs)
        return functools.reduce(
            lambda xs, ys: np.intersect1d(xs, ys, assume_unique=True), rest, first
        )

    # permutations(t_tuple) yields the images (t_(1 sigma), ..., t_(m sigma))
    # in the order of permutations(range(m)); repeated images share a lookup
    images = functools.cache(lambda image: xs_of(frozenset(zip(t_tuple, image))))
    groups = zip(permutations(range(len(t_tuple))), map(images, permutations(t_tuple)))
    return [(sig, xs) for sig, xs in groups if len(xs)]


# -- condition checkers ---------------------------------------------------------

def check_XY_conditions(alpha, X: Subgroup, Y: Subgroup, full_scan: bool = False):
    """True iff alpha(x t) = alpha(t) for x in X and alpha(t y) = alpha(t)^y
    for y in Y, i.e. X x Y is inside the stabilizer.  For a (B, n) array of
    alpha values in place of an AlphaFn, the mask of the rows that qualify.

    Generator checks suffice: both conditions compose along products.  The
    full scan is kept for cross-validation.
    """
    T = X.parent
    a = alpha.values if isinstance(alpha, AlphaFn) else alpha
    t = np.arange(T.order)
    xs = X.members if full_scan else X.generating_set()
    ys = Y.members if full_scan else Y.generating_set()
    inv = T.inv
    conditions = chain(  # (points p, values that alpha must take at p)
        ((T.product(x, t), a) for x in xs),
        ((T.product(t, y), T.product(inv[y], a, y)) for y in ys),
    )
    ok = np.ones(a.shape[:-1], dtype=bool)
    for points, values in conditions:
        ok &= (a[..., points] == values).all(axis=-1)
        if not ok.any():
            break
    return bool(ok) if a.ndim == 1 else ok


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

    (c) is tested on one t per orbit of P1 acting by conjugation on the
    involutions outside P1, the orbit's smallest index.  This is exact: for
    p in P1, P1^p = P1, so P1 cap P1^(t^p) = (P1 cap P1^t)^p and the group
    for t^p is the p-conjugate of the group for t, with the same
    fingerprint and the same center order; and t^p lies outside P1 exactly
    when t does.  The verdict and the fingerprint set are those of the
    every-involution loop.
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
    invs = T.elements_of_order(2)
    outside = invs[~member_mask(P1)[invs]]
    for orbit in engine.conjugation_orbits(T, outside, P1):
        t = int(orbit[0])
        I = intersect(P1, P1.conjugate(t))
        X = engine.generate(T, list(I.members) + [t])
        fps.append(str(engine.fingerprint(X)))
        if engine.center(X).order != 1:
            c_ok = False
    return ObstructionReport(q, a_ok, b_ok, c_ok, sorted(set(fps)))


# -- certificate replay ----------------------------------------------------------

def replay_certificate(cert: SubdegreeCertificate, T: GroupTable) -> int:
    """Recompute the certified value from the stored witness data."""
    w = cert.witness
    # an exact scan and the P1 x P1 divisor exist at m = 2 only, and no
    # certificate is defined below m = 2 or built above MAX_M
    if cert.m > MAX_M:
        raise AssertionError(f"m = {cert.m} is above MAX_M = {MAX_M}")
    if cert.m < 2 or cert.m != 2 and cert.kind in ("exact-stabilizer", "lemma-4.3-divisor"):
        raise AssertionError(f"no {cert.kind} certificate has m = {cert.m}")
    # numpy wraps a negative index around, so every stored element index is
    # checked against T before any construction runs
    for key in ("gamma", "shift", "eta", "t_tuple"):
        if key in w:
            entries = w[key] if isinstance(w[key], list) else [w[key]]
            count = f"m = {cert.m} " if key == "t_tuple" else ""
            if count and len(entries) != cert.m or not all(0 <= int(x) < T.order for x in entries):
                raise AssertionError(f"{key} must hold {count}elements of T")
    construction = w.get("construction")
    if construction == "centralizer":
        gamma = int(w["gamma"])
        if cert.kind == "exact-stabilizer":
            return build_centralizer_fn(T, gamma)[1].subdegree
        return class_certificate(centralizer(T, gamma), gamma, cert.m).value
    if construction in ("coset-fn", "p1-product"):
        K = find_named_subgroup(T, w.get("label", "P1")).subgroup
        shift = [int(s) for s in w["shift"]]
        if cert.kind == "exact-stabilizer":
            D = wreath_sub(K) if construction == "coset-fn" else product_sub(K)
            return exact_coset_certificate(D, w)[0].value
        if construction == "p1-product":
            return p1_product_divisor(K, shift[0])
        if not label_maximal(cert.q, w["label"]):
            raise AssertionError(f"Lemma 2.6 needs {w['label']} maximal at q = {cert.q}")
        m = cert.m
        t_tuple = tuple(int(x) for x in w["t_tuple"]) if m > 2 else (T.identity, shift[0])
        eta = int(w["eta"])
        if not any(eta in xs for _, xs in central_members(T, filter_L_members(T, K, t_tuple))):
            raise AssertionError("stored eta is no longer central")
        return (T.order // K.order) ** m
    raise ValueError(f"unknown certificate witness {w!r}")
