"""Generic algorithms on fully enumerated permutation groups.

A GroupTable stores every element of a finite permutation group as a row of
point images in a small-int (n, degree) array, in deterministic BFS order
from a fixed generator list.  A base, a list of points whose images
determine an element, is named by the caller, and a dense lookup with one
axis per base point maps an element's base images to its BFS index; the BFS
fills it a level at a time and uses it to tell new elements.  The
product g h is then read off without a multiplication table: h's row
carries g's base images to those of g h.  Products broadcast over index
arrays, so the algorithms below work in batches.  One routine grows right
cosets S r a BFS level at a time (Dimino's algorithm): a join <S, gens>
from a known subgroup S, or from the trivial one, whose cosets are its
elements, and each double coset M s M of is_maximal.  Conjugation orbits,
coset representatives and commutation tests cover many elements in one
product, at most CHUNK_ENTRIES entries for the coset representatives.  A
join that only has to tell whether it is G stops at Lagrange's bound,
join_cap.  Subgroups are sorted index lists into their parent table.  All
operations are pure functions over this immutable data; scans over the
element range can be partitioned freely without changing results.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import gcd, isqrt

import numpy as np

Perm = tuple[int, ...]

CHUNK_ENTRIES = 1 << 16  # entries of one batch of products, which bounds the temporaries


class ParentMismatchError(ValueError):
    pass


class NotMaximalError(ValueError):
    pass


class NoSuchSubgroupError(ValueError):
    pass


class GroupTable:
    """A fully enumerated permutation group with base-image arithmetic."""

    def __init__(self, degree: int, elements: np.ndarray, generators: list[int],
                 base: tuple[int, ...], lookup: np.ndarray):
        self.degree = degree
        self.elements = elements
        self.generators = generators
        self.order = len(elements)
        self.base = list(base)
        self._flat = elements.ravel()
        self._base_columns = tuple(np.ascontiguousarray(elements[:, b]) for b in self.base)
        self._lookup = lookup

    @classmethod
    def from_generators(cls, degree: int, gens: tuple[Perm, ...], base: tuple[int, ...],
                        order: int) -> "GroupTable":
        """BFS closure from the identity; FIFO queue, generators in order.

        `base` must be a base of the group and `order` its order.  A whole
        BFS level is expanded at once: its products with the generators,
        row-major over (element, generator), come in the order the FIFO queue
        visits them.  Each is keyed by the flat code of its base images; the
        first of each code that the lookup does not yet hold is new.  The
        lookup, one axis per base point, is in the smallest signed dtype
        holding every index and the -1 of "no element".
        """
        dtype = np.min_scalar_type(degree - 1)
        gen_rows = np.array(gens, dtype=dtype).reshape(len(gens), degree)
        elements = np.empty((order, degree), dtype=dtype)
        elements[0] = np.arange(degree)
        lookup = np.full((degree,) * len(base), -1, dtype=np.min_scalar_type(-order))
        flat_lookup = lookup.reshape(-1)
        lookup[tuple(base)] = 0
        start, end = 0, 1
        while start < end:
            level = elements[start:end]
            images = tuple(gen_rows.T[level[:, b]].reshape(-1) for b in base)
            codes = np.ravel_multi_index(images, lookup.shape)
            first = np.unique(codes, return_index=True)[1]  # stable: the first of each code
            first = np.sort(first[flat_lookup[codes[first]] < 0])
            codes = codes[first]
            if end + len(first) > order:
                raise ValueError(f"the generators give more than {order} elements")
            rows, cols = np.divmod(first, len(gens))
            elements[end:end + len(first)] = gen_rows[cols[:, None], level[rows]]
            flat_lookup[codes] = np.arange(end, end + len(first))
            start, end = end, end + len(first)
        if end != order:
            raise ValueError(f"the generators give {end} elements, not {order}")
        gen_index = lookup[tuple(gen_rows[:, b] for b in base)]
        return cls(degree, elements, gen_index.tolist(), base, lookup)

    # -- element arithmetic

    @property
    def identity(self) -> int:
        return 0

    def product(self, *factors) -> np.ndarray:
        """The products f_0 f_1 ... f_k of ints and index arrays broadcast
        together.  Each base point's image under f_0 is carried through the
        later factors by one flat gather from their rows."""
        images = [column[factors[0]] for column in self._base_columns]
        for f in factors[1:]:
            rows = np.asarray(f, dtype=np.intp) * self.degree
            images = [self._flat[rows + img] for img in images]
        return self._lookup[tuple(images)].astype(np.int64)

    def mul(self, i: int, j: int) -> int:
        """product(i, j) for two elements, in fewer numpy calls."""
        row = int(j) * self.degree
        return int(self._lookup[tuple(self._flat[row + int(c[i])] for c in self._base_columns)])

    def commutes_with(self, x, ys) -> np.ndarray:
        """Mask of the elements ys that commute with x."""
        return self.product(x, ys) == self.product(ys, x)

    def index(self, perms) -> np.ndarray:
        """BFS indices of permutations given as rows of point images."""
        rows = np.asarray(perms)
        found = self._lookup[tuple(rows[..., b] for b in self.base)].astype(np.int64)
        if not np.array_equal(self.elements[found], rows):
            raise KeyError("permutation outside the group")
        return found

    @cached_property
    def inv(self) -> np.ndarray:
        # g^-1 sends b to the point that g sends to b
        images = [np.argmax(self.elements == b, axis=1) for b in self.base]
        return self._lookup[tuple(images)].astype(np.int64)

    def inverse(self, i: int) -> int:
        return int(self.inv[i])

    @cached_property
    def orders(self) -> np.ndarray:
        """Element orders: round k multiplies g^(k-1) by g only for the
        elements g whose order is not yet known."""
        orders = np.zeros(self.order, dtype=np.int64)
        left = power = np.arange(self.order)
        k = 1
        while True:
            done = power == self.identity
            orders[left[done]] = k
            left, power = left[~done], power[~done]
            if not len(left):
                return orders
            power, k = self.product(power, left), k + 1

    @cached_property
    def class_labels(self) -> np.ndarray:
        """The smallest element of each element's conjugacy class, in the
        lookup's index dtype."""
        everyone = np.arange(self.order)
        labels = np.full(self.order, -1, dtype=self._lookup.dtype)
        for v in range(self.order):
            if labels[v] < 0:
                labels[self.product(everyone, v, self.inv)] = v
        return labels

    def elements_of_order(self, k: int) -> np.ndarray:
        return np.nonzero(self.orders == k)[0]

    def ensure_mul_table(self) -> None:
        """Kept, uncalled, as a name only: the benchmark's trace hooks
        (bench/tracing.py SPANS) still list it.  Products come from base
        images; no multiplication table is built."""

    def __repr__(self):
        return f"GroupTable(order={self.order}, degree={self.degree})"


def unique(a) -> np.ndarray:
    """The sorted distinct entries of `a`, flattened, as np.unique(a) gives
    them: one sort, then each entry that differs from the one before it.
    Plain np.unique first asks numpy.ma whether `a` is masked, and so
    imports numpy.ma into every process that calls it."""
    a = np.sort(np.asarray(a), axis=None)
    keep = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


class Subgroup:
    """A subgroup as a sorted member-index list into a parent GroupTable."""

    def __init__(self, parent: GroupTable, members):
        self.parent = parent
        if not isinstance(members, np.ndarray):
            members = np.fromiter(members, dtype=np.int64)
        members = np.asarray(members, dtype=np.int64)
        if not (np.diff(members) > 0).all():  # np.flatnonzero gives sorted members
            members = unique(members)
        self.members = members
        self.order = len(members)
        self._gens: list[int] | None = None

    @cached_property
    def member_set(self) -> frozenset:
        return frozenset(self.members.tolist())

    def __contains__(self, i: int) -> bool:
        return int(i) in self.member_set

    def __iter__(self):
        return iter(int(m) for m in self.members)

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.member_set == other.member_set
        )

    def __hash__(self):
        return hash((id(self.parent), self.member_set))

    def generating_set(self) -> list[int]:
        """A small generating set, grown greedily in member-index order: each
        member outside the closure of those before it, whose cosets then
        extend that closure."""
        if self._gens is None:
            gens: list[int] = []
            closed = np.arange(self.parent.order) == self.parent.identity
            for m in self.members.tolist():
                if not closed[m]:
                    gens.append(m)
                    if np.count_nonzero(_extend(self.parent, closed, gens)) == self.order:
                        break
            self._gens = gens
        return self._gens

    def conjugate(self, g: int) -> "Subgroup":
        G = self.parent
        return Subgroup(G, G.product(G.inverse(g), self.members, g))

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent!r})"


@dataclass(frozen=True)
class IsoFingerprint:
    """(order, element-order multiset, abelian flag) isomorphism surrogate."""

    order: int
    element_orders: tuple[tuple[int, int], ...]  # sorted (order, count)
    abelian: bool

    def __str__(self):
        body = ",".join(f"{o}^{c}" for o, c in self.element_orders)
        tag = "abelian" if self.abelian else "nonabelian"
        return f"({self.order};{body};{tag})"

    @staticmethod
    def cyclic(n: int) -> "IsoFingerprint":
        cnt = Counter()
        for d in range(1, n + 1):
            if n % d == 0:
                cnt[d] = sum(1 for k in range(1, d + 1) if gcd(k, d) == 1) if d > 1 else 1
        return IsoFingerprint(n, tuple(sorted(cnt.items())), True)

    @staticmethod
    def dihedral(n: int) -> "IsoFingerprint":
        """Dihedral group of order n (n even, n >= 4); D4 is the Klein four."""
        assert n % 2 == 0 and n >= 4
        m = n // 2
        cnt = Counter(dict(IsoFingerprint.cyclic(m).element_orders))
        cnt[2] += m  # reflections
        return IsoFingerprint(n, tuple(sorted(cnt.items())), m <= 2)

    @staticmethod
    def klein4() -> "IsoFingerprint":
        return IsoFingerprint.dihedral(4)

    @staticmethod
    def alt4() -> "IsoFingerprint":
        return IsoFingerprint(12, ((1, 1), (2, 3), (3, 8)), False)

    @staticmethod
    def sym4() -> "IsoFingerprint":
        return IsoFingerprint(24, ((1, 1), (2, 9), (3, 8), (4, 6)), False)

    @staticmethod
    def alt5() -> "IsoFingerprint":
        return IsoFingerprint(60, ((1, 1), (2, 15), (3, 20), (5, 24)), False)

    @staticmethod
    def sym3() -> "IsoFingerprint":
        return IsoFingerprint.dihedral(6)


def _grow_cosets(G: GroupTable, seen: np.ndarray, S: np.ndarray, start, gens,
                 cap: int | None = None) -> np.ndarray:
    """Mark in `seen`, a mask that is a union of right cosets of the subgroup
    with sorted members S, the cosets S r for r in `start` and for every r
    that right multiplication with `gens` and their inverses reaches from
    them, a whole BFS level at a time (Dimino's algorithm).

    Each reached r outside `seen` lies in a new coset S r, marked whole by
    one product, and the smallest member of each new coset represents it on
    the next level; the cosets of the trivial group are its elements, and
    take no product.  With a cap, growth stops as soon as more than `cap`
    elements are marked, and once a single coset more would pass it, only
    one more is marked.  A capped stop leaves `seen` partial, so only a
    caller that tests the cap may pass one.
    """
    gens = np.asarray(gens, dtype=np.int64)
    gens = np.concatenate([gens, G.inv[gens]])  # inverses shorten the BFS
    size = np.count_nonzero(seen)
    reached = np.zeros(G.order, dtype=bool)
    reached[start] = True
    while (cand := np.flatnonzero(reached & ~seen)).size:
        if cap is not None and size + len(S) > cap:
            cand = cand[:1]  # one more coset passes the cap
        if len(S) > 1:
            cosets = G.product(S[:, None], cand)  # column j is the coset S cand[j]
            seen[cosets] = True
            cand = unique(cosets.min(axis=0))  # the smallest member represents its coset
        seen[cand] = True
        size += len(S) * len(cand)
        if cap is not None and size > cap:
            break
        reached[:] = False
        reached[G.product(cand[:, None], gens)] = True
    return seen


def _extend(G: GroupTable, seen: np.ndarray, gens, cap: int | None = None) -> np.ndarray:
    """Mark in `seen`, the mask of a subgroup S that some of `gens`
    generate, the join <S, gens>: the right cosets S r grown from the
    generators and their inverses (see _grow_cosets for the cap)."""
    gens = np.asarray(gens, dtype=np.int64)
    return _grow_cosets(G, seen, np.flatnonzero(seen), np.concatenate([gens, G.inv[gens]]),
                        gens, cap)


def generate(
    parent: GroupTable, gens, known: Subgroup | None = None, cap: int | None = None,
) -> Subgroup | None:
    """Closure of a set of element indices under multiplication/inverse.

    The closure grows by cosets (see _extend) from `known`, a subgroup that
    some of `gens` generate, or else from the trivial subgroup.  With a
    cap, growth stops once more than `cap` elements are reached, and the
    result is then None.
    """
    start = np.arange(parent.order) == parent.identity if known is None else member_mask(known)
    seen = _extend(parent, start, list(gens), cap)
    members = np.flatnonzero(seen)
    if cap is not None and len(members) > cap:
        return None
    return Subgroup(parent, members)


def centralizer(G: GroupTable, g: int) -> Subgroup:
    return Subgroup(G, np.flatnonzero(G.commutes_with(g, np.arange(G.order))))


def normalizer(G: GroupTable, S: Subgroup) -> Subgroup:
    """All x with S^x = S, by full scan (generator conjugation suffices)."""
    if S.parent is not G:
        raise ParentMismatchError("subgroup not over this table")
    gens = S.generating_set()
    inS = member_mask(S)
    ok = np.ones(G.order, dtype=bool)
    everyone = np.arange(G.order)
    for s in gens:
        ok &= inS[G.product(G.inv, s, everyone)]  # x^-1 s x for every x
    return Subgroup(G, np.flatnonzero(ok))


def member_mask(S: Subgroup) -> np.ndarray:
    mask = np.zeros(S.parent.order, dtype=bool)
    mask[S.members] = True
    return mask


def conjugation_orbits(G: GroupTable, points, N: Subgroup) -> list[np.ndarray]:
    """Orbits of the subgroup N acting by conjugation on `points`, a set of
    element indices closed under that action.

    Each orbit is the sorted array of the conjugates n^-1 p n over every n
    in N of the smallest point p not yet covered, formed in one product, so
    its first entry is its smallest index; the orbits come in the order of
    those representatives.
    """
    points = unique(np.asarray(points, dtype=np.int64))
    inside = np.zeros(G.order, dtype=bool)
    inside[points] = True
    covered = np.zeros(G.order, dtype=bool)
    orbits = []
    for p in points.tolist():
        if covered[p]:
            continue
        orbit = unique(G.product(G.inv[N.members], p, N.members))
        if not inside[orbit].all():
            raise ValueError("points are not closed under conjugation by N")
        covered[orbit] = True
        orbits.append(orbit)
    return orbits


def intersect(A: Subgroup, B: Subgroup) -> Subgroup:
    if A.parent is not B.parent:
        raise ParentMismatchError("subgroups live in different parents")
    # members are sorted and distinct; this also keeps numpy.ma unimported
    return Subgroup(A.parent, np.intersect1d(A.members, B.members, assume_unique=True))


def center(S: Subgroup) -> Subgroup:
    G = S.parent
    central = np.ones(S.order, dtype=bool)
    for s in S.generating_set():
        central &= G.commutes_with(s, S.members)
    return Subgroup(G, S.members[central])


def fingerprint(S: Subgroup) -> IsoFingerprint:
    G = S.parent
    cnt = Counter(G.orders[S.members].tolist())
    gens = np.array(S.generating_set(), dtype=np.int64)
    abelian = bool(G.commutes_with(gens[:, None], gens).all())
    return IsoFingerprint(S.order, tuple(sorted(cnt.items())), abelian)


def join_cap(order: int, sub_order: int) -> int:
    """|G| / p for p the smallest prime dividing |G : S|, given |G| and |S|
    (|G| when S = G).  A subgroup strictly between S and G has an index in
    G that is greater than 1 and divides |G : S|, so it is at most this
    large: a join of S that passes the cap is G."""
    index = order // sub_order
    p = next((p for p in range(2, isqrt(index) + 1) if index % p == 0), index)
    return order // p


def is_maximal(G: GroupTable, M: Subgroup) -> bool:
    """True iff <M, g> = G for every g outside M.

    Only one representative per double coset MgM is tested: <M, g> depends
    on g only through MgM, which is marked off whole as the right cosets of
    M that right multiplication with the generators of M reaches from Mg.
    Each join stops once it passes join_cap, which only G does.
    """
    if M.parent is not G:
        raise ParentMismatchError("subgroup not over this table")
    if M.order == G.order:
        return False
    cached = getattr(M, "_maximal_cache", None)
    if cached is not None:
        return cached
    gens = M.generating_set()
    visited = member_mask(M)
    cap = join_cap(G.order, M.order)
    for s in range(G.order):
        if visited[s]:
            continue
        _grow_cosets(G, visited, M.members, [s], gens)  # the double coset M s M
        size = np.count_nonzero(_extend(G, member_mask(M), gens + [s], cap))
        if size <= cap:
            M._maximal_cache = False
            return False
    M._maximal_cache = True
    return True


def coset_representatives(
    T: GroupTable, S: Subgroup, within: np.ndarray | None = None
) -> list[int]:
    """Right-coset reps of S in T: the smallest element index per coset Sg,
    in increasing order; only the cosets inside `within`, a mask that is a
    union of right cosets of S, if given.  The cosets of a batch of
    uncovered elements are marked with one product, and each column minimum
    is the smallest element of its coset.  A batch holds at most
    CHUNK_ENTRIES // |S| elements, and no more than the cosets still
    uncovered: every |S|-th uncovered element."""
    covered = np.zeros(T.order, dtype=bool) if within is None else ~within
    reps = np.zeros(T.order, dtype=bool)
    most = max(1, CHUNK_ENTRIES // S.order)
    while (uncovered := np.flatnonzero(~covered)).size:
        # one element in |S|: as many as the cosets left, spread over them
        batch = uncovered[:: S.order][:most]
        cosets = T.product(S.members[:, None], batch)  # column j is the coset S batch[j]
        covered[cosets] = True
        reps[cosets.min(axis=0)] = True
    return np.flatnonzero(reps).tolist()


def count_conjugate_overgroups(T: GroupTable, K: Subgroup, R: Subgroup) -> int:
    """Number y of T-conjugates of K whose intersection with K contains R.

    Requires K maximal (so its normalizer is K itself in a simple parent);
    cross-checks the double-counting identity y = x * |N_T(R)| / |K| where
    x counts conjugates of R lying inside K, both sides computed directly.
    """
    if not is_maximal(T, K):
        raise NotMaximalError("K must be maximal in T")
    if not set(int(m) for m in R.members) <= K.member_set:
        raise ValueError("R must be a subgroup of K")
    NK = normalizer(T, K)
    if NK.member_set != K.member_set:
        raise AssertionError("normalizer of a maximal subgroup of a simple group is itself")
    inK = member_mask(K)
    rgens = R.generating_set()

    def count_inside(gs) -> int:
        """How many g in gs have g r g^-1 in K for every generator r of R."""
        gs = np.asarray(gs, dtype=np.int64)
        inside = np.ones(len(gs), dtype=bool)
        for r in rgens:
            inside &= inK[T.product(gs, r, T.inv[gs])]
        return int(np.count_nonzero(inside))

    # conjugates K^g are in bijection with right cosets Kg; R <= K^g is
    # g r g^-1 in K for the generators r of R
    y = count_inside(coset_representatives(T, K))
    NR = normalizer(T, R)
    # R^g lies in K when g^-1 r g does, one g per coset N_T(R) g
    x = count_inside(T.inv[coset_representatives(T, NR)])
    lhs = y * K.order
    rhs = x * NR.order
    if lhs != rhs:
        raise AssertionError(f"double counting identity failed: y|K|={lhs} != x|N(R)|={rhs}")
    return y


def dihedral_class_census(T: GroupTable, d: int) -> int:
    """Number of T-conjugacy classes of dihedral subgroups of order 2d.

    For d >= 3 a dihedral group D of order 2d holds exactly one cyclic
    subgroup C of order d, so two such D over the same C are T-conjugate
    iff they are N_T(C)-conjugate.  One C = <c> is taken per T-class of
    cyclic subgroups of order d.  Each involution j inverting c gives
    D = C u Cj, named by its smallest reflection.  An N_T(C)-orbit of such
    j meets every D of one class, so the classes over C are the distinct
    smallest names over the orbits.
    """
    q = T.degree - 1
    tori = [(q - 1) // gcd(2, q - 1), (q + 1) // gcd(2, q - 1)]
    if d <= 2 or not any(t % d == 0 for t in tori):
        raise NoSuchSubgroupError(f"no dihedral subgroup of order {2*d} for q={q}")
    invs = T.elements_of_order(2)
    labels = T.class_labels
    taken = np.zeros(T.order, dtype=bool)  # by class label: the generators of each C taken
    name = np.zeros(T.order, dtype=np.int64)
    classes = 0
    for c in T.elements_of_order(d).tolist():
        if taken[labels[c]]:
            continue
        C = generate(T, [c])
        taken[labels[C.members[T.orders[C.members] == d]]] = True
        J = invs[T.product(invs, c, invs) == T.inverse(c)]  # j c j = c^-1
        name[J] = T.product(C.members[:, None], J).min(axis=0)  # column j is the coset Cj
        orbits = conjugation_orbits(T, J, normalizer(T, C))
        classes += len({int(name[orbit].min()) for orbit in orbits})
    return classes
