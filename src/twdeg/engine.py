"""Generic algorithms on fully enumerated permutation groups.

A GroupTable stores every element of a finite permutation group as a row of
point images in a small-int (n, degree) array, in deterministic BFS order
from a fixed generator list.  A base, a list of points whose images
determine an element, is chosen greedily, and a dense lookup with one axis
per base point maps an element's base images to its BFS index.  The
product g h is then read off without a multiplication table: h's row
carries g's base images to those of g h.  Products broadcast over index
arrays, so the algorithms below work in batches: closures grow a whole BFS
level at a time, and conjugations, coset labels and commutation tests cover
many elements in one product.  Subgroups are sorted index lists into their
parent table.  All operations are pure functions over this immutable data;
scans over the element range can be partitioned freely without changing
results.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from math import gcd

import numpy as np

Perm = tuple[int, ...]


class ParentMismatchError(ValueError):
    pass


class NotMaximalError(ValueError):
    pass


class NoSuchSubgroupError(ValueError):
    pass


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def compose(g: Perm, h: Perm) -> Perm:
    """Product g*h acting on the right: x^(g*h) = (x^g)^h."""
    return tuple(h[x] for x in g)


def _greedy_base(elements: np.ndarray) -> list[int]:
    """Points, in order, each splitting some set of elements that agree on
    the points before it, until the base images separate all elements.

    For PSL(2,q) this gives three points (PGL(2,q) is sharply 3-transitive
    on the projective line); for T wr S_2 and T x T, three points per block.
    """
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


class GroupTable:
    """A fully enumerated permutation group with base-image arithmetic."""

    def __init__(self, degree: int, elements: np.ndarray, generators: list[int]):
        self.degree = degree
        self.elements = elements
        self.generators = generators
        self.order = len(elements)
        self.base = _greedy_base(elements)
        self._flat = elements.ravel()
        self._base_columns = tuple(np.ascontiguousarray(elements[:, b]) for b in self.base)
        # BFS index by base images, one axis per base point, in the smallest
        # signed dtype holding every index and the -1 of "no element"
        self._lookup = np.full(
            (degree,) * len(self.base), -1, dtype=np.min_scalar_type(-self.order)
        )
        self._lookup[self._base_columns] = np.arange(self.order)
        self._inv: np.ndarray | None = None
        self._orders: np.ndarray | None = None

    @classmethod
    def from_generators(cls, degree: int, gens: tuple[Perm, ...]) -> "GroupTable":
        """BFS closure from the identity; FIFO queue, generators in order.

        A whole BFS level is expanded at once: its products with the
        generators, row-major over (element, generator), come in the order
        the FIFO queue visits them.
        """
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
        return cls(degree, np.concatenate(levels), [seen[g.tobytes()] for g in gen_rows])

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

    @property
    def inv(self) -> np.ndarray:
        if self._inv is None:
            # g^-1 sends b to the point that g sends to b
            images = [np.argmax(self.elements == b, axis=1) for b in self.base]
            self._inv = self._lookup[tuple(images)].astype(np.int64)
        return self._inv

    def inverse(self, i: int) -> int:
        return int(self.inv[i])

    def conj(self, x: int, g: int) -> int:
        """x^g = g^-1 x g."""
        return int(self.product(self.inverse(g), x, g))

    @property
    def orders(self) -> np.ndarray:
        if self._orders is None:
            everyone = np.arange(self.order)
            orders = np.zeros(self.order, dtype=np.int64)
            power, k = everyone, 1
            while True:
                orders[(power == self.identity) & (orders == 0)] = k
                if orders.all():
                    break
                power, k = self.product(power, everyone), k + 1
            self._orders = orders
        return self._orders

    def order_of(self, i: int) -> int:
        return int(self.orders[i])

    def elements_of_order(self, k: int) -> np.ndarray:
        return np.nonzero(self.orders == k)[0]

    def ensure_mul_table(self) -> None:
        """Kept, uncalled, as a name only: the benchmark's trace hooks
        (bench/tracing.py SPANS) still list it.  Products come from base
        images; no multiplication table is built."""

    def __repr__(self):
        return f"GroupTable(order={self.order}, degree={self.degree})"


class Subgroup:
    """A subgroup as a sorted member-index list into a parent GroupTable."""

    def __init__(self, parent: GroupTable, members):
        self.parent = parent
        if not isinstance(members, np.ndarray):
            members = np.fromiter(members, dtype=np.int64)
        self.members = np.unique(members.astype(np.int64))
        self.member_set = frozenset(self.members.tolist())
        self.order = len(self.members)
        self._gens: list[int] | None = None

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
        """A small generating set, grown greedily in member-index order."""
        if self._gens is None:
            gens: list[int] = []
            closed = _closure(self.parent, gens)
            for m in self.members.tolist():
                if not closed[m]:
                    gens.append(m)
                    closed = _closure(self.parent, gens)
                    if np.count_nonzero(closed) == self.order:
                        break
            self._gens = gens
        return self._gens

    def conjugate(self, g: int) -> "Subgroup":
        G = self.parent
        return Subgroup(G, G.product(G.inverse(g), self.members, g))

    def conjugate_set(self, g: int) -> frozenset:
        G = self.parent
        return frozenset(G.product(G.inverse(g), self.members, g).tolist())

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
        cnt = Counter()
        for d in range(1, m + 1):
            if m % d == 0:
                cnt[d] += sum(1 for k in range(1, d + 1) if gcd(k, d) == 1) if d > 1 else 1
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


def _mark_orbit(G: GroupTable, seen: np.ndarray, frontier, gens, cap: int | None = None):
    """Mark in the mask `seen` every element reached from `frontier` by
    right multiplication with `gens`, a whole BFS level at a time.

    With a cap, growth stops as soon as more than `cap` elements are marked.
    """
    gens = np.asarray(gens, dtype=np.int64)
    gens = np.concatenate([gens, G.inv[gens]])  # inverses shorten the BFS
    seen[frontier] = True
    size = np.count_nonzero(seen)
    while len(frontier) and (cap is None or size <= cap):
        new = np.zeros(G.order, dtype=bool)
        new[G.product(frontier[:, None], gens)] = True
        new &= ~seen
        seen |= new
        frontier = new.nonzero()[0]
        size += len(frontier)
    return seen


def _closure(G: GroupTable, gens, cap: int | None = None) -> np.ndarray:
    """Membership mask of <gens>, grown from the identity, the generators and
    their inverses; see _mark_orbit for the cap."""
    gens = np.asarray(gens, dtype=np.int64)
    start = np.concatenate([[G.identity], gens, G.inv[gens]])
    return _mark_orbit(G, np.zeros(G.order, dtype=bool), start, gens, cap)


def generate(parent: GroupTable, gens) -> Subgroup:
    """Closure of a set of element indices under multiplication/inverse."""
    return Subgroup(parent, np.flatnonzero(_closure(parent, list(gens))))


def centralizer(G: GroupTable, g: int) -> Subgroup:
    return Subgroup(G, np.flatnonzero(G.commutes_with(g, np.arange(G.order))))


def normalizer(G: GroupTable, S: Subgroup) -> Subgroup:
    """All x with S^x = S, by full scan (generator conjugation suffices)."""
    if S.parent is not G:
        raise ParentMismatchError("subgroup not over this table")
    gens = S.generating_set()
    if not gens:
        return Subgroup(G, range(G.order))
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


def conjugacy_class(G: GroupTable, g: int) -> np.ndarray:
    """Orbit of g under conjugation by G (closure over generators)."""
    seen = {int(g)}
    queue = deque([int(g)])
    while queue:
        x = queue.popleft()
        for h in G.generators:
            y = G.conj(x, h)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return np.array(sorted(seen), dtype=np.int64)


def intersect(A: Subgroup, B: Subgroup) -> Subgroup:
    if A.parent is not B.parent:
        raise ParentMismatchError("subgroups live in different parents")
    return Subgroup(A.parent, np.intersect1d(A.members, B.members))


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


def is_maximal(G: GroupTable, M: Subgroup) -> bool:
    """True iff <M, g> = G for every g outside M.

    Only one representative per double coset MgM is tested: <M, g> depends
    on g only through MgM, which is marked off whole by closing Mg under
    right multiplication with the generators of M.
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
    half = G.order // 2
    for s in range(G.order):
        if visited[s]:
            continue
        _mark_orbit(G, visited, G.product(M.members, s), gens)  # the double coset M s M
        size = _closure_size_capped(G, gens + [s], half)
        if size <= half:
            M._maximal_cache = False
            return False
    M._maximal_cache = True
    return True


def _closure_size_capped(G: GroupTable, gens: list[int], half: int) -> int:
    """Size of <gens>, stopping early once it exceeds half of |G|.

    A subgroup of size > |G|/2 has index < 2, hence equals G.
    """
    return int(np.count_nonzero(_closure(G, gens, half)))


def subgroup_conjugates(T: GroupTable, S: Subgroup) -> list[Subgroup]:
    """Distinct T-conjugates of S, one per coset of the normalizer."""
    N = normalizer(T, S)
    reps = coset_representatives(T, N)
    return [S.conjugate(g) for g in reps]


def coset_representatives(T: GroupTable, S: Subgroup) -> list[int]:
    """Right-coset reps of S in T: the smallest element index per coset Sg."""
    covered = np.zeros(T.order, dtype=bool)
    reps = []
    for g in range(T.order):
        if not covered[g]:
            reps.append(g)
            covered[T.product(S.members, g)] = True
    return reps


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

    Candidates are built as <c, j> from a cyclic group of order d and an
    involution j inverting it, deduplicated by member set, then partitioned
    into conjugacy orbits.
    """
    q = T.degree - 1
    tori = [(q - 1) // gcd(2, q - 1), (q + 1) // gcd(2, q - 1)]
    if d <= 2 or not any(t % d == 0 for t in tori):
        raise NoSuchSubgroupError(f"no dihedral subgroup of order {2*d} for q={q}")
    cyclics = {}
    for c in T.elements_of_order(d).tolist():
        cyclics.setdefault(generate(T, [c]).member_set, c)
    invs = T.elements_of_order(2)
    dihedrals = set()
    for mem, c in cyclics.items():
        cyc = np.array(sorted(mem))
        for j in invs[T.product(invs, c, invs) == T.inverse(c)].tolist():  # j c j = c^-1
            dihedrals.add(mem | frozenset(T.product(cyc, j).tolist()))
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


def first_subgroup_with_fingerprint(
    K: Subgroup, target: IsoFingerprint, max_gens: int = 2
) -> Subgroup | None:
    """First subgroup of K (by generator index order) matching a fingerprint."""
    T = K.parent
    mem = [int(m) for m in K.members]
    if target.order == 1:
        return Subgroup(T, [T.identity])
    singles = [m for m in mem if m != T.identity]
    for a in singles:
        if target.order % T.order_of(a) != 0:
            continue
        S = generate(T, [a])
        if S.order == target.order and fingerprint(S) == target:
            return S
    if max_gens >= 2:
        for i, a in enumerate(singles):
            if target.order % T.order_of(a) != 0:
                continue
            for b in singles[i + 1 :]:
                if target.order % T.order_of(b) != 0:
                    continue
                S = generate(T, [a, b])
                if S.order == target.order and fingerprint(S) == target:
                    return S
    return None
