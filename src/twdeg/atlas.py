"""Named subgroups of T = PSL(2,q) and the deterministic witness searches.

Labels: P1 (point stabilizer of infinity), DihedralMinus / DihedralPlus (the
dihedral normalizers of the split / nonsplit maximal tori, of orders
2(q-1)/(2,q-1) and 2(q+1)/(2,q-1)), and A4, S4, A5.

Searches scan coset representatives in element-index order, so stored
witnesses are reproducible across runs and platforms.  An exhausted scan is
a certified negative and carries the scan cardinality.
"""

from __future__ import annotations

import fcntl
import json
import os
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations
from math import gcd, isqrt
from pathlib import Path

from .engine import (
    CHUNK_ENTRIES,
    GroupTable,
    IsoFingerprint,
    Subgroup,
    coset_representatives,
    fingerprint,
    generate,
    intersect,
    normalizer,
)
from .field import is_prime
from .psl import point_stabilizer

LABELS = ("P1", "DihedralPlus", "DihedralMinus", "A4", "S4", "A5")


class NotPresentError(ValueError):
    pass


@dataclass
class AtlasEntry:
    label: str
    subgroup: Subgroup
    maximal: bool


@dataclass(frozen=True)
class IntersectionWitness:
    kind: str  # e.g. "3.4", "3.5a", "3.5b", "3.6", "thm4.2-q11-triple"
    q: int
    label: str
    elements: tuple[int, ...]  # conjugating element indices (s, or r and s)
    achieved: IsoFingerprint
    scanned: int


@dataclass(frozen=True)
class NotFound:
    """Certified negative from an exhaustive scan over coset representatives."""

    kind: str
    q: int
    label: str
    scanned: int


def q_of(T: GroupTable) -> int:
    return T.degree - 1


def label_exists(q: int, label: str) -> bool:
    if label in ("P1", "DihedralPlus", "DihedralMinus"):
        return True
    if label == "A4":
        if q % 2 == 1:
            return q > 3
        return isqrt(q) ** 2 == q
    if label == "S4":
        return q % 2 == 1 and q % 8 in (1, 7)
    if label == "A5":
        if q % 10 in (1, 9):
            return True
        r = isqrt(q)
        return r * r == q and is_prime(r) and r % 10 in (3, 7)
    raise ValueError(f"unknown label {label!r}")


def label_maximal(q: int, label: str) -> bool:
    """Maximality of the labelled subgroup, per the subgroup list of PSL(2,q)."""
    if label == "P1":
        return True
    if label == "DihedralPlus":
        return q not in (7, 9)
    if label == "DihedralMinus":
        return q in (4, 8) or q >= 13
    if label == "S4":
        return label_exists(q, "S4")
    if label == "A5":
        return label_exists(q, "A5")
    if label == "A4":
        return label_exists(q, "A4") and not label_exists(q, "S4") and not label_exists(q, "A5")
    raise ValueError(f"unknown label {label!r}")


def expected_order(q: int, label: str) -> int:
    k = gcd(2, q - 1)
    return {
        "P1": q * (q - 1) // k,
        "DihedralPlus": 2 * (q + 1) // k,
        "DihedralMinus": 2 * (q - 1) // k,
        "A4": 12,
        "S4": 24,
        "A5": 60,
    }[label]


def _first_two_generated(
    T: GroupTable, order_a: int, order_b: int, order_ab: int, size: int, fp: IsoFingerprint
) -> Subgroup | None:
    """First subgroup <a, b> with a b of order `order_ab`, in (index(a),
    index(b)) order, matching a target.  A closure stops once it passes
    `size`, since it can no longer match."""
    cand_b = T.elements_of_order(order_b)
    for a in T.elements_of_order(order_a).tolist():
        for b in cand_b[T.orders[T.product(a, cand_b)] == order_ab].tolist():
            S = generate(T, [a, b], cap=size)
            if S is not None and S.order == size and fingerprint(S) == fp:
                return S
    return None


def find_named_subgroup(T: GroupTable, label: str) -> AtlasEntry:
    q = q_of(T)
    if not label_exists(q, label):
        raise NotPresentError(f"{label} does not occur in PSL(2,{q})")
    if label == "P1":
        S = point_stabilizer(T, q)
    elif label in ("DihedralPlus", "DihedralMinus"):
        k = gcd(2, q - 1)
        d = (q + 1) // k if label == "DihedralPlus" else (q - 1) // k
        S = normalizer(T, generate(T, [int(T.elements_of_order(d)[0])]))
    elif label == "A4":
        # an involution times an element of order 3 of A4 has order 3
        S = _first_two_generated(T, 2, 3, 3, 12, IsoFingerprint.alt4())
    elif label == "S4":
        S = _first_two_generated(T, 2, 3, 4, 24, IsoFingerprint.sym4())
    elif label == "A5":
        # at square q there are two classes of A5; this is the first in search order
        S = _first_two_generated(T, 2, 3, 5, 60, IsoFingerprint.alt5())
    else:
        raise ValueError(f"unknown label {label!r}")
    if S is None or S.order != expected_order(q, label):
        raise AssertionError(f"failed to construct {label} in PSL(2,{q})")
    return AtlasEntry(label, S, label_maximal(q, label))


def search_intersection(
    T: GroupTable, K: Subgroup, target: IsoFingerprint, kind: str = "", label: str = ""
) -> IntersectionWitness | NotFound:
    """First coset representative s with fingerprint(K cap K^s) = target."""
    q = q_of(T)
    reps = coset_representatives(T, K)
    for s in reps:
        I = intersect(K, K.conjugate(s))
        if I.order == target.order and fingerprint(I) == target:
            return IntersectionWitness(kind, q, label, (s,), target, len(reps))
    return NotFound(kind, q, label, len(reps))


def search_triple_intersection(
    T: GroupTable, K: Subgroup, target: IsoFingerprint, kind: str = "", label: str = ""
) -> IntersectionWitness | NotFound:
    """First pair (r, s) of coset representatives with K cap K^r cap K^s matching.

    For a target below |K| a match must also meet the side conditions r, s,
    s r^-1 not in K: were any of them in K, the triple intersection would
    collapse to a pairwise one, so such a pair is skipped (and counted as
    scanned).
    """
    q = q_of(T)
    reps = coset_representatives(T, K)
    conjugate = cache(K.conjugate)  # each K^s once, not once per pair
    scanned = 0
    for r in reps:
        I2 = intersect(K, conjugate(r))
        for s in reps:
            scanned += 1
            I = intersect(I2, conjugate(s))
            if I.order == target.order and fingerprint(I) == target:
                shifts = (r, s, T.mul(s, T.inverse(r)))
                if target.order < K.order and any(g in K.member_set for g in shifts):
                    continue
                return IntersectionWitness(kind, q, label, (r, s), target, scanned)
    return NotFound(kind, q, label, scanned)


def coset_involution_check(T: GroupTable, P1: Subgroup) -> bool:
    """True iff every coset P1*s with s outside P1 contains an involution.

    The cosets are tested CHUNK_ENTRIES // |P1| at a time, one product
    each; the first chunk with a coset that holds no involution ends it."""
    reps = coset_representatives(T, P1)[1:]  # the first, the identity, represents P1
    most = max(1, CHUNK_ENTRIES // P1.order)
    return all(
        (T.orders[T.product(P1.members[:, None], reps[i : i + most])] == 2).any(axis=0).all()
        for i in range(0, len(reps), most)
    )


def subgroup_of(K: Subgroup, target: IsoFingerprint) -> Subgroup:
    """First subgroup of K with the given fingerprint generated by one
    nontrivial member or two, in member-index order, each of an order that
    divides the target's; raises if absent."""
    T = K.parent
    singles = [m for m in K.members.tolist() if m != T.identity and target.order % T.orders[m] == 0]
    for gens in chain(([a] for a in singles), combinations(singles, 2)):
        S = generate(T, gens)
        if S.order == target.order and fingerprint(S) == target:
            return S
    raise NoWitnessError(f"no subgroup with fingerprint {target} in {K!r}")


class NoWitnessError(ValueError):
    pass


# -- witness cache -----------------------------------------------------------

def witness_record(w: IntersectionWitness) -> dict:
    return {
        "q": w.q,
        "label": w.label,
        "lemma": w.kind,
        "element_indices": list(w.elements),
        "fingerprint": str(w.achieved),
    }


class WitnessCacheError(ValueError):
    """A witness cache file that is not a list of witness records."""


def append_witness_cache(path: str | Path, w: IntersectionWitness) -> None:
    """Add one witness record to the cache file, keeping the records in it.

    Writers merge under an exclusive lock on `<cache>.lock`, so concurrent
    workers lose no record, and replace the file whole, so readers never
    see a partial one.
    """
    with open(f"{path}.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        _write_records(Path(path), load_witness_cache(path) + [witness_record(w)])


def _write_records(p: Path, records: list[dict]) -> None:
    tmp = p.with_name(f".{p.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(records, indent=2) + "\n")
    os.replace(tmp, p)


def load_witness_cache(path: str | Path) -> list[dict]:
    p = Path(path)
    if not p.exists():
        return []
    try:
        records = json.loads(p.read_text())
    except ValueError as e:
        raise WitnessCacheError(f"witness cache {p} is not JSON: {e}") from e
    keys = {"q", "label", "lemma", "element_indices", "fingerprint"}
    if not isinstance(records, list) or not all(
        isinstance(r, dict) and keys <= r.keys() for r in records
    ):
        raise WitnessCacheError(f"witness cache {p} is not a list of witness records")
    return records


def cached_witness(records: list[dict], q: int, kind: str, label: str) -> dict | None:
    for r in records:
        if r["q"] == q and r["lemma"] == kind and r["label"] == label:
            return r
    return None


def replay_witness(T: GroupTable, K: Subgroup, record: dict) -> IntersectionWitness:
    """Re-run the stored intersection and check it reproduces the fingerprint."""
    els = [int(e) for e in record["element_indices"]]
    # numpy wraps a negative index around: check every index against T first
    if not all(0 <= g < T.order for g in els):
        raise AssertionError("element_indices must hold elements of T")
    I = K
    for g in els:
        I = intersect(I, K.conjugate(g))
    fp = fingerprint(I)
    if str(fp) != record["fingerprint"]:
        raise AssertionError(
            f"witness replay mismatch: stored {record['fingerprint']}, got {fp}"
        )
    return IntersectionWitness(
        record["lemma"], record["q"], record["label"], tuple(els), fp, 0
    )
