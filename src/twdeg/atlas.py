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
from math import gcd, isqrt
from pathlib import Path

from .engine import (
    GroupTable,
    IsoFingerprint,
    Subgroup,
    coset_representatives,
    fingerprint,
    first_subgroup_with_fingerprint,
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
    note: str = ""


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
    T: GroupTable, order_a: int, order_b: int, order_ab: int | None, size: int, fp: IsoFingerprint
) -> Subgroup | None:
    """First subgroup <a, b> in (index(a), index(b)) order matching a target."""
    cand_b = T.elements_of_order(order_b)
    for a in T.elements_of_order(order_a).tolist():
        bs = cand_b
        if order_ab is not None:
            bs = cand_b[T.orders[T.product(a, cand_b)] == order_ab]
        for b in bs.tolist():
            S = generate(T, [a, b])
            if S.order == size and fingerprint(S) == fp:
                return S
    return None


def find_named_subgroup(T: GroupTable, label: str) -> AtlasEntry:
    q = q_of(T)
    if not label_exists(q, label):
        raise NotPresentError(f"{label} does not occur in PSL(2,{q})")
    note = ""
    if label == "P1":
        S = point_stabilizer(T, q)
    elif label in ("DihedralPlus", "DihedralMinus"):
        k = gcd(2, q - 1)
        d = (q + 1) // k if label == "DihedralPlus" else (q - 1) // k
        c = int(T.elements_of_order(d)[0])
        C = generate(T, [c])
        S = normalizer(T, C)
        if S.order != 2 * d:
            # fall back to <cycle, first inverting involution>
            cinv = T.inverse(c)
            j = next(int(i) for i in T.elements_of_order(2) if T.conj(c, int(i)) == cinv)
            S = generate(T, [c, j])
    elif label == "A4":
        S = _first_two_generated(T, 2, 3, None, 12, IsoFingerprint.alt4())
    elif label == "S4":
        S = _first_two_generated(T, 2, 3, 4, 24, IsoFingerprint.sym4())
    elif label == "A5":
        S = _first_two_generated(T, 2, 3, 5, 60, IsoFingerprint.alt5())
        r = isqrt(q)
        if r * r == q:
            note = "two conjugacy classes exist for square q; first in search order"
    else:
        raise ValueError(f"unknown label {label!r}")
    if S is None or S.order != expected_order(q, label):
        raise AssertionError(f"failed to construct {label} in PSL(2,{q})")
    return AtlasEntry(label, S, label_maximal(q, label), note)


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

    On success the side conditions r, s, s r^-1 not in K are asserted: were
    any of them in K, the triple intersection would collapse to a pairwise
    one.
    """
    q = q_of(T)
    reps = coset_representatives(T, K)
    scanned = 0
    for r in reps:
        Kr = K.conjugate(r)
        I2 = intersect(K, Kr)
        for s in reps:
            scanned += 1
            I = intersect(I2, K.conjugate(s))
            if I.order == target.order and fingerprint(I) == target:
                if target.order < K.order:
                    # a proper triple intersection forces all three shifts
                    # outside K, else it would collapse to a pairwise one
                    sri = T.mul(s, T.inverse(r))
                    for name, g in (("r", r), ("s", s), ("s*r^-1", sri)):
                        if g in K.member_set:
                            raise AssertionError(
                                f"side condition violated: {name} lies in K"
                            )
                return IntersectionWitness(kind, q, label, (r, s), target, scanned)
    return NotFound(kind, q, label, scanned)


def coset_involution_check(T: GroupTable, P1: Subgroup) -> bool:
    """True iff every coset P1*s with s outside P1 contains an involution."""
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


def subgroup_of(K: Subgroup, target: IsoFingerprint) -> Subgroup:
    """First subgroup of K with the given fingerprint; raises if absent."""
    S = first_subgroup_with_fingerprint(K, target)
    if S is None:
        raise NoWitnessError(f"no subgroup with fingerprint {target} in {K!r}")
    return S


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


def save_witness_cache(path: str | Path, witnesses: list[IntersectionWitness]) -> None:
    _write_records(Path(path), [witness_record(w) for w in witnesses])


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
