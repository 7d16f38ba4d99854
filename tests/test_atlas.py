import json
import os
import subprocess
import sys
from math import gcd
from pathlib import Path

import numpy as np
import pytest

import reference
from conftest import group_for
from twdeg import atlas, engine as eng
from twdeg.engine import IsoFingerprint
from twdeg.psl import point_stabilizer


def test_named_orders_q7(T7):
    S4 = atlas.find_named_subgroup(T7, "S4")
    assert S4.subgroup.order == 24
    assert T7.order // S4.subgroup.order == 7
    assert S4.maximal
    P1 = atlas.find_named_subgroup(T7, "P1")
    assert P1.subgroup.order == 21
    dm = atlas.find_named_subgroup(T7, "DihedralMinus")
    assert dm.subgroup.order == 6 and not dm.maximal
    dp = atlas.find_named_subgroup(T7, "DihedralPlus")
    assert dp.subgroup.order == 8 and not dp.maximal


def test_named_orders_q11(T11):
    A5 = atlas.find_named_subgroup(T11, "A5")
    assert A5.subgroup.order == 60
    assert T11.order // A5.subgroup.order == 11
    assert A5.maximal
    A4 = atlas.find_named_subgroup(T11, "A4")
    assert A4.subgroup.order == 12 and not A4.maximal


def test_named_orders_q8(T8):
    dp = atlas.find_named_subgroup(T8, "DihedralPlus")
    assert dp.subgroup.order == 18
    assert dp.maximal
    assert eng.fingerprint(dp.subgroup) == IsoFingerprint.dihedral(18)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32])
def test_dihedral_labels_are_torus_normalizers(q):
    """Each dihedral label is the normalizer of the cyclic group generated by
    the first element of order d, the torus order, and has order 2d."""
    T = group_for(q)
    k = gcd(2, q - 1)
    for label, d in (("DihedralPlus", (q + 1) // k), ("DihedralMinus", (q - 1) // k)):
        N = eng.normalizer(T, eng.generate(T, [int(T.elements_of_order(d)[0])]))
        assert atlas.find_named_subgroup(T, label).subgroup == N and N.order == 2 * d


@pytest.mark.parametrize("q", [4, 5, 7, 9, 11, 13, 16, 17, 19, 23])
def test_capped_lookups_match_full_closures(q):
    """A4, S4 and A5 are the first <a, b> of the uncapped search, which
    grows every closure in full and filters A4's pairs on nothing: the
    closures capped at the target order and the filter on a b of order 3
    drop no match.  None of the three occurs at q = 8."""
    T = group_for(q)
    targets = {"A4": (None, 12, IsoFingerprint.alt4()),
               "S4": (4, 24, IsoFingerprint.sym4()),
               "A5": (5, 60, IsoFingerprint.alt5())}
    present = [label for label in targets if atlas.label_exists(q, label)]
    assert present
    for label in present:
        want = reference.first_two_generated(T, 2, 3, *targets[label])
        got = atlas.find_named_subgroup(T, label).subgroup
        assert np.array_equal(got.members, want.members), (q, label)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
                               37, 41, 43, 47, 49, *(pytest.param(q, marks=pytest.mark.slow)
                                                     for q in (64, 81))])
def test_maximal_flags_agree(q):
    """The atlas's maximality flag is the overgroup test's answer, at every
    prime power q <= 49 and at 64 and 81: A4 lies in a subfield A5 at
    q = 16 and 64, S4 in PGL(2,5) and PGL(2,7) at q = 25 and 49, and S4 and
    A5 in PSL(2,9) at q = 81."""
    T = group_for(q)
    for label in atlas.LABELS:
        if not atlas.label_exists(q, label):
            continue
        entry = atlas.find_named_subgroup(T, label)
        if entry.subgroup.order == T.order:
            continue
        assert entry.maximal == eng.is_maximal(T, entry.subgroup), (q, label)


def test_fingerprints_match_labels(T7, T11):
    assert eng.fingerprint(atlas.find_named_subgroup(T7, "S4").subgroup) == IsoFingerprint.sym4()
    assert eng.fingerprint(atlas.find_named_subgroup(T11, "A5").subgroup) == IsoFingerprint.alt5()
    assert eng.fingerprint(atlas.find_named_subgroup(T11, "A4").subgroup) == IsoFingerprint.alt4()


def test_not_present(T7, T11):
    with pytest.raises(atlas.NotPresentError):
        atlas.find_named_subgroup(T7, "A5")  # 7 is not +-1 mod 10
    with pytest.raises(atlas.NotPresentError):
        atlas.find_named_subgroup(T11, "S4")  # 11 is not +-1 mod 8


def test_search_klein_witness_q7(T7):
    K = atlas.find_named_subgroup(T7, "S4").subgroup
    w = atlas.search_intersection(T7, K, IsoFingerprint.klein4(), kind="3.5a", label="S4")
    assert isinstance(w, atlas.IntersectionWitness)
    s = w.elements[0]
    I = eng.intersect(K, K.conjugate(s))
    assert eng.fingerprint(I) == IsoFingerprint.klein4()


@pytest.mark.parametrize("q", [17, 23])
def test_search_witnesses_larger_prime(q):
    T = group_for(q)
    K = atlas.find_named_subgroup(T, "S4").subgroup
    assert isinstance(
        atlas.search_intersection(T, K, IsoFingerprint.klein4()), atlas.IntersectionWitness
    )
    assert isinstance(
        atlas.search_intersection(T, K, IsoFingerprint.cyclic(2)), atlas.IntersectionWitness
    )


@pytest.mark.parametrize("q", [4, 8])
def test_search_c2_witness_even(q):
    T = group_for(q)
    K = atlas.find_named_subgroup(T, "DihedralPlus").subgroup
    w = atlas.search_intersection(T, K, IsoFingerprint.cyclic(2), kind="3.6")
    assert isinstance(w, atlas.IntersectionWitness)


def test_search_notfound_q11(T11):
    K = atlas.find_named_subgroup(T11, "A5").subgroup
    out = atlas.search_intersection(T11, K, IsoFingerprint.cyclic(2), kind="3.4", label="A5")
    assert isinstance(out, atlas.NotFound)
    assert out.scanned == 11  # every coset representative examined


def test_search_witness_q19():
    T = group_for(19)
    K = atlas.find_named_subgroup(T, "A5").subgroup
    w = atlas.search_intersection(T, K, IsoFingerprint.cyclic(2), kind="3.4", label="A5")
    assert isinstance(w, atlas.IntersectionWitness)


def test_triple_intersection_q11(T11):
    K = atlas.find_named_subgroup(T11, "A5").subgroup
    w = atlas.search_triple_intersection(T11, K, IsoFingerprint.cyclic(2))
    assert isinstance(w, atlas.IntersectionWitness)
    r, s = w.elements
    for g in (r, s, T11.mul(s, T11.inverse(r))):
        assert g not in K.member_set
    I = eng.intersect(eng.intersect(K, K.conjugate(r)), K.conjugate(s))
    assert eng.fingerprint(I) == IsoFingerprint.cyclic(2)


def test_triple_identity_accepted_only_for_own_fingerprint(T11):
    # with r = s = 1 the triple intersection is K itself; it matches only a
    # target equal to K's own fingerprint
    K = atlas.find_named_subgroup(T11, "A5").subgroup
    w = atlas.search_triple_intersection(T11, K, IsoFingerprint.alt5())
    assert isinstance(w, atlas.IntersectionWitness)
    assert w.elements == (T11.identity, T11.identity)
    nf = atlas.search_triple_intersection(T11, K, IsoFingerprint.cyclic(3))
    assert isinstance(nf, atlas.NotFound)  # exhaustive over all pairs


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13])
def test_coset_involution(q):
    T = group_for(q)
    assert atlas.coset_involution_check(T, point_stabilizer(T, q))


@pytest.mark.parametrize("chunk", [None, 1])
@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16, 17, 19])
def test_coset_involution_check_matches_one_coset_at_a_time(q, chunk, monkeypatch):
    """On P1 and every atlas label at q, the chunked check equals the
    per-coset reference, with the default chunks and with one coset per
    chunk; DihedralPlus at q = 7 is a False case."""
    if chunk is not None:
        monkeypatch.setattr(atlas, "CHUNK_ENTRIES", chunk)
    T = group_for(q)
    subgroups = {label: atlas.find_named_subgroup(T, label).subgroup
                 for label in atlas.LABELS if atlas.label_exists(q, label)}
    got = {label: atlas.coset_involution_check(T, S) for label, S in subgroups.items()}
    assert got == {label: reference.coset_involution_check(T, S) for label, S in subgroups.items()}
    assert got["P1"] and (q != 7 or not got["DihedralPlus"])


def test_witness_cache_roundtrip(tmp_path, T7):
    K = atlas.find_named_subgroup(T7, "S4").subgroup
    w = atlas.search_intersection(T7, K, IsoFingerprint.klein4(), kind="3.5a", label="S4")
    path = tmp_path / "cache.json"
    atlas.append_witness_cache(path, w)
    records = atlas.load_witness_cache(path)
    assert len(records) == 1
    rec = atlas.cached_witness(records, 7, "3.5a", "S4")
    replayed = atlas.replay_witness(T7, K, rec)
    assert replayed.elements == w.elements
    # a corrupted record fails replay
    rec_bad = dict(rec, fingerprint="(2;1^1,2^1;abelian)")
    with pytest.raises(AssertionError):
        atlas.replay_witness(T7, K, rec_bad)
    assert atlas.cached_witness(records, 7, "3.4", "S4") is None


@pytest.mark.parametrize("text", [
    '[{"q": 7, "label": "S4", "lemma": "3.5a", "element_',  # truncated
    '{"results": []}\n',  # a report, not a cache
    '[{"q": 7, "label": "S4"}]\n',  # records without their fields
])
def test_witness_cache_rejects_foreign_files(tmp_path, text):
    path = tmp_path / "cache.json"
    path.write_text(text)
    with pytest.raises(atlas.WitnessCacheError, match=str(path)):
        atlas.load_witness_cache(path)


WRITER = """
import sys
from twdeg import atlas
from twdeg.engine import IsoFingerprint
path, k = sys.argv[1], int(sys.argv[2])
for i in range(25):
    w = atlas.IntersectionWitness("3.4", 7, f"w{k}", (i,), IsoFingerprint.cyclic(2), 0)
    atlas.append_witness_cache(path, w)
"""


def test_witness_cache_concurrent_writers(tmp_path):
    """Four processes appending 25 records each lose none of them."""
    path = tmp_path / "cache.json"
    src = str(Path(atlas.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    writers = [subprocess.Popen([sys.executable, "-c", WRITER, str(path), str(k)], env=env)
               for k in range(4)]
    try:
        for p in writers:
            assert p.wait(timeout=120) == 0
    finally:
        for p in writers:
            p.kill()
    records = atlas.load_witness_cache(path)
    assert sorted((r["label"], r["element_indices"][0]) for r in records) == sorted(
        (f"w{k}", i) for k in range(4) for i in range(25)
    )
    assert json.loads(path.read_text()) == records


def test_deterministic_witness(T7):
    K = atlas.find_named_subgroup(T7, "S4").subgroup
    w1 = atlas.search_intersection(T7, K, IsoFingerprint.klein4())
    w2 = atlas.search_intersection(T7, K, IsoFingerprint.klein4())
    assert w1.elements == w2.elements


def test_label_existence_conditions():
    assert atlas.label_exists(9, "A5")  # 9 = 3^2, 3 = +-3 mod 10
    assert not atlas.label_exists(8, "A4")  # odd power of 2
    assert atlas.label_exists(4, "A4")
    assert atlas.label_exists(17, "S4") and not atlas.label_exists(13, "S4")
    assert atlas.label_exists(29, "A5") and not atlas.label_exists(13, "A5")


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13])
def test_entries_match_expected_fingerprints(q):
    """Every atlas entry has the order and, where the label names a standard
    family, the exact element-order multiset of that family."""
    from math import gcd

    T = group_for(q)
    k = gcd(2, q - 1)
    for label in atlas.LABELS:
        if not atlas.label_exists(q, label):
            continue
        S = atlas.find_named_subgroup(T, label).subgroup
        assert S.order == atlas.expected_order(q, label), (q, label)
        fp = eng.fingerprint(S)
        if label == "DihedralPlus":
            assert fp == IsoFingerprint.dihedral(2 * (q + 1) // k)
        elif label == "DihedralMinus":
            assert fp == IsoFingerprint.dihedral(2 * (q - 1) // k)
        elif label == "A4":
            assert fp == IsoFingerprint.alt4()
        elif label == "S4":
            assert fp == IsoFingerprint.sym4()
        elif label == "A5":
            assert fp == IsoFingerprint.alt5()


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16, 17, 19])
def test_subgroup_of_matches_two_loop_search(q):
    """One loop over single generators, then pairs, finds the subgroup the
    two-loop search finds, for every fingerprint the lemma 3.1 checks name,
    in every atlas subgroup; both find none together."""
    from twdeg.checks import _R_FINGERPRINTS

    T = group_for(q)
    for label in atlas.LABELS:
        if not atlas.label_exists(q, label):
            continue
        K = atlas.find_named_subgroup(T, label).subgroup
        for fp in set(_R_FINGERPRINTS.values()):
            S = reference.first_subgroup_with_fingerprint(K, fp)
            if S is None:
                with pytest.raises(atlas.NoWitnessError):
                    atlas.subgroup_of(K, fp)
            else:
                assert np.array_equal(atlas.subgroup_of(K, fp).members, S.members)


def test_no_witness_error(T7):
    S4 = atlas.find_named_subgroup(T7, "S4").subgroup
    with pytest.raises(atlas.NoWitnessError):
        atlas.subgroup_of(S4, IsoFingerprint.cyclic(5))
