"""The named-check catalog behind the verifier CLI.

Each check replays one finite computation (a table row instance or a
lemma-tagged identity) and produces a CheckResult with expected/actual
values as decimal strings or fingerprint strings.  A spec (check id,
check function name, plain-dict params) is the whole input of a check: the
spec builders read the RunConfig and write every choice into the params
(which scans are exact, which pairs pass the obstruction gate, the witness
cache), so a worker pool can run the specs in separate processes.  The
`check` decorator owns the check id, the timing and the failure record.
Every check a selection names runs; `--long` acts only through the spec
builders, which widen the selection (table4's q = 29 and 59, lemma 3.1's
q = 19) and make the m = 2 scans at q = 13 exact.  Every pair of Tables 2
and 4 is a data row over one pair check; Table 4's rows are TABLE4_PAIRS,
data alone.  Per-process context (group tables, atlas entries, the
P1 x P1 coset functions) is cached lazily.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field as dc_field
from math import gcd

import numpy as np

from . import atlas, engine, wreath
from .engine import IsoFingerprint
from .field import Field
from .psl import check_table_size, psl_group, psl_order
from .wreath import SubdegreeCertificate

DEFAULT_Q = [4, 7, 8, 9, 11, 13]
DEFAULT_M = [2, 3]
TABLE4_LONG_Q = [29, 59]

# exact m=2 stabilizer scans in tables 1 and 2 and lemmas 7.4 and 7.8: up to
# here by default, and at q = 13 too under --long
EXACT_DEFAULT_MAX_Q = 11

# alpha rows acted on or tested at once by the Lemma 5 checks; bounds the
# (rows, |T|) temporaries of a batch
ALPHA_CHUNK = 256

LEMMA_IDS = (
    "3.1", "3.3", "3.4", "3.5", "3.6", "4.2-triple", "5-properties",
    "6.1", "6.2", "7.4", "7.8", "obstruction", "dickson-census",
)


class UnknownLemmaError(ValueError):
    pass


@dataclass
class CheckResult:
    check_id: str
    status: str  # pass | fail (reports of earlier versions may hold skipped-long)
    expected: str
    actual: str
    runtime_ms: float = 0.0
    witness: dict | None = None

    def to_record(self) -> dict:
        rec = {
            "check_id": self.check_id,
            "status": self.status,
            "expected": self.expected,
            "actual": self.actual,
            "runtime_ms": round(self.runtime_ms, 3),
        }
        if self.witness is not None:
            rec["witness"] = self.witness
        return rec


@dataclass
class RunConfig:
    q_list: list[int] = dc_field(default_factory=lambda: list(DEFAULT_Q))
    m_list: list[int] = dc_field(default_factory=lambda: list(DEFAULT_M))
    long_running: bool = False
    workers: int = 1
    out: str | None = None
    fmt: str = "json"
    cache: str | None = None
    q_explicit: bool = False
    notes: list[str] = dc_field(default_factory=list)

    def to_record(self) -> dict:
        return {
            "q": list(self.q_list),
            "m": list(self.m_list),
            "long": self.long_running,
            "workers": self.workers,
            "format": self.fmt,
            "notes": list(self.notes),
        }


def normalize_q_list(qs: list[int], notes: list[str]) -> list[int]:
    """Prime powers >= 4 whose PSL(2,q) table fits MAX_TABLE_BYTES; q = 5 is
    replaced by the isomorphic q = 4 case."""
    out = []
    for q in qs:
        if q == 5:
            if 4 not in qs and 4 not in out:
                out.append(4)
            notes.append("q=5 aliased to q=4 (isomorphic groups)")
            continue
        out.append(q)
    seen = set()
    uniq = [q for q in out if not (q in seen or seen.add(q))]
    bad = [q for q in uniq if q < 4 or not _is_prime_power(q)]
    if bad:
        raise ValueError(f"q values must be prime powers >= 4; got {bad}")
    for q in uniq:
        check_table_size(q)
    return uniq


def _is_prime_power(q: int) -> bool:
    p, f = factor_prime_power(q)
    return q > 1 and p**f == q


def factor_prime_power(q: int) -> tuple[int, int]:
    p = 2
    n = q
    while p * p <= n:
        if n % p == 0:
            f = 0
            while n % p == 0:
                n //= p
                f += 1
            return p, f
        p += 1
    return q, 1


# -- the check idiom ---------------------------------------------------------------

_CHECKS: dict = {}


def check(check_id: str, error: str, name: str | None = None):
    """Register a check function under `name`, by default its own name.

    A check is a function of its params alone.  `check_id` and `error` are
    templates filled from the params.  The registered check times the body,
    which returns (expected, actual, witness); the check passes when
    expected and actual agree as strings.  Any exception the body raises
    becomes a fail record with expected `error`.
    """

    def register(body):
        @functools.wraps(body)
        def run(p: dict) -> CheckResult:
            t0 = time.perf_counter()
            witness = None
            try:
                expected, actual, witness = body(p)
                status = "pass" if str(expected) == str(actual) else "fail"
            except Exception as e:  # noqa: BLE001 -- a failing check is a record
                status, expected, actual = "fail", error.format(**p), f"error: {e}"
            ms = (time.perf_counter() - t0) * 1000.0
            return CheckResult(check_id.format(**p), status, str(expected), str(actual), ms,
                               witness)

        run.check_id = check_id
        _CHECKS[name or body.__name__] = run
        return run

    return register


def _spec(fn: str, **params) -> tuple:
    """(check id, check function name, params) for one registered check."""
    return (_CHECKS[fn].check_id.format(**params), fn, params)


# -- per-process context -------------------------------------------------------

_CTX: dict = {}


def _memo(key: tuple, build):
    """_CTX[key], built by build() on first use in this process."""
    if key not in _CTX:
        _CTX[key] = build()
    return _CTX[key]


def ctx_group(q: int) -> engine.GroupTable:
    p, f = factor_prime_power(q)
    if p**f != q:
        raise ValueError(f"q = {q} is not a prime power")
    return _memo(("T", q), lambda: psl_group(Field(p, f)))


def ctx_p1(q: int) -> engine.Subgroup:
    return ctx_atlas(q, "P1").subgroup


def ctx_atlas(q: int, label: str) -> atlas.AtlasEntry:
    return _memo(("atlas", q, label), lambda: atlas.find_named_subgroup(ctx_group(q), label))


def ctx_obstruction(q: int) -> "wreath.ObstructionReport":
    return _memo(("obstruction", q), lambda: wreath.obstruction_checks(ctx_group(q), ctx_p1(q)))


def ctx_p1_product(q: int) -> tuple:
    """(alpha, certificate) of the coset function over P1 x P1, built and
    scanned exactly once per process."""
    witness = {"construction": "p1-product", "shift": [_p1_shift(q)]}
    D = wreath.product_sub(ctx_p1(q))
    cert, alpha, _ = _memo(("P1xP1", q), lambda: wreath.exact_coset_certificate(D, witness))
    return alpha, cert


def exact_scan_ok(q: int, long_running: bool) -> bool:
    return q <= EXACT_DEFAULT_MAX_Q or (long_running and q <= 13)


# -- certificate production helpers --------------------------------------------

def class_subdegree(q: int, m: int, gamma_order: int, exact: bool) -> SubdegreeCertificate:
    """Certificate for a conjugacy-class power; exact for m = 2 when scanned."""
    T = ctx_group(q)
    gamma = int(T.elements_of_order(gamma_order)[0])
    if m == 2 and exact:
        return wreath.build_centralizer_fn(T, gamma)[2]
    return wreath.class_certificate(engine.centralizer(T, gamma), gamma, m)


def witness_subdegree(q: int, m: int, label: str, exact: bool, shifts=None) -> SubdegreeCertificate:
    """Certificate from the Lemma 2.6 witness for K wr S_m; for m = 2 the
    exact stabilizer is computed when requested, and asserted to be K wr S_2
    when K is maximal (else recorded as `stabilizer_is_wreath`).  `shifts`
    restricts the single-shift candidates of the witness search."""
    T = ctx_group(q)
    entry = ctx_atlas(q, label)
    K = entry.subgroup
    cert = wreath.find_witness_t(T, K, m, label=label, maximal=entry.maximal, shifts=shifts)
    if cert is None:
        raise atlas.NoWitnessError(f"no central witness for {label} wr S_{m} at q={q}")
    if m == 2 and exact:
        cert, _, is_wreath = wreath.exact_coset_certificate(wreath.wreath_sub(K), cert.witness)
        if not entry.maximal:
            cert.witness["stabilizer_is_wreath"] = is_wreath
        elif not is_wreath:
            raise AssertionError(f"stabilizer is not {label} wr S_2")
    return cert


def subject_subdegree(q: int, m: int, subject, exact: bool, shifts=None) -> SubdegreeCertificate:
    """A class-power certificate when `subject` is an element order, the
    P1 x P1 coset function's when it is "P1xP1", and a K wr S_m witness
    certificate, its search restricted to `shifts`, when it is an atlas
    label."""
    if isinstance(subject, int):
        return class_subdegree(q, m, subject, exact)
    if subject == "P1xP1":
        return p1_product_subdegree(q, exact)
    return witness_subdegree(q, m, subject, exact, shifts)


def _p1_shift(q: int) -> int:
    P1 = ctx_p1(q)
    return next(g for g in range(ctx_group(q).order) if g not in P1.member_set)


def p1_product_subdegree(q: int, exact: bool) -> SubdegreeCertificate:
    """The coset function over P1 x P1: exact 2(q+1)^2 when the stabilizer is
    scanned (and then equals P1 x P1 for q even or q = 3 mod 4), divisor
    certificate otherwise."""
    if exact:
        return ctx_p1_product(q)[1]
    s = _p1_shift(q)
    return SubdegreeCertificate(
        q, 2, "lemma-4.3-divisor", wreath.p1_product_divisor(ctx_p1(q), s),
        {"construction": "p1-product", "shift": [s]},
    )


def _c2_candidates(q, label):
    """Shift candidates whose pairwise intersection is a C2 (fast pre-search)."""
    T = ctx_group(q)
    K = ctx_atlas(q, label).subgroup
    w = atlas.search_intersection(T, K, IsoFingerprint.cyclic(2), kind="3.4", label=label)
    if isinstance(w, atlas.IntersectionWitness):
        return list(w.elements)
    return None


# -- table 1 --------------------------------------------------------------------

def table1_specs(cfg: RunConfig) -> list[tuple]:
    specs = []
    for q in cfg.q_list:
        p, f = factor_prime_power(q)
        odd = q % 2 == 1
        for m in cfg.m_list:
            # (row, applies, subject: an element order or an atlas label,
            #  base of the expected subdegree base^m)
            rows = [
                ("row1", m >= 3 or q % 4 == 1, "P1", q + 1),
                ("row2", odd, 2, q * (q + 1) // 2 if q % 4 == 1 else q * (q - 1) // 2),
                ("row3", not odd, "DihedralPlus", q * (q - 1) // 2),
                ("row4a", True, (q + 1) // 2 if odd else q + 1, q * (q - 1)),
                ("row4b", not odd or q >= 7, (q - 1) // 2 if odd else q - 1, q * (q + 1)),
                ("row5", True, p, (q * q - 1) // gcd(2, q - 1)),
                ("row6", f == 1 and q % 8 in (1, 7), "S4", psl_order(q) // 24),
                # the A5 row needs q >= 11: at q = 9 every pairwise intersection
                # exceeds the largest element centralizer, so no witness exists
                ("row7", atlas.label_maximal(q, "A5") and q >= 11, "A5", psl_order(q) // 60),
            ]
            exact = m == 2 and exact_scan_ok(q, cfg.long_running)
            specs += [_spec("t1_row", row=row, q=q, m=m, subject=subject, expected=base**m,
                            exact=exact)
                      for row, applies, subject, base in rows if applies]
    return specs


@check("table1.{row}.q{q}.m{m}", error="{expected}")
def t1_row(p):
    cert = subject_subdegree(p["q"], p["m"], p["subject"], p["exact"])
    return p["expected"], cert.value, cert.to_record()


# -- tables 2 and 4: coprime subdegree pairs --------------------------------------

def _pair(p):
    """The subdegrees of the sides r and d (element orders, atlas labels or
    P1xP1), scanned exactly when `exact`, and their gcd.  The side that `c2`
    names searches only the C2 shift candidates for its witness; with
    `obstruction` the pair needs the obstruction ingredients, which back the
    P1 x P1 divisor bound."""
    q, m = p["q"], p["m"]
    r_cert, d_cert = (
        subject_subdegree(q, m, p[side], p["exact"],
                          _c2_candidates(q, p[side]) if p.get("c2") == side else None)
        for side in "rd"
    )
    r_expected, d_expected = p["expected"]
    expected = f"({r_expected},{d_expected},gcd=1)"
    if p.get("obstruction") and not ctx_obstruction(q).all_pass:
        return expected, "error: obstruction ingredients failed", None
    r, d = r_cert.value, d_cert.value
    return (expected, f"({r},{d},gcd={gcd(r, d)})",
            {"r": r_cert.to_record(), "d": d_cert.to_record()})


t2_pair = check("table2.{row}.q{q}.m{m}", "pair", "t2_pair")(_pair)
t4_pair = check("table4.q{q}.{tag}", "pair", "t4_pair")(_pair)


def table2_specs(cfg: RunConfig) -> list[tuple]:
    specs = []
    for q in cfg.q_list:
        scanned, half = exact_scan_ok(q, cfg.long_running), q * (q - 1) // 2
        for m in cfg.m_list:
            # (row, applies, t2_pair params beyond q and m); exact is m == 2 unless set
            rows = [
                # the divisor bound is attained for q = 3 mod 4, backed by the
                # obstruction ingredients when the stabilizers are not scanned
                ("row1", m == 2 and q % 4 == 3,
                 {"r": 2, "d": "P1xP1", "expected": (half**2, 2 * (q + 1) ** 2),
                  "exact": scanned, "obstruction": not scanned}),
                ("row2", m >= 3 and q % 4 == 3,
                 {"r": 2, "d": "P1", "expected": (half**m, (q + 1) ** m)}),
                ("row3", m >= 3 and q % 2 == 0,
                 {"r": "DihedralPlus", "d": "P1", "expected": (half**m, (q + 1) ** m)}),
                # m = 2: both exact scans are asserted to be K wr S_2
                ("row4", q == 29, {"r": "P1", "d": "A5", "expected": (30**m, 203**m),
                                   "c2": "d" if m == 2 else None}),
                ("row5", q == 7, {"r": "S4", "d": 7, "expected": (7**m, 24**m)}),
                ("row6", q == 11, {"r": "A5", "d": 11, "expected": (11**m, 60**m)}),
            ]
            specs += [_spec("t2_pair", row=row, q=q, m=m, **({"exact": m == 2} | params))
                      for row, applies, params in rows if applies]
    return specs


# q -> (tag, t4_pair params beyond q, m and exact) of the pairs beyond the
# generic q = 3 mod 4 pair; the sides are element orders, atlas labels or
# P1xP1.  The side of an element order gamma is the centralizer function,
# whose stabilizer build_centralizer_fn proves to be C_T(gamma) wr S_2.  A4
# is not maximal in PSL(2,11): q = 11's pair3 records whether its stabilizer
# is A4 wr S_2.
TABLE4_PAIRS = {
    7: [("pair2", {"r": 7, "d": "S4", "expected": (24**2, 7**2)})],
    11: [("pair2", {"r": 11, "d": "A5", "expected": (60**2, 11**2)}),
         ("pair3", {"r": "P1xP1", "d": "A4", "expected": (2 * 12**2, 55**2)})],
    19: [("pair2", {"r": "P1xP1", "d": "A5", "expected": (2 * 20**2, 57**2)})],
    23: [("pair2", {"r": "P1xP1", "d": "S4", "expected": (2 * 24**2, 253**2)})],
    29: [("pair1", {"r": "P1xP1", "d": "A5", "expected": (2 * 30**2, 203**2), "c2": "d"})],
    59: [("pair2", {"r": "P1xP1", "d": "A5", "expected": (2 * 60**2, 1711**2), "c2": "d",
                    "obstruction": True})],
}


def table4_q_list(cfg: RunConfig) -> list[int]:
    """By default the keys of TABLE4_PAIRS, those in TABLE4_LONG_Q under --long only."""
    if cfg.q_explicit:
        return [q for q in cfg.q_list if q % 4 == 3 or q in TABLE4_PAIRS]
    return [q for q in TABLE4_PAIRS if cfg.long_running or q not in TABLE4_LONG_Q]


def table4_specs(cfg: RunConfig) -> list[tuple]:
    """The m = 2 pairs of Table 4; none unless m = 2 is selected.  They are
    scanned exactly at the q of Table 4's rows, the keys of TABLE4_PAIRS.
    The generic q = 3 mod 4 pair has stabilizers P1 x P1 and D_{q+1} wr S_2,
    and the obstruction ingredients back its exactness claim structurally."""
    specs = []
    for q in table4_q_list(cfg) if 2 in cfg.m_list else []:
        generic = {"r": "P1xP1", "d": 2, "expected": (2 * (q + 1) ** 2, (q * (q - 1) // 2) ** 2),
                   "obstruction": True}
        pairs = [("pair1", generic)] if q % 4 == 3 else []
        specs += [_spec("t4_pair", q=q, m=2, tag=tag, exact=q in TABLE4_PAIRS, **params)
                  for tag, params in pairs + TABLE4_PAIRS.get(q, [])]
    return specs


# -- lemma checks -----------------------------------------------------------------

def lemma_specs(cfg: RunConfig, lemma_id: str) -> list[tuple]:
    if lemma_id not in LEMMA_IDS:
        raise UnknownLemmaError(f"unknown lemma id {lemma_id!r}; known: {LEMMA_IDS}")
    qs, long_running = cfg.q_list, cfg.long_running
    # (lemma id, applies, check function, params), in spec order per lemma id
    rows = [
        ("3.1", applies, "lm_double_count", {"q": q, "K": klabel, "R": rl})
        for q, klabel, rlabels, applies in (
            (7, "S4", ["C2", "C2^2", "S3", "D8"], 7 in qs),
            (11, "A5", ["C2", "D6", "D10", "C2^2"], 11 in qs),
            (19, "A5", ["C2"], 19 in qs or long_running),
        )
        for rl in rlabels
    ]
    for q in qs:
        p, f = factor_prime_power(q)
        search = {"q": q, "expected": "witness", "cache": cfg.cache}
        s4 = f == 1 and q % 8 in (1, 7)
        exact = exact_scan_ok(q, long_running)
        rows += [
            ("3.3", True, "lm_coset_involution", {"q": q}),
            ("3.4", atlas.label_exists(q, "A5"), "lm_search",
             search | {"lemma": "3.4", "K": "A5", "R": "C2", "kind": "3.4",
                       "expected": "NotFound" if q <= 11 else "witness"}),
            ("3.5", s4, "lm_search",
             search | {"lemma": "3.5a", "K": "S4", "R": "C2^2", "kind": "3.5a"}),
            ("3.5", s4 and q >= 17, "lm_search",
             search | {"lemma": "3.5b", "K": "S4", "R": "C2", "kind": "3.5b"}),
            ("3.6", p == 2 and f >= 2, "lm_search",
             search | {"lemma": "3.6", "K": "DihedralPlus", "R": "C2", "kind": "3.6"}),
            ("7.4", exact, "lm_xy_conditions", {"q": q}),
            ("7.8", exact, "lm_wreath_conditions", {"q": q}),
            ("obstruction", q % 2 == 0 or q % 4 == 3, "lm_obstruction", {"q": q}),
        ]
        k = gcd(2, q - 1)
        rows += [("dickson-census", True, "lm_census", {"q": q, "d": d, "torus": torus})
                 for torus in ((q - 1) // k, (q + 1) // k)
                 for d in range(3, torus + 1) if torus % d == 0]
    rows += [
        ("4.2-triple", 11 in qs, "lm_search",
         {"lemma": "4.2-triple", "q": 11, "K": "A5", "R": "C2", "kind": "thm4.2-q11-triple",
          "expected": "witness", "triple": True, "cache": cfg.cache}),
        ("6.1", True, "lm_max_census_h", {"q": 4}),
        ("6.2", True, "lm_max_census_t2", {"q": 4}),
        ("5-properties", True, "lm_action_axiom", {"q": 7, "samples": 10000}),
        ("5-properties", True, "lm_roundtrip", {"q": 4}),
        ("5-properties", True, "lm_roundtrip", {"q": 5}),
        ("5-properties", True, "lm_invariance", {"q": 4}),
    ]
    return [_spec(fn, **params) for lid, applies, fn, params in rows
            if lid == lemma_id and applies]


_R_FINGERPRINTS = {
    "C2": IsoFingerprint.cyclic(2),
    "C2^2": IsoFingerprint.klein4(),
    "S3": IsoFingerprint.sym3(),
    "D6": IsoFingerprint.sym3(),
    "D8": IsoFingerprint.dihedral(8),
    "D10": IsoFingerprint.dihedral(10),
}


@check("lemma3.1.q{q}.{K}.{R}", error="identity")
def lm_double_count(p):
    q, rlabel = p["q"], p["R"]
    T = ctx_group(q)
    K = ctx_atlas(q, p["K"]).subgroup
    R = atlas.subgroup_of(K, _R_FINGERPRINTS[rlabel])
    y = engine.count_conjugate_overgroups(T, K, R)
    NR = engine.normalizer(T, R)
    witness = {"y": y, "normalizer_order": NR.order, "K_order": K.order}
    if q == 19 and rlabel == "C2":
        return "ok(y=5)", f"ok(y={y})", witness
    return "ok", "ok", witness


@check("lemma3.3.q{q}", error="True")
def lm_coset_involution(p):
    return True, atlas.coset_involution_check(ctx_group(p["q"]), ctx_p1(p["q"])), None


@check("lemma{lemma}.q{q}", error="{expected}")
def lm_search(p):
    """The deterministic intersection search K cap K^s (K cap K^r cap K^s
    when `triple`) for the subgroup R, replayed from the witness cache when
    it holds a record."""
    q, klabel, kind, cache = p["q"], p["K"], p["kind"], p["cache"]
    T = ctx_group(q)
    K = ctx_atlas(q, klabel).subgroup
    rec = None
    if cache:
        rec = atlas.cached_witness(atlas.load_witness_cache(cache), q, kind, klabel)
    if rec is not None:
        out = atlas.replay_witness(T, K, rec)
    else:
        search = atlas.search_triple_intersection if p.get("triple") else atlas.search_intersection
        out = search(T, K, _R_FINGERPRINTS[p["R"]], kind=kind, label=klabel)
        if cache and isinstance(out, atlas.IntersectionWitness):
            atlas.append_witness_cache(cache, out)
    if isinstance(out, atlas.IntersectionWitness):
        return p["expected"], "witness", atlas.witness_record(out)
    return p["expected"], "NotFound", {"scanned": out.scanned}


def census_rule(q: int, d: int) -> int:
    """Predicted class count: two classes exactly when the torus quotient is
    even (equivalently 2d divides the torus order), one otherwise."""
    k = gcd(2, q - 1)
    for torus in ((q - 1) // k, (q + 1) // k):
        if torus % d == 0:
            return 2 if (torus // d) % 2 == 0 else 1
    raise engine.NoSuchSubgroupError(f"d={d} divides neither torus order for q={q}")


@check("dickson-census.q{q}.d{d}", error="?")
def lm_census(p):
    q, d = p["q"], p["d"]
    expected = census_rule(q, d)
    return expected, engine.dihedral_class_census(ctx_group(q), d), {"torus": p.get("torus")}


@check("lemma7.4.q{q}", error="True")
def lm_xy_conditions(p):
    q = p["q"]
    T = ctx_group(q)
    P1 = ctx_p1(q)
    alpha = ctx_p1_product(q)[0]
    ok = wreath.check_XY_conditions(alpha, P1, P1)
    full = wreath.check_XY_conditions(alpha, P1, P1, full_scan=True)
    rng = Sampler(q)
    Tfull = engine.Subgroup(T, range(T.order))
    alphas = _alpha_rows(T, rng, 50)
    passing = wreath.check_XY_conditions(alphas, Tfull, Tfull)
    none_pass = not (passing & (alphas != T.identity).any(axis=1)).any()
    return True, ok and (ok == full) and none_pass, None


@check("lemma7.8.q{q}", error="True")
def lm_wreath_conditions(p):
    q = p["q"]
    T = ctx_group(q)
    P1 = ctx_p1(q)
    gamma = int(T.elements_of_order(2)[0])
    alpha_h, _, _ = wreath.build_centralizer_fn(T, gamma)
    C = engine.centralizer(T, gamma)
    # build_centralizer_fn has already asserted that its stabilizer is C wr S_2
    ok1 = wreath.check_wreath_conditions(alpha_h, C)
    ok2 = True
    if q % 4 != 1:
        # P1 wr S_2 stabilizers are ruled out only for q even or 3 mod 4
        alpha_g = ctx_p1_product(q)[0]
        ok2 = not wreath.check_wreath_conditions(alpha_g, P1)
    ok3 = not wreath.check_wreath_conditions(wreath.identity_alpha(T), P1)
    return True, ok1 and ok2 and ok3, None


@check("obstruction.q{q}", error="True")
def lm_obstruction(p):
    rep = ctx_obstruction(p["q"])
    witness = {
        "centralizer_of_p1_trivial": rep.centralizer_of_p1_trivial,
        "cosets_have_involutions": rep.cosets_have_involutions,
        "dihedral_centers_trivial": rep.dihedral_centers_trivial,
        "dihedral_fingerprints": rep.dihedral_fingerprints,
    }
    return True, rep.all_pass, witness


class Sampler:
    """Uniform integer draws for the randomized checks, from SplitMix64
    (Steele, Lea and Flood, OOPSLA 2014) over a counter: word k = 1, 2, ...
    is mix(seed + k * 0x9E3779B97F4A7C15 mod 2^64).  NumPy's random module
    is never imported: its import loads OpenSSL (through secrets and
    hashlib), about 6 MB of resident memory and 10 ms or more per process.

    Each value takes one word w, in C order, and is low + w mod span for
    span = high - low < 2^32, so each value's chance is 1/span to within a
    relative span / 2^64 < 2^-32.  One draw of shape (k, n) is k draws of
    shape (n,) in turn, and a draw of size k is k scalar draws.
    """

    def __init__(self, seed: int):
        self._seed = np.uint64(seed % 2**64)
        self._taken = 0

    def _words(self, count: int) -> np.ndarray:
        z = np.arange(self._taken + 1, self._taken + count + 1, dtype=np.uint64)
        self._taken += count
        # in place: one (count,) temporary at a time
        z *= np.uint64(0x9E3779B97F4A7C15)
        z += self._seed
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return z

    def integers(self, low, high=None, size=None):
        """Values in [low, high), or in [0, low) without `high`, as int64: a
        scalar, or an array of shape `size` (or of low and high broadcast
        together) when either is given.  Refuses a range that holds no value
        or 2^32 values or more."""
        if high is None:
            low, high = 0, low
        low, high = np.asarray(low, dtype=np.int64), np.asarray(high, dtype=np.int64)
        shape = np.broadcast_shapes(low.shape, high.shape) if size is None else size
        span = high - low
        if span.min() < 1 or span.max() >= 1 << 32:
            raise ValueError(f"range sizes must lie in 1..2^32 - 1, not {span.min()}..{span.max()}")
        span = np.broadcast_to(span.astype(np.uint64), shape)
        return (self._words(span.size).reshape(span.shape) % span).view(np.int64) + low


def _alpha_rows(T: engine.GroupTable, rng: Sampler, size: int) -> np.ndarray:
    """`size` random alpha value rows in one draw: the same stream as `size`
    wreath.random_alpha calls in turn."""
    return rng.integers(0, T.order, (size, T.order))


def _chunk_sizes(samples: int):
    """Row counts of the chunks, ALPHA_CHUNK rows at most, covering `samples`."""
    return (min(ALPHA_CHUNK, samples - start) for start in range(0, samples, ALPHA_CHUNK))


@check("lemma5.action-axiom.q{q}", error="True")
def lm_action_axiom(p):
    q, samples = p["q"], p["samples"]
    T = ctx_group(q)
    n = T.order
    rng = Sampler(12345)
    ok = True
    for size in _chunk_sizes(samples):
        alphas = _alpha_rows(T, rng, size)
        ints = rng.integers(0, [n, n, 2, n, n, 2], (size, 6))
        h1, h2 = tuple(ints[:, :3].T), tuple(ints[:, 3:].T)
        lhs = wreath.act_alpha_batch(T, alphas, wreath.w2_product(T, h1, h2))
        rhs = wreath.act_alpha_batch(T, wreath.act_alpha_batch(T, alphas, h1), h2)
        if not np.array_equal(lhs, rhs):
            ok = False
            break
    return True, ok, {"samples": samples}


@check("lemma5.roundtrip.q{q}", error="True")
def lm_roundtrip(p):
    """The alpha formula defines a twisted-equivariant function on all of H."""
    T = ctx_group(p["q"])
    n = T.order
    inv = T.inv
    rng = Sampler(99)
    ok = True
    for _ in range(3):
        alpha = wreath.random_alpha(T, rng)
        ells = rng.integers(0, [n, n, 2], (8, 3))
        xs, ks = ells[:, :1], ells[:, 2:]  # ell = (x, x, k), one row each
        # z = (a, b, k) over a, b in (1, one random b per a), k in (0, 1)
        bs = np.stack([np.zeros(n, dtype=np.int64), rng.integers(0, n, n)], axis=1)
        z = (np.repeat(np.arange(n), 4), np.repeat(bs.ravel(), 2), np.tile([0, 1], 2 * n))
        lhs = alpha.evaluate(wreath.w2_product(T, z, (xs, xs, ks)))
        ok &= np.array_equal(lhs, T.product(inv[xs], alpha.evaluate(z), xs))
    # direct-action agreement on random group elements
    alphas = _alpha_rows(T, rng, 20)
    hs = rng.integers(0, [n, n, 2], (20, 3))
    acted = wreath.act_alpha_batch(T, alphas, hs.T)
    t = np.arange(n)
    for values, h, row in zip(alphas, hs, acted):
        lhs = wreath.AlphaFn(T, values).evaluate(wreath.w2_product(T, h, (t, 0, 0)))
        ok &= np.array_equal(lhs, row)
    return True, ok, None


@check("lemma5.invariance.q{q}", error="True")
def lm_invariance(p):
    """Full two-sided invariance forces the identity function."""
    T = ctx_group(p["q"])
    n = T.order
    Tfull = engine.Subgroup(T, range(n))
    rng = Sampler(7)
    ok = wreath.check_XY_conditions(wreath.identity_alpha(T), Tfull, Tfull)
    constants = np.repeat(np.arange(1, n)[:, None], n, axis=1)
    ok &= not wreath.check_XY_conditions(constants, Tfull, Tfull).any()
    for size in _chunk_sizes(10000):
        alphas = _alpha_rows(T, rng, size)
        ok &= bool((alphas[wreath.check_XY_conditions(alphas, Tfull, Tfull)] == T.identity).all())
    return True, ok, None


# -- maximality censuses at q = 4 -------------------------------------------------

def _embed_triples(T, H, a, b, k=0) -> engine.Subgroup:
    """The subgroup of H whose members are the triples (a, b, k), three
    index arrays broadcast together."""
    rows = np.stack([z.ravel() for z in np.broadcast_arrays(a, b, k)], axis=1)
    return engine.Subgroup(H, H.index(wreath.wreath_perms(T, rows)))


def _frobenius_conj_index(T):
    from .psl import frobenius_perm

    pi = np.array(frobenius_perm(T.field))
    return T.index(pi[T.elements[:, np.argsort(pi)]])  # pi^-1 e pi over e


def _h_maximal_types(T, H):
    """Representatives of the three maximal-subgroup types of T wr S_2."""
    t = np.arange(T.order)
    types = {"type1.T2": _embed_triples(T, H, t[:, None], t)}
    for name, second in (("diag", t), ("twisted", _frobenius_conj_index(T))):
        types[f"type2.{name}"] = _embed_triples(T, H, t[:, None], second[:, None], [0, 1])
    for label in ("A4", "DihedralPlus", "DihedralMinus"):
        K = ctx_atlas(4, label).subgroup.members
        types[f"type3.{label}"] = _embed_triples(T, H, K[:, None, None], K[:, None], [0, 1])
    return types


def _t2_maximal_types(T, T2):
    """Representatives of the maximal-subgroup types of T x T."""
    t = np.arange(T.order)
    types = {}
    for label in ("A4", "DihedralPlus", "DihedralMinus"):
        K = ctx_atlas(4, label).subgroup.members
        types[f"KxT.{label}"] = _embed_triples(T, T2, K[:, None], t)
        types[f"TxK.{label}"] = _embed_triples(T, T2, t[:, None], K)
    types["diag"] = _embed_triples(T, T2, t, t)
    types["diag.twisted"] = _embed_triples(T, T2, t, _frobenius_conj_index(T))
    return types


def _random_proper_subgroup(G, rng):
    """<g1, g2> for the first random pair (g1, g2) that does not generate G.
    A closure is dropped, unfinished, once it passes engine.join_cap(|G|, 1):
    no proper subgroup is that large."""
    cap = engine.join_cap(G.order, 1)
    while True:
        S = engine.generate(G, [int(rng.integers(G.order)), int(rng.integers(G.order))],
                            cap=cap)
        if S is not None:
            return S


def _conjugate_rows(G, M) -> np.ndarray:
    """Every conjugate of M as a row r^-1 M r, over the right-coset
    representatives r of M, in one product: x = m r gives M^x = M^r.  A
    conjugate repeats only when the normalizer of M is larger than M."""
    reps = np.array(engine.coset_representatives(G, M))[:, None]
    return G.product(G.inv[reps], M.members, reps)


@check("lemma6.1.q4", error="True")
def lm_max_census_h(p):
    """Every listed maximal type of T wr S_2 at q=4 passes the overgroup test,
    and sampled proper subgroups lie in a conjugate of one of the types."""
    T = ctx_group(4)
    H = wreath.wreath_full_table(T)
    types = _h_maximal_types(T, H)
    all_max = all(engine.is_maximal(H, S) for S in types.values())
    conjugates = [_conjugate_rows(H, M) for M in types.values()]
    rng = Sampler(2024)
    classified = 0
    samples = 6
    for _ in range(samples):
        S = _random_proper_subgroup(H, rng)
        inside = engine.member_mask(S)
        classified += any(inside[rows].sum(axis=1).max() == S.order for rows in conjugates)
    witness = {"types": {k: v.order for k, v in types.items()},
               "samples_classified": classified}
    return True, all_max and classified == samples, witness


@check("lemma6.2.q4", error="True")
def lm_max_census_t2(p):
    """Maximal subgroups of T x T at q=4: factor-maximal products and the
    automorphism-graph diagonals."""
    T = ctx_group(4)
    T2 = wreath.wreath_full_table(T, swap=False)
    n = T.order
    types = _t2_maximal_types(T, T2)
    all_max = all(engine.is_maximal(T2, S) for S in types.values())
    # trichotomy on sampled proper subgroups
    rng = Sampler(55)
    classified = 0
    samples = 6
    for _ in range(samples):
        S = _random_proper_subgroup(T2, rng)
        rows = wreath.wreath_triples(T, T2.elements[S.members])
        if len(engine.unique(rows[:, 0])) < n or len(engine.unique(rows[:, 1])) < n:
            classified += 1  # inside a factor-maximal product
        elif len(rows) == n:
            classified += 1  # a graph of an automorphism
    witness = {"types": {k: v.order for k, v in types.items()},
               "samples_classified": classified}
    return True, all_max and classified == samples, witness


# -- runner -----------------------------------------------------------------------

def _run_one(spec) -> CheckResult:
    check_id, fn_name, params = spec
    try:
        return _CHECKS[fn_name](params)
    except Exception as e:  # noqa: BLE001 -- the runner boundary: one record per spec
        return CheckResult(check_id, "fail", "?", f"error: {e}", 0.0)


def execute_specs(specs: list[tuple], cfg: RunConfig) -> list[CheckResult]:
    workers = min(cfg.workers, len(specs))  # a pool forks all its workers at once
    if workers > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, specs))
    else:
        results = [_run_one(s) for s in specs]
    return sorted(results, key=lambda r: r.check_id)
