"""The named-check catalog behind the verifier CLI.

Each check replays one finite computation (a table row instance or a
lemma-tagged identity) and produces a CheckResult with expected/actual
values as decimal strings or fingerprint strings.  Every check is a
function of plain-dict params registered by the `check` decorator, which
owns the check id, the timing and the failure record; the spec builders
name checks by function name so a worker pool can run them in separate
processes.  Every check a selection names runs; `--long` only widens the
selection (table4's q = 29 and 59, lemma 3.1's q = 19) and makes the
m = 2 scans at q = 13 exact.  Per-process context (group tables, atlas
entries, the P1 x P1 coset functions) is cached lazily.
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
from .psl import check_table_size, point_stabilizer, psl_group, psl_order
from .wreath import SubdegreeCertificate

DEFAULT_Q = [4, 7, 8, 9, 11, 13]
DEFAULT_M = [2, 3]
TABLE4_DEFAULT_Q = [7, 11, 19, 23]
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


def check(check_id: str, error: str):
    """Register a check function under its name.

    `check_id` and `error` are templates filled from the params.  The
    registered check times the body, which returns (expected, actual,
    witness); the check passes when expected and actual agree as strings.
    Any exception the body raises becomes a fail record with expected
    `error`.
    """

    def register(body):
        @functools.wraps(body)
        def run(p: dict, cfg: RunConfig) -> CheckResult:
            t0 = time.perf_counter()
            witness = None
            try:
                expected, actual, witness = body(p, cfg)
                status = "pass" if str(expected) == str(actual) else "fail"
            except Exception as e:  # noqa: BLE001 -- a failing check is a record
                status, expected, actual = "fail", error.format(**p), f"error: {e}"
            ms = (time.perf_counter() - t0) * 1000.0
            return CheckResult(check_id.format(**p), status, str(expected), str(actual), ms,
                               witness)

        run.check_id = check_id
        _CHECKS[body.__name__] = run
        return run

    return register


def _spec(fn: str, **params) -> tuple:
    """(check id, check function name, params) for one registered check."""
    return (_CHECKS[fn].check_id.format(**params), fn, params)


# -- per-process context -------------------------------------------------------

_CTX: dict = {}


def ctx_group(q: int) -> engine.GroupTable:
    key = ("T", q)
    if key not in _CTX:
        p, f = factor_prime_power(q)
        if p**f != q:
            raise ValueError(f"q = {q} is not a prime power")
        _CTX[key] = psl_group(Field(p, f))
    return _CTX[key]


def ctx_p1(q: int) -> engine.Subgroup:
    key = ("P1", q)
    if key not in _CTX:
        _CTX[key] = point_stabilizer(ctx_group(q), q)
    return _CTX[key]


def ctx_atlas(q: int, label: str) -> atlas.AtlasEntry:
    key = ("atlas", q, label)
    if key not in _CTX:
        T = ctx_group(q)
        if label == "P1":
            entry = atlas.AtlasEntry("P1", ctx_p1(q), True)
        else:
            entry = atlas.find_named_subgroup(T, label)
        _CTX[key] = entry
    return _CTX[key]


def ctx_obstruction(q: int) -> "wreath.ObstructionReport":
    key = ("obstruction", q)
    if key not in _CTX:
        _CTX[key] = wreath.obstruction_checks(ctx_group(q), ctx_p1(q))
    return _CTX[key]


def ctx_p1_product(q: int) -> tuple:
    """(alpha, certificate) of the coset function over P1 x P1, built and
    scanned exactly once per process."""
    key = ("P1xP1", q)
    if key not in _CTX:
        cert, alpha, _ = wreath.exact_coset_certificate(
            wreath.product_sub(ctx_p1(q)), {"construction": "p1-product", "shift": [_p1_shift(q)]}
        )
        _CTX[key] = (alpha, cert)
    return _CTX[key]


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
    exact stabilizer is computed and asserted to be K wr S_2 when requested.
    `shifts` restricts the single-shift candidates of the witness search."""
    T = ctx_group(q)
    entry = ctx_atlas(q, label)
    K = entry.subgroup
    cert = wreath.find_witness_t(T, K, m, label=label, maximal=entry.maximal, shifts=shifts)
    if cert is None:
        raise atlas.NoWitnessError(f"no central witness for {label} wr S_{m} at q={q}")
    if m == 2 and exact:
        cert, _, is_wreath = wreath.exact_coset_certificate(wreath.wreath_sub(K), cert.witness)
        if not is_wreath:
            raise AssertionError(f"stabilizer is not {label} wr S_2")
    return cert


def subject_subdegree(q: int, m: int, subject, exact: bool) -> SubdegreeCertificate:
    """A class-power certificate when `subject` is an element order, a
    K wr S_m witness certificate when it is an atlas label."""
    if isinstance(subject, int):
        return class_subdegree(q, m, subject, exact)
    return witness_subdegree(q, m, subject, exact)


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


def _pair_result(r_expected, d_expected, r_cert, d_cert) -> tuple:
    g = gcd(r_cert.value, d_cert.value)
    return (
        f"({r_expected},{d_expected},gcd=1)",
        f"({r_cert.value},{d_cert.value},gcd={g})",
        {"r": r_cert.to_record(), "d": d_cert.to_record()},
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
                ("row7", atlas.label_exists(q, "A5") and q >= 11, "A5", psl_order(q) // 60),
            ]
            specs += [_spec("t1_row", row=row, q=q, m=m, subject=subject, expected=base**m)
                      for row, applies, subject, base in rows if applies]
    return specs


@check("table1.{row}.q{q}.m{m}", error="{expected}")
def t1_row(p, cfg):
    q, m = p["q"], p["m"]
    exact = m == 2 and exact_scan_ok(q, cfg.long_running)
    cert = subject_subdegree(q, m, p["subject"], exact)
    return p["expected"], cert.value, cert.to_record()


# -- table 2 --------------------------------------------------------------------

def table2_specs(cfg: RunConfig) -> list[tuple]:
    specs = []
    for q in cfg.q_list:
        for m in cfg.m_list:
            row = {"q": q, "m": m}
            if m == 2 and q % 4 == 3:
                specs.append(_spec("t2_row1", **row))
            # t2_pair: r and d are element orders or atlas labels, with the
            # bases of the expected subdegrees
            if m >= 3 and q % 4 == 3:
                specs.append(_spec("t2_pair", row="row2", r=2, d="P1",
                                   bases=(q * (q - 1) // 2, q + 1), **row))
            if m >= 3 and q % 2 == 0:
                specs.append(_spec("t2_pair", row="row3", r="DihedralPlus", d="P1",
                                   bases=(q * (q - 1) // 2, q + 1), **row))
            if q == 29:
                specs.append(_spec("t2_row4", **row))
            if q == 7:
                specs.append(_spec("t2_pair", row="row5", r="S4", d=7, bases=(7, 24), **row))
            if q == 11:
                specs.append(_spec("t2_pair", row="row6", r="A5", d=11, bases=(11, 60), **row))
    return specs


@check("table2.row1.q{q}.m{m}", error="pair")
def t2_row1(p, cfg):
    q = p["q"]
    exact = exact_scan_ok(q, cfg.long_running)
    r_cert = class_subdegree(q, 2, 2, exact)
    d_cert = p1_product_subdegree(q, exact)
    if not exact and not ctx_obstruction(q).all_pass:
        return "pair", "error: obstruction ingredients failed", None
    # the divisor bound is attained for q = 3 mod 4 (backed by the
    # obstruction ingredients when the stabilizer is not scanned)
    return _pair_result((q * (q - 1) // 2) ** 2, 2 * (q + 1) ** 2, r_cert, d_cert)


@check("table2.{row}.q{q}.m{m}", error="pair")
def t2_pair(p, cfg):
    q, m = p["q"], p["m"]
    r_cert = subject_subdegree(q, m, p["r"], m == 2)
    d_cert = subject_subdegree(q, m, p["d"], m == 2)
    r_base, d_base = p["bases"]
    return _pair_result(r_base**m, d_base**m, r_cert, d_cert)


@check("table2.row4.q{q}.m{m}", error="pair")
def t2_row4(p, cfg):
    q, m = p["q"], p["m"]
    # m = 2: exact stabilizer scans, each asserted to be K wr S_2
    r_cert = witness_subdegree(q, m, "P1", m == 2)
    d_cert = witness_subdegree(
        q, m, "A5", m == 2, shifts=_c2_candidates(q, "A5") if m == 2 else None
    )
    return _pair_result(30**m, 203**m, r_cert, d_cert)


# -- table 4 --------------------------------------------------------------------

# q -> (tag, check function, params) beyond the generic q = 3 mod 4 pair
TABLE4_PAIRS = {
    7: [("pair2", "t4_class_pair", {"gamma": 7, "label": "S4", "expected": (24**2, 7**2)})],
    11: [("pair2", "t4_class_pair", {"gamma": 11, "label": "A5", "expected": (60**2, 11**2)}),
         ("pair3", "t4_q11_a4", {})],
    19: [("pair2", "t4_p1_pair", {"label": "A5", "expected": (2 * 20**2, 57**2)})],
    23: [("pair2", "t4_p1_pair", {"label": "S4", "expected": (2 * 24**2, 253**2)})],
    29: [("pair1", "t4_long_pair", {"index": 203})],
    59: [("pair2", "t4_long_pair", {"index": 1711})],
}


def table4_q_list(cfg: RunConfig) -> list[int]:
    if cfg.q_explicit:
        qs = [q for q in cfg.q_list if q % 4 == 3 or q in TABLE4_PAIRS]
    else:
        qs = list(TABLE4_DEFAULT_Q)
        if cfg.long_running:
            qs += TABLE4_LONG_Q
    return qs


def table4_specs(cfg: RunConfig) -> list[tuple]:
    """The m = 2 pairs of Table 4; none unless m = 2 is selected."""
    specs = []
    for q in table4_q_list(cfg) if 2 in cfg.m_list else []:
        pairs = [("pair1", "t4_generic", {})] if q % 4 == 3 else []
        for tag, fn, params in pairs + TABLE4_PAIRS.get(q, []):
            specs.append(_spec(fn, q=q, tag=tag, **params))
    return specs


@check("table4.q{q}.{tag}", error="pair")
def t4_generic(p, cfg):
    """q = 3 mod 4: stabilizers P1 x P1 and D_{q+1} wr S_2, scanned exactly
    at the q of Table 4's rows."""
    q = p["q"]
    exact = q <= 23 or q in TABLE4_LONG_Q
    f_cert = p1_product_subdegree(q, exact)
    g_cert = class_subdegree(q, 2, 2, exact)
    # the obstruction ingredients back the exactness claim structurally
    if not ctx_obstruction(q).all_pass:
        return "pair", "error: obstruction ingredients failed", None
    return _pair_result(2 * (q + 1) ** 2, (q * (q - 1) // 2) ** 2, f_cert, g_cert)


@check("table4.q{q}.{tag}", error="pair")
def t4_class_pair(p, cfg):
    """The two-point stabilizer of the centralizer function of gamma contains
    C x C for C = <gamma>, so its subdegree divides twice the expected one;
    the other side is an exact K wr S_2 stabilizer."""
    q, order = p["q"], p["gamma"]
    f_expected, g_expected = p["expected"]
    T = ctx_group(q)
    gamma = int(T.elements_of_order(order)[0])
    f_alpha, f_res, f_cert = wreath.build_centralizer_fn(T, gamma)
    C = engine.generate(T, [gamma])
    if not wreath.inside_stabilizer(wreath.product_sub(C), f_alpha):
        return "containment", f"error: C{order} x C{order} not inside the stabilizer", None
    if (2 * f_expected) % f_res.subdegree != 0:
        return "divisibility", f"error: {f_res.subdegree}", None
    g_cert = witness_subdegree(q, 2, p["label"], True)
    return _pair_result(f_expected, g_expected, f_cert, g_cert)


@check("table4.q{q}.{tag}", error="pair")
def t4_p1_pair(p, cfg):
    """The exact P1 x P1 stabilizer against an exact K wr S_2 stabilizer."""
    q = p["q"]
    f_cert = p1_product_subdegree(q, True)
    g_cert = witness_subdegree(q, 2, p["label"], True)
    return _pair_result(*p["expected"], f_cert, g_cert)


@check("table4.q{q}.{tag}", error="pair")
def t4_q11_a4(p, cfg):
    """The (P1 x P1, A4 wr S_2) pair; A4 wr S_2 is not maximal in H, so the
    stabilizer is computed exactly and its observed shape reported."""
    q = p["q"]
    T = ctx_group(q)
    f_cert = p1_product_subdegree(q, True)
    A4 = ctx_atlas(q, "A4").subgroup
    cert = wreath.find_witness_t(T, A4, 2, label="A4", maximal=False)
    if cert is None:
        return "witness", "error: no central element over A4 wr S_2", None
    g_cert, _, is_wreath = wreath.exact_coset_certificate(wreath.wreath_sub(A4), cert.witness)
    g_cert.witness["stabilizer_is_wreath"] = is_wreath
    return _pair_result(2 * 12**2, 55**2, f_cert, g_cert)


@check("table4.q{q}.{tag}", error="pair")
def t4_long_pair(p, cfg):
    """The rows at q = 29 and 59, which --long adds to the default q: the exact
    subdegree over P1 x P1, 2(q+1)^2, divides 2*60^2 (and equals it at
    q = 59), and is coprime to the exact A5 wr S_2 side, |T : A5|^2."""
    q, index = p["q"], p["index"]
    bound = 2 * 60**2
    f_cert = p1_product_subdegree(q, True)
    if q % 4 == 3 and not ctx_obstruction(q).all_pass:
        return "obstructions", "error: ingredients failed", None
    d_cert = witness_subdegree(q, 2, "A5", True, shifts=_c2_candidates(q, "A5"))
    ok = f_cert.value == 2 * (q + 1) ** 2 and bound % f_cert.value == 0
    ok = ok and d_cert.value == index**2 and gcd(bound, d_cert.value) == 1
    expected = f"({2 * (q + 1) ** 2},{index**2},gcd=1)"
    actual = expected if ok else f"({f_cert.value},{d_cert.value})"
    return expected, actual, {"f": f_cert.to_record(), "g": d_cert.to_record()}


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
        search = {"q": q, "expected": "witness"}
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
             {"lemma": "3.6", "q": q, "K": "DihedralPlus", "R": "C2", "kind": "3.6",
              "expected": "witness"}),
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
          "expected": "witness", "triple": True}),
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
def lm_double_count(p, cfg):
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
def lm_coset_involution(p, cfg):
    return True, atlas.coset_involution_check(ctx_group(p["q"]), ctx_p1(p["q"])), None


@check("lemma{lemma}.q{q}", error="{expected}")
def lm_search(p, cfg):
    """The deterministic intersection search K cap K^s (K cap K^r cap K^s
    when `triple`) for the subgroup R, replayed from the witness cache when
    it holds a record."""
    q, klabel, kind = p["q"], p["K"], p["kind"]
    T = ctx_group(q)
    K = ctx_atlas(q, klabel).subgroup
    rec = None
    if cfg.cache:
        rec = atlas.cached_witness(atlas.load_witness_cache(cfg.cache), q, kind, klabel)
    if rec is not None:
        out = atlas.replay_witness(T, K, rec)
    else:
        search = atlas.search_triple_intersection if p.get("triple") else atlas.search_intersection
        out = search(T, K, _R_FINGERPRINTS[p["R"]], kind=kind, label=klabel)
        if cfg.cache and isinstance(out, atlas.IntersectionWitness):
            atlas.append_witness_cache(cfg.cache, out)
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
def lm_census(p, cfg):
    q, d = p["q"], p["d"]
    expected = census_rule(q, d)
    return expected, engine.dihedral_class_census(ctx_group(q), d), {"torus": p.get("torus")}


@check("lemma7.4.q{q}", error="True")
def lm_xy_conditions(p, cfg):
    q = p["q"]
    T = ctx_group(q)
    P1 = ctx_p1(q)
    alpha = ctx_p1_product(q)[0]
    ok = wreath.check_XY_conditions(alpha, P1, P1)
    full = wreath.check_XY_conditions(alpha, P1, P1, full_scan=True)
    rng = np.random.default_rng(q)
    Tfull = engine.Subgroup(T, range(T.order))
    alphas = _alpha_rows(T, rng, 50)
    passing = wreath.check_XY_conditions(alphas, Tfull, Tfull)
    none_pass = not (passing & (alphas != T.identity).any(axis=1)).any()
    return True, ok and (ok == full) and none_pass, None


@check("lemma7.8.q{q}", error="True")
def lm_wreath_conditions(p, cfg):
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
def lm_obstruction(p, cfg):
    rep = ctx_obstruction(p["q"])
    witness = {
        "centralizer_of_p1_trivial": rep.centralizer_of_p1_trivial,
        "cosets_have_involutions": rep.cosets_have_involutions,
        "dihedral_centers_trivial": rep.dihedral_centers_trivial,
        "dihedral_fingerprints": rep.dihedral_fingerprints,
    }
    return True, rep.all_pass, witness


def _alpha_rows(T: engine.GroupTable, rng: np.random.Generator, size: int) -> np.ndarray:
    """`size` random alpha value rows in one draw: the same stream as `size`
    wreath.random_alpha calls in turn."""
    return rng.integers(0, T.order, (size, T.order), dtype=np.int64)


def _action_samples(T: engine.GroupTable, rng: np.random.Generator, size: int):
    """`size` samples (alpha, h1, h2): all alpha rows in one draw, then the
    six ints (x, y, k) of h1 and h2 for every sample in another; returned as
    the alpha rows and the two elements as triples of index arrays."""
    n = T.order
    alphas = _alpha_rows(T, rng, size)
    ints = rng.integers(0, [n, n, 2, n, n, 2], (size, 6))
    return alphas, tuple(ints[:, :3].T), tuple(ints[:, 3:].T)


def _chunk_sizes(samples: int):
    """Row counts of the chunks, ALPHA_CHUNK rows at most, covering `samples`."""
    return (min(ALPHA_CHUNK, samples - start) for start in range(0, samples, ALPHA_CHUNK))


@check("lemma5.action-axiom.q{q}", error="True")
def lm_action_axiom(p, cfg):
    q, samples = p["q"], p["samples"]
    T = ctx_group(q)
    rng = np.random.default_rng(12345)
    ok = True
    for size in _chunk_sizes(samples):
        alphas, h1, h2 = _action_samples(T, rng, size)
        lhs = wreath.act_alpha_batch(T, alphas, wreath.w2_product(T, h1, h2))
        rhs = wreath.act_alpha_batch(T, wreath.act_alpha_batch(T, alphas, h1), h2)
        if not np.array_equal(lhs, rhs):
            ok = False
            break
    return True, ok, {"samples": samples}


@check("lemma5.roundtrip.q{q}", error="True")
def lm_roundtrip(p, cfg):
    """The alpha formula defines a twisted-equivariant function on all of H."""
    T = ctx_group(p["q"])
    n = T.order
    inv = T.inv
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(3):
        alpha = wreath.random_alpha(T, rng)
        ells = np.array([(rng.integers(n), rng.integers(n), rng.integers(2)) for _ in range(8)])
        xs, ks = ells[:, :1], ells[:, 2:]  # ell = (x, x, k), one row each
        # z = (a, b, k) over a, b in (1, one random b per a), k in (0, 1)
        bs = np.array([(0, rng.integers(n)) for _ in range(n)])
        z = (np.repeat(np.arange(n), 4), np.repeat(bs.ravel(), 2), np.tile([0, 1], 2 * n))
        lhs = alpha.evaluate(wreath.w2_product(T, z, (xs, xs, ks)))
        ok &= np.array_equal(lhs, T.product(inv[xs], alpha.evaluate(z), xs))
    # direct-action agreement on random group elements
    alphas, hs = [], []
    for _ in range(20):
        alphas.append(wreath.random_alpha(T, rng))
        hs.append((rng.integers(n), rng.integers(n), rng.integers(2)))
    acted = wreath.act_alpha_batch(T, np.array([a.values for a in alphas]), np.array(hs).T)
    t = np.arange(n)
    for alpha, h, row in zip(alphas, hs, acted):
        ok &= np.array_equal(alpha.evaluate(wreath.w2_product(T, h, (t, 0, 0))), row)
    return True, ok, None


@check("lemma5.invariance.q{q}", error="True")
def lm_invariance(p, cfg):
    """Full two-sided invariance forces the identity function."""
    T = ctx_group(p["q"])
    n = T.order
    Tfull = engine.Subgroup(T, range(n))
    rng = np.random.default_rng(7)
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
        K = ctx_atlas(4, label).subgroup
        triples = np.array(list(wreath.wreath_sub(K).member_triples()))
        types[f"type3.{label}"] = _embed_triples(T, H, *triples.T)
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
    """<g1, g2> for the first random pair (g1, g2) that does not generate G."""
    while True:
        S = engine.generate(G, [int(rng.integers(G.order)), int(rng.integers(G.order))])
        if S.order < G.order:
            return S


def _grow_to_maximal(G, S, rng):
    """Grow a proper subgroup to a maximal one (verified by the overgroup test)
    in rounds of 40 random probes g, each round taking the first proper join
    <S, g>.  A join is dropped, unfinished, once it passes engine.join_cap:
    no proper subgroup containing S is that large, so it is G.  A round that
    grows nothing ends the search if S is maximal; otherwise another round
    runs, and some round grows S with probability 1."""
    while True:
        cap = engine.join_cap(G.order, S.order)
        for _ in range(40):
            g = int(rng.integers(G.order))
            if g in S.member_set:
                continue
            S2 = engine.generate(G, S.generating_set() + [g], S, cap)
            if S2 is not None:
                S = S2
                break
        else:
            if engine.is_maximal(G, S):
                return S


@check("lemma6.1.q4", error="True")
def lm_max_census_h(p, cfg):
    """Every listed maximal type of T wr S_2 at q=4 passes the overgroup test,
    and sampled proper subgroups grow into one of the types."""
    T = ctx_group(4)
    H = wreath.wreath_full_table(T)
    types = _h_maximal_types(T, H)
    all_max = all(engine.is_maximal(H, S) for S in types.values())
    n = T.order
    t2_set = types["type1.T2"].member_set
    rng = np.random.default_rng(2024)
    classified = 0
    samples = 6
    for _ in range(samples):
        M = _grow_to_maximal(H, _random_proper_subgroup(H, rng), rng)
        if M.member_set == t2_set:
            classified += 1
            continue
        rows = wreath.wreath_triples(T, H.elements[M.members])
        straight = rows[rows[:, 2] == 0]
        if len(straight) * 2 != len(rows):
            continue
        proj1, proj2 = engine.unique(straight[:, 0]), engine.unique(straight[:, 1])
        if len(proj1) == n and len(proj2) == n:
            if len(straight) == n and M.order == 2 * n:
                classified += 1  # a twisted-diagonal type
            continue
        A1 = engine.Subgroup(T, proj1)
        A2 = engine.Subgroup(T, proj2)
        product_ok = A1.order * A2.order == len(straight)
        k_max = engine.is_maximal(T, A1)
        same_fp = engine.fingerprint(A1) == engine.fingerprint(A2)
        if product_ok and k_max and same_fp and M.order == 2 * A1.order**2:
            classified += 1
    witness = {"types": {k: v.order for k, v in types.items()},
               "samples_classified": classified}
    return True, all_max and classified == samples, witness


@check("lemma6.2.q4", error="True")
def lm_max_census_t2(p, cfg):
    """Maximal subgroups of T x T at q=4: factor-maximal products and the
    automorphism-graph diagonals."""
    T = ctx_group(4)
    T2 = wreath.wreath_full_table(T, swap=False)
    n = T.order
    types = _t2_maximal_types(T, T2)
    all_max = all(engine.is_maximal(T2, S) for S in types.values())
    # trichotomy on sampled proper subgroups
    rng = np.random.default_rng(55)
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

def _run_one(spec_cfg) -> CheckResult:
    (check_id, fn_name, params), cfg = spec_cfg
    try:
        return _CHECKS[fn_name](params, cfg)
    except Exception as e:  # noqa: BLE001 -- the runner boundary: one record per spec
        return CheckResult(check_id, "fail", "?", f"error: {e}", 0.0)


def execute_specs(specs: list[tuple], cfg: RunConfig) -> list[CheckResult]:
    workers = min(cfg.workers, len(specs))  # a pool forks all its workers at once
    if workers > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, [(s, cfg) for s in specs]))
    else:
        results = [_run_one((s, cfg)) for s in specs]
    return sorted(results, key=lambda r: r.check_id)
