"""The named-check catalog behind the verifier CLI.

Each check replays one finite computation (a table row instance or a
lemma-tagged identity) and produces a CheckResult with expected/actual
values as decimal strings or fingerprint strings.  Every check is a
function of plain-dict params registered by the `check` decorator, which
owns the check id, the long-run gate, the timing and the failure record;
the spec builders name checks by function name so a worker pool can run
them in separate processes.  Per-process context (group tables, atlas
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
from .psl import point_stabilizer, psl_group, psl_order
from .wreath import SubdegreeCertificate

DEFAULT_Q = [4, 7, 8, 9, 11, 13]
DEFAULT_M = [2, 3]
TABLE4_DEFAULT_Q = [7, 11, 19, 23]
TABLE4_LONG_Q = [29, 59]

# exact m=2 stabilizer scans: allowed by default up to here, q = 13 behind
# the long flag (table4 runs its stated default range exactly regardless)
EXACT_DEFAULT_MAX_Q = 11

LEMMA_IDS = (
    "3.1", "3.3", "3.4", "3.5", "3.6", "4.2-triple", "5-properties",
    "6.1", "6.2", "7.4", "7.8", "obstruction", "dickson-census",
)


class UnknownLemmaError(ValueError):
    pass


@dataclass
class CheckResult:
    check_id: str
    status: str  # pass | fail | skipped-long
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
    """Prime powers >= 4; q = 5 is replaced by the isomorphic q = 4 case."""
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


def check(check_id: str, error: str, skipped: str = ""):
    """Register a check function under its name.

    `check_id`, `error` and `skipped` are templates filled from the params.
    The registered check returns a skipped-long record with expected
    `skipped` when the params are gated, and otherwise times the body, which
    returns (expected, actual, witness); the check passes when expected and
    actual agree as strings.  Any exception the body raises becomes a fail
    record with expected `error`.
    """

    def register(body):
        @functools.wraps(body)
        def run(p: dict, cfg: RunConfig) -> CheckResult:
            t0 = time.perf_counter()
            witness = None
            if p.get("gated"):
                status, expected, actual = "skipped-long", skipped.format(**p), ""
            else:
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
    """(shift, alpha, certificate, subdegree) of the coset function over
    P1 x P1, built and scanned exactly once per process.  The scan's member
    list is not kept."""
    key = ("P1xP1", q)
    if key not in _CTX:
        s = _p1_shift(q)
        alpha = wreath.build_coset_fn(wreath.product_sub(ctx_p1(q), ctx_p1(q)), (0, s, 0))
        res = wreath.stabilizer_subdegree(alpha, collect_members=False)
        cert = SubdegreeCertificate(
            q, 2, "exact-stabilizer", res.subdegree, {"construction": "p1-product", "shift": [s]}
        )
        _CTX[key] = (s, alpha, cert, res.subdegree)
    return _CTX[key]


def exact_scan_ok(q: int, long_running: bool, table4: bool = False) -> bool:
    if table4:
        return q <= 23
    return q <= EXACT_DEFAULT_MAX_Q or (long_running and q <= 13)


# -- certificate production helpers --------------------------------------------

def class_subdegree(q: int, m: int, gamma_order: int, exact: bool) -> SubdegreeCertificate:
    """Certificate for a conjugacy-class power; exact for m = 2 when scanned."""
    T = ctx_group(q)
    gamma = int(T.elements_of_order(gamma_order)[0])
    if m == 2 and not exact:
        C = engine.centralizer(T, gamma)
        return SubdegreeCertificate(
            q, m, "lemma-2.10-class", (T.order // C.order) ** m,
            {"construction": "centralizer", "gamma": gamma, "centralizer_order": C.order},
        )
    return wreath.build_centralizer_fn(T, gamma, m)[2]


def witness_subdegree(q: int, m: int, label: str, exact: bool, shifts=None) -> SubdegreeCertificate:
    """Certificate from a conjugate-shift witness for K wr S_m; for m = 2 the
    exact stabilizer is computed and asserted to be K wr S_2 when requested.
    `shifts` restricts the m = 2 witness scan to candidate shifts."""
    T = ctx_group(q)
    entry = ctx_atlas(q, label)
    K = entry.subgroup
    wit = wreath.find_witness_t(T, K, m, label=label, maximal=entry.maximal, shifts=shifts)
    if wit is None and m == 3:
        wit = _general_pair_witness(T, K, m, label)
    if wit is None and m >= 4:
        trip = atlas.search_triple_intersection(
            T, K, IsoFingerprint.cyclic(2), kind="4.2", label=label
        )
        if isinstance(trip, atlas.IntersectionWitness):
            wit = wreath.find_witness_t(
                T, K, m, label=label, maximal=entry.maximal, pair=tuple(trip.elements)
            )
    if wit is None:
        raise atlas.NoWitnessError(f"no central witness for {label} wr S_{m} at q={q}")
    if m == 2 and exact:
        D = wreath.wreath_sub(K)
        res = wreath.stabilizer_subdegree(
            wreath.build_coset_fn(D, (0, wit.shift[0], 0), eta=wit.eta)
        )
        if set(res.members) != set(D.member_triples()):
            raise AssertionError(f"stabilizer is not {label} wr S_2")
        return SubdegreeCertificate(
            q, m, "exact-stabilizer", res.subdegree, dict(wit.certificate.witness)
        )
    return wit.certificate


def subject_subdegree(q: int, m: int, subject, exact: bool) -> SubdegreeCertificate:
    """A class-power certificate when `subject` is an element order, a
    K wr S_m witness certificate when it is an atlas label."""
    if isinstance(subject, int):
        return class_subdegree(q, m, subject, exact)
    return witness_subdegree(q, m, subject, exact)


def _general_pair_witness(T, K, m, label):
    """Shapes t = (1,...,1,a,b) over coset-representative pairs (m = 3)."""
    reps = engine.coset_representatives(T, K)
    index = T.order // K.order
    for a in reps:
        for b in reps:
            t_tuple = tuple([T.identity] * (m - 2) + [a, b])
            wit = wreath._witness_from_tuple(T, K, m, t_tuple, label, index, (a, b))
            if wit is not None:
                return wit
    return None


def _p1_shift(q: int) -> int:
    P1 = ctx_p1(q)
    return next(g for g in range(ctx_group(q).order) if g not in P1.member_set)


def p1_product_subdegree(q: int, exact: bool) -> SubdegreeCertificate:
    """The coset function over P1 x P1: exact 2(q+1)^2 when the stabilizer is
    scanned (and then equals P1 x P1 for q even or q = 3 mod 4), divisor
    certificate otherwise."""
    if exact:
        return ctx_p1_product(q)[2]
    s = _p1_shift(q)
    mem = wreath.d_t_cap_L(wreath.product_sub(ctx_p1(q), ctx_p1(q)), (0, s, 0))
    if wreath.first_central_eta(ctx_group(q), mem) is None:
        raise atlas.NoWitnessError("no central element over P1 x P1")
    return SubdegreeCertificate(
        q, 2, "lemma-4.3-divisor", 2 * (q + 1) ** 2, {"construction": "p1-product", "shift": [s]}
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
        gated = q >= 17 and not cfg.long_running
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
            specs += [
                _spec("t1_row", row=row, q=q, m=m, gated=gated, subject=subject,
                      expected=base**m)
                for row, applies, subject, base in rows if applies
            ]
    return specs


@check("table1.{row}.q{q}.m{m}", error="{expected}", skipped="{expected}")
def t1_row(p, cfg):
    q, m = p["q"], p["m"]
    exact = m == 2 and exact_scan_ok(q, cfg.long_running)
    cert = subject_subdegree(q, m, p["subject"], exact)
    return p["expected"], cert.value, cert.to_record()


# -- table 2 --------------------------------------------------------------------

def table2_specs(cfg: RunConfig) -> list[tuple]:
    specs = []
    for q in cfg.q_list:
        gated = q >= 17 and q != 29 and not cfg.long_running
        for m in cfg.m_list:
            row = {"q": q, "m": m, "gated": gated}
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
    if not cfg.long_running:
        # 30^m and 203^m asserted arithmetically; the searches are opt-in
        order = psl_order(q)
        p1 = q * (q - 1) // gcd(2, q - 1)
        ok = order // p1 == 30 and order // 60 == 203 and gcd(30**m, 203**m) == 1
        expected = f"(30^{m},203^{m},gcd=1)"
        return expected, expected if ok else "arithmetic mismatch", {"mode": "arithmetic"}
    r_cert = witness_subdegree(q, m, "P1", False)
    d_cert = witness_subdegree(
        q, m, "A5", False, shifts=_c2_candidates(q, "A5") if m == 2 else None
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
    29: [("pair1", "t4_divisor_pair", {"index": 203})],
    59: [("pair2", "t4_divisor_pair", {"index": 1711})],
}


def table4_q_list(cfg: RunConfig) -> list[int]:
    if cfg.q_explicit:
        qs = [q for q in cfg.q_list if q % 4 == 3 or q == 29]
    else:
        qs = list(TABLE4_DEFAULT_Q)
        if cfg.long_running:
            qs += TABLE4_LONG_Q
    return qs


def table4_specs(cfg: RunConfig) -> list[tuple]:
    specs = []
    for q in table4_q_list(cfg):
        gated = q in TABLE4_LONG_Q and not cfg.long_running
        pairs = [("pair1", "t4_generic", {})] if q % 4 == 3 else []
        for tag, fn, params in pairs + TABLE4_PAIRS.get(q, []):
            specs.append(_spec(fn, q=q, tag=tag, gated=gated, **params))
    return specs


@check("table4.q{q}.{tag}", error="pair")
def t4_generic(p, cfg):
    """q = 3 mod 4: stabilizers P1 x P1 and D_{q+1} wr S_2."""
    q = p["q"]
    exact = exact_scan_ok(q, cfg.long_running, table4=True)
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
    _, f_res, f_cert = wreath.build_centralizer_fn(T, gamma, 2)
    C = engine.generate(T, [gamma])
    if not set(wreath.product_sub(C, C).member_triples()) <= set(f_res.members):
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
    wit = wreath.find_witness_t(T, A4, 2, label="A4", maximal=False)
    if wit is None:
        return "witness", "error: no central element over A4 wr S_2", None
    D = wreath.wreath_sub(A4)
    g_res = wreath.stabilizer_subdegree(wreath.build_coset_fn(D, (0, wit.shift[0], 0), eta=wit.eta))
    g_cert = SubdegreeCertificate(
        q, 2, "exact-stabilizer", g_res.subdegree,
        {"construction": "coset-fn", "label": "A4", "shift": list(wit.shift),
         "eta": wit.eta, "index": T.order // A4.order,
         "stabilizer_is_wreath": set(g_res.members) == set(D.member_triples())},
    )
    return _pair_result(2 * 12**2, 55**2, f_cert, g_cert)


@check("table4.q{q}.{tag}", error="pair")
def t4_divisor_pair(p, cfg):
    """Containment rows at q = 29 and 59, with no exact scan at these orders:
    the subdegree over P1 x P1 divides 2*60^2 (and equals it at q = 59), and
    is coprime to the A5 side, |T : A5|^2."""
    q, index = p["q"], p["index"]
    bound = 2 * 60**2
    f_cert = p1_product_subdegree(q, False)
    if q % 4 == 3 and not ctx_obstruction(q).all_pass:
        return "obstructions", "error: ingredients failed", None
    d_cert = witness_subdegree(q, 2, "A5", False, shifts=_c2_candidates(q, "A5"))
    ok = f_cert.value == 2 * (q + 1) ** 2 and bound % f_cert.value == 0
    ok = ok and d_cert.value == index**2 and gcd(bound, d_cert.value) == 1
    claim = bound if 2 * (q + 1) ** 2 == bound else f"divides {bound}"
    expected = f"({claim},{index**2},gcd=1)"
    actual = expected if ok else f"({f_cert.value},{d_cert.value})"
    return expected, actual, {"f": f_cert.to_record(), "g": d_cert.to_record()}


# -- lemma checks -----------------------------------------------------------------

def lemma_specs(cfg: RunConfig, lemma_id: str) -> list[tuple]:
    if lemma_id not in LEMMA_IDS:
        raise UnknownLemmaError(f"unknown lemma id {lemma_id!r}; known: {LEMMA_IDS}")
    specs = []

    def gated(q):
        return q >= 17 and not cfg.long_running

    if lemma_id == "3.1":
        combos = []
        if 7 in cfg.q_list:
            combos.append((7, "S4", ["C2", "C2^2", "S3", "D8"]))
        if 11 in cfg.q_list:
            combos.append((11, "A5", ["C2", "D6", "D10", "C2^2"]))
        if 19 in cfg.q_list or cfg.long_running:
            combos.append((19, "A5", ["C2"]))
        for q, klabel, rlabels in combos:
            for rl in rlabels:
                specs.append(_spec("lm_double_count", q=q, K=klabel, R=rl, gated=gated(q)))
    elif lemma_id == "3.3":
        specs = [_spec("lm_coset_involution", q=q) for q in cfg.q_list]
    elif lemma_id == "3.4":
        for q in cfg.q_list:
            if atlas.label_exists(q, "A5"):
                specs.append(_spec("lm_search", lemma="3.4", q=q, K="A5", R="C2", kind="3.4",
                                   expected="NotFound" if q <= 11 else "witness",
                                   gated=gated(q)))
    elif lemma_id == "3.5":
        for q in cfg.q_list:
            p, f = factor_prime_power(q)
            if f == 1 and q % 8 in (1, 7):
                search = {"q": q, "K": "S4", "expected": "witness", "gated": gated(q)}
                specs.append(_spec("lm_search", lemma="3.5a", R="C2^2", kind="3.5a", **search))
                if q >= 17:
                    specs.append(_spec("lm_search", lemma="3.5b", R="C2", kind="3.5b", **search))
    elif lemma_id == "3.6":
        for q in cfg.q_list:
            p, f = factor_prime_power(q)
            if p == 2 and f >= 2:
                specs.append(_spec("lm_search", lemma="3.6", q=q, K="DihedralPlus", R="C2",
                                   kind="3.6", expected="witness"))
    elif lemma_id == "4.2-triple":
        if 11 in cfg.q_list:
            specs.append(_spec("lm_search", lemma="4.2-triple", q=11, K="A5", R="C2",
                               kind="thm4.2-q11-triple", expected="witness", triple=True))
    elif lemma_id == "dickson-census":
        for q in cfg.q_list:
            k = gcd(2, q - 1)
            for torus in ((q - 1) // k, (q + 1) // k):
                for d in range(3, torus + 1):
                    if torus % d == 0:
                        specs.append(_spec("lm_census", q=q, d=d, torus=torus))
    elif lemma_id == "6.1":
        specs.append(_spec("lm_max_census_h", q=4))
    elif lemma_id == "6.2":
        specs.append(_spec("lm_max_census_t2", q=4))
    elif lemma_id in ("7.4", "7.8"):
        fn = "lm_xy_conditions" if lemma_id == "7.4" else "lm_wreath_conditions"
        specs = [_spec(fn, q=q) for q in cfg.q_list if exact_scan_ok(q, cfg.long_running)]
    elif lemma_id == "obstruction":
        specs = [_spec("lm_obstruction", q=q) for q in cfg.q_list if q % 2 == 0 or q % 4 == 3]
    elif lemma_id == "5-properties":
        specs.append(_spec("lm_action_axiom", q=7, samples=10000))
        specs += [_spec("lm_roundtrip", q=q) for q in (4, 5)]
        specs.append(_spec("lm_invariance", q=4))
    return specs


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
    alpha = ctx_p1_product(q)[1]
    ok = wreath.check_XY_conditions(alpha, P1, P1)
    full = wreath.check_XY_conditions(alpha, P1, P1, full_scan=True)
    rng = np.random.default_rng(q)
    Tfull = engine.Subgroup(T, range(T.order))
    none_pass = True
    for _ in range(50):
        a = wreath.random_alpha(T, rng)
        if not a.is_identity() and wreath.check_XY_conditions(a, Tfull, Tfull):
            none_pass = False
    return True, ok and (ok == full) and none_pass, None


@check("lemma7.8.q{q}", error="True")
def lm_wreath_conditions(p, cfg):
    q = p["q"]
    T = ctx_group(q)
    P1 = ctx_p1(q)
    gamma = int(T.elements_of_order(2)[0])
    alpha_h, _, _ = wreath.build_centralizer_fn(T, gamma, 2)
    C = engine.centralizer(T, gamma)
    # build_centralizer_fn has already asserted that its stabilizer is C wr S_2
    ok1 = wreath.check_wreath_conditions(alpha_h, C)
    ok2 = True
    if q % 4 != 1:
        # P1 wr S_2 stabilizers are ruled out only for q even or 3 mod 4
        alpha_g = ctx_p1_product(q)[1]
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


@check("lemma5.action-axiom.q{q}", error="True")
def lm_action_axiom(p, cfg):
    q, samples = p["q"], p["samples"]
    T = ctx_group(q)
    n = T.order
    rng = np.random.default_rng(12345)
    ok = True
    for _ in range(samples):
        alpha = wreath.random_alpha(T, rng)
        h1 = (int(rng.integers(n)), int(rng.integers(n)), int(rng.integers(2)))
        h2 = (int(rng.integers(n)), int(rng.integers(n)), int(rng.integers(2)))
        lhs = wreath.act_alpha(alpha, wreath.w2_product(T, h1, h2))
        rhs = wreath.act_alpha(wreath.act_alpha(alpha, h1), h2)
        if lhs != rhs:
            ok = False
            break
    return True, ok, {"samples": samples}


@check("lemma5.roundtrip.q{q}", error="True")
def lm_roundtrip(p, cfg):
    """The alpha formula defines a twisted-equivariant function on all of H."""
    T = ctx_group(p["q"])
    n = T.order
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(3):
        alpha = wreath.random_alpha(T, rng)
        ells = [(int(rng.integers(n)), int(rng.integers(n)), int(rng.integers(2)))
                for _ in range(8)]
        ells = [(x, x, k) for (x, _, k) in ells]
        for a in range(n):
            for b in (0, int(rng.integers(n))):
                for k in (0, 1):
                    z = (a, b, k)
                    fz = alpha.evaluate(z)
                    for ell in ells:
                        lhs = alpha.evaluate(wreath.w2_product(T, z, ell))
                        rhs = T.conj(fz, ell[0])
                        if lhs != rhs:
                            ok = False
    # direct-action agreement on random group elements
    for _ in range(20):
        alpha = wreath.random_alpha(T, rng)
        h = (int(rng.integers(n)), int(rng.integers(n)), int(rng.integers(2)))
        direct = np.array(
            [alpha.evaluate(wreath.w2_product(T, h, (t, 0, 0))) for t in range(n)],
            dtype=np.int64,
        )
        if not np.array_equal(direct, wreath.act_alpha(alpha, h).values):
            ok = False
    return True, ok, None


@check("lemma5.invariance.q{q}", error="True")
def lm_invariance(p, cfg):
    """Full two-sided invariance forces the identity function."""
    T = ctx_group(p["q"])
    Tfull = engine.Subgroup(T, range(T.order))
    rng = np.random.default_rng(7)
    ok = wreath.check_XY_conditions(wreath.identity_alpha(T), Tfull, Tfull)
    ok = ok and wreath.propagate_full_invariance(wreath.identity_alpha(T))
    for c in range(1, T.order):
        alpha = wreath.AlphaFn(T, np.full(T.order, c, dtype=np.int64))
        if wreath.check_XY_conditions(alpha, Tfull, Tfull):
            ok = False
    for _ in range(10000):
        alpha = wreath.random_alpha(T, rng)
        if wreath.check_XY_conditions(alpha, Tfull, Tfull):
            if not (wreath.propagate_full_invariance(alpha) and alpha.is_identity()):
                ok = False
    return True, ok, None


# -- maximality censuses at q = 4 -------------------------------------------------

def _embed_triples(T, H, triples):
    return H.index(np.array([wreath.wreath_perm(T, u) for u in triples]))


def _frobenius_conj_index(T):
    from .psl import frobenius_perm

    pi = np.array(frobenius_perm(T.field))
    return T.index(pi[T.elements[:, np.argsort(pi)]]).tolist()  # pi^-1 e pi over e


def _h_maximal_types(T, H):
    """Representatives of the three maximal-subgroup types of T wr S_2."""
    n = T.order
    t2 = _embed_triples(T, H, [(a, b, 0) for a in range(n) for b in range(n)])
    types = {"type1.T2": engine.Subgroup(H, t2)}
    diag = [(t, t, k) for t in range(n) for k in (0, 1)]
    types["type2.diag"] = engine.Subgroup(H, _embed_triples(T, H, diag))
    fr = _frobenius_conj_index(T)
    twisted = [(t, fr[t], k) for t in range(n) for k in (0, 1)]
    types["type2.twisted"] = engine.Subgroup(H, _embed_triples(T, H, twisted))
    for label in ("A4", "DihedralPlus", "DihedralMinus"):
        K = ctx_atlas(4, label).subgroup
        triples = list(wreath.wreath_sub(K).member_triples())
        types[f"type3.{label}"] = engine.Subgroup(H, _embed_triples(T, H, triples))
    return types


def _grow_to_maximal(G, S, rng):
    """Grow a proper subgroup to a maximal one (verified by the overgroup test)."""
    while True:
        grown = False
        for _ in range(40):
            g = int(rng.integers(G.order))
            if g in S.member_set:
                continue
            S2 = engine.generate(G, list(S.generating_set()) + [g])
            if S2.order < G.order:
                S = S2
                grown = True
                break
        if not grown:
            if engine.is_maximal(G, S):
                return S
            # rare: random probes missed an extension; scan deterministically
            for g in range(G.order):
                if g not in S.member_set:
                    S2 = engine.generate(G, list(S.generating_set()) + [g])
                    if S2.order < G.order:
                        S = S2
                        break


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
        while True:
            g1, g2 = int(rng.integers(H.order)), int(rng.integers(H.order))
            S = engine.generate(H, [g1, g2])
            if S.order < H.order:
                break
        M = _grow_to_maximal(H, S, rng)
        if M.member_set == t2_set:
            classified += 1
            continue
        base = [wreath.wreath_triple(T, e) for e in H.elements[M.members].tolist()]
        straight = [u for u in base if u[2] == 0]
        if len(straight) * 2 != len(base):
            continue
        proj1 = {u[0] for u in straight}
        proj2 = {u[1] for u in straight}
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

    def embed(pairs):
        return engine.Subgroup(T2, _embed_triples(T, T2, [(a, b, 0) for (a, b) in pairs]))

    n = T.order
    full = list(range(n))
    types = {}
    for label in ("A4", "DihedralPlus", "DihedralMinus"):
        K = ctx_atlas(4, label).subgroup
        types[f"KxT.{label}"] = embed([(a, b) for a in K for b in full])
        types[f"TxK.{label}"] = embed([(a, b) for a in full for b in K])
    types["diag"] = embed([(t, t) for t in range(n)])
    fr = _frobenius_conj_index(T)
    types["diag.twisted"] = embed([(t, fr[t]) for t in range(n)])
    all_max = all(engine.is_maximal(T2, S) for S in types.values())
    # trichotomy on sampled proper subgroups
    rng = np.random.default_rng(55)
    classified = 0
    samples = 6
    for _ in range(samples):
        while True:
            g1, g2 = int(rng.integers(T2.order)), int(rng.integers(T2.order))
            S = engine.generate(T2, [g1, g2])
            if S.order < T2.order:
                break
        pairs = [wreath.wreath_triple(T, e)[:2] for e in T2.elements[S.members].tolist()]
        p1 = {a for a, _ in pairs}
        p2 = {b for _, b in pairs}
        if len(p1) < n or len(p2) < n:
            classified += 1  # inside a factor-maximal product
        elif len(pairs) == n:
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
    if cfg.workers > 1 and len(specs) > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_run_one, [(s, cfg) for s in specs]))
    else:
        results = [_run_one((s, cfg)) for s in specs]
    return sorted(results, key=lambda r: r.check_id)
