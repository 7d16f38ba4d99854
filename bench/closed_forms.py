"""The benchmark's own expected values for every twdeg check line.

Nothing here reads the program's `expected` field or imports twdeg. Each
value is derived from the paper's closed forms: subdegrees are indices
|T : C| of subgroups of T = PSL(2,q), with |T| = q(q^2-1)/(2,q-1), raised
to the m-th power (doubled for the P1 x P1 function at m = 2). Each checker
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import re
from math import gcd

LINE = re.compile(
    r"^(?P<status>PASS|FAIL|SKIP)  (?P<id>\S+)"
    r"(?:  expected=(?P<expected>.*)  actual=(?P<actual>.*))?  \(\d+ms\)$"
)
SUMMARY = re.compile(r"^-- (\d+) passed, (\d+) failed, (\d+) skipped$")
PAIR = re.compile(r"^\((\d+),(\d+),gcd=(\d+)\)$")


def psl_order(q: int) -> int:
    return q * (q * q - 1) // gcd(2, q - 1)


def subgroup_order(q: int, name: str) -> int:
    """Orders of the subgroups of PSL(2,q) the tables use (Dickson's list)."""
    k = gcd(2, q - 1)
    return {
        "P1": q * (q - 1) // k,          # Borel subgroup, index q + 1
        "D+": 2 * (q + 1) // k,          # dihedral normalizer of the nonsplit torus
        "D-": 2 * (q - 1) // k,          # dihedral normalizer of the split torus
        "C(inv)": (q - (1 if q % 4 == 1 else -1)) if q % 2 else q,  # involution centralizer
        "C+": (q + 1) // k,              # nonsplit torus: centralizer of its generator
        "C-": (q - 1) // k,              # split torus
        "U": q,                          # unipotent radical: centralizer of an order-p element
        "A4": 12,
        "S4": 24,
        "A5": 60,
    }[name]


def index(q: int, name: str) -> int:
    return psl_order(q) // subgroup_order(q, name)


# Table 1: the row's subdegree is |T : C|^m for the subgroup C named here.
TABLE1_SUBGROUP = {
    "row1": "P1", "row2": "C(inv)", "row3": "D+", "row4a": "C+", "row4b": "C-",
    "row5": "U", "row6": "S4", "row7": "A5",
}


def table1_value(row: str, q: int, m: int) -> int:
    return index(q, TABLE1_SUBGROUP[row]) ** m


def p1_product(q: int) -> int:
    """Subdegree of the P1 x P1 coset function at m = 2: 2 (q+1)^2."""
    return 2 * index(q, "P1") ** 2


def table2_pair(row: str, q: int, m: int) -> tuple[int, int]:
    if row == "row1":
        return index(q, "C(inv)") ** 2, p1_product(q)
    if row in ("row2", "row3"):
        r = "C(inv)" if row == "row2" else "D+"
        return index(q, r) ** m, index(q, "P1") ** m
    if row == "row5":  # q = 7: S4 witness and the order-7 class
        return index(q, "S4") ** m, index(q, "U") ** m
    if row == "row6":  # q = 11: A5 witness and the order-11 class
        return index(q, "A5") ** m, index(q, "U") ** m
    raise KeyError(row)


def table4_pair(q: int, pair: str) -> tuple[int, int]:
    """The m = 2 pairs of Table 4, for example 2*24^2 and 253^2 at q = 23."""
    if pair == "pair1":
        return p1_product(q), index(q, "C(inv)") ** 2
    if (q, pair) == (7, "pair2"):
        return index(q, "U") ** 2, index(q, "S4") ** 2        # 24^2, 7^2
    if (q, pair) == (11, "pair2"):
        return index(q, "U") ** 2, index(q, "A5") ** 2        # 60^2, 11^2
    if (q, pair) == (11, "pair3"):
        return p1_product(q), index(q, "A4") ** 2             # 2*12^2, 55^2
    if (q, pair) == (19, "pair2"):
        return p1_product(q), index(q, "A5") ** 2             # 2*20^2, 57^2
    if (q, pair) == (23, "pair2"):
        return p1_product(q), index(q, "S4") ** 2             # 2*24^2, 253^2
    raise KeyError((q, pair))


def dickson_classes(q: int, d: int) -> int:
    """Classes of dihedral subgroups D_2d: two exactly when torus/d is even."""
    k = gcd(2, q - 1)
    for torus in ((q - 1) // k, (q + 1) // k):
        if torus % d == 0:
            return 2 if (torus // d) % 2 == 0 else 1
    raise KeyError((q, d))


# Lemma lines whose actual value is a verdict rather than a number.
LEMMA_VERDICT = [
    (re.compile(r"^lemma3\.1\.q\d+\.\w+\.\S+$"), "ok"),
    (re.compile(r"^lemma3\.3\.q\d+$"), "True"),
    (re.compile(r"^lemma3\.4\.q(9|11)$"), "NotFound"),  # A5 meets no conjugate in C2
    (re.compile(r"^lemma3\.5a\.q\d+$"), "witness"),
    (re.compile(r"^lemma3\.6\.q\d+$"), "witness"),
    (re.compile(r"^lemma4\.2-triple\.q11$"), "witness"),
    (re.compile(r"^lemma5\.\S+$"), "True"),
    (re.compile(r"^lemma6\.[12]\.q4$"), "True"),
    (re.compile(r"^lemma7\.[48]\.q\d+$"), "True"),
    (re.compile(r"^obstruction\.q\d+$"), "True"),
    (re.compile(r"^replay\.\S+$"), "reproduced"),
]

TABLE1_ID = re.compile(r"^table1\.(row\w+)\.q(\d+)\.m(\d+)$")
TABLE2_ID = re.compile(r"^table2\.(row\d)\.q(\d+)\.m(\d+)$")
TABLE4_ID = re.compile(r"^table4\.q(\d+)\.(pair\d)$")
DICKSON_ID = re.compile(r"^dickson-census\.q(\d+)\.d(\d+)$")


def expected_actual(check_id: str) -> tuple[str, int | None, int | None]:
    """(the closed-form actual string, q, m); q and m are None off the tables."""
    if mt := TABLE1_ID.match(check_id):
        row, q, m = mt[1], int(mt[2]), int(mt[3])
        return str(table1_value(row, q, m)), q, m
    if mt := TABLE2_ID.match(check_id):
        row, q, m = mt[1], int(mt[2]), int(mt[3])
        a, b = table2_pair(row, q, m)
        return f"({a},{b},gcd=1)", q, m
    if mt := TABLE4_ID.match(check_id):
        q = int(mt[1])
        a, b = table4_pair(q, mt[2])
        return f"({a},{b},gcd=1)", q, 2
    if mt := DICKSON_ID.match(check_id):
        return str(dickson_classes(int(mt[1]), int(mt[2]))), None, None
    for pattern, verdict in LEMMA_VERDICT:
        if pattern.match(check_id):
            return verdict, None, None
    raise KeyError(check_id)


def subdegree_properties(actual: str, q: int, m: int) -> list[str]:
    """Properties of the reported values themselves: at m = 2 a subdegree is
    an index in H = T wr S_2, so it divides 2|T|^2; the two subdegrees of a
    pair are coprime."""
    if mt := PAIR.match(actual):
        values = [int(mt[1]), int(mt[2])]
        coprime = gcd(*values) == 1 and mt[3] == "1"
        problems = [] if coprime else [f"pair {actual} is not coprime"]
    elif actual.isdigit():
        values, problems = [int(actual)], []
    else:
        return [f"{actual!r} is not a subdegree"]
    for v in values:
        if m == 2 and (v == 0 or (2 * psl_order(q) ** 2) % v):
            problems.append(f"subdegree {v} at q={q} does not divide 2|T|^2")
    return problems


def parse_lines(stdout: str) -> tuple[list[dict], tuple[int, int, int] | None]:
    checks, summary = [], None
    for line in stdout.splitlines():
        if mt := LINE.match(line):
            checks.append(mt.groupdict())
        elif mt := SUMMARY.match(line):
            summary = tuple(int(x) for x in mt.groups())
    return checks, summary


def check_output(stdout: str, expected_lines: int | None = None,
                 skip: tuple[str, ...] = ()) -> list[str]:
    """Problems with one command's output: every line against its closed form,
    except the lines whose check id is in `skip` (they are still counted)."""
    problems = []
    lines, summary = parse_lines(stdout)
    if summary is None:
        problems.append("no summary line")
    elif summary[0] + summary[1] + summary[2] != len(lines):
        problems.append(f"summary {summary} does not count {len(lines)} lines")
    if expected_lines is not None and len(lines) != expected_lines:
        problems.append(f"{len(lines)} check lines, expected {expected_lines}")
    for rec in lines:
        cid = rec["id"]
        if cid in skip:
            continue
        if rec["status"] != "PASS":
            problems.append(f"{cid}: status {rec['status']}")
            continue
        try:
            want, q, m = expected_actual(cid)
        except KeyError:
            problems.append(f"{cid}: no closed form for this check")
            continue
        if rec["actual"] != want:
            problems.append(f"{cid}: actual {rec['actual']} != closed form {want}")
        if q is not None:
            problems += [f"{cid}: {p}" for p in subdegree_properties(rec["actual"], q, m)]
    return problems


def maximal_type_orders(lemma: str, q: int = 4) -> dict[str, int]:
    """Orders of the maximal-subgroup types listed by lemma 6.1 (T wr S_2)
    and lemma 6.2 (T x T): |T|^2, 2|T|, 2|K|^2 and |K||T|, plus |T| for
    the diagonals of T x T."""
    n = psl_order(q)
    ks = {"A4": 12, "DihedralPlus": subgroup_order(q, "D+"),
          "DihedralMinus": subgroup_order(q, "D-")}
    if lemma == "6.1":
        out = {"type1.T2": n * n, "type2.diag": 2 * n, "type2.twisted": 2 * n}
        out.update({f"type3.{k}": 2 * o * o for k, o in ks.items()})
        return out
    out = {"diag": n, "diag.twisted": n}
    for k, o in ks.items():
        out[f"KxT.{k}"] = o * n
        out[f"TxK.{k}"] = o * n
    return out


def check_maximal_witness(lemma: str, report: dict) -> list[str]:
    results = report.get("results", [])
    if len(results) != 1:
        return [f"lemma {lemma}: {len(results)} results, expected 1"]
    wit = results[0].get("witness") or {}
    problems = []
    if wit.get("types") != maximal_type_orders(lemma):
        problems.append(f"lemma {lemma}: maximal types {wit.get('types')} "
                        f"!= {maximal_type_orders(lemma)}")
    if wit.get("samples_classified") != 6:
        problems.append(f"lemma {lemma}: {wit.get('samples_classified')} of 6 samples classified")
    return problems


def check_cache_passes(first: str, second: str, cache_before: str, cache_after: str,
                       records: list) -> list[str]:
    """The cache-read pass reproduces the cache-write pass and leaves the file alone."""
    problems = []
    a = [(r["id"], r["status"], r["actual"]) for r in parse_lines(first)[0]]
    b = [(r["id"], r["status"], r["actual"]) for r in parse_lines(second)[0]]
    if a != b:
        problems.append("cache-read pass differs from cache-write pass")
    if cache_before != cache_after:
        problems.append("cache-read pass rewrote the cache file")
    keys = sorted((r.get("q"), r.get("label"), r.get("lemma")) for r in records)
    if keys != sorted(CACHE_RECORDS):
        problems.append(f"cache records {keys} != {sorted(CACHE_RECORDS)}")
    return problems


# Witnesses the four searching lemmas find at the default q list (lemma 3.4
# finds none there: its records are NotFound and are not cached).
CACHE_RECORDS = [
    (7, "S4", "3.5a"), (4, "DihedralPlus", "3.6"), (8, "DihedralPlus", "3.6"),
    (11, "A5", "thm4.2-q11-triple"),
]
