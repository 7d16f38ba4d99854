"""Spans and call counts around twdeg's public functions, recorded from outside.

`install("spans")` replaces each function named in SPANS by a wrapper that
records a span (name, start, end, parent, value) in memory, wherever a twdeg
module binds that function: `atlas` imports `coset_representatives` from
`engine` by name, so both names are patched. `install("counts")` wraps the
functions called too often to time (`GroupTable.mul` runs about 8M times in
`lemma 6.1`) with bare counters; it is a separate, untimed pass.
`layer_metrics` turns the recorded spans and counts into the per-layer
metrics. Self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import hashlib
import sys
import time

# (module, attribute path) of every function that gets a span.
SPANS = [
    ("field", "Field.__init__"),
    ("psl", "psl_group"),
    ("engine", "GroupTable.ensure_mul_table"),
    ("engine", "generate"),
    ("engine", "is_maximal"),
    ("engine", "coset_representatives"),
    ("engine", "normalizer"),
    ("engine", "centralizer"),
    ("engine", "dihedral_class_census"),
    ("atlas", "find_named_subgroup"),
    ("atlas", "search_intersection"),
    ("atlas", "search_triple_intersection"),
    ("atlas", "replay_witness"),
    ("wreath", "stabilizer_subdegree"),
    ("wreath", "build_coset_fn"),
    ("wreath", "build_centralizer_fn"),
    ("wreath", "find_witness_t"),
    ("wreath", "filter_L_members"),
    ("wreath", "obstruction_checks"),
    ("wreath", "replay_certificate"),
    ("checks", "execute_specs"),
    ("cli", "main"),
    ("cli", "cmd_report"),
]

# Functions counted, not timed, in the counting pass.
COUNTS = [
    ("engine", "GroupTable.mul"),
    ("wreath", "act_alpha"),
    ("wreath", "d_t_cap_L"),
]


def _resolve(module: str, path: str):
    """(owner object, attribute name, function) for a dotted path in twdeg."""
    owner = sys.modules[f"twdeg.{module}"]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def _rebind(owner, attr, original, replacement) -> None:
    """Bind `replacement` on its owner and in every twdeg module that
    imported `original` by name."""
    setattr(owner, attr, replacement)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "twdeg" or name.startswith("twdeg.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, replacement)


def _before(name: str, args):
    """A value taken at call time, for counts that need the arguments."""
    if name == "engine.GroupTable.ensure_mul_table":
        table = args[0]
        return table.order if table._mul is None else 0  # built by this call
    if name == "wreath.stabilizer_subdegree":
        alpha = args[0]
        digest = hashlib.blake2b(alpha.values.tobytes(), digest_size=16).hexdigest()
        return [alpha.T.order, f"{alpha.T.order}:{digest}"]
    return None


def _after(name: str, before, result):
    if name == "psl.psl_group":
        return result.order
    if name in ("atlas.search_intersection", "atlas.search_triple_intersection"):
        return result.scanned
    if name == "checks.execute_specs":
        return len(result)
    return before


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, value]
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            before = _before(name, args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, before]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[4] = _after(name, before, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self) -> dict:
        return {"spans": self.spans}


class CallCounter:
    def __init__(self):
        self.counts: dict[str, list[int]] = {}

    def wrap(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def dump(self) -> dict:
        return {"counts": {k: v[0] for k, v in self.counts.items()}}


def install(mode: str):
    """Patch the loaded twdeg modules; returns the recorder to dump at exit."""
    recorder, targets = (SpanRecorder(), SPANS) if mode == "spans" else (CallCounter(), COUNTS)
    for module, path in targets:
        owner, attr, fn = _resolve(module, path)
        _rebind(owner, attr, fn, recorder.wrap(f"{module}.{path}", fn))
    return recorder


# -- parent side: per-layer metrics ------------------------------------------------

# metric -> span names whose self time it sums
SELF_TIME = {
    "field.build_s": ["field.Field.__init__"],
    "psl.enumerate_s": ["psl.psl_group"],
    "engine.mul_table_s": ["engine.GroupTable.ensure_mul_table"],
    "engine.is_maximal_s": ["engine.is_maximal"],
    "engine.closure_s": ["engine.generate"],
    "engine.coset_reps_s": ["engine.coset_representatives"],
    "engine.normalizer_s": ["engine.normalizer"],
    "engine.centralizer_s": ["engine.centralizer"],
    "engine.census_s": ["engine.dihedral_class_census"],
    "atlas.named_s": ["atlas.find_named_subgroup"],
    "atlas.search_s": ["atlas.search_intersection", "atlas.search_triple_intersection"],
    "atlas.replay_s": ["atlas.replay_witness"],
    "wreath.scan_s": ["wreath.stabilizer_subdegree"],
    "wreath.coset_fn_s": ["wreath.build_coset_fn", "wreath.build_centralizer_fn"],
    "wreath.witness_s": ["wreath.find_witness_t"],
    "wreath.filter_L_s": ["wreath.filter_L_members"],
    "wreath.obstruction_s": ["wreath.obstruction_checks"],
    "wreath.replay_s": ["wreath.replay_certificate"],
    "checks.self_s": ["checks.execute_specs"],
    "cli.self_s": ["cli.main", "cli.cmd_report"],
}

COUNT_OF_CALLS = {
    "engine.mul_calls": "engine.GroupTable.mul",
    "wreath.act_alpha_calls": "wreath.act_alpha",
    "wreath.dtl_calls": "wreath.d_t_cap_L",
}

UNITS = {name: "s" for name in SELF_TIME}
UNITS.update({name: "count" for name in COUNT_OF_CALLS})
UNITS.update({
    "psl.elements": "count", "engine.mul_tables": "count", "engine.mul_table_mb": "MB",
    "atlas.scanned": "count", "wreath.scans": "count", "wreath.scan_elements": "count",
    "wreath.scans_repeated": "count", "wreath.coset_fns": "count", "checks.run": "count",
    "trace.overhead_s": "s",
})


def self_times(spans: list[list]) -> dict[str, float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    out: dict[str, float] = {}
    for s, t in zip(spans, own):
        out[s[0]] = out.get(s[0], 0.0) + t
    return out


def layer_metrics(processes: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one workload from each process's spans and counts.

    Each dict holds `spans` (spans pass) and/or `counts` (counting pass).
    `wreath.scans_repeated` counts scans of an alpha already scanned in the
    same process, since each command is its own process.
    """
    m = {name: 0.0 for name in SELF_TIME}
    m.update({name: 0 for name in UNITS if name not in m})
    for proc in processes:
        for name, t in self_times(proc.get("spans", [])).items():
            for metric, names in SELF_TIME.items():
                if name in names:
                    m[metric] += t
        seen = set()
        for name, _, _, _, value in proc.get("spans", []):
            # a call that raised keeps the value taken before it (None for a result)
            if name == "psl.psl_group":
                m["psl.elements"] += value or 0
            elif name == "engine.GroupTable.ensure_mul_table" and value:
                m["engine.mul_tables"] += 1
                m["engine.mul_table_mb"] += 4 * value * value / 1e6  # int32 n x n, computed
            elif name.startswith("atlas.search_"):
                m["atlas.scanned"] += value or 0
            elif name == "wreath.stabilizer_subdegree":
                n, key = value
                m["wreath.scans"] += 1
                m["wreath.scan_elements"] += 2 * n * n
                m["wreath.scans_repeated"] += key in seen
                seen.add(key)
            elif name in SELF_TIME["wreath.coset_fn_s"]:
                m["wreath.coset_fns"] += 1
            elif name == "checks.execute_specs":
                m["checks.run"] += value or 0
        for metric, name in COUNT_OF_CALLS.items():
            m[metric] += proc.get("counts", {}).get(name, 0)
    return m
