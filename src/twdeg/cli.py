"""Command-line verifier: replay the named table and lemma checks.

Subcommands: table1, table2, table4, lemma <id>, report.  Results are
printed one per line and optionally written as JSON or CSV; the exit code
is 0 exactly when no check failed (skipped-long entries do not fail a run).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

from . import __version__, atlas, checks
from .checks import CheckResult, RunConfig


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="twdeg",
        description="verify subdegree tables and lemma-tagged computations "
        "for twisted wreath groups over PSL(2,q)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--q", type=int, nargs="+", default=None,
                       help="prime powers >= 4 (default 4 7 8 9 11 13)")
        p.add_argument("--m", type=int, nargs="+", default=None,
                       help="wreath arities (default 2 3)")
        p.add_argument("--long", action="store_true",
                       help="enable long-running searches and scans")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes (default $TWDEG_WORKERS or 1)")
        p.add_argument("--out", type=str, default=None, help="write a report file")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--cache", type=str, default=None,
                       help="witness cache file shared with the searches")

    for name in ("table1", "table2", "table4"):
        add_common(sub.add_parser(name))
    pl = sub.add_parser("lemma")
    pl.add_argument("lemma_id", choices=checks.LEMMA_IDS, metavar="lemma_id",
                    help=f"one of {', '.join(checks.LEMMA_IDS)}")
    pl.add_argument("--d", type=int, default=None,
                    help="restrict the dihedral census to one d")
    add_common(pl)
    pr = sub.add_parser("report")
    pr.add_argument("--in", dest="inputs", type=str, nargs="+", required=True,
                    help="prior JSON report files to aggregate")
    pr.add_argument("--out", type=str, default=None)
    pr.add_argument("--format", choices=("json", "csv"), default="json")
    pr.add_argument("--replay", action="store_true",
                    help="re-derive each stored certificate before aggregating")
    return ap


def config_from_args(args) -> RunConfig:
    notes: list[str] = []
    q_explicit = args.q is not None
    qs = checks.normalize_q_list(args.q if q_explicit else list(checks.DEFAULT_Q), notes)
    ms = args.m if args.m is not None else list(checks.DEFAULT_M)
    if any(m < 2 for m in ms):
        raise ValueError("m values must be >= 2")
    workers = args.workers
    if workers is None:
        workers = int(os.environ.get("TWDEG_WORKERS", "1"))
    return RunConfig(
        q_list=qs, m_list=sorted(set(ms)), long_running=args.long,
        workers=max(1, workers), out=args.out, fmt=args.format,
        cache=args.cache, q_explicit=q_explicit, notes=notes,
    )


def results_to_report(cfg: RunConfig | None, results: list[CheckResult]) -> dict:
    return {
        "version": __version__,
        "config": cfg.to_record() if cfg is not None else {},
        "results": [r.to_record() for r in results],
    }


def render_csv(results: list[CheckResult]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["check_id", "status", "expected", "actual", "runtime_ms"])
    for r in results:
        w.writerow([r.check_id, r.status, r.expected, r.actual, round(r.runtime_ms, 3)])
    return buf.getvalue()


def write_report(path: str, cfg: RunConfig | None, results: list[CheckResult], fmt: str):
    p = Path(path)
    if fmt == "csv":
        p.write_text(render_csv(results))
    else:
        p.write_text(json.dumps(results_to_report(cfg, results), indent=2) + "\n")


def print_results(results: list[CheckResult], stream=None):
    stream = stream or sys.stdout
    for r in results:
        tag = {"pass": "PASS", "fail": "FAIL", "skipped-long": "SKIP"}[r.status]
        line = f"{tag}  {r.check_id}"
        if r.status != "skipped-long":
            line += f"  expected={r.expected}  actual={r.actual}"
        line += f"  ({r.runtime_ms:.0f}ms)"
        print(line, file=stream)
    npass = sum(1 for r in results if r.status == "pass")
    nfail = sum(1 for r in results if r.status == "fail")
    nskip = sum(1 for r in results if r.status == "skipped-long")
    print(f"-- {npass} passed, {nfail} failed, {nskip} skipped", file=stream)


def exit_code(results: list[CheckResult]) -> int:
    return 1 if any(r.status == "fail" for r in results) else 0


def _replay_result(rec: dict) -> CheckResult | None:
    """Re-verify any replayable certificate attached to a stored result."""
    from . import atlas, wreath

    wit = rec.get("witness")
    if not isinstance(wit, dict):
        return None
    certs = []
    if "kind" in wit and "witness" in wit:
        certs.append(wit)
    for key in ("r", "d", "f", "g"):
        sub = wit.get(key)
        if isinstance(sub, dict) and "kind" in sub and "witness" in sub:
            certs.append(sub)
    if not certs and "element_indices" in wit and "label" in wit:
        q = int(wit["q"])
        T = checks.ctx_group(q)
        K = checks.ctx_atlas(q, wit["label"]).subgroup
        try:
            atlas.replay_witness(T, K, wit)
            return CheckResult(f"replay.{rec['check_id']}", "pass", "reproduced",
                               "reproduced")
        except Exception as e:  # noqa: BLE001
            return CheckResult(f"replay.{rec['check_id']}", "fail", "reproduced",
                               f"error: {e}")
    if not certs:
        return None
    for c in certs:
        cert = wreath.SubdegreeCertificate.from_record(c)
        T = checks.ctx_group(cert.q)
        try:
            value = wreath.replay_certificate(cert, T)
        except Exception as e:  # noqa: BLE001
            return CheckResult(f"replay.{rec['check_id']}", "fail", str(cert.value),
                               f"error: {e}")
        if value != cert.value:
            return CheckResult(f"replay.{rec['check_id']}", "fail", str(cert.value),
                               str(value))
    return CheckResult(f"replay.{rec['check_id']}", "pass", "reproduced", "reproduced")


def read_report(path: str) -> dict:
    """A prior JSON report; ValueError when the file holds none."""
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as e:
        raise ValueError(f"report {path} is not JSON: {e}") from e
    if not isinstance(data, dict) or not isinstance(data.get("results", []), list):
        raise ValueError(f"report {path} is not a twdeg report")
    return data


def cmd_report(args, reports: list[dict]) -> int:
    merged: list[CheckResult] = []
    for data in reports:
        for rec in data.get("results", []):
            merged.append(CheckResult(
                rec["check_id"], rec["status"], rec.get("expected", ""),
                rec.get("actual", ""), rec.get("runtime_ms", 0.0),
                rec.get("witness"),
            ))
        if args.replay:
            for rec in data.get("results", []):
                if rec.get("status") != "pass":
                    continue
                rr = _replay_result(rec)
                if rr is not None:
                    merged.append(rr)
    merged.sort(key=lambda r: r.check_id)
    print_results(merged)
    if args.out:
        write_report(args.out, None, merged, args.format)
    return exit_code(merged)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # bad input ends here with a usage line and exit status 2
    try:
        if args.command == "report":
            reports = [read_report(path) for path in args.inputs]
        else:
            cfg = config_from_args(args)
            if cfg.cache:
                atlas.load_witness_cache(cfg.cache)
    except (OSError, ValueError) as e:
        parser.error(str(e))
    if args.command == "report":
        return cmd_report(args, reports)
    if args.command == "table1":
        specs = checks.table1_specs(cfg)
    elif args.command == "table2":
        specs = checks.table2_specs(cfg)
    elif args.command == "table4":
        specs = checks.table4_specs(cfg)
    else:
        specs = checks.lemma_specs(cfg, args.lemma_id)
        if args.lemma_id == "dickson-census" and args.d is not None:
            specs = [s for s in specs if s[2].get("d") == args.d]
    results = checks.execute_specs(specs, cfg)
    print_results(results)
    if cfg.out:
        write_report(cfg.out, cfg, results, cfg.fmt)
    return exit_code(results)


if __name__ == "__main__":
    raise SystemExit(main())
