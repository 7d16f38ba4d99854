import json
import os
import re
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

import numpy as np
import pytest

import reference
from conftest import group_for
from twdeg import checks, cli, engine, wreath
from twdeg.checks import RunConfig
from twdeg.psl import psl_order


def run_cli(args):
    return cli.main(args)


def test_table1_q7_exit_zero(capsys):
    rc = run_cli(["table1", "--q", "7", "--m", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS  table1.row2.q7.m2" in out
    assert "expected=441" in out


def test_json_report_schema(tmp_path):
    out = tmp_path / "r.json"
    rc = run_cli(["table2", "--q", "7", "--m", "2", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert set(data) == {"version", "config", "results"}
    assert data["config"]["q"] == [7]
    rec = data["results"][0]
    assert {"check_id", "status", "expected", "actual", "runtime_ms"} <= set(rec)
    # certificate values serialized as decimal strings
    assert isinstance(rec["witness"]["r"]["value"], str)


def test_csv_format(tmp_path):
    out = tmp_path / "r.csv"
    rc = run_cli(["table1", "--q", "4", "--m", "2", "--out", str(out), "--format", "csv"])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "check_id,status,expected,actual,runtime_ms"
    assert len(lines) > 1


def test_results_sorted_by_check_id(tmp_path):
    out = tmp_path / "r.json"
    run_cli(["table1", "--q", "7", "8", "--out", str(out)])
    ids = [r["check_id"] for r in json.loads(out.read_text())["results"]]
    assert ids == sorted(ids)


def test_q5_aliased(tmp_path):
    out = tmp_path / "r.json"
    rc = run_cli(["table1", "--q", "5", "--m", "2", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["config"]["q"] == [4]
    assert any("aliased" in n for n in data["config"]["notes"])


def assert_usage_error(capsys, argv, message):
    """The CLI rejects argv with a usage line, status 2 and the message;
    returns what it printed to stdout."""
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert err.startswith("usage: twdeg") and message in err
    assert "Traceback" not in err
    return out


def test_bad_q_rejected(capsys):
    assert_usage_error(capsys, ["table1", "--q", "6"], "prime powers >= 4; got [6]")
    assert_usage_error(capsys, ["table4", "--q", "3"], "prime powers >= 4; got [3]")


def test_q_past_max_group_order_rejected_before_any_build(monkeypatch, capsys):
    """The tables of PSL(2,271), PSL(2,277) and PSL(2,521) exceed
    psl.MAX_TABLE_BYTES: each is a usage error before any table, field or
    check is built."""
    from twdeg.engine import GroupTable

    def no_build(*args):
        raise AssertionError("a group was built")

    monkeypatch.setattr(GroupTable, "from_generators", no_build)
    for q, order, size in ((271, 9951120, 5493903872), (277, 10626828, 5994456176),
                           (521, 70710120, 74390311872)):
        printed = assert_usage_error(
            capsys, ["table1", "--q", str(q), "--m", "2"],
            f"|PSL(2,{q})| = {order} needs a {size}-byte table, past the 1073741824-byte cap")
        assert printed == ""


def test_bad_m_rejected(capsys):
    assert_usage_error(capsys, ["table1", "--m", "1"], "m values must be >= 2")
    assert_usage_error(capsys, ["table1", "--m", "11"], "<= MAX_M = 10")


@pytest.mark.parametrize("ms", [["7", "8"], pytest.param(["9"], marks=pytest.mark.slow)])
def test_table1_past_the_goldens(capsys, ms):
    """The goldens stop at m = 6; table1 at q = 7 passes every row at
    m = 7 and 8, and at m = 9 under the slow marker."""
    rc = run_cli(["table1", "--q", "7", "--m", *ms])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert f"-- {6 * len(ms)} passed, 0 failed, 0 skipped" in lines
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_unknown_lemma(capsys):
    assert_usage_error(capsys, ["lemma", "9.99"], "invalid choice: '9.99'")


def test_empty_selection_rejected(tmp_path, capsys):
    """A --q, --m or --d that selects no check is a usage error naming it;
    no check runs and no report is written.  table4 holds m = 2 checks
    only, and no lemma check takes an arity, so lemma has no --m."""
    out = tmp_path / "r.json"
    printed = assert_usage_error(capsys, ["table4", "--q", "8", "--out", str(out)],
                                 "no table4 check matches --q 8")
    assert printed == "" and not out.exists()
    printed = assert_usage_error(capsys, ["lemma", "dickson-census", "--d", "100"],
                                 "no lemma dickson-census check matches --d 100")
    assert printed == ""
    for m in (["3"], ["5"], ["3", "4"]):
        printed = assert_usage_error(capsys, ["table4", "--m", *m, "--out", str(out)],
                                     f"no table4 check matches --m {' '.join(m)}")
        assert printed == "" and not out.exists()
    for argv in (["lemma", "7.8", "--m", "5"], ["lemma", "6.1", "--m", "2"]):
        printed = assert_usage_error(capsys, argv + ["--out", str(out)],
                                     f"unrecognized arguments: --m {argv[-1]}")
        assert printed == "" and not out.exists()


def test_table4_m_selection_keeps_m2_checks(tmp_path):
    """A --m list that holds 2 runs table4's checks, and the report's config
    names the list given."""
    out = tmp_path / "r.json"
    assert run_cli(["table4", "--q", "7", "--m", "2", "5", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [r["check_id"] for r in report["results"]] == ["table4.q7.pair1", "table4.q7.pair2"]
    assert report["config"]["m"] == [2, 5]


def test_unreadable_report_rejected(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert_usage_error(capsys, ["report", "--in", str(missing)], "No such file")
    text = tmp_path / "text.json"
    text.write_text("not json\n")
    assert_usage_error(capsys, ["report", "--in", str(text)], f"report {text} is not JSON")
    listing = tmp_path / "list.json"
    listing.write_text("[1, 2]\n")
    assert_usage_error(capsys, ["report", "--in", str(listing)], "is not a twdeg report")


def test_bad_cache_rejected_before_any_check(tmp_path, capsys):
    truncated = tmp_path / "truncated.json"
    truncated.write_text('[{"q": 7, "label": "S4", ')
    out = assert_usage_error(capsys, ["lemma", "3.5", "--q", "7", "--cache", str(truncated)],
                             f"witness cache {truncated} is not JSON")
    assert "lemma3.5" not in out


def test_out_in_missing_directory_rejected_before_any_check(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    printed = assert_usage_error(capsys, ["lemma", "3.3", "--q", "4", "--out", str(out)], str(out))
    assert printed == ""


def test_out_naming_a_directory_rejected_before_any_check(tmp_path, capsys):
    printed = assert_usage_error(capsys, ["lemma", "3.3", "--q", "4", "--out", str(tmp_path)],
                                 f"{tmp_path} is a directory")
    assert printed == ""


def test_report_out_naming_a_directory_rejected(tmp_path, capsys):
    report = tmp_path / "r.json"
    assert run_cli(["lemma", "3.3", "--q", "4", "--out", str(report)]) == 0
    capsys.readouterr()
    printed = assert_usage_error(capsys, ["report", "--in", str(report), "--out", str(tmp_path)],
                                 f"{tmp_path} is a directory")
    assert printed == ""


def test_cache_in_missing_directory_rejected_before_any_check(tmp_path, capsys):
    cache = tmp_path / "missing" / "c.json"
    printed = assert_usage_error(capsys, ["lemma", "3.5", "--q", "7", "--cache", str(cache)],
                                 str(cache))
    assert printed == "" and not cache.parent.exists()


def test_census_d_filter(capsys):
    rc = run_cli(["lemma", "dickson-census", "--q", "11", "--d", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "dickson-census.q11.d3" in out
    assert "dickson-census.q11.d5" not in out


def test_census_d_with_other_lemma_rejected(tmp_path, capsys):
    """--d selects among the dickson-census checks only; with any other
    lemma id it is a usage error, and no check runs."""
    out = tmp_path / "r.json"
    for lemma_id in ("3.3", "obstruction"):
        printed = assert_usage_error(capsys, ["lemma", lemma_id, "--d", "5", "--out", str(out)],
                                     f"--d applies to lemma dickson-census only, not {lemma_id}")
        assert printed == "" and not out.exists()


def test_worker_pool_capped_at_spec_count(monkeypatch):
    """A pool forks all of its workers on the first submit, so it is never
    larger than the number of checks; one check runs without a pool.  The
    fake executor runs serially and starts no process."""
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    serial = RunConfig()
    specs = checks.lemma_specs(serial, "3.3")
    assert len(specs) == 6  # one per default q
    wide = RunConfig(workers=500)
    rows = [[(r.check_id, r.status, r.expected, r.actual) for r in checks.execute_specs(specs, cfg)]
            for cfg in (wide, serial)]
    assert rows[0] == rows[1]
    assert sizes == [len(specs)]
    checks.execute_specs(specs[:1], wide)
    assert sizes == [len(specs)]


def test_workers_match_serial(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli(["table1", "--q", "7", "--out", str(a)])
    run_cli(["table1", "--q", "7", "--workers", "2", "--out", str(b)])
    ra = [(r["check_id"], r["status"], r["expected"], r["actual"])
          for r in json.loads(a.read_text())["results"]]
    rb = [(r["check_id"], r["status"], r["expected"], r["actual"])
          for r in json.loads(b.read_text())["results"]]
    assert ra == rb


def test_workers_env(monkeypatch):
    monkeypatch.setenv("TWDEG_WORKERS", "3")
    cfg = cli.config_from_args(cli.build_parser().parse_args(["table1"]))
    assert cfg.workers == 3


def test_table4_q29_runs_without_long(capsys):
    """A check the selection names always runs: --long only widens the
    default q."""
    rc = run_cli(["table4", "--q", "29"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS  table4.q29.pair1  expected=(1800,41209,gcd=1)" in out


def test_table4_fails_pair_without_obstruction_ingredients(monkeypatch, capsys):
    """The generic pair at q = 7 rests on the obstruction ingredients: with
    one of them false it fails, and the other pair still passes."""
    monkeypatch.setattr(checks, "ctx_obstruction",
                        lambda q: wreath.ObstructionReport(q, True, False, True, []))
    rc = run_cli(["table4", "--q", "7"])
    out = capsys.readouterr().out
    assert rc == 1
    assert ("FAIL  table4.q7.pair1  expected=(128,441,gcd=1)  "
            "actual=error: obstruction ingredients failed") in out
    assert "PASS  table4.q7.pair2" in out


def test_lemma_3_1_q19(capsys):
    """The one lemma 3.1 check with its own expected value."""
    assert run_cli(["lemma", "3.1", "--q", "19"]) == 0
    assert "PASS  lemma3.1.q19.A5.C2  expected=ok(y=5)  actual=ok(y=5)" in capsys.readouterr().out


def test_report_reads_skipped_long_records_of_earlier_versions(tmp_path, capsys):
    """Reports written before the --long gates were retired may hold
    skipped-long records: report prints them as SKIP, counts them, and they
    do not fail the run."""
    old = tmp_path / "old.json"
    old.write_text(json.dumps({
        "version": "0.1.0", "config": {"long": False},
        "results": [
            {"check_id": "table4.q29.pair1", "status": "skipped-long",
             "expected": "", "actual": "", "runtime_ms": 0.0},
            {"check_id": "table4.q7.pair1", "status": "pass", "expected": "(128,441,gcd=1)",
             "actual": "(128,441,gcd=1)", "runtime_ms": 1.0},
        ],
    }))
    rc = run_cli(["report", "--in", str(old)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert "SKIP  table4.q29.pair1  (0ms)" in lines
    assert lines[-1] == "-- 1 passed, 0 failed, 1 skipped"


def test_report_aggregates_and_fails(tmp_path, capsys):
    good = tmp_path / "good.json"
    run_cli(["table2", "--q", "7", "--m", "2", "--out", str(good)])
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "version": "0.1.0", "config": {},
        "results": [{"check_id": "synthetic.fail", "status": "fail",
                     "expected": "1", "actual": "2", "runtime_ms": 0.1}],
    }))
    rc = run_cli(["report", "--in", str(good), str(bad)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL  synthetic.fail" in out
    rc2 = run_cli(["report", "--in", str(good)])
    assert rc2 == 0


def test_report_replay(tmp_path, capsys):
    out = tmp_path / "r.json"
    run_cli(["table2", "--q", "7", "--m", "2", "3", "--out", str(out)])
    capsys.readouterr()
    rc = run_cli(["report", "--in", str(out), "--replay"])
    text = capsys.readouterr().out
    assert rc == 0
    assert "replay.table2.row5.q7.m2" in text


def test_cache_reused(tmp_path, capsys):
    cache = tmp_path / "wit.json"
    rc1 = run_cli(["lemma", "3.5", "--q", "7", "--cache", str(cache)])
    assert rc1 == 0
    records = json.loads(cache.read_text())
    assert records and records[0]["lemma"] == "3.5a"
    rc2 = run_cli(["lemma", "3.5", "--q", "7", "--cache", str(cache)])
    assert rc2 == 0


def _lemma_3_5_q7_wrapped(tmp_path):
    """(cache path, report path) of lemma 3.5 at q = 7, the cached witness's
    element index 1 replaced by 1 - |T| = -167, the index numpy wraps to 1."""
    cache, out = tmp_path / "wit.json", tmp_path / "r.json"
    assert run_cli(["lemma", "3.5", "--q", "7", "--cache", str(cache), "--out", str(out)]) == 0
    records = json.loads(cache.read_text())
    assert records[0]["element_indices"] == [1]
    records[0]["element_indices"] = [-167]
    cache.write_text(json.dumps(records))
    return cache, out


def test_cached_witness_rejects_negative_index(tmp_path, capsys):
    """A cached witness replays only when every element index lies in T."""
    cache, out = _lemma_3_5_q7_wrapped(tmp_path)
    capsys.readouterr()
    assert run_cli(["lemma", "3.5", "--q", "7", "--cache", str(cache), "--out", str(out)]) == 1
    assert "FAIL  lemma3.5a.q7" in capsys.readouterr().out
    (rec,) = json.loads(out.read_text())["results"]
    assert rec["status"] == "fail" and "element_indices must hold elements of T" in rec["actual"]


def test_report_replay_rejects_negative_witness_index(tmp_path, capsys):
    """`report --replay` of a stored intersection witness checks every
    element index against T, as replay_certificate does."""
    _, out = _lemma_3_5_q7_wrapped(tmp_path)
    data = json.loads(out.read_text())
    data["results"][0]["witness"]["element_indices"] = [-167]
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli(["report", "--in", str(out), "--replay"]) == 1
    assert ("FAIL  replay.lemma3.5a.q7  expected=reproduced  "
            "actual=error: element_indices must hold elements of T") in capsys.readouterr().out


def _child_env():
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_console_script_installed():
    # the child process imports twdeg from the same src/ as this one
    proc = subprocess.run(
        [sys.executable, "-m", "twdeg.cli", "lemma", "3.3", "--q", "7"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert "lemma3.3.q7" in proc.stdout


CHILD = """
import gc, sys
from twdeg import cli
code = cli.main(sys.argv[1:])
frozen = gc.get_freeze_count()
code += cli.main(sys.argv[1:])
print(code, frozen > 0, gc.get_freeze_count() == frozen, "numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize("args", [["lemma", "3.3"], ["table4", "--q", "7"]])
def test_cli_process_freezes_and_never_imports_numpy_ma(args):
    """The first cli.main call of a process freezes what is loaded before
    its checks run, a second call freezes nothing more, and no check
    reaches numpy.ma (plain np.unique and np.intersect1d import it)."""
    proc = subprocess.run([sys.executable, "-c", CHILD, *args],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 True True False"


def test_report_from_child_process_matches_in_process(tmp_path):
    """A report written by a process that exits with its objects frozen is
    complete: byte for byte the in-process one, timings aside."""
    def text(path):
        return re.sub(r'"runtime_ms": [-+.e0-9]+', '"runtime_ms": 0', path.read_text())

    (tmp_path / "child").mkdir()
    proc = subprocess.run([sys.executable, "-m", "twdeg.cli", "table2", "--out", "r.json"],
                          cwd=tmp_path / "child", capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert run_cli(["table2", "--out", str(tmp_path / "r.json")]) == 0
    assert text(tmp_path / "child" / "r.json") == text(tmp_path / "r.json")


def test_normalize_q_list():
    notes = []
    assert checks.normalize_q_list([5, 7], notes) == [4, 7]
    assert notes
    assert checks.normalize_q_list([4, 5], []) == [4]
    with pytest.raises(ValueError):
        checks.normalize_q_list([12], [])


def test_table4_default_q():
    cfg = RunConfig()
    assert checks.table4_q_list(cfg) == [7, 11, 19, 23]
    cfg_long = RunConfig(long_running=True)
    assert checks.table4_q_list(cfg_long) == [7, 11, 19, 23, 29, 59]
    cfg_explicit = RunConfig(q_list=[7, 8, 11], q_explicit=True)
    assert checks.table4_q_list(cfg_explicit) == [7, 11]
    # the scans are exact at the keys of TABLE4_PAIRS, q = 29 and 59 included
    args = cli.build_parser().parse_args(["table4", "--q", "7", "23", "27", "31", "59"])
    exact = {params["q"]: params["exact"] for _, _, params in
             checks.table4_specs(cli.config_from_args(args))}
    assert exact == {7: True, 23: True, 27: False, 31: False, 59: True}


@pytest.mark.parametrize("q", [29, 59])
def test_table4_long_rows_are_coprime_to_the_a5_bound(q):
    """The q = 29 and 59 rows of Table 4 expect (2(q+1)^2, |T : A5|^2):
    2(q+1)^2 divides 2 * 60^2, which is coprime to |T : A5|^2."""
    ((_, row),) = checks.TABLE4_PAIRS[q]
    f, g = row["expected"]
    assert (row["r"], row["d"]) == ("P1xP1", "A5")
    assert (f, g) == (2 * (q + 1) ** 2, (psl_order(q) // 60) ** 2)
    assert (2 * 60**2) % f == 0 and gcd(2 * 60**2, g) == 1


# what --long adds to a default run: table4's q = 29 and 59, lemma 3.1's
# q = 19, and the rows of lemmas 7.4 and 7.8 that need exact scans at q = 13
LONG_ADDS = {
    "table4": {"table4.q29.pair1", "table4.q59.pair1", "table4.q59.pair2"},
    "lemma 3.1": {"lemma3.1.q19.A5.C2"},
    "lemma 7.4": {"lemma7.4.q13"},
    "lemma 7.8": {"lemma7.8.q13"},
}


def _spec_ids(command, argv):
    cfg = cli.config_from_args(cli.build_parser().parse_args(command.split() + argv))
    if command.startswith("lemma"):
        specs = checks.lemma_specs(cfg, command.split()[1])
    else:
        specs = getattr(checks, f"{command}_specs")(cfg)
    return {s[0] for s in specs}


@pytest.mark.parametrize("command", ["table1", "table2", "table4"]
                         + [f"lemma {i}" for i in checks.LEMMA_IDS])
@pytest.mark.parametrize("qs", [[], ["--q", "13", "17", "19", "23", "29", "59"]],
                         ids=["default-q", "explicit-q"])
def test_long_only_adds_checks(command, qs):
    """--long never drops a check. At the default q it adds exactly the six
    ids of LONG_ADDS; with an explicit q list only the q = 13 rows of
    lemmas 7.4 and 7.8."""
    plain, long = _spec_ids(command, qs), _spec_ids(command, qs + ["--long"])
    assert plain <= long
    if qs:
        expected = {f"lemma{command[6:]}.q13"} if command in ("lemma 7.4", "lemma 7.8") else set()
    else:
        expected = LONG_ADDS.get(command, set())
    assert long - plain == expected


def test_census_rule_matches_frozen_truths():
    for (q, d, expected) in [(11, 3, 2), (11, 5, 1), (13, 6, 1), (13, 7, 1),
                             (19, 3, 1), (19, 5, 2)]:
        assert checks.census_rule(q, d) == expected


def test_lemma_csv_output(tmp_path):
    out = tmp_path / "lemma.csv"
    rc = run_cli(["lemma", "3.3", "--q", "7", "8", "--out", str(out), "--format", "csv"])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("check_id,")
    assert any("lemma3.3.q7" in ln for ln in lines)


def test_runs_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(["table4", "--q", "7", "--out", str(a)])
    run_cli(["table4", "--q", "7", "--out", str(b)])
    da = json.loads(a.read_text())["results"]
    db = json.loads(b.read_text())["results"]
    strip = lambda rs: [{k: v for k, v in r.items() if k != "runtime_ms"} for r in rs]
    assert strip(da) == strip(db)


def test_report_replay_rejects_forged_p1_product(tmp_path, capsys):
    out = tmp_path / "r.json"
    run_cli(["table2", "--q", "11", "--m", "2", "--out", str(out)])
    data = json.loads(out.read_text())
    rec = next(r for r in data["results"] if r["check_id"] == "table2.row1.q11.m2")
    assert rec["witness"]["d"]["witness"]["construction"] == "p1-product"
    assert rec["witness"]["d"]["value"] == "288"
    rec["witness"]["d"]["value"] = "576"
    out.write_text(json.dumps(data))
    capsys.readouterr()
    rc = run_cli(["report", "--in", str(out), "--replay"])
    text = capsys.readouterr().out
    assert rc == 1
    assert "FAIL  replay.table2.row1.q11.m2  expected=576  actual=288" in text


def test_report_replay_rejects_edited_arity(tmp_path, capsys):
    """An exact-stabilizer certificate exists at m = 2 only (its true m = 3
    value is 21^3 = 9261, not 441), and no certificate has m < 2: both
    edited records fail replay."""
    out = tmp_path / "r.json"
    run_cli(["table1", "--q", "7", "--m", "2", "3", "--out", str(out)])
    data = json.loads(out.read_text())
    recs = {r["check_id"]: r for r in data["results"]}
    exact, power = recs["table1.row2.q7.m2"]["witness"], recs["table1.row2.q7.m3"]["witness"]
    assert (exact["kind"], exact["value"], power["kind"]) == (
        "exact-stabilizer", "441", "lemma-2.10-class")
    exact["m"] = 3
    power["m"], power["value"] = 0, "1"
    out.write_text(json.dumps(data))
    capsys.readouterr()
    rc = run_cli(["report", "--in", str(out), "--replay"])
    text = capsys.readouterr().out
    assert rc == 1
    assert "FAIL  replay.table1.row2.q7.m2  expected=441  actual=error: " in text
    assert "FAIL  replay.table1.row2.q7.m3  expected=1  actual=error: " in text


def test_p1_product_scanned_once_per_process(monkeypatch, scan_log):
    """table4 at q = 11 scans each coset function once, P1 x P1 included."""
    monkeypatch.setattr(checks, "_CTX", {})
    cfg = RunConfig(q_list=[11], q_explicit=True)
    specs = checks.table4_specs(cfg)
    assert [s[0] for s in specs] == ["table4.q11.pair1", "table4.q11.pair2", "table4.q11.pair3"]
    results = checks.execute_specs(specs, cfg)
    assert all(r.status == "pass" for r in results)
    assert scan_log and len(set(scan_log)) == len(scan_log)
    # P1 is the atlas entry's subgroup, memoized once under the atlas key
    assert checks.ctx_p1(11) is checks.ctx_atlas(11, "P1").subgroup
    assert ("P1", 11) not in checks._CTX and ("atlas", 11, "P1") in checks._CTX


def test_lemma_7_8_scans_each_alpha_once(monkeypatch, scan_log):
    monkeypatch.setattr(checks, "_CTX", {})
    cfg = RunConfig()
    results = checks.execute_specs(checks.lemma_specs(cfg, "7.8"), cfg)
    assert results and all(r.status == "pass" for r in results)
    assert scan_log and len(set(scan_log)) == len(scan_log)


def test_exact_wreath_certificate_checks_containment_once(monkeypatch, containment_log):
    """An exact K wr S_2 certificate acts with D's generators once, inside
    build_coset_fn; |H_f| = |D| then decides H_f = D."""
    monkeypatch.setattr(checks, "_CTX", {})
    cert = checks.witness_subdegree(7, 2, "S4", True)
    assert (cert.kind, cert.value) == ("exact-stabilizer", 49)
    assert containment_log == ["wreath"]
    checks.ctx_p1_product(11)  # the P1 x P1 side of pair3, built once per process
    containment_log.clear()
    cfg = RunConfig(q_list=[11], q_explicit=True)
    spec = next(s for s in checks.table4_specs(cfg) if s[0] == "table4.q11.pair3")
    (result,) = checks.execute_specs([spec], cfg)
    assert result.status == "pass" and result.witness["d"]["witness"]["stabilizer_is_wreath"]
    assert containment_log == ["wreath"]


def test_witness_subdegree_records_wreath_shape_over_non_maximal_k():
    """An exact certificate over a maximal K (S4 at q = 7) is asserted to be
    K wr S_2 and records nothing more; over a non-maximal K (A4 at q = 11)
    it records whether the stabilizer is K wr S_2."""
    a4 = checks.witness_subdegree(11, 2, "A4", True).to_record()
    assert (a4["kind"], a4["value"]) == ("exact-stabilizer", str(55**2))
    assert a4["witness"]["stabilizer_is_wreath"] is True
    s4 = checks.witness_subdegree(7, 2, "S4", True).to_record()
    assert s4["kind"] == "exact-stabilizer" and "stabilizer_is_wreath" not in s4["witness"]


def test_table4_scans_verify_generators(monkeypatch, act_log, capsys):
    """Default table4 acts with exactly 155 elements in all, containment
    checks included: its scans verify generators, each candidate only when
    the closure or orbit of those verified before it does not hold it (1,834
    act_alpha calls in the scans alone when every member coset was
    verified).  The count is pinned, not bounded: verifying covered
    candidates too would still fit the golden product budget."""
    monkeypatch.setattr(checks, "_CTX", {})
    assert cli.main(["table4"]) == 0
    capsys.readouterr()
    assert len(act_log) == 155


def test_table4_long_scans_verify_generators(monkeypatch, act_log, capsys):
    """table4 --long at q = 29 and 59 acts with exactly 59 elements in all."""
    monkeypatch.setattr(checks, "_CTX", {})
    assert cli.main(["table4", "--long", "--q", "29", "59"]) == 0
    capsys.readouterr()
    assert len(act_log) == 59


def test_exact_q29_scans_verify_generators(monkeypatch, act_log):
    """The q = 29 rows of table4 --long, exact: P1 x P1 gives 2 * 30^2 and
    A5 wr S_2 gives 203^2, each with at most 100 act_alpha calls."""
    monkeypatch.setattr(checks, "_CTX", {})
    cert = checks.p1_product_subdegree(29, True)
    assert (cert.kind, cert.value) == ("exact-stabilizer", 1800)
    assert 0 < len(act_log) <= 100
    act_log.clear()
    cert = checks.witness_subdegree(29, 2, "A5", True, shifts=checks._c2_candidates(29, "A5"))
    assert (cert.kind, cert.value) == ("exact-stabilizer", 203**2)
    assert 0 < len(act_log) <= 100


@pytest.mark.parametrize("long_running", [False, True])
def test_table2_row4_q29_m2_exact(long_running):
    """With or without --long, both sides of table2's q = 29, m = 2 row are
    exact stabilizer scans, P1 wr S_2 and A5 wr S_2."""
    cfg = RunConfig(q_list=[29], m_list=[2], q_explicit=True, long_running=long_running)
    spec = next(s for s in checks.table2_specs(cfg) if s[0] == "table2.row4.q29.m2")
    (result,) = checks.execute_specs([spec], cfg)
    assert (result.status, result.actual) == ("pass", "(900,41209,gcd=1)")
    assert [result.witness[k]["kind"] for k in "rd"] == ["exact-stabilizer"] * 2


def _table4_q11_report(tmp_path):
    out = tmp_path / "t4.json"
    assert run_cli(["table4", "--q", "11", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    pair3 = next(r for r in data["results"] if r["check_id"] == "table4.q11.pair3")
    return out, data, pair3["witness"]["d"]  # the g side of the pair


def test_report_replay_rescans_exact_coset_fn(tmp_path, capsys, scan_log):
    """The exact A4 wr S_2 certificate is derived again by a scan."""
    from twdeg import wreath

    out, _, g = _table4_q11_report(tmp_path)
    assert g["kind"] == "exact-stabilizer" and g["witness"]["label"] == "A4"
    A4 = checks.ctx_atlas(11, "A4").subgroup
    alpha = wreath.build_coset_fn(
        wreath.wreath_sub(A4), (0, g["witness"]["shift"][0], 0), eta=g["witness"]["eta"]
    )
    scan_log.clear()
    capsys.readouterr()
    assert run_cli(["report", "--in", str(out), "--replay"]) == 0
    assert "PASS  replay.table4.q11.pair3" in capsys.readouterr().out
    assert alpha.values.tobytes() in scan_log


def test_report_replay_rejects_lemma_2_6_over_non_maximal(tmp_path, capsys):
    """Lemma 2.6 needs K maximal; A4 is not maximal in PSL(2,11)."""
    out, data, g = _table4_q11_report(tmp_path)
    g["kind"] = "lemma-2.6-witness"
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli(["report", "--in", str(out), "--replay"]) == 1
    assert "FAIL  replay.table4.q11.pair3" in capsys.readouterr().out


def test_report_replay_reads_f_g_records(tmp_path, capsys):
    """Reports of earlier versions keyed the q = 29 pair's certificates f
    and g: replay re-derives both, and fails a doctored value."""
    (rec,) = json.loads((Path(__file__).parent / "golden" / "table4-q29.json").read_text())[
        "results"]
    rec["witness"] = {"f": rec["witness"]["r"], "g": rec["witness"]["d"]}
    rc, out = _replay_results(tmp_path, capsys, rec)
    assert rc == 0 and "PASS  replay.table4.q29.pair1" in out
    rec["witness"]["g"]["value"] = str(205**2)
    rc, out = _replay_results(tmp_path, capsys, rec)
    assert rc == 1 and "FAIL  replay.table4.q29.pair1  expected=42025" in out


def _replay_results(tmp_path, capsys, *results):
    """(exit status, stdout) of `report --replay` over a report holding
    the given result records."""
    path = tmp_path / "synthetic.json"
    path.write_text(json.dumps({"version": "0.1.0", "config": {}, "results": list(results)}))
    capsys.readouterr()
    rc = run_cli(["report", "--in", str(path), "--replay"])
    return rc, capsys.readouterr().out


def test_report_replay_fails_witness_for_absent_label(tmp_path, capsys):
    """A5 does not occur in PSL(2,7): the stored intersection witness fails."""
    rec = {"check_id": "lemma3.4.q7", "status": "pass", "expected": "witness",
           "actual": "witness",
           "witness": {"q": 7, "label": "A5", "lemma": "3.4", "element_indices": [1],
                       "fingerprint": "C2"}}
    rc, out = _replay_results(tmp_path, capsys, rec)
    assert rc == 1
    assert "FAIL  replay.lemma3.4.q7  expected=reproduced  actual=error: A5 does not occur" in out


def test_report_replay_rejects_class_certificate_on_identity(tmp_path, capsys):
    """The golden table1 record of row 2 at q = 11, m = 3 with gamma moved
    to the identity and its value to |T : T|^3 = 1: the centralizer is all
    of T, and the class certificate on gamma = 1 is refused."""
    golden = json.loads((Path(__file__).parent / "golden" / "table1.json").read_text())
    rec = next(r for r in golden["results"] if r["check_id"] == "table1.row2.q11.m3")
    assert rec["witness"]["kind"] == "lemma-2.10-class"
    rec["witness"]["witness"]["gamma"] = 0
    rec["witness"]["value"] = "1"
    rc, out = _replay_results(tmp_path, capsys, rec)
    assert rc == 1
    assert ("FAIL  replay.table1.row2.q11.m3  expected=1  "
            "actual=error: gamma must be nontrivial") in out


def test_report_replay_rejects_arity_above_max_m(tmp_path, capsys):
    """The golden table1 record of row 2 at q = 11, m = 3 with m moved past
    MAX_M fails at once: |T : C|^m is never computed."""
    golden = json.loads((Path(__file__).parent / "golden" / "table1.json").read_text())
    rec = next(r for r in golden["results"] if r["check_id"] == "table1.row2.q11.m3")
    for m in (11, 10**8):
        rec["witness"]["m"] = m
        start = time.perf_counter()
        rc, out = _replay_results(tmp_path, capsys, rec)
        assert time.perf_counter() - start < 1
        assert rc == 1
        assert (f"FAIL  replay.table1.row2.q11.m3  expected=166375  "
                f"actual=error: m = {m} is above MAX_M = 10") in out


def test_report_replay_fails_non_decimal_value(tmp_path, capsys):
    cert = {"q": 7, "m": 2, "kind": "lemma-2.10-class", "value": "abc",
            "witness": {"construction": "centralizer", "gamma": 1}}
    rec = {"check_id": "synthetic.class", "status": "pass", "witness": cert}
    rc, out = _replay_results(tmp_path, capsys, rec)
    assert rc == 1
    assert "FAIL  replay.synthetic.class  expected=abc  actual=error: invalid literal" in out


def test_report_rejects_malformed_result(tmp_path, capsys):
    """A result that is not an object with a check id and a known status is
    a usage error, not a traceback."""
    for bad in ({"status": "pass"}, {"check_id": "x"}, {"check_id": "x", "status": "ok"},
                {"check_id": "x", "status": "pass", "runtime_ms": "abc"}, 5):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({"results": [bad]}))
        assert_usage_error(capsys, ["report", "--in", str(path), "--replay"],
                           f"report {path} has a malformed result")


def test_ctx_group_rejects_non_prime_power(tmp_path, capsys):
    """q = 12 would factor as 2^2 and replay against PSL(2,4), where the
    forged class power 225 = 15^2 would pass."""
    with pytest.raises(ValueError, match="q = 12 is not a prime power"):
        checks.ctx_group(12)
    gamma = int(checks.ctx_group(4).elements_of_order(2)[0])
    cert = {"q": 12, "m": 2, "kind": "lemma-2.10-class", "value": "225",
            "witness": {"construction": "centralizer", "gamma": gamma}}
    rc, out = _replay_results(tmp_path, capsys,
                              {"check_id": "synthetic.q12", "status": "pass", "witness": cert})
    assert rc == 1
    assert "FAIL  replay.synthetic.q12  expected=225  actual=error: q = 12 is not a prime power" in out
    cert["q"] = 4  # the same record at q = 4 replays
    rc, out = _replay_results(tmp_path, capsys,
                              {"check_id": "synthetic.q4", "status": "pass", "witness": cert})
    assert rc == 0 and "PASS  replay.synthetic.q4" in out


def test_report_replay_rejects_out_of_range_indices(tmp_path, capsys):
    """numpy wraps a negative index around, so an index moved down by |T|
    used to replay as the element it wraps to (an m = 3 class certificate
    with gamma - 168 to 9261, the P1 x P1 certificates with shift - 168 to
    128).  Every stored gamma, shift, eta and t_tuple entry must lie in T."""
    T = checks.ctx_group(7)
    certs = {
        "class": checks.class_subdegree(7, 3, 2, False),
        "exact": checks.p1_product_subdegree(7, True),
        "divisor": checks.p1_product_subdegree(7, False),
        "witness": wreath.find_witness_t(T, checks.ctx_atlas(7, "S4").subgroup, 3, label="S4"),
    }
    records = {name: {"check_id": f"synthetic.{name}", "status": "pass",
                      "witness": cert.to_record()} for name, cert in certs.items()}
    rc, out = _replay_results(tmp_path, capsys, *records.values())
    assert rc == 0 and out.count("PASS  replay.synthetic.") == 4
    for name, key in (("class", "gamma"), ("exact", "shift"), ("divisor", "shift"),
                      ("witness", "eta"), ("witness", "t_tuple"), ("witness", "shift")):
        rec = json.loads(json.dumps(records[name]))
        w = rec["witness"]["witness"]
        w[key] = [x - T.order for x in w[key]] if isinstance(w[key], list) else w[key] - T.order
        rc, out = _replay_results(tmp_path, capsys, rec)
        assert rc == 1, (name, key, out)
        assert f"FAIL  replay.synthetic.{name}" in out and f"{key} must hold" in out, out


def _table1_q11_report(tmp_path):
    """(path, report, results by check id) of table1 at q = 11, m = 3..6."""
    out = tmp_path / "t1.json"
    assert run_cli(["table1", "--q", "11", "--m", "3", "4", "5", "6", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    return out, data, {r["check_id"]: r for r in data["results"]}


def _replay_lines(out, capsys):
    """(exit status, stdout line per replay check id) of `report --replay`."""
    capsys.readouterr()
    rc = run_cli(["report", "--in", str(out), "--replay"])
    lines = capsys.readouterr().out.splitlines()
    return rc, {line.split()[1]: line for line in lines if " replay." in line}


def test_report_replay_rejects_t_tuple_of_wrong_length(tmp_path, capsys):
    """A Lemma 2.6 record needs m entries of T in t_tuple: the m = 6 tuple
    and eta stored at m = 4 used to replay as a pass."""
    out, data, recs = _table1_q11_report(tmp_path)
    wit = {cid: rec["witness"]["witness"] for cid, rec in recs.items()}
    m4, m6 = wit["table1.row1.q11.m4"], wit["table1.row1.q11.m6"]
    m4["t_tuple"], m4["eta"] = m6["t_tuple"], m6["eta"]
    wit["table1.row7.q11.m5"]["t_tuple"][-1] = 660  # |T|
    wit["table1.row7.q11.m3"]["t_tuple"][0] = -1
    out.write_text(json.dumps(data))
    rc, lines = _replay_lines(out, capsys)
    assert rc == 1
    for cid, m in (("row1.q11.m4", 4), ("row7.q11.m5", 5), ("row7.q11.m3", 3)):
        line = lines[f"replay.table1.{cid}"]
        assert line.startswith("FAIL") and f"t_tuple must hold m = {m} elements of T" in line
    assert lines["replay.table1.row1.q11.m6"].startswith("PASS")


def test_report_replay_t_tuple_of_distinct_entries(tmp_path, capsys):
    """Replacing each t_j by k_j t_j, k_j in K, leaves (K wr S_m)^t cap L
    unchanged: every Lemma 2.6 record still replays as a pass when its
    t_tuple so holds m distinct entries, and fails with a non-central eta."""
    out, data, recs = _table1_q11_report(tmp_path)
    T = checks.ctx_group(11)
    lemma = {cid: rec["witness"]["witness"] for cid, rec in recs.items()
             if rec["witness"]["kind"] == "lemma-2.6-witness"}
    for w in lemma.values():
        ks = checks.ctx_atlas(11, w["label"]).subgroup.members
        w["t_tuple"] = [T.mul(int(k), u) for k, u in zip(ks, w["t_tuple"])]
        assert len(set(w["t_tuple"])) == len(w["t_tuple"])
    assert sorted(len(w["t_tuple"]) for w in lemma.values()) == [3, 3, 4, 4, 5, 5, 6, 6]
    out.write_text(json.dumps(data))
    rc, lines = _replay_lines(out, capsys)
    assert rc == 0
    for cid in lemma:
        assert lines[f"replay.{cid}"].startswith("PASS"), lines[f"replay.{cid}"]
    for w in lemma.values():
        K = checks.ctx_atlas(11, w["label"]).subgroup
        central = {x for x, _ in reference.all_central(
            T, reference.filter_L_members(T, K, tuple(w["t_tuple"])))} | {T.identity}
        w["eta"] = next(x for x in range(T.order) if x not in central)
    out.write_text(json.dumps(data))
    rc, lines = _replay_lines(out, capsys)
    assert rc == 1
    for cid in lemma:
        line = lines[f"replay.{cid}"]
        assert line.startswith("FAIL") and "stored eta is no longer central" in line, line


@pytest.mark.parametrize("forgery", ["identity", "non-central"])
def test_report_replay_rejects_forged_eta_m3_to_m6(tmp_path, capsys, forgery):
    """A stored eta that is 1, or not the T-part of a central member, fails
    the replay of every Lemma 2.6 record at m = 3..6.  The non-central eta is
    a member's T-part where one exists (the A5 records at m = 3 and m = 5);
    elsewhere every member's T-part is central and it is a non-member."""
    out, data, recs = _table1_q11_report(tmp_path)
    T = checks.ctx_group(11)
    forged, from_members = [], []
    for cid, rec in recs.items():
        if rec["witness"]["kind"] != "lemma-2.6-witness":
            continue
        w = rec["witness"]["witness"]
        forged.append((cid, w["t_tuple"]))
        if forgery == "identity":
            w["eta"] = T.identity
            continue
        K = checks.ctx_atlas(11, w["label"]).subgroup
        members = reference.filter_L_members(T, K, tuple(w["t_tuple"]))
        central = {x for x, _ in reference.all_central(T, members)} | {T.identity}
        outside = [x for x, _ in members if x not in central]
        if outside:
            from_members.append(cid)
        w["eta"] = (outside or [x for x in range(T.order) if x not in central])[0]
    assert sorted(len(t) for _, t in forged) == [3, 3, 4, 4, 5, 5, 6, 6]
    if forgery == "non-central":
        assert from_members == ["table1.row7.q11.m3", "table1.row7.q11.m5"]
    out.write_text(json.dumps(data))
    rc, lines = _replay_lines(out, capsys)
    assert rc == 1
    for cid, _ in forged:
        line = lines[f"replay.{cid}"]
        assert line.startswith("FAIL") and "stored eta is no longer central" in line, line


# -- the Lemma 5 checks cannot pass vacuously -----------------------------------------

def _act_without_conjugation(T, a, x, y, k):
    """The alpha action with the final conjugation by y (or y t) dropped."""
    inv = T.inv
    points = T.product(x, np.arange(T.order), inv[y]) if k == 0 else T.product(x, inv, inv[y])
    return wreath._gather(a, points)


def _unswapped_product(real):
    """w2_product that multiplies coordinatewise, as if no factor swapped."""

    def product(T, u, v):
        (a, b, k), (c, d, l) = u, v
        return real(T, (a, b, 0 * np.asarray(k)), (c, d, l))[:2] + ((np.asarray(k) + l) % 2,)

    return product


@pytest.mark.parametrize("fault", ["unswapped-product", "straight-only-batch"])
def test_action_axiom_fails_on_broken_action(monkeypatch, fault):
    if fault == "unswapped-product":
        monkeypatch.setattr(wreath, "w2_product", _unswapped_product(wreath.w2_product))
    else:
        real = wreath.act_alpha_batch
        monkeypatch.setattr(wreath, "act_alpha_batch",
                            lambda T, v, h: real(T, v, (h[0], h[1], np.zeros_like(h[2]))))
    res = checks.lm_action_axiom({"q": 7, "samples": 300})
    assert (res.status, res.actual) == ("fail", "False")


@pytest.mark.parametrize("fault", ["no-conjugation", "unswapped-product"])
def test_roundtrip_fails_on_broken_action(monkeypatch, fault):
    if fault == "no-conjugation":
        monkeypatch.setattr(wreath, "_act", _act_without_conjugation)
    else:
        monkeypatch.setattr(wreath, "w2_product", _unswapped_product(wreath.w2_product))
    res = checks.lm_roundtrip({"q": 4})
    assert (res.status, res.actual) == ("fail", "False")


def test_roundtrip_fails_on_untwisted_evaluation(monkeypatch):
    """f((a, b)) = alpha(a b^-1) without the conjugation by b is not
    twisted-equivariant."""
    monkeypatch.setattr(wreath.AlphaFn, "evaluate",
                        lambda self, u: self.values[self.T.product(u[0], self.T.inv[u[1]])])
    res = checks.lm_roundtrip({"q": 4})
    assert (res.status, res.actual) == ("fail", "False")


def test_invariance_fails_when_conjugation_rule_dropped(monkeypatch):
    """Without the condition alpha(t y) = alpha(t)^y every constant function
    is invariant, and the check must see it."""
    real = wreath.check_XY_conditions
    monkeypatch.setattr(wreath, "check_XY_conditions",
                        lambda alpha, X, Y, full_scan=False: real(
                            alpha, X, engine.Subgroup(X.parent, [0]), full_scan))
    res = checks.lm_invariance({"q": 4})
    assert (res.status, res.actual) == ("fail", "False")


def test_action_axiom_draws_bulk_per_chunk(monkeypatch):
    """The action-axiom check draws per chunk all alpha rows in one call (the
    stream of one random_alpha call per row), then the six ints (x, y, k)
    of h1 and h2 for every sample in one call."""
    calls = []
    real = wreath.act_alpha_batch

    def recording(T, values, h):
        calls.append((values.copy(), tuple(np.asarray(z).copy() for z in h)))
        return real(T, values, h)

    monkeypatch.setattr(wreath, "act_alpha_batch", recording)
    res = checks.lm_action_axiom({"q": 7, "samples": 300})
    assert res.status == "pass"
    assert len(calls) == 3 * 2  # three batch actions per chunk, chunks of 256 and 44
    T = checks.ctx_group(7)
    n = T.order
    rng = checks.Sampler(12345)
    for chunk, size in zip((0, 3), (256, 44)):
        # per chunk: alpha under h1 h2, alpha under h1, then alpha^h1 under h2
        alphas, h1, h2 = calls[chunk + 1][0], calls[chunk + 1][1], calls[chunk + 2][1]
        assert np.array_equal(alphas, reference.alpha_rows_one_at_a_time(T, rng, size))
        ints = rng.integers(0, [n, n, 2, n, n, 2], (size, 6))
        assert np.array_equal(np.stack(h1 + h2, axis=1), ints)


@pytest.mark.parametrize("q", [4, 7, 11, "wr"])
def test_alpha_rows_match_one_draw_per_row(q):
    """checks._alpha_rows draws in one call what one random_alpha call per
    row draws, at n = 60, 168, 660 and 7200 (T wr S_2 at q = 4)."""
    T = wreath.wreath_full_table(group_for(4)) if q == "wr" else group_for(q)
    bulk = checks._alpha_rows(T, checks.Sampler(5), 7)
    one_by_one = reference.alpha_rows_one_at_a_time(T, checks.Sampler(5), 7)
    assert bulk.shape == (7, T.order) and np.array_equal(bulk, one_by_one)


def test_sampler_same_seed_same_draws():
    def draws(seed):
        rng = checks.Sampler(seed)
        return [rng.integers(60), rng.integers(0, 168, (3, 168)).tolist(),
                rng.integers(0, [7, 7, 2], (4, 3)).tolist(), rng.integers(2)]

    assert draws(2024) == draws(2024)
    assert draws(2024) != draws(2025)


def test_sampler_values_lie_in_range():
    """Scalars, (size, n) arrays and broadcast highs stay in [low, high)."""
    rng = checks.Sampler(4)
    for low, high in ((0, 1), (0, 60), (-7, 5), (10, 7210), (0, 2**32 - 1)):
        assert all(low <= rng.integers(low, high) < high for _ in range(50))
        values = rng.integers(low, high, (40, 30))
        assert values.shape == (40, 30) and values.dtype == np.int64
        assert low <= values.min() and values.max() < high
    highs = [168, 168, 2, 168, 168, 2]
    ints = rng.integers(0, highs, (500, 6))
    assert ints.shape == (500, 6) and (ints >= 0).all() and (ints < highs).all()
    assert set(ints[:, 2].tolist()) == set(ints[:, 5].tolist()) == {0, 1}


@pytest.mark.parametrize("seed", [0, 1, 2024])
def test_sampler_hits_every_value(seed):
    assert set(checks.Sampler(seed).integers(60, size=10_000).tolist()) == set(range(60))


@pytest.mark.parametrize("low, high", [(0, 2**32), (-1, 2**32 - 1), (5, 5), (5, 4)])
def test_sampler_refuses_range_outside_1_to_2_32(low, high):
    for size in (None, 3):
        with pytest.raises(ValueError, match="2\\^32"):
            checks.Sampler(1).integers(low, high, size)
    with pytest.raises(ValueError, match="2\\^32"):
        checks.Sampler(1).integers(0, [5, high - low], (2, 2))


@pytest.mark.parametrize("spans", [[60] * 500, [7200, 7200, 2] * 100,
                                   [3 << 30] * 200 + [5] * 50, [2**32 - 1, 1, 2**31 + 1] * 60])
def test_sampler_matches_value_by_value_reference(spans):
    """One array draw, one scalar draw per value and the word-by-word
    reference agree, also where words are rejected (2^32 mod 3 * 2^30 is
    2^30, so about one word in four is)."""
    expected, words = reference.sampler_draws(11, spans)
    rng = checks.Sampler(11)
    assert [int(rng.integers(span)) for span in spans] == expected
    assert checks.Sampler(11).integers(0, spans).tolist() == expected
    if 3 << 30 in spans:
        assert words > len(spans)


class _NoDraws:
    def integers(self, *args, **kwargs):
        raise AssertionError("drew from the sampler")


class _Scripted:
    def __init__(self, values):
        self.values = iter(values)

    def integers(self, high):
        return next(self.values)


def test_grow_to_maximal_keeps_maximal_subgroup_without_drawing():
    """A subgroup that is already maximal costs one overgroup test."""
    T = checks.ctx_group(4)
    H = wreath.wreath_full_table(T)
    S = checks._h_maximal_types(T, H)["type1.T2"]
    assert checks._grow_to_maximal(H, S, _NoDraws()) is S


@pytest.mark.parametrize("swap", [True, False])
def test_random_proper_subgroup_is_proper(swap):
    """A pair that generates G (T wr S_2 or T x T at q = 4) is passed over,
    and every subgroup returned is proper."""
    G = wreath.wreath_full_table(checks.ctx_group(4), swap=swap)
    rng = checks.Sampler(1)
    while True:
        pair = [int(rng.integers(G.order)), int(rng.integers(G.order))]
        if engine.generate(G, pair).order == G.order:
            break
    x = (G.identity + 1) % G.order
    S = checks._random_proper_subgroup(G, _Scripted(pair + [G.identity, x]))
    assert S == engine.generate(G, [x])
    for seed in range(6):
        S = checks._random_proper_subgroup(G, checks.Sampler(seed))
        assert S.order < G.order and G.order % S.order == 0


GUARD_CHILD = """
import sys
from twdeg import cli
for argv in (["lemma", "5-properties"], ["lemma", "6.1"], ["lemma", "6.2"], ["lemma", "7.4"],
             ["table1"], ["table2"], ["table4"]):
    assert cli.main(argv) == 0, argv
print(sorted({"numpy.random", "_hashlib"} & set(sys.modules)))
"""


def test_randomized_checks_never_import_numpy_random():
    """The randomized checks and the default tables load neither
    numpy.random nor OpenSSL's _hashlib, which its import maps."""
    env = {k: v for k, v in _child_env().items() if k != "TWDEG_WORKERS"}
    proc = subprocess.run([sys.executable, "-c", GUARD_CHILD],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
