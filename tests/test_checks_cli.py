import json
import subprocess
import sys

import pytest

from twdeg import checks, cli
from twdeg.checks import RunConfig


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
    """The CLI rejects argv with a usage line, status 2 and the message."""
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: twdeg") and message in err
    assert "Traceback" not in err


def test_bad_q_rejected(capsys):
    assert_usage_error(capsys, ["table1", "--q", "6"], "prime powers >= 4; got [6]")
    assert_usage_error(capsys, ["table4", "--q", "3"], "prime powers >= 4; got [3]")


def test_bad_m_rejected(capsys):
    assert_usage_error(capsys, ["table1", "--m", "1"], "m values must be >= 2")


def test_unknown_lemma(capsys):
    assert_usage_error(capsys, ["lemma", "9.99"], "invalid choice: '9.99'")


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
    assert_usage_error(capsys, ["lemma", "3.5", "--q", "7", "--cache", str(truncated)],
                       f"witness cache {truncated} is not JSON")
    assert "lemma3.5" not in capsys.readouterr().out


def test_census_d_filter(capsys):
    rc = run_cli(["lemma", "dickson-census", "--q", "11", "--d", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "dickson-census.q11.d3" in out
    assert "dickson-census.q11.d5" not in out


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


def test_skipped_long_exit_zero(capsys):
    # q = 29 table4 rows are gated without --long
    rc = run_cli(["table4", "--q", "29"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "SKIP" in out and "skipped" in out


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


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "twdeg.cli", "lemma", "3.3", "--q", "7"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "lemma3.3.q7" in proc.stdout


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


def test_p1_product_scanned_once_per_process(monkeypatch, scan_log):
    """table4 at q = 11 scans each coset function once, P1 x P1 included."""
    monkeypatch.setattr(checks, "_CTX", {})
    cfg = RunConfig(q_list=[11], q_explicit=True)
    specs = checks.table4_specs(cfg)
    assert [s[0] for s in specs] == ["table4.q11.pair1", "table4.q11.pair2", "table4.q11.pair3"]
    results = checks.execute_specs(specs, cfg)
    assert all(r.status == "pass" for r in results)
    assert scan_log and len(set(scan_log)) == len(scan_log)


def test_lemma_7_8_scans_each_alpha_once(monkeypatch, scan_log):
    monkeypatch.setattr(checks, "_CTX", {})
    cfg = RunConfig()
    results = checks.execute_specs(checks.lemma_specs(cfg, "7.8"), cfg)
    assert results and all(r.status == "pass" for r in results)
    assert scan_log and len(set(scan_log)) == len(scan_log)


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
