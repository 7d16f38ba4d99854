"""Each output checker of the benchmark accepts correct output and rejects an
altered value. Run with `python3 -m pytest bench`; twdeg is not imported."""

import copy
import json

import closed_forms as cf
import run
import tracing


def line(check_id, actual, status="PASS", expected="x"):
    return f"{status}  {check_id}  expected={expected}  actual={actual}  (3ms)"


def output(*lines):
    npass = sum(ln.startswith("PASS") for ln in lines)
    nfail = sum(ln.startswith("FAIL") for ln in lines)
    return "\n".join([*lines, f"-- {npass} passed, {nfail} failed, 0 skipped"]) + "\n"


def test_paper_values():
    assert cf.table4_pair(23, "pair2") == (2 * 24**2, 253**2)
    assert cf.table4_pair(19, "pair2") == (2 * 20**2, 57**2)
    assert cf.table4_pair(11, "pair3") == (2 * 12**2, 55**2)
    assert cf.table4_pair(11, "pair2") == (60**2, 11**2)
    assert cf.table4_pair(7, "pair2") == (24**2, 7**2)
    assert cf.table4_pair(11, "pair1") == (2 * 12**2, 55**2)
    assert cf.table1_value("row2", 13, 2) == (13 * 14 // 2) ** 2  # q = 1 mod 4
    assert cf.table1_value("row2", 11, 3) == (11 * 10 // 2) ** 3  # q = 3 mod 4
    assert cf.table1_value("row1", 9, 4) == 10**4
    assert cf.table1_value("row7", 11, 2) == (660 // 60) ** 2
    assert cf.table2_pair("row1", 7, 2) == (441, 128)
    assert [cf.dickson_classes(11, d) for d in (3, 5, 6)] == [2, 1, 1]
    assert [cf.dickson_classes(13, d) for d in (3, 6, 7)] == [2, 1, 1]
    assert cf.maximal_type_orders("6.1")["type3.A4"] == 2 * 12**2
    assert cf.maximal_type_orders("6.2")["KxT.DihedralPlus"] == 10 * 60


def test_table_lines_accept_closed_form_and_reject_altered():
    good = [line("table1.row4b.q9.m3", 729000), line("table2.row6.q11.m2", "(121,3600,gcd=1)"),
            line("table4.q23.pair1", "(1152,64009,gcd=1)"), line("dickson-census.q11.d3", 2),
            line("lemma3.4.q9", "NotFound"), line("replay.table1.row1.q4.m3", "reproduced")]
    assert cf.check_output(output(*good), len(good)) == []
    altered = [line("table1.row4b.q9.m3", 729001), line("table2.row6.q11.m2", "(121,7200,gcd=1)"),
               line("table4.q23.pair1", "(2304,64009,gcd=1)"), line("dickson-census.q11.d3", 1),
               line("lemma3.4.q9", "witness"), line("replay.table1.row1.q4.m3", "error: x")]
    for i, bad in enumerate(altered):
        lines = good[:i] + [bad] + good[i + 1:]
        assert cf.check_output(output(*lines), len(lines)), bad


def test_status_count_summary_and_unknown_ids_rejected():
    ok = line("lemma3.3.q4", "True")
    assert cf.check_output(output(line("lemma3.3.q4", "True", status="FAIL")))
    assert cf.check_output(output(ok), 2)
    assert cf.check_output(ok + "\n")  # no summary line
    assert cf.check_output(output(line("lemma9.9.q4", "True")))


def test_properties_reject_non_divisor_and_common_factor():
    assert cf.subdegree_properties("(128,441,gcd=1)", 7, 2) == []
    assert cf.subdegree_properties("(5,441,gcd=1)", 7, 2)  # 5 does not divide 2 * 168^2
    assert cf.subdegree_properties("(126,441,gcd=63)", 7, 2)
    assert cf.subdegree_properties("(126,441,gcd=1)", 7, 2)  # the gcd field lies
    assert cf.subdegree_properties("5", 7, 3) == []  # no divisibility rule at m = 3
    assert cf.subdegree_properties("error: boom", 7, 2)


def test_maximal_witness_rejects_altered_order():
    report = {"results": [{"witness": {"types": cf.maximal_type_orders("6.1"),
                                       "samples_classified": 6}}]}
    assert cf.check_maximal_witness("6.1", report) == []
    bad = copy.deepcopy(report)
    bad["results"][0]["witness"]["types"]["type2.diag"] = 60
    assert cf.check_maximal_witness("6.1", bad)
    bad = copy.deepcopy(report)
    bad["results"][0]["witness"]["samples_classified"] = 5
    assert cf.check_maximal_witness("6.1", bad)


def test_cache_passes_reject_differences():
    first = output(line("lemma3.6.q4", "witness"))
    records = [{"q": q, "label": lb, "lemma": lm} for q, lb, lm in cf.CACHE_RECORDS]
    assert cf.check_cache_passes(first, first, "c", "c", records) == []
    assert cf.check_cache_passes(first, output(line("lemma3.6.q4", "NotFound")), "c", "c", records)
    assert cf.check_cache_passes(first, first, "c", "c2", records)
    assert cf.check_cache_passes(first, first, "c", "c", records[1:])


def test_altered_certificate_counts_as_failed_until_rejected(tmp_path):
    cmd = run.Command("replay-altered", [], 2)
    table = line(run.ALTERED_ID, "(3025,288,gcd=1)")
    accepted = output(table, line(f"replay.{run.ALTERED_ID}", "reproduced"))
    rejected = output(table, line(f"replay.{run.ALTERED_ID}", "576", status="FAIL"))
    proc = run.Proc("replay-altered", 0, 0.1, 0.1, 40.0, accepted, {})
    assert run.check_command(cmd, proc, tmp_path) == ([], True)
    proc = run.Proc("replay-altered", 1, 0.1, 0.1, 40.0, rejected, {})
    assert run.check_command(cmd, proc, tmp_path) == ([], False)


def test_altered_report_changes_one_value(tmp_path):
    cert = {"q": 11, "m": 2, "kind": "exact-stabilizer", "value": "288",
            "witness": {"construction": "p1-product", "shift": [2]}}
    rec = {"check_id": run.ALTERED_ID, "status": "pass", "witness": {"r": {}, "d": cert}}
    (tmp_path / "table2.json").write_text(json.dumps({"results": [rec]}))
    assert run.make_altered_report(tmp_path) == []
    out = json.loads((tmp_path / "table2-altered.json").read_text())
    assert out["results"][0]["witness"]["d"]["value"] == "576"
    (tmp_path / "table2.json").write_text(json.dumps({"results": []}))
    assert run.make_altered_report(tmp_path)  # nothing to alter is a problem


def test_self_time_subtracts_children():
    spans = [["cli.main", 0.0, 10.0, -1, None], ["engine.generate", 1.0, 4.0, 0, None],
             ["engine.is_maximal", 5.0, 9.0, 0, None], ["engine.generate", 6.0, 7.0, 2, None]]
    own = tracing.self_times(spans)
    assert own == {"cli.main": 3.0, "engine.generate": 4.0, "engine.is_maximal": 3.0}


def test_layer_metrics_count_spans_and_tolerate_a_raising_call():
    spans = [["psl.psl_group", 0.0, 1.0, -1, 168],
             ["engine.GroupTable.ensure_mul_table", 1.0, 2.0, -1, 168],
             ["wreath.build_coset_fn", 2.0, 3.0, -1, None],
             ["wreath.stabilizer_subdegree", 3.0, 4.0, 2, [168, "168:a"]],
             ["wreath.stabilizer_subdegree", 4.0, 5.0, -1, [168, "168:a"]],
             ["atlas.search_intersection", 5.0, 6.0, -1, None]]  # raised
    m = tracing.layer_metrics([{"spans": spans}, {"counts": {"engine.GroupTable.mul": 7}}])
    assert m["psl.elements"] == 168 and m["engine.mul_tables"] == 1
    assert m["wreath.coset_fns"] == 1 and m["wreath.scans"] == 2
    assert m["wreath.scans_repeated"] == 1 and m["wreath.scan_elements"] == 4 * 168 * 168
    assert m["atlas.scanned"] == 0 and m["engine.mul_calls"] == 7
    assert m["wreath.coset_fn_s"] == 0.0 and m["wreath.scan_s"] == 2.0
