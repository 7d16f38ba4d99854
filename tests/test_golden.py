"""Golden reports: every default command's JSON report, timings stripped.

Each file under tests/golden/ holds the report one command wrote with
`--out`, with every `runtime_ms` field removed. The files were produced by
the code before the check catalog was restructured and are never regenerated
to make a change pass: a difference here means the program's answers moved.
Each command runs in-process through `cli.main`.
"""

import difflib
import json
from pathlib import Path

import pytest

from twdeg import checks, cli

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "table1": ["table1"],
    "table1-m4-5-6": ["table1", "--m", "4", "5", "6"],
    "table2": ["table2"],
    "table4": ["table4"],
    **{f"lemma-{i}": ["lemma", i] for i in checks.LEMMA_IDS},
    # gated rows: skipped-long records without --long
    "table1-q17-19-m2-3": ["table1", "--q", "17", "19", "--m", "2", "3"],
    "table2-q17-19": ["table2", "--q", "17", "19"],
    "table4-q29": ["table4", "--q", "29"],
    # the exact q = 29 and q = 59 rows, which only --long runs
    "table4-long-q29-59": ["table4", "--long", "--q", "29", "59"],
    "report-replay": ["report", "--in", str(GOLDEN / "table1.json"),
                      str(GOLDEN / "table2.json"), "--replay"],
}


def strip_timings(obj):
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items() if k != "runtime_ms"}
    if isinstance(obj, list):
        return [strip_timings(v) for v in obj]
    return obj


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_report(name, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("TWDEG_WORKERS", raising=False)
    out = tmp_path / "report.json"
    cli.main(COMMANDS[name] + ["--out", str(out)])
    capsys.readouterr()
    live = json.dumps(strip_timings(json.loads(out.read_text())), indent=2).splitlines()
    golden = (GOLDEN / f"{name}.json").read_text().splitlines()
    diff = "\n".join(difflib.unified_diff(golden, live, "golden", "live", lineterm="", n=2))
    assert not diff, f"{name} report differs from its golden file:\n{diff[:4000]}"
