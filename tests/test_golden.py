"""Golden reports: every default command's JSON report, timings stripped.

Each file under tests/golden/ holds the report one command wrote with
`--out`, with every `runtime_ms` field removed. The files were produced by
the code before the check catalog was restructured and are never regenerated
to make a change pass: a difference here means the program's answers moved.
Each command runs in-process through `cli.main`, from empty contexts, and
its GroupTable.product calls and the entries they return are held to a
budget.
"""

import difflib
import json
from pathlib import Path

import pytest

from twdeg import checks, cli, engine

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "table1": ["table1"],
    "table1-m4-5-6": ["table1", "--m", "4", "5", "6"],
    "table2": ["table2"],
    "table4": ["table4"],
    **{f"lemma-{i}": ["lemma", i] for i in checks.LEMMA_IDS},
    # rows outside the default q, which run without --long; these three files
    # were edited by hand from skipped-long records to the rows --long gave
    "table1-q17-19-m2-3": ["table1", "--q", "17", "19", "--m", "2", "3"],
    "table2-q17-19": ["table2", "--q", "17", "19"],
    "table4-q29": ["table4", "--q", "29"],
    # the exact q = 29 and q = 59 rows, as --long adds them to table4
    "table4-long-q29-59": ["table4", "--long", "--q", "29", "59"],
    # the generic pair behind the obstruction gate, on a P1 x P1 divisor
    # certificate (q = 27, 31, 43 are not scanned)
    "table4-q27-31-43": ["table4", "--q", "27", "31", "43"],
    # row4 at m = 2 and 3, with the C2 shift candidates on the A5 side
    "table2-q29": ["table2", "--q", "29"],
    "report-replay": ["report", "--in", str(GOLDEN / "table1.json"),
                      str(GOLDEN / "table2.json"), "--replay"],
}


# (GroupTable.product calls, entries they return) per command from empty
# contexts: about 1.25 times the counts of the code that set them, so work
# added anywhere shows here without timing noise.  Lower a bound when a
# change lowers its count; never raise one to let a change pass.
BUDGETS = {
    "lemma-3.1": (809, 48_000),
    "lemma-3.3": (82, 25_000),
    "lemma-3.4": (120, 9_300),
    "lemma-3.5": (44, 1_300),
    "lemma-3.6": (52, 5_500),
    "lemma-4.2-triple": (70, 6_410),
    "lemma-5-properties": (1_000, 12_000_000),
    "lemma-6.1": (729, 371_000),
    "lemma-6.2": (670, 122_000),
    "lemma-7.4": (1_470, 450_000),
    "lemma-7.8": (1_060, 200_000),
    "lemma-dickson-census": (270, 58_700),
    "lemma-obstruction": (208, 23_600),
    "report-replay": (3_190, 520_000),
    "table1": (2_770, 496_000),
    "table1-m4-5-6": (1_400, 316_000),
    "table1-q17-19-m2-3": (500, 465_000),
    "table2": (1_490, 244_000),
    "table2-q17-19": (132, 169_000),
    "table2-q29": (720, 2_880_000),
    "table4": (2_570, 1_800_000),
    "table4-long-q29-59": (2_500, 24_700_000),
    "table4-q27-31-43": (412, 1_900_000),
    "table4-q29": (630, 1_600_000),
}


def strip_timings(obj):
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items() if k != "runtime_ms"}
    if isinstance(obj, list):
        return [strip_timings(v) for v in obj]
    return obj


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(COMMANDS) == sorted(BUDGETS)


def _specs(argv):
    """The specs a table or lemma command runs, built as cli.main builds
    them, without running any."""
    args = cli.build_parser().parse_args(argv)
    cfg = cli.config_from_args(args)
    if args.command == "lemma":
        return checks.lemma_specs(cfg, args.lemma_id)
    return getattr(checks, f"{args.command}_specs")(cfg)


def test_every_check_is_pinned_by_a_golden():
    """Every registered check function runs in some golden command."""
    names = {fn for argv in COMMANDS.values() if argv[0] != "report" for _, fn, _ in _specs(argv)}
    assert names == set(checks._CHECKS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_report(name, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("TWDEG_WORKERS", raising=False)
    monkeypatch.setattr(checks, "_CTX", {})
    work = [0, 0]
    product = engine.GroupTable.product

    def counted(self, *factors):
        result = product(self, *factors)
        work[0] += 1
        work[1] += result.size
        return result

    monkeypatch.setattr(engine.GroupTable, "product", counted)
    out = tmp_path / "report.json"
    cli.main(COMMANDS[name] + ["--out", str(out)])
    capsys.readouterr()
    live = json.dumps(strip_timings(json.loads(out.read_text())), indent=2).splitlines()
    golden = (GOLDEN / f"{name}.json").read_text().splitlines()
    diff = "\n".join(difflib.unified_diff(golden, live, "golden", "live", lineterm="", n=2))
    assert not diff, f"{name} report differs from its golden file:\n{diff[:4000]}"
    calls, entries = BUDGETS[name]
    assert work[0] <= calls and work[1] <= entries, f"{name}: {work} over {BUDGETS[name]}"
