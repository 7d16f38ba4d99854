"""Benchmark of the twdeg verifier: each workload is a list of `twdeg` CLI
commands, each run in its own fresh process, serially, as a user runs them.

    python3 bench/run.py --workload scan|catalog --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from `src/` there.
An untraced run repeats whole rounds of its workload until S seconds have
passed and it has done MIN_ROUNDS, and reports the median round; a traced run is
one round each of an untraced, a spans and a counting pass. Between commands
the benchmark samples `reference.py`, and rescales each round's times to the
reference speed, so that the machine's drift cancels out. Every
command's output is checked against the closed forms in `closed_forms.py`.
The last line of standard output is one JSON object: `correct`,
`attempted` and `failed` count commands, and `metrics` holds the end-to-end
metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import closed_forms
import reference
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
LAUNCH = BENCH / "launch.py"
SETUP_PROBES = 4          # extra start-and-import processes per run, for setup_s
REF_PER_ROUND_S = 3.0     # reference sampling per round, split over the gaps between commands
# catalog's rounds swing most with the machine's speed, so it averages two;
# scan's single command is long enough alone (see README.md)
MIN_ROUNDS = {"scan": 1, "catalog": 2}
RUN_DEADLINE_S = 170.0    # a process still running then is killed and the run fails
ALTERED_ID = "table2.row1.q11.m2"  # its P1 x P1 certificate value 288 becomes 576


@dataclass
class Command:
    tag: str
    argv: list[str]
    lines: int | None = None  # check lines the command prints, when fixed


@dataclass
class Proc:
    tag: str
    code: int
    setup_s: float
    wall_s: float
    peak_rss_mb: float
    stdout: str
    record: dict


@dataclass
class Round:
    procs: list[Proc] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    ref_chunks: int = 0
    ref_seconds: float = 0.0

    def sample_reference(self, seconds: float) -> None:
        chunks, taken = reference.sample(seconds)
        self.ref_chunks += chunks
        self.ref_seconds += taken

    @property
    def speed(self) -> float:
        """The round's reference rate relative to REF_RATE (1 = reference speed)."""
        return self.ref_chunks / self.ref_seconds / reference.REF_RATE

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.procs)

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.speed


def program_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TWDEG_WORKERS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], workdir: Path, tag: str, mode: str, deadline: float) -> Proc:
    """Run launch.py with `argv` and measure it: setup ends when the child
    has imported twdeg.cli; wall time runs from there to the child's exit."""
    record_path = workdir / f"{tag}.record.json"
    with open(workdir / f"{tag}.stdout", "w+") as out, \
            open(workdir / f"{tag}.stderr", "w") as err:
        start = time.monotonic()
        child = subprocess.Popen(
            [sys.executable, str(LAUNCH), str(record_path), mode, *argv],
            cwd=workdir, env=program_env(), stdout=out, stderr=err,
        )
        killer = threading.Timer(max(1.0, deadline - start), child.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            killer.cancel()
        end = time.monotonic()
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    if end >= deadline:
        raise RuntimeError(f"{tag}: killed at the run deadline")
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError) as exc:
        err_text = (workdir / f"{tag}.stderr").read_text()[-2000:]
        raise RuntimeError(f"{tag}: no record from the child ({exc}); stderr:\n{err_text}")
    setup_end = record.pop("setup_end")
    return Proc(tag, child.returncode, setup_end - start, end - setup_end,
                usage.ru_maxrss * 1024 / 1e6, stdout, record)


# -- workloads ---------------------------------------------------------------------

LEMMAS = [("3.1", 8), ("3.3", 6), ("5-properties", 4), ("7.4", 5), ("7.8", 5),
          ("obstruction", 4), ("dickson-census", 15)]
CACHED_LEMMAS = [("3.4", 2), ("3.5", 1), ("3.6", 2), ("4.2-triple", 1)]
CACHE_FILE = "witnesses.json"


def read_text(path: Path) -> str:
    return path.read_text() if path.is_file() else ""


def make_altered_report(workdir: Path) -> list[str]:
    """Copy table2.json with one P1 x P1 exact-stabilizer value doubled."""
    try:
        report = json.loads(read_text(workdir / "table2.json"))
        cert = next(r for r in report["results"] if r["check_id"] == ALTERED_ID)["witness"]["d"]
    except (ValueError, KeyError, StopIteration) as exc:
        return [f"table2.json has no {ALTERED_ID} certificate to alter ({exc!r})"]
    if cert["witness"].get("construction") != "p1-product" or cert["value"] != "288":
        return [f"{ALTERED_ID}: unexpected P1 x P1 certificate {cert}"]
    cert["value"] = "576"
    (workdir / "table2-altered.json").write_text(json.dumps(report, indent=2) + "\n")
    return []


def check_command(cmd: Command, proc: Proc, workdir: Path) -> tuple[list[str], bool]:
    """(problems, failed) for one finished command."""
    if cmd.tag == "replay-altered":
        lines, _ = closed_forms.parse_lines(proc.stdout)
        altered = [r for r in lines if r["id"] == f"replay.{ALTERED_ID}"]
        problems = closed_forms.check_output(proc.stdout, cmd.lines,
                                             skip=(f"replay.{ALTERED_ID}",))
        if len(altered) != 1:
            return problems + ["altered certificate not replayed"], True
        rejected = altered[0]["status"] == "FAIL" and proc.code == 1
        return problems, not rejected
    problems = [f"{cmd.tag}: {p}" for p in closed_forms.check_output(proc.stdout, cmd.lines)]
    if proc.code != 0:
        problems.append(f"{cmd.tag}: exit code {proc.code}")
    if cmd.tag.startswith("lemma6."):
        try:
            report = json.loads(read_text(workdir / f"{cmd.tag}.json"))
        except ValueError:
            report = {}
        problems += closed_forms.check_maximal_witness(cmd.tag[len("lemma"):], report)
    return problems, bool(problems)


def stages(workload: str, seed: int) -> list[list[Command]]:
    """The workload's commands in stages; the seed orders each stage's
    independent commands. Later stages read what earlier ones wrote."""
    if workload == "scan":
        return [[Command("table4", ["table4"], 9)]]
    rng = random.Random(seed)
    first = [Command("table1", ["table1", "--m", "2", "3", "4", "5", "6", "--out",
                                "table1.json"], 156),
             Command("table2", ["table2", "--out", "table2.json"], 10),
             Command("lemma6.1", ["lemma", "6.1", "--out", "lemma6.1.json"], 1),
             Command("lemma6.2", ["lemma", "6.2", "--out", "lemma6.2.json"], 1)]
    first += [Command(f"lemma{lid}", ["lemma", lid], n) for lid, n in LEMMAS]
    rng.shuffle(first)
    passes = [[Command(f"cache{k}-{lid}", ["lemma", lid, "--cache", CACHE_FILE], n)
               for lid, n in CACHED_LEMMAS] for k in (1, 2)]
    replays = [Command("replay", ["report", "--replay", "--in", "table1.json",
                                  "table2.json"], 2 * (156 + 10)),
               Command("replay-altered", ["report", "--replay", "--in",
                                          "table2-altered.json"], 2 * 10)]
    rng.shuffle(replays)
    return [first, *passes, replays]


def run_round(workload: str, seed: int, workdir: Path, mode: str, deadline: float) -> Round:
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    rnd = Round()
    cache = workdir / CACHE_FILE
    plan = stages(workload, seed)
    gap_s = REF_PER_ROUND_S / (sum(map(len, plan)) + 1)
    rnd.sample_reference(gap_s)
    for stage in plan:
        if any(cmd.tag == "replay-altered" for cmd in stage):
            rnd.problems += make_altered_report(workdir)
        if stage[0].tag.startswith("cache2"):
            written = read_text(cache)
        for cmd in stage:
            proc = spawn(cmd.argv, workdir, cmd.tag, mode, deadline)
            rnd.procs.append(proc)
            rnd.sample_reference(gap_s)
            problems, failed = check_command(cmd, proc, workdir)
            rnd.problems += problems
            rnd.attempted += 1
            rnd.failed += failed
    if workload == "catalog":
        out = {p.tag: p.stdout for p in rnd.procs}
        try:
            records = json.loads(read_text(cache))
        except ValueError:
            records = []
        for lid, _ in CACHED_LEMMAS:
            rnd.problems += closed_forms.check_cache_passes(
                out[f"cache1-{lid}"], out[f"cache2-{lid}"], written, read_text(cache), records)
    return rnd


# -- metrics -----------------------------------------------------------------------

def setup_probe(workdir: Path, i: int, deadline: float) -> float:
    return spawn([], workdir, f"probe{i}", "plain", deadline).setup_s


def end_to_end(rounds: list[Round], probes: list[float]) -> dict:
    per_process = statistics.median(probes + [p.setup_s for r in rounds for p in r.procs])
    speed = (sum(r.ref_chunks for r in rounds) / sum(r.ref_seconds for r in rounds)
             / reference.REF_RATE)
    return {
        "ref_wall_s": (statistics.median(r.ref_wall_s for r in rounds), "s"),
        "peak_rss_mb": (max(p.peak_rss_mb for r in rounds for p in r.procs), "MB"),
        "setup_s": (per_process * len(rounds[0].procs) * speed, "s"),
    }


def per_layer(plain: Round, spans: Round, counts: Round) -> dict:
    m = tracing.layer_metrics([p.record for p in spans.procs + counts.procs])
    m["trace.overhead_s"] = spans.ref_wall_s - plain.ref_wall_s
    return {k: (v, tracing.UNITS[k]) for k, v in m.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("scan", "catalog"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "twdeg" / "cli.py").is_file():
        print(f"bench: no twdeg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    base = OUT / args.workload
    base.mkdir(parents=True, exist_ok=True)
    reference.sample(0.3)  # warm-up, not counted
    probes = [setup_probe(base, i, deadline) for i in range(SETUP_PROBES)]
    modes = ("plain", "spans", "counts") if args.trace else ("plain",)
    rounds: list[tuple[Round, ...]] = []
    # a traced run is one round of its three passes, whatever --seconds says
    while not rounds or (not args.trace and (len(rounds) < MIN_ROUNDS[args.workload]
                                             or time.monotonic() - start < args.seconds)):
        rounds.append(tuple(
            run_round(args.workload, args.seed, base / f"round{len(rounds)}-{mode}",
                      mode, deadline)
            for mode in modes))
    everything = [r for group in rounds for r in group]
    problems = [p for r in everything for p in r.problems]
    for p in problems:
        print(f"bench: {p}", file=sys.stderr)
    for i, group in enumerate(rounds):
        rnd = group[0]
        print(f"round {i}: wall {rnd.wall_s:.3f} s  reference speed {rnd.speed:.3f}  "
              f"ref_wall {rnd.ref_wall_s:.3f} s")
    for proc in rounds[-1][0].procs:
        print(f"{proc.tag:16s} setup {proc.setup_s:7.3f} s  wall {proc.wall_s:8.3f} s  "
              f"peak {proc.peak_rss_mb:7.1f} MB  exit {proc.code}")
    if args.trace:
        metrics = per_layer(*rounds[0])
    else:
        metrics = end_to_end([g[0] for g in rounds], probes)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in everything),
        "failed": sum(r.failed for r in everything),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
