"""The benchmark's trace hooks name functions that exist in twdeg.

bench/tracing.py wraps the functions listed in SPANS and COUNTS by module
and attribute path. It is loaded here by path, read-only, so that renaming a
traced function fails this test instead of breaking a traced benchmark run.
bench/launch.py is also run as a child process, in both tracing modes, so
that a hook that reads its arguments wrongly fails here too.
"""

import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("twdeg_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.SPANS + tracing.COUNTS
    assert targets
    for module, _ in targets:
        importlib.import_module(f"twdeg.{module}")
    for module, path in targets:
        _, _, fn = tracing._resolve(module, path)
        assert callable(fn), f"twdeg.{module}.{path} is not callable"


LAUNCH = TRACING.parent / "launch.py"


def _launch(tmp_path, mode: str, *argv: str) -> dict:
    """The record bench/launch.py writes for one twdeg command run in a
    child process in `mode`; the command must exit with status 0."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    record = tmp_path / f"{mode}.json"
    proc = subprocess.run([sys.executable, str(LAUNCH), str(record), mode, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(record.read_text())


def test_traced_table4_records_scans_and_counts(tmp_path):
    """A traced run calls the hooks' argument readers, which resolving the
    names cannot reach: each stabilizer scan span keeps |T| and a digest of
    alpha, and the counting pass counts act_alpha."""
    spans = _launch(tmp_path, "spans", "table4", "--q", "7")["spans"]
    values = [value for name, _, _, _, value in spans if name == "wreath.stabilizer_subdegree"]
    assert values and all(
        len(v) == 2 and v[0] == 168 and re.fullmatch(r"168:[0-9a-f]{32}", v[1]) for v in values
    )
    counts = _launch(tmp_path, "counts", "table4", "--q", "7")["counts"]
    assert counts["wreath.act_alpha"] > 0
