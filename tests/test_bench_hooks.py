"""The benchmark's trace hooks name functions that exist in twdeg.

bench/tracing.py wraps the functions listed in SPANS and COUNTS by module
and attribute path. It is loaded here by path, read-only, so that renaming a
traced function fails this test instead of breaking a traced benchmark run.
"""

import importlib
import importlib.util
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
