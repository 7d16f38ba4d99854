"""Run one twdeg command in this process, as the `twdeg` console script does.

    python3 launch.py RECORD MODE [twdeg arguments ...]

Writes to RECORD, as JSON, the monotonic time at which `import twdeg.cli`
finished (`setup_end`), so that the parent can split the process's life
into set-up and command time. MODE is `plain`, `spans` or `counts`; the
last two install the tracing wrappers after the import and add the spans
or call counts to RECORD. With no twdeg arguments the process only starts
and imports: a set-up probe.
"""

import json
import sys
import time


def main() -> int:
    record_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import twdeg.cli

    record = {"setup_end": time.monotonic()}
    code = 0
    if argv:
        recorder = None
        if mode != "plain":
            import tracing

            recorder = tracing.install(mode)
        try:
            code = twdeg.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - the parent checks the exit code and output
            import traceback

            traceback.print_exc()
            code = 1
        finally:
            if recorder is not None:
                record.update(recorder.dump())
    sys.stdout.flush()
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
