"""One roughlift CLI run in a fresh process, reporting its own timings.

    python3 perfbench/child.py <trace 0|1> <roughlift CLI arguments...>

Runs ``roughlift.cli.main`` on the arguments and prints, as the last line
of standard output, a JSON record: monotonic-clock marks around the import
of ``roughlift.cli`` and around ``parse_config``, the end of ``main``, its
exit code, the peak RSS of this process, and (with trace 1) every span the
tracer recorded.  ``run.py`` starts one of these per measured run, so each
run's peak RSS is its own.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    trace = sys.argv[1] == "1"
    cli_argv = sys.argv[2:]
    src = Path(__file__).resolve().parents[1] / "src"

    t_import = time.monotonic()
    import roughlift.cli as cli
    t_imported = time.monotonic()
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"roughlift imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    marks = {}
    parse_config = cli.parse_config

    def timed_parse_config(path):
        marks["parse_start"] = time.monotonic()
        cfg = parse_config(path)
        marks["parsed"] = time.monotonic()
        return cfg

    cli.parse_config = timed_parse_config
    tracer = None
    if trace:
        from tracing import TARGETS, Tracer
        tracer = Tracer()
        tracer.install(TARGETS)
    try:
        code = cli.main(cli_argv)
    finally:
        t_end = time.monotonic()
        if tracer is not None:
            tracer.uninstall()
        cli.parse_config = parse_config
    record = {"exit": code, "import_start": t_import, "imported": t_imported,
              "end": t_end, **marks,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "spans": tracer.spans if tracer is not None else None}
    sys.stdout.flush()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
