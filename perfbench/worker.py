"""One workload process: import the CLI, run one command, report timings.

Usage: python3 worker.py SRC_DIR ARGV_JSON [SPANS_PATH]

Imports ``sdpbounds.cli`` from SRC_DIR in this fresh interpreter (set-up),
then runs ``sdpbounds.cli.main`` on the JSON-encoded argv with its stdout
captured.  With SPANS_PATH the layer calls are traced and the spans written
there when the command ends.  An empty argv only imports.  The last stdout
line is a JSON object: setup_s, run_s, exit_code, peak_rss_mb, stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    src = Path(sys.argv[1]).resolve()
    argv = json.loads(sys.argv[2])
    spans_path = sys.argv[3] if len(sys.argv) > 3 else None
    sys.path.insert(0, str(src))

    start = time.perf_counter()
    import sdpbounds.cli as cli
    setup_s = time.perf_counter() - start
    if src not in Path(cli.__file__).resolve().parents:
        print(f"sdpbounds was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    result = {"setup_s": setup_s}
    if argv:
        run = cli.main
        if spans_path:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install(sys.modules)
            run = lambda args: tracer.call("main", "cli", cli.main, (args,), {})  # noqa: E731
        captured = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
        result["run_s"] = time.perf_counter() - start
        if spans_path:
            tracer.dump(spans_path)
        result["exit_code"] = code
        result["stdout"] = captured.getvalue()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
