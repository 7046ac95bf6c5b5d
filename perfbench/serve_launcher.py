"""Start ``repro-mesh serve`` in this process, optionally with layer spans.

Usage: ``python3 perfbench/serve_launcher.py [--trace-out FILE] -- SERVE_ARGS``.
With ``--trace-out`` the layer wrappers are installed before the CLI entry
point runs, and the spans are written there once the server has drained
and stopped (SIGTERM).  The last stdout line reports the process's peak
RSS.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = [a for a in args.serve_args if a != "--"]

    from repro.cli import main as cli_main

    tracer = None
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, service=True)
    code = cli_main(["serve", *serve_args])
    if tracer is not None:
        tracer.dump(args.trace_out)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_kb": peak}), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
