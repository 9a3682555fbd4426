"""Run one ``repro`` CLI command with the layer tracer attached.

    python perfbench/launch.py --trace-dir DIR -- run fig7 --engine fast

Times the import of ``repro.cli`` plus the study registry as the
``startup.import`` span, wraps the layer boundaries
(:func:`perfbench.tracing.install`), calls ``repro.cli.main`` with the
remaining arguments, and writes ``DIR/trace-<pid>.json`` when the
command returns (fleet pool workers write their own files).  The exit
status is the command's.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.tracing import Tracer, install  # noqa: E402
from perfbench.workloads import SETUP_PROBE  # noqa: E402


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--trace-dir" or argv[2] != "--":
        print("usage: launch.py --trace-dir DIR -- <repro cli args>",
              file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.out_dir = argv[1]
    with tracer.span("startup.import"):
        exec(SETUP_PROBE, {})
    import repro.cli

    install(tracer)
    try:
        return repro.cli.main(argv[3:])
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
