"""Launcher for a traced ``wire_oltp`` server.

    python3 benchmarks/e2e/serve_traced.py DUMP_PREFIX <repro serve arguments>

Installs the wrappers of :mod:`tracing` and then calls the unmodified
``repro.cli`` serve entry point.  On SIGUSR1 it writes everything
recorded so far to ``DUMP_PREFIX.<n>.json`` and starts over, so the
load generator can take one dump when set-up ends and one before it
kills the server.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main(argv: list[str]) -> int:
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from benchmarks.e2e import tracing
    from repro import cli

    prefix, serve_args = argv[0], argv[1:]
    recorder = tracing.Recorder()
    tracing.install(recorder, tracing.SERVER_POINTS)
    recorder.enabled = True
    dumps = 0

    def dump(signum, frame) -> None:
        nonlocal dumps
        dumps += 1
        path = f"{prefix}.{dumps}.json"
        with open(path + ".tmp", "w") as handle:
            json.dump(recorder.dump(), handle)
        os.replace(path + ".tmp", path)
        recorder.reset()

    signal.signal(signal.SIGUSR1, dump)
    return cli.main(["serve", *serve_args])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
