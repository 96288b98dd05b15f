"""Run one moonshine command with spans recorded around every layer.

    python perfbench/traced_cli.py SPANS_FILE COMMAND_ID -- ARGS...

behaves like ``python -m moonshine ARGS...`` (same stdout, stderr apart
from traceback frames, and exit code) and, when the command ends, writes
its spans and counters to SPANS_FILE as JSON.
"""

from __future__ import annotations

import sys

from tracing import Recorder, install


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__.strip(), file=sys.stderr)
        return 2
    spans_file, command_id, args = argv[0], argv[1], argv[3:]
    recorder = Recorder()
    cli = install(recorder)
    try:
        return cli.main(args)
    finally:
        recorder.dump(spans_file, command_id)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
