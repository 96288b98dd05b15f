"""Record the reference outputs the benchmark checks commands against.

    python3 perfbench/record_reference.py

Runs every command the generator can emit, for every workload, once
against the source tree of this checkout, and rewrites ``reference.json``
with each command's exit code and the SHA-256 of its stdout.  Record only
from a commit whose outputs are known to be right: the CLI promises
byte-identical stdout for identical inputs, so every later commit must
reproduce these digests.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    reference = {}
    env = run.child_env()
    run.WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="record-", dir=run.WORK))
    try:
        for name in workloads.WORKLOADS:
            workloads.write_tables(name, scratch)
            for command in workloads.domain(name):
                argv = [sys.executable, "-m", "moonshine", *command.argv_for(scratch)]
                done = run.execute(argv, env)
                if done.code != command.expect_exit:
                    print(f"{command.key}: exit {done.code}, expected "
                          f"{command.expect_exit}", file=sys.stderr)
                    return 1
                reference[command.key] = [done.code, workloads.digest(done.stdout)]
                print(f"{done.raw_wall:7.3f}s  {command.key}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
