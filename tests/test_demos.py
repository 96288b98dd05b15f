"""Every walkthrough under ``demos/`` runs to completion and prints what it
printed when its output was last pinned.

The demos call the library the way a reader would, so a signature change
that a demo was not updated for shows up here rather than in a reader's
terminal.  Each demo's stdout is pinned by its SHA-256, so a refactor that
changes what a reader sees fails here too.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STDOUT_SHA256 = {
    "01_invariant_expansion.py": "505c707d58c0706e3a410163e953aeffd4a6f6743683a3f89b2555af15874b4d",
    "02_product_identity.py": "3a95d598fe27cd19687629e273f293d3bfb49f822efc8aeac94b4d5b743a2041",
    "03_recursion_and_seeds.py": "bf264293466dd5b6a426f2ef7f669301dcdbc4f34caa9c4b025e87fd518062c3",
    "04_class_traces.py": "df7f73c3a809c28c8107d0a3d1bab86dd34a688d4aaa23bf697c3f25e33ec9cc",
    "05_lattice_walk.py": "6ac9d627884f83f9a0afaa8c9f36a934c562e573d85cc3ec2c6572c4c69dd54f",
}


def test_demos_found():
    assert [demo.name for demo in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name]
