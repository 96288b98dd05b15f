"""Every benchmark command reproduces the benchmark's recorded output.

``perfbench/reference.json`` holds the exit code and stdout SHA-256 of
every command the benchmark can emit, recorded from a commit whose outputs
are known to be right.  This replays all of them in-process against the
same generated tables: jexpand and simple-roots (the expand workload),
verify-product, verify-ep and witt (the product workload), and derive,
compare and audit.  A change to either series product kernel, the
two-variable checks, the relations, the solver or the audit that moves a
single byte of stdout fails here.

The two-variable stress sizes lie outside the benchmark's commands, so
their exit codes and stdout SHA-256 are pinned here separately.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from moonshine.cli import main

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = workloads  # dataclasses look their module up here
_SPEC.loader.exec_module(workloads)

WORKLOADS = ("expand", "product", "derive", "audit")
COMMANDS = [command for name in WORKLOADS for command in workloads.domain(name)]


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("tables")
    for name in WORKLOADS:
        workloads.write_tables(name, directory)
    return directory


@pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command.key)
def test_matches_reference(command, reference, table_dir, capsys):
    code = main(command.argv_for(table_dir))
    stdout = capsys.readouterr().out.encode("utf-8")
    assert (code, workloads.digest(stdout)) == reference[command.key]


# recorded from a commit whose outputs are known to be right
STRESS = {
    "verify-product --pmax 24 --qmax 24": (
        0,
        "e5e2cf4338661317d35942a77cadc2d20f61dee0b12f1bf0985243625001a0b2",
    ),
    "witt --mmax 24 --nmax 24": (
        0,
        "8997e16793bcdd50a421c576b2000d1f60164d631ec7fabc242e9f88811c5eff",
    ),
}


@pytest.mark.parametrize("command", sorted(STRESS))
def test_stress_size_matches_recorded_output(command, capsys):
    code = main(command.split())
    stdout = capsys.readouterr().out.encode("utf-8")
    assert (code, workloads.digest(stdout)) == STRESS[command]
