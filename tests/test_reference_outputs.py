"""Every benchmark command reproduces the benchmark's recorded output.

``perfbench/reference.json`` holds the exit code and stdout SHA-256 of
every command the benchmark can emit, recorded from a commit whose outputs
are known to be right.  This replays all of them in-process against the
same generated tables: jexpand and simple-roots (the expand workload),
verify-product, verify-ep and witt (the product workload), and derive,
compare and audit.  A change to either series product kernel, the
two-variable checks, the relations, the solver or the audit that moves a
single byte of stdout fails here.

The two-variable stress sizes and the narrow windows lie outside the
benchmark's commands, so their exit codes and stdout SHA-256 are pinned
here separately.
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
    # U is symmetric in p and q, so a square window cannot show its two
    # sides swapped; these narrow windows can
    "witt --mmax 3 --nmax 40": (
        0,
        "a79225032bbb3f1d0dc398e792c83e5c87c245f602b1680e942f7cf936a3cbe3",
    ),
    "witt --mmax 40 --nmax 3": (
        0,
        "b6c83403a91667a3b2e32e4b6e260e7c428b397e229375b406290b47ada0e475",
    ),
    "verify-ep --class 4C --imax 3 --jmax 40": (
        0,
        "8942e95c422fea6feb1d00cd85114e8cbb437304fe15151750daa0d4b131717d",
    ),
    "verify-ep --class 2B --imax 40 --jmax 3": (
        0,
        "03cc4f83ff328ee0ee65ffafcc66dea141b2dec632cd4c37802e751b05791790",
    ),
}


@pytest.mark.parametrize("command", sorted(STRESS))
def test_stress_size_matches_recorded_output(command, capsys):
    code = main(command.split())
    stdout = capsys.readouterr().out.encode("utf-8")
    assert (code, workloads.digest(stdout)) == STRESS[command]
