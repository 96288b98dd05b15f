"""The traced bootstrap changes neither stdout nor exit codes."""

from __future__ import annotations

import json
import sys

import pytest

import run
import tracing
import workloads

CATALOG = workloads.FOUR[0]
BAD = ("2B", 3)


# "@NAME" stands for the table file NAME.mtf; "missing" is never written.
COMMANDS = {
    "jexpand": (["jexpand", "--order", "40"], 0),
    "simple-roots": (["simple-roots", "--nmax", "12"], 0),
    "verify-product": (["verify-product", "--pmax", "5", "--qmax", "6"], 0),
    "verify-ep": (["verify-ep", "--class", "4C", "--imax", "5", "--jmax", "5"], 0),
    "witt": (["witt", "--mmax", "4", "--nmax", "5"], 0),
    "derive": (["derive", "--table", "@good", "--max", "12"], 0),
    "compare": (["compare", "--table", "@good", "--max", "10"], 0),
    "audit": (["derive", "--audit", "--table", "@good", "--max", "8"], 0),
    "contradiction": (["derive", "--table", "@bad", "--max", "20"], 1),
    "input-error": (["derive", "--table", "@missing"], 2),
    "usage-error": (["jexpand", "--order", "x"], 2),
}


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("transparency")
    (tmp_path / "good.mtf").write_text(workloads.table_text(CATALOG))
    (tmp_path / "bad.mtf").write_text(workloads.table_text(CATALOG, BAD))
    env = run.child_env()
    out = {}
    for label, (template, expected) in COMMANDS.items():
        argv = workloads.Command(tuple(template)).argv_for(tmp_path)
        plain = run.execute([sys.executable, "-m", "moonshine", *argv], env)
        spans_file = tmp_path / f"{label}.json"
        traced = run.execute(
            [sys.executable, str(run.HERE / "traced_cli.py"), str(spans_file), label, "--", *argv],
            env,
        )
        dump = json.loads(spans_file.read_text())
        out[label] = (expected, plain, traced, dump)
    return out


@pytest.mark.parametrize("label", list(COMMANDS))
def test_traced_stdout_and_exit_match_byte_for_byte(outcomes, label):
    expected, plain, traced, dump = outcomes[label]
    assert plain.code == expected
    assert traced.code == plain.code
    assert traced.stdout == plain.stdout
    assert traced.stderr == plain.stderr
    assert dump["command"] == label


def test_contradiction_passes_through_the_wrapped_solver(outcomes):
    _, plain, _, dump = outcomes["contradiction"]
    assert plain.stdout.decode().startswith("contradiction: ")
    assert plain.stdout.decode().endswith("VERDICT: FAIL\n")
    names = [s[0] for s in dump["spans"]]
    assert "recursion.solve_from_seeds" in names
    assert names[0] == "cli.main"
    assert all(s[3] >= s[2] for s in dump["spans"])


def test_layers_are_attributed_where_the_work_is(outcomes):
    jexpand = tracing.summarize(outcomes["jexpand"][3])
    assert jexpand["modular.j_series.calls"] == 1
    assert jexpand["series.uni_mul.calls"] > 0
    assert jexpand["series.max_coeff_bits"] > 0
    assert jexpand["recursion.self_s"] == 0
    derive = tracing.summarize(outcomes["derive"][3])
    assert derive["recursion.solve.passes"] > 0
    assert derive["recursion.coefficient_relation.misses"] > 0
    assert derive["recursion.coefficient_relation.hits"] > 0
    assert derive["series.self_s"] == 0
    audit = tracing.summarize(outcomes["audit"][3])
    assert audit["recursion.audit.symbols"] == 16
    product = tracing.summarize(outcomes["verify-product"][3])
    assert product["series.bi_mul.calls"] > 0
    assert product["lattice.denominator_identity_report.s"] > 0
