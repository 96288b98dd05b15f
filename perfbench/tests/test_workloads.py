"""The seeded generator, its size caps, the reference and the output check."""

from __future__ import annotations

import json
from importlib import resources

import pytest

import run
import workloads
from moonshine.classes import parse_table_text

SEEDS = range(40)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    for seed in SEEDS:
        assert workloads.generate(name, seed) == workloads.generate(name, seed)
    passes = {tuple(workloads.generate(name, seed)) for seed in SEEDS}
    assert len(passes) == len(SEEDS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_draw_is_in_the_domain_and_under_the_cap(name):
    domain = {c.key for c in workloads.domain(name)}
    for seed in SEEDS:
        commands = workloads.generate(name, seed)
        assert len(commands) == len(workloads.WORKLOADS[name])
        for command in commands:
            assert command.key in domain
    for slot in workloads.WORKLOADS[name]:
        slot.check_cap()


@pytest.mark.parametrize(
    "slot",
    [
        workloads.Slot("audit", 30, tables=workloads.FOUR),
        workloads.Slot("audit", 60, tables=workloads.ONE),
        workloads.Slot("derive", 80, tables=workloads.ONE),
        workloads.Slot("jexpand", 1990),
        workloads.Slot("verify-product", 24),
    ],
)
def test_sizes_above_the_cap_are_refused(slot):
    with pytest.raises(ValueError, match="exceeds the cap"):
        slot.check_cap()


def test_reference_covers_the_domain_with_expected_exits():
    reference = workloads.load_reference()
    for name in workloads.WORKLOADS:
        for command in workloads.domain(name):
            assert reference[command.key][0] == command.expect_exit, command.key


def test_each_derive_pass_has_one_failing_control():
    for seed in SEEDS:
        exits = [c.expect_exit for c in workloads.generate("derive", seed)]
        assert exits.count(1) == 1


def test_restated_catalog_matches_the_packaged_one():
    packaged = resources.files("moonshine").joinpath("data/catalog.mtf").read_text()
    restated = workloads.table_text(workloads.FOUR[0])
    assert parse_table_text(restated) == parse_table_text(packaged)


def test_written_tables_cover_every_command(tmp_path):
    for name in workloads.WORKLOADS:
        workloads.write_tables(name, tmp_path)
        for command in workloads.domain(name):
            for arg in command.argv_for(tmp_path):
                if arg.endswith(".mtf"):
                    parse_table_text(open(arg).read())


def test_output_check():
    command = workloads.Command(("verify-product", "--pmax", "2", "--qmax", "2"))
    good = b"command: x\nVERDICT: PASS\n"
    reference = {command.key: (0, workloads.digest(good))}
    assert workloads.check_output(command, 0, good, reference) is None
    assert "exit 1" in workloads.check_output(command, 1, good, reference)
    assert "VERDICT" in workloads.check_output(command, 0, b"command: x\n", reference)
    changed = b"command: y\nVERDICT: PASS\n"
    assert "reference" in workloads.check_output(command, 0, changed, reference)
    assert "no reference" in workloads.check_output(command, 0, good, {})
    control = workloads.Command(("derive", "--table", "@t", "--max", "9"), 1)
    failing = b"contradiction: x\nVERDICT: FAIL\n"
    reference = {control.key: (1, workloads.digest(failing))}
    assert workloads.check_output(control, 1, failing, reference) is None
    assert "exit 0" in workloads.check_output(control, 0, failing, reference)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
