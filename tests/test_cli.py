"""End-to-end command behavior: output format, exit codes, controls."""

from __future__ import annotations

import argparse
import importlib.abc
import importlib.util
import io
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moonshine import classes, cli, lattice, modular, recursion
from moonshine.cli import main
from moonshine.lattice import denominator_order

SEEDLESS = "class 1A order 1\nidentity 1A\n"
DATA = Path(__file__).resolve().parent / "data"

# 1A seeds and a 2B recipe, but no 2B seeds: every 2B index stays underived
UNSEEDED_2B = """\
class 1A order 1
class 2B order 2
identity 1A
eta 2B 1 1:24 2:-24
seed 1A 1 196884
seed 1A 2 21493760
seed 1A 3 864299970
seed 1A 5 333202640600
"""

# what ``power 2B 2 2B`` on the catalog breaks: the order law and two
# composition laws
BADPOWER_WARNINGS = [
    "warning: order(2B^2) = 2, expected 1",
    "warning: (2B^2)^2 = 2B but 2B^4 = 1A",
    "warning: (4C^2)^2 = 2B but 4C^4 = 1A",
]

# order-2 class carrying correct eta-quotient data except at index 4
CORRUPTED_SEED = """\
class 1A order 1
class 2X order 2
identity 1A
seed 2X 1 276
seed 2X 2 -2048
seed 2X 3 11202
seed 2X 4 -49151
seed 2X 5 184024
seed 2X 6 -614400
seed 2X 9 14478180
"""


@pytest.fixture()
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture()
def badpower_table(tmp_path, catalog_text):
    path = tmp_path / "badpower.mtf"
    path.write_text(catalog_text + "\npower 2B 2 2B\n")
    return str(path)


class TestJExpand:
    def test_values(self, run):
        code, out, _ = run("jexpand", "--order", "5")
        assert code == 0
        assert out.splitlines() == [
            "-1\t1",
            "0\t0",
            "1\t196884",
            "2\t21493760",
            "3\t864299970",
            "4\t20245856256",
            "5\t333202640600",
        ]

    def test_polar_term_only(self, run):
        code, out, _ = run("jexpand", "--order", "-1")
        assert code == 0
        assert out == "-1\t1\n"

    def test_bad_order(self, run):
        code, _, err = run("jexpand", "--order", "-5")
        assert code == 2
        assert err.startswith("error:")


class TestVerifyProduct:
    def test_pass(self, run):
        code, out, _ = run("verify-product", "--pmax", "3", "--qmax", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "command: verify-product --pmax 3 --qmax 3"
        assert lines[1] == "window: p 0..3, q -3..3"
        assert lines[-1] == "VERDICT: PASS"
        assert len(lines) == 3  # no mismatch lines

    def test_bad_window(self, run):
        code, _, err = run("verify-product", "--pmax", "0")
        assert code == 2
        assert "window bounds" in err


class TestVerifyEP:
    def test_default_table_classes(self, run):
        for name in ("1A", "2B", "3B", "4C"):
            code, out, _ = run(
                "verify-ep", "--class", name, "--imax", "4", "--jmax", "4"
            )
            assert code == 0, name
            assert out.splitlines()[-1] == "VERDICT: PASS"

    def test_unknown_class(self, run):
        code, _, err = run("verify-ep", "--class", "9Z")
        assert code == 2
        assert "unknown class" in err

    def test_corrupted_seed_fails_localized(self, run, tmp_path):
        path = tmp_path / "corrupted.mtf"
        path.write_text(CORRUPTED_SEED)
        code, out, _ = run(
            "verify-ep", "--table", str(path), "--class", "2X",
            "--imax", "3", "--jmax", "3",
        )
        assert code == 1
        assert out.splitlines() == [
            "command: verify-ep --class 2X --imax 3 --jmax 3",
            "window: p 1..3, q 1..3",
            "mismatch\t(2,2)\t49291\t49290",
            "mismatch\t(2,3)\t-614400\t-614399",
            "mismatch\t(3,2)\t-614400\t-614399",
            "VERDICT: FAIL",
        ]

    def test_missing_data_is_an_input_error(self, run, tmp_path):
        path = tmp_path / "short.mtf"
        path.write_text(SEEDLESS + "class 3X order 3\npower 3X 2 3X\nseed 3X 1 5\n")
        code, _, err = run(
            "verify-ep", "--table", str(path), "--class", "3X",
            "--imax", "3", "--jmax", "3",
        )
        assert code == 2
        assert "unknown coefficients" in err

    def test_unread_class_is_not_loaded(self, run, tmp_path, catalog_text):
        # verify-ep expands only its class's power tower, so a recipe with
        # leading coefficient 2 refuses only the commands that read it
        path = tmp_path / "badrecipe.mtf"
        path.write_text(catalog_text + "\nclass 2X order 2\neta 2X 2 1:24 2:-24\n")
        code, out, _ = run("verify-ep", "--table", str(path), "--class", "1A")
        assert code == 0
        assert out.splitlines()[-1] == "VERDICT: PASS"
        for argv in (("verify-ep", "--class", "2X"), ("compare",)):
            code, out, err = run(argv[0], "--table", str(path), *argv[1:])
            assert code == 2, argv
            assert "recipe for 2X is not Hauptmodul-shaped" in err
            assert "VERDICT" not in out

    @pytest.mark.parametrize(
        "klass, size, code",
        # 2B is read to q^(size//k)^2 at k = 1 for 2B and k = 2 for 4C
        [("2B", "2", 2), ("4C", "4", 2), ("4C", "3", 0)],
    )
    def test_seed_conflict_inside_the_read_order(
        self, run, tmp_path, catalog_text, klass, size, code
    ):
        path = tmp_path / "conflict.mtf"
        path.write_text(catalog_text + "\nseed 2B 4 -49151\n")
        got, out, err = run(
            "verify-ep", "--table", str(path), "--class", klass,
            "--imax", size, "--jmax", size,
        )
        assert got == code
        if code == 2:
            assert "seed 2B(4) = -49151 conflicts" in err
            assert "VERDICT" not in out
        else:
            assert out.splitlines()[-1] == "VERDICT: PASS"

    def test_expands_only_the_power_tower(self, run, monkeypatch, catalog_table):
        # 4C^2 = 2B, 4C^3 = 4C and 4C^4 = 1A, read to (8//k)^2 at the first
        # such k; 3B is not read
        calls = []
        names = {recipe: name for name, recipe in catalog_table.recipes.items()}
        j, expand = modular.normalized_j, modular.expand_recipe

        def record_j(order):
            calls.append(("1A", order))
            return j(order)

        def record_recipe(recipe, order):
            calls.append((names[recipe], order))
            return expand(recipe, order)

        monkeypatch.setattr(modular, "normalized_j", record_j)
        monkeypatch.setattr(modular, "expand_recipe", record_recipe)
        code, _, _ = run("verify-ep", "--class", "4C", "--imax", "8", "--jmax", "8")
        assert code == 0
        assert sorted(calls) == [("1A", 4), ("2B", 16), ("4C", 64)]


class TestDerive:
    def test_catalog_values(self, run):
        code, out, _ = run("derive", "--max", "12")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4 * 12
        assert "1A\t1\t196884" in lines
        assert "2B\t4\t-49152" in lines
        assert "4C\t7\t-641" in lines
        assert "4C\t12\t0" in lines

    def test_audit_single_class(self, run, tmp_path):
        path = tmp_path / "seedless.mtf"
        path.write_text(SEEDLESS)
        code, out, _ = run("derive", "--table", str(path), "--audit", "--max", "30")
        assert code == 0
        assert out == "unresolved: 1 2 3 5\n"

    def test_audit_catalog(self, run):
        code, out, _ = run("derive", "--audit", "--max", "12")
        assert code == 0
        assert out.splitlines() == [
            "unresolved 1A: 1 2 3 5",
            "unresolved 2B: 1 2 3 5",
            "unresolved 3B: 1 2 3 5",
            "unresolved 4C: 1 2 3 5",
        ]

    def test_underivable_seeds(self, run, tmp_path):
        path = tmp_path / "seedless.mtf"
        path.write_text(SEEDLESS)
        code, _, err = run("derive", "--table", str(path), "--max", "6")
        assert code == 2
        assert "underivable" in err

    def test_unreadable_table(self, run):
        code, _, err = run("derive", "--table", "/nonexistent/x.mtf")
        assert code == 2
        assert err.startswith("error: cannot read table file")

    def test_malformed_table(self, run, tmp_path):
        path = tmp_path / "broken.mtf"
        path.write_text("clazz 1A order 1\n")
        code, _, err = run("derive", "--table", str(path))
        assert code == 2
        assert "table line 1" in err


class TestEtaCoefficient:
    TABLE = "class 1A order 1\nclass 2B order 2\nidentity 1A\neta 2B {} 1:24 2:-24\n"

    # a zero denominator raised ZeroDivisionError, which escaped the parser
    # as an internal error (exit 3); it is a bad value like any other
    @pytest.mark.parametrize(
        "text, reason",
        [
            ("0x10", "Invalid literal for Fraction: '0x10'"),
            ("x", "Invalid literal for Fraction: 'x'"),
            ("1/0", "Fraction(1, 0)"),
        ],
    )
    @pytest.mark.parametrize("command", ["derive", "compare", "verify-ep", "derive --audit"])
    def test_bad_literal_is_an_input_error(self, run, tmp_path, text, reason, command):
        path = tmp_path / "bad.mtf"
        path.write_text(self.TABLE.format(text))
        code, out, err = run(*command.split(), "--table", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: table line 4: bad value ({reason})\n"


class TestCompare:
    def test_catalog_passes(self, run):
        code, out, _ = run("compare", "--max", "12")
        assert code == 0
        assert out.splitlines()[-1] == "VERDICT: PASS"

    def test_corrupted_power_map_contradicts(self, run, badpower_table):
        code, out, _ = run("compare", "--table", badpower_table, "--max", "12")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "command: compare --max 12"
        assert lines[1].startswith("contradiction: 2B(")
        assert "derived twice" in lines[1]
        assert lines[-1] == "VERDICT: FAIL"

    def test_listing_ends_with_total(self, run, tmp_path):
        path = tmp_path / "unseeded.mtf"
        path.write_text(UNSEEDED_2B)
        code, out, _ = run("compare", "--table", str(path), "--max", "30")
        assert code == 1
        lines = out.splitlines()
        assert [line.split("\t")[1] for line in lines[1:11]] == [
            f"2B({n})" for n in range(1, 11)
        ]
        assert lines[11:] == [
            "differences: 30",
            "first differing index: 2B(1)",
            "VERDICT: FAIL",
        ]

    def test_conflicting_seed_is_an_input_error(self, run, tmp_path, catalog_text):
        path = tmp_path / "conflict.mtf"
        path.write_text(catalog_text + "\nseed 2B 4 -49151\n")
        code, _, err = run("compare", "--table", str(path))
        assert code == 2
        assert "conflicts" in err


class TestPowerMapWarnings:
    @pytest.mark.parametrize(
        "argv",
        [
            ("derive", "--max", "12"),
            ("compare", "--max", "12"),
            ("verify-ep", "--class", "2B", "--imax", "4", "--jmax", "4"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_bad_power_map_warns_on_stderr(self, run, badpower_table, argv):
        code, out, err = run(argv[0], "--table", badpower_table, *argv[1:])
        assert code == 1
        assert err.splitlines() == BADPOWER_WARNINGS
        assert "warning" not in out
        assert out.splitlines()[-1] == "VERDICT: FAIL"

    def test_stdout_is_unchanged(self, run, badpower_table):
        _, out, _ = run("compare", "--table", badpower_table, "--max", "12")
        assert out == (
            "command: compare --max 12\n"
            "contradiction: 2B(7) derived twice with different values: "
            "-201706113 from relation (2,6) at class 2B vs 7963727 from "
            "relation (2,9) at class 2B\n"
            "VERDICT: FAIL\n"
        )

    def test_catalog_has_none(self, run):
        code, _, err = run("derive", "--max", "4")
        assert code == 0
        assert err == ""


class TestOrderFivePowerMap:
    """5B = eta(tau)^6/eta(5 tau)^6, where the relations read g^5."""

    def test_table_passes(self, run):
        table = str(DATA / "eta5.mtf")
        code, out, err = run("compare", "--table", table, "--max", "30")
        assert (code, out.splitlines()[-1], err) == (0, "VERDICT: PASS", "")
        code, out, _ = run("verify-ep", "--table", table, "--class", "5B")
        assert out.splitlines()[:2] == [
            "command: verify-ep --class 5B --imax 8 --jmax 8",
            "window: p 1..8, q 1..8",
        ]
        assert (code, out.splitlines()[-1]) == (0, "VERDICT: PASS")
        code, out, _ = run("derive", "--table", table, "--audit", "--max", "30")
        assert code == 0
        assert out.splitlines() == ["unresolved 1A: 1 2 3 5", "unresolved 5B: 1 2 3 5"]

    @pytest.mark.parametrize("command", ["derive", "compare"])
    def test_fifth_power_in_its_own_class_contradicts(self, run, command):
        table = str(DATA / "eta5_badpower.mtf")
        code, out, err = run(command, "--table", table, "--max", "30")
        assert code == 1
        assert (
            "contradiction: relation (5,5) at class 5B is violated: sides "
            "differ by -39375"
        ) in out.splitlines()
        assert out.splitlines()[-1] == "VERDICT: FAIL"
        assert "warning: order(5B^5) = 5, expected 1" in err.splitlines()
        assert all(line.startswith("warning: ") for line in err.splitlines())

    def test_fifth_power_in_its_own_class_fails_the_trace_identity(self, run):
        # k = 5 reads c_5B(mn/25) where c_1A belongs: the mismatches sit on
        # the cells divisible by (5,5), and the left side keeps its 1/5
        table = str(DATA / "eta5_badpower.mtf")
        code, out, _ = run(
            "verify-ep", "--table", table, "--class", "5B", "--imax", "10", "--jmax", "10"
        )
        assert code == 1
        assert out.splitlines() == [
            "command: verify-ep --class 5B --imax 10 --jmax 10",
            "window: p 1..10, q 1..10",
            "mismatch\t(5,5)\t-39366/5\t157509/5",
            "mismatch\t(5,10)\t-859748\t3439002",
            "mismatch\t(10,5)\t-859748\t3439002",
            "mismatch\t(10,10)\t-8098184979/10\t32393527521/10",
            "VERDICT: FAIL",
        ]


class TestOrderSevenAndThirteen:
    """7B = eta(tau)^4/eta(7 tau)^4 and 13B = eta(tau)^2/eta(13 tau)^2."""

    TABLE = str(DATA / "eta7_13.mtf")

    @pytest.mark.parametrize("klass", ["7B", "13B"])
    def test_trace_identity_passes(self, run, klass):
        code, out, err = run("verify-ep", "--table", self.TABLE, "--class", klass)
        assert out.splitlines()[:2] == [
            f"command: verify-ep --class {klass} --imax 8 --jmax 8",
            "window: p 1..8, q 1..8",
        ]
        assert (code, out.splitlines()[-1], err) == (0, "VERDICT: PASS", "")

    def test_derivation_matches_expansions(self, run):
        code, out, err = run("compare", "--table", self.TABLE, "--max", "30")
        assert out.splitlines() == ["command: compare --max 30", "VERDICT: PASS"]
        assert (code, err) == (0, "")

    def test_audit_pins_the_same_four_indices(self, run):
        code, out, _ = run("derive", "--table", self.TABLE, "--audit", "--max", "30")
        assert code == 0
        assert out.splitlines() == [
            "unresolved 1A: 1 2 3 5",
            "unresolved 7B: 1 2 3 5",
            "unresolved 13B: 1 2 3 5",
        ]

    def test_seed_off_by_one_fails(self, run, tmp_path):
        path = tmp_path / "eta7_13_badseed.mtf"
        text = (DATA / "eta7_13.mtf").read_text()
        path.write_text(text.replace("seed 7B 3 -5\n", "seed 7B 3 -4\n"))
        code, out, err = run("compare", "--table", str(path), "--max", "30")
        assert (code, out) == (2, "")
        assert err == "error: seed 7B(3) = -4 conflicts with expansion value -5\n"
        code, out, _ = run("derive", "--table", str(path), "--max", "30")
        assert code == 1
        assert out.splitlines()[-2].startswith("contradiction: 7B(7) derived twice")
        assert out.splitlines()[-1] == "VERDICT: FAIL"


class TestTwelveClasses:
    """The catalog, 5B and seven more Conway-Norton eta products (6E, 8E,
    9B, 10E, 12I, 16B, 25Z), and a copy with 6E^2 declared 2B."""

    TABLE = str(DATA / "eta12.mtf")

    def test_audit_pins_the_same_four_indices(self, run):
        code, out, _ = run("derive", "--table", self.TABLE, "--audit", "--max", "60")
        names = ["1A", "2B", "3B", "4C", "5B", "6E", "8E", "9B", "10E", "12I", "16B", "25Z"]
        assert code == 0
        assert out.splitlines() == [f"unresolved {name}: 1 2 3 5" for name in names]

    def test_derivation_matches_expansions(self, run):
        code, out, err = run("compare", "--table", self.TABLE, "--max", "60")
        assert out.splitlines() == ["command: compare --max 60", "VERDICT: PASS"]
        assert (code, err) == (0, "")

    def test_wrong_power_map_fails(self, run):
        table = str(DATA / "eta12_badpower.mtf")
        code, out, err = run("compare", "--table", table, "--max", "60")
        assert code == 1
        assert out.splitlines()[1].startswith("contradiction: 6E(7) derived twice")
        assert out.splitlines()[-1] == "VERDICT: FAIL"
        assert "warning: order(6E^2) = 2, expected 3" in err.splitlines()


class TestFirstPowerMap:
    @pytest.mark.parametrize(
        "argv",
        [
            ("derive", "--max", "12"),
            ("compare", "--max", "12"),
            ("verify-ep", "--class", "2B", "--imax", "4", "--jmax", "4"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_other_class_is_an_input_error(self, run, tmp_path, catalog_text, argv):
        path = tmp_path / "badfirstpower.mtf"
        path.write_text(catalog_text + "\npower 2B 1 1A\n")
        code, out, err = run(argv[0], "--table", str(path), *argv[1:])
        assert code == 2
        assert err.startswith("error:")
        assert "2B^1 -> 1A" in err
        assert "VERDICT" not in out


class TestWitt:
    def test_grid_and_oracle(self, run):
        code, out, _ = run("witt", "--mmax", "3", "--nmax", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "command: witt --mmax 3 --nmax 3"
        assert lines[1] == "free Lie algebra dimensions:"
        assert lines[2] == "196884\t21493760\t864299970"
        assert lines[5] == "expected root multiplicities:"
        assert lines[2:5] == lines[6:9]
        assert lines[-1] == "VERDICT: PASS"

    def test_bad_window(self, run):
        code, _, err = run("witt", "--mmax", "0")
        assert code == 2
        assert "window bounds" in err


class TestBMatrix:
    def test_displayed_truncation(self, run):
        code, out, _ = run("bmatrix", "--size", "2")
        assert code == 0
        assert out.splitlines() == [
            "command: bmatrix --size 2",
            "2\t0",
            "0\t-2",
            "symmetric: yes",
            "off-diagonal nonpositive: yes",
            "row integrality: yes",
            "VERDICT: PASS",
        ]

    def test_larger_block(self, run):
        code, out, _ = run("bmatrix", "--size", "4")
        assert code == 0
        assert out.splitlines()[-1] == "VERDICT: PASS"


class TestSimpleRoots:
    def test_listing(self, run):
        code, out, _ = run("simple-roots", "--nmax", "2")
        assert code == 0
        assert out.splitlines() == [
            "(1,-1)\t1",
            "(1,1)\t196884",
            "(1,2)\t21493760",
        ]

    def test_bad_nmax(self, run):
        code, _, err = run("simple-roots", "--nmax", "-2")
        assert code == 2
        assert err.startswith("error:")


# the series commands need q-expansions far past the limit, to order 10^7 or
# about 2.5 * 10^7; derive and compare would build relations to index 10^5
HOSTILE = [
    ("jexpand", "--order", "10000000"),
    ("simple-roots", "--nmax", "10000000"),
    ("verify-product", "--pmax", "5000", "--qmax", "5000"),
    ("verify-ep", "--imax", "5000", "--jmax", "5000"),
    ("witt", "--mmax", "5000", "--nmax", "5000"),
    ("derive", "--max", "100000"),
    ("derive", "--audit", "--max", "100000"),
    ("compare", "--max", "100000"),
    ("bmatrix", "--size", "10000000"),
]


def hostile_id(argv):
    return argv[0] + ("-audit" if "--audit" in argv else "")


def limit_of(argv):
    return cli.MAX_DERIVE_INDEX if argv[0] in ("derive", "compare") else cli.MAX_Q_ORDER


# a lone recipe whose negative leading exponent, q^-5000 or q^-20000, widens
# its expansion window past the limit whatever the window the command asks for
HOSTILE_RECIPES = ["1:-120000", "1:-480000"]


def hostile_table(tmp_path, factors):
    path = tmp_path / "hostile.mtf"
    path.write_text(
        f"class 1A order 1\nclass 2X order 2\nidentity 1A\npower 2X 2 1A\neta 2X 1 {factors}\n"
    )
    return str(path)


class TestSizeGuard:
    @pytest.mark.parametrize("argv", HOSTILE, ids=hostile_id)
    def test_refused_before_any_series_work(self, run, monkeypatch, argv):
        def fail(*args, **kwargs):
            raise AssertionError("series work started")

        for layer, callee in (
            (modular, "normalized_j"),
            (lattice, "denominator_identity_report"),
            (classes, "load_family"),
            (recursion, "solve_from_seeds"),
            (recursion, "determinacy_audit"),
        ):
            monkeypatch.setattr(layer, callee, fail)
        code, out, err = run(*argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.rstrip().endswith(f"above the limit {limit_of(argv)}")

    @pytest.mark.parametrize(
        "argv, size",
        [
            (("jexpand", "--order"), 12),
            (("simple-roots", "--nmax"), 12),
            (("verify-product", "--qmax", "1", "--pmax"), 6),  # J to q^(2 pmax)
            (("verify-ep", "--jmax", "1", "--imax"), 12),
            (("witt", "--nmax", "1", "--mmax"), 12),
            (("bmatrix", "--size"), 13),  # J to q^(size - 1)
        ],
        ids=lambda value: value[0] if isinstance(value, tuple) else str(value),
    )
    def test_limit_is_inclusive(self, run, monkeypatch, argv, size):
        monkeypatch.setattr(cli, "MAX_Q_ORDER", 12)
        assert run(*argv, str(size))[0] == 0
        code, _, err = run(*argv, str(size + 1))
        assert code == 2
        assert err.rstrip().endswith("above the limit 12")

    @pytest.mark.parametrize(
        "argv",
        [("derive", "--max"), ("derive", "--audit", "--max"), ("compare", "--max")],
        ids=hostile_id,
    )
    def test_derive_limit_is_inclusive(self, run, monkeypatch, argv):
        monkeypatch.setattr(cli, "MAX_DERIVE_INDEX", 6)
        assert run(*argv, "6")[0] == 0
        code, _, err = run(*argv, "7")
        assert code == 2
        assert err.rstrip().endswith("above the limit 6")

    @pytest.mark.parametrize("factors", HOSTILE_RECIPES)
    @pytest.mark.parametrize(
        "argv",
        [("verify-ep", "--class", "2X", "--imax", "2", "--jmax", "2"), ("compare", "--max", "3")],
        ids=hostile_id,
    )
    def test_recipe_window_refused_before_any_expansion(
        self, run, monkeypatch, tmp_path, argv, factors
    ):
        def fail(*args, **kwargs):
            raise AssertionError("series work started")

        for layer, callee in ((modular, "normalized_j"), (modular, "expand_recipe"),
                              (classes, "load_family")):
            monkeypatch.setattr(layer, callee, fail)
        code, out, err = run(*argv, "--table", hostile_table(tmp_path, factors))
        assert code == 2
        assert out == ""
        assert err.startswith("error: the recipe for 2X expands eta products to order ")
        assert err.rstrip().endswith(f"above the limit {cli.MAX_Q_ORDER + 1}")

    @pytest.mark.parametrize("name", ["catalog", "eta5.mtf", "eta7_13.mtf", "eta12.mtf"])
    def test_shipped_recipes_admitted_at_the_order_limit(self, monkeypatch, name):
        # verify-ep --class 2B --imax 2 --jmax 2500 expands 2B to the limit
        monkeypatch.setattr(classes, "load_family", lambda table, order: order)
        table = cli._load_table(None if name == "catalog" else str(DATA / name))
        assert cli._family(table, cli.MAX_Q_ORDER) == cli.MAX_Q_ORDER

    def test_recipe_window_limit_is_inclusive(self, run, monkeypatch, tmp_path):
        # a Hauptmodul starts at q^-1, so its eta products run one order
        # past the expansion, as j's do: 2B at the order limit is admitted.
        # A recipe starting at q^-2 passes the guard through q^11, to fail
        # the shape check, and is refused by it at q^12
        monkeypatch.setattr(cli, "MAX_Q_ORDER", 12)
        assert run("verify-ep", "--class", "2B", "--imax", "1", "--jmax", "12")[0] == 0
        argv = ["verify-ep", "--class", "2X", "--imax", "1", "--table", hostile_table(tmp_path, "1:-48")]
        code, _, err = run(*argv, "--jmax", "11")
        assert code == 2 and "not Hauptmodul-shaped" in err
        code, out, err = run(*argv, "--jmax", "12")
        assert code == 2 and out == ""
        assert err == "error: the recipe for 2X expands eta products to order 14, above the limit 13\n"

    @pytest.mark.parametrize("factors", HOSTILE_RECIPES)
    def test_fresh_process_refuses_a_hostile_recipe_within_a_second(self, tmp_path, factors):
        # unguarded, the first leaks an int/str-conversion error and the
        # second expands q^20004 eta products for many seconds (17.5 s on a
        # 2-core machine) before the shape check refuses it
        argv = ["verify-ep", "--class", "2X", "--imax", "2", "--jmax", "2"]
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "moonshine", *argv, "--table", hostile_table(tmp_path, factors)],
            capture_output=True,
            text=True,
            timeout=30,
        )
        elapsed = time.monotonic() - start
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: the recipe for 2X")
        assert elapsed < 1.0

    def test_limit_admits_the_documented_stress_sizes(self):
        # jexpand --order 2000 and 3000 (README), and 24x24 windows
        assert cli.MAX_Q_ORDER >= max(3000, denominator_order(24, 24), 24 * 24)

    def test_derive_limit_admits_the_documented_stress_sizes(self):
        # derive --max 200 and derive --audit --max 200 (ROADMAP); compare
        # expands to q^--max, so the order limit must cover it too
        assert 200 <= cli.MAX_DERIVE_INDEX <= cli.MAX_Q_ORDER

    def test_audit_at_200_runs_as_a_fresh_process(self):
        # the audit builds no relation, so the largest admitted --max takes
        # about a second; the timeout leaves room for a slow machine
        proc = subprocess.run(
            [sys.executable, "-m", "moonshine", "derive", "--audit", "--max", "200"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            f"unresolved {name}: 1 2 3 5" for name in ("1A", "2B", "3B", "4C")
        ]

    @pytest.mark.skipif(not hasattr(os, "wait4"), reason="no os.wait4")
    def test_derive_at_200_stays_small(self, tmp_path):
        # the solver builds no relation, so the largest admitted --max takes
        # about 1.6 s and under 20 MB (94 MB when it compiled the replication
        # rows, 743 MB when it compiled every relation).  A small launcher
        # runs the command and reports its peak: a child started from the
        # test runner itself would count the runner's pages in ru_maxrss.
        # The launcher's timer kills a regression instead of letting it hang.
        launcher = (
            "import os, subprocess, sys, threading\n"
            "with open(sys.argv[1], 'w') as out:\n"
            "    proc = subprocess.Popen(sys.argv[2:], stdout=out)\n"
            "    timer = threading.Timer(60, proc.kill)\n"
            "    timer.start()\n"
            "    _, status, usage = os.wait4(proc.pid, 0)\n"
            "    timer.cancel()\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
        )
        out = tmp_path / "out.txt"
        argv = [sys.executable, "-m", "moonshine", "derive", "--max", "200"]
        proc = subprocess.run(
            [sys.executable, "-c", launcher, str(out), *argv],
            capture_output=True,
            text=True,
            timeout=90,
        )
        code, maxrss = map(int, proc.stdout.split())
        assert code == 0, proc.stderr
        assert len(out.read_text().splitlines()) == 4 * 200
        peak_mb = maxrss / 1024  # KiB on Linux
        if sys.platform == "darwin":
            peak_mb /= 1024  # bytes on macOS
        assert peak_mb < 40

    @pytest.mark.parametrize(
        "argv", [HOSTILE[0], HOSTILE[2], *HOSTILE[5:]], ids=hostile_id
    )
    def test_fresh_process_exits_2_within_a_second(self, argv):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "moonshine", *argv],
            capture_output=True,
            text=True,
            timeout=30,
        )
        elapsed = time.monotonic() - start
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert elapsed < 1.0


class TestDeterminism:
    def test_identical_bytes_across_runs(self, run):
        first = run("verify-ep", "--class", "4C", "--imax", "4", "--jmax", "4")
        second = run("verify-ep", "--class", "4C", "--imax", "4", "--jmax", "4")
        assert first == second

    def test_derive_stable(self, run):
        assert run("derive", "--max", "8") == run("derive", "--max", "8")


class TestInternalErrors:
    @pytest.mark.parametrize(
        "callee, argv",
        [
            ("normalized_j", ("witt", "--mmax", "2", "--nmax", "2")),
            ("solve_from_seeds", ("compare", "--max", "4")),
        ],
    )
    def test_fault_exits_3_without_verdict(self, run, monkeypatch, callee, argv):
        def fail(*args, **kwargs):
            raise RuntimeError("injected fault")

        layer = {"normalized_j": modular, "solve_from_seeds": recursion}[callee]
        monkeypatch.setattr(layer, callee, fail)
        code, out, err = run(*argv)
        assert code == 3
        assert "VERDICT" not in out
        assert err.startswith("internal error: injected fault\n")
        assert "Traceback" in err

    @pytest.mark.parametrize(
        "layer, argv",
        [
            ("modular", ("jexpand", "--order", "3")),
            ("lattice", ("verify-product", "--pmax", "2", "--qmax", "2")),
            ("classes", ("verify-ep", "--imax", "2", "--jmax", "2")),
            ("recursion", ("derive", "--max", "5")),
        ],
    )
    def test_layer_failing_at_first_use_exits_3(self, run, monkeypatch, layer, argv):
        # a layer runs its source at its first attribute read, inside main's
        # try: a fault there (a syntax error, a failed import) is internal
        class BrokenLoader(importlib.abc.Loader):
            def exec_module(self, module):
                raise RuntimeError("injected fault at first use")

        lazy = importlib.util.LazyLoader(BrokenLoader())
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_loader(f"moonshine.{layer}", lazy)
        )
        lazy.exec_module(module)
        monkeypatch.setitem(vars(cli), layer, module)  # setattr would read it
        code, out, err = run(*argv)
        assert code == 3
        assert "VERDICT" not in out
        assert err.startswith("internal error: injected fault at first use\n")
        assert "Traceback" in err


class TestProcessLevel:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "moonshine", "bmatrix", "--size", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "VERDICT: PASS" in proc.stdout

    def test_import_leaves_dataclasses_unloaded(self):
        # the records are NamedTuples: importing dataclasses (with inspect)
        # and generating record methods added ~25 ms to every command
        probe = (
            "import sys\n"
            "print('dataclasses' in sys.modules)\n"
            "import moonshine.cli\n"
            "print('dataclasses' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        before, after = proc.stdout.split()
        if before == "True":
            pytest.skip("the interpreter loads dataclasses at start-up")
        assert after == "False"

    def test_unknown_subcommand_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "moonshine", "frobnicate"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
    def test_closed_stdout_ends_quietly(self):
        # jexpand to 1200 prints about 150 kB, more than a pipe holds, so
        # the command is still writing when its reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "moonshine", "jexpand", "--order", "1200"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait(timeout=60)
        assert head == b"-1\t1\n0\t0\n1"
        assert err == b""
        assert code == -signal.SIGPIPE


# ---------------------------------------------------------------------------
# the command line: the flag table against the argparse parser it replaced


def argparse_oracle() -> argparse.ArgumentParser:
    """The argparse parser the flag table replaced, kept as its oracle."""
    parser = argparse.ArgumentParser(
        prog="moonshine",
        description="Exact verification of the modular-invariant identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jexpand", help="print coefficients of the invariant")
    p.add_argument("--order", type=int, default=8)
    p.set_defaults(func=cli._cmd_jexpand)

    p = sub.add_parser("verify-product", help="check the product formula")
    p.add_argument("--pmax", type=int, default=8)
    p.add_argument("--qmax", type=int, default=8)
    p.set_defaults(func=cli._cmd_verify_product)

    p = sub.add_parser("verify-ep", help="check the trace identity per class")
    p.add_argument("--table", default=None)
    p.add_argument("--class", dest="klass", default="1A")
    p.add_argument("--imax", type=int, default=8)
    p.add_argument("--jmax", type=int, default=8)
    p.set_defaults(func=cli._cmd_verify_ep)

    p = sub.add_parser("derive", help="derive coefficients from seeds")
    p.add_argument("--table", default=None)
    p.add_argument("--max", type=int, default=30)
    p.add_argument("--audit", action="store_true")
    p.set_defaults(func=cli._cmd_derive)

    p = sub.add_parser("compare", help="derived values vs recipe expansions")
    p.add_argument("--table", default=None)
    p.add_argument("--max", type=int, default=30)
    p.set_defaults(func=cli._cmd_compare)

    p = sub.add_parser("witt", help="free Lie algebra dimension grid")
    p.add_argument("--mmax", type=int, default=5)
    p.add_argument("--nmax", type=int, default=5)
    p.set_defaults(func=cli._cmd_witt)

    p = sub.add_parser("bmatrix", help="simple-root Gram matrix block truncation")
    p.add_argument("--size", type=int, default=2)
    p.set_defaults(func=cli._cmd_bmatrix)

    p = sub.add_parser("simple-roots", help="simple roots with multiplicities")
    p.add_argument("--nmax", type=int, default=2)
    p.set_defaults(func=cli._cmd_simple_roots)

    return parser


ORACLE = argparse_oracle()
REFUSED = 2


def oracle_parse(argv):
    """(handler, fields) as the argparse parser reads ``argv``, or its exit
    code when it refuses."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            fields = vars(ORACLE.parse_args(argv))
        except SystemExit as stop:
            return stop.code
    del fields["command"]
    return fields.pop("func"), fields


def table_parse(argv):
    """(handler, fields) as the flag table reads ``argv``, or 2 when it
    refuses."""
    try:
        handler, args = cli._parse(argv)
    except cli.CommandError:
        return REFUSED
    return handler, vars(args)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


FLAGS = {command: flags for command, (_, _, flags) in cli._COMMANDS.items()}
STRINGS = ["2B", "t.mtf", "-5", "", " x", "@1A"]
# unique prefixes argparse accepts for a flag; none is a prefix of --help
ABBREVIATIONS = ("--ord", "--pm", "--cl", "--ta", "--ma", "--au", "--mm", "--si")


@st.composite
def accepted_argv(draw):
    """A command and up to six of its flags, in any order, repeats allowed,
    each with a value it takes, as one word or two."""
    command = draw(st.sampled_from(list(FLAGS)))
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(list(FLAGS[command])), max_size=6)):
        default = FLAGS[command][flag]
        if default is False:
            argv.append(f"--{flag}")
            continue
        if type(default) is int:
            value = str(draw(st.integers(-10**6, 10**6)))
        else:
            value = draw(st.sampled_from(STRINGS))
        argv += [f"--{flag}={value}"] if draw(st.booleans()) else [f"--{flag}", value]
    return argv


# words of every kind: commands, flags of every command in both forms, good
# and bad values, abbreviations, strays; no -h, --help or --, whose readings
# are not compared here
WORDS = (
    list(FLAGS)
    + [f"--{flag}" for flags in FLAGS.values() for flag in flags]
    + ["--order=3", "--order=-2", "--order=", "--order=x", "--max=9", "--class=3B",
       "--class=", "--table=t.mtf", "--audit=1", "--ord=4", "--bogus", "-o", "-x",
       "0", "7", "-3", "+4", " 5", "1_0", "x", "1.5", "2B", "", "extra"]
    + list(ABBREVIATIONS)
)


class TestParse:
    def test_reference_commands_read_alike(self):
        # every command of the benchmark, with its table placeholders
        keys = json.loads((DATA.parents[1] / "perfbench" / "reference.json").read_text())
        assert len(keys) == 222
        for key in keys:
            got = table_parse(key.split())
            assert got != REFUSED and got == oracle_parse(key.split()), key

    @given(argv=accepted_argv())
    @settings(max_examples=400, deadline=None)
    def test_flags_read_alike(self, argv):
        # any order, repeated flags (the last wins), negative integers and
        # the --flag=VALUE form
        got = table_parse(argv)
        assert got != REFUSED and got == oracle_parse(argv)

    @given(
        first=st.sampled_from(list(FLAGS) + WORDS),
        rest=st.lists(st.sampled_from(WORDS), max_size=5),
    )
    @settings(max_examples=600, deadline=None)
    def test_refuses_whatever_argparse_refuses(self, first, rest):
        argv = [first, *rest]
        want, got = oracle_parse(argv), table_parse(argv)
        if want == REFUSED:
            assert got == REFUSED
            code, out, err = run_main(argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1
        elif any(word.partition("=")[0] in ABBREVIATIONS for word in rest):
            assert got == REFUSED  # argparse reads a unique prefix; the table does not
        else:
            assert got == want

    @pytest.mark.parametrize(
        "argv", [["-h"], ["--help"], ["jexpand", "-h"], ["derive", "--max", "5", "--help"]]
    )
    def test_help_names_every_command(self, run, argv):
        code, out, err = run(*argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: moonshine COMMAND [--flag VALUE | --flag=VALUE | --switch]")
        for command, flags in FLAGS.items():
            assert f"\n  {command} " in out
            for flag in flags:
                assert f"[--{flag}" in out
        assert "[--order 8]" in out and "[--audit]" in out and "[--table TABLE]" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "no command given; the commands are " + ", ".join(FLAGS)),
            (["frobnicate"], "unknown command 'frobnicate'; the commands are " + ", ".join(FLAGS)),
            (["jexpand", "--bogus", "3"], "jexpand has no flag '--bogus'"),
            (["jexpand", "3"], "jexpand has no flag '3'"),
            (["jexpand", "--order"], "--order needs a value"),
            (["derive", "--max", "--audit"], "--max needs a value"),
            (["verify-ep", "--class", "-x"], "--class needs a value"),
            (["jexpand", "--order", "x"], "--order needs an integer, not 'x'"),
            (["jexpand", "--order=1.5"], "--order needs an integer, not '1.5'"),
            (["derive", "--audit=yes"], "--audit takes no value"),
            (["jexpand", "--ord", "3"], "jexpand has no flag '--ord'"),
            (["derive", "--ma=5"], "derive has no flag '--ma'"),
        ],
    )
    def test_usage_error_is_one_line(self, run, argv, message):
        assert run(*argv) == (2, "", f"error: {message}\n")

    def test_abbreviation_is_refused_where_argparse_took_it(self):
        assert oracle_parse(["jexpand", "--ord", "3"]) == (
            cli._cmd_jexpand, {"order": 3}
        )
        assert table_parse(["jexpand", "--ord", "3"]) == REFUSED

    def test_negative_value_and_last_flag_win(self, run):
        code, out, _ = run("jexpand", "--order", "3", "--order", "-1")
        assert (code, out) == (0, "-1\t1\n")
        assert table_parse(["verify-ep", "--class", "2B", "--class=-5"]) == (
            cli._cmd_verify_ep, {"table": None, "klass": "-5", "imax": 8, "jmax": 8}
        )

    def test_main_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["moonshine", "jexpand", "--order", "0"])
        assert main() == 0
        assert capsys.readouterr().out == "-1\t1\n0\t0\n"
