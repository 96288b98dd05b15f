"""What a command runs at start-up: only the layers it uses.

The package registers its layer modules as lazy modules that run their
source at the first attribute read.  Each probe here starts a fresh
interpreter, so that no other test has run a layer already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
LAYERS = ("series", "modular", "classes", "recursion", "relations", "lattice", "cli")

SERIES = {"cli", "modular", "series"}
LATTICE = SERIES | {"lattice"}
CLASSES = SERIES | {"classes"}
RECURSION = CLASSES | {"recursion"}
# a table's eta recipes are records in classes: parsing expands none
SOLVE = {"cli", "classes", "recursion"}

# run the command, then list the moonshine modules whose source has run: an
# unrun lazy module is an instance of a ModuleType subclass
RAN_LAYERS = (
    "import contextlib, io, sys, types\n"
    "from moonshine import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.main(sys.argv[1:])\n"
    "print(code, *sorted(\n"
    "    name.split('.', 1)[1] for name, module in sys.modules.items()\n"
    "    if name.startswith('moonshine.') and type(module) is types.ModuleType\n"
    "))\n"
)


def probe(code: str, *argv: str, flags: tuple[str, ...] = ()) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


COMMANDS = {
    "jexpand --order 3": SERIES,
    "simple-roots --nmax 3": LATTICE,
    "verify-product --pmax 3 --qmax 3": LATTICE,
    "witt --mmax 3 --nmax 3": LATTICE,
    "bmatrix --size 2": LATTICE,
    "verify-ep --imax 3 --jmax 3": CLASSES,
    "derive --max 5": SOLVE,
    "compare --max 5": RECURSION,
    "derive --audit --max 5": SOLVE,
}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_runs_only_its_layers(command):
    code, *ran = probe(RAN_LAYERS, *command.split())[-1].split()
    assert code == "0"
    assert set(ran) == COMMANDS[command]


def test_contradiction_is_printed(tmp_path):
    # the text of a contradiction is printed by str: derive reads no series
    catalog = (Path(SRC) / "moonshine" / "data" / "catalog.mtf").read_text()
    corrupted = catalog.replace("seed 1A 2 21493760", "seed 1A 2 21493761")
    assert corrupted != catalog
    path = tmp_path / "corrupted.mtf"
    path.write_text(corrupted)
    # RAN_LAYERS, with the command's stdout left on stdout
    shown = RAN_LAYERS.replace("redirect_stdout(io.StringIO())", "redirect_stdout(sys.stdout)")
    *out, last = probe(shown, "derive", "--table", str(path), "--max", "30")
    code, *ran = last.split()
    assert (code, out[-1]) == ("1", "VERDICT: FAIL")
    assert out[0].startswith("contradiction: ")
    assert set(ran) == SOLVE


def test_import_registers_every_layer():
    # a tracer wraps the public callables of the layers right after
    # importing the cli: every layer, relations too, which no command runs,
    # must be in sys.modules by then, and every name in its __all__ must
    # resolve
    code = (
        "import sys\n"
        "import moonshine.cli\n"
        f"for layer in {LAYERS!r}:\n"
        "    module = sys.modules[f'moonshine.{layer}']\n"
        "    missing = [n for n in module.__all__ if not hasattr(module, n)]\n"
        "    print(layer, len(module.__all__), *missing)\n"
    )
    lines = probe(code)
    assert [line.split()[0] for line in lines] == list(LAYERS)
    for line in lines:
        layer, exported, *missing = line.split()
        assert int(exported) > 0 and not missing, line


# modules no command needs: the command line is read without argparse (and
# the gettext and locale it imports), the packaged catalog without
# importlib.resources or pathlib, which cost 12-16 ms without site, and
# SIGPIPE is reset through _signal, without signal's enum conversions
UNNEEDED = ("argparse", "gettext", "locale", "importlib.resources", "pathlib", "signal")

UNNEEDED_LOADED = (
    "import contextlib, io, sys\n"
    f"unneeded = {UNNEEDED!r}\n"
    "before = [name for name in unneeded if name in sys.modules]\n"
    "from moonshine import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.main(sys.argv[1:])\n"
    "after = [name for name in unneeded if name in sys.modules]\n"
    "import json\n"
    "print(json.dumps([code, before, after]))\n"
)


@pytest.mark.parametrize("command", COMMANDS)
def test_command_imports_no_parser_or_resources(command):
    # without site (-S) the interpreter itself imports none of them
    code, before, after = json.loads(
        probe(UNNEEDED_LOADED, *command.split(), flags=("-S",))[-1]
    )
    if before:
        pytest.skip(f"the interpreter loads {before} at start-up")
    assert (code, after) == (0, [])


# the solve path makes a Fraction only on the branches that need one, and
# reads a table's eta recipes as records in classes, without modular
SOLVE_UNNEEDED = ("fractions", "decimal", "numbers")

SOLVE_LOADED = (
    "import contextlib, io, os, sys, types\n"
    f"unneeded = {SOLVE_UNNEEDED!r}\n"
    "before = [name for name in unneeded if name in sys.modules]\n"
    "import moonshine\n"
    "from moonshine import classes, cli\n"
    "if sys.argv[1:] == ['parse']:\n"
    "    catalog = os.path.join(os.path.dirname(moonshine.__file__), 'data', 'catalog.mtf')\n"
    "    with open(catalog, encoding='utf-8') as handle:\n"
    "        classes.parse_table_text(handle.read())\n"
    "    code = 0\n"
    "else:\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        code = cli.main(sys.argv[1:])\n"
    "after = [name for name in unneeded if name in sys.modules]\n"
    "# registered from the start, so read whether its source ran\n"
    "if type(sys.modules['moonshine.modular']) is types.ModuleType:\n"
    "    after.append('moonshine.modular')\n"
    "import json\n"
    "print(json.dumps([code, before, after]))\n"
)


@pytest.mark.parametrize("command", ["derive --max 5", "derive --audit --max 5", "parse"])
def test_solve_path_loads_no_fractions_or_modular(command):
    code, before, after = json.loads(
        probe(SOLVE_LOADED, *command.split(), flags=("-S",))[-1]
    )
    if before:
        pytest.skip(f"the interpreter loads {before} at start-up")
    assert (code, after) == (0, [])


# the series commands make no Fraction: ``series`` looks the fractions module
# up only to recognise one, and imports the C decimal module (which imports
# numbers) only for a product of at least 30,000 digits, which a window of
# jexpand 1200 or witt 18x18 makes and the smaller ones here do not
NO_FRACTIONS = ("fractions", "decimal")
NO_DECIMAL = NO_FRACTIONS + ("_decimal", "numbers")

SERIES_LOADED = (
    "import contextlib, io, sys\n"
    "unneeded = sys.argv.pop(1).split(',')\n"
    "before = [name for name in unneeded if name in sys.modules]\n"
    "from moonshine import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.main(sys.argv[1:])\n"
    "after = [name for name in unneeded if name in sys.modules]\n"
    "import json\n"
    "print(json.dumps([code, before, after]))\n"
)


SERIES_COMMANDS = {
    "jexpand --order 1200": NO_FRACTIONS,
    "witt --mmax 18 --nmax 18": NO_FRACTIONS,
    "jexpand --order 200": NO_DECIMAL,
    "simple-roots --nmax 20": NO_DECIMAL,
    "verify-product --pmax 14 --qmax 14": NO_DECIMAL,
    "witt --mmax 12 --nmax 12": NO_DECIMAL,
    "bmatrix --size 20": NO_DECIMAL,
}


@pytest.mark.parametrize("command", SERIES_COMMANDS)
def test_series_commands_load_no_fractions_or_decimal(command):
    unneeded = ",".join(SERIES_COMMANDS[command])
    code, before, after = json.loads(
        probe(SERIES_LOADED, unneeded, *command.split(), flags=("-S",))[-1]
    )
    if before:
        pytest.skip(f"the interpreter loads {before} at start-up")
    assert (code, after) == (0, [])
