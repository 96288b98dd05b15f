"""Seeded workload generator and output check for the CLI benchmark.

A workload is a fixed list of slots.  Each slot names one CLI command and a
base size; the seed picks, per slot, one of a few nearby sizes (and, where
the slot allows it, which class table the command reads), then shuffles the
order of the commands.  Keeping every draw close to its slot's base size
keeps the total work of a pass nearly the same from seed to seed, so
different seeds give different inputs but comparable timings.

The program only ever sees argv and table files: tables are written by
:func:`write_tables` into a directory the caller owns, and a command refers
to its table by name (``@NAME``) until :meth:`Command.argv_for` swaps in
the path.

Every command the generator can produce is listed by :func:`domain`, and
``reference.json`` holds the exit code and SHA-256 of the stdout that each
one produced when the reference was recorded (see ``record_reference.py``).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# The packaged catalog, restated here so that the benchmark's inputs do not
# change when the program's own data file does.
CATALOG = {
    "1A": {
        "order": 1,
        "power": (),
        "eta": (),
        "seeds": {1: 196884, 2: 21493760, 3: 864299970, 5: 333202640600},
    },
    "2B": {
        "order": 2,
        "power": (),
        "eta": ("1 1:24 2:-24",),
        "seeds": {1: 276, 2: -2048, 3: 11202, 5: 184024},
    },
    "3B": {
        "order": 3,
        "power": ((2, "3B"),),
        "eta": ("1 1:12 3:-12",),
        "seeds": {1: 54, 2: -76, 3: -243, 5: -1384},
    },
    "4C": {
        "order": 4,
        "power": ((2, "2B"), (3, "4C")),
        "eta": ("1 1:8 4:-8",),
        "seeds": {1: 20, 2: 0, 3: -62, 5: 216},
    },
}
SEED_INDICES = (1, 2, 3, 5)

# Subsets of the catalog closed under the power map, by class count.
ONE = (("1A",),)
TWO = (("1A", "2B"), ("1A", "3B"))
THREE = (("1A", "2B", "3B"), ("1A", "2B", "4C"))
FOUR = (("1A", "2B", "3B", "4C"),)

# Largest size the generator may emit, per command and (for table commands)
# per class count.  Calibrated on a 2-core machine with Python 3.11.7, one
# fresh process per command: jexpand --order 2000 4.4 s; verify-product
# 24x24 2.0 s; derive on 1A --max 80 7.0 s and on the catalog --max 60
# 6.9 s; derive --audit on 1A --max 28 2.7 s and on the catalog --max 20
# 4.0 s.  The catalog audit ran 37.6 s at --max 30 and did not finish in
# 587 s at --max 60, so the audit caps stay well below 30.
SIZE_CAPS = {
    "jexpand": 2000,
    "simple-roots": 2000,
    "verify-product": 24,
    "verify-ep": 24,
    "witt": 24,
    "derive": {1: 80, 2: 60, 3: 60, 4: 60},
    "compare": {1: 80, 2: 60, 3: 60, 4: 60},
    "audit": {1: 30, 2: 20, 3: 20, 4: 20},
}

# Commands whose stdout must end in a verdict line.
VERDICT_COMMANDS = {"verify-product", "verify-ep", "witt", "compare"}


def table_name(classes: tuple[str, ...], corrupt: tuple[str, int] | None = None) -> str:
    name = "-".join(classes)
    if corrupt is not None:
        name += f".bad-{corrupt[0]}-{corrupt[1]}"
    return name


def table_text(classes: tuple[str, ...], corrupt: tuple[str, int] | None = None) -> str:
    """Class table for a catalog subset; ``corrupt`` adds 1 to one seed."""
    lines = [f"class {g} order {CATALOG[g]['order']}" for g in classes]
    lines.append("identity 1A")
    for g in classes:
        lines += [f"power {g} {k} {h}" for k, h in CATALOG[g]["power"]]
    for g in classes:
        lines += [f"eta {g} {mono}" for mono in CATALOG[g]["eta"]]
    for g in classes:
        for n, value in CATALOG[g]["seeds"].items():
            if corrupt == (g, n):
                value += 1
            lines.append(f"seed {g} {n} {value}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Command:
    """One CLI invocation: argv (tables as ``@NAME``) and its expected exit."""

    argv: tuple[str, ...]
    expect_exit: int = 0

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def name(self) -> str:
        return "audit" if "--audit" in self.argv else self.argv[0]

    def argv_for(self, table_dir: Path) -> list[str]:
        return [
            str(table_dir / f"{arg[1:]}.mtf") if arg.startswith("@") else arg
            for arg in self.argv
        ]


@dataclass(frozen=True)
class Slot:
    """One command of a pass, with the sizes and tables the seed picks from.

    ``size`` is an order (``jexpand``, ``simple-roots``), a square window
    side (``verify-product``, ``verify-ep``, ``witt``) or a ``--max``
    (``derive``, ``compare``, ``audit``).  ``corrupt`` turns the slot into
    the negative control: one catalog seed is off by one, and the command
    must end in ``VERDICT: FAIL`` with exit 1.  A slot with ``jitter`` off
    always uses its base size: one step of ``--max`` changes the work by
    5-20%, too much for the slots that set a percentile or most of a pass.
    """

    command: str
    size: int
    tables: tuple[tuple[str, ...], ...] = ()
    klass: str = ""
    corrupt: bool = False
    jitter: bool = True

    def _sizes(self) -> list[int] | list[tuple[int, int]]:
        if not self.jitter:
            return [self.size]
        if self.command in ("jexpand", "simple-roots"):
            return sorted({round(self.size * (100 + k) / 100) for k in range(-2, 3)})
        if self.command in ("verify-product", "verify-ep", "witt"):
            # same area, different aspect: the work stays level
            w = max(1, self.size // 10)
            return [(self.size + d, self.size - d) for d in range(-w, w + 1)]
        return [self.size - 1, self.size, self.size + 1]

    def _corruptions(self, classes: tuple[str, ...]) -> list[tuple[str, int] | None]:
        if not self.corrupt:
            return [None]
        return [(g, n) for g in classes for n in SEED_INDICES]

    def _command(self, size, classes=None, corrupt=None) -> Command:
        c = self.command
        if c == "jexpand":
            return Command(("jexpand", "--order", str(size)))
        if c == "simple-roots":
            return Command(("simple-roots", "--nmax", str(size)))
        if c == "verify-product":
            return Command(("verify-product", "--pmax", str(size[0]), "--qmax", str(size[1])))
        if c == "verify-ep":
            return Command(
                ("verify-ep", "--class", self.klass,
                 "--imax", str(size[0]), "--jmax", str(size[1]))
            )
        if c == "witt":
            return Command(("witt", "--mmax", str(size[0]), "--nmax", str(size[1])))
        table = "@" + table_name(classes, corrupt)
        if c == "audit":
            return Command(("derive", "--audit", "--table", table, "--max", str(size)))
        return Command((c, "--table", table, "--max", str(size)), 1 if corrupt else 0)

    def candidates(self) -> list[Command]:
        """Every command this slot can produce, in a fixed order."""
        out = []
        for classes in self.tables or (None,):
            for corrupt in self._corruptions(classes):
                for size in self._sizes():
                    out.append(self._command(size, classes, corrupt))
        return out

    def draw(self, rng: random.Random) -> Command:
        classes = rng.choice(self.tables) if self.tables else None
        corrupt = rng.choice(self._corruptions(classes)) if classes else None
        return self._command(rng.choice(self._sizes()), classes, corrupt)

    def check_cap(self) -> None:
        """Refuse a slot that could produce a run above the calibrated cap."""
        cap = SIZE_CAPS[self.command]
        for classes in self.tables or (None,):
            limit = cap[len(classes)] if isinstance(cap, dict) else cap
            for size in self._sizes():
                largest = max(size) if isinstance(size, tuple) else size
                if largest > limit:
                    raise ValueError(
                        f"{self.command} size {largest} exceeds the cap {limit}"
                    )


def _slots(command: str, sizes, **kw) -> list[Slot]:
    return [Slot(command, size, **kw) for size in sizes]


# Why each workload was chosen, what it loads and what it bypasses is
# stated in BENCHMARK.json.  Every pass has 20 commands and takes about
# ten seconds on a 2-core machine.  Slots are listed from cheap to
# costly.  The median command falls on ranks 10-11 and the 75th percentile
# on ranks 15-16, so ranks 9-12 and 14-18 are held by runs of near-equal
# slots: which command lands there then barely moves the two percentiles,
# and each percentile is read from the middle of its run.  In derive and
# audit, the seed varies only the cheap slots, the corrupted seed of the
# control and the order; the costly slots are fixed.
WORKLOADS = {
    "expand": tuple(
        _slots("jexpand", (30, 60, 100, 150))
        + _slots("simple-roots", (50, 120, 200, 300))
        + _slots("jexpand", (400,) * 4)  # ranks 9-12
        + _slots("simple-roots", (500,))
        + _slots("jexpand", (600,) * 5)  # ranks 14-18
        + _slots("jexpand", (950, 1200))
    ),
    "product": tuple(
        _slots("verify-product", (6, 9))
        + _slots("witt", (6, 9))
        + [Slot("verify-ep", 8, klass=k) for k in ("1A", "2B", "3B", "4C")]
        + _slots("verify-product", (14,) * 4)  # ranks 9-12
        + [Slot("verify-ep", 16, klass="3B")]
        + _slots("witt", (18,) * 5)  # ranks 14-18
        + [Slot("verify-ep", 20, klass="2B")]
        + _slots("verify-product", (21,))
    ),
    "derive": tuple(
        _slots("derive", (8, 14), tables=ONE)
        + _slots("derive", (10,), tables=FOUR)
        + _slots("compare", (10, 18), tables=ONE)
        + _slots("compare", (12,), tables=FOUR)
        + _slots("derive", (16,), tables=TWO)
        + _slots("derive", (14,), tables=THREE)
        + _slots("derive", (20,) * 4, tables=FOUR, jitter=False)  # ranks 9-12
        + [Slot("derive", 30, tables=FOUR, corrupt=True)]
        + _slots("derive", (40,) * 5, tables=ONE, jitter=False)  # ranks 14-18
        + _slots("compare", (48,), tables=ONE, jitter=False)
        + _slots("derive", (60,), tables=ONE, jitter=False)
    ),
    "audit": tuple(
        _slots("audit", (6, 8, 10, 12), tables=ONE)
        + _slots("audit", (6, 8), tables=TWO)
        + _slots("audit", (6,), tables=THREE)
        + _slots("audit", (6,), tables=FOUR)
        + _slots("audit", (16,) * 4, tables=ONE, jitter=False)  # ranks 9-12
        + _slots("audit", (12,), tables=TWO)
        + _slots("audit", (13,) * 5, tables=THREE[:1], jitter=False)  # ranks 14-18
        + _slots("audit", (12,), tables=FOUR, jitter=False)
        + _slots("audit", (24,), tables=ONE, jitter=False)
    ),
}


def generate(workload: str, seed: int) -> list[Command]:
    """The pass for ``workload`` under ``seed``: same seed, same commands."""
    slots = WORKLOADS[workload]
    for slot in slots:
        slot.check_cap()
    rng = random.Random(f"{workload}:{seed}")
    commands = [slot.draw(rng) for slot in slots]
    rng.shuffle(commands)
    return commands


def domain(workload: str) -> list[Command]:
    """Every command ``generate`` can emit for ``workload``, without repeats."""
    seen: dict[str, Command] = {}
    for slot in WORKLOADS[workload]:
        for command in slot.candidates():
            seen.setdefault(command.key, command)
    return list(seen.values())


def write_tables(workload: str, directory: Path) -> None:
    """Write every table a command of ``workload`` can name into ``directory``."""
    for slot in WORKLOADS[workload]:
        for classes in slot.tables:
            for corrupt in slot._corruptions(classes):
                path = directory / f"{table_name(classes, corrupt)}.mtf"
                path.write_text(table_text(classes, corrupt))


def load_reference() -> dict[str, tuple[int, str]]:
    with open(REFERENCE_FILE, encoding="utf-8") as handle:
        return {key: (code, digest) for key, (code, digest) in json.load(handle).items()}


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def check_output(
    command: Command,
    exit_code: int,
    stdout: bytes,
    reference: dict[str, tuple[int, str]],
) -> str | None:
    """Why the command's result is wrong, or None when it is right."""
    if exit_code != command.expect_exit:
        return f"exit {exit_code}, expected {command.expect_exit}"
    if command.name in VERDICT_COMMANDS or command.expect_exit == 1:
        verdict = "VERDICT: PASS" if command.expect_exit == 0 else "VERDICT: FAIL"
        lines = stdout.decode("utf-8", "replace").splitlines()
        if not lines or lines[-1] != verdict:
            return f"missing {verdict!r} line"
    if command.key not in reference:
        return "no reference output recorded"
    if digest(stdout) != reference[command.key][1]:
        return "stdout differs from the reference"
    return None
