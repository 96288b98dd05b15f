"""Batch verification commands.

Every command prints exact decimal integers (rationals, if they ever
appear, as num/den), tab-separated, in a deterministic order, and follows
one exit-code contract: 0 when the run passed, 1 when a verification found
a mismatch or contradiction, 2 on input errors (bad flags, unreadable or
malformed tables, missing coefficients), 3 on an internal error (a failed
self-check or a bug; no verdict is printed).  Verification commands end
with a greppable ``VERDICT: PASS`` or ``VERDICT: FAIL`` line.  Warnings
about a table's power maps go to stderr as ``warning:`` lines.  A series
command whose size needs q-expansions past :data:`MAX_Q_ORDER`, a class
whose recipe, by a negative leading exponent, needs eta products past it,
and a ``derive`` or ``compare`` whose ``--max`` exceeds
:data:`MAX_DERIVE_INDEX`, are refused with exit 2 before any expansion.
Every command checks the structure of the whole table, but ``verify-ep
--class g`` expands and checks only the classes its identity reads, g^k to
q^((imax//k)(jmax//k)): a bad recipe or a conflicting seed elsewhere is
refused by ``compare``, which loads every class, and not by it.  A closed
stdout (``| head``) ends the command silently on SIGPIPE, like any filter.

The command line, ``COMMAND (--flag VALUE | --flag=VALUE | --switch)*``, is
read from one table, :data:`_COMMANDS`, not by argparse, whose import and
parser took 3 ms of a fresh 40 ms command on a 2-core machine (the
interpreter takes 25 ms of it, and compiling uncached modules 8 ms).
``derive`` and ``derive --audit`` run ``classes`` and ``recursion`` alone
and import no ``fractions``: a further 5 ms of a fresh 60 ms
``derive --audit --max 8`` on a loaded machine, where ``python -c pass``
takes 40 ms.
"""

from __future__ import annotations

import _signal  # the C module that ``signal`` wraps, without its enum conversions
import os
import sys
from types import SimpleNamespace

# the layers are read through their modules: a command runs only those it calls
from . import classes, lattice, modular, recursion, series

__all__ = ["main", "entry"]

PASS_LINE = "VERDICT: PASS"
FAIL_LINE = "VERDICT: FAIL"

# Largest q-order a series command may expand.  On a 2-core machine
# ``jexpand --order 1200`` takes about 0.08 s, 2000 about 0.13 s and 5000
# about 0.43 s, and the time grows a little faster than the order; a 24x24
# window expands through q^600.  The limit bounds the order only: a
# two-variable window's cost grows faster than its cells and depends on its
# shape: at 70x70 (q^4900) ``witt`` runs for about 2.2 s, ``verify-product``
# for 1.8 s and ``verify-ep --class 1A`` for 0.9 s; ``witt`` at 2x2500 and
# at 2500x2 for about 1.4 s and at 5000x1 about 0.7 s (its product oracle
# builds a tall grid as its transpose).
MAX_Q_ORDER = 5000

# Largest coefficient index ``derive`` and ``compare`` may reach (``--max``).
# The solver builds no relation and computes each log(1 - U) cell once: on
# a 2-core machine ``derive --max 100`` takes about 0.1 s and 16 MB,
# ``derive --max 200`` about 0.2 s and 17 MB (0.4 s on the 12-class
# table in tests/data/eta12.mtf).  ``derive --audit`` builds none either:
# about 0.07 s and 18 MB at 200.  It also bounds the q-order ``compare``
# expands, far below MAX_Q_ORDER.
MAX_DERIVE_INDEX = 200


class CommandError(Exception):
    """Input problem: bad bounds, unreadable table, missing data.  Exit 2."""


def _check_order(order: int) -> None:
    """Refuse, before any series work, an expansion past :data:`MAX_Q_ORDER`."""
    if order > MAX_Q_ORDER:
        raise CommandError(
            f"the command needs q-expansions to order {order}, "
            f"above the limit {MAX_Q_ORDER}"
        )


def _check_index(index: int) -> None:
    """Refuse, before any work, a ``--max`` past :data:`MAX_DERIVE_INDEX`."""
    if index > MAX_DERIVE_INDEX:
        raise CommandError(
            f"the command derives coefficients to index {index}, "
            f"above the limit {MAX_DERIVE_INDEX}"
        )


def _load_table(path: str | None) -> classes.ClassTable:
    if path is None:  # the packaged catalog, next to this module
        path = os.path.join(os.path.dirname(__file__), "data", "catalog.mtf")
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise CommandError(f"cannot read table file: {err}") from None
    try:
        table = classes.parse_table_text(text)
    except ValueError as err:
        raise CommandError(str(err)) from None
    for warning in table.consistency_warnings():
        print(f"warning: {warning}", file=sys.stderr)
    return table


def _family(table: classes.ClassTable, order: int | dict[str, int]):
    """``classes.load_family``, after refusing every recipe whose eta
    products would run past order ``MAX_Q_ORDER + 1``.  A monomial starting
    at q^shift is expanded through q^(order - shift): a Hauptmodul starts
    at q^-1, so its eta products run one order past the expansion, as j's
    do, and a lower leading exponent widens them further."""
    orders = order if isinstance(order, dict) else dict.fromkeys(table.names, order)
    for name in table.names:
        top = orders.get(name, -1)
        if top < 0 or name == table.identity or name not in table.recipes:
            continue
        window = top - min(mono.offset() // 1 for mono in table.recipes[name])
        if window > MAX_Q_ORDER + 1:
            raise CommandError(
                f"the recipe for {name} expands eta products to order {window}, "
                f"above the limit {MAX_Q_ORDER + 1}"
            )
    try:
        return classes.load_family(table, order)
    except ValueError as err:
        raise CommandError(str(err)) from None


# ---------------------------------------------------------------------------
# commands


def _cmd_jexpand(args) -> int:
    if args.order < -1:
        raise CommandError("order must be >= -1")
    _check_order(args.order)
    c = modular.normalized_j(args.order)
    for n in range(-1, args.order + 1):
        print(f"{n}\t{c.coeff(n)}")
    return 0


def _cmd_verify_product(args) -> int:
    if args.pmax < 1 or args.qmax < 1:
        raise CommandError("window bounds must be >= 1")
    _check_order(lattice.denominator_order(args.pmax, args.qmax))
    report = lattice.denominator_identity_report(args.pmax, args.qmax)
    print(f"command: verify-product --pmax {args.pmax} --qmax {args.qmax}")
    print(f"window: p 0..{report.pmax}, q {report.qmin}..{report.qmax}")
    for i, j, lhs, rhs in report.mismatches:
        print(f"mismatch\tp^{i} q^{j}\t{lhs}\t{rhs}")
    print(PASS_LINE if report.ok else FAIL_LINE)
    return 0 if report.ok else 1


def _cmd_verify_ep(args) -> int:
    if args.imax < 1 or args.jmax < 1:
        raise CommandError("window bounds must be >= 1")
    _check_order(args.imax * args.jmax)
    table = _load_table(args.table)
    if args.klass not in table.names:
        raise CommandError(f"unknown class {args.klass!r}")
    family = _family(
        table, classes.power_tower_orders(table, args.klass, args.imax, args.jmax)
    )
    try:
        report = classes.euler_poincare_report(family, args.klass, args.imax, args.jmax)
    except classes.MissingCoefficients as err:
        raise CommandError(str(err)) from None
    print(
        f"command: verify-ep --class {args.klass} "
        f"--imax {args.imax} --jmax {args.jmax}"
    )
    print(f"window: p 1..{args.imax}, q 1..{args.jmax}")
    for i, j, lhs, rhs in report.mismatches:
        print(f"mismatch\t({i},{j})\t{lhs}\t{rhs}")
    print(PASS_LINE if report.ok else FAIL_LINE)
    return 0 if report.ok else 1


def _cmd_derive(args) -> int:
    if args.max < 1:
        raise CommandError("--max must be >= 1")
    _check_index(args.max)
    table = _load_table(args.table)
    if args.audit:
        report = recursion.determinacy_audit(table, args.max)
        for name in table.names:
            indices = report.underivable(name)
            label = "unresolved" if len(table.names) == 1 else f"unresolved {name}"
            print(f"{label}: {' '.join(str(n) for n in indices)}")
        return 0
    solve = recursion.solve_from_seeds  # runs the layer outside the except below
    try:
        result = solve(table, args.max)
    except recursion.ContradictionError as err:
        print(f"contradiction: {err}")
        print(FAIL_LINE)
        return 1
    if result.unresolved:
        listed = " ".join(f"{g}({n})" for g, n in result.unresolved[:12])
        raise CommandError(f"seeds leave underivable coefficients: {listed}")
    for name in table.names:
        for n in range(1, args.max + 1):
            print(f"{name}\t{n}\t{result.values[(name, n)]}")
    return 0


def _cmd_compare(args) -> int:
    if args.max < 1:
        raise CommandError("--max must be >= 1")
    _check_index(args.max)
    table = _load_table(args.table)
    family = _family(table, args.max)
    print(f"command: compare --max {args.max}")
    solve = recursion.solve_from_seeds  # runs the layer outside the except below
    try:
        result = solve(table, args.max)
    except recursion.ContradictionError as err:
        print(f"contradiction: {err}")
        print(FAIL_LINE)
        return 1
    differences = []
    for n in range(1, args.max + 1):
        for name in table.names:
            if not family.known(name, n):
                continue
            derived = result.values.get((name, n))
            expansion = family.value(name, n)
            if derived != expansion:
                differences.append((name, n, derived, expansion))
    for name, n, derived, expansion in differences[:10]:
        shown = "underived" if derived is None else str(derived)
        print(f"difference\t{name}({n})\tderived {shown}\texpansion {expansion}")
    if differences:
        print(f"differences: {len(differences)}")
        name, n, _, _ = differences[0]
        print(f"first differing index: {name}({n})")
    print(PASS_LINE if not differences else FAIL_LINE)
    return 0 if not differences else 1


def _cmd_witt(args) -> int:
    if args.mmax < 1 or args.nmax < 1:
        raise CommandError("window bounds must be >= 1")
    _check_order(args.mmax * args.nmax)
    c = modular.normalized_j(args.mmax * args.nmax)
    dims = lattice.witt_dims(args.mmax, args.nmax, c)
    print(f"command: witt --mmax {args.mmax} --nmax {args.nmax}")
    print("free Lie algebra dimensions:")
    for m in range(1, args.mmax + 1):
        print("\t".join(str(dims.dim(m, n)) for n in range(1, args.nmax + 1)))
    print("expected root multiplicities:")
    mismatches = []
    for m in range(1, args.mmax + 1):
        row = []
        for n in range(1, args.nmax + 1):
            expected = c.coeff(m * n)
            row.append(str(expected))
            if dims.dim(m, n) != expected:
                mismatches.append((m, n, dims.dim(m, n), expected))
        print("\t".join(row))
    for m, n, got, expected in mismatches:
        print(f"mismatch\t({m},{n})\t{got}\t{expected}")
    # the product oracle: the dimensions must expand to 1 minus the
    # generator character
    cells = ((m, n) for m in range(1, args.mmax + 1) for n in range(1, args.nmax + 1))
    oracle = {(0, 0): 1} | {(m, n): -c.coeff(m + n - 1) for m, n in cells}
    oracle_bad = lattice.dimension_product(dims).mismatches(
        series.BiSeries(oracle, args.mmax, args.nmax)
    )
    for i, j, lhs, rhs in oracle_bad:
        print(f"oracle mismatch\t({i},{j})\t{lhs}\t{rhs}")
    ok = not mismatches and not oracle_bad
    print(PASS_LINE if ok else FAIL_LINE)
    return 0 if ok else 1


def _cmd_bmatrix(args) -> int:
    if args.size < 1:
        raise CommandError("size must be >= 1")
    _check_order(args.size - 1)
    matrix = lattice.build_matrix(args.size)
    print(f"command: bmatrix --size {args.size}")
    for row in matrix:
        print("\t".join(str(entry) for entry in row))
    report = lattice.cartan_conditions(matrix)
    print(f"symmetric: {'yes' if report.symmetric else 'no'}")
    print(
        "off-diagonal nonpositive: "
        f"{'yes' if report.off_diagonal_nonpositive else 'no'}"
    )
    print(f"row integrality: {'yes' if report.ratios_integral else 'no'}")
    for violation in report.violations:
        print(f"violation\t{violation}")
    print(PASS_LINE if report.ok else FAIL_LINE)
    return 0 if report.ok else 1


def _cmd_simple_roots(args) -> int:
    if args.nmax < -1:
        raise CommandError("nmax must be >= -1")
    _check_order(args.nmax)
    c = modular.normalized_j(max(args.nmax, 1))
    for vector, mult in lattice.simple_roots(args.nmax, c):
        print(f"({vector.m},{vector.n})\t{mult}")
    return 0


# ---------------------------------------------------------------------------
# wiring


def _cmd_help(args) -> int:
    print("usage: moonshine COMMAND [--flag VALUE | --flag=VALUE | --switch]...\n"
          "Exact verification of the modular-invariant identities.\n"
          "Each flag shows its default or its value's name; none is abbreviated.")
    for command, (_, text, flags) in _COMMANDS.items():
        shown = (
            f"[--{flag}]" if default is False
            else f"[--{flag} {flag.upper() if default is None else default}]"
            for flag, default in flags.items()
        )
        print(f"\n  {command} {' '.join(shown)}\n      {text}")
    return 0


# Each command's handler, one-line help and {flag: default}.  A flag's type
# is its default's: an int default takes an integer value, False is a
# switch, and None or a string keeps the value as given.
_COMMANDS = {
    "jexpand": (_cmd_jexpand, "print coefficients of the invariant", {"order": 8}),
    "verify-product": (_cmd_verify_product, "check the product formula", {"pmax": 8, "qmax": 8}),
    "verify-ep": (_cmd_verify_ep, "check the trace identity per class", {
        "table": None, "class": "1A", "imax": 8, "jmax": 8}),
    "derive": (_cmd_derive, "derive coefficients from seeds", {
        "table": None, "max": 30, "audit": False}),
    "compare": (_cmd_compare, "derived values vs recipe expansions", {"table": None, "max": 30}),
    "witt": (_cmd_witt, "free Lie algebra dimension grid", {"mmax": 5, "nmax": 5}),
    "bmatrix": (_cmd_bmatrix, "simple-root Gram matrix block truncation", {"size": 2}),
    "simple-roots": (_cmd_simple_roots, "simple roots with multiplicities", {"nmax": 2}),
}


def _parse(argv: list[str]):
    """The handler and arguments ``argv`` names.  The last of a repeated flag
    wins, and a separate value that starts with ``-`` must be an integer."""
    if argv[:1] in (["-h"], ["--help"]):
        return _cmd_help, None
    if not argv or argv[0] not in _COMMANDS:
        given = f"unknown command {argv[0]!r}" if argv else "no command given"
        raise CommandError(f"{given}; the commands are {', '.join(_COMMANDS)}")
    command, *words = argv
    handler, _, flags = _COMMANDS[command]
    values = dict(flags)
    words = iter(words)
    for word in words:
        if word in ("-h", "--help"):
            return _cmd_help, None
        flag, given, value = word.partition("=")
        name = flag[2:]
        if flag[:2] != "--" or name not in flags:
            raise CommandError(f"{command} has no flag {flag!r}")
        default = flags[name]
        if default is False:
            if given:
                raise CommandError(f"--{name} takes no value")
            values[name] = True
            continue
        if not given:
            value = next(words, None)
            if value is None or (value[:1] == "-" and not value[1:].isdecimal()):
                raise CommandError(f"--{name} needs a value")
        if type(default) is int:
            try:
                value = int(value)
            except ValueError:
                raise CommandError(f"--{name} needs an integer, not {value!r}") from None
        values[name] = value
    if "class" in values:  # a keyword, so stored as ``klass``
        values["klass"] = values.pop("class")
    return handler, SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        return handler(args)
    except CommandError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # exit 1 is reserved for verified mismatches
        import traceback  # imported here to keep it off the start-up path

        print(f"internal error: {err}", file=sys.stderr)
        traceback.print_exc()
        return 3


def entry() -> None:
    if hasattr(_signal, "SIGPIPE"):
        _signal.signal(_signal.SIGPIPE, _signal.SIG_DFL)
    sys.exit(main())
