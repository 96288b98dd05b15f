"""Conjugacy-class tables, trace coefficients and the Euler-Poincare check.

A class table lists conjugacy classes with their element orders, the power
maps g -> g^k between them, optional seed coefficients, and optional
eta-quotient recipes.  From a table we build coefficient families c_g(n)
(the q-expansions of the per-class trace series) and check the per-class
Euler-Poincare identity.  The check evaluates both sides of each cell (m,n)
in integers, m LHS = -M_m[n], where the left side reads the Adams
operations as the g^k columns of the family and M_m are the rows of
log(1 - U_g) (see :func:`euler_poincare_report`).

A table's eta-quotient recipe is a tuple of ``EtaMonomial`` records;
``modular.expand_recipe`` expands it, normalized, so parsing a table runs
no expansion code.  ``Fraction`` is imported only where one is made:
a non-integral eta coefficient, an offset, a mismatch's report.

Everything fails loudly: a missing coefficient raises an exception listing
exactly which (class, index) slots are absent, because silently zero-filling
would fabricate identity violations (or worse, mask them).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from math import gcd
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction

# the layers are read through their modules: a call runs only those it reads
from . import modular, series

__all__ = [
    "EtaMonomial",
    "MissingCoefficients",
    "ClassTable",
    "parse_table_text",
    "serialize_table",
    "CoefficientFamily",
    "load_family",
    "EPReport",
    "power_tower_orders",
    "euler_poincare_report",
]


class EtaMonomial(NamedTuple):
    """A rational multiple of a product of scaled eta powers.

    ``factors`` maps each scale k to the exponent of eta(k*tau); the term
    contributes an overall exponent offset of sum(k * e_k) / 24, which must
    come out integral for the series to live in integer powers of q.
    """

    coeff: series.Coeff = 1
    factors: tuple[tuple[int, int], ...] = ()

    @classmethod
    def from_factors(
        cls,
        coeff: series.Coeff,
        factors: Mapping[int, int] | Iterable[tuple[int, int]],
    ) -> "EtaMonomial":
        items = factors.items() if isinstance(factors, Mapping) else factors
        merged: dict[int, int] = {}
        for scale, exponent in items:
            if scale < 1:
                raise ValueError("eta scale must be a positive integer")
            merged[scale] = merged.get(scale, 0) + exponent
        clean = tuple(sorted((k, e) for k, e in merged.items() if e != 0))
        return cls(coeff, clean)

    def offset(self) -> Fraction:
        from fractions import Fraction

        return Fraction(sum(k * e for k, e in self.factors), 24)


class MissingCoefficients(Exception):
    """Raised when an operation needs coefficients the family lacks."""

    def __init__(self, indices: Iterable[tuple[str, int]]):
        self.indices = sorted(set(indices), key=lambda t: (t[1], t[0]))
        listed = ", ".join(f"{g}({n})" for g, n in self.indices[:12])
        more = "" if len(self.indices) <= 12 else f", ... ({len(self.indices)} total)"
        super().__init__(f"unknown coefficients: {listed}{more}")


class ClassTable(NamedTuple):
    """Conjugacy classes, element orders, power maps, seeds, recipes."""

    names: tuple[str, ...]
    orders: dict[str, int]
    power: dict[tuple[str, int], str]
    seeds: dict[tuple[str, int], int]
    recipes: dict[str, tuple[EtaMonomial, ...]]
    identity: str

    def order_of(self, name: str) -> int:
        try:
            return self.orders[name]
        except KeyError:
            raise ValueError(f"unknown class {name!r}") from None

    def power_of(self, name: str, k: int) -> str:
        """The class of g^k.

        An explicit ``power`` declaration wins; otherwise the exponent is
        reduced modulo the element order (0 mapping to the identity).  The
        precedence lets a table assert a map the order would contradict —
        such tables load, and ``consistency_warnings`` flags them, so the
        derivation commands can demonstrate the damage instead of refusing
        the file outright.
        """
        if k < 1:
            raise ValueError("power exponent must be >= 1")
        if (name, k) in self.power:
            return self.power[(name, k)]
        if name not in self.orders:
            raise ValueError(f"unknown class {name!r}")
        r = k % self.order_of(name)
        if r == 0:
            return self.identity
        if r == 1:
            return name
        try:
            return self.power[(name, r)]
        except KeyError:
            raise ValueError(
                f"table not closed under power map: {name}^{r} is not declared"
            ) from None

    def validate(self) -> None:
        """Structural checks; raises ValueError on the first violation."""
        if not self.names:
            raise ValueError("table declares no classes")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate class declaration")
        for name in self.names:
            if self.order_of(name) < 1:
                raise ValueError(f"class {name} has nonpositive order")
        if self.identity not in self.names:
            raise ValueError(f"identity class {self.identity!r} is not declared")
        if self.order_of(self.identity) != 1:
            raise ValueError("identity class must have order 1")
        for (name, k), target in self.power.items():
            if name not in self.orders or target not in self.orders:
                raise ValueError(f"power map {name}^{k} -> {target} references undeclared class")
            if k < 1:
                raise ValueError(f"power map exponent {k} must be >= 1")
            if k == 1 and target != name:
                raise ValueError(f"power map {name}^1 -> {target} must map {name} to itself")
        for name in self.names:
            for r in range(2, self.order_of(name)):
                self.power_of(name, r)
        for (name, n) in self.seeds:
            if name not in self.orders:
                raise ValueError(f"seed for undeclared class {name!r}")
            if n < 1:
                raise ValueError(f"seed index {n} must be >= 1 (lower slots are fixed)")
        for name, recipe in self.recipes.items():
            if name not in self.orders:
                raise ValueError(f"recipe for undeclared class {name!r}")
            for mono in recipe:
                if sum(k * e for k, e in mono.factors) % 24:
                    raise ValueError(
                        f"fractional leading exponent {mono.offset()} in recipe for {name}"
                    )

    def consistency_warnings(self) -> list[str]:
        """Soft power-map diagnostics (order and composition laws).

        Violations here mean the table data is wrong but still loadable;
        the derivation commands surface them as mismatches instead.
        """
        warnings: list[str] = []
        for name in self.names:
            o = self.order_of(name)
            for k in range(2, o + 1):
                target = self.power_of(name, k)
                expected = o // gcd(k, o)
                if self.order_of(target) != expected:
                    warnings.append(
                        f"order({name}^{k}) = {self.order_of(target)}, expected {expected}"
                    )
            for k in range(2, o + 1):
                for l in range(2, o + 1):
                    via = self.power_of(self.power_of(name, k), l)
                    direct = self.power_of(name, k * l)
                    if via != direct:
                        warnings.append(
                            f"({name}^{k})^{l} = {via} but {name}^{k*l} = {direct}"
                        )
        return warnings


# ---------------------------------------------------------------------------
# table file grammar


def parse_table_text(text: str) -> ClassTable:
    """Parse the line-oriented table format.

    Directives: ``class NAME order N``, ``identity NAME``,
    ``power NAME K NAME``, ``seed NAME N VALUE``, and
    ``eta NAME COEFF K1:E1 [K2:E2 ...]`` (one monomial per line; a class's
    recipe is the sum of its eta lines, normalized).  ``#`` starts a comment.
    """
    names: list[str] = []
    orders: dict[str, int] = {}
    power: dict[tuple[str, int], str] = {}
    seeds: dict[tuple[str, int], int] = {}
    monomials: dict[str, list[EtaMonomial]] = {}
    identity: str | None = None

    def fail(lineno: int, message: str) -> None:
        raise ValueError(f"table line {lineno}: {message}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive = tokens[0]
        try:
            if directive == "class":
                if len(tokens) != 4 or tokens[2] != "order":
                    fail(lineno, "expected: class NAME order N")
                name = tokens[1]
                if name in orders:
                    fail(lineno, f"class {name} declared twice")
                names.append(name)
                orders[name] = int(tokens[3])
            elif directive == "identity":
                if len(tokens) != 2:
                    fail(lineno, "expected: identity NAME")
                if identity is not None:
                    fail(lineno, "identity declared twice")
                identity = tokens[1]
            elif directive == "power":
                if len(tokens) != 4:
                    fail(lineno, "expected: power NAME K NAME")
                key = (tokens[1], int(tokens[2]))
                if key in power:
                    fail(lineno, f"power map {key[0]}^{key[1]} declared twice")
                power[key] = tokens[3]
            elif directive == "seed":
                if len(tokens) != 4:
                    fail(lineno, "expected: seed NAME N VALUE")
                key = (tokens[1], int(tokens[2]))
                if key in seeds:
                    fail(lineno, f"seed {key[0]}({key[1]}) declared twice")
                seeds[key] = int(tokens[3])
            elif directive == "eta":
                if len(tokens) < 3:
                    fail(lineno, "expected: eta NAME COEFF K:E [K:E ...]")
                try:
                    coeff = int(tokens[2])
                except ValueError:  # a non-integral literal, such as 1/2 or 1e3
                    from fractions import Fraction

                    coeff = Fraction(tokens[2])
                    if coeff.denominator == 1:
                        coeff = coeff.numerator
                factors = []
                for piece in tokens[3:]:
                    scale_text, _, exp_text = piece.partition(":")
                    if not exp_text:
                        fail(lineno, f"bad eta factor {piece!r}, expected K:E")
                    factors.append((int(scale_text), int(exp_text)))
                mono = EtaMonomial.from_factors(coeff, factors)
                if sum(k * e for k, e in mono.factors) % 24:
                    fail(
                        lineno,
                        f"fractional leading exponent {mono.offset()}: "
                        "scales times exponents must sum to a multiple of 24",
                    )
                monomials.setdefault(tokens[1], []).append(mono)
            else:
                fail(lineno, f"unknown directive {directive!r}")
        except (ValueError, ZeroDivisionError) as err:  # 1/0 is a bad value too
            if str(err).startswith("table line"):
                raise
            fail(lineno, f"bad value ({err})")
    if identity is None:
        raise ValueError("table declares no identity class")
    table = ClassTable(
        names=tuple(names),
        orders=orders,
        power=power,
        seeds=seeds,
        recipes={g: tuple(m) for g, m in monomials.items()},
        identity=identity,
    )
    table.validate()
    return table


def serialize_table(table: ClassTable) -> str:
    """Deterministic text form; parse(serialize(t)) == t."""
    index = {name: i for i, name in enumerate(table.names)}
    lines = [f"class {name} order {table.orders[name]}" for name in table.names]
    lines.append(f"identity {table.identity}")
    for (name, k), target in sorted(table.power.items(), key=lambda kv: (index[kv[0][0]], kv[0][1])):
        lines.append(f"power {name} {k} {target}")
    for (name, n), value in sorted(table.seeds.items(), key=lambda kv: (index[kv[0][0]], kv[0][1])):
        lines.append(f"seed {name} {n} {value}")
    for name in table.names:
        for mono in table.recipes.get(name, ()):
            factors = " ".join(f"{k}:{e}" for k, e in mono.factors)
            lines.append(f"eta {name} {mono.coeff} {factors}".rstrip())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# coefficient families


class CoefficientFamily(NamedTuple):
    """Known trace coefficients c_g(n) per class.

    Slots -1 and 0 are always present (1 and 0 by normalization); other
    slots are known only where a recipe or seed supplied them.
    """

    table: ClassTable
    values: dict[str, dict[int, int]]

    def known(self, name: str, n: int) -> bool:
        return n in self.values[name] or n < -1

    def value(self, name: str, n: int) -> int:
        if name not in self.values:
            raise ValueError(f"unknown class {name!r}")
        if n < -1:
            return 0
        try:
            return self.values[name][n]
        except KeyError:
            raise MissingCoefficients([(name, n)]) from None


def load_family(table: ClassTable, order: int | dict[str, int]) -> CoefficientFamily:
    """Expand recipes (the identity class always expands to J), merge seeds.

    ``order`` is the q-order of every expansion, or a map from the classes
    to expand to their orders; a class the map leaves out keeps its seeds
    alone.  Every expansion is shape-checked: leading coefficient 1 at
    q^-1, all coefficients integral (the q^0 is zeroed).  A seed that
    contradicts an expansion is an input error, not a mismatch to report
    later.
    """
    orders = order if isinstance(order, dict) else dict.fromkeys(table.names, order)
    if min(orders.values(), default=0) < 0:
        raise ValueError("order must be >= 0")
    values: dict[str, dict[int, int]] = {}
    for name in table.names:
        vals: dict[int, int] = {-1: 1, 0: 0}
        expansion = None
        order = orders.get(name, -1)
        if order < 0:
            pass  # the map leaves the class out
        elif name == table.identity:
            expansion = modular.normalized_j(order)
        elif name in table.recipes:
            expansion = modular.expand_recipe(table.recipes[name], order)
            if expansion.support_lo != -1 or expansion.coeff(-1) != 1:
                raise ValueError(
                    f"recipe for {name} is not Hauptmodul-shaped: expected "
                    f"leading coefficient 1 at q^-1, got {expansion.coeff(-1)} "
                    f"at q^{expansion.support_lo}"
                )
            if not expansion.is_integral():
                raise ValueError(f"recipe for {name} has non-integer coefficients")
        if expansion is not None:
            for n in range(1, order + 1):
                vals[n] = expansion.coeff(n)
        values[name] = vals
    for (name, n), seed in table.seeds.items():
        current = values[name].get(n)
        if current is not None and current != seed:
            raise ValueError(
                f"seed {name}({n}) = {seed} conflicts with expansion value {current}"
            )
        values[name][n] = seed
    return CoefficientFamily(table, values)


# ---------------------------------------------------------------------------
# the Euler-Poincare identity


class EPReport(NamedTuple):
    """Result of the per-class Euler-Poincare identity comparison."""

    name: str
    imax: int
    jmax: int
    mismatches: tuple[tuple[int, int, series.Coeff, series.Coeff], ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def power_tower_orders(
    table: ClassTable, name: str, imax: int, jmax: int
) -> dict[str, int]:
    """The classes :func:`euler_poincare_report` reads at g = ``name``, with
    the q-order read: g^k to (imax//k)*(jmax//k) for k <= min(imax, jmax),
    the largest where classes coincide (g itself, at k = 1, to imax*jmax,
    past its generators c_g(1..imax+jmax-1)).  ``load_family`` given this
    map expands and shape-checks no other class."""
    orders: dict[str, int] = {}
    for k in range(min(imax, jmax), 0, -1):
        orders[table.power_of(name, k)] = (imax // k) * (jmax // k)
    return orders


def euler_poincare_report(
    family: CoefficientFamily, name: str, imax: int, jmax: int
) -> EPReport:
    """Compare the two sides of the Euler-Poincare identity on a window.

    At class g the identity reads sum_{k>=1} (1/k) psi^k(A_g) = -log(1 - U_g).
    A_g = sum c_g(mn) p^m q^n is the trace on the algebra, and its k-th
    Adams operation psi^k swaps in the g^k column at p^k, q^k.  U_g = sum
    c_g(m+n-1) p^m q^n is the trace on the generators.  Times m, both sides
    of cell (m,n) are integers:

        m LHS = sum_{k | gcd(m,n)} (m/k) c_{g^k}(mn/k^2),
        m RHS = -M_m[n],

    where M_m = m L_m are the rows of log(1 - U_g), taken from the column
    c_g by ``series.log1m_rows``.  Row m is minus the q^1.. part of
    P_m(J_g), the m-th Faber polynomial of J_g = q^-1 + sum c_g(n) q^n, so
    the check reads [q^n] P_m(J_g) = sum_{k | gcd(m,n)} (m/k) c_{g^k}(mn/k^2):
    the m-th Faber polynomial of J_g against its replication sum (Norton's
    replicability; Conway-Norton 1979, Norton 1984).
    Terms with k > min(imax, jmax) have no cell in the window.  A mismatch
    reports each side as its exact value, divided by m.

    Every missing coefficient is reported before any arithmetic: first
    c_{g^k}(mn) for m <= imax//k, n <= jmax//k, for each k in turn (k = 1
    is the class's own column), then the generators c_g(1..imax+jmax-1).
    """
    if imax < 1 or jmax < 1:
        raise ValueError("window bounds must be >= 1")
    columns: list[dict[int, int]] = [{}]  # columns[k] holds c_{g^k}
    for k in range(1, min(imax, jmax) + 1):
        powered = family.table.power_of(name, k)
        column = family.values[powered]
        missing = {
            (powered, m * n)
            for m in range(1, imax // k + 1)
            for n in range(1, jmax // k + 1)
            if m * n not in column
        }
        if missing:
            raise MissingCoefficients(missing)
        columns.append(column)
    own = family.values[name]
    missing = {(name, d) for d in range(1, imax + jmax) if d not in own}
    if missing:
        raise MissingCoefficients(missing)
    big_m = series.log1m_rows(own, imax, jmax)
    mismatches = []
    for m in range(1, imax + 1):
        for n in range(1, jmax + 1):
            d = gcd(m, n)
            lhs = sum(
                (m // k) * columns[k][(m // k) * (n // k)]
                for k in range(1, d + 1)
                if d % k == 0
            )
            rhs = -big_m[m][n]
            if lhs != rhs:
                from fractions import Fraction

                mismatches.append(
                    (m, n, series._norm(Fraction(lhs, m)), series._norm(Fraction(rhs, m)))
                )
    return EPReport(name, imax, jmax, tuple(mismatches))
