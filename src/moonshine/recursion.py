"""Coefficient recursions from the Euler-Poincare identity.

Reading off the coefficient of p^i q^j in the identity gives, for every
target (i,j), one polynomial relation among trace coefficients:

    sum_{k | gcd(i,j)} (1/k) c_{g^k}(ij/k^2)
        = sum over multisets of cells (r,s) summing to (i,j) of
          ((|a|-1)!/a!) prod c_g(r+s-1)^{a_rs}.

Two consumers here read the relations: a monotone propagation solver that
derives coefficients from seed data (every derived value carries the
relation that produced it, and disagreeing derivations are a hard error),
and a structural determinacy audit that finds which indices are genuinely
underivable.  Neither builds a relation; each reads its shape, and the
solver the log(1 - U) rows.  Building the relations, compressed, and the
Mobius-inverted closed form for c_g(ij) are oracles no command runs; they
live in ``relations``, whose weights the shape below is read from.

At a target (i,j), 2 <= i <= j, the right side's monomials are the
partitions of i+j into at most i parts >= 2 (part p reads c(p-1)), each
with a positive weight: with M <= i parts, [x^i] prod (x+...+x^(p-1))
spans degrees M..i+j-M, which contain i.  So each part p <= i+j-2 occurs
beside the single part i+j-p, no part is i+j-1 (it would leave 1), and
i+j occurs alone, as the one cell (i,j) of weight 1: the right side reads
c_g(1..i+j-3) inside products and c_g(i+j-1) as a lone monomial of scaled
weight ``scale``.  Part p occurs twice, and c(p-1) squared, when the rest
i+j-2p is 0, or is at least 2 and a third part is allowed (i >= 3).

The right side of (i,j) is [p^i q^j] -log(1 - U_g), U_g = sum c_g(m+n-1)
p^m q^n.  A store of its cells per class read (``_Cells``) computes each
cell once, when first read (the closed form in ``relations`` reads the
stores too).  The solver classifies each relation from the shape and
takes its values from the cells (``_state``).  The replication rows i = 2,
3, 4 determine every coefficient from c(1), c(2), c(3), c(5) (Norton
1984): they run pass by pass to a fixpoint.  Then one sweep evaluates
every relation i >= 5 with fewer than two unknown right keys (``_sweep``):
it checks those whose keys are all known and derives a lone unknown key,
which no replication row may reach (c_g(35) at nmax 30, or c_g(25) from
(5,5), which skips c_g(8)).  The two alternate until the sweep derives
nothing.  Each class keeps its store for the whole solve, as in online
(relaxed) multiplication (van der Hoeven, "Relax, but don't be too lazy",
2002), and only the cells that read an unknown are computed again, when
the unknowns move.
A key has two lone linear occurrences only when g^k = g (k >= 2) and
ij/k^2 = i+j-1, the lone right-side c_g(i+j-1) (1A and 3B at (6,10) in
the catalog); their weights scale/k and -scale add up to scale*(1/k - 1)
!= 0, so such a key never cancels.

The audit needs no values at all.  Without seeds every coefficient it
knows is an opaque symbol or a nonconstant polynomial in such symbols,
and a product of nonconstant polynomials is never constant.  So a
relation whose other keys are all known pins key u exactly when every
occurrence of u is a lone c(u)^1 monomial (left terms always are): those
never cancel, and a monomial shared with another key puts a symbol in u's
coefficient.  By the shape, u is a lone key, c_g(i+j-1) or a left key
outside the prefix c_g(1..i+j-3), and each relation gives Horn clauses
"prefix and other lone keys known => u known"; forward chaining to a
fixpoint (Dowling & Gallier 1984) gives the same closure in any firing
order.  The one case this misses is a derived polynomial that cancels to
a constant.
"""

from __future__ import annotations

from itertools import count, islice
from math import gcd, isqrt
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

# the layers are read through their modules: a call runs only those it reads
from . import classes

if TYPE_CHECKING:
    from . import series

__all__ = [
    "ContradictionError",
    "SolveResult",
    "solve_from_seeds",
    "AuditReport",
    "determinacy_audit",
]


# ---------------------------------------------------------------------------
# propagation solver


class ContradictionError(Exception):
    """Two derivations (or a seed and a derivation) disagree."""


def _squared(i: int, j: int, v: int) -> bool:
    """Whether c_g(v), v <= i+j-3, occurs squared in the relation at target
    (i,j), 2 <= i <= j: part v+1 occurs twice (see the module docstring)."""
    rest = i + j - 2 * (v + 1)
    return rest == 0 or (rest >= 2 and i >= 3)


class _Cells:
    """The cells M_m[q] of log(1 - U_g) for one class, u_m[n] = c_g(m+n-1),
    each computed once, when first read.  ``series.log1m_rows`` computes
    the same cells from the same column over a whole window by another
    algorithm, row m as the m-th Faber polynomial of J_g, so the tests check
    each against the other.

    ``column`` is the class's {index: value} dict, which only ever gains
    values; ``gaps`` are its three smallest missing indices as of the last
    ``update``.  Cell (m,q) is

        M_m[q] = -m c_g(m+q-1) + sum_{k<m} sum_{s<q} c_g(k+s-1) M_{m-k}[q-s],

    so it reads c_g(1..m+q-1), and a cell may be read only at m+q-1 <
    gaps[2].  Below gaps[0] it reads known values alone: it is final and
    kept for the store's life.  The band gaps[0] <= m+q-1 < gaps[2] reads
    c_g(gaps[0]) as x (``cell``) and c_g(gaps[1]) as 0; it is kept per x
    and dropped when ``update`` moves the gaps.
    """

    def __init__(self, column: dict):
        self.column = column
        self.gaps = (1, 1, 1)
        self.final: dict[int, list] = {}  # final[m][q - 1] = M_m[q]
        self.update()

    def update(self) -> None:
        """Re-read the gaps from the column; if they moved, drop the band."""
        gaps = tuple(islice((n for n in count(self.gaps[0]) if n not in self.column), 3))
        if gaps == self.gaps:
            return
        self.gaps = gaps
        c = [0] + [self.column.get(n, 0) for n in range(1, gaps[2])]
        self.c = (c, [*c[: gaps[0]], 1, *c[gaps[0] + 1 :]])  # c_g(n), n < gaps[2], per x
        self.band: tuple[dict[int, list], dict[int, list]] = ({}, {})

    def cell(self, m: int, q: int, x: int):
        return self._row(m, q, x)[q - 1]

    def _row(self, m: int, q: int, x: int) -> list:
        """Row m through q^q: the final row, or its copy in x's band once
        m+q-1 reaches gaps[0]."""
        if m + q - 1 < self.gaps[0]:
            row = self.final.setdefault(m, [])
        else:
            row = self.band[x].get(m)
            if row is None:
                known = self.gaps[0] - m  # the cells q <= known are final
                row = self.band[x][m] = self._row(m, known, x)[:known] if known > 0 else []
        if len(row) < q:
            c = self.c[x]
            lower = [[], *(self._row(k, q - 1, x) for k in range(1, m))]
            for n in range(len(row) + 1, q + 1):
                total = -m * c[m + n - 1]
                for k in range(1, m):
                    total += sum(map(mul, c[k : k + n - 1], reversed(lower[m - k][: n - 1])))
                row.append(total)
        return row


def _state(table: classes.ClassTable, name: str, i: int, j: int, values: dict, cells: _Cells):
    """Classify the relation at target (i,j), 2 <= i <= j, at class ``name``.

    ``values`` holds one {index: value} dict per class, and ``cells`` the
    log(1 - U_g) cells of class ``name``, whose gaps are current for the
    keys the relation reads.  Returns ("verified", None), ("pending",
    None), or ("fire", (key, solved_value)), the value an ``int`` when
    integral; a violated relation raises ContradictionError.

    The relation reads the left keys c_{g^k}(ij/k^2), c_g(1..i+j-3) inside
    products and c_g(i+j-1) alone (see the module docstring), so the gaps
    name every unknown right key of a relation with fewer than two.  It is
    pending with two distinct unknown keys, or with one unknown c_g(v), v
    <= i+j-3, that occurs squared (``_squared``).  Otherwise i*scale*(LHS -
    RHS) = i * sum_k (scale/k) c_{g^k}(ij/k^2) + scale*M_i[j] is linear in
    its unknown, read as 0 in the cell at x = 0.  The lone c_g(i+j-1) has
    the coefficient -i*scale.  An unknown inside products is the smallest
    gap, as every index below it is a known key; its coefficient is scale
    times M_i[j] at x = 1 minus at x = 0.  Both add to the left term's
    i*scale/k when that term reads the same key.  With fewer than two
    unknown right keys i+j-1 < gaps[2], so the cell may be read.
    """
    top = i + j - 1
    unknown = {(name, v) for v in cells.gaps if v <= top and v != top - 1}
    if len(unknown) > 1:
        return "pending", None
    scale = gcd(i, j)
    const = 0  # known part of i*scale*(LHS - RHS)
    coeff = 0  # the one unknown's coefficient in it
    for k in range(1, scale + 1):
        if scale % k == 0:
            g, n = table.power_of(name, k), (i // k) * (j // k)
            column = values[g]
            if n in column:
                const += i * (scale // k) * column[n]
            else:
                unknown.add((g, n))
                coeff += i * (scale // k)
    if len(unknown) > 1:
        return "pending", None
    key = next(iter(unknown), None)
    inside = key is not None and key[0] == name and key[1] < top - 1
    if inside and _squared(i, j, key[1]):
        return "pending", None
    at_zero = cells.cell(i, j, 0)
    const += scale * at_zero
    if key == (name, top):
        coeff -= i * scale
    elif inside:
        coeff += scale * (cells.cell(i, j, 1) - at_zero)
    if coeff == 0:  # no unknown, or one that cancels
        if const != 0:
            from fractions import Fraction

            broken = "is violated:" if key is None else f"cannot hold: {key} cancels but"
            raise ContradictionError(
                f"relation ({i},{j}) at class {name} {broken} sides differ by "
                f"{Fraction(const, i * scale)}"
            )
        return "verified", None
    # const + coeff * unknown = 0
    solved, rest = divmod(-const, coeff)
    if rest:  # refused at the end of the solve, unless a contradiction comes first
        from fractions import Fraction

        solved = Fraction(-const, coeff)
    return "fire", (key, solved)


class SolveResult(NamedTuple):
    """Everything the propagation run learned."""

    values: dict[tuple[str, int], int]
    unresolved: tuple[tuple[str, int], ...]
    provenance: dict[tuple[str, int], tuple[str, tuple[int, int], int]]
    passes: int


def _relation_targets(nmax: int) -> list[tuple[int, int]]:
    """All targets (i,j), 2 <= i <= j, with i*j <= 2*nmax.

    Products run up to twice the requested bound because odd indices are
    only reachable through larger targets (c(7) needs the (2,6) relation,
    whose own left side needs c(12) from (3,4), and so on).  The audit
    reads every target.  The solver runs the replication rows i <= 4 pass
    by pass (``_run_passes``) and sweeps the rows i >= 5 (``_sweep``).
    """
    out = []
    i = 2
    while i * i <= 2 * nmax:
        for j in range(i, 2 * nmax // i + 1):
            out.append((i, j))
        i += 1
    return out


def _run_passes(
    table: classes.ClassTable,
    pending: list,
    values: dict,
    cells: dict,
    provenance: dict,
    passno: int,
) -> tuple[list, int]:
    """Run the replication-row targets ``pending``, (class, i, j) with i <=
    4, to a fixpoint, numbering passes on from ``passno``.  Returns the
    targets still pending and the last pass number.

    All firings in a pass are evaluated against the values the pass started
    with, then committed together; two relations firing the same key must
    agree.  Each pass starts by updating the gaps of every class's
    ``cells``, so only the cells at or above a class's smallest gap are
    computed again, and only if its gaps moved.
    """
    while True:
        for store in cells.values():
            store.update()
        fired: dict[tuple[str, int], tuple] = {}
        keep = []
        for target in pending:
            name, i, j = target
            state, payload = _state(table, name, i, j, values, cells[name])
            if state == "verified":
                continue
            if state == "fire":
                key, solved = payload
                if key in fired:
                    prior_value, prior_name, (pi, pj) = fired[key]
                    if prior_value != solved:
                        raise ContradictionError(
                            f"{key[0]}({key[1]}) derived twice with different "
                            f"values: {prior_value} from relation "
                            f"({pi},{pj}) at class {prior_name} vs "
                            f"{solved} from relation ({i},{j}) at "
                            f"class {name}"
                        )
                else:
                    fired[key] = (solved, name, (i, j))
                continue  # satisfied by the value it just produced
            keep.append(target)
        if not fired:
            return keep, passno
        passno += 1
        for (g, n), (solved, name, ij) in fired.items():
            values[g][n] = solved
            provenance[(g, n)] = (name, ij, passno)
        pending = keep


def _sweep(
    table: classes.ClassTable, nmax: int, values: dict, cells: dict, provenance: dict, passno: int
) -> bool:
    """Evaluate every relation (i,j), 5 <= i <= j, i*j <= 2*nmax, with
    fewer than two unknown right keys, in class, then i, then j order.
    Each checks its keys or derives a lone unknown one as pass ``passno``,
    committed at once, as ``_run_passes`` classifies them.  The right sides
    read no index above ``reach``; a class's gaps are updated when the
    sweep reaches it, and again when it derives one of its two smallest
    gaps at or below ``reach``.  Returns whether it derived anything.
    """
    top = 2 * nmax
    reach = top // 5 + 4  # c_g(i+j-1) at (5, top // 5)
    derived = False
    for name in table.names:
        store = cells[name]
        store.update()
        for i in range(5, isqrt(top) + 1):
            j = i
            while j <= min(top // i, store.gaps[2] - i):
                state, payload = _state(table, name, i, j, values, store)
                if state == "fire":
                    (g, n), solved = payload
                    values[g][n] = solved
                    provenance[(g, n)] = (name, (i, j), passno)
                    derived = True
                    if g == name and n < store.gaps[2] and n <= reach:
                        store.update()
                j += 1
    return derived


def solve_from_seeds(table: classes.ClassTable, nmax: int) -> SolveResult:
    """Derive coefficients from seed data by monotone propagation.

    A relation fires only when exactly one unknown remains and it occurs
    linearly with a nonzero constant coefficient; the solved value must be
    an integer.  Relations whose terms are all known act as consistency
    checks; any violation, tie disagreement, or non-integer answer raises
    ContradictionError rather than guessing.  The replication rows run to
    a fixpoint, then ``_sweep`` evaluates the rows i >= 5; the two
    alternate until the sweep derives nothing.  No relation is built.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    values: dict[str, dict[int, series.Coeff]] = {name: {} for name in table.orders}
    for (name, n), value in table.seeds.items():
        if name not in values:
            raise ValueError(f"seed for undeclared class {name!r}")
        if type(value) is not int:  # the cells multiply normalized values
            from fractions import Fraction

            value = Fraction(value)
            value = value.numerator if value.denominator == 1 else value
        values[name][n] = value
    provenance: dict[tuple[str, int], tuple[str, tuple[int, int], int]] = {}
    cells = {name: _Cells(values[name]) for name in table.names}
    pending = [
        (name, i, j) for name in table.names for i, j in _relation_targets(nmax) if i <= 4
    ]
    passes = 0
    while True:
        pending, passes = _run_passes(table, pending, values, cells, provenance, passes)
        if not _sweep(table, nmax, values, cells, provenance, passes + 1):
            break
        passes += 1
    clean: dict[tuple[str, int], int] = {}
    for name, n in [*table.seeds, *provenance]:  # seeds, then derivation order
        value = values[name][n]
        if not isinstance(value, int):  # a normalized value: a non-integral Fraction
            raise ContradictionError(
                f"{name}({n}) solved to non-integer {value}"
            )
        clean[(name, n)] = value
    unresolved = tuple(
        (name, n)
        for name in table.names
        for n in range(1, nmax + 1)
        if (name, n) not in clean
    )
    return SolveResult(clean, unresolved, provenance, passes)


class AuditReport(NamedTuple):
    """Which indices the relation system cannot derive on its own."""

    nmax: int
    introduced: tuple[tuple[str, int], ...]

    def underivable(self, name: str) -> tuple[int, ...]:
        return tuple(n for g, n in self.introduced if g == name)


def determinacy_audit(table: classes.ClassTable, nmax: int) -> AuditReport:
    """Find the indices the relations cannot determine from no data at all.

    Forward chaining runs the Horn clauses of every relation target at
    every class to a fixpoint (see the module docstring); the smallest
    still-unknown index (ties broken by class declaration order) is then
    introduced as an opaque symbol and chaining resumes.  For the
    modular-invariant data the introduced indices come out to {1, 2, 3, 5}.
    Each class keeps K_g, the largest index with c_g(1..K_g) all known, and
    the relation at (i,j) of class g is (g, i+j-3, lone keys): it waits
    while K_g < i+j-3, then fires if exactly one lone key is unknown, and
    is dropped once it has fired or all its lone keys are known.

    The module docstring shows this exact for symbolic values, but for a
    derived sum cancelling to a constant; none does on 1A to 30, the
    catalog to 14, or its subsets {1A,2B}, {1A,3B}, {1A,2B,4C} to 16.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    order = {name: idx for idx, name in enumerate(table.names)}
    known: dict[str, set[int]] = {name: set() for name in table.names}
    prefix = dict.fromkeys(table.names, 0)  # K_g

    def learn(g: str, n: int) -> None:
        known[g].add(n)
        while prefix[g] + 1 in known[g]:
            prefix[g] += 1

    clauses = [  # lone keys: c_g(i+j-1) and the left keys c_{g^k}(ij/k^2)
        (name, i + j - 3, {(name, i + j - 1)} | {
            (table.power_of(name, k), i * j // k**2) for k in range(1, i + 1) if i % k == j % k == 0
        })
        for name in table.names
        for i, j in _relation_targets(nmax)
    ]
    introduced: list[tuple[str, int]] = []
    while True:
        keep, grew = [], False
        for clause in clauses:
            name, tangled, lone = clause
            if prefix[name] >= tangled:
                unknown = [(g, n) for g, n in lone if n not in known[g]]
                if len(unknown) == 1:
                    learn(*unknown[0])
                    grew = True
                if len(unknown) < 2:
                    continue
            keep.append(clause)
        clauses = keep
        if grew:
            continue  # chain to a fixpoint before introducing a symbol
        n, _, name = min((prefix[g] + 1, order[g], g) for g in table.names)
        if n > nmax:
            break
        introduced.append((name, n))
        learn(name, n)
    return AuditReport(nmax, tuple(sorted(introduced, key=lambda t: (order[t[0]], t[1]))))
