"""Coefficient recursions from the Euler-Poincare identity.

Reading off the coefficient of p^i q^j in the identity gives, for every
target (i,j), one polynomial relation among trace coefficients:

    sum_{k | gcd(i,j)} (1/k) c_{g^k}(ij/k^2)
        = sum over multisets of cells (r,s) summing to (i,j) of
          ((|a|-1)!/a!) prod c_g(r+s-1)^{a_rs}.

Relations are stored compressed: the right side is grouped by the multiset
of index values r+s-1, with the count of cell-level decompositions folded
into one weight.  This keeps relation sizes around the partition count of
i+j instead of the (vastly larger) count of cell matrices, while remaining
term-for-term equivalent to the brute enumeration of those matrices, which
the tests keep as the oracle.  The multisets come from one depth-first walk
over the partitions of i+j (see ``_weight_terms``).

Every relation is stored multiplied by ``scale`` = gcd(i,j), and then all
its weights are integers.  On the left, 1/k has k | gcd(i,j).  On the
right, a weight is a count of ordered decompositions into M cells divided
by M; rotating a decomposition, an orbit of size d repeats a block M/d
times, so M/d divides gcd(i,j) and each orbit contributes 1/(M/d).

Three consumers read the relations: the Mobius-inverted closed form for
c_g(ij), a monotone propagation solver that derives coefficients from seed
data (every derived value carries the relation that produced it, and
disagreeing derivations are a hard error), and a structural determinacy
audit that finds which indices are genuinely underivable.  None builds a
relation; each reads its shape, and the first two the log(1 - U) rows.

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
p^m q^n, so one ``log1m_rows`` run per class gives every right side at
once.  The closed form reads layer k at (i/k, j/k) from one run for g^k.
The solver classifies each relation from the shape and takes its values
from those rows (``_state``).  The replication rows i = 2, 3, 4 determine
every coefficient from c(1), c(2), c(3), c(5) (Norton 1984):
they run pass by pass to a fixpoint, with the rows of each class rebuilt
per pass.  Then one sweep evaluates every relation i >= 5 with fewer than
two unknown right keys (``_sweep``): it checks those whose keys are all
known and derives a lone unknown key, which no replication row may reach
(c_g(35) at nmax 30, or c_g(25) from (5,5), which skips c_g(8)).  The
two alternate until the sweep derives nothing.
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

from fractions import Fraction
from functools import cache
from itertools import count, islice
from math import factorial, gcd, isqrt
from typing import NamedTuple

from .classes import ClassTable, CoefficientFamily, MissingCoefficients
from .series import format_coeff, log1m_rows, mobius

__all__ = [
    "Relation",
    "coefficient_relation",
    "coefficient_recursion",
    "CrossCheckReport",
    "recursion_cross_check",
    "ContradictionError",
    "SolveResult",
    "solve_from_seeds",
    "AuditReport",
    "determinacy_audit",
]


# ---------------------------------------------------------------------------
# compressed relations


class Relation(NamedTuple):
    """The coefficient-of-p^i q^j relation, canonicalized to i <= j and
    multiplied by ``scale`` = gcd(i,j), which makes every weight an ``int``.

    ``lhs``: terms (k, n, scale // k) meaning (scale/k) * c_{g^k}(n), one per
    divisor k of gcd(i,j), with n = ij/k^2.
    ``rhs``: terms (weight, ((v1, e1), (v2, e2), ...)) meaning
    weight * prod c_g(v)^e, already aggregated over all cell decompositions
    sharing the same index-value multiset.
    """

    target: tuple[int, int]
    scale: int
    lhs: tuple[tuple[int, int, int], ...]
    rhs: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]


def _weight_terms(
    i: int, j: int, scale: int
) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """Compressed right side for target (i,j), times ``scale``.

    For a fixed multiset of index values v (with multiplicities m_v) the sum
    of (|a|-1)!/a! over all matching cell decompositions collapses to

        (M-1)!/prod(m_v!) * [x^i] prod_v (x + x^2 + ... + x^v)^{m_v},

    where M = sum m_v: distributing each value-v part over its v candidate
    cells (r, v+1-r) is exactly choosing the exponent of x, and the
    cell-level factorials assemble into the polynomial coefficient.  The
    multisets are the partitions of i+j into parts p = v+1 >= 2 with at most
    min(i,j) parts, walked depth first with parts descending.  The walk
    carries the truncated polynomial and prod m_v!, so partitions sharing a
    prefix share its work, and it drops a prefix whose remainder cannot be
    filled by the parts still allowed.  M!/prod(m_v!) * [x^i](...) counts
    ordered sequences of M cells, so the division by M is exact (see the
    module docstring).
    """
    terms: list[tuple[int, tuple[tuple[int, int], ...]]] = []
    cap = min(i, j)
    parts: list[tuple[int, int]] = []  # (v, m_v), v descending

    def walk(remaining: int, max_part: int, count: int, poly: list[int], fact: int) -> None:
        if remaining == 0:
            weight = factorial(count) // fact * poly[i] * scale // count
            terms.append((weight, tuple(reversed(parts))))
            return
        for p in range(min(max_part, remaining), 1, -1):
            if remaining > (cap - count) * p:
                break  # parts of at most p cannot fill what is left
            power = poly
            for mult in range(1, min(cap - count, remaining // p) + 1):
                run = 0  # power * (x + ... + x^(p-1)), a running sum
                power = [0] + [
                    run := run + power[d - 1] - (power[d - p] if d >= p else 0)
                    for d in range(1, i + 1)
                ]
                left = remaining - mult * p
                if left == 1 or left > (cap - count - mult) * (p - 1):
                    continue
                parts.append((p - 1, mult))
                walk(left, p - 1, count + mult, power, fact * factorial(mult))
                parts.pop()

    walk(i + j, i + j, 0, [1] + [0] * i, 1)
    terms.sort(key=lambda t: t[1])
    return tuple(terms)


def coefficient_relation(i: int, j: int) -> Relation:
    """The relation at target (i,j); (i,j) and (j,i) canonicalize equal.

    The canonical target has i <= j, its scale is gcd(i,j), and its left
    side has one term per common divisor k: (k, ij/k^2, scale // k).
    """
    if i < 1 or j < 1:
        raise ValueError("target components must be >= 1")
    i, j = min(i, j), max(i, j)
    scale = gcd(i, j)
    lhs = tuple(
        (k, (i // k) * (j // k), scale // k)
        for k in range(1, scale + 1)
        if scale % k == 0
    )
    return Relation((i, j), scale, lhs, _weight_terms(i, j, scale))


# ---------------------------------------------------------------------------
# closed form


def coefficient_recursion(
    family: CoefficientFamily, name: str, i: int, j: int
) -> int:
    """c_g(ij) by Mobius inversion over the divisor tower of (i,j):

    i * c_g(ij) = -sum_{k | gcd(i,j), mu(k) != 0} mu(k) * M^{(g^k)}_{i/k}[j/k],

    where M^{(h)} are the rows of log(1 - U_h) (``log1m_rows``), whose cell
    (a,b) is -a times the right side of the relation at (a,b).  That cell
    reads c_{g^k}(1..a+b-3) and c_{g^k}(a+b-1), a = i/k <= b = j/k (only
    c_{g^k}(b) when a = 1); every such key the family lacks is reported
    before any arithmetic, and the rows read other missing keys as 0.
    """
    if i < 2 or j < 2:
        raise ValueError("closed form needs i, j >= 2")
    i, j = min(i, j), max(i, j)
    layers = [
        (mu, family.table.power_of(name, k), i // k, j // k)
        for k in range(1, gcd(i, j) + 1)
        if i % k == 0 and j % k == 0 and (mu := mobius(k))
    ]
    missing = [
        (g, v)
        for _, g, a, b in layers
        for v in [*range(1, a + b - 2 if a > 1 else 1), a + b - 1]
        if not family.known(g, v)
    ]
    if missing:
        raise MissingCoefficients(missing)
    total = 0  # i * c_g(ij)
    for mu, g, a, b in layers:
        column = family.values[g]
        u = [{}] + [
            {n: c for n in range(1, b + 1) if (c := column.get(m + n - 1))}
            for m in range(1, a + 1)
        ]
        total -= mu * log1m_rows(u, [b] * (a + 1))[a].get(b, 0)
    result, rest = divmod(total, i)
    if rest:
        raise RuntimeError(
            f"closed form for c_{name}({i * j}) came out non-integer: {Fraction(total, i)}"
        )
    return result


class CrossCheckReport(NamedTuple):
    """Closed form vs stored values over all factorizations of each n."""

    name: str
    nmax: int
    checks: int
    failures: tuple[tuple[int, int, int, int, int], ...]
    # each failure: (n, i, j, stored value, derived value)

    @property
    def ok(self) -> bool:
        return not self.failures


def recursion_cross_check(
    family: CoefficientFamily, name: str, nmax: int
) -> CrossCheckReport:
    """Evaluate the closed form at every factorization n = i*j, i,j >= 2.

    Comparing every factorization against the stored value also certifies
    multi-factorization consistency (all routes to the same n agree).
    """
    checks = 0
    failures: list[tuple[int, int, int, int, int]] = []
    for n in range(4, nmax + 1):
        for i in range(2, n + 1):
            if i * i > n:
                break
            if n % i:
                continue
            j = n // i
            derived = coefficient_recursion(family, name, i, j)
            stored = family.value(name, n)
            checks += 1
            if derived != stored:
                failures.append((n, i, j, stored, derived))
    return CrossCheckReport(name, nmax, checks, tuple(failures))


# ---------------------------------------------------------------------------
# propagation solver


class ContradictionError(Exception):
    """Two derivations (or a seed and a derivation) disagree."""


def _squared(i: int, j: int, v: int) -> bool:
    """Whether c_g(v), v <= i+j-3, occurs squared in the relation at target
    (i,j), 2 <= i <= j: part v+1 occurs twice (see the module docstring)."""
    rest = i + j - 2 * (v + 1)
    return rest == 0 or (rest >= 2 and i >= 3)


def _log_rows(column: dict, top: int, first: int, last: int, cut: int):
    """One class's gaps and rows: the three smallest indices missing from
    its {index: value} ``column``, and ``rows(x)``, the rows M_0..M_last of
    log(1 - U_g) (``log1m_rows``) with u_m[n] = c_g(m+n-1), c_g(gaps[0])
    read as x and every other unknown as 0.  Row m >= ``first`` is cut at
    q <= min(top // m, gaps[cut] - m), and the rows below it at row
    ``first``'s ceiling.  Each run is made once, when first asked for."""
    gaps = tuple(islice((n for n in count(1) if n not in column), 3))
    ceilings = [min(top // max(m, first), gaps[cut] - max(m, first)) for m in range(last + 1)]
    v = gaps[0]

    @cache
    def rows(x: int) -> list[dict]:
        u = [{}] + [
            {n: c for n in range(1, ceilings[m] + 1) if (c := column.get(m + n - 1))}
            for m in range(1, last + 1)
        ]
        if x:
            for m in range(1, min(v, last) + 1):
                if v - m + 1 <= ceilings[m]:
                    u[m][v - m + 1] = x
        return log1m_rows(u, ceilings)

    return gaps, rows


def _state(table: ClassTable, name: str, i: int, j: int, values: dict, gaps, rows):
    """Classify the relation at target (i,j), 2 <= i <= j, at class ``name``.

    ``values`` holds one {index: value} dict per class; ``gaps`` and
    ``rows`` come from ``_log_rows`` of class ``name``, and row i must reach
    q^j whenever i+j-1 < gaps[2].  Returns ("verified", None), ("pending",
    None), or ("fire", (key, solved_value)), the value an ``int`` when
    integral; a violated relation raises ContradictionError.

    The relation reads the left keys c_{g^k}(ij/k^2), c_g(1..i+j-3) inside
    products and c_g(i+j-1) alone (see the module docstring), so the gaps
    name every unknown right key of a relation with fewer than two.  It is
    pending with two distinct unknown keys, or with one unknown c_g(v), v
    <= i+j-3, that occurs squared (``_squared``).  Otherwise i*scale*(LHS -
    RHS) = i * sum_k (scale/k) c_{g^k}(ij/k^2) + scale*M_i[j] is linear in
    its unknown, read as 0 in ``rows(0)``.  The lone c_g(i+j-1) has the
    coefficient -i*scale.  An unknown inside products is the smallest gap,
    as every index below it is a known key; its coefficient is scale times
    M_i[j] at c_g(v) = 1 minus at 0.  Both add to the left term's i*scale/k
    when that term reads the same key.
    """
    top = i + j - 1
    unknown = {(name, v) for v in gaps if v <= top and v != top - 1}
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
    at_zero = rows(0)[i].get(j, 0)
    const += scale * at_zero
    if key == (name, top):
        coeff -= i * scale
    elif inside:
        coeff += scale * (rows(1)[i].get(j, 0) - at_zero)
    if coeff == 0:  # no unknown, or one that cancels
        if const != 0:
            broken = "is violated:" if key is None else f"cannot hold: {key} cancels but"
            raise ContradictionError(
                f"relation ({i},{j}) at class {name} {broken} sides differ by "
                f"{format_coeff(Fraction(const, i * scale))}"
            )
        return "verified", None
    # const + coeff * unknown = 0
    solved = Fraction(-const, coeff)
    return "fire", (key, solved.numerator if solved.denominator == 1 else solved)


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
    table: ClassTable, nmax: int, pending: list, values: dict, provenance: dict, passno: int
) -> tuple[list, int]:
    """Run the replication-row targets ``pending``, (class, i, j) with i <=
    4, to a fixpoint, numbering passes on from ``passno``.  Returns the
    targets still pending and the last pass number.

    All firings in a pass are evaluated against the values the pass started
    with, then committed together; two relations firing the same key must
    agree.  A pass reads the rows of each class from one ``_log_rows``, cut
    where a relation with fewer than two unknowns reaches: row m at q <=
    min(2*nmax // m, gaps[2] - m).
    """
    top = 2 * nmax
    while True:
        rows = {name: _log_rows(values[name], top, 2, 4, 2) for name in table.names}
        fired: dict[tuple[str, int], tuple] = {}
        keep = []
        for target in pending:
            name, i, j = target
            state, payload = _state(table, name, i, j, values, *rows[name])
            if state == "verified":
                continue
            if state == "fire":
                key, solved = payload
                if key in fired:
                    prior_value, prior_name, (pi, pj) = fired[key]
                    if prior_value != solved:
                        raise ContradictionError(
                            f"{key[0]}({key[1]}) derived twice with different "
                            f"values: {format_coeff(prior_value)} from relation "
                            f"({pi},{pj}) at class {prior_name} vs "
                            f"{format_coeff(solved)} from relation ({i},{j}) at "
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


def _sweep(table: ClassTable, nmax: int, values: dict, provenance: dict, passno: int) -> bool:
    """Evaluate every relation (i,j), 5 <= i <= j, i*j <= 2*nmax, with
    fewer than two unknown right keys, in class, then i, then j order.
    Each checks its keys or derives a lone unknown one as pass ``passno``,
    committed at once, as ``_run_passes`` classifies them.  Row m is cut
    at q <= min(2*nmax // m, gaps[2] - m), so the rows and the right sides
    read no index above ``reach``; a class's gaps and rows are rebuilt when
    it derives one of its two smallest gaps at or below it.  Returns
    whether it derived anything.
    """
    top = 2 * nmax
    reach = top // 5 + 4  # c_g(i+j-1) at (5, top // 5)
    derived = False
    for name in table.names:
        gaps, rows = _log_rows(values[name], top, 5, isqrt(top), 2)
        for i in range(5, isqrt(top) + 1):
            j = i
            while j <= min(top // i, gaps[2] - i):
                state, payload = _state(table, name, i, j, values, gaps, rows)
                if state == "fire":
                    (g, n), solved = payload
                    values[g][n] = solved
                    provenance[(g, n)] = (name, (i, j), passno)
                    derived = True
                    if g == name and n < gaps[2] and n <= reach:
                        gaps, rows = _log_rows(values[name], top, 5, isqrt(top), 2)
                j += 1
    return derived


def solve_from_seeds(table: ClassTable, nmax: int) -> SolveResult:
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
    values: dict[str, dict[int, int | Fraction]] = {name: {} for name in table.orders}
    for (name, n), value in table.seeds.items():
        if name not in values:
            raise ValueError(f"seed for undeclared class {name!r}")
        value = Fraction(value)  # the rows multiply normalized values
        values[name][n] = value.numerator if value.denominator == 1 else value
    provenance: dict[tuple[str, int], tuple[str, tuple[int, int], int]] = {}
    pending = [
        (name, i, j) for name in table.names for i, j in _relation_targets(nmax) if i <= 4
    ]
    passes = 0
    while True:
        pending, passes = _run_passes(table, nmax, pending, values, provenance, passes)
        if not _sweep(table, nmax, values, provenance, passes + 1):
            break
        passes += 1
    clean: dict[tuple[str, int], int] = {}
    for name, n in [*table.seeds, *provenance]:  # seeds, then derivation order
        value = values[name][n]
        if Fraction(value).denominator != 1:
            raise ContradictionError(
                f"{name}({n}) solved to non-integer {format_coeff(value)}"
            )
        clean[(name, n)] = int(value)
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


def determinacy_audit(table: ClassTable, nmax: int) -> AuditReport:
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
