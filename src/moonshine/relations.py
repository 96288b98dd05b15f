"""The compressed coefficient relations and the closed form, as oracles.

Reading off the coefficient of p^i q^j in the Euler-Poincare identity gives
one polynomial relation per target (i,j) (see ``recursion``).  This module
builds those relations, and inverts the identity by Mobius inversion into
a closed form for c_g(ij).  No command runs it: ``derive`` solves and
audits from the relations' shape, without building one.  The tests check
the solver, the audit and the stored expansions against what is built
here, and demo 03 prints it.

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

The closed form reads layer k at (i/k, j/k) from the cell store of g^k
(``recursion._Cells``, read through the module at each call).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, gcd
from typing import NamedTuple

# the layers are read through their modules: a call runs only those it reads
from . import classes, recursion, series

__all__ = [
    "Relation",
    "coefficient_relation",
    "coefficient_recursion",
    "CrossCheckReport",
    "recursion_cross_check",
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


def _closed_form(family: classes.CoefficientFamily, name: str, i: int, j: int, cells) -> int:
    """``coefficient_recursion`` at 2 <= i <= j, reading layer k's cell
    M_a[b] at x = 0 from ``cells(g^k)``, a ``recursion._Cells`` store.  With
    the keys known, a+b-2 is the only index <= a+b-1 that may be missing, so
    a+b-1 < gaps[2].  At a = 1, M_1[b] = -c_{g^k}(b) is read from the
    column, which may have more holes below b."""
    layers = [
        (mu, family.table.power_of(name, k), i // k, j // k)
        for k in range(1, gcd(i, j) + 1)
        if i % k == 0 and j % k == 0 and (mu := series.mobius(k))
    ]
    missing = [
        (g, v)
        for _, g, a, b in layers
        for v in [*range(1, a + b - 2 if a > 1 else 1), a + b - 1]
        if not family.known(g, v)
    ]
    if missing:
        raise classes.MissingCoefficients(missing)
    total = 0  # i * c_g(ij)
    for mu, g, a, b in layers:
        total -= mu * (-family.values[g][b] if a == 1 else cells(g).cell(a, b, 0))
    result, rest = divmod(total, i)
    if rest:
        raise RuntimeError(
            f"closed form for c_{name}({i * j}) came out non-integer: {Fraction(total, i)}"
        )
    return result


def coefficient_recursion(
    family: classes.CoefficientFamily, name: str, i: int, j: int
) -> int:
    """c_g(ij) by Mobius inversion over the divisor tower of (i,j):

    i * c_g(ij) = -sum_{k | gcd(i,j), mu(k) != 0} mu(k) * M^{(g^k)}_{i/k}[j/k],

    where M^{(h)} are the rows of log(1 - U_h) (``log1m_rows``), whose cell
    (a,b) is -a times the right side of the relation at (a,b).  That cell
    reads c_{g^k}(1..a+b-3) and c_{g^k}(a+b-1), a = i/k <= b = j/k (only
    c_{g^k}(b) when a = 1); every such key the family lacks is reported
    before any arithmetic, and the cells (``recursion._Cells``) read other missing
    keys as 0.
    """
    if i < 2 or j < 2:
        raise ValueError("closed form needs i, j >= 2")
    i, j = min(i, j), max(i, j)
    return _closed_form(family, name, i, j, cache(lambda g: recursion._Cells(family.values[g])))


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
    family: classes.CoefficientFamily, name: str, nmax: int
) -> CrossCheckReport:
    """Evaluate the closed form at every factorization n = i*j, i,j >= 2.

    Comparing every factorization against the stored value also certifies
    multi-factorization consistency (all routes to the same n agree).  Each
    class read keeps one cell store (``recursion._Cells``) for every factorization,
    so a cell is computed once; a factorization with missing keys raises
    before it reads them, as ``coefficient_recursion`` does.
    """
    cells = cache(lambda g: recursion._Cells(family.values[g]))
    checks = 0
    failures: list[tuple[int, int, int, int, int]] = []
    for n in range(4, nmax + 1):
        for i in range(2, n + 1):
            if i * i > n:
                break
            if n % i:
                continue
            j = n // i
            derived = _closed_form(family, name, i, j, cells)
            stored = family.value(name, n)
            checks += 1
            if derived != stored:
                failures.append((n, i, j, stored, derived))
    return CrossCheckReport(name, nmax, checks, tuple(failures))
