"""Root-lattice layer of the monster Lie algebra.

The algebra is graded by the rank-two Lorentzian lattice with pairing
<(m,n),(m',n')> = -(mn' + nm'); its simple roots are (1,-1) once and (1,n)
with multiplicity c(n) for n >= 1, where c are the normalized modular
invariant coefficients.  This module exposes the pairing, the simple-root
bookkeeping (including single-entry probes into the multiplicity-expanded
generalized Cartan matrix, whose blocks are far too large to materialize),
root multiplicities, and the generalized Witt formula giving the graded
dimensions of the free Lie algebra on generators of dimension c(m+n-1) at
(m,n), from the log of their character — together with an independent
product oracle so the Witt route never has to be trusted on its own.
Multiplicities are read with ``operator.index``, so a coefficient source
with a non-integral value raises ``TypeError`` instead of being truncated.
"""

from __future__ import annotations

import math
from operator import index as _index
from typing import NamedTuple

# the layers are read through their modules: a call runs only those it reads
from . import modular, series

__all__ = [
    "LatticeVector",
    "gram",
    "simple_roots",
    "expanded_root",
    "gram_entry",
    "build_matrix",
    "CartanReport",
    "cartan_conditions",
    "root_multiplicity",
    "GradedDims",
    "witt_dims",
    "dimension_product",
    "ProductReport",
    "denominator_order",
    "denominator_sides",
    "denominator_identity_report",
]


class LatticeVector(NamedTuple):
    m: int
    n: int


def gram(a: LatticeVector, b: LatticeVector) -> int:
    """Lorentzian pairing -(m n' + n m')."""
    return -(a.m * b.n + a.n * b.m)


def simple_roots(nmax: int, c: series.UniSeries) -> tuple[tuple[LatticeVector, int], ...]:
    """The roots (1,-1) x 1 and (1,n) x c(n) for 1 <= n <= nmax, as
    (vector, multiplicity) pairs in that order.

    There is no root at (1,0): the constant coefficient vanishes by
    normalization.
    """
    if nmax < -1:
        raise ValueError("nmax must be >= -1")
    entries: list[tuple[LatticeVector, int]] = [(LatticeVector(1, -1), 1)]
    for n in range(1, nmax + 1):
        entries.append((LatticeVector(1, n), _index(c.coeff(n))))
    return tuple(entries)


def expanded_root(index: int, c: series.UniSeries) -> LatticeVector:
    """The index-th root (0-based) of the multiplicity-expanded list.

    Index 0 is (1,-1); indices 1..c(1) are copies of (1,1); the next c(2)
    are copies of (1,2); and so on.  Only the coefficients up to the level
    actually reached are consulted, so probing the far interior of the
    expanded matrix stays cheap.
    """
    if index < 0:
        raise ValueError("root index must be >= 0")
    if index == 0:
        return LatticeVector(1, -1)
    remaining = index - 1
    n = 1
    while True:
        if n > c.hi:
            raise ValueError(
                f"coefficient source only known to order {c.hi}; "
                f"root index {index} lies beyond it"
            )
        mult = _index(c.coeff(n))
        if remaining < mult:
            return LatticeVector(1, n)
        remaining -= mult
        n += 1


def gram_entry(i: int, j: int, c: series.UniSeries) -> int:
    """Single entry of the expanded Gram matrix, without building it."""
    return gram(expanded_root(i, c), expanded_root(j, c))


def build_matrix(count: int) -> list[list[int]]:
    """Block-value truncation of the simple-root Gram matrix.

    The full matrix has one row per individual simple root and is constant
    on blocks, because two roots at the same level pair the same way with
    everything.  Row i here stands for the whole block at level n_i (-1,
    then 1, 2, ...), so entry (i, j) is the value filling block (i, j) of
    the expanded matrix; ``gram_entry`` probes the expanded matrix itself.
    The multiplicities of ``normalized_j`` are consulted only to insist that
    each displayed level actually occurs.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    levels = [-1] + list(range(1, count))
    c = modular.normalized_j(max(levels[-1], 1))
    for n in levels:
        if root_multiplicity(1, n, c) == 0:
            raise ValueError(f"level {n} has no simple roots")
    reps = [LatticeVector(1, n) for n in levels]
    return [[gram(a, b) for b in reps] for a in reps]


class CartanReport(NamedTuple):
    """Outcome of the generalized-Cartan-matrix conditions.

    The three checks: the matrix is symmetric; off-diagonal entries are
    nonpositive; and every row with positive diagonal a_ii has
    2 a_ij / a_ii integral for all j.
    """

    symmetric: bool
    off_diagonal_nonpositive: bool
    ratios_integral: bool
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.symmetric and self.off_diagonal_nonpositive and self.ratios_integral


def cartan_conditions(matrix: list[list[series.Coeff]]) -> CartanReport:
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix must be square")
    violations: list[str] = []
    symmetric = True
    nonpositive = True
    integral = True
    for i in range(size):
        for j in range(size):
            if matrix[i][j] != matrix[j][i]:
                symmetric = False
                violations.append(f"asymmetry at ({i},{j})")
            if i != j and matrix[i][j] > 0:
                nonpositive = False
                violations.append(f"positive off-diagonal at ({i},{j})")
        if matrix[i][i] > 0:
            for j in range(size):
                if (2 * matrix[i][j]) % matrix[i][i]:
                    integral = False
                    violations.append(f"non-integral ratio at ({i},{j})")
    return CartanReport(symmetric, nonpositive, integral, tuple(violations[:20]))


def root_multiplicity(m: int, n: int, c: series.UniSeries) -> int:
    """dim of the (m,n) graded piece: c(mn), except 2 at the origin."""
    if (m, n) == (0, 0):
        return 2
    level = m * n
    if level > c.hi:
        raise ValueError(
            f"coefficient source only known to order {c.hi}, need {level}"
        )
    return _index(c.coeff(level))


# ---------------------------------------------------------------------------
# generalized Witt formula


class GradedDims(NamedTuple):
    """Integer dimensions on the grid [1..mmax] x [1..nmax]."""

    dims: dict[tuple[int, int], int]
    mmax: int
    nmax: int

    def dim(self, m: int, n: int) -> int:
        if not (1 <= m <= self.mmax and 1 <= n <= self.nmax):
            raise ValueError(f"({m},{n}) outside the computed grid")
        return self.dims.get((m, n), 0)


def witt_dims(mmax: int, nmax: int, c: series.UniSeries) -> GradedDims:
    """Free-Lie-algebra dimensions for generators of dim c(m+n-1) at (m,n).

    The generator character is U = sum c(m+n-1) p^m q^n.  The dimensions
    come from Mobius inversion of the denominator product:  sum dims =
    -sum_{k>=1} (mu(k)/k) log(1 - U(p^k,q^k)).  Since log(1 - U(p^k,q^k)) =
    (log(1 - U))(p^k,q^k), the log is taken once, as the rows M_m = m L_m
    of :func:`series.log1m_rows`, and each cell reads them at its divisors:

        dims(m, n) = -(1/m) sum_{k | gcd(m,n)} mu(k) M_{m/k}[n/k].

    Row m is minus the q^1.. part of the m-th Faber polynomial of
    J = q^-1 + sum c(n) q^n (one kernel product per row), so the product
    oracle, :func:`dimension_product`, stays independent of it.
    """
    if mmax < 1 or nmax < 1:
        raise ValueError("window bounds must be >= 1")
    need = mmax + nmax - 1
    if c.hi < need:
        raise ValueError(f"coefficient source only known to order {c.hi}, need {need}")
    big_m = series.log1m_rows({n: c.coeff(n) for n in range(1, need + 1)}, mmax, nmax)
    mu = [0] + [series.mobius(k) for k in range(1, min(mmax, nmax) + 1)]
    dims: dict[tuple[int, int], int] = {}
    for m in range(1, mmax + 1):
        for n in range(1, nmax + 1):
            g = math.gcd(m, n)
            total = sum(
                mu[k] * big_m[m // k][n // k]
                for k in range(1, g + 1)
                if mu[k] and g % k == 0
            )
            value, rest = divmod(-total, m)
            if rest:
                from fractions import Fraction

                raise RuntimeError(
                    f"generalized Witt formula produced non-integer "
                    f"{Fraction(-total, m)} at ({m},{n})"
                )
            if value:
                dims[(m, n)] = value
    return GradedDims(dims, mmax, nmax)


# ---------------------------------------------------------------------------
# denominator identity


class ProductReport(NamedTuple):
    """Coefficient-wise comparison of the two sides of the product formula."""

    pmax: int
    qmin: int  # -pmax: the q floor verify-product prints, part of its stdout contract
    qmax: int
    mismatches: tuple[tuple[int, int, series.Coeff, series.Coeff], ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def denominator_order(pmax: int, qmax: int) -> int:
    """The q-order of J that :func:`denominator_sides` expands."""
    return max(pmax * (qmax + 1), qmax, pmax - 1)


def denominator_sides(pmax: int, qmax: int) -> tuple[series.BiSeries, series.BiSeries]:
    """Both sides of  p(J(p) - J(q)) = (1 - pq^-1) prod (1-p^i q^j)^c(ij)
    up to p^pmax and q^qmax.

    Both sides reach below q^0 only through their p q^-1 term, which is
    stored like any other; the window is the two ceilings.

    The product over i,j >= 1 is expanded ray by ray on one row-major
    integer grid (:func:`_product_grid`), in integer binomials: factors
    with i > pmax or j > qmax + 1 cannot touch the window, so the finite
    product is exact there.  The 1 - pq^-1 prefactor is then applied in
    place: every term also subtracts itself one step along (1, -1).  That
    step pulls the extra q-row (qmax + 1) of the product back into the
    window, and the row itself is dropped.
    """
    if pmax < 1 or qmax < 1:
        raise ValueError("window bounds must be >= 1")
    c = modular.normalized_j(denominator_order(pmax, qmax))

    cells: dict[tuple[int, int], series.Coeff] = {}
    for n in range(-1, pmax):  # p J(p) = sum c(n) p^{n+1}
        value = c.coeff(n)
        if value:
            cells[(n + 1, 0)] = cells.get((n + 1, 0), 0) + value
    for n in range(-1, qmax + 1):  # -p J(q)
        value = c.coeff(n)
        if value:
            cells[(1, n)] = cells.get((1, n), 0) - value
    lhs = series.BiSeries(cells, pmax, qmax)

    mults = {
        (i, j): c.coeff(i * j)
        for i in range(1, pmax + 1)
        for j in range(1, qmax + 2)
    }
    grid = _product_grid(GradedDims(mults, pmax, qmax + 1))
    width = qmax + 2
    # last index first, so each term moves before any lands on it.  Every
    # factor has i, j >= 1, so no term but the constant (placed below, at
    # p q^-1) sits at q^0, whose step would wrap to the end of its own row.
    for x in range(pmax * width - 1, 0, -1):
        v = grid[x]
        if v:
            grid[x + width - 1] -= v
    rhs = {divmod(x, width): v for x, v in enumerate(grid) if v and x % width <= qmax}
    rhs[(1, -1)] = -grid[0]
    return lhs, series.BiSeries(rhs, pmax, qmax)


def denominator_identity_report(pmax: int, qmax: int) -> ProductReport:
    """Compare the two sides coefficient-by-coefficient; exact throughout."""
    lhs, rhs = denominator_sides(pmax, qmax)
    return ProductReport(pmax, -pmax, qmax, tuple(lhs.mismatches(rhs)))


def dimension_product(dims: GradedDims) -> series.BiSeries:
    """prod (1 - p^m q^n)^{d_mn}, expanded ray by ray in binomials.

    Each factor is a finite binomial sum, so this route is independent of
    logs and Mobius inversion; for a correct dimension table it must return
    exactly 1 - (character of the generators).  Every dimension is checked
    before any expansion, so a negative one, or one outside m, n >= 1, is
    reported at its first cell in (m, n) order.
    """
    width = dims.nmax + 1
    grid = _product_grid(dims)
    cells = {divmod(x, width): v for x, v in enumerate(grid) if v}
    return series.BiSeries(cells, dims.mmax, dims.nmax)


def _product_grid(dims: GradedDims) -> list[int]:
    """:func:`dimension_product` on one row-major integer list, p^i q^j at
    index i*(qmax+1) + j, with pmax, qmax = dims.mmax, dims.nmax.

    The factors are grouped by primitive direction (a, b) = (m, n)/gcd(m, n).
    Each ray's product R(x) = prod_t (1 - x^t)^{d(ta,tb)} is expanded once,
    by binomials, to x^min(pmax/a, qmax/b); the grid is then multiplied by
    R(p^a q^b).  One step along (a, b) is a fixed offset: every term the
    ray can move adds R's t-th coefficient times itself at t steps, inside
    the window.  The terms are visited from the last index down, so each is
    moved before any term lands on it.  Every factor has m, n >= 1, so row 0
    and column 0 hold only the constant 1: the walk covers the interior
    i, j >= 1, and only after it are R's coefficients added at the
    constant's t steps, where the walk would have moved them again.

    The rays go largest (a, b) first: a ray moves every term it can step
    from, so a large ray is cheap while the grid is still sparse.  On the
    verify-product 70x71 grid that is 3,275,508 multiplies against the
    5,536,351 of the factors taken one by one, largest first.

    Each ray walks every interior row, so a grid taller than wide is built
    as its transpose, with p and q swapped, and read back by columns (as
    :func:`series.log1m_rows` does).  A row's step limit and coefficient
    slice are taken once per segment of equal step count, not per term: in
    process on a 2-core machine 5000x1 takes 13 ms, its transpose having no
    interior row, 2500x2 0.70 s (1.18 s with one limit per term) and 70x70
    1.31 s (1.55 s).
    """
    pmax, qmax = dims.mmax, dims.nmax
    rays: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for (m, n), d in sorted(dims.dims.items()):
        if m < 1 or n < 1:
            raise ValueError(f"factor at ({m},{n}) lies outside the grid m, n >= 1")
        if d < 0:
            raise ValueError(f"negative dimension {d} at ({m},{n})")
        if d:
            g = math.gcd(m, n)
            rays.setdefault((m // g, n // g), []).append((g, d))
    tall = pmax > qmax
    if tall:
        pmax, qmax = qmax, pmax
        rays = {(b, a): factors for (a, b), factors in rays.items()}
    width = qmax + 1
    out = [0] * ((pmax + 1) * width)
    out[0] = 1
    for (a, b), factors in sorted(rays.items(), reverse=True):
        top = min(pmax // a, qmax // b)
        ray = [1] + [0] * top
        for t, d in factors:  # ascending t, so the first past top ends the ray
            if t > top:
                break
            binomials = [(-1) ** s * math.comb(d, s) for s in range(1, top // t + 1)]
            for e in range(top - t, -1, -1):
                v = ray[e]
                if v:
                    for s, c in enumerate(binomials[: (top - e) // t], 1):
                        ray[e + s * t] += c * v
        coeffs = ray[1:]
        step = a * width + b
        for i in range(pmax - a, 0, -1):
            base = i * width
            reach = (pmax - i) // a
            # a term at q^j takes min(reach, (qmax - j) // b) steps: the
            # row splits into segments of one step count, the last of them,
            # j <= qmax - reach*b, at reach
            hi = qmax - b
            for steps in range(1, reach + 1):
                lo = 1 if steps == reach else max(qmax - (steps + 1) * b + 1, 1)
                moves = coeffs[:steps]
                for y in range(base + hi, base + lo - 1, -1):
                    v = out[y]
                    if v:
                        x = y
                        for c in moves:
                            x += step
                            out[x] += c * v
                hi = lo - 1
                if hi < 1:
                    break
        for t, c in enumerate(coeffs, 1):
            out[t * step] += c
    if tall:  # column i of the transpose is row i of the grid
        return [v for i in range(width) for v in out[i::width]]
    return out
