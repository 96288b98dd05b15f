"""Lattice pairing, root bookkeeping, Witt dimensions, product identity."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moonshine import lattice, modular
from moonshine.lattice import (
    GradedDims,
    LatticeVector,
    build_matrix,
    cartan_conditions,
    denominator_identity_report,
    denominator_order,
    denominator_sides,
    dimension_product,
    expanded_root,
    gram,
    gram_entry,
    root_multiplicity,
    simple_roots,
    witt_dims,
)
from moonshine.modular import normalized_j
from moonshine.series import BiSeries, UniSeries, mobius
from test_series import generator_character, one_minus, reference_log1m


@pytest.fixture(scope="module")
def c25():
    return normalized_j(25)


@pytest.fixture(scope="module")
def c_fractional():
    """A coefficient source with a non-integral value at q^1."""
    return UniSeries({-1: 1, 1: Fraction(3, 2), 2: 5}, 4)


class TestGram:
    def test_display_values(self):
        assert gram(LatticeVector(1, -1), LatticeVector(1, -1)) == 2
        assert gram(LatticeVector(1, -1), LatticeVector(1, 1)) == 0
        assert gram(LatticeVector(1, 1), LatticeVector(1, 2)) == -3

    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
    def test_symmetric(self, m, n, mp, np_):
        a, b = LatticeVector(m, n), LatticeVector(mp, np_)
        assert gram(a, b) == gram(b, a)

    @given(st.integers(-6, 6))
    def test_diagonal_formula(self, n):
        v = LatticeVector(1, n)
        assert gram(v, v) == -2 * n

    @given(
        st.integers(-5, 5), st.integers(-5, 5),
        st.integers(-5, 5), st.integers(-5, 5),
        st.integers(-5, 5), st.integers(-5, 5),
    )
    def test_bilinear(self, m, n, m2, n2, m3, n3):
        a, b, c = LatticeVector(m, n), LatticeVector(m2, n2), LatticeVector(m3, n3)
        summed = LatticeVector(b.m + c.m, b.n + c.n)
        assert gram(a, summed) == gram(a, b) + gram(a, c)


class TestSimpleRoots:
    def test_lowest_case(self, c25):
        assert simple_roots(-1, c25) == ((LatticeVector(1, -1), 1),)

    def test_first_levels(self, c25):
        assert simple_roots(2, c25) == (
            (LatticeVector(1, -1), 1),
            (LatticeVector(1, 1), 196884),
            (LatticeVector(1, 2), 21493760),
        )

    def test_no_root_at_level_zero(self, c25):
        vectors = [v for v, _ in simple_roots(3, c25)]
        assert LatticeVector(1, 0) not in vectors

    def test_rejects_bad_nmax(self, c25, c_fractional):
        with pytest.raises(ValueError):
            simple_roots(-2, c25)
        # a multiplicity 3/2 is refused, not truncated to 1
        assert simple_roots(0, c_fractional) == ((LatticeVector(1, -1), 1),)
        with pytest.raises(TypeError):
            simple_roots(2, c_fractional)


class TestExpandedRoots:
    def test_walk(self, c25, c_fractional):
        assert expanded_root(0, c25) == LatticeVector(1, -1)
        assert expanded_root(1, c25) == LatticeVector(1, 1)
        assert expanded_root(196884, c25) == LatticeVector(1, 1)
        assert expanded_root(196885, c25) == LatticeVector(1, 2)
        # truncating 3/2 to 1 would land root 2 on (1,2)
        assert expanded_root(0, c_fractional) == LatticeVector(1, -1)
        for index in (1, 2):
            with pytest.raises(TypeError):
                expanded_root(index, c_fractional)

    def test_beyond_known_order(self):
        c = normalized_j(1)
        with pytest.raises(ValueError, match="beyond"):
            expanded_root(2_000_000, c)

    def test_probe_entries(self, c25):
        assert gram_entry(0, 0, c25) == 2
        assert gram_entry(1, 1, c25) == -2
        assert gram_entry(196885, 196885, c25) == -4
        assert gram_entry(0, 1, c25) == 0
        assert gram_entry(0, 196885, c25) == -1
        assert gram_entry(1, 196885, c25) == -3


class TestMatrix:
    def test_two_by_two(self):
        assert build_matrix(2) == [[2, 0], [0, -2]]

    def test_block_values(self, c25):
        m = build_matrix(3)
        assert m == [[2, 0, -1], [0, -2, -3], [-1, -3, -4]]

    def test_blocks_agree_with_expanded_probes(self, c25):
        m = build_matrix(3)
        # indices 0, 1, 196885 land in the blocks for levels -1, 1, 2
        for bi, ri in enumerate((0, 1, 196885)):
            for bj, rj in enumerate((0, 1, 196885)):
                assert m[bi][bj] == gram_entry(ri, rj, c25)

    def test_conditions_hold_for_built_matrix(self, c25):
        report = cartan_conditions(build_matrix(4))
        assert report.ok
        assert report.violations == ()

    def test_positive_off_diagonal_fails(self):
        report = cartan_conditions([[2, 1], [1, 2]])
        assert not report.ok
        assert not report.off_diagonal_nonpositive
        assert report.symmetric

    def test_negative_off_diagonal_passes(self):
        assert cartan_conditions([[2, -1], [-1, 2]]).ok

    def test_asymmetry_detected(self):
        report = cartan_conditions([[2, -1], [-2, 2]])
        assert not report.symmetric

    def test_integrality_condition(self):
        from fractions import Fraction

        report = cartan_conditions([[2, Fraction(-1, 2)], [Fraction(-1, 2), 0]])
        assert not report.ratios_integral

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            cartan_conditions([[2, 0]])


class TestRootMultiplicity:
    def test_values(self, c25, c_fractional):
        assert root_multiplicity(0, 0, c25) == 2
        assert root_multiplicity(1, 1, c25) == 196884
        assert root_multiplicity(2, -1, c25) == 0
        assert root_multiplicity(1, -1, c25) == 1
        assert root_multiplicity(2, 0, c25) == 0
        assert root_multiplicity(1, 2, c_fractional) == 5
        with pytest.raises(TypeError):
            root_multiplicity(1, 1, c_fractional)

    def test_insufficient_order(self):
        with pytest.raises(ValueError, match="order"):
            root_multiplicity(5, 6, normalized_j(10))


def reference_witt_dims(column, mmax: int, nmax: int) -> lattice.GradedDims:
    """The generalized Witt formula with a fresh log per Mobius term: each
    squarefree k substitutes p^k, q^k into the generator character U =
    sum c(m+n-1) p^m q^n first and then takes log(1 - U(p^k, q^k)) on the
    window by the power sum ``reference_log1m``."""
    u = generator_character(column, mmax, nmax)
    total = {}
    for k in range(1, min(mmax, nmax) + 1):
        if mobius(k):
            scaled = BiSeries(
                {(i * k, j * k): v for (i, j), v in u.items() if i * k <= mmax and j * k <= nmax},
                mmax,
                nmax,
            )
            for cell, value in reference_log1m(scaled).items():
                total[cell] = total.get(cell, 0) - Fraction(mobius(k) * value, k)
    dims = {}
    for (m, n), value in BiSeries(total, mmax, nmax).items():
        if not isinstance(value, int):
            raise RuntimeError(
                f"generalized Witt formula produced non-integer {value} at ({m},{n})"
            )
        dims[(m, n)] = value
    return lattice.GradedDims(dims, mmax, nmax)


def column_witt_dims(column, mmax: int, nmax: int) -> lattice.GradedDims:
    """``witt_dims`` on the window, reading the column as a series."""
    return witt_dims(mmax, nmax, UniSeries(column, mmax + nmax - 1))


@st.composite
def witt_characters(draw):
    """Generator columns c(1..mmax+nmax-1) with zeros, sparse supports
    (only n divisible by 2 or 3, so U lives on alternate or every third
    antidiagonal), unequal window sides up to 12, where the Mobius terms
    k = 6 and 10 occur, and the odd fraction."""
    mmax = draw(st.integers(1, 12))
    nmax = draw(st.integers(1, 12))
    keep = draw(
        st.sampled_from([lambda n: True, lambda n: n % 2 == 0, lambda n: n % 3 == 0])
    )
    value = st.one_of(
        st.just(0),
        st.integers(-3, 5),
        st.fractions(min_value=-2, max_value=2, max_denominator=4),
    )
    column = {n: draw(value) if keep(n) else 0 for n in range(1, mmax + nmax)}
    return column, mmax, nmax


def witt_outcome(route, case):
    try:
        return route(*case)
    except RuntimeError as err:
        return str(err)


class TestWittDims:
    @settings(deadline=None, max_examples=150)
    @given(witt_characters())
    @example(({n: 0 for n in range(1, 12)}, 5, 7))
    @example(({1: Fraction(1, 2), 2: 0, 3: 0, 4: 0}, 3, 2))
    @example(({n: 0 for n in range(1, 8)}, 2, 6))
    # gcd 10 at (10, 10): the k = 10 term reads M_1[1], the k = 6 term of
    # (12, 12) reads M_2[2]
    @example(({n: {1: 1, 3: -1, 5: 2}.get(n, 0) for n in range(1, 24)}, 12, 12))
    @example(({n: int(n in (1, 3, 11)) for n in range(1, 23)}, 12, 11))
    def test_matches_log_per_term_route(self, case):
        assert witt_outcome(column_witt_dims, case) == witt_outcome(reference_witt_dims, case)

    def test_equals_root_multiplicities_5x5(self, c25):
        dims = witt_dims(5, 5, c25)
        for m in range(1, 6):
            for n in range(1, 6):
                assert dims.dim(m, n) == c25.coeff(m * n), (m, n)

    def test_generator_rows(self, c25):
        dims = witt_dims(3, 5, c25)
        # (1,n) pieces are generators only: no bracket lands there
        for n in range(1, 6):
            assert dims.dim(1, n) == c25.coeff(n)

    def test_2_2_hand_count(self, c25):
        dims = witt_dims(2, 2, c25)
        c1, c3 = int(c25.coeff(1)), int(c25.coeff(3))
        assert dims.dim(2, 2) == c3 + c1 * (c1 - 1) // 2 == c25.coeff(4)

    def test_window_errors(self, c25):
        with pytest.raises(ValueError):
            witt_dims(0, 3, c25)
        with pytest.raises(ValueError):
            witt_dims(9, 9, normalized_j(5))
        dims = witt_dims(2, 2, c25)
        with pytest.raises(ValueError):
            dims.dim(3, 1)

    def test_product_oracle_on_invariant_data(self, c25):
        dims = witt_dims(4, 4, c25)
        u = BiSeries(
            {(m, n): c25.coeff(m + n - 1) for m in range(1, 5) for n in range(1, 5)},
            4,
            4,
        )
        assert not dimension_product(dims).mismatches(one_minus(u))

    @given(st.lists(st.integers(0, 3), min_size=5, max_size=5))
    @settings(deadline=None, max_examples=40)
    def test_product_oracle_on_random_dims(self, values):
        column = dict(enumerate(values, start=1))
        dims = column_witt_dims(column, 3, 3)
        u = generator_character(column, 3, 3)
        assert not dimension_product(dims).mismatches(one_minus(u))

    def test_lyndon_word_count_oracle(self):
        # alphabet: two letters of degree (1,1), one of (1,2), one of (2,1),
        # the generators of the column c(1) = 2, c(2) = 1; free-Lie
        # dimensions equal counts of Lyndon words by multidegree
        degrees = [(1, 1), (1, 1), (1, 2), (2, 1)]

        def is_lyndon(word):
            rotations = [word[k:] + word[:k] for k in range(1, len(word))]
            return all(word < r for r in rotations)

        counts: dict[tuple[int, int], int] = {}
        for length in range(1, 4):
            for word in product(range(len(degrees)), repeat=length):
                m = sum(degrees[letter][0] for letter in word)
                n = sum(degrees[letter][1] for letter in word)
                if m <= 3 and n <= 3 and is_lyndon(word):
                    counts[(m, n)] = counts.get((m, n), 0) + 1

        dims = witt_dims(3, 3, UniSeries({1: 2, 2: 1}, 5))
        for m in range(1, 4):
            for n in range(1, 4):
                if m + n <= 4:  # fully inside the brute-force horizon
                    assert dims.dim(m, n) == counts.get((m, n), 0), (m, n)

    def test_negative_dimension_rejected_by_product(self, c25):
        with pytest.raises(ValueError, match="negative"):
            dimension_product(GradedDims({(1, 1): -1}, 2, 2))
        # the rays expand largest first, which would reach (2,1) first;
        # every dimension is checked before any expansion
        dims = GradedDims({(1, 1): 2, (1, 2): -1, (2, 1): -3, (2, 2): 0}, 3, 3)
        with pytest.raises(ValueError, match=r"^negative dimension -1 at \(1,2\)$"):
            dimension_product(dims)
        for cells, (m, n) in [
            # (2,2) lies on the ray (1,1), which runs after the ray (2,3)
            ({(2, 2): -1, (2, 3): -4}, (2, 2)),
            # (1,2) and (2,4) share a ray; (2,1) comes between them
            ({(1, 2): 1, (2, 1): -2, (2, 4): -1}, (2, 1)),
            # a check ray by ray, in the order the rays are first met,
            # would name (3,3)
            ({(1, 1): 0, (3, 3): -7, (1, 4): -1}, (1, 4)),
        ]:
            d = cells[(m, n)]
            with pytest.raises(ValueError, match=rf"^negative dimension {d} at \({m},{n}\)$"):
                dimension_product(GradedDims(cells, 4, 4))
        # every factor has m, n >= 1: row 0 and column 0 hold only the
        # constant, and the product walks neither
        for m, n in [(0, 1), (1, 0), (0, 0), (-1, 2), (2, -1)]:
            with pytest.raises(ValueError, match=rf"^factor at \({m},{n}\) lies outside"):
                dimension_product(GradedDims({(m, n): 1}, 3, 3))


def reference_dimension_product(dims: GradedDims) -> BiSeries:
    """The binomial product expanded smallest (m, n) first in a dict of
    (i, j) keys: each factor snapshots the terms it moves and adds
    (-1)^t C(d, t) times each at t steps of (m, n), inside the window."""
    pmax, qmax = dims.mmax, dims.nmax
    out = {(0, 0): 1}
    for (m, n), d in sorted(dims.dims.items()):
        if d == 0:
            continue
        if d < 0:
            raise ValueError(f"negative dimension {d} at ({m},{n})")
        top = min(pmax // m, qmax // n)
        binomials = [(-1) ** t * math.comb(d, t) for t in range(1, top + 1)]
        moving = [
            (i, j, v) for (i, j), v in out.items() if i + m <= pmax and j + n <= qmax
        ]
        for i, j, v in moving:
            for t, b in enumerate(binomials, 1):
                key = (i + m * t, j + n * t)
                if key[0] > pmax or key[1] > qmax:
                    break
                out[key] = out.get(key, 0) + b * v
    return BiSeries(out, pmax, qmax)


def factor_dimension_product(dims: GradedDims) -> BiSeries:
    """The binomial product factor by factor, largest (m, n) first, on one
    row-major integer list: each factor snapshots the terms it moves, then
    adds (-1)^t C(d, t) times each at t steps of (m, n), inside the window."""
    pmax, qmax = dims.mmax, dims.nmax
    factors = sorted(dims.dims.items())
    for (m, n), d in factors:
        if d < 0:
            raise ValueError(f"negative dimension {d} at ({m},{n})")
    width = qmax + 1
    out = [0] * ((pmax + 1) * width)
    out[0] = 1
    for (m, n), d in reversed(factors):
        if d == 0:
            continue
        top = min(pmax // m, qmax // n)
        binomials = [(-1) ** t * math.comb(d, t) for t in range(1, top + 1)]
        step = m * width + n
        moving = []
        for i in range(pmax - m + 1):
            base = i * width
            reach = (pmax - i) // m
            for j in range(qmax - n + 1):
                v = out[base + j]
                if v:
                    moving.append((base + j, v, min(reach, (qmax - j) // n)))
        for x, v, steps in moving:
            for b in binomials[:steps]:
                x += step
                out[x] += b * v
    return BiSeries({divmod(x, width): v for x, v in enumerate(out) if v}, pmax, qmax)


def row_walk_grid(dims: GradedDims) -> list[int]:
    """``lattice._product_grid`` without its transpose: every ray walks the
    rows of the grid as given, however tall."""
    pmax, qmax = dims.mmax, dims.nmax
    rays: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for (m, n), d in sorted(dims.dims.items()):
        if d < 0:
            raise ValueError(f"negative dimension {d} at ({m},{n})")
        if d:
            g = math.gcd(m, n)
            rays.setdefault((m // g, n // g), []).append((g, d))
    width = qmax + 1
    out = [0] * ((pmax + 1) * width)
    out[0] = 1
    for (a, b), factors in sorted(rays.items(), reverse=True):
        top = min(pmax // a, qmax // b)
        ray = [1] + [0] * top
        for t, d in factors:
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
        for i in range(pmax - a, -1, -1):
            base = i * width
            reach = (pmax - i) // a
            for j in range(qmax - b, -1, -1):
                v = out[base + j]
                if v:
                    x = base + j
                    for c in coeffs[: min(reach, (qmax - j) // b)]:
                        x += step
                        out[x] += c * v
    return out


@st.composite
def dimension_grids(draw):
    """Dimension grids up to 12x12, 1x60 or 60x1, with zeros, small and
    300-bit entries."""
    mmax, nmax = draw(
        st.one_of(
            st.tuples(st.integers(1, 12), st.integers(1, 12)),
            st.tuples(st.just(1), st.integers(1, 60)),
            st.tuples(st.integers(1, 60), st.just(1)),
        )
    )
    dim = st.one_of(
        st.just(0),
        st.integers(1, 5),
        st.integers(2**299, 2**300),
    )
    cells = [(m, n) for m in range(1, mmax + 1) for n in range(1, nmax + 1)]
    return GradedDims({cell: draw(dim) for cell in cells}, mmax, nmax)


def product_grid(pmax: int, qmax: int) -> GradedDims:
    """The exponents c(ij) that ``denominator_sides`` expands."""
    c = normalized_j(denominator_order(pmax, qmax))
    mults = {
        (i, j): int(c.coeff(i * j))
        for i in range(1, pmax + 1)
        for j in range(1, qmax + 2)
    }
    return GradedDims(mults, pmax, qmax + 1)


def assert_same_product(dims: GradedDims):
    # a tall grid is built as its transpose; the walk reads it as given
    assert lattice._product_grid(dims) == row_walk_grid(dims)
    got = dimension_product(dims)
    for want in (factor_dimension_product(dims), reference_dimension_product(dims)):
        assert (got.pmax, got.qmax) == (want.pmax, want.qmax)
        assert got.items() == want.items()


class TestDimensionProduct:
    """The ray product against the factor-by-factor expansions: largest
    first on a flat list, and smallest first in a dict; its grid against the
    ray walk over the rows as given."""

    @settings(deadline=None, max_examples=60)
    @given(dimension_grids())
    # factor by factor, after (1,1) both 1 and p^2 q^2 are terms; (2,2)
    # moves the constant onto p^2 q^2 first, then must move p^2 q^2 with its
    # earlier value (the ray product walks the grid down for the same reason)
    @example(GradedDims({(1, 1): 3, (2, 2): 1}, 4, 4))
    # the mirror, where (1,1) runs after (2,2): it moves the constant onto
    # p^2 q^2 at t = 2, then must move p^2 q^2 with its earlier value; in
    # the 3x3 window only this order meets the case
    @example(GradedDims({(1, 1): 3, (2, 2): 1}, 3, 3))
    # one ray, (1,1), with a factor at every t, a zero, and a 300-bit one
    @example(GradedDims({(t, t): [2, 0, 2**300, 1, 5][t - 1] for t in range(1, 6)}, 5, 5))
    def test_matches_ascending_reference(self, dims):
        assert_same_product(dims)

    @pytest.mark.parametrize(
        "pmax, qmax", [(14, 14), (20, 22), (24, 24), (1, 40), (40, 1)]
    )
    def test_verify_product_grids(self, pmax, qmax):
        # the grid has the extra q-row qmax + 1 that the prefactor pulls back
        assert_same_product(product_grid(pmax, qmax))

    def test_witt_dims_18x18(self):
        assert_same_product(witt_dims(18, 18, normalized_j(18 * 18)))


class TestDenominatorIdentity:
    def test_holds_6x6(self):
        report = denominator_identity_report(6, 6)
        assert report.ok
        assert (report.pmax, report.qmin, report.qmax) == (6, -6, 6)

    def test_spot_cells(self):
        lhs, rhs = denominator_sides(4, 4)
        assert (lhs.pmax, lhs.qmax) == (4, 4)
        assert (rhs.pmax, rhs.qmax) == (4, 4)
        # each side's lowest q is its -p q^-1 term
        assert min(j for (_, j), _ in lhs.items()) == -1
        assert min(j for (_, j), _ in rhs.items()) == -1
        assert lhs.coeff(2, 0) == 196884 == rhs.coeff(2, 0)
        assert lhs.coeff(1, -1) == -1 == rhs.coeff(1, -1)
        assert lhs.coeff(0, 0) == 1 == rhs.coeff(0, 0)
        assert lhs.coeff(1, 3) == -864299970 == rhs.coeff(1, 3)
        # deep interior cell where both sides are forced to cancel exactly
        assert lhs.coeff(3, 3) == 0 == rhs.coeff(3, 3)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            denominator_sides(0, 4)

    def test_corrupted_coefficient_fails(self, monkeypatch):
        # c(4) off by one enters both sides; the first cell it breaks is
        # p^2 q^2, where the product sees c(4) through (1 - p^2 q^2)^c(4)
        def corrupted(order):
            c = normalized_j(order)
            return UniSeries({**dict(c.items()), 4: c.coeff(4) + 1}, order)

        monkeypatch.setattr(modular, "normalized_j", corrupted)
        report = denominator_identity_report(6, 6)
        assert not report.ok
        assert len(report.mismatches) == 22
        assert report.mismatches[0] == (2, 2, 0, -1)
