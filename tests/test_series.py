"""Core series records and kernels: windows, exactness, product laws."""

from __future__ import annotations

import decimal
import itertools
import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from importlib import resources
from operator import add, mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moonshine import modular, series
from moonshine.classes import euler_poincare_report, load_family, parse_table_text
from moonshine.lattice import (
    GradedDims,
    denominator_sides,
    dimension_product,
    witt_dims,
)
from moonshine.modular import dedekind_eta_power, normalized_j
from moonshine.series import BiSeries, UniSeries, _decimal_slots, _kronecker

# ---------------------------------------------------------------------------
# reference products


def pair_products(lefts, right, n):
    """``_kronecker`` by the plain double loop over the dense lists; exact
    on ``int`` and ``Fraction`` entries alike."""
    products = []
    for a in lefts:
        c = [0] * n
        for s in range(n):
            for t in range(n - s):
                c[s + t] += a[s] * right[t]
        products.append(c)
    return products


def cleared(c: list) -> tuple[list[int], int]:
    """Exact values as ints over their common denominator, and that
    denominator."""
    den = math.lcm(*(Fraction(v).denominator for v in c))
    return [int(v * den) for v in c], den


def fraction_product(a: list, b: list, n: int) -> list:
    """The ``n`` lowest coefficients of ``a * b`` for dense lists of ints and
    Fractions: the kernel on the cleared lists, divided back by the product
    of their denominators."""
    (x, x_den), (y, y_den) = cleared(a), cleared(b)
    [c] = _kronecker([x], y, n)
    return [series._norm(Fraction(v, x_den * y_den)) for v in c]


def spread(c: list, k: int) -> list:
    """q -> q^k on a dense list: entry t moves to offset k t, and the
    offsets between the multiples of k are zero."""
    out = [0] * (len(c) * k)
    out[::k] = c
    return out


def reference_bimul(a: BiSeries, b: BiSeries, pmax: int, qmax: int) -> BiSeries:
    """The product of two series' stored terms by the sparse double loop,
    cut at p^pmax q^qmax.

    This is the definition the in-place two-variable products and the power
    sum of the log(1 - U) rows are checked against.  The cut is the
    caller's: the untracked terms of a truncated two-variable series fill an
    L-shaped region, so no product window can be read from the factors'
    stored terms.
    """
    data = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            i, j = i1 + i2, j1 + j2
            if i <= pmax and j <= qmax:
                data[(i, j)] = data.get((i, j), 0) + v1 * v2
    return BiSeries(data, pmax, qmax)


# ---------------------------------------------------------------------------
# strategies


def coeffs():
    return st.one_of(
        st.integers(min_value=-9, max_value=9),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
    )


@st.composite
def kernel_lists(draw):
    """A dense list for the product kernel, 1 to 41 entries, with gaps
    (zeros), possibly all zero or a single term, and huge entries."""
    n = draw(st.integers(min_value=1, max_value=41))
    big = 2**2000
    value = st.one_of(
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=-big, max_value=big),
        st.sampled_from([big, -big, big - 1, 1 - big]),
    )
    terms = draw(st.dictionaries(st.integers(min_value=0, max_value=n - 1), value, max_size=12))
    return [terms.get(t, 0) for t in range(n)]


@st.composite
def kernel_operands(draw):
    """Dense lists for ``_kronecker``, full or with gaps (zeros), and their
    length n."""
    n = draw(st.integers(min_value=1, max_value=40))
    big = 2**2000
    value = st.one_of(
        st.integers(min_value=-big, max_value=big),
        st.sampled_from([big, -big, 1, -1]),
    ).filter(bool)
    terms = st.dictionaries(st.integers(min_value=0, max_value=n - 1), value, min_size=1)
    a = draw(terms)
    b = a if draw(st.booleans()) else draw(terms)

    def dense(t):
        return [t.get(i, 0) for i in range(n)]

    a_list = dense(a)
    return a_list, a_list if b is a else dense(b), n


@st.composite
def kernel_triples(draw):
    """Three dense lists of one length: zeros, small and wide entries."""
    n = draw(st.integers(min_value=1, max_value=12))
    big = 2**200
    value = st.one_of(
        st.just(0),
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=-big, max_value=big),
    )
    factor = st.lists(value, min_size=n, max_size=n)
    return draw(factor), draw(factor), draw(factor)


# ---------------------------------------------------------------------------
# construction and access


class TestConstruction:
    def test_rejects_floats(self):
        with pytest.raises(TypeError, match="exact coefficient"):
            UniSeries({1: 0.5}, 2)
        # a non-integral exponent is refused, not truncated onto another one
        s = UniSeries({1: 3}, 3)
        b = BiSeries({(1, 1): 2}, 1, 1)
        refused = [
            lambda: UniSeries({1.5: 3, Fraction(5, 2): 7}, 3),
            lambda: UniSeries({Fraction(5, 2): 7}, 3),
            lambda: UniSeries({2.0: 0}, 3),
            lambda: BiSeries({(0.5, 1): 2}, 1, 1),
            lambda: BiSeries({(0, Fraction(1, 2)): 2}, 1, 1),
            lambda: s.coeff(1.5),
            lambda: s.coeff(1.0),
            lambda: s.coeff(Fraction(1)),
            lambda: b.coeff(1.0, 1),
            lambda: b.coeff(1, Fraction(1, 2)),
        ]
        for make in refused:
            with pytest.raises(TypeError):
                make()

    def test_rejects_out_of_window_exponent(self):
        with pytest.raises(ValueError, match="outside window"):
            UniSeries({3: 1}, 2)

    def test_drops_zeros_and_collapses_fractions(self):
        s = UniSeries({0: Fraction(0, 3), 1: Fraction(4, 2)}, 2)
        assert s.items() == [(1, 2)]
        assert isinstance(s.coeff(1), int)

    def test_coeff_below_floor_is_zero(self):
        s = UniSeries({2: 5}, 4)
        assert s.coeff(0) == 0
        assert s.coeff(-7) == 0

    def test_coeff_above_ceiling_raises(self):
        s = UniSeries({2: 5}, 4)
        with pytest.raises(ValueError, match="beyond the window"):
            s.coeff(5)

    def test_bi_rejects_negative_p(self):
        with pytest.raises(ValueError, match="p exponents"):
            BiSeries({(-1, 0): 1}, 2, 2)

    # a record is read, compared and printed; the expansions that build
    # records compute on dense lists
    @pytest.mark.parametrize(
        "operation",
        [
            lambda a, b: a + b,
            lambda a, b: a - b,
            lambda a, b: a * b,
            lambda a, b: a * a,
            lambda a, b: a**2,
            lambda a, b: a + 1,
            lambda a, b: 1 - a,
            lambda a, b: 2 * a,
            lambda a, b: a * Fraction(1, 2),
            lambda a, b: -a,
            lambda a, b: 1 + a,
            lambda a, b: a - 1,
            lambda a, b: a - Fraction(1, 2),
        ],
        ids=[
            "series-sum", "series-difference", "series-product", "square", "power",
            "add-1", "rsub-1", "rmul-2", "mul-fraction", "negation",
            "radd-1", "sub-1", "sub-fraction",
        ],
    )
    def test_uni_record_has_no_arithmetic(self, operation):
        # both record classes, the two-variable pair with a q^-1 term
        pairs = [
            (UniSeries({-1: 1, 1: 196884}, 2), UniSeries({0: 3}, 4)),
            (BiSeries({(0, 0): 1, (1, -1): -1}, 2, 2), BiSeries({(1, 1): 3}, 3, 4)),
        ]
        for a, b in pairs:
            with pytest.raises(TypeError):
                operation(a, b)

    def test_uni_record_methods(self):
        # the tracer reads both record classes by name, so both stay classes
        removed = {
            "zero", "one", "is_zero", "inverse", "substitute_power", "shift", "restrict",
            "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
            "__mul__", "__rmul__", "__pow__",
        }
        for record in (series.UniSeries, series.BiSeries):
            assert isinstance(record, type)
            assert not removed & set(vars(record)), record.__name__
        assert not hasattr(series, "_cleared")


# ---------------------------------------------------------------------------
# multiplication


class TestMultiplication:
    def test_polynomial_product(self):
        # (1 + 2q)(3 - q^2) on the kernel's dense lists
        assert _kronecker([[1, 2, 0, 0]], [3, 0, -1, 0], 4) == [[3, 6, -1, -2]]


# ---------------------------------------------------------------------------
# the dense product kernel against the pair loop


@contextmanager
def packing(route: str):
    """Send every product through one packing: ``"decimal"`` lowers the
    decimal threshold to 0, ``"binary"`` hides the C decimal module, which
    the kernel imports when a product takes decimal slots (a ``None`` entry
    in ``sys.modules`` makes that import fail)."""
    with pytest.MonkeyPatch.context() as mp:
        if route == "decimal":
            mp.setattr(series, "_DECIMAL_MIN_DIGITS", 0)
        else:
            mp.setitem(sys.modules, "_decimal", None)
        yield


extreme_shapes = pytest.mark.parametrize(
    "kind, bits, length, a_is_b, step",
    list(
        itertools.product(
            ["max", "-max", "-pow"], [1, 3, 4, 8, 64], [1, 2, 255, 256, 257], [True, False], [1, 3]
        )
    ),
)


def extreme_factors(kind, bits, length, a_is_b, step):
    """``length`` coefficients at the top of their bit length (or -2^b, one
    bit more), in q^step, and the product length: every low coefficient of
    the product is at the edge of the width bound."""
    value = {"max": 2**bits - 1, "-max": 1 - 2**bits, "-pow": -(2**bits)}[kind]
    a = spread([value] * length, step)
    b = a if a_is_b else spread([-value] * length, step)
    return a, b, length * step


width_bound_shapes = pytest.mark.parametrize(
    "length, a_bits, b_bits", [(3, 6, 7), (3, 1000, 1005), (255, 7, 8), (255, 1000, 999)]
)


def width_bound_factors(length, a_bits, b_bits, den):
    """Two dense lists of ``length`` entries, the first over ``den``: the
    middle product coefficient is -length * (2^a_bits - 1) * (2^b_bits - 1)
    before the denominator is divided back."""
    a = [Fraction(2**a_bits - 1, den)] * length
    b = [1 - 2**b_bits] * length
    return a, b


class TestProductKernel:
    """``_kronecker`` on wide, gapped, stepped and extreme factors against
    the pair loop."""

    @settings(max_examples=300)
    @given(kernel_operands())
    def test_matches_reference(self, operands):
        a, b, n = operands
        assert _kronecker([a], b, n) == pair_products([a], b, n)

    @settings(max_examples=100)
    @given(kernel_lists())
    def test_square_matches_reference(self, a):
        n = len(a)
        assert _kronecker([a], a, n) == pair_products([a], a, n)

    @settings(max_examples=200)
    @given(
        kernel_lists(),
        kernel_lists(),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=3),
    )
    def test_stepped_factors_match_reference(self, a, b, s, t, lead):
        # factors in q^s are sparse: one slot per offset leaves the gaps
        # as zero slots
        a = [0] * lead + spread(a, s)
        b = spread(b, t)
        n = max(len(a), len(b))
        a += [0] * (n - len(a))
        b += [0] * (n - len(b))
        assert _kronecker([a], b, n) == pair_products([a], b, n)
        assert _kronecker([a], a, n) == pair_products([a], a, n)

    @extreme_shapes
    def test_extreme_coefficients(self, kind, bits, length, a_is_b, step):
        # at length 255 with bits a multiple of 4 the binary width bound
        # has no byte of slack
        a, b, n = extreme_factors(kind, bits, length, a_is_b, step)
        with packing("binary"):
            assert _kronecker([a], b, n) == pair_products([a], b, n)

    @pytest.mark.parametrize("den", [1, 2])
    @width_bound_shapes
    def test_width_bound_without_slack(self, length, a_bits, b_bits, den):
        # the digit width k = a_bits + b_bits + bits(length) + 1 is a whole
        # number of bytes, and the middle coefficient lies below -2^(k-2):
        # it fits only with the bias at exactly 2^(k-1)
        assert (a_bits + b_bits + length.bit_length() + 1) % 8 == 0
        a, b = width_bound_factors(length, a_bits, b_bits, den)
        with packing("binary"):
            assert fraction_product(a, b, length) == pair_products([a], b, length)[0]

    def test_fraction_factors_divide_back(self):
        # (1/2 + 2/3 q)(4 + 3/4 q^2): the kernel multiplies (3 + 4q) / 6 by
        # (16 + 3q^2) / 4, and the product is divided back by 24
        a = [Fraction(1, 2), Fraction(2, 3), 0, 0]
        b = [4, 0, Fraction(3, 4), 0]
        p = fraction_product(a, b, 4)
        assert p == [2, Fraction(8, 3), Fraction(3, 8), Fraction(1, 2)]
        assert p == pair_products([a], b, 4)[0]
        assert isinstance(p[0], int)


class TestDecimalKernel:
    """The base-10^k packing against the binary one and the double loop.

    Most products here are far below the decimal threshold, so ``packing``
    chooses their route.
    """

    @settings(max_examples=300)
    @given(kernel_operands())
    def test_matches_binary(self, operands):
        # two left factors share the packed right one; a * a is a square
        a, b, n = operands
        with packing("binary"):
            want = _kronecker([a, b], b, n), _kronecker([a], a, n)
        with packing("decimal"):
            got = _kronecker([a, b], b, n), _kronecker([a], a, n)
        assert got == want
        assert got[0] == pair_products([a, b], b, n)

    @settings(max_examples=300)
    @given(kernel_operands())
    def test_kernel_matches_binary(self, operands):
        a, b, n = operands
        with packing("binary"):
            want = _kronecker([a], b, n)
        with packing("decimal"):
            assert _kronecker([a], b, n) == want

    @extreme_shapes
    def test_extreme_coefficients(self, kind, bits, length, a_is_b, step):
        a, b, n = extreme_factors(kind, bits, length, a_is_b, step)
        with packing("decimal"):
            assert _kronecker([a], b, n) == pair_products([a], b, n)

    @pytest.mark.parametrize("den", [1, 2])
    @width_bound_shapes
    def test_width_bound_shapes(self, length, a_bits, b_bits, den):
        a, b = width_bound_factors(length, a_bits, b_bits, den)
        with packing("decimal"):
            assert fraction_product(a, b, length) == pair_products([a], b, length)[0]
    @pytest.mark.parametrize(
        "m, a_max, b_max",
        [(3, 7, 7), (5, 10**3, 10**4), (4, 25 * 10**9, 10**10), (3, 2**64 - 1, 2**64 - 1),
         (255, 2**1000 - 1, 3**600)],
        ids=["7x7", "1e3x1e4", "25e9x1e10", "2^64x2^64", "2^1000x3^600"],
    )
    def test_width_bound_without_slack(self, m, a_max, b_max):
        # with every coefficient at its maximum the middle coefficient is
        # c = m * a_max * b_max, exactly the bound.  For these shapes the
        # slot width k the gate derives from the bit lengths is the digit
        # count of 2c, the fewest digits that hold c: one digit short, the
        # bias 10^(k-1) / 2 <= c pushes c's slot to 10^(k-1) or more, a
        # carry.
        n = 2 * m - 1
        a = [a_max] * m + [0] * (m - 1)
        b = [b_max] * m + [0] * (m - 1)
        want = [(min(t, n - 1 - t) + 1) * a_max * b_max for t in range(n)]
        widths = []

        def spy(k, n):
            widths.append(k)
            return _decimal_slots(k, n)

        with packing("decimal"), pytest.MonkeyPatch.context() as mp:
            mp.setattr(series, "_decimal_slots", spy)
            assert _kronecker([a], b, n) == [want]
        [k] = widths
        assert k == len(str(2 * m * a_max * b_max))
        pack, times, unpack = _decimal_slots(k - 1, n)
        assert unpack(times(pack(a), pack(b))) != want

    def test_slot_cap(self):
        # the slots of (2^bits - 1 - q) * (1 + q) widen by a digit every
        # few bits; the decimal kernel takes them up to the interpreter's
        # int/str limit (4,300 digits when it is off) and no wider
        cap = series._int_str_limit() or 4300
        b = [1, 1]
        widths = []

        def spy(k, n):
            widths.append(k)
            return _decimal_slots(k, n)

        decimal_route = []
        with packing("decimal"), pytest.MonkeyPatch.context() as mp:
            mp.setattr(series, "_decimal_slots", spy)
            middle = round(cap / 0.30103)
            for bits in range(middle - 20, middle + 10):
                a = [2**bits - 1, -1]
                calls = len(widths)
                assert _kronecker([a], b, 2) == pair_products([a], b, 2)
                decimal_route.append(len(widths) > calls)
        assert max(widths) == cap
        assert decimal_route == sorted(decimal_route, reverse=True)
        assert decimal_route[0] and not decimal_route[-1]

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit"
    )
    def test_lowered_int_str_limit_takes_the_binary_kernel(self):
        # 640 digits is the lowest limit CPython accepts; these slots have
        # about 1,000 digits
        a = [3**1000 + e for e in range(30)]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with packing("decimal"):
                got = _kronecker([a], a, 30)
        finally:
            sys.set_int_max_str_digits(limit)
        assert got == pair_products([a], a, 30)

    def test_slots_past_the_cap_take_the_binary_kernel(self):
        # 2^14000 squared has about 8,400 digits, more than CPython
        # converts to a str
        big = 2**14000
        a = [big - e for e in range(6)]
        b = [(-1) ** e * (big + e) for e in range(6)]

        def refuse(*args):
            raise AssertionError("decimal kernel called past the slot cap")

        with packing("decimal"), pytest.MonkeyPatch.context() as mp:
            mp.setattr(series, "_decimal_slots", refuse)
            assert _kronecker([a], b, 6) == pair_products([a], b, 6)
            assert _kronecker([a], a, 6) == pair_products([a], a, 6)

    @pytest.mark.parametrize("prec", [None, 5])
    def test_global_state_untouched(self, prec):
        # a product past the real threshold: 400 slots of about 380 digits
        a = [(-1) ** e * (2**620 + e) for e in range(400)]
        b = [2**600 - 7 * e for e in range(400)]
        widths = []

        def spy(k, n):
            widths.append(k * n)
            return _decimal_slots(k, n)

        def state(ctx):
            return (ctx.prec, ctx.rounding, ctx.Emax, ctx.Emin, ctx.capitals,
                    ctx.clamp, dict(ctx.traps), dict(ctx.flags))

        limit = series._int_str_limit()
        with decimal.localcontext() as ctx, pytest.MonkeyPatch.context() as mp:
            if prec is not None:
                # a narrow context that would round any wide product
                ctx.prec = prec
                ctx.traps[decimal.Inexact] = True
                ctx.flags[decimal.Clamped] = True
            before = state(ctx)
            mp.setattr(series, "_decimal_slots", spy)
            got = _kronecker([a], b, 400)
            assert decimal.getcontext() is ctx
            assert state(ctx) == before
        assert widths and widths[0] >= series._DECIMAL_MIN_DIGITS
        assert series._int_str_limit() == limit
        assert got == pair_products([a], b, 400)


KERNEL_ROUTES = ["binary", "decimal"]


@st.composite
def shared_operands(draw):
    """A right factor, one to three left factors (``right`` itself among
    them as often as not) and their length n: dense lists with zeros and
    negative values, sometimes all zero."""
    n = draw(st.integers(min_value=1, max_value=30))
    big = 2**300
    value = st.one_of(
        st.just(0),
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=-big, max_value=big),
        st.sampled_from([big, -big]),
    )
    factor = st.lists(value, min_size=n, max_size=n)
    right = draw(factor.filter(any))
    lefts = draw(st.lists(st.one_of(factor, st.just(right)), min_size=1, max_size=3))
    return lefts, right, n


def eta_lists(scale: int, exponent: int, n: int) -> list[int]:
    """prod (1 - q^{scale k})^exponent through q^(n-1) as a dense list: zero
    off the multiples of the scale."""
    s = dedekind_eta_power(scale, exponent, n - 1)
    return [s.coeff(t) for t in range(n)]


class TestKroneckerKernel:
    """The one kernel, in each of its packings, against the pair-loop oracle."""

    @pytest.mark.parametrize("route", KERNEL_ROUTES)
    @settings(max_examples=150, deadline=None)
    @given(shared_operands())
    def test_matches_pair_loop(self, route, operands):
        lefts, right, n = operands
        with packing(route):
            assert _kronecker(lefts, right, n) == pair_products(lefts, right, n)

    @pytest.mark.parametrize("route", KERNEL_ROUTES)
    @settings(max_examples=100, deadline=None)
    @given(shared_operands())
    def test_shared_right_factor_matches_separate_calls(self, route, operands):
        lefts, right, n = operands
        with packing(route):
            together = _kronecker(lefts, right, n)
            apart = [_kronecker([a], right, n)[0] for a in lefts]
        assert together == apart

    @pytest.mark.parametrize("route", KERNEL_ROUTES)
    @pytest.mark.parametrize("n", [1, 2, 7, 60])
    def test_zero_and_sparse_factors(self, route, n):
        # eta powers in q^2, q^3 and q^5 are zero off their multiples; an
        # all-zero left factor, a lone constant term (the first factor of
        # an eta monomial multiplies it) and one term per 20 slots share
        # the right factor with dense ones
        right = eta_lists(1, -24, n)
        one = [1] + [0] * (n - 1)
        sparse = [(-1) ** t * (t + 1) if t % 20 == 0 else 0 for t in range(n)]
        lefts = [eta_lists(2, 24, n), eta_lists(3, -12, n), [0] * n, eta_lists(5, 8, n), right]
        lefts += [one, sparse]
        with packing(route):
            got = _kronecker(lefts, right, n)
            alone = _kronecker([[0] * n], right, n)
            sparse_right = _kronecker([one, sparse], sparse, n)
        assert got == pair_products(lefts, right, n)
        assert alone == [[0] * n]
        assert sparse_right == pair_products([one, sparse], sparse, n)

    def test_width_reads_only_the_pairs_below_n(self):
        # a wide coefficient at the top of each factor: no pair reaching the
        # low n slots holds both, so the slots need bits(2^1000) + bits(1) +
        # bits(m) + 1 bits, not bits(2^1000) + bits(3^600) + bits(m) + 1
        n = 30
        a = [1] * (n - 1) + [2**1000]
        right = [-1] * (n - 1) + [3**600]
        widths = []

        def spy(k, n):
            widths.append(k)
            return _decimal_slots(k, n)

        with packing("decimal"), pytest.MonkeyPatch.context() as mp:
            mp.setattr(series, "_decimal_slots", spy)
            assert _kronecker([a, right], right, n) == pair_products([a, right], right, n)
        assert widths == [(1001 + 1 + n.bit_length() + 1) * 30103 // 100000 + 1]

    @pytest.mark.parametrize("route", KERNEL_ROUTES)
    def test_j_products(self, route):
        # the shapes j_series sends, at an order where the real routes
        # differ: wide coefficients, a square, a shared right factor
        n = 40
        e4, e6, e8 = modular._eisenstein_coeffs(n - 1)
        dinv = eta_lists(1, -24, n)
        want = pair_products([e4, e6], e8, n) + pair_products([e6], e6, n)
        with packing(route):
            got = _kronecker([e4, e6], e8, n) + _kronecker([e6], e6, n)
            assert got == want
            assert _kronecker(want, dinv, n) == pair_products(want, dinv, n)


# ---------------------------------------------------------------------------
# comparison


class TestComparison:
    def test_zero_extension_below_floors(self):
        a = UniSeries({2: 5}, 6)
        b = UniSeries({0: 0, 2: 5}, 6)
        assert a == b

    def test_mismatches_are_localized(self):
        a = UniSeries({1: 1, 2: 2, 3: 3}, 5)
        b = UniSeries({1: 1, 2: 7}, 4)
        assert a.mismatches(b) == [(2, 2, 7), (3, 3, 0)]

    def test_comparison_ignores_uncertified_tail(self):
        a = UniSeries({1: 1, 4: 9}, 6)
        b = UniSeries({1: 1}, 2)
        assert a == b  # q^4 term lies above b's window


# ---------------------------------------------------------------------------
# property tests


class TestRingLaws:
    """The product laws, on the one kernel that every product runs through."""

    @given(kernel_triples())
    def test_mul_commutes(self, abc):
        a, b, _ = abc
        n = len(a)
        assert _kronecker([a], b, n) == _kronecker([b], a, n)

    @given(kernel_triples())
    def test_mul_distributes(self, abc):
        a, b, c = abc
        n = len(a)
        [lhs] = _kronecker([a], list(map(add, b, c)), n)
        ab, ac = _kronecker([b, c], a, n)
        assert lhs == list(map(add, ab, ac))

    @given(kernel_triples())
    def test_mul_associates(self, abc):
        a, b, c = abc
        n = len(a)
        [ab] = _kronecker([a], b, n)
        [bc] = _kronecker([b], c, n)
        assert _kronecker([ab], c, n) == _kronecker([a], bc, n)

    @given(kernel_lists(), st.integers(min_value=1, max_value=4))
    def test_substitute_power_is_multiplicative(self, s, k):
        # (s^2)(q^k) = s(q^k)^2: spreading a product is the product of the
        # spread factors, the identity eta powers in q^k are built on
        n = len(s)
        [square] = _kronecker([s], s, n)
        wide = spread(s, k)
        assert _kronecker([wide], wide, n * k) == [spread(square, k)]

    @given(kernel_operands(), st.integers(min_value=0, max_value=40))
    def test_mul_is_sound_under_truncation(self, operands, cut):
        # the low slots of a product read only the low entries of its
        # factors: a cut factor gives the same coefficients below the cut
        a, b, n = operands
        m = max(n - cut, 1)
        [full] = _kronecker([a], b, n)
        assert _kronecker([a[:m]], b[:m], m) == [full[:m]]


# ---------------------------------------------------------------------------
# two-variable series


@st.composite
def log_columns(draw):
    """A window mmax x nmax, its sides unequal as often as not, and the
    generator column c(1..mmax+nmax-1) that ``log1m_rows`` reads there:
    ints, Fractions and zeros."""
    mmax = draw(st.integers(min_value=1, max_value=6))
    nmax = draw(st.integers(min_value=1, max_value=8))
    value = st.one_of(st.just(0), coeffs())
    return {n: draw(value) for n in range(1, mmax + nmax)}, mmax, nmax


def reference_log1m(u: BiSeries) -> BiSeries:
    """-sum_k u^k / k over the powers that reach p^pmax, by the dict product."""
    total = {}
    power = u
    for k in range(1, u.pmax + 1):
        for cell, value in power.items():
            total[cell] = total.get(cell, 0) - Fraction(value, k)
        power = reference_bimul(power, u, u.pmax, u.qmax)
    return BiSeries(total, u.pmax, u.qmax)


def kronecker_log1m_rows(u, ceilings):
    """``log1m_rows`` by whole-row products: M_m = -m u_m + sum_{k<m} u_k
    M_{m-k}, each product u_k M_{m-k} cut at row m's ceiling and run
    through the Kronecker kernel over the rows' common denominators
    (:func:`fraction_product`).  ``log1m_rows`` ran this way before it took
    one dot product per cell; kept as its oracle."""
    big_m = [{}]
    for m in range(1, len(u)):
        n = ceilings[m] + 1
        row = {q: -m * v for q, v in u[m].items() if q < n}
        for k in range(1, m):
            a = [u[k].get(q, 0) for q in range(n)]
            b = [big_m[m - k].get(q, 0) for q in range(n)]
            for q, v in enumerate(fraction_product(a, b, n)):
                if v:
                    row[q] = row.get(q, 0) + v
        big_m.append({q: series._norm(v) for q, v in row.items() if v})
    return big_m


def per_cell_log1m_rows(column, mmax: int, nmax: int) -> list[list]:
    """``log1m_rows`` cell by cell on the window as given, one dot product
    per k, whatever its shape: the route it took before a window taller
    than wide was computed as its transpose, kept as its oracle."""
    c = [0] + [column[n] for n in range(1, mmax + nmax)]
    rows = [[]]
    for m in range(1, mmax + 1):
        row = [0]
        for q in range(1, nmax + 1):
            total = -m * c[m + q - 1]
            for k in range(1, m):
                total += sum(map(mul, c[k : k + q - 1], reversed(rows[m - k][1:q])))
            row.append(total)
        rows.append(row)
    return rows


def big_log_values():
    """Column values: ints, Fractions (non-integral ones of any size among
    them), zeros and +-10^30."""
    big = 10**30
    return st.one_of(
        st.just(0),
        coeffs(),
        st.fractions(max_denominator=7).filter(lambda v: v.denominator > 1),
        st.integers(min_value=-big, max_value=big),
        st.sampled_from([big, -big]),
    )


@st.composite
def tall_log_columns(draw):
    """A window taller than wide, mmax > nmax, and its generator column."""
    nmax = draw(st.integers(min_value=1, max_value=4))
    mmax = draw(st.integers(min_value=nmax + 1, max_value=14))
    value = big_log_values()
    return {n: draw(value) for n in range(1, mmax + nmax)}, mmax, nmax


@st.composite
def shaped_log_columns(draw):
    """A window of a drawn shape, square, wide, tall, one row or one
    column, and its generator column."""
    shape = draw(st.sampled_from(["square", "wide", "tall", "row", "column"]))
    side = st.integers(min_value=1, max_value=10)
    if shape == "square":
        mmax = nmax = draw(side)
    elif shape == "row":
        mmax, nmax = 1, draw(side)
    elif shape == "column":
        mmax, nmax = draw(side), 1
    else:
        short = draw(st.integers(min_value=1, max_value=9))
        long = draw(st.integers(min_value=short + 1, max_value=10))
        mmax, nmax = (short, long) if shape == "wide" else (long, short)
    value = big_log_values()
    return {n: draw(value) for n in range(1, mmax + nmax)}, mmax, nmax


@contextmanager
def schoolbook_kernel():
    """The product kernel ``_kronecker`` swapped for the schoolbook double
    loop (:func:`pair_products`), so that the log rows are checked apart
    from the packing.  Yields the list of the lengths of the products run."""
    calls = []

    def schoolbook(lefts, right, n):
        calls.append(n)
        return pair_products(lefts, right, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "_kronecker", schoolbook)
        yield calls


def generator_character(column, mmax: int, nmax: int) -> BiSeries:
    """U = sum c(m+n-1) p^m q^n on the window, from the column c."""
    cells = [(m, n) for m in range(1, mmax + 1) for n in range(1, nmax + 1)]
    return BiSeries({(m, n): column[m + n - 1] for m, n in cells}, mmax, nmax)


def one_minus(u: BiSeries) -> BiSeries:
    """1 - u on u's window, for a u with no constant term."""
    assert u.coeff(0, 0) == 0
    return BiSeries([((0, 0), 1)] + [(cell, -v) for cell, v in u.items()], u.pmax, u.qmax)


def column_rows(column, mmax: int, nmax: int) -> list[dict]:
    """The q-rows u_m[n] = c(m+n-1) of the generator character, as the
    {q: coefficient} dicts ``kronecker_log1m_rows`` reads."""
    return [{}] + [
        {n: series._norm(v) for n in range(1, nmax + 1) if (v := column[m + n - 1])}
        for m in range(1, mmax + 1)
    ]


def log_cells(rows: list[list]) -> dict:
    """The nonzero cells {(m, q): M_m[q]} of ``log1m_rows``' rows."""
    return {(m, q): v for m, row in enumerate(rows) for q, v in enumerate(row) if v}


def j_column(size: int) -> dict:
    """c(1..2 size - 1) of the normalized invariant: the generator column
    that ``witt`` reads at a size x size window."""
    c = normalized_j(2 * size - 1)
    return {n: c.coeff(n) for n in range(1, 2 * size)}


# the catalog's expansions, enough for the 8x8 generator series
CATALOG_FAMILY = load_family(
    parse_table_text(
        resources.files("moonshine").joinpath("data/catalog.mtf").read_text()
    ),
    15,
)

# the generator columns at shipped sizes: the j column at 10x10, whose log
# cells reach 180 bits, and the catalog classes at 8x8, as verify-ep reads them
SHIPPED_COLUMNS = [(j_column(10), 10, 10)] + [
    (CATALOG_FAMILY.values[name], 8, 8) for name in CATALOG_FAMILY.table.names
]


def bi_cut(u: BiSeries, dp: int, dq: int) -> BiSeries:
    """``u`` with its ceilings lowered by ``dp`` and ``dq`` (p stays >= 0)."""
    pmax, qmax = max(u.pmax - dp, 0), u.qmax - dq
    return BiSeries({(i, j): v for (i, j), v in u.items() if i <= pmax and j <= qmax}, pmax, qmax)


cuts = st.integers(min_value=0, max_value=6)


class TestBiSeries:
    def test_coeff_semantics(self):
        u = BiSeries({(1, 1): 2}, 3, 4)
        assert u.coeff(0, -5) == 0  # below the q support: provably zero
        with pytest.raises(ValueError, match="beyond the window"):
            u.coeff(4, 0)

    def test_log1m_matches_power_sum(self):
        # U^5 starts at p^5, so -sum_{k<=4} U^k / k is exact on the window;
        # the p^2 row mixes powers of different k into the same cells
        column = {1: 2, 2: 3, 3: -1, 4: 0, 5: 1, 6: Fraction(1, 2), 7: 0, 8: 4}
        u = generator_character(column, 4, 5)
        total = {}
        power = BiSeries({(0, 0): 1}, 4, 5)
        for k in range(1, 5):
            power = reference_bimul(power, u, 4, 5)
            for cell, value in power.items():
                total[cell] = total.get(cell, 0) - Fraction(value, k)
        cells = log_cells(series.log1m_rows(column, 4, 5))
        assert {(m, q): Fraction(v, m) for (m, q), v in cells.items()} == {
            cell: v for cell, v in total.items() if v
        }

    def test_log1m_keeps_floor_and_ceiling(self):
        # row m runs from q^0, which holds 0, to q^nmax; row 0 is empty.
        # U = pq: log(1 - pq) = -pq - p^2 q^2 / 2 - ...
        column = {1: 1, 2: 0, 3: 0}
        assert series.log1m_rows(column, 2, 2) == [[], [0, -1, 0], [0, 0, -1]]
        assert series.log1m_rows(column, 1, 2) == [[], [0, -1, 0]]
        assert series.log1m_rows(column, 2, 1) == [[], [0, -1], [0, 0]]

    def test_log1m_feeds_integral_fractions_back(self):
        # M_2[1] = -2 c(2) = -1 comes from a Fraction; the cells above it
        # read it like any other and stay exact
        column = {1: 1, 2: Fraction(1, 2), 3: 0, 4: 0, 5: 0}
        rows = series.log1m_rows(column, 3, 3)
        assert rows[2][1] == -1
        want = reference_log1m(generator_character(column, 3, 3))
        assert log_cells(rows) == {(m, q): m * v for (m, q), v in want.items()}

    def test_log1m_matches_reference_power_sum(self):
        # the shipped sizes, with the schoolbook product for the kernel,
        # against the power sum and the whole-row products
        for column, mmax, nmax in SHIPPED_COLUMNS:
            want = reference_log1m(generator_character(column, mmax, nmax))
            packed = kronecker_log1m_rows(column_rows(column, mmax, nmax), [nmax] * (mmax + 1))
            with schoolbook_kernel():
                rows = series.log1m_rows(column, mmax, nmax)
            assert log_cells(rows) == {(m, q): m * v for (m, q), v in want.items()}
            assert [{q: v for q, v in enumerate(row) if v} for row in rows] == packed

    @settings(max_examples=300)
    @given(log_columns())
    @example(({1: 196884, 2: 21493760, 3: 0, 4: Fraction(1, 2), 5: -7}, 4, 2))
    @example(({1: 0, 2: Fraction(-3, 4), 3: 5, 4: 0, 5: 0, 6: 1}, 1, 6))
    def test_log1m_rows_matches_reference_power_sum(self, case):
        # row m is m times the coefficient of p^m in -sum_k U^k / k
        column, mmax, nmax = case
        want = reference_log1m(generator_character(column, mmax, nmax))
        with schoolbook_kernel():
            rows = series.log1m_rows(column, mmax, nmax)
        assert len(rows) == mmax + 1 and rows[0] == []
        assert all(len(row) == nmax + 1 and row[0] == 0 for row in rows[1:])
        assert log_cells(rows) == {(m, q): m * v for (m, q), v in want.items()}

    @settings(max_examples=300)
    @given(log_columns())
    @example(({1: 196884, 2: 21493760, 3: 0, 4: Fraction(1, 2), 5: -7}, 4, 2))
    def test_log1m_rows_matches_kronecker_rows(self, case):
        column, mmax, nmax = case
        want = kronecker_log1m_rows(column_rows(column, mmax, nmax), [nmax] * (mmax + 1))
        with schoolbook_kernel():
            rows = series.log1m_rows(column, mmax, nmax)
        assert [{q: v for q, v in enumerate(row) if v} for row in rows] == want

    @settings(max_examples=300)
    @given(tall_log_columns())
    @example(({n: 10**30 * (-1) ** n for n in range(1, 15)}, 13, 1))
    @example(({1: Fraction(1, 3), 2: 0, 3: -(10**30), 4: Fraction(-7, 2), 5: 2}, 4, 2))
    def test_tall_window_matches_per_cell_rows(self, case):
        # a window taller than wide is computed as its transpose and mapped
        # back by n M_m[n] = m M_n[m]; integer columns keep integer cells
        column, mmax, nmax = case
        rows = series.log1m_rows(column, mmax, nmax)
        assert rows == per_cell_log1m_rows(column, mmax, nmax)
        if all(isinstance(v, int) for v in column.values()):
            assert all(isinstance(v, int) for row in rows for v in row)

    @settings(max_examples=300)
    @given(shaped_log_columns())
    @example(({1: Fraction(1, 2), 2: 0, 3: 10**30, 4: Fraction(-5, 3), 5: 7, 6: -(10**30)}, 3, 4))
    @example(({n: Fraction(n, 6) for n in range(1, 12)}, 1, 11))
    @example(({n: (-1) ** n * 10**30 for n in range(1, 12)}, 11, 1))
    def test_faber_rows_match_per_cell_rows(self, case):
        # the Faber recurrence against the cell-by-cell one, on every shape;
        # a column with a non-integral value runs scaled by D^m, and an
        # integer column keeps integer cells
        column, mmax, nmax = case
        rows = series.log1m_rows(column, mmax, nmax)
        assert rows == per_cell_log1m_rows(column, mmax, nmax)
        if all(isinstance(v, int) for v in column.values()):
            assert all(isinstance(v, int) for row in rows for v in row)

    @pytest.mark.parametrize("mmax, nmax", [(24, 24), (2, 300)])
    def test_faber_rows_match_per_cell_rows_on_j(self, mmax, nmax):
        column = j_column(max(mmax, nmax))
        assert series.log1m_rows(column, mmax, nmax) == per_cell_log1m_rows(column, mmax, nmax)

    def test_tall_window_remainder_is_an_internal_fault(self, monkeypatch):
        # a transposed cell m M_n[m] that n does not divide is a fault of the
        # code, not of the input
        log1m_rows = series.log1m_rows

        def corrupted(column, mmax, nmax):
            rows = log1m_rows(column, mmax, nmax)
            rows[2][3] = 1  # M_3[2] = 3 * 1 / 2
            return rows

        monkeypatch.setattr(series, "log1m_rows", corrupted)
        with pytest.raises(RuntimeError, match="not integral"):
            log1m_rows({1: 1, 2: 0, 3: 0, 4: 0}, 3, 2)

    def test_log_rows_make_one_product_per_row(self):
        # row m >= 2 is one kernel product J F_(m-1); a window taller than
        # wide runs as its transpose, so min(mmax, nmax) - 1 products
        column = j_column(14)
        for mmax, nmax in [(1, 1), (1, 27), (2, 2), (6, 6), (3, 14), (14, 3), (27, 1)]:
            with schoolbook_kernel() as calls:
                rows = series.log1m_rows(column, mmax, nmax)
            assert calls == [mmax + nmax + 1] * (min(mmax, nmax) - 1)
            assert rows == per_cell_log1m_rows(column, mmax, nmax)

    def test_log_readers_make_one_product_per_row(self):
        # expanding a family multiplies eta powers through the kernel, so
        # the family and the column are built first; then each reader's
        # log1m_rows makes at most mmax - 1 products
        family = load_family(CATALOG_FAMILY.table, 36)
        c = normalized_j(15)
        reports = []
        for name in family.table.names:
            with schoolbook_kernel() as calls:
                reports.append(euler_poincare_report(family, name, 6, 6))
            assert len(calls) <= 5
        with schoolbook_kernel() as calls:
            dims = witt_dims(8, 8, c)
        assert len(calls) <= 7
        assert all(report.ok for report in reports)
        assert [dims.dim(1, n) for n in range(1, 9)] == [c.coeff(n) for n in range(1, 9)]

    @settings(max_examples=300)
    @given(log_columns(), cuts, cuts)
    def test_log1m_window_is_sound_under_truncation(self, case, dp, dq):
        # a smaller window reads only its own part of the column, and its
        # cells are those of the larger window
        column, mmax, nmax = case
        short_m, short_n = max(mmax - dp, 1), max(nmax - dq, 1)
        read = {n: column[n] for n in range(1, short_m + short_n)}
        rows = series.log1m_rows(column, mmax, nmax)
        assert series.log1m_rows(read, short_m, short_n) == [
            row[: short_n + 1] for row in rows[: short_m + 1]
        ]

    # p times q, each cut to p^0 q^0: both cuts are empty, so a window read
    # from the stored terms would certify a zero product up to p^1 q^1,
    # where the uncut product has p^1 q^1 = 1
    @pytest.mark.parametrize(
        "operation",
        [
            lambda p, q: p * q,
            lambda p, q: p * p,
            lambda p, q: p + 1,
            lambda p, q: 1 + p,
            lambda p, q: p - 1,
            lambda p, q: 1 - p,
            lambda p, q: p - Fraction(1, 2),
        ],
        ids=[
            "series-product", "square", "add-1", "radd-1",
            "sub-1", "rsub-1", "sub-fraction",
        ],
    )
    def test_no_series_product_or_constant_arithmetic(self, operation):
        p = bi_cut(BiSeries({(1, 0): 1}, 1, 1), 1, 1)
        q = bi_cut(BiSeries({(0, 1): 1}, 1, 1), 1, 1)
        with pytest.raises(TypeError):
            operation(p, q)


# ---------------------------------------------------------------------------
# two-variable products against the dict reference


def assert_same_bi(got: BiSeries, want: BiSeries):
    assert (got.pmax, got.qmax) == (want.pmax, want.qmax)
    assert got.items() == want.items()


@st.composite
def graded_dims(draw):
    """Full dimension grids up to 6x6, or tall up to 30x2, with zero
    entries and 300-bit entries."""
    mmax, nmax = draw(
        st.one_of(
            st.tuples(st.integers(1, 6), st.integers(1, 6)),
            st.tuples(st.integers(7, 30), st.integers(1, 2)),
        )
    )
    dim = st.one_of(
        st.just(0),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=2**299, max_value=2**300),
    )
    cells = [(m, n) for m in range(1, mmax + 1) for n in range(1, nmax + 1)]
    return GradedDims({cell: draw(dim) for cell in cells}, mmax, nmax)


class TestBiProductKernel:
    """The in-place two-variable products against the dict product."""

    def test_prefactor_with_negative_q(self):
        # denominator_sides applies the identity's 1 - p q^-1, the one factor
        # below q^0, in place; that must equal the product of the prefactor
        # and the expanded product cut to the window, ceilings included
        windows = [(p, q) for p in range(1, 9) for q in range(1, 9)] + [(24, 24)]
        for pmax, qmax in windows:
            c = normalized_j(pmax * (qmax + 1))
            mults = {
                (i, j): int(c.coeff(i * j))
                for i in range(1, pmax + 1)
                for j in range(1, qmax + 2)
            }
            expanded = dimension_product(GradedDims(mults, pmax, qmax + 1))
            prefactor = BiSeries({(0, 0): 1, (1, -1): -1}, pmax, qmax + 1)
            want = reference_bimul(prefactor, expanded, pmax, qmax)
            assert_same_bi(denominator_sides(pmax, qmax)[1], want)

    @settings(max_examples=60, deadline=None)
    @given(graded_dims())
    # after (1,1) both 1 and p^2 q^2 are terms; (2,2) moves the constant
    # onto p^2 q^2 first, then must move p^2 q^2 with its earlier value
    @example(GradedDims({(1, 1): 3, (2, 2): 1}, 4, 4))
    def test_dimension_product_matches_reference(self, dims):
        pmax, qmax = dims.mmax, dims.nmax
        want = BiSeries({(0, 0): 1}, pmax, qmax)
        for (m, n), d in dims.dims.items():
            top = min(pmax // m, qmax // n)
            factor = BiSeries(
                {(m * t, n * t): (-1) ** t * math.comb(d, t) for t in range(top + 1)},
                pmax,
                qmax,
            )
            want = reference_bimul(want, factor, pmax, qmax)
        assert_same_bi(dimension_product(dims), want)
