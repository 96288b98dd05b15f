"""Modular q-expansions against brute-force and closed-form oracles."""

from __future__ import annotations

from fractions import Fraction
from importlib import resources
from itertools import count
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moonshine import cli, modular, series
from moonshine.classes import EtaMonomial, parse_table_text
from moonshine.modular import (
    dedekind_eta_power,
    delta,
    eisenstein,
    euler_product,
    expand_recipe,
    j_series,
    normalized_j,
)
from moonshine.series import UniSeries, _decimal_slots
from test_series import pair_products, spread

DATA = Path(__file__).resolve().parent / "data"
ETA_TABLES = ("eta5.mtf", "eta5_badpower.mtf", "eta7_13.mtf", "eta12.mtf")

# Conway-Norton's 2A Hauptmodul as a table: t + 24 + 4096/t with
# t = (eta(tau)/eta(2 tau))^24, the constant dropped by normalization
TABLE_2A = """class 1A order 1
class 2A order 2
identity 1A
eta 2A 1 1:24 2:-24
eta 2A 4096 2:24 1:-24
"""


# ---------------------------------------------------------------------------
# dense-list oracles: a series through q^(lo + n - 1) is a list of its n
# coefficients from q^lo, and every product is the schoolbook double loop


def dense(s: UniSeries, lo: int = 0) -> list:
    """A record's coefficients from q^lo through its ceiling."""
    return [s.coeff(e) for e in range(lo, s.hi + 1)]


def record(coeffs: list, lo: int = 0) -> UniSeries:
    """Coefficients from q^lo as a record whose ceiling is the last one."""
    return UniSeries(zip(count(lo), coeffs), lo + len(coeffs) - 1)


def power(a: list, exponent: int) -> list:
    """a^exponent, exponent >= 0, by schoolbook squarings and products."""
    n = len(a)
    out = [1] + [0] * (n - 1)
    while exponent:
        if exponent & 1:
            [out] = pair_products([out], a, n)
        exponent >>= 1
        if exponent:
            [a] = pair_products([a], a, n)
    return out


def long_division(a: list) -> list:
    """The coefficients of 1/a as far as a's, by long division: a[0] != 0."""
    lead = Fraction(1, a[0])
    b: list = []
    for d in range(len(a)):
        rest = (d == 0) - sum(a[t] * b[d - t] for t in range(1, d + 1))
        b.append(series._norm(rest * lead))
    return b


def brute_euler(order: int, scale: int = 1) -> list:
    """prod (1 - q^{scale n}) through q^order, folded factor by factor, no
    pentagonal shortcut."""
    out = [1] + [0] * order
    for n in range(scale, order + 1, scale):
        factor = [0] * (order + 1)
        factor[0], factor[n] = 1, -1
        [out] = pair_products([out], factor, order + 1)
    return out


class TestEulerProduct:
    def test_matches_brute_force(self):
        assert window(euler_product(30)) == window(record(brute_euler(30)))

    def test_pentagonal_pattern(self):
        assert euler_product(12).items() == [
            (0, 1), (1, -1), (2, -1), (5, 1), (7, 1), (12, -1),
        ]


def reference_eta_power(scale: int, exponent: int, order: int) -> list:
    """prod (1 - q^{scale n})^exponent through q^order by substituting
    first: the product is spread to q^scale through q^order, then powered
    and inverted there."""
    base = spread(dense(euler_product(order // scale)), scale)[: order + 1]
    out = power(base, abs(exponent))
    return long_division(out) if exponent < 0 else out


def plain_variable_eta_power(scale: int, exponent: int, order: int) -> list:
    """prod (1 - q^{scale n})^exponent through q^order by powering the Euler
    product in the plain variable through q^(order // scale), inverting it
    there by long division if the exponent is negative, and spreading it to
    q^scale."""
    out = power(dense(euler_product(order // scale)), abs(exponent))
    if exponent < 0:
        out = long_division(out)
    return spread(out, scale)[: order + 1]


def reference_recipe(recipe: tuple[EtaMonomial, ...], order: int) -> UniSeries:
    """A recipe with integral offsets through q^order: each monomial is its
    coefficient times the schoolbook product of its substitute-first eta
    powers, added in at its leading exponent, and the sum's q^0 zeroed."""
    terms = []
    for mono in recipe:
        shift = int(mono.offset())
        if shift <= order:
            n = order - shift + 1
            body = [1] + [0] * (n - 1)
            for scale, exponent in mono.factors:
                [body] = pair_products([body], reference_eta_power(scale, exponent, n - 1), n)
            terms.append((shift, [mono.coeff * v for v in body]))
    lo = min(shift for shift, _ in terms)
    total = [0] * (order - lo + 1)
    for shift, body in terms:
        for t, v in enumerate(body, shift - lo):
            total[t] += v
    if lo <= 0:
        total[-lo] = 0
    return record(total, lo)


def window(series: UniSeries) -> tuple[int, list]:
    return series.hi, series.items()


ETA_EXPONENTS = [s * e for e in (1, 2, 3, 4, 6, 8, 12, 24) for s in (1, -1)]


class TestEtaPowers:
    def test_partition_generating_function(self):
        series = dedekind_eta_power(1, -1, 5)
        assert series.items() == [(0, 1), (1, 1), (2, 2), (3, 3), (4, 5), (5, 7)]
        assert EtaMonomial.from_factors(1, {1: -1}).offset() == Fraction(-1, 24)

    def test_positive_power_matches_brute(self):
        series = dedekind_eta_power(2, 3, 12)
        assert EtaMonomial.from_factors(1, {2: 3}).offset() == Fraction(6, 24)
        assert window(series) == window(record(power(brute_euler(12, scale=2), 3)))

    def test_zero_power(self):
        series = dedekind_eta_power(2, 0, 4)
        assert series.items() == [(0, 1)] and series.hi == 4
        assert EtaMonomial.from_factors(1, {2: 0}).offset() == 0

    def test_inverse_power_round_trip(self):
        pos = dedekind_eta_power(3, 2, 10)
        neg = dedekind_eta_power(3, -2, 10)
        assert EtaMonomial.from_factors(1, {3: 2}).offset() == Fraction(1, 4)
        assert pair_products([dense(pos)], dense(neg), 11) == [[1] + [0] * 10]

    @pytest.mark.parametrize("exponent", ETA_EXPONENTS)
    @pytest.mark.parametrize("scale", [1, 2, 3, 4, 5])
    def test_matches_substitute_first_route(self, scale, exponent):
        # orders below the scale and orders that are not multiples of it
        # cut the plain-variable work at order // scale; the oracle's
        # coefficients through q^order are its first order + 1 at q^60
        want = reference_eta_power(scale, exponent, 60)
        for order in range(61):
            got = dedekind_eta_power(scale, exponent, order)
            assert window(got) == window(record(want[: order + 1])), order

    @pytest.mark.parametrize("exponent", ETA_EXPONENTS)
    @pytest.mark.parametrize("scale", [1, 2, 3, 4, 5])
    def test_matches_power_and_inverse_route(self, scale, exponent):
        deep = [400] if abs(exponent) in (8, 12, 24) else []
        for order in list(range(61)) + deep:
            got = dedekind_eta_power(scale, exponent, order)
            want = plain_variable_eta_power(scale, exponent, order)
            assert window(got) == window(record(want)), order

    @settings(deadline=None)
    @given(st.integers(-60, 60), st.integers(0, 150), st.integers(1, 5))
    def test_recurrence_property(self, exponent, order, scale):
        got = dedekind_eta_power(scale, exponent, order)
        assert window(got) == window(record(plain_variable_eta_power(scale, exponent, order)))
        back = dedekind_eta_power(scale, -exponent, order)
        assert pair_products([dense(got)], dense(back), order + 1) == [[1] + [0] * order]

    def test_inexact_division_is_an_internal_fault(self, monkeypatch):
        # every division by n is exact for an integral series with constant
        # term 1, so a remainder needs a broken input: here 1 + q/2
        def broken(order):
            return UniSeries({0: 1, 1: Fraction(1, 2)}, order)

        monkeypatch.setattr(modular, "euler_product", broken)
        with pytest.raises(RuntimeError, match="internal cross-check failed"):
            dedekind_eta_power(1, 1, 1)


class TestDelta:
    def test_tau_values(self):
        assert delta(8).items() == [
            (1, 1), (2, -24), (3, 252), (4, -1472),
            (5, 4830), (6, -6048), (7, -16744), (8, 84480),
        ]

    def test_weight_relation(self):
        # E4^3 - E6^2 = 1728 * delta, exactly
        e4 = power(dense(eisenstein(4, 10)), 3)
        e6 = power(dense(eisenstein(6, 10)), 2)
        assert [a - b for a, b in zip(e4, e6)] == [1728 * v for v in dense(delta(10))]


class TestEisenstein:
    def test_e4_divisor_sums(self):
        assert eisenstein(4, 5).items() == [
            (0, 1), (1, 240), (2, 2160), (3, 6720), (4, 17520), (5, 30240),
        ]

    def test_e6_divisor_sums(self):
        assert eisenstein(6, 3).items() == [
            (0, 1), (1, -504), (2, -16632), (3, -122976),
        ]

    def test_order_zero(self):
        assert eisenstein(4, 0).items() == [(0, 1)]

    def test_rejects_other_weights(self):
        with pytest.raises(ValueError, match="weight"):
            eisenstein(8, 4)


class TestJInvariant:
    def test_first_coefficients(self):
        j = j_series(5)
        assert j.items() == [
            (-1, 1),
            (0, 744),
            (1, 196884),
            (2, 21493760),
            (3, 864299970),
            (4, 20245856256),
            (5, 333202640600),
        ]

    def test_both_routes_agree_deep(self):
        # the dual-route comparison runs inside j_series; a disagreement
        # would raise rather than return
        j = j_series(30)
        assert j.is_integral()

    @settings(deadline=None)
    @given(st.integers(0, 300))
    def test_e4_e8_is_e4_cubed(self, order):
        # route A takes E4^3 as E4 E8: weight-8 forms are one-dimensional,
        # so E8 from sigma_7 is E4^2
        e4, e6, e8 = modular._eisenstein_coeffs(order)
        assert e4 == dense(eisenstein(4, order))
        assert pair_products([e4], e4, order + 1) == [e8]
        assert window(record(e6)) == window(eisenstein(6, order))

    def test_normalized_constant_is_zero(self):
        J = normalized_j(2)
        assert J.coeff(0) == 0
        assert J.coeff(-1) == 1
        assert J.coeff(1) == 196884

    def test_negative_one_order(self):
        assert j_series(-1).items() == [(-1, 1)]

    @pytest.mark.parametrize("order", list(range(-1, 61)) + [600])
    def test_reciprocal_matches_long_division(self, order):
        # j_series takes 1/delta from the eta recurrence; the long division
        # of delta is the oracle, for the reciprocal and for j itself, both
        # from q^-1
        work = max(order, 0)
        want = long_division(dense(delta(work + 2), lo=1))
        assert dense(dedekind_eta_power(1, -24, work + 1)) == want
        [j] = pair_products([power(dense(eisenstein(4, work + 1)), 3)], want, work + 2)
        assert window(j_series(order)) == window(record(j[: order + 2], lo=-1))

    def test_normalized_negative_one_order(self):
        assert normalized_j(-1).items() == [(-1, 1)]

    def test_lehner_congruences(self, monkeypatch):
        # Lehner (1949): for n = p^a m with p not dividing m and a >= 1,
        # c(n) is divisible by 2^(3a+8), 3^(2a+3), 5^(a+1), 7^a and 11^a.
        # At order 2000 every product j_series makes is a decimal one, the
        # two with 1/delta among them, so this checks them against
        # arithmetic, not against the other route.
        calls = []

        def spy(k, n):
            pack, times, unpack = _decimal_slots(k, n)
            products = []
            calls.append(products)

            def counted(x, y):
                products.append(k * n)
                return times(x, y)

            return pack, counted, unpack

        monkeypatch.setattr("moonshine.series._decimal_slots", spy)
        j = normalized_j(2000)
        # E4 E8, E6^2, then (E4 E8, E6^2) times 1/delta in one kernel call
        assert [len(products) for products in calls] == [1, 1, 2]
        exponents = {2: (3, 8), 3: (2, 3), 5: (1, 1), 7: (1, 0), 11: (1, 0)}
        for p, (slope, base) in exponents.items():
            for n in range(p, 2001, p):
                a, m = 0, n
                while m % p == 0:
                    a, m = a + 1, m // p
                assert j.coeff(n) % p ** (slope * a + base) == 0, (p, n)


def perturbed_sigma_7(monkeypatch):
    """E8 with one wrong divisor sum: sigma_7(5) off by one."""
    coeffs = modular._eisenstein_coeffs

    def broken(order):
        e4, e6, e8 = coeffs(order)
        e8[5] += 480
        return e4, e6, e8

    monkeypatch.setattr(modular, "_eisenstein_coeffs", broken)


class TestJCrossCheck:
    """A fault in one route only must stop j_series: the cross-check fails."""

    def test_perturbed_sigma_7(self, monkeypatch):
        perturbed_sigma_7(monkeypatch)
        with pytest.raises(RuntimeError, match="two j routes disagree"):
            j_series(50)

    @pytest.mark.parametrize("route", [0, 1])
    @pytest.mark.parametrize("order", [5, 50, 600])
    def test_one_wrong_slot_in_one_route(self, monkeypatch, route, order):
        # the kernel call with 1/delta returns one wrong coefficient for
        # one of its two left factors
        kernel = series._kronecker

        def broken(lefts, right, n):
            products = kernel(lefts, right, n)
            if len(lefts) == 2:
                products[route][n // 2] += 1
            return products

        monkeypatch.setattr(series, "_kronecker", broken)
        with pytest.raises(RuntimeError, match="two j routes disagree"):
            j_series(order)

    def test_jexpand_exits_3_with_empty_stdout(self, monkeypatch, capsys):
        perturbed_sigma_7(monkeypatch)
        assert cli.main(["jexpand", "--order", "50"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "two j routes disagree" in err


class TestRecipes:
    def test_quotient_24_over_2(self):
        # (eta(t)/eta(2t))^24 normalized, checked against a from-scratch fold
        recipe = (EtaMonomial.from_factors(1, {1: 24, 2: -24}),)
        got = expand_recipe(recipe, 8)
        quotient = long_division(power(brute_euler(9, scale=2), 24))
        [brute] = pair_products([power(brute_euler(9), 24)], quotient, 10)
        brute[1] = 0  # the constant term, at q^0
        assert window(got) == window(record(brute, lo=-1))
        assert got.items() == [
            (-1, 1), (1, 276), (2, -2048), (3, 11202), (4, -49152),
            (5, 184024), (6, -614400), (7, 1881471), (8, -5373952),
        ]

    def test_quotient_12_over_3(self):
        recipe = (EtaMonomial.from_factors(1, {1: 12, 3: -12}),)
        assert expand_recipe(recipe, 5).items() == [
            (-1, 1), (1, 54), (2, -76), (3, -243), (4, 1188), (5, -1384),
        ]

    def test_quotient_8_over_4_is_odd(self):
        recipe = (EtaMonomial.from_factors(1, {1: 8, 4: -8}),)
        got = expand_recipe(recipe, 8)
        assert got.items() == [(-1, 1), (1, 20), (3, -62), (5, 216), (7, -641)]
        assert all(got.coeff(n) == 0 for n in (0, 2, 4, 6, 8))

    def test_fractional_offset_rejected(self):
        recipe = (EtaMonomial.from_factors(1, {1: 1}),)
        with pytest.raises(ValueError, match="fractional leading exponent"):
            expand_recipe(recipe, 4)

    def test_monomial_sum(self):
        # a two-monomial recipe is the sum of its parts away from q^0, which
        # every expansion zeroes; the second part starts at q^2
        m1 = EtaMonomial.from_factors(2, {1: 24, 2: -24})
        m2 = EtaMonomial.from_factors(-1, {2: 24})
        got = expand_recipe((m1, m2), 6)
        first = dense(expand_recipe((m1,), 6), lo=-1)
        second = dense(expand_recipe((m2,), 6), lo=-1)
        assert second[:4] == [0, 0, 0, -1]
        total = [a + b for a, b in zip(first, second)]
        assert window(got) == window(record(total, lo=-1))

    def test_rational_recipe(self):
        # 1/2 (eta(t)/eta(2t))^24 + 3/4 eta(2t)^24 + 5: the monomials start
        # at q^-1, q^2 and q^0, and their Fraction coefficients sum to an
        # integer at most exponents
        recipe = (
            EtaMonomial.from_factors(Fraction(1, 2), {1: 24, 2: -24}),
            EtaMonomial.from_factors(Fraction(3, 4), {2: 24}),
            EtaMonomial.from_factors(5, {}),
        )
        for order in range(21):
            got = expand_recipe(recipe, order)
            assert window(got) == window(reference_recipe(recipe, order)), order
            assert all(
                isinstance(v, int) for _, v in got.items() if Fraction(v).denominator == 1
            )
        assert got.coeff(-1) == Fraction(1, 2)
        assert got.coeff(0) == 0
        assert got.coeff(2) == Fraction(-4093, 4)  # -2048/2 + 3/4
        assert got.coeff(4) == -24594  # -49152/2 - 24 * 3/4

    def test_factor_merging(self):
        mono = EtaMonomial.from_factors(1, [(2, 5), (2, -5), (1, 24)])
        assert mono.factors == ((1, 24),)

    def test_conway_norton_2a(self):
        # the second monomial starts at q^1, above the window at order 0
        table = parse_table_text(TABLE_2A)
        assert expand_recipe(table.recipes["2A"], 0).items() == [(-1, 1)]
        assert expand_recipe(table.recipes["2A"], 3).items() == [
            (-1, 1), (1, 4372), (2, 96256), (3, 1240002),
        ]

    def test_lower_order_is_a_restriction(self):
        # expanding to o is the expansion to N cut to q^o, for every recipe
        # the tables ship or test, a 2A table and a monomial starting at q^2
        texts = [resources.files("moonshine").joinpath("data/catalog.mtf").read_text()]
        texts += [(DATA / f).read_text() for f in ETA_TABLES]
        recipes = [r for text in texts for r in parse_table_text(text).recipes.values()]
        recipes += [
            parse_table_text(TABLE_2A).recipes["2A"],
            (EtaMonomial.from_factors(3, {2: 24}),),
        ]
        top = 12
        for recipe in recipes:
            full = expand_recipe(recipe, top)
            for order in range(top + 1):
                got = expand_recipe(recipe, order)
                assert got.hi == order
                assert got.items() == [(e, v) for e, v in full.items() if e <= order]
