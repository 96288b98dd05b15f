"""Class tables, the table file grammar, trace families, Euler-Poincare."""

from __future__ import annotations

import hashlib
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moonshine import series
from moonshine.classes import (
    ClassTable,
    CoefficientFamily,
    EPReport,
    EtaMonomial,
    MissingCoefficients,
    euler_poincare_report,
    load_family,
    parse_table_text,
    serialize_table,
)
from moonshine.modular import normalized_j
from moonshine.series import BiSeries
from test_recursion import broken_tables
from test_series import reference_bimul, reference_log1m

MINIMAL = "class 1A order 1\nidentity 1A\n"
ETA_2B = "class 1A order 1\nclass 2B order 2\nidentity 1A\neta 2B {} 1:24 2:-24\n"
BADPOWER = parse_table_text((Path(__file__).parent / "data" / "eta5_badpower.mtf").read_text())

SEEDS_ONLY = """
class 1A order 1
class 5X order 5
identity 1A
power 5X 2 5X
power 5X 3 5X
power 5X 4 5X
seed 5X 1 9
"""


class TestParsing:
    def test_minimal(self):
        table = parse_table_text(MINIMAL)
        assert table.names == ("1A",)
        assert table.identity == "1A"
        assert table.order_of("1A") == 1

    def test_round_trip(self, catalog_table):
        assert parse_table_text(serialize_table(catalog_table)) == catalog_table

    def test_serialization_is_stable(self, catalog_table):
        text = serialize_table(catalog_table)
        assert text == serialize_table(parse_table_text(text))
        assert text.endswith("\n")

    @pytest.mark.parametrize(
        "text", ["1", "+3", "-24", "3_0", "\u0663", "2/2", "1/2", "1e3", "3.0"]
    )
    def test_eta_coefficient_reads_as_its_fraction_literal(self, text):
        # int() reads the integral literals, Fraction the rest; either way
        # the value is Fraction(text), an int when it is integral
        [mono] = parse_table_text(ETA_2B.format(text)).recipes["2B"]
        assert mono.coeff == Fraction(text)
        assert type(mono.coeff) is (int if Fraction(text).denominator == 1 else Fraction)

    # SHA-256 of serialize_table(parse_table_text(text)) as it was when every
    # eta coefficient was parsed to a Fraction: the ints print the same
    @pytest.mark.parametrize(
        "path, digest",
        [
            (
                Path(__file__).parents[1] / "src" / "moonshine" / "data" / "catalog.mtf",
                "28cffed9c8d3e6a6ced0418a4f64f4c6525a73289ee43d6efdd6b04448421e74",
            ),
            (
                Path(__file__).parent / "data" / "eta12.mtf",
                "e2c59e99336cdafdb419e04f2f2a98fd648523c5949471f0263c1f26696f3948",
            ),
        ],
        ids=["catalog", "eta12"],
    )
    def test_serialization_is_pinned(self, path, digest):
        text = serialize_table(parse_table_text(path.read_text()))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_comments_and_blanks_ignored(self):
        table = parse_table_text("# header\n\nclass 1A order 1  # inline\nidentity 1A\n")
        assert table.names == ("1A",)

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("class 1A order\nidentity 1A", 1),
            ("class 1A order 1\nclass 1A order 1\nidentity 1A", 2),
            ("class 1A order 1\nidentity 1A\nidentity 1A", 3),
            ("class 1A order 1\nidentity 1A\npower 1A 1 1A\npower 1A 1 1A", 4),
            ("class 1A order 1\nidentity 1A\nseed 1A 1 0\nseed 1A 1 0", 4),
            ("class 1A order 1\nidentity 1A\neta 1A 1 24", 3),
            ("class 1A order 1\nidentity 1A\nseed 1A one 5", 3),
            ("class 1A order 1\nidentity 1A\nfrobnicate 1A", 3),
        ],
    )
    def test_errors_carry_line_numbers(self, text, lineno):
        with pytest.raises(ValueError, match=f"table line {lineno}"):
            parse_table_text(text)

    def test_fractional_eta_offset_rejected(self):
        # offsets 23/24, 1/2 and 1/4, each refused at its line
        for factors in ["1:23", "1:12", "2:6 3:-2"]:
            with pytest.raises(ValueError, match="table line 3: fractional .* multiple of 24"):
                parse_table_text(f"class 1A order 1\nidentity 1A\neta 1A 1 {factors}")

    def test_missing_identity(self):
        with pytest.raises(ValueError, match="no identity"):
            parse_table_text("class 1A order 1\n")

    def test_undeclared_identity(self):
        with pytest.raises(ValueError, match="not declared"):
            parse_table_text("class 1A order 1\nidentity 9Z\n")

    def test_unclosed_power_map(self):
        with pytest.raises(ValueError, match="not closed"):
            parse_table_text("class 1A order 1\nclass 6X order 6\nidentity 1A\n")

    def test_first_power_maps_a_class_to_itself(self, catalog_table):
        # g^1 = g; a k = 1 entry naming another class would make every
        # command read that class's column as g's own
        with pytest.raises(ValueError, match=r"2B\^1 -> 1A must map 2B to itself"):
            parse_table_text(serialize_table(catalog_table) + "power 2B 1 1A\n")
        table = parse_table_text(serialize_table(catalog_table) + "power 2B 1 2B\n")
        assert table.power_of("2B", 1) == "2B"


class TestPowerMap:
    def test_mod_reduction(self, catalog_table):
        t = catalog_table
        assert t.power_of("4C", 2) == "2B"
        assert t.power_of("4C", 3) == "4C"
        assert t.power_of("4C", 4) == "1A"
        assert t.power_of("4C", 5) == "4C"
        assert t.power_of("4C", 6) == "2B"
        assert t.power_of("2B", 2) == "1A"
        assert t.power_of("2B", 3) == "2B"
        assert t.power_of("3B", 2) == "3B"
        assert t.power_of("3B", 3) == "1A"

    def test_explicit_entry_wins_over_order(self, catalog_table):
        text = serialize_table(catalog_table) + "power 2B 2 2B\n"
        table = parse_table_text(text)
        assert table.power_of("2B", 2) == "2B"
        # exponents the explicit map does not cover still reduce mod order
        assert table.power_of("2B", 4) == "1A"

    def test_bad_exponent(self, catalog_table):
        with pytest.raises(ValueError, match=">= 1"):
            catalog_table.power_of("2B", 0)

    def test_unknown_class(self, catalog_table):
        with pytest.raises(ValueError, match="unknown class"):
            catalog_table.power_of("7Q", 2)

    @given(st.integers(1, 24), st.integers(1, 24))
    def test_composition_law(self, catalog_table, k, l):
        t = catalog_table
        for name in t.names:
            assert t.power_of(t.power_of(name, k), l) == t.power_of(name, k * l)


class TestConsistencyWarnings:
    def test_catalog_is_clean(self, catalog_table):
        assert catalog_table.consistency_warnings() == []

    def test_order_contradicting_map_is_flagged(self, catalog_table):
        table = parse_table_text(serialize_table(catalog_table) + "power 2B 2 2B\n")
        warnings = table.consistency_warnings()
        assert any("order(2B^2) = 2, expected 1" in w for w in warnings)
        assert any("2B^4" in w for w in warnings)


class TestValidate:
    def test_direct_construction_checks(self):
        with pytest.raises(ValueError, match="no classes"):
            ClassTable((), {}, {}, {}, {}, "1A").validate()
        with pytest.raises(ValueError, match="nonpositive order"):
            ClassTable(("1A",), {"1A": 0}, {}, {}, {}, "1A").validate()
        with pytest.raises(ValueError, match="order 1"):
            ClassTable(("2A",), {"2A": 2}, {("2A", 2): "2A"}, {}, {}, "2A").validate()
        with pytest.raises(ValueError, match="undeclared"):
            ClassTable(
                ("1A",), {"1A": 1}, {("1A", 2): "9Z"}, {}, {}, "1A"
            ).validate()
        with pytest.raises(ValueError, match="seed index"):
            ClassTable(("1A",), {"1A": 1}, {}, {("1A", 0): 5}, {}, "1A").validate()

    def test_fractional_recipe_offset(self):
        # a recipe built without the parser: eta(tau)^12 leads with q^(1/2)
        recipe = (EtaMonomial.from_factors(1, {1: 12}),)
        table = ClassTable(("1A",), {"1A": 1}, {}, {}, {"1A": recipe}, "1A")
        with pytest.raises(ValueError, match="fractional leading exponent 1/2 in recipe for 1A"):
            table.validate()


class TestLoadFamily:
    def test_identity_expands_to_the_invariant(self, catalog_table):
        family = load_family(catalog_table, 6)
        j = normalized_j(6)
        for n in range(-1, 7):
            assert family.value("1A", n) == j.coeff(n)

    def test_low_slots_fixed(self, catalog_table):
        family = load_family(catalog_table, 2)
        for name in catalog_table.names:
            assert family.value(name, -1) == 1
            assert family.value(name, 0) == 0
            assert family.value(name, -4) == 0
            assert family.known(name, -4)

    def test_recipe_expansions(self, catalog_table):
        family = load_family(catalog_table, 8)
        assert family.value("2B", 1) == 276
        assert family.value("2B", 4) == -49152
        assert family.value("2B", 8) == -5373952
        assert family.value("3B", 1) == 54
        assert family.value("3B", 2) == -76
        assert family.value("4C", 1) == 20
        assert family.value("4C", 2) == 0
        assert family.value("4C", 3) == -62

    def test_seeds_only_class(self):
        family = load_family(parse_table_text(SEEDS_ONLY), 6)
        assert family.value("5X", 1) == 9
        assert not family.known("5X", 2)
        with pytest.raises(MissingCoefficients) as exc:
            family.value("5X", 2)
        assert exc.value.indices == [("5X", 2)]

    def test_series_reports_every_gap(self):
        family = load_family(parse_table_text(SEEDS_ONLY), 6)
        with pytest.raises(MissingCoefficients) as exc:
            euler_poincare_report(family, "5X", 1, 3)
        assert exc.value.indices == [("5X", 2), ("5X", 3)]
        assert euler_poincare_report(family, "5X", 1, 1).ok

    def test_unknown_class_value(self, catalog_table):
        family = load_family(catalog_table, 2)
        with pytest.raises(ValueError, match="unknown class"):
            family.value("9Z", 1)

    def test_conflicting_seed_rejected(self, catalog_table):
        text = serialize_table(catalog_table) + "seed 2B 4 -49151\n"
        with pytest.raises(ValueError, match="conflicts"):
            load_family(parse_table_text(text), 8)

    def test_misshapen_recipe_rejected(self):
        # offset 0: the expansion starts at q^0, not q^-1
        text = "class 1A order 1\nclass 2X order 2\nidentity 1A\neta 2X 1 1:48 2:-24\n"
        with pytest.raises(ValueError, match="Hauptmodul-shaped"):
            load_family(parse_table_text(text), 4)

    def test_fractional_recipe_rejected(self):
        text = (
            "class 1A order 1\nclass 2X order 2\nidentity 1A\n"
            "eta 2X 1 1:24 2:-24\neta 2X 1/2 2:24 1:-24\n"
        )
        with pytest.raises(ValueError, match="non-integer"):
            load_family(parse_table_text(text), 4)

    def test_bad_order(self, catalog_table):
        with pytest.raises(ValueError, match=">= 0"):
            load_family(catalog_table, -1)


@pytest.fixture(scope="module")
def family(catalog_table):
    return load_family(catalog_table, 36)


# ---------------------------------------------------------------------------
# the Fraction route: the oracle of euler_poincare_report


def adams_term(family, name, k, imax, jmax):
    """The cells of psi^k of the algebra trace sum c_g(mn) p^m q^n: the g^k
    column at p^k, q^k, c_{g^k}(mn/k^2) at (m,n) when k divides both."""
    powered = family.table.power_of(name, k)
    window = [(m, n) for m in range(1, imax // k + 1) for n in range(1, jmax // k + 1)]
    missing = [(powered, m * n) for m, n in window if not family.known(powered, m * n)]
    if missing:
        raise MissingCoefficients(missing)
    return {(k * m, k * n): family.value(powered, m * n) for m, n in window}


def generator_cells(family, name, imax, jmax):
    """The cells c_g(m+n-1) of the generator trace U_g."""
    missing = [(name, d) for d in range(1, imax + jmax) if not family.known(name, d)]
    if missing:
        raise MissingCoefficients(missing)
    window = [(m, n) for m in range(1, imax + 1) for n in range(1, jmax + 1)]
    return {(m, n): family.value(name, m + n - 1) for m, n in window}


def fraction_report(family, name, imax, jmax):
    """sum_k (1/k) psi^k(A_g) against -log(1 - U_g), each side a Fraction
    per cell: the left side the direct sum of the Adams terms, the right
    side the power sum ``reference_log1m``."""
    if imax < 1 or jmax < 1:
        raise ValueError("window bounds must be >= 1")
    lhs = {}
    for k in range(1, min(imax, jmax) + 1):
        for cell, value in adams_term(family, name, k, imax, jmax).items():
            lhs[cell] = lhs.get(cell, 0) + Fraction(value, k)
    u = BiSeries(generator_cells(family, name, imax, jmax), imax, jmax)
    rhs = BiSeries({cell: -v for cell, v in reference_log1m(u).items()}, imax, jmax)
    return EPReport(name, imax, jmax, tuple(BiSeries(lhs, imax, jmax).mismatches(rhs)))


class TestTraceSeries:
    def test_algebra_cells(self, family):
        s = adams_term(family, "1A", 1, 3, 3)
        assert s[(1, 1)] == 196884
        assert s[(2, 2)] == 20245856256
        assert s[(3, 2)] == s[(2, 3)] == 4252023300096

    def test_generator_cells(self, family):
        s = generator_cells(family, "2B", 3, 3)
        assert s[(1, 1)] == 276
        assert s[(2, 2)] == 11202
        assert s[(3, 1)] == s[(1, 3)] == 11202

    def test_missing_coefficient_listing(self, catalog_table):
        small = load_family(catalog_table, 3)
        with pytest.raises(MissingCoefficients) as exc:
            euler_poincare_report(small, "1A", 2, 2)
        assert exc.value.indices == [("1A", 4)]

    def test_window_validation(self, family):
        with pytest.raises(ValueError, match=">= 1"):
            euler_poincare_report(family, "1A", 0, 3)
        with pytest.raises(ValueError, match=">= 1"):
            euler_poincare_report(family, "1A", 3, 0)


class TestAdams:
    def test_k1_is_identity(self, family):
        assert adams_term(family, "1A", 1, 4, 4) == {
            (m, n): family.value("1A", m * n) for m in range(1, 5) for n in range(1, 5)
        }

    def test_k2_swaps_in_the_powered_class(self, family):
        t = adams_term(family, "2B", 2, 4, 4)
        # 2B squares to the identity, so cells carry identity data at doubled
        # exponents and vanish off the even sublattice
        assert t == {(2, 2): 196884, (2, 4): 21493760, (4, 2): 21493760, (4, 4): 20245856256}

    def test_window_floor_gives_zero(self, family):
        assert adams_term(family, "1A", 5, 4, 4) == {}

    def test_bad_index(self, family):
        with pytest.raises(ValueError, match=">= 1"):
            adams_term(family, "1A", 0, 4, 4)

    def test_powered_column_reaches_the_report(self, family):
        # 2B^2 = 2B^4 = 1A: c_1A(1) sits at (2,2) of the k = 2 term at 2B,
        # weighted 1/2, and at (4,4) of the k = 4 term, weighted 1/4
        broken = family._replace(values={**family.values, "1A": dict(family.values["1A"])})
        broken.values["1A"][1] += 1
        report = euler_poincare_report(broken, "2B", 4, 4)
        assert [(m, n, lhs - rhs) for m, n, lhs, rhs in report.mismatches] == [
            (2, 2, Fraction(1, 2)),
            (4, 4, Fraction(1, 4)),
        ]


class TestEulerPoincare:
    def test_identity_class(self, family):
        report = euler_poincare_report(family, "1A", 6, 6)
        assert report.ok
        assert (report.name, report.imax, report.jmax) == ("1A", 6, 6)

    def test_all_catalog_classes(self, family):
        for name in family.table.names:
            assert euler_poincare_report(family, name, 4, 4).ok, name

    def test_corrupted_value_is_localized(self, catalog_table):
        family = load_family(catalog_table, 36)
        family.values["1A"][4] += 1
        report = euler_poincare_report(family, "1A", 3, 3)
        assert not report.ok
        assert report.mismatches[0][:2] == (2, 2)

    @pytest.mark.parametrize(
        "dropped, message",
        [
            ([("2B", 9), ("1A", 4), ("2B", 5)], "2B(9)"),
            ([("1A", 4), ("2B", 5)], "1A(4)"),
            ([("2B", 5), ("2B", 7)], "2B(5), 2B(7)"),
        ],
        ids=["own-column-first", "powered-column-next", "generators-last"],
    )
    def test_missing_coefficients_in_order(self, family, dropped, message):
        # at 2B on 4x4 the own column reads c_2B(mn), the k = 2 and 4 terms
        # c_1A(1..4), and the generators c_2B(1..7); 5 and 7 are no m*n
        values = {g: dict(column) for g, column in family.values.items()}
        for g, n in dropped:
            del values[g][n]
        with pytest.raises(MissingCoefficients) as exc:
            euler_poincare_report(family._replace(values=values), "2B", 4, 4)
        assert str(exc.value) == f"unknown coefficients: {message}"

    def test_generator_log_matches_direct_expansion(self, family):
        u = BiSeries(generator_cells(family, "1A", 3, 3), 3, 3)
        total = {}
        power = BiSeries({(0, 0): 1}, 3, 3)
        for k in range(1, 4):
            power = reference_bimul(power, u, 3, 3)
            for cell, value in power.items():
                total[cell] = total.get(cell, 0) + Fraction(value, k)
        big_m = series.log1m_rows(family.values["1A"], 3, 3)
        cells = [(m, n) for m in range(1, 4) for n in range(1, 4)]
        assert {(m, n): Fraction(-big_m[m][n], m) for m, n in cells if big_m[m][n]} == total


@st.composite
def broken_families(draw):
    """A family from a drawn broken table (``broken_tables``) and one of its
    classes.  The recipes are expanded to 144 and the seeds laid over them
    (a wrong seed corrupts its slot); each class is cut at a drawn order,
    with up to two slots below 30 dropped."""
    table = parse_table_text(draw(broken_tables()))
    full = load_family(table._replace(seeds={}), 144)
    values = {}
    for g in table.names:
        cut = draw(st.sampled_from([144, 144, 40, 12, 5]))
        holes = draw(st.sets(st.integers(1, 30), max_size=2))
        values[g] = {n: v for n, v in full.values[g].items() if n <= cut and n not in holes}
        values[g].update({n: v for (h, n), v in table.seeds.items() if h == g})
    return CoefficientFamily(table, values), draw(st.sampled_from(table.names))


def ep_outcome(route, family, name, imax, jmax):
    """The report with the types of its mismatch values, or the message of
    the MissingCoefficients raised."""
    try:
        report = route(family, name, imax, jmax)
    except MissingCoefficients as err:
        return str(err)
    return report, [tuple(map(type, t)) for t in report.mismatches]


class TestFractionRoute:
    """euler_poincare_report's integer cells against the Fraction route."""

    @settings(deadline=None, max_examples=150)
    @given(case=broken_families(), imax=st.integers(1, 12), jmax=st.integers(1, 12))
    @example(case=(load_family(parse_table_text(SEEDS_ONLY), 6), "5X"), imax=1, jmax=1)
    # 5B^5 declared 5B: Fraction mismatches on the cells divisible by (5,5)
    @example(case=(load_family(BADPOWER, 100), "5B"), imax=10, jmax=10)
    def test_reports_agree(self, case, imax, jmax):
        family, name = case
        got = ep_outcome(euler_poincare_report, family, name, imax, jmax)
        assert got == ep_outcome(fraction_report, family, name, imax, jmax)

    @pytest.mark.parametrize(
        "window",
        [(1, 1), (1, 7), (7, 1), (3, 5), (6, 6), (12, 12)],
        ids=lambda w: f"{w[0]}x{w[1]}",
    )
    def test_catalog_classes_agree(self, catalog_table, window):
        family = load_family(catalog_table, 144)
        for name in family.table.names:
            got = ep_outcome(euler_poincare_report, family, name, *window)
            assert got == ep_outcome(fraction_report, family, name, *window)
