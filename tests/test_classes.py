"""Class tables, the table file grammar, trace families, Euler-Poincare."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from moonshine.classes import (
    ClassTable,
    CoefficientFamily,
    MissingCoefficients,
    adams_trace,
    algebra_series,
    euler_poincare_report,
    generator_log_series,
    generator_series,
    load_family,
    parse_table_text,
    serialize_table,
)
from moonshine.modular import EtaMonomial, EtaRecipe, normalized_j
from moonshine.series import BiSeries
from test_series import reference_bimul

MINIMAL = "class 1A order 1\nidentity 1A\n"

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
        with pytest.raises(ValueError, match="multiple of 24"):
            parse_table_text("class 1A order 1\nidentity 1A\neta 1A 1 1:23")

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
            family.series("5X", 3)
        assert exc.value.indices == [("5X", 2), ("5X", 3)]
        s = family.series("5X", 1)
        assert s.coeff(-1) == 1 and s.coeff(1) == 9

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

    def test_unnormalized_recipe_constant_rejected(self):
        mono = EtaMonomial.from_factors(1, [(1, 24), (2, -24)])
        recipe = EtaRecipe((mono,), normalize=False)
        table = ClassTable(
            ("1A", "2X"),
            {"1A": 1, "2X": 2},
            {},
            {},
            {"2X": recipe},
            "1A",
        )
        table.validate()
        with pytest.raises(ValueError, match="constant term"):
            load_family(table, 4)

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


class TestTraceSeries:
    def test_algebra_cells(self, family):
        s = algebra_series(family, "1A", 3, 3)
        assert s.coeff(1, 1) == 196884
        assert s.coeff(2, 2) == 20245856256
        assert s.coeff(3, 2) == s.coeff(2, 3) == 4252023300096
        assert s.coeff(1, 0) == 0

    def test_generator_cells(self, family):
        s = generator_series(family, "2B", 3, 3)
        assert s.coeff(1, 1) == 276
        assert s.coeff(2, 2) == 11202
        assert s.coeff(3, 1) == s.coeff(1, 3) == 11202

    def test_missing_coefficient_listing(self, catalog_table):
        small = load_family(catalog_table, 3)
        with pytest.raises(MissingCoefficients) as exc:
            algebra_series(small, "1A", 2, 2)
        assert exc.value.indices == [("1A", 4)]

    def test_window_validation(self, family):
        with pytest.raises(ValueError, match=">= 1"):
            algebra_series(family, "1A", 0, 3)
        with pytest.raises(ValueError, match=">= 1"):
            generator_series(family, "1A", 3, 0)


class TestAdams:
    def test_k1_is_identity(self, family):
        assert adams_trace(family, "1A", 1, 4, 4) == algebra_series(
            family, "1A", 4, 4
        )

    def test_k2_swaps_in_the_powered_class(self, family):
        t = adams_trace(family, "2B", 2, 4, 4)
        # 2B squares to the identity, so cells carry identity data at doubled
        # exponents and vanish off the even sublattice
        assert t.coeff(2, 2) == 196884
        assert t.coeff(2, 4) == t.coeff(4, 2) == 21493760
        assert t.coeff(1, 1) == 0
        assert t.coeff(2, 3) == 0

    def test_window_floor_gives_zero(self, family):
        assert adams_trace(family, "1A", 5, 4, 4).is_zero()

    def test_bad_index(self, family):
        with pytest.raises(ValueError, match=">= 1"):
            adams_trace(family, "1A", 0, 4, 4)


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

    def test_generator_log_matches_direct_expansion(self, family):
        u = generator_series(family, "1A", 3, 3)
        total = BiSeries.zero(3, 3)
        power = BiSeries.one(3, 3)
        for k in range(1, 4):
            power = reference_bimul(power, u, 3, 3)
            total = total + power * Fraction(1, k)
        assert generator_log_series(family, "1A", 3, 3) == total
