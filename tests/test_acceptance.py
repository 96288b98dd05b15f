"""Acceptance gate: nine headline checks, every one exact, zero tolerance.

One test per numbered check.  A hook in conftest prints a single
``criterion N: PASS/FAIL`` line for each at the end of the pytest run, so
the verdict survives into scrollback even when everything is green.
"""

from __future__ import annotations

import time
from fractions import Fraction

from moonshine.classes import euler_poincare_report, load_family, parse_table_text
from moonshine.cli import main
from moonshine.lattice import (
    GradedDims,
    build_matrix,
    cartan_conditions,
    denominator_identity_report,
    dimension_product,
    witt_dims,
)
from moonshine.modular import delta, eisenstein, normalized_j
from moonshine.recursion import ContradictionError, determinacy_audit, solve_from_seeds
from moonshine.relations import coefficient_recursion, recursion_cross_check
from moonshine.series import BiSeries
from test_modular import long_division, power
from test_series import pair_products

SEEDLESS = "class 1A order 1\nidentity 1A\n"

SEEDED = (
    SEEDLESS
    + "seed 1A 1 196884\n"
    + "seed 1A 2 21493760\n"
    + "seed 1A 3 864299970\n"
    + "seed 1A 5 333202640600\n"
)

CORRUPTED_SEED = """\
class 1A order 1
class 2X order 2
identity 1A
seed 2X 1 276
seed 2X 2 -2048
seed 2X 3 11202
seed 2X 4 -49151
seed 2X 5 184024
seed 2X 6 -614400
seed 2X 9 14478180
"""


def test_criterion_1_invariant_routes_agree():
    start = time.monotonic()
    order = 30
    # 1/Delta from q^-1 by long division, E4^3 and E6^2 by schoolbook
    # products, all on dense lists through q^order
    n = order + 2
    dinv = long_division([delta(n).coeff(e) for e in range(1, n + 1)])
    e4 = [eisenstein(4, n).coeff(e) for e in range(n)]
    e6 = [eisenstein(6, n).coeff(e) for e in range(n)]
    route_a, route_b = pair_products([power(e4, 3), power(e6, 2)], dinv, n)
    route_b[1] += 1728  # the constant term, at q^0
    assert route_a == route_b
    j = normalized_j(order)
    assert j.coeff(-1) == 1
    assert j.coeff(0) == 0
    assert j.coeff(1) == 196884
    assert j.coeff(2) == 21493760
    assert time.monotonic() - start < 1.0


def test_criterion_2_product_identity():
    for size in (8, 12):
        report = denominator_identity_report(size, size)
        assert report.mismatches == (), size
    assert main(["verify-product", "--pmax", "8", "--qmax", "8"]) == 0


def test_criterion_3_trace_identity_per_class(catalog_table):
    family = load_family(catalog_table, 100)
    assert euler_poincare_report(family, "1A", 10, 10).ok
    for name in ("2B", "3B", "4C"):
        assert euler_poincare_report(family, name, 6, 6).ok, name


def test_criterion_4_closed_form_recursion(catalog_table):
    family = load_family(catalog_table, 100)
    report = recursion_cross_check(family, "1A", 60)
    assert report.ok
    assert report.failures == ()
    # every composite n <= 60 through every factorization; 12 both ways
    c12 = family.value("1A", 12)
    assert coefficient_recursion(family, "1A", 2, 6) == c12
    assert coefficient_recursion(family, "1A", 3, 4) == c12
    # the smallest instance, written out in full
    c = {n: Fraction(family.value("1A", n)) for n in (1, 2, 3, 4)}
    assert c[4] == c[3] + Fraction(1, 2) * c[1] ** 2 - Fraction(1, 2) * c[1]


def test_criterion_5_determinacy_and_solve():
    start = time.monotonic()
    audit = determinacy_audit(parse_table_text(SEEDLESS), 30)
    assert audit.introduced == (("1A", 1), ("1A", 2), ("1A", 3), ("1A", 5))
    result = solve_from_seeds(parse_table_text(SEEDED), 100)
    assert result.unresolved == ()
    j = normalized_j(100)
    for n in range(1, 101):
        assert result.values[("1A", n)] == j.coeff(n), n
    assert time.monotonic() - start < 60.0


def test_criterion_6_catalog_derivation(catalog_table):
    family = load_family(catalog_table, 30)
    result = solve_from_seeds(catalog_table, 30)
    assert result.unresolved == ()
    for name in catalog_table.names:
        for n in range(1, 31):
            assert result.values[(name, n)] == family.value(name, n), (name, n)
    assert main(["compare", "--max", "30"]) == 0


def test_criterion_7_free_dims_match_multiplicities():
    c = normalized_j(25)
    dims = witt_dims(5, 5, c)
    for m in range(1, 6):
        for n in range(1, 6):
            assert dims.dim(m, n) == c.coeff(m * n), (m, n)
    oracle = BiSeries(
        {(0, 0): 1} | {(m, n): -c.coeff(m + n - 1) for m in range(1, 6) for n in range(1, 6)},
        5,
        5,
    )
    assert dimension_product(dims).mismatches(oracle) == []


def test_criterion_8_matrix_block_truncation():
    matrix = build_matrix(3)
    assert matrix == [[2, 0, -1], [0, -2, -3], [-1, -3, -4]]
    assert [matrix[i][i] for i in range(3)] == [2, -2, -4]
    assert (matrix[0][1], matrix[0][2], matrix[1][2]) == (0, -1, -3)
    report = cartan_conditions(matrix)
    assert report.symmetric
    assert report.off_diagonal_nonpositive
    assert report.ratios_integral
    assert report.ok
    assert main(["bmatrix", "--size", "3"]) == 0


def test_criterion_9_negative_controls(tmp_path, catalog_text, capsys):
    # wrong seed: one corrupted value, first mismatch exactly where it enters
    seed_path = tmp_path / "wrong_seed.mtf"
    seed_path.write_text(CORRUPTED_SEED)
    code = main(
        ["verify-ep", "--table", str(seed_path), "--class", "2X",
         "--imax", "3", "--jmax", "3"]
    )
    out = capsys.readouterr().out
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "VERDICT: FAIL"
    mismatch_lines = [l for l in lines if l.startswith("mismatch")]
    assert mismatch_lines[0] == "mismatch\t(2,2)\t49291\t49290"

    # wrong power map: derivations collide and name the colliding site
    power_path = tmp_path / "wrong_power.mtf"
    power_path.write_text(catalog_text + "\npower 2B 2 2B\n")
    code = main(["compare", "--table", str(power_path), "--max", "12"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.splitlines()[-1] == "VERDICT: FAIL"
    assert "contradiction: 2B(" in out
    assert "relation (" in out
    try:
        solve_from_seeds(parse_table_text(power_path.read_text()), 12)
        raise AssertionError("corrupted power map went unnoticed")
    except ContradictionError as err:
        assert "2B(" in str(err)

    # wrong multiplicity: the product oracle pins the tampered cell
    c = normalized_j(9)
    dims = witt_dims(3, 3, c)
    tampered_dims = dict(dims.dims)
    tampered_dims[(2, 2)] += 1
    tampered = GradedDims(tampered_dims, 3, 3)
    oracle = BiSeries(
        {(0, 0): 1} | {(m, n): -c.coeff(m + n - 1) for m in range(1, 4) for n in range(1, 4)},
        3,
        3,
    )
    bad = dimension_product(tampered).mismatches(oracle)
    assert bad
    assert bad[0][:2] == (2, 2)
