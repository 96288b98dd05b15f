"""Trace coefficients per conjugacy class and the identity they satisfy.

The shipped catalog declares four classes.  Each carries its own
coefficient series; raising a class element to the k-th power moves you to
another class, and that is exactly what the k-th Adams operation sees at
trace level.  The Euler-Poincare comparison below is the identity that
makes the whole bookkeeping non-circular: an alternating sum built from
exterior powers on one side, a plain logarithm on the other.
"""

from importlib import resources

from moonshine.classes import euler_poincare_report, load_family, parse_table_text

text = resources.files("moonshine").joinpath("data/catalog.mtf").read_text()
table = parse_table_text(text)
family = load_family(table, 36)

print("classes and first trace coefficients:")
for name in table.names:
    row = [family.value(name, n) for n in range(1, 7)]
    print(f"  {name} (order {table.order_of(name)}): {row}")
print()

print("power map closure:")
for name in table.names:
    powers = [table.power_of(name, k) for k in range(1, 5)]
    print(f"  {name}^k for k=1..4: {powers}")
print()

# The Adams column swap, visible in the numbers: at trace level the k-th
# Adams operation reads the g^k column at p^k, q^k, so cell (m,n) of the
# k=2 term at class 2B is c_{2B^2}(mn/4) on the even sublattice and zero
# off it.  Squaring an order-2 element lands on the identity.
square = table.power_of("2B", 2)
print(f"Adams k=2 term at class 2B reads the {square} column:")
for m, n in [(2, 2), (2, 4), (4, 4)]:
    print(f"  cell ({m},{n}): c_{square}({m * n // 4}) = {family.value(square, m * n // 4)}")
print("  cells (1,1) and (2,3): 0, off the even sublattice")
print()

print("Euler-Poincare comparison, 6x6 window:")
for name in table.names:
    report = euler_poincare_report(family, name, 6, 6)
    verdict = "PASS" if report.ok else f"FAIL at {report.mismatches[0][:2]}"
    print(f"  {name}: {verdict}")
