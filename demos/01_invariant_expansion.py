"""Walk through the expansion of the modular invariant.

Two independent routes build the same series: a weight-12 quotient of
Eisenstein series, and the same quotient shifted through the weight-6
series.  The library refuses to hand back an expansion unless both routes
agree coefficient-for-coefficient, so by the time anything prints here the
cross-check has already happened once.  We redo it by hand anyway, because
that is the point of a walkthrough.
"""

from moonshine.classes import EtaMonomial, EtaRecipe
from moonshine.modular import delta, eisenstein, expand_recipe, normalized_j

ORDER = 10

print("route A: E4^3 / Delta")
print("route B: E6^2 / Delta + 1728")
dinv = delta(ORDER + 2).inverse(ORDER)
route_a = eisenstein(4, ORDER + 1) ** 3 * dinv
route_b = eisenstein(6, ORDER + 1) ** 2 * dinv + 1728
print("disagreements:", route_a.mismatches(route_b))
print()

j = normalized_j(ORDER)
print("normalized invariant J = j - 744, first coefficients:")
for n in range(-1, ORDER + 1):
    print(f"  q^{n:<3} {j.coeff(n)}")
print()

# The same machinery expands eta quotients.  This one is the order-2
# companion series used by the shipped catalog: (eta(q)/eta(2q))^24,
# normalized so its constant term vanishes.
recipe = EtaRecipe((EtaMonomial.from_factors(1, [(1, 24), (2, -24)]),))
t2 = expand_recipe(recipe, ORDER)
print("(eta(q)/eta(2q))^24, normalized:")
for n in range(-1, ORDER + 1):
    print(f"  q^{n:<3} {t2.coeff(n)}")
print()

print("both series share the Hauptmodul shape: leading 1 at q^-1, constant 0")
assert j.coeff(-1) == t2.coeff(-1) == 1
assert j.coeff(0) == t2.coeff(0) == 0
