"""Walk through the expansion of the modular invariant.

Two independent routes build the same series: a weight-12 quotient of
Eisenstein series, and the same quotient shifted through the weight-6
series.  The library refuses to hand back an expansion unless both routes
agree coefficient-for-coefficient, so by the time anything prints here the
cross-check has already happened once.  We redo it by hand anyway, because
that is the point of a walkthrough.
"""

from moonshine.classes import EtaMonomial
from moonshine.modular import delta, eisenstein, expand_recipe, normalized_j

ORDER = 10


def times(a, b):
    """The product of two coefficient lists, cut to their length."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


print("route A: E4^3 / Delta")
print("route B: E6^2 / Delta + 1728")
# Each series is a list of its coefficients through q^ORDER: E4 and E6
# from q^0, Delta / q from q^0, and 1/Delta from q^-1, by long division
# of Delta / q, whose leading coefficient is 1.
size = ORDER + 2
d = [delta(size).coeff(e) for e in range(1, size + 1)]
dinv = [1]
for k in range(1, size):
    dinv.append(-sum(d[i] * dinv[k - i] for i in range(1, k + 1)))
e4 = [eisenstein(4, size).coeff(e) for e in range(size)]
e6 = [eisenstein(6, size).coeff(e) for e in range(size)]
route_a = times(times(times(e4, e4), e4), dinv)
route_b = times(times(e6, e6), dinv)
route_b[1] += 1728  # the constant term: entry 0 is q^-1
print("disagreements:", [(k - 1, a, b) for k, (a, b) in enumerate(zip(route_a, route_b)) if a != b])
print()

j = normalized_j(ORDER)
print("normalized invariant J = j - 744, first coefficients:")
for n in range(-1, ORDER + 1):
    print(f"  q^{n:<3} {j.coeff(n)}")
print()

# The same machinery expands eta quotients.  This one is the order-2
# companion series used by the shipped catalog: (eta(q)/eta(2q))^24,
# normalized so its constant term vanishes.
recipe = (EtaMonomial.from_factors(1, [(1, 24), (2, -24)]),)
t2 = expand_recipe(recipe, ORDER)
print("(eta(q)/eta(2q))^24, normalized:")
for n in range(-1, ORDER + 1):
    print(f"  q^{n:<3} {t2.coeff(n)}")
print()

print("both series share the Hauptmodul shape: leading 1 at q^-1, constant 0")
assert j.coeff(-1) == t2.coeff(-1) == 1
assert j.coeff(0) == t2.coeff(0) == 0
