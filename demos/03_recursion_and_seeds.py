"""Coefficient recursions: four seeds determine everything else.

Comparing the product cell (i, j) against the series side yields one
polynomial relation per target.  Chained together, the relations derive
every coefficient from c(1), c(2), c(3), c(5) -- and an audit that hides
all values and reruns the chain shows those four indices are exactly the
ones nothing can reach.
"""

from fractions import Fraction

from moonshine.classes import load_family, parse_table_text
from moonshine.modular import normalized_j
from moonshine.recursion import determinacy_audit, solve_from_seeds
from moonshine.relations import coefficient_recursion, coefficient_relation


def render(relation):
    """Typeset a relation the way you would write it by hand, with the
    stored integer weights divided back by the relation's scale."""

    def coeff_prefix(value):
        if value == 1:
            return ""
        if value == -1:
            return "-"
        return f"{value}*"

    lhs = []
    for _, n, weight in relation.lhs:
        lhs.append(f"{coeff_prefix(Fraction(weight, relation.scale))}c({n})")
    rhs = []
    for weight, monomial in relation.rhs:
        body = "*".join(
            f"c({v})" if e == 1 else f"c({v})^{e}" for v, e in monomial
        )
        rhs.append(f"{coeff_prefix(Fraction(weight, relation.scale))}{body}")
    return " + ".join(lhs).replace("+ -", "- ") + "  =  " + " + ".join(rhs)


print("the smallest relations:")
for target in [(2, 2), (2, 3), (2, 4), (3, 3)]:
    print(f"  {target}:  {render(coefficient_relation(*target))}")
print()

family = load_family(parse_table_text("class 1A order 1\nidentity 1A\n"), 60)
print("multi-factorization consistency at n = 12:")
print("  via (2,6):", coefficient_recursion(family, "1A", 2, 6))
print("  via (3,4):", coefficient_recursion(family, "1A", 3, 4))
print("  stored:   ", family.value("1A", 12))
print()

audit = determinacy_audit(parse_table_text("class 1A order 1\nidentity 1A\n"), 20)
print("audit with every coefficient hidden, n <= 20:")
print("  underivable:", list(audit.underivable("1A")))
print()

seeded = parse_table_text(
    "class 1A order 1\nidentity 1A\n"
    "seed 1A 1 196884\nseed 1A 2 21493760\n"
    "seed 1A 3 864299970\nseed 1A 5 333202640600\n"
)
result = solve_from_seeds(seeded, 40)
j = normalized_j(40)
bad = [n for n in range(1, 41) if result.values[("1A", n)] != j.coeff(n)]
print(f"solved 40 coefficients from 4 seeds in {result.passes} passes")
print("disagreements with the direct expansion:", bad)
print()

print("sample provenance (which relation produced which value):")
for n in [4, 7, 12, 25]:
    name, target, passno = result.provenance[("1A", n)]
    print(f"  c({n}) <- relation {target} on pass {passno}")
