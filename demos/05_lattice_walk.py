"""Roots, the block Gram matrix, and free Lie algebra dimensions.

The rank-2 lattice with pairing -(mn' + nm') carries simple roots (1, -1)
and (1, n) for n >= 1, the latter with multiplicity c(n).  Pairing the
distinct levels gives a small matrix whose blocks tile the true
(astronomically wide) one; and counting a free Lie algebra graded by the
same lattice reproduces c(mn) cell by cell.
"""

from moonshine.lattice import (
    build_matrix,
    cartan_conditions,
    dimension_product,
    gram_entry,
    simple_roots,
    witt_dims,
)
from moonshine.modular import normalized_j
from moonshine.series import BiSeries

c = normalized_j(25)

print("simple roots up to level 3:")
for vector, mult in simple_roots(3, c):
    print(f"  ({vector.m},{vector.n})  multiplicity {mult}")
print()

matrix = build_matrix(3)
print("block-value Gram matrix over levels -1, 1, 2:")
for row in matrix:
    print("  " + "\t".join(str(entry) for entry in row))
report = cartan_conditions(matrix)
print(
    "symmetric:", report.symmetric,
    "| off-diag nonpositive:", report.off_diagonal_nonpositive,
    "| ratios integral:", report.ratios_integral,
)
print()

# The blocks really do tile the expanded matrix: individual root number
# 196885 is the first one at level 2, and its row reproduces the block
# values computed above.
probes = [0, 1, 196885]
print("expanded-matrix probes at individual roots", probes, ":")
for i in probes:
    print("  " + "\t".join(str(gram_entry(i, j, c)) for j in probes))
print()

dims = witt_dims(4, 4, c)
print("free Lie algebra dimensions (rows m = 1..4, cols n = 1..4):")
for m in range(1, 5):
    print("  " + "\t".join(str(dims.dim(m, n)) for n in range(1, 5)))
print()
print("c(mn) on the same grid:")
for m in range(1, 5):
    print("  " + "\t".join(str(c.coeff(m * n)) for n in range(1, 5)))
print()

# 1 minus the generator character, the product the dimensions must expand to
oracle = BiSeries(
    {(0, 0): 1} | {(m, n): -c.coeff(m + n - 1) for m in range(1, 5) for n in range(1, 5)},
    4,
    4,
)
oracle_bad = dimension_product(dims).mismatches(oracle)
print("independent product oracle disagreements:", oracle_bad)
