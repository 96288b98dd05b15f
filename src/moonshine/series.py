"""Exact truncated Laurent series in one and two formal variables: window
records, plus the kernels that compute on dense lists.

A record stores rational coefficients (plain ``int`` whenever the value is
integral, ``fractions.Fraction`` otherwise) sparsely, together with a
precision: one ceiling per variable, as in the usual O(q^n) model.

* exponents up to the ceiling are known: a coefficient that is not stored
  there is zero, so the support is read from the stored terms,
* exponents above the ceiling are untracked, and asking for them raises.

Exponents are integers (a ``float`` or ``Fraction`` one raises
``TypeError``) and may be negative: a Laurent term such as q^-1 in the
modular invariant, or p q^-1 in the prefactor of the two-variable product
identity, is ordinary data.  p exponents are always nonnegative.

``UniSeries`` and ``BiSeries`` are read-only records with no arithmetic:
``modular`` and ``lattice`` build every window on dense ``int`` lists and
hand back the record, which callers read by coefficient, compare and
print.  Every product runs through one Kronecker kernel on dense ``int``
lists (:func:`_kronecker`), which multiplies one right factor by one or
more left factors and packs the shared right factor once: each factor
becomes a single big number with one slot per exponent, wide enough that
no carry crosses from one coefficient to the next, and the slots of the
product are the coefficients.  Sparse factors are packed too, their gaps
as zero slots.  The slots are binary, in an ``int``, unless the products
have at least 30,000 decimal digits: then they are base-10^k slots of a
``decimal`` number, whose exact number-theoretic transform multiplies such
operands faster than ``int``'s Karatsuba (about three times at 250,000
digits).  ``log1m_rows`` takes log(1 - U) for the generator character
U = sum c(m+n-1) p^m q^n, the one shape every two-variable log here has,
from the column c: row m is a Faber polynomial of J = q^-1 + sum c(n) q^n,
one kernel product per row.

Every reported coefficient is exact: a record's window is set by the code
that computed it, from the windows of its inputs, and nothing is ever
padded with fabricated zeros, which is what makes the identity checks
built on top of this module trustworthy.

All records are immutable by convention.  The module imports neither
``fractions`` nor ``decimal``: a ``Fraction`` can exist only once its module
is loaded, and the C ``decimal`` module is imported by the first product
with decimal slots.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Mapping
from itertools import accumulate, repeat
from math import lcm
from operator import add, index, mul, sub
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

    Coeff = int | Fraction

# Products of at least this many decimal digits (slot width times slots) go
# through ``decimal``.  Timed on the j_series and eta-product operands of
# 8,000 to 80,000 digits (Python 3.11.7, libmpdec 2.5.1, x86_64), binary
# slots were faster on 68 of 73 shapes below 30,000 digits and decimal ones
# on 120 of 132 from there (BENCH_28.json ``crossover``).
_DECIMAL_MIN_DIGITS = 30_000
# The interpreter's int/str digit limit (0 when off), read at each product;
# Python before 3.10.7 has no limit and no function to read it.
_int_str_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)

__all__ = ["mobius", "UniSeries", "BiSeries"]


def mobius(k: int) -> int:
    """The Mobius function: (-1)^#prime-factors, 0 on square divisors."""
    if k < 1:
        raise ValueError("mobius is defined for positive integers")
    result = 1
    d = 2
    while d * d <= k:
        if k % d == 0:
            k //= d
            if k % d == 0:
                return 0
            result = -result
        d += 1
    if k > 1:
        result = -result
    return result


def _norm(value: Coeff) -> Coeff:
    """Validate an exact coefficient, collapsing integral fractions to int.
    A ``Fraction`` exists only once its module is imported, so the module is
    looked up, never imported, here."""
    if isinstance(value, int):
        return value
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(value, fractions.Fraction):
        return int(value) if value.denominator == 1 else value
    raise TypeError(
        f"exact coefficient required (int or Fraction), got {type(value).__name__}"
    )


def _kronecker(lefts: list[list[int]], right: list[int], n: int) -> list[list[int]]:
    """The ``n`` lowest coefficients of ``a * right`` for each ``a`` in
    ``lefts``: the one product kernel.  Factors and products are dense lists
    of ``n`` ints, entry t the coefficient at offset t.

    Kronecker substitution: each factor becomes one number with one slot
    per offset, biased by half the slot's range so that a signed value fits,
    and the low ``n`` slots of each product are its coefficients.  ``right``
    is packed once for every left factor; a left factor that *is* ``right``
    is squared.  Width bound: with ``A_s`` the largest bit length in
    ``a_0..a_s``, a pair ``a_s right_u`` with ``s + u < n`` is below
    ``2^(A_(n-1-u) + bits(right_u))``, as ``s <= n-1-u``, so each low
    coefficient, a sum of at most ``m = min(nonzeros(a), nonzeros(right))``
    pairs, is below ``m * 2^M``, ``M = max_u (A_(n-1-u) + bits(right_u))``.
    With ``bits`` the largest ``M + bits(m) + 1`` over the left factors,
    twice every low coefficient is below ``2^bits``, and no carry reaches a
    low slot (the unread high slots may overflow).  Slots are ``bits``
    rounded up to whole bytes (:func:`_binary_slots`), or ``k = bits *
    30103 // 100000 + 1`` digits, as ``10^k > 2^bits``
    (:func:`_decimal_slots`), when the products have at least
    ``_DECIMAL_MIN_DIGITS`` digits (``k * n``), ``k`` is within the
    interpreter's int/str digit limit (4,300 when it is off) and the C
    ``decimal`` module is present; it is imported only then.
    """
    r_count = n - right.count(0)
    counts = [n - a.count(0) for a in lefts]
    r_bits = list(map(int.bit_length, reversed(right)))  # bits(right_(n-1-s))
    bits = max(
        max(map(add, accumulate(map(int.bit_length, a), max), r_bits))
        + min(count, r_count).bit_length()
        for a, count in zip(lefts, counts)
    ) + 1
    k = bits * 30103 // 100000 + 1  # 10^k > 2^bits, as log10(2) < 0.30103
    slots = None
    # decimal slots pass through str, refused past the int/str limit
    if k * n >= _DECIMAL_MIN_DIGITS and k <= (_int_str_limit() or 4_300):
        slots = _decimal_slots(k, n)  # None without the C decimal module
    pack, times, unpack = slots or _binary_slots((bits + 7) // 8, n)
    y = pack(right)
    return [unpack(times(y, y) if a is right else times(pack(a), y)) for a in lefts]


def _binary_slots(width: int, n: int):
    """Pack, multiply and unpack for :func:`_kronecker` in ``width``-byte
    binary slots, written into and read from byte buffers, never shifted."""
    bias = 1 << (8 * width - 1)
    zero = bias.to_bytes(width, "little")
    biases = int.from_bytes(zero * n, "little")
    mask = (1 << (8 * width * n)) - 1

    def pack(c: list[int]) -> int:
        raw = b"".join([(v + bias).to_bytes(width, "little") if v else zero for v in c])
        return int.from_bytes(raw, "little") - biases

    def unpack(product: int) -> list[int]:
        # biasing the low slots makes each one nonnegative, so the mask keeps
        # exactly those slots
        raw = ((product + biases) & mask).to_bytes(width * n, "little")
        slots = range(0, width * n, width)
        return [int.from_bytes(raw[i : i + width], "little") - bias for i in slots]

    return pack, mul, unpack


def _decimal_slots(k: int, n: int):
    """Pack, multiply and unpack for :func:`_kronecker` in base-``10^k``
    slots of a ``decimal`` number, highest offset first.  Every operation is
    exact in a local context that traps any rounding; the global context is
    never touched.  Only the low ``k * n`` digits of a product, split off
    its floored high part, are turned into text.  ``None`` without the C
    ``decimal`` module, whose pure-Python fallback is slower than ``int``."""
    try:
        import _decimal as dec
    except ImportError:
        return None
    traps = [dec.Inexact, dec.Rounded, dec.InvalidOperation]
    ctx = dec.Context(prec=dec.MAX_PREC, Emax=dec.MAX_EMAX, Emin=dec.MIN_EMIN, traps=traps)
    half = 5 * 10 ** (k - 1)
    zero = str(half)
    biases = dec.Decimal(zero * n)

    def pack(c: list[int]) -> dec.Decimal:
        slots = ["%0*d" % (k, v + half) if v else zero for v in reversed(c)]
        return ctx.subtract(dec.Decimal("".join(slots)), biases)

    def unpack(product: dec.Decimal) -> list[int]:
        biased = ctx.add(product, biases)
        high = ctx.scaleb(biased, -k * n).to_integral_value(dec.ROUND_FLOOR, ctx)
        # 10^(kn) plus the low k*n digits: a leading 1, then the slots
        low = str(ctx.subtract(biased, ctx.scaleb(ctx.subtract(high, 1), k * n)))
        return [int(low[j : j + k]) - half for j in range(k * n - k + 1, 0, -k)]

    return pack, ctx.multiply, unpack


class UniSeries:
    """A univariate Laurent series known exactly up to ``q^hi``: a read-only
    window record.

    ``hi`` is the truncation order: higher coefficients are untracked.  Up to
    it, a coefficient that is not stored is zero; the lowest stored exponent
    is the support (:attr:`support_lo`).  The record has no arithmetic; the
    expansions in ``modular`` compute on dense ``int`` lists.
    """

    __slots__ = ("hi", "_c")

    def __init__(
        self,
        coeffs: Mapping[int, Coeff] | Iterable[tuple[int, Coeff]] = (),
        hi: int = 0,
    ):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        data: dict[int, Coeff] = {}
        for exponent, value in items:
            exponent, value = index(exponent), _norm(value)
            if value == 0:
                continue
            if exponent > hi:
                raise ValueError(f"exponent {exponent} outside window: above q^{hi}")
            data[exponent] = value
        self.hi = hi
        self._c = data

    def coeff(self, exponent: int) -> Coeff:
        if index(exponent) > self.hi:
            raise ValueError(
                f"coefficient at q^{exponent} is beyond the window: known up to q^{self.hi}"
            )
        return self._c.get(exponent, 0)

    def items(self) -> list[tuple[int, Coeff]]:
        return sorted(self._c.items())

    @property
    def support_lo(self) -> int:
        """Lowest exponent carrying a nonzero coefficient (``hi + 1`` if none)."""
        return min(self._c) if self._c else self.hi + 1

    def is_integral(self) -> bool:
        return all(isinstance(v, int) for v in self._c.values())

    def mismatches(self, other: "UniSeries") -> list[tuple[int, Coeff, Coeff]]:
        """Exponents where the two series provably disagree.

        The comparable region is every exponent up to ``min(hi, other.hi)``,
        where a coefficient that is not stored is zero.
        """
        hi = min(self.hi, other.hi)
        exps = {e for e in self._c if e <= hi} | {e for e in other._c if e <= hi}
        out = []
        for e in sorted(exps):
            va = self._c.get(e, 0)
            vb = other._c.get(e, 0)
            if va != vb:
                out.append((e, va, vb))
        return out

    def __eq__(self, other: object):
        if not isinstance(other, UniSeries):
            return NotImplemented
        return not self.mismatches(other)

    __hash__ = None  # mutable-looking value type; never used as a key

    def __repr__(self) -> str:
        terms = self.items()
        if not terms:
            body = "0"
        else:
            shown = [f"{v}*q^{e}" for e, v in terms[:8]]
            body = " + ".join(shown) + (" + ..." if len(terms) > 8 else "")
        return f"UniSeries[..{self.hi}]({body})"


class BiSeries:
    """A series in two variables p, q known exactly up to p^pmax and q^qmax:
    a read-only window record.

    p exponents are always nonnegative.  q exponents may be negative, as in
    the ``p q^-1`` term of the two-variable product identity.  As in
    :class:`UniSeries`, the ceilings are truncation orders and the support
    is read from the stored terms.

    The record has no arithmetic: ``lattice`` builds each window on a flat
    integer grid.  The untracked terms of a truncated two-variable series
    fill an L-shaped region, p above pmax at any q or q above qmax at any
    p, so the lowest stored exponents of a factor do not bound what its
    untracked terms contribute, and no product window read from the stored
    terms is sound.  The one logarithm taken here, of 1 minus a generator
    character, comes from its column (:func:`log1m_rows`).
    """

    __slots__ = ("pmax", "qmax", "_c")

    def __init__(
        self,
        coeffs: Mapping[tuple[int, int], Coeff] | Iterable[tuple[tuple[int, int], Coeff]] = (),
        pmax: int = 0,
        qmax: int = 0,
    ):
        if pmax < 0:
            raise ValueError("pmax must be >= 0")
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        data: dict[tuple[int, int], Coeff] = {}
        for (i, j), value in items:
            i, j, value = index(i), index(j), _norm(value)
            if value == 0:
                continue
            if i < 0:
                raise ValueError("p exponents must be >= 0")
            if i > pmax or j > qmax:
                raise ValueError(
                    f"exponent pair ({i}, {j}) outside window: above p^{pmax} or q^{qmax}"
                )
            data[(i, j)] = value
        self.pmax = pmax
        self.qmax = qmax
        self._c = data

    def coeff(self, i: int, j: int) -> Coeff:
        i, j = index(i), index(j)
        if i > self.pmax or j > self.qmax:
            raise ValueError(
                f"coefficient at p^{i} q^{j} is beyond the window: known up to "
                f"p^{self.pmax} and q^{self.qmax}"
            )
        return self._c.get((i, j), 0)

    def items(self) -> list[tuple[tuple[int, int], Coeff]]:
        return sorted(self._c.items())

    def mismatches(
        self, other: "BiSeries"
    ) -> list[tuple[int, int, Coeff, Coeff]]:
        pmax = min(self.pmax, other.pmax)
        qmax = min(self.qmax, other.qmax)
        keys = {k for k in self._c if k[0] <= pmax and k[1] <= qmax}
        keys |= {k for k in other._c if k[0] <= pmax and k[1] <= qmax}
        out = []
        for i, j in sorted(keys):
            va = self._c.get((i, j), 0)
            vb = other._c.get((i, j), 0)
            if va != vb:
                out.append((i, j, va, vb))
        return out

    def __eq__(self, other: object):
        if not isinstance(other, BiSeries):
            return NotImplemented
        return not self.mismatches(other)

    __hash__ = None

    def __repr__(self) -> str:
        terms = self.items()
        if not terms:
            body = "0"
        else:
            shown = [f"{v}*p^{i}q^{j}" for (i, j), v in terms[:6]]
            body = " + ".join(shown) + (" + ..." if len(terms) > 6 else "")
        return f"BiSeries[..{self.pmax}][..{self.qmax}]({body})"


def log1m_rows(column: Mapping[int, Coeff], mmax: int, nmax: int) -> list[list[Coeff]]:
    """The rows M_m = m L_m of log(1 - U) = sum_m L_m p^m on the window
    m <= mmax, q <= nmax, for the generator character

        U = sum_{m,n >= 1} c(m+n-1) p^m q^n,

    whose coefficients ``column`` maps n -> c(n), read for 1 <= n < mmax +
    nmax.  ``rows[m][q]`` is M_m[q] (index 0 holds 0, row 0 is empty); the
    cells are exact ``int``s, or ``Fraction``s for a column with a
    non-integral value.

    With J = q^-1 + sum c(n) q^n, 1 - U = p (J(p) - J(q)) / (1 - p q^-1),
    so row m is minus the q^1.. part of F_m = P_m(J), the m-th Faber
    polynomial of J (log(p (J(p) - x)) = -sum_m P_m(x) p^m / m):

        F_1 = J,  F_m = J F_(m-1) - sum_{n=1}^{m-2} c(n) F_(m-1-n) - m c(m-1),
        M_m[q] = -[q^q] F_m.

    For a replicable J_g this is the replication sum: [q^n] P_m(J_g) =
    sum_{k | gcd(m,n)} (m/k) c_{g^k}(mn/k^2) (Conway-Norton 1979; Norton,
    "More on moonshine", 1984), which ``classes.euler_poincare_report``
    checks.  F_m is a dense ``int`` list of L = mmax + nmax + 1 entries,
    q^-m to q^(mmax+nmax-m), exact there because J is: one product
    J F_(m-1) through :func:`_kronecker`, plus m - 2 scaled rows added at
    offset n + 1.  A column with non-integral values, D the lcm of their
    denominators, runs as G_m = D^m F_m, whose recurrence is in integers:
    c(n) becomes D c(n), the n-th subtracted row is weighted by D^n and the
    constant is m (D c(m-1)) D^(m-1); each cell is divided back once.

    The rows cost mmax - 1 products of length L, so a window taller than
    wide is computed as its transpose: U is symmetric, so n M_m[n] =
    m M_n[m], one exact division per cell.  In process on a 2-core machine,
    j column, against the cell-by-cell recurrence of ``recursion._Cells``
    (about (mmax * nmax)^2 / 4 multiplies, kept in the tests as the oracle):
    24x24 5 ms, not 11 ms; 70x70 0.27 s, not 0.95 s; 2x2500 0.07 s, not
    1.05 s; 8x625 0.10 s, not 1.15 s; 140x35 0.14 s, not 0.93 s.
    """
    if mmax > nmax:
        wide = log1m_rows(column, nmax, mmax)
        rows = [[]] + [[0] * (nmax + 1) for _ in range(mmax)]
        for n in range(1, nmax + 1):
            for m, value in enumerate(wide[n][1:], 1):
                if isinstance(value, int):
                    value, rest = divmod(m * value, n)
                    if rest:
                        raise RuntimeError(f"internal cross-check failed: M_{m}[{n}] not integral")
                else:
                    value = m * value / n  # a Fraction: // would truncate it
                rows[m][n] = value
        return rows
    values = [_norm(column[n]) for n in range(1, mmax + nmax)]
    den = lcm(*(v.denominator for v in values if not isinstance(v, int)))
    c = [0] + [int(v * den) for v in values]  # D c(n)
    size = mmax + nmax + 1
    j = [den] + c  # D J, entry t at q^(t-1)
    faber = [[], j]  # faber[m][t]: D^m F_m at q^(t-m)
    for m in range(2, mmax + 1):
        [f] = _kronecker([faber[m - 1]], j, size)
        for n in range(1, m - 1):
            if c[n]:
                f[n + 1 :] = map(sub, f[n + 1 :], map(mul, repeat(c[n] * den ** n), faber[m - 1 - n]))
        f[m] -= m * c[m - 1] * den ** (m - 1)
        faber.append(f)
    rows: list[list[Coeff]] = [[]]
    for m in range(1, mmax + 1):
        cells = faber[m][m + 1 : m + nmax + 1]
        if den == 1:
            rows.append([0] + [-v for v in cells])
        else:
            Fraction = sys.modules["fractions"].Fraction  # a value was one
            rows.append([0] + [Fraction(-v, den ** m) for v in cells])
    return rows
