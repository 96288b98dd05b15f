"""Exact q-expansions of the classical modular objects.

This module supplies every coefficient source used elsewhere: the Euler
product (via the pentagonal-number theorem), Dedekind eta powers and the
eta-quotient recipes of a class table (tuples of ``classes`` monomials,
which track their exponent offsets in units of 1/24), the Eisenstein
series E4 and E6 by divisor sums, the discriminant form, and the modular
invariant j.  Every expansion is computed on dense ``int`` lists, its
products through the one Kronecker kernel (``series._kronecker``), and
returned as a read-only ``series.UniSeries`` record.  Eta powers of any
sign come from Miller's power recurrence over the pentagonal series, in
O(n^1.5) small-by-big integer steps, so neither 1/delta nor a negative eta
power needs a series inverse.  The invariant is computed along two
independent routes and compared on every call, so a bug in either route
surfaces as a hard failure rather than a wrong answer.
"""

from __future__ import annotations

# the layers are read through their modules: a call runs only those it reads
from . import classes, series

__all__ = [
    "euler_product",
    "dedekind_eta_power",
    "eisenstein",
    "delta",
    "j_series",
    "normalized_j",
    "expand_recipe",
]


def euler_product(order: int) -> series.UniSeries:
    """prod_{n>=1} (1 - q^n) truncated at q^order.

    Expanded by the pentagonal-number theorem:
    sum_{k in Z} (-1)^k q^{k(3k-1)/2}.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    data: dict[int, series.Coeff] = {}
    k = 0
    while True:
        exps = [k * (3 * k - 1) // 2, k * (3 * k + 1) // 2]
        if min(exps) > order:
            break
        for e in exps if k else exps[:1]:
            if e <= order:
                data[e] = data.get(e, 0) + (-1) ** k
        k += 1
    return series.UniSeries(data, order)


def dedekind_eta_power(scale: int, exponent: int, order: int) -> series.UniSeries:
    """prod (1 - q^{scale n})^exponent, exactly through q^order.

    This is eta(scale*tau)^exponent without its leading factor
    q^{scale*exponent/24}, whose fractional exponent
    :meth:`classes.EtaMonomial.offset` tracks.
    """
    if scale < 1:
        raise ValueError("eta scale must be a positive integer")
    if order < 0:
        raise ValueError("order must be >= 0")
    return series.UniSeries(enumerate(_eta_list(scale, exponent, order + 1)), order)


def _eta_list(scale: int, exponent: int, n: int) -> list[int]:
    """prod (1 - q^{scale k})^exponent at offsets 0..n-1 as a dense list.

    With P(q) = prod (1 - q^k), the identity P(q^s)^e = (P^e)(q^s) lets the
    power run on P itself through q^((n-1) // scale) (:func:`_eta_coeffs`);
    its coefficients are then spread to the multiples of the scale.
    """
    dense = [0] * n
    dense[::scale] = _eta_coeffs(exponent, (n - 1) // scale)
    return dense


def _eta_coeffs(exponent: int, top: int) -> list[int]:
    """The coefficients b_0..b_top of P^exponent, P = prod (1 - q^n).

    P^e = sum b_n q^n comes from J. C. P. Miller's power recurrence (Knuth,
    TAOCP vol. 2, 4.7), valid for any integer e since a_0 = 1:
    b_0 = 1 and n b_n = sum_{k=1..n} ((e+1)k - n) a_k b_{n-k}.  By the
    pentagonal-number theorem a_k is +-1 at the generalized pentagonal k
    and 0 elsewhere, so step n adds O(sqrt n) terms with small multipliers
    and a negative exponent needs no series inverse.  Each b_n is an
    integer, so a remainder in the division by n is an internal fault.
    """
    # (k, a_k, (e+1) k a_k) for the pentagonal k >= 1, in increasing k
    pentagonal = euler_product(top).items()[1:]
    terms = [(k, a, (exponent + 1) * k * a) for k, a in pentagonal]
    b = [1]
    for n in range(1, top + 1):
        total = 0
        for k, a, w in terms:
            if k > n:
                break
            total += (w - n * a) * b[n - k]
        value, rest = divmod(total, n)
        if rest:
            raise RuntimeError(
                f"internal cross-check failed: eta power not integral at q^{n}"
            )
        b.append(value)
    return b


def _eisenstein_coeffs(order: int) -> tuple[list[int], list[int], list[int]]:
    """E4, E6 and E8 through q^order as lists, from one divisor sieve:
    E4 = 1 + 240 sum sigma_3(n) q^n, E6 = 1 - 504 sum sigma_5(n) q^n and
    E8 = 1 + 480 sum sigma_7(n) q^n."""
    s3, s5, s7 = [0] * (order + 1), [0] * (order + 1), [0] * (order + 1)
    for d in range(1, order + 1):
        d3, d5, d7 = d**3, d**5, d**7
        for n in range(d, order + 1, d):
            s3[n] += d3
            s5[n] += d5
            s7[n] += d7
    scaled = ((240, s3), (-504, s5), (480, s7))
    return tuple([1] + [scale * s for s in sigma[1:]] for scale, sigma in scaled)


def eisenstein(weight: int, order: int) -> series.UniSeries:
    """E4 = 1 + 240 sum sigma_3(n) q^n or E6 = 1 - 504 sum sigma_5(n) q^n."""
    if weight not in (4, 6):
        raise ValueError(f"eisenstein weight must be 4 or 6, got {weight}")
    if order < 0:
        raise ValueError("order must be >= 0")
    return series.UniSeries(enumerate(_eisenstein_coeffs(order)[weight // 2 - 2]), order)


def delta(order: int) -> series.UniSeries:
    """The discriminant form q prod (1 - q^n)^24, truncated at q^order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return series.UniSeries(zip(range(1, order + 1), _eta_coeffs(24, order - 1)), order)


def j_series(order: int) -> series.UniSeries:
    """The modular invariant q^-1 + 744 + 196884 q + ...

    Computed as E4 E8 / delta and, independently, as E6^2 / delta + 1728,
    in ``int`` lists.  E4 E8 is E4^3 in one product: the weight-8 forms are
    one-dimensional, so E4^2 = E8 = 1 + 480 sum sigma_7(n) q^n, read off
    its divisor sums.  Both routes are multiplied by 1/delta = q^-1 prod
    (1 - q^n)^-24 (:func:`_eta_coeffs`) in one kernel call that packs it
    once, and compared at every coefficient through q^order: a disagreement
    means the computation itself is broken, and nothing is returned.
    """
    if order < -1:
        raise ValueError("order must be >= -1")
    n = max(order, 0) + 2  # q^-1 .. q^max(order, 0)
    e4, e6, e8 = _eisenstein_coeffs(n - 1)
    [e4_e8] = series._kronecker([e4], e8, n)
    [e6_e6] = series._kronecker([e6], e6, n)
    route_a, route_b = series._kronecker([e4_e8, e6_e6], _eta_coeffs(-24, n - 1), n)
    route_b[1] += 1728
    if route_a != route_b:
        bad = [(t - 1, a, b) for t, (a, b) in enumerate(zip(route_a, route_b)) if a != b]
        raise RuntimeError(
            f"internal cross-check failed: the two j routes disagree at {bad[:3]}"
        )
    return series.UniSeries(zip(range(-1, order + 1), route_a), order)


def normalized_j(order: int) -> series.UniSeries:
    """j - 744: leading coefficient 1 at q^-1 and constant term exactly 0."""
    terms = j_series(max(order, 0)).items()
    return series.UniSeries([(e, v) for e, v in terms if e and e <= order], order)


# ---------------------------------------------------------------------------
# eta-quotient recipes


def expand_recipe(recipe: tuple[classes.EtaMonomial, ...], order: int) -> series.UniSeries:
    """Exact q-expansion of a recipe through q^order, normalized as a
    Hauptmodul q^-1 + 0 + c(1) q + ... is: its q^0 coefficient is zeroed.
    Each monomial is read by its fields and ``offset`` alone.

    A monomial c q^shift prod eta-powers is expanded on dense ``int`` lists
    of ``order - shift + 1`` entries, one kernel product per eta factor
    (:func:`series._kronecker`), and only then scaled by its coefficient
    c, an ``int`` or ``Fraction``, into one dense total from the lowest
    shift to q^order.  A monomial that starts above q^order adds nothing.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    terms = []
    for mono in recipe:
        off = mono.offset()
        if off.denominator != 1:
            raise ValueError(
                f"fractional leading exponent {off}: eta monomial scales and "
                "exponents must combine to a multiple of 24"
            )
        shift = int(off)
        if shift > order:
            continue  # the whole term lies above q^order
        n = order - shift + 1
        body = [1] + [0] * (n - 1)
        for scale, exponent in mono.factors:
            [body] = series._kronecker([body], _eta_list(scale, exponent, n), n)
        terms.append((shift, mono.coeff, body))
    lo = min((shift for shift, _, _ in terms), default=order)
    total: list[series.Coeff] = [0] * (order - lo + 1)
    for shift, coeff, body in terms:
        for t, v in enumerate(body, shift - lo):
            if v:
                total[t] += coeff * v
    if lo <= 0:
        total[-lo] = 0
    return series.UniSeries(zip(range(lo, order + 1), total), order)
