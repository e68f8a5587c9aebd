"""Exact rational helpers: ceilings, integer roots, directed power bounds.

All quantities in this package are rationals (`fractions.Fraction`).  Powers
x**e with integer e stay rational and are computed exactly.  For fractional
exponents the true value is usually irrational, so we return certified
lower/upper rational bounds instead; callers round outward in whichever
direction keeps their inequality valid.
"""
from __future__ import annotations

from fractions import Fraction

# Denominator scale for root bounds: gap between bounds is 2**-ROOT_BITS.
ROOT_BITS = 96


def as_frac(x) -> Fraction:
    """x as a Fraction: x itself when it is one, so that none is rebuilt."""
    return x if type(x) is Fraction else Fraction(x)


def ceil_frac(x: Fraction) -> int:
    x = as_frac(x)
    return -((-x.numerator) // x.denominator)


def int_nth_root_floor(n: int, m: int) -> int:
    """floor(n ** (1/m)) for integers n >= 0, m >= 1.

    Newton's iteration from above, started next to the root: with r the
    root of n's top bits n >> (k*m), x = (r + 1) << k has x**m > n and lies
    within a factor 1 + 1/r of the root, so for r > m Newton needs only a
    few steps, however large m is.  Roots below 2**(2 * bitlen(m) + 2) are
    found by bisection.
    """
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    if n in (0, 1) or m == 1:
        return n if m == 1 else (0 if n == 0 else 1)
    b = n.bit_length() // m + 1  # the root is below 2**b
    if b <= 2 * m.bit_length() + 2:
        lo, hi = 0, 1 << b  # lo**m <= n < hi**m
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if mid**m <= n:
                lo = mid
            else:
                hi = mid
        return lo
    k = b // 2
    x = (int_nth_root_floor(n >> (k * m), m) + 1) << k
    while True:
        y = ((m - 1) * x + n // x ** (m - 1)) // m
        if y >= x:
            break
        x = y
    while x**m > n:
        x -= 1
    return x


def nth_root_bounds(x: Fraction, m: int) -> tuple[Fraction, Fraction]:
    """Rationals (lo, hi) with lo <= x**(1/m) <= hi and hi - lo <= 2**-ROOT_BITS."""
    x = as_frac(x)
    if x.numerator < 0:
        raise ValueError("root of a negative rational")
    if m == 1:
        return x, x
    s = 1 << ROOT_BITS
    scaled = (x.numerator * s**m) // x.denominator
    r = int_nth_root_floor(scaled, m)
    return Fraction(r, s), Fraction(r + 1, s)


def power_bits(x: Fraction, e: Fraction) -> int:
    """An upper bound, from bit lengths alone, on the bit size that
    `pow_bounds(x, e)` works at: e = u/v needs x**u, whose numerator and
    denominator have at most u * ceil(log2 .) + 1 bits each, and a
    fractional e also scales x**u by 2**(ROOT_BITS * v) for its v-th root."""
    x, e = as_frac(x), as_frac(e)
    log2_ceil = (x.numerator - 1).bit_length() + (x.denominator - 1).bit_length()
    bits = e.numerator * log2_ceil + 2
    if e.denominator > 1:
        bits += ROOT_BITS * e.denominator
    return bits


def pow_bounds(x: Fraction, e: Fraction) -> tuple[Fraction, Fraction]:
    """Rationals (lo, hi) with lo <= x**e <= hi, exact when e is an integer.

    Requires x >= 0 and e >= 0 (with 0**0 taken as 1).
    """
    x, e = as_frac(x), as_frac(e)
    if x.numerator < 0 or e.numerator < 0:
        raise ValueError("pow_bounds needs x >= 0 and e >= 0")
    if e.denominator == 1:
        v = x ** e.numerator if x or e.numerator else Fraction(1)
        return v, v
    if x == 0:
        return Fraction(0), Fraction(0)
    y = x**e.numerator
    return nth_root_bounds(y, e.denominator)
