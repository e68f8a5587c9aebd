"""Exact rational helpers: ceilings, integer roots, directed power bounds.

All quantities in this package are rationals (`fractions.Fraction`).  Powers
x**e with integer e stay rational and are computed exactly.  For fractional
exponents the true value is usually irrational, so we return certified
lower/upper rational bounds instead; callers round outward in whichever
direction keeps their inequality valid.
"""
from __future__ import annotations

from fractions import Fraction

# Denominator scale for root bounds: gap between bounds is 2**-_ROOT_BITS.
_ROOT_BITS = 96


def ceil_frac(x: Fraction) -> int:
    x = Fraction(x)
    return -((-x.numerator) // x.denominator)


def int_nth_root_floor(n: int, m: int) -> int:
    """floor(n ** (1/m)) for integers n >= 0, m >= 1, by Newton iteration."""
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    if n in (0, 1) or m == 1:
        return n if m == 1 else (0 if n == 0 else 1)
    x = 1 << (n.bit_length() // m + 1)
    while True:
        y = ((m - 1) * x + n // x ** (m - 1)) // m
        if y >= x:
            break
        x = y
    while x ** m > n:
        x -= 1
    return x


def nth_root_bounds(x: Fraction, m: int) -> tuple[Fraction, Fraction]:
    """Rationals (lo, hi) with lo <= x**(1/m) <= hi and hi - lo <= 2**-_ROOT_BITS."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("root of a negative rational")
    if m == 1:
        return x, x
    s = 1 << _ROOT_BITS
    scaled = (x.numerator * s**m) // x.denominator
    r = int_nth_root_floor(scaled, m)
    return Fraction(r, s), Fraction(r + 1, s)


def pow_bounds(x: Fraction, e: Fraction) -> tuple[Fraction, Fraction]:
    """Rationals (lo, hi) with lo <= x**e <= hi, exact when e is an integer.

    Requires x >= 0 and e >= 0 (with 0**0 taken as 1).
    """
    x, e = Fraction(x), Fraction(e)
    if x < 0 or e < 0:
        raise ValueError("pow_bounds needs x >= 0 and e >= 0")
    if e.denominator == 1:
        v = x ** e.numerator if x or e.numerator else Fraction(1)
        return v, v
    if x == 0:
        return Fraction(0), Fraction(0)
    y = x**e.numerator
    return nth_root_bounds(y, e.denominator)
