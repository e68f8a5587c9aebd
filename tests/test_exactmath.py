"""Exact rational helpers: integer roots and power sizes."""
import time
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from szlenk.exactmath import int_nth_root_floor, nth_root_bounds, power_bits


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.integers(0, 10**6), st.integers(0, 2**3000)),
    st.one_of(st.integers(1, 5), st.integers(1, 3000)),
)
def test_int_nth_root_floor_is_the_floor_root(n, m):
    x = int_nth_root_floor(n, m)
    assert x**m <= n < (x + 1) ** m


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10**30), st.integers(2, 60), st.integers(-1, 1))
def test_int_nth_root_floor_at_exact_powers(r, m, d):
    n = r**m + d
    assert int_nth_root_floor(n, m) == (r if d >= 0 else r - 1)


def test_high_degree_root_is_fast():
    # a 20000th root at the 96-bit precision of nth_root_bounds: about 2
    # million bits, where a plain Newton start takes ~14000 steps
    start = time.perf_counter()
    lo, hi = nth_root_bounds(F(1, 2), 20000)
    assert time.perf_counter() - start < 5
    assert lo**20000 <= F(1, 2) <= hi**20000


@settings(max_examples=200, deadline=None)
@given(
    st.fractions(min_value=0, max_value=10**9, max_denominator=10**9),
    st.integers(0, 300),
)
def test_power_bits_bounds_the_exact_power(x, u):
    y = x**u
    assert y.numerator.bit_length() + y.denominator.bit_length() <= power_bits(x, F(u))
