"""Ordinal arithmetic: frozen values, algebraic laws, fundamental sequences."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import NotALimit, fundamental_sequence, predecessor
from szlenk.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    ParseError,
    add,
    frac_to_str,
    from_json,
    is_power_of_omega,
    least_omega_power_above,
    mul,
    omega_pow,
    parse,
    sup_affine,
    to_json,
    to_text,
)

W = OMEGA


def fin(n: int) -> Ordinal:
    return Ordinal.from_int(n)


# -- strategies ------------------------------------------------------------

from strategies import ordinals  # noqa: E402


# -- frozen comparisons and arithmetic -------------------------------------


class TestComparison:
    def test_basics(self):
        assert ZERO < ONE < fin(2) < W
        assert W < add(W, ONE) < mul(W, fin(2)) < omega_pow(fin(2))
        assert omega_pow(fin(2)) < omega_pow(W)
        assert W <= W and W >= W and not W < W
        assert omega_pow(W) > mul(W, fin(5))

    def test_lexicographic_on_terms(self):
        a = add(mul(omega_pow(fin(2)), fin(2)), W)  # w^2*2 + w
        b = mul(omega_pow(fin(2)), fin(2))  # w^2*2
        assert b < a
        assert add(b, ONE) < a  # w^2*2 + 1 < w^2*2 + w


class TestAddMul:
    def test_left_absorption(self):
        # 1 + w = w, w + w^2 = w^2
        assert add(ONE, W) == W
        assert add(W, omega_pow(fin(2))) == omega_pow(fin(2))
        # but w + 1 > w
        assert add(W, ONE) > W

    def test_merge_equal_exponents(self):
        assert add(mul(W, fin(2)), W) == mul(W, fin(3))
        assert add(add(mul(W, fin(2)), ONE), W) == mul(W, fin(3))

    def test_mul_by_natural(self):
        # (w^2 + w) * 3 = w^2*3 + w
        a = add(omega_pow(fin(2)), W)
        assert mul(a, fin(3)) == add(mul(omega_pow(fin(2)), fin(3)), W)

    def test_mul_by_omega(self):
        assert mul(fin(2), W) == W
        assert mul(add(W, ONE), W) == omega_pow(fin(2))
        assert mul(W, W) == omega_pow(fin(2))

    def test_mul_distributes_example(self):
        # w * (w + 1) = w^2 + w
        assert mul(W, add(W, ONE)) == add(omega_pow(fin(2)), W)

    def test_zero_annihilates(self):
        assert mul(ZERO, W) == ZERO
        assert mul(W, ZERO) == ZERO


class TestPredicates:
    def test_limit_successor(self):
        assert not ZERO.is_limit() and not ZERO.is_successor()
        assert ONE.is_successor() and not ONE.is_limit()
        assert W.is_limit() and not W.is_successor()
        assert add(W, fin(3)).is_successor()
        assert mul(omega_pow(W), fin(2)).is_limit()

    def test_power_of_omega(self):
        assert is_power_of_omega(ONE)
        assert is_power_of_omega(W)
        assert is_power_of_omega(omega_pow(add(W, ONE)))
        assert not is_power_of_omega(ZERO)
        assert not is_power_of_omega(fin(2))
        assert not is_power_of_omega(mul(W, fin(2)))
        assert not is_power_of_omega(add(omega_pow(fin(2)), W))

    def test_predecessor(self):
        assert predecessor(ONE) == ZERO
        assert predecessor(add(W, ONE)) == W
        with pytest.raises(ValueError):
            predecessor(W)


class TestLeastOmegaPowerAbove:
    def test_frozen_values(self):
        # w^2*3 + w -> w^3
        x = add(mul(omega_pow(fin(2)), fin(3)), W)
        assert least_omega_power_above(x) == omega_pow(fin(3))
        assert least_omega_power_above(ZERO) == ONE
        # w^w -> w^(w+1)
        assert least_omega_power_above(omega_pow(W)) == omega_pow(add(W, ONE))

    def test_finite(self):
        assert least_omega_power_above(ONE) == W
        assert least_omega_power_above(fin(17)) == W

    @given(x=ordinals())
    def test_minimality_by_enumeration(self, x: Ordinal):
        """The result is a power of w, is > x, and no smaller candidate works."""
        p = least_omega_power_above(x)
        assert is_power_of_omega(p) and x < p
        # Walk candidate exponents below p's exponent: w^e must fail to exceed x.
        e = p.leading_exponent()
        smaller = [ZERO, ONE] + [fundamental_sequence(e, k) for k in (1, 2, 3) if e.is_limit()]
        for cand in smaller:
            if cand < e:
                assert omega_pow(cand) <= x


def affine_at(slope: Ordinal, offset: Ordinal, n: int) -> Ordinal:
    """The n-th member slope*n + offset of the family `sup_affine` bounds."""
    return add(mul(slope, fin(n)), offset)


class TestSupFamily:
    def test_const(self):
        # slope 0: every member is the offset
        assert sup_affine(ZERO, fin(5)) == fin(5)

    def test_slope_dominant(self):
        # sup_n (w*n + 1) = w^2
        assert sup_affine(W, ONE) == omega_pow(fin(2))
        # sup_n (1*n + 0) = w
        assert sup_affine(ONE, ZERO) == W
        # sup_n (w^2*n + w) = w^3
        assert sup_affine(omega_pow(fin(2)), W) == omega_pow(fin(3))

    def test_offset_dominant(self):
        # n + w^w = w^w for every n, so the sup is the offset itself.
        assert sup_affine(ONE, omega_pow(W)) == omega_pow(W)

    @given(slope=ordinals(1), offset=ordinals(1))
    def test_least_upper_bound(self, slope: Ordinal, offset: Ordinal):
        s = sup_affine(slope, offset)
        for n in range(51):
            assert affine_at(slope, offset, n) <= s
        # Least: anything strictly below s is beaten by some member.
        if s.is_limit():
            for k in (0, 1, 2, 5):
                below = fundamental_sequence(s, k)
                assert any(affine_at(slope, offset, n) >= below for n in range(60))
        else:
            assert s == offset

    @given(slope=ordinals(1).filter(lambda o: not o.is_zero()))
    def test_slope_dominant_sup_is_limit(self, slope: Ordinal):
        s = sup_affine(slope, ZERO)
        assert s.is_limit() and is_power_of_omega(s)


class TestFundamentalSequence:
    def test_frozen_values(self):
        assert fundamental_sequence(omega_pow(fin(2)), 3) == mul(W, fin(3))  # (w^2)[3] = w*3
        assert fundamental_sequence(omega_pow(W), 2) == omega_pow(fin(2))  # (w^w)[2] = w^2
        assert fundamental_sequence(mul(W, fin(2)), 4) == add(W, fin(4))  # (w*2)[4] = w+4
        assert fundamental_sequence(W, 5) == fin(5)

    def test_not_a_limit(self):
        with pytest.raises(NotALimit):
            fundamental_sequence(ZERO, 1)
        with pytest.raises(NotALimit):
            fundamental_sequence(add(W, ONE), 1)

    @given(a=ordinals().filter(lambda o: o.is_limit()), k=st.integers(0, 6))
    @settings(max_examples=200)
    def test_strictly_increasing_below_limit(self, a: Ordinal, k: int):
        fk = fundamental_sequence(a, k)
        fk1 = fundamental_sequence(a, k + 1)
        assert fk < fk1 < a


class TestAlgebraicLaws:
    @given(a=ordinals(), b=ordinals(), c=ordinals())
    @settings(max_examples=200)
    def test_add_associative(self, a, b, c):
        assert add(add(a, b), c) == add(a, add(b, c))

    @given(a=ordinals(1), b=ordinals(1), c=ordinals(1))
    @settings(max_examples=200)
    def test_mul_associative(self, a, b, c):
        assert mul(mul(a, b), c) == mul(a, mul(b, c))

    @given(a=ordinals(1), b=ordinals(1), c=ordinals(1))
    @settings(max_examples=200)
    def test_left_distributive(self, a, b, c):
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))

    @given(a=ordinals(), b=ordinals())
    def test_add_monotone_right(self, a, b):
        assert add(a, b) >= b
        assert add(a, b) >= a

    @given(a=ordinals(), b=ordinals())
    def test_comparison_total(self, a, b):
        assert (a < b) + (a == b) + (b < a) == 1


# -- text and JSON round-trips ---------------------------------------------


class TestTextSyntax:
    def test_parse_frozen(self):
        big = add(add(mul(omega_pow(W), fin(3)), mul(W, fin(2))), fin(5))
        assert parse("w^(w)*3 + w*2 + 5") == big
        assert parse("w^2") == omega_pow(fin(2))
        assert parse("w*4+1") == add(mul(W, fin(4)), ONE)
        assert parse("0") == ZERO
        assert parse("w + w^2") == omega_pow(fin(2))  # normalizes

    def test_parse_errors(self):
        for bad in ["", "w^^2", "w*", "w^", "(w", "w)", "3.5", "w^()"]:
            with pytest.raises(ParseError):
                parse(bad)

    @given(a=ordinals())
    @settings(max_examples=200)
    def test_text_round_trip(self, a: Ordinal):
        assert parse(to_text(a)) == a


class TestJson:
    @given(a=ordinals())
    @settings(max_examples=200)
    def test_json_round_trip(self, a: Ordinal):
        assert from_json(to_json(a)) == a

    def test_shape(self):
        assert to_json(ZERO) == {"cnf": []}
        assert to_json(fin(2)) == {"cnf": [[{"cnf": []}, 2]]}

    def test_rejects_garbage(self):
        for bad in [{...}, {"cnf": [[1]]}, {"cnf": "x"}, [], {"x": 1}]:
            with pytest.raises((ValueError, TypeError)):
                from_json(bad)


class TestFracToStr:
    @pytest.mark.parametrize(
        "x, text",
        [(Fraction(3, 4), "3/4"), (Fraction(-6, 3), "-2"), (Fraction(0), "0"), (5, "5"), (-7, "-7")],
    )
    def test_fractions_and_ints(self, x, text):
        """A Fraction prints as itself, an int as the Fraction it equals."""
        assert frac_to_str(x) == text
