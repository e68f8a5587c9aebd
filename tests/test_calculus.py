"""Tests for the symbolic index calculus: profiles, sums, and bounds."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szlenk.calculus import (
    Atom,
    ConstNorms,
    ConstTail,
    Copies,
    CSpace,
    DirectSum,
    EpsProfile,
    FiniteSum,
    GeometricNorms,
    InvalidParams,
    LadderMembers,
    LadderTail,
    MalformedExpr,
    ParamFamily,
    c_space_index,
    direct_sum_index,
    family_index_sup,
    family_sup_at,
    frount_M,
    frount_M_qpow,
    profile_eval,
    profile_total_sup,
    sigma,
    sigma_qpow,
)
from oracle import reference_direct_sum_index
from strategies import space_exprs
from szlenk.ordinal import (
    ONE,
    OMEGA,
    ZERO,
    Ordinal,
    add,
    is_power_of_omega,
    mul,
    omega_pow,
)

F = Fraction
W = OMEGA
W2 = omega_pow(Ordinal.from_int(2))
W3 = omega_pow(Ordinal.from_int(3))


def fin(n: int) -> Ordinal:
    return Ordinal.from_int(n)


# ---------------------------------------------------------------------------
# quantitative bounds
# ---------------------------------------------------------------------------


class TestSigma:
    def test_small_radius_gives_one(self):
        assert sigma(1, 3, 1, 2) == 1

    def test_direct_evaluation(self):
        assert sigma(1, 1, F(1, 2), 1) == 3  # 4 - 2 + 1

    def test_square_case(self):
        assert sigma(2, 1, F(1, 2), 2) == 61  # 64 - 4 + 1

    def test_zero_radius(self):
        assert sigma(0, 1, F(1, 2), 1) == 1

    def test_bad_params(self):
        with pytest.raises(InvalidParams):
            sigma(1, 1, 1, 1)  # b <= c
        with pytest.raises(InvalidParams):
            sigma(1, 1, 0, 1)  # c <= 0
        with pytest.raises(InvalidParams):
            sigma(-1, 2, 1, 1)
        with pytest.raises(InvalidParams):
            sigma(1, 2, 1, F(1, 2))  # d < 1

    def test_fractional_exponent_rounds_outward(self):
        # exact value with d = 3/2: (2*4/1)**1.5 - 2**1.5 = 22.627... - 2.828...
        got = sigma(4, 2, 1, F(3, 2))
        assert got == 21  # ceil(22.627 - 2.828 + 1) = ceil(20.799) = 21

    def test_halving_boundary_exact(self):
        # 2a == b with fractional d must still give exactly 1
        assert sigma(1, 2, 1, F(3, 2)) == 1

    @given(
        a=st.fractions(min_value=0, max_value=8),
        b=st.fractions(min_value=F(1, 4), max_value=8),
        gap=st.fractions(min_value=F(1, 8), max_value=4),
        d=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=120)
    def test_integer_exponent_minimality(self, a, b, gap, d):
        c = b * gap / (1 + gap)  # ensures 0 < c < b
        if c <= 0 or c >= b:
            return
        n = sigma(a, b, c, d)
        body = (2 * a / (b - c)) ** d - (b / (b - c)) ** d + 1
        assert n >= body and n >= 1
        if n > 1:
            assert n - 1 < body

    def test_qpow_variant_matches_integer_exponent(self):
        for a, b, c, q in [(1, 1, F(1, 2), 1), (2, 1, F(1, 2), 2), (3, 2, 1, 3)]:
            assert sigma_qpow(F(a) ** q, b, c, q) == sigma(a, b, c, q)

    def test_qpow_small_radius(self):
        assert sigma_qpow(F(1, 64), 3, 1, 3) == 1  # a = 1/4, 2a <= 3


class TestFrountM:
    def test_unit_case(self):
        assert frount_M(1, 1, 1, 2) == 8

    def test_large_eps_floors_at_m(self):
        assert frount_M(1, 4, 1, 2) == 2

    def test_m_three(self):
        assert frount_M(1, 1, 1, 3) == 16

    def test_m_must_be_at_least_two(self):
        with pytest.raises(InvalidParams):
            frount_M(1, 1, 1, 1)

    def test_bad_params(self):
        with pytest.raises(InvalidParams):
            frount_M(0, 1, 1, 2)
        with pytest.raises(InvalidParams):
            frount_M(1, 0, 1, 2)
        with pytest.raises(InvalidParams):
            frount_M(1, 1, F(1, 2), 2)

    def test_qpow_zero_diameter(self):
        assert frount_M_qpow(0, 1, 1, 5) == 5

    @given(
        d=st.fractions(min_value=F(1, 4), max_value=4),
        eps_q=st.fractions(min_value=F(1, 8), max_value=8),
        q=st.integers(min_value=1, max_value=3),
        m=st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=120)
    def test_satisfies_inequality_minimally(self, d, eps_q, q, m):
        M = frount_M(d, eps_q, q, m)
        lhs = (F(2) ** q - 1) * eps_q
        rhs = F(8) ** q * d ** q * (m - 1)
        assert M >= m
        assert lhs * M >= rhs
        if M > m:
            assert lhs * (M - 1) < rhs


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


class TestProfileEval:
    def test_above_all_thresholds_first_value(self):
        p = EpsProfile(((F(1), fin(2)),), ConstTail(fin(5)))
        assert profile_eval(p, 2) == fin(2)

    def test_below_last_threshold_tail(self):
        p = EpsProfile(((F(1), fin(2)),), ConstTail(fin(5)))
        assert profile_eval(p, F(1, 2)) == fin(5)

    def test_at_threshold_step_value(self):
        p = EpsProfile(((F(1), fin(2)),), ConstTail(fin(5)))
        assert profile_eval(p, 1) == fin(2)

    def test_ladder_tail(self):
        p = EpsProfile((), LadderTail(W, ONE, F(1, 4), F(1, 2)))
        assert profile_eval(p, F(1, 16)) == add(mul(W, fin(2)), ONE)

    def test_ladder_above_base(self):
        p = EpsProfile((), LadderTail(W, ONE, F(1, 4), F(1, 2)))
        assert profile_eval(p, F(1, 2)) == ONE  # no rung reached: offset

    def test_multi_step_regions(self):
        p = EpsProfile(
            ((F(1), ONE), (F(1, 2), fin(3)), (F(1, 4), fin(4))),
            ConstTail(fin(9)),
        )
        assert profile_eval(p, 7) == ONE
        assert profile_eval(p, 1) == ONE
        assert profile_eval(p, F(3, 4)) == ONE  # still above the 1/2 threshold
        assert profile_eval(p, F(1, 2)) == fin(3)
        assert profile_eval(p, F(1, 3)) == fin(3)
        assert profile_eval(p, F(1, 4)) == fin(4)
        assert profile_eval(p, F(1, 5)) == fin(9)

    def test_eps_must_be_positive(self):
        p = EpsProfile((), ConstTail(ONE))
        with pytest.raises(InvalidParams):
            profile_eval(p, 0)

    def test_validation_rejects_bad_shapes(self):
        with pytest.raises(MalformedExpr):
            EpsProfile(((F(1), fin(2)), (F(2), fin(3))), ConstTail(fin(3)))  # increasing
        with pytest.raises(MalformedExpr):
            EpsProfile(((F(1), fin(3)), (F(1, 2), fin(2))), ConstTail(fin(3)))  # decreasing values
        with pytest.raises(MalformedExpr):
            EpsProfile(((F(1), W),), ConstTail(W))  # limit value
        with pytest.raises(MalformedExpr):
            EpsProfile(((F(1), fin(5)),), ConstTail(fin(2)))  # tail below step
        with pytest.raises(MalformedExpr):
            LadderTail(ZERO, ONE, F(1), F(1, 2))  # zero slope
        with pytest.raises(MalformedExpr):
            LadderTail(ONE, W, F(1), F(1, 2))  # limit offset
        with pytest.raises(MalformedExpr):
            LadderTail(ONE, ONE, F(1), F(2))  # ratio >= 1

    def test_total_sup(self):
        assert profile_total_sup(EpsProfile((), ConstTail(fin(5)))) == fin(5)
        lad = EpsProfile((), LadderTail(ONE, ONE, F(1), F(1, 2)))
        assert profile_total_sup(lad) == W
        lad2 = EpsProfile((), LadderTail(W, ONE, F(1), F(1, 2)))
        assert profile_total_sup(lad2) == W2

    @given(
        eps1=st.fractions(min_value=F(1, 64), max_value=4),
        eps2=st.fractions(min_value=F(1, 64), max_value=4),
    )
    @settings(max_examples=100)
    def test_monotone_as_eps_shrinks(self, eps1, eps2):
        p = EpsProfile(
            ((F(1), ONE), (F(1, 3), fin(2))),
            LadderTail(ONE, fin(2), F(1, 4), F(1, 2)),
        )
        lo, hi = min(eps1, eps2), max(eps1, eps2)
        assert profile_eval(p, lo) >= profile_eval(p, hi)


class TestProfileSup:
    def test_parametric_family_at_eps(self):
        fam = ParamFamily(
            ConstNorms(F(1)),
            LadderMembers(ONE, ONE, ONE, F(1), F(1, 2)),
        )
        assert family_sup_at(fam, F(1, 8)) == fin(4)

    def test_family_total_sup(self):
        fam = ParamFamily(
            ConstNorms(F(1)),
            LadderMembers(W, ONE, ONE, F(1), F(1, 4)),
        )
        assert family_index_sup(fam) == W2

    def test_family_validation(self):
        with pytest.raises(MalformedExpr):
            LadderMembers(ZERO, ONE, ONE, F(1), F(1, 2))  # zero slope
        with pytest.raises(MalformedExpr):
            LadderMembers(ONE, ONE, fin(2), F(1), F(1, 2))  # low > offset
        with pytest.raises(MalformedExpr):
            LadderMembers(ONE, ONE, ONE, F(1), F(1, 2), compact=True)
        with pytest.raises(MalformedExpr):
            GeometricNorms(F(1), F(3, 2))  # ratio >= 1

    @given(data=st.data())
    @settings(max_examples=60)
    def test_family_sup_dominates_every_member(self, data):
        slope_k = data.draw(st.integers(min_value=1, max_value=3))
        fam = ParamFamily(
            GeometricNorms(F(1), F(1, 2)),
            LadderMembers(mul(W, fin(slope_k)), ONE, ONE, F(1, 2), F(1, 3)),
        )
        eps_q = data.draw(st.fractions(min_value=F(1, 200), max_value=2))
        at_eps = family_sup_at(fam, eps_q)
        total = family_index_sup(fam)
        assert at_eps <= total
        # the value at eps really is a member value or the shared low value
        m = fam.members
        n, x, reached = 0, m.base_q, []
        if x >= eps_q:
            while x * m.ratio_q >= eps_q:
                x *= m.ratio_q
                n += 1
            reached = [add(mul(m.slope, fin(j)), m.offset) for j in range(n + 1)]
        assert at_eps in ([m.low] + reached)


# ---------------------------------------------------------------------------
# space expressions
# ---------------------------------------------------------------------------


def ladder_atom(name: str, slope: Ordinal, offset: Ordinal = ONE) -> Atom:
    return Atom(name, F(1), EpsProfile((), LadderTail(slope, offset, F(1), F(1, 2))))


def const_atom(name: str, value: Ordinal, compact: bool = False) -> Atom:
    return Atom(name, F(1), EpsProfile((), ConstTail(value)), compact=compact)


class TestCompactness:
    def test_compact_atom_needs_trivial_profile(self):
        with pytest.raises(MalformedExpr):
            Atom("bad", F(1), EpsProfile((), ConstTail(fin(2))), compact=True)
        const_atom("ok", ONE, compact=True)

    def test_compact_atom_error_echoes_a_long_name_in_brief(self):
        with pytest.raises(MalformedExpr, match=r"^compact atom 'x+\.\.\.x+' must have index 1$"):
            Atom("x" * 100_000, F(1), EpsProfile((), ConstTail(fin(2))), compact=True)

    def test_sum_compactness_propagation(self):
        k = const_atom("k", ONE, compact=True)
        nk = ladder_atom("nk", ONE)
        assert direct_sum_index(DirectSum("2", (k, k))).compact
        assert not direct_sum_index(DirectSum("2", (k, nk))).compact
        # compact members with non-vanishing norms: not compact
        fam = ParamFamily(ConstNorms(F(1)), Copies(EpsProfile((), ConstTail(ONE)), compact=True))
        assert not direct_sum_index(DirectSum("2", fam)).compact
        fam2 = ParamFamily(GeometricNorms(F(1), F(1, 2)), Copies(EpsProfile((), ConstTail(ONE)), compact=True))
        assert direct_sum_index(DirectSum("2", fam2)).compact

    def test_compact_copies_need_trivial_profile(self):
        with pytest.raises(MalformedExpr, match="compact family members must have index 1"):
            Copies(EpsProfile((), ConstTail(fin(5))), compact=True)
        with pytest.raises(MalformedExpr):
            Copies(ladder_atom("a", ONE).profile, compact=True)
        Copies(EpsProfile((), ConstTail(fin(5))))
        Copies(EpsProfile(), compact=True)

    @given(space_exprs(3))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_evaluator(self, e):
        # every SpaceIndex field: kind, index, rule and compactness
        assert direct_sum_index(e) == reference_direct_sum_index(e)


class TestDirectSumIndex:
    def test_flagship_family_beats_member_sup(self):
        fam = ParamFamily(
            ConstNorms(F(1)),
            LadderMembers(W, ONE, ONE, F(1), F(1, 4)),
        )
        r = direct_sum_index(DirectSum("0", fam))
        assert r.kind == "ordinal" and r.index == W2 and r.rule == "punibound"
        assert family_index_sup(fam) == W2  # members approach but never attain w^2

    def test_ell1_infinite_copies_not_asplund(self):
        fam = ParamFamily(ConstNorms(F(1)), Copies(ladder_atom("a", ONE).profile))
        r = direct_sum_index(DirectSum("1", fam))
        assert r.kind == "not_asplund" and r.rule == "nonascase"

    def test_ell2_two_atoms_reduces_to_max(self):
        a = ladder_atom("a", ONE)  # index w
        b = ladder_atom("b", W)  # index w^2
        r = direct_sum_index(DirectSum("2", (a, b)))
        assert r.kind == "ordinal" and r.index == W2 and r.rule == "punibound"

    def test_atom_identity(self):
        a = ladder_atom("a", ONE)
        r = direct_sum_index(a)
        assert r.index == W and r.rule == "identity"

    def test_compact_gate(self):
        k = const_atom("k", ONE, compact=True)
        for p in ("0", "1", "inf", F(3, 2)):
            r = direct_sum_index(DirectSum(p, (k, k)))
            assert r.index == ONE and r.rule == "compactbound" and r.compact

    def test_noncompact_scalar_sum_models_ell_p(self):
        # unit-norm compact members with p in {0} u (1, oo): the sum is
        # noncompact and lands exactly on w
        fam = ParamFamily(ConstNorms(F(1)), Copies(EpsProfile((), ConstTail(ONE)), compact=True))
        for p in ("0", F(2)):
            r = direct_sum_index(DirectSum(p, fam))
            assert r.index == W and r.rule == "punibound"

    def test_ell_one_unit_scalars_not_asplund(self):
        fam = ParamFamily(ConstNorms(F(1)), Copies(EpsProfile((), ConstTail(ONE)), compact=True))
        r = direct_sum_index(DirectSum("1", fam))
        assert r.kind == "not_asplund"

    def test_sup_rule_for_p_one_with_vanishing_norms(self):
        fam = ParamFamily(
            GeometricNorms(F(1), F(1, 2)),
            LadderMembers(W, ONE, ONE, F(1), F(1, 4)),
        )
        r = direct_sum_index(DirectSum("1", fam))
        assert r.index == W2 and r.rule == "nonascase"

    def test_finite_sum_max(self):
        a = ladder_atom("a", ONE)
        b = const_atom("b", fin(7))
        r = direct_sum_index(FiniteSum((a, b)))
        assert r.index == W and r.rule == "collection(v)"

    def test_successor_summand_rounds_up(self):
        # a summand attaining index 5 forces the sum past 5, to w
        b = const_atom("b", fin(5))
        r = direct_sum_index(DirectSum("2", (b,)))
        assert r.index == W and r.rule == "punibound"

    def test_attained_limit_plus_one_rounds_to_next_power(self):
        # offset-dominant ladder: every member value is w + 1 (attained)
        a = Atom("a", F(1), EpsProfile((), LadderTail(ONE, add(W, ONE), F(1), F(1, 2))))
        assert profile_total_sup(a.profile) == add(W, ONE)
        r = direct_sum_index(DirectSum("2", (a,)))
        assert r.index == W2

    def test_nested_sums(self):
        inner = DirectSum("2", (ladder_atom("a", ONE), ladder_atom("b", W)))
        outer = DirectSum("0", (inner, ladder_atom("c", ONE)))
        r = direct_sum_index(outer)
        assert r.index == W2  # inner evaluates to the power w^2, kept as-is

    def test_not_asplund_propagates_upward(self):
        bad = DirectSum("1", ParamFamily(ConstNorms(F(1)), Copies(ladder_atom("a", ONE).profile)))
        r = direct_sum_index(DirectSum("2", (bad, ladder_atom("c", ONE))))
        assert r.kind == "not_asplund"
        r2 = direct_sum_index(FiniteSum((bad,)))
        assert r2.kind == "not_asplund" and r2.rule == "collection(v)"

    def test_malformed(self):
        with pytest.raises(MalformedExpr):
            DirectSum("2", ())
        with pytest.raises(MalformedExpr):
            DirectSum(F(1, 2), (ladder_atom("a", ONE),))
        with pytest.raises(MalformedExpr):
            FiniteSum(())

    def test_deep_chain_keeps_index_omega(self):
        """E_0 a compact atom and E_{n+1} = E_n (+)_1 a ladder atom of
        index w, built by a loop: every positive stage has index w, and
        stage 399 evaluates at the default recursion limit."""
        e = const_atom("zero", ONE, compact=True)
        for n in range(1, 400):
            e = DirectSum("1", (e, ladder_atom("a", ONE)))
            if n in (1, 2, 5, 399):
                r = direct_sum_index(e)
                assert (r.index, r.rule, r.compact) == (W, "nonascase", False)

    @given(data=st.data())
    @settings(max_examples=80)
    def test_single_genuine_summand_invariant(self, data):
        # a single noncompact summand whose profile sup is a power of w:
        # the p-sum index equals the summand index for every p
        k = data.draw(st.integers(min_value=0, max_value=2))
        slope = omega_pow(fin(k)) if k else ONE
        atom = ladder_atom("a", slope)
        s_idx = profile_total_sup(atom.profile)
        assert is_power_of_omega(s_idx)
        for p in ("0", "1", "inf", F(3, 2), F(7)):
            r = direct_sum_index(DirectSum(p, (atom,)))
            assert r.index == s_idx

    @given(data=st.data())
    @settings(max_examples=80)
    def test_finite_list_reduces_to_max_for_genuine_atoms(self, data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        atoms = []
        for i in range(n):
            kind = data.draw(st.sampled_from(["ladder", "compact"]))
            if kind == "ladder":
                k = data.draw(st.integers(min_value=0, max_value=2))
                atoms.append(ladder_atom(f"a{i}", omega_pow(fin(k)) if k else ONE))
            else:
                atoms.append(const_atom(f"k{i}", ONE, compact=True))
        e = DirectSum(data.draw(st.sampled_from(["0", F(3, 2), F(2)])), tuple(atoms))
        r = direct_sum_index(e)
        sups = [profile_total_sup(a.profile) for a in atoms]
        if all(a.compact for a in atoms):
            assert r.index == ONE
        else:
            expected = max([W] + [s for a, s in zip(atoms, sups) if not a.compact])
            assert r.index == expected
            assert is_power_of_omega(r.index)
            assert all(r.index >= s for s in sups)


class TestCSpaceIndex:
    def test_omega_to_omega(self):
        assert c_space_index(omega_pow(W)) == W2

    def test_omega_cubed(self):
        assert c_space_index(W3) == W

    def test_mixed_cnf(self):
        gamma = add(mul(omega_pow(W2), fin(5)), W)
        assert c_space_index(gamma) == W3

    def test_finite(self):
        assert c_space_index(ZERO) == ONE
        assert c_space_index(fin(17)) == ONE

    def test_via_expr(self):
        r = direct_sum_index(CSpace(omega_pow(W)))
        assert r.index == W2 and r.rule == "c_space"

    def test_constant_on_classification_intervals(self):
        # alpha = 1: interval [w^w, w^(w^2))
        lo = omega_pow(W)
        samples = [lo, add(lo, W), mul(lo, fin(9)), omega_pow(add(W, fin(3)))]
        for g in samples:
            assert c_space_index(g) == W2

    @given(data=st.data())
    @settings(max_examples=60)
    def test_monotone(self, data):
        from strategies import ordinals

        g1 = data.draw(ordinals())
        g2 = data.draw(ordinals())
        if g1 > g2:
            g1, g2 = g2, g1
        assert c_space_index(g1) <= c_space_index(g2)
