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
    DepthCapExceeded,
    DirectSum,
    EpsProfile,
    FiniteSum,
    GeometricNorms,
    InvalidParams,
    LadderMembers,
    LadderTail,
    MalformedExpr,
    ParamFamily,
    admissible_index_value,
    c_space_index,
    direct_sum_index,
    ell2_upper_atom,
    family_index_sup,
    frount_M,
    frount_M_qpow,
    postdoc2_bound,
    profile_eval,
    profile_sup,
    profile_total_sup,
    sigma,
    sigma_qpow,
    szlenk_space_construct,
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


class TestPostdoc2Bound:
    def test_sigma_one_collapses_to_eta(self):
        assert postdoc2_bound(W, 1, 3, 1, 1) == W

    def test_sigma_three(self):
        assert postdoc2_bound(W2, 1, 1, F(1, 2), 1) == mul(W2, fin(3))

    def test_degenerate_set(self):
        assert postdoc2_bound(ONE, 0, 1, F(1, 2), 1) == ONE

    def test_eta_lower_bound_property(self):
        for eta in [ONE, W, add(W2, ONE)]:
            for args in [(1, 3, 1, 1), (2, 1, F(1, 2), 2), (0, 1, F(1, 2), 1)]:
                assert postdoc2_bound(eta, *args) >= eta

    def test_eta_zero_rejected(self):
        with pytest.raises(InvalidParams):
            postdoc2_bound(ZERO, 1, 3, 1, 1)


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
        assert profile_sup(fam, F(1, 8)) == fin(4)

    def test_finite_list_max(self):
        p1 = EpsProfile((), ConstTail(add(W, ONE)))
        p2 = EpsProfile((), ConstTail(add(mul(W, fin(2)), ONE)))
        assert profile_sup([p1, p2], 1) == add(mul(W, fin(2)), ONE)

    def test_trivial(self):
        assert profile_sup([EpsProfile((), ConstTail(ONE))], 1) == ONE

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
        at_eps = profile_sup(fam, eps_q)
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


class TestConstruct:
    def test_zero_stage(self):
        r = szlenk_space_construct(ZERO, ell2_upper_atom())
        assert isinstance(r.expr, Atom) and r.expr.compact
        assert direct_sum_index(r.expr).index == ONE
        assert not r.truncated and r.lower_bound == ZERO

    def test_successor_stage(self):
        r = szlenk_space_construct(ONE, ell2_upper_atom())
        e = r.expr
        assert isinstance(e, DirectSum) and e.p == "1"
        assert isinstance(e.summands[0], Atom) and e.summands[0].compact
        assert e.summands[1].name == "ell2_upper"
        assert not r.truncated

    def test_limit_stage_truncates(self):
        r = szlenk_space_construct(W, ell2_upper_atom(), limit_width=5)
        e = r.expr
        assert isinstance(e, DirectSum) and e.p == F(2)
        assert len(e.summands) == 5
        assert r.truncated and r.lower_bound == W
        # members are the finite stages E_0 .. E_4
        assert isinstance(e.summands[0], Atom)
        assert isinstance(e.summands[4], DirectSum)

    def test_depth_cap(self):
        with pytest.raises(DepthCapExceeded):
            szlenk_space_construct(fin(50), ell2_upper_atom(), node_cap=10)

    def test_structure_is_shared(self):
        r = szlenk_space_construct(fin(30), ell2_upper_atom(), node_cap=40)
        assert r.nodes == 31  # stages 0..30, one expression each

    def test_deep_finite_stage_builds_without_recursion(self):
        """The build walks a successor chain with a loop: stage 2000 (past
        the default recursion limit) builds with a node cap of its 2001
        stages, and one stage more than the cap raises DepthCapExceeded."""
        r = szlenk_space_construct(fin(2000), ell2_upper_atom(), node_cap=2001)
        assert r.nodes == 2001 and not r.truncated
        e, depth = r.expr, 0
        while isinstance(e, DirectSum):
            e, depth = e.summands[0], depth + 1
        assert depth == 2000 and e.name == "zero"
        with pytest.raises(DepthCapExceeded):
            szlenk_space_construct(fin(2000), ell2_upper_atom(), node_cap=2000)

    def test_limit_stages_share_their_members(self):
        """A limit's members are built on the explicit stack, each stage
        once: w + 3 holds w + 2, w + 1 and w, whose five members are
        stages 0..4, so it takes 4 + 5 stages; and w * 2, whose members
        w + k hold w, builds and truncates."""
        r = szlenk_space_construct(add(W, fin(3)), ell2_upper_atom())
        assert r.nodes == 9 and r.truncated
        inner = r.expr
        for _ in range(3):
            inner = inner.summands[0]
        assert inner.p == F(2) and len(inner.summands) == 5
        r = szlenk_space_construct(mul(W, fin(2)), ell2_upper_atom())
        assert r.truncated and r.expr.p == F(2)

    def test_index_grows_with_stage(self):
        # every positive finite stage contains a noncompact piece of index w
        for n in (1, 2, 5, 399):
            r = szlenk_space_construct(fin(n), ell2_upper_atom(), node_cap=400)
            assert direct_sum_index(r.expr).index == W


class TestAdmissibleIndexValue:
    def test_values(self):
        assert admissible_index_value(mul(W2, fin(3))) == "not_power_of_omega"
        assert admissible_index_value(omega_pow(W)) == "attained"
        assert admissible_index_value(ONE) == "attained"
        assert admissible_index_value(add(W, ONE)) == "not_power_of_omega"
