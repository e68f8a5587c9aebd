"""Product grids, staircase derivations, bounds, covers."""
from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from oracle import oracle_p_sz
from strategies import fan_sets, fracs
from szlenk.calculus import InvalidParams
from szlenk.fansets import (
    Fan,
    ProdQ,
    OutsideExactFragment,
    Scale,
    Sing,
    depth_fan,
    scaled,
)
from szlenk import products
from szlenk.pointmodel import ProductModel, sz_product_set
from szlenk.products import (
    AEpsGrid,
    BqPoint,
    ChainNestingViolated,
    ProductBound,
    a_eps_grid,
    bound_product_derivation,
    bq_cover,
    bq_member,
    derive_product_step,
    product_sz,
    product_union_sz,
)

F1 = Fan(F(1, 2), (), Sing())


class TestAEpsGrid:
    def test_validation(self):
        with pytest.raises(InvalidParams):
            AEpsGrid((F(1),), (F(1),), F(1, 2), F(1), F(1))
        with pytest.raises(InvalidParams):
            AEpsGrid((F(1),), (F(1),), F(1), F(1), F(1))
        with pytest.raises(InvalidParams):
            AEpsGrid((), (), F(1), F(1, 2), F(1))
        with pytest.raises(InvalidParams):
            AEpsGrid((F(1), F(1)), (F(1),), F(1), F(1, 2), F(1))
        with pytest.raises(InvalidParams):
            AEpsGrid((F(0),), (F(1),), F(1), F(1, 2), F(1))
        with pytest.raises(InvalidParams):
            AEpsGrid((F(1),), (F(-1),), F(1), F(1, 2), F(1))
        with pytest.raises(InvalidParams):
            AEpsGrid((F(1),), (F(1),), F(1), F(1, 2), F(1, 2))

    def test_single_factor_enumeration(self):
        g = AEpsGrid((F(1),), (F(1),), F(1), F(1, 2), F(1))
        grid = a_eps_grid(g)
        assert grid == [(F(j, 8),) for j in range(2, 9)]
        assert len(grid) == 7

    def test_two_factor_count(self):
        g = AEpsGrid((F(1, 2), F(1, 2)), (F(1), F(1)), F(1), F(1, 2), F(1))
        grid = a_eps_grid(g)
        assert len(grid) == 71  # pairs (j1, j2) in 0..8 with j1 + j2 >= 4
        for v1, v2 in grid:
            assert v1 / g.step == int(v1 / g.step)
            assert v1 <= 1 and v2 <= 1
            assert (v1 + v2) / 2 >= F(1, 4)

    def test_size_guard(self):
        # step (1 - 399/400) / 4 = 1/1600: 1601 values per factor, 1601**3 tuples
        g = AEpsGrid((F(1),) * 3, (F(1),) * 3, F(1), F(399, 400), F(1))
        assert 1601**2 > products.ENUMERATION_LIMIT
        with pytest.raises(InvalidParams, match="grid enumeration too large"):
            a_eps_grid(g)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 3),
        st.sampled_from([F(1), F(2), F(3)]),
        fracs(max_num=2, max_den=4),
        st.sampled_from([F(1, 4), F(1, 2), F(1), F(2)]),
        st.data(),
    )
    def test_grid_size_bound(self, n, q, delta, gap, data):
        eps = delta + gap
        diams = [
            data.draw(fracs(max_num=2, max_den=4), label=f"diam{i}")
            for i in range(n)
        ]
        a_q = [F(1, n)] * n
        g = AEpsGrid(
            tuple(a_q), tuple(d**q for d in diams), eps, delta, q
        )
        grid = a_eps_grid(g)
        from szlenk.exactmath import ceil_frac

        bound = ceil_frac(4 * max(diams) / (eps - delta) + 1) ** n
        assert len(grid) <= bound
        for tup in grid:
            assert sum(aq * v**q for aq, v in zip(g.a_q, tup)) >= (delta / 2) ** q
            for v, d in zip(tup, diams):
                assert v <= d
                assert (v / g.step).denominator == 1


class TestDeriveProductStep:
    def test_scaled_pair_empty(self):
        pu = derive_product_step([(F(1, 2), F1), (F(1, 2), F1)], F(3, 2))
        assert pu.is_empty()
        assert pu.points() == frozenset()

    def test_unscaled_pair_origin(self):
        pu = derive_product_step([(F(1), F1), (F(1), F1)], F(3, 2))
        pts = pu.points()
        assert len(pts) == 1
        (pt,) = pts
        assert all(p.norm_q() == 0 for p in pt)
        assert len(pu.terms) == 1

    def test_sing_factor_degenerates(self):
        pu = derive_product_step([(F(1), F1), (F(1), Sing())], F(1, 2))
        pts = pu.points()
        assert len(pts) == 1
        (pt,) = pts
        assert pt[0].norm_q() == 0 and pt[1].norm_q() == 0

    def test_certification_failure_raises(self, monkeypatch):
        staircase = products._staircase
        monkeypatch.setattr(products, "_staircase", lambda *a: staircase(*a)[1:])
        with pytest.raises(ChainNestingViolated):
            derive_product_step([(F(1), F1), (F(1), F1)], F(3, 2))

    def test_validation(self):
        with pytest.raises(InvalidParams):
            derive_product_step([], F(1))
        with pytest.raises(InvalidParams):
            derive_product_step([(F(1), F1)], F(0))
        with pytest.raises(InvalidParams):
            derive_product_step([(F(0), F1)], F(1))
        with pytest.raises(OutsideExactFragment):
            derive_product_step([(F(1), ProdQ((F1,)))], F(1))

    def test_iteration_terminates(self):
        pu = derive_product_step([(F(1), F1), (F(1), depth_fan(2, F(1, 2)))], F(1, 2))
        assert product_union_sz(pu, F(1, 2)) >= 1

    def test_full_sz_matches_model(self):
        factors = [(F(1), F1), (F(1), depth_fan(2, F(1, 2)))]
        model = ProductModel.of([F1, depth_fan(2, F(1, 2))])
        assert product_sz(factors, F(1, 2)) == sz_product_set(
            model.tuples(), model, F(1, 2)
        )


class TestProductIterationAgainstModel:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(fracs(max_num=2, max_den=4), fan_sets(1)),
            min_size=1,
            max_size=2,
        ),
        fracs(),
    )
    def test_sz_agrees(self, factors, eps_q):
        bodies = [scaled(a_q, K) for a_q, K in factors]
        model = ProductModel.of(bodies)
        assume(len(model.tuples()) <= 400)
        expected = sz_product_set(model.tuples(), model, eps_q)
        assert oracle_p_sz(model.tuples(), eps_q) == expected
        try:
            got = product_sz(factors, eps_q)
        except ChainNestingViolated:
            event("chain nesting violated")
            return
        event("certified")
        assert got == expected


class TestBoundProductDerivation:
    def test_kill_pair(self):
        out = bound_product_derivation(
            [(F(1, 2), F1), (F(1, 2), F1)], F(1, 2), F(1), 2
        )
        assert out == ProductBound("empty", 16)

    def test_surviving_factor_unknown(self):
        out = bound_product_derivation(
            [(F(1), depth_fan(3, F(1, 2)))], F(1, 2), F(1), 2
        )
        assert out.verdict == "unknown"

    def test_validation(self):
        with pytest.raises(InvalidParams):
            bound_product_derivation([(F(1), F1)], F(1, 2), F(1), 1)
        with pytest.raises(InvalidParams):
            bound_product_derivation(
                [(F(2, 3), F1), (F(2, 3), F1)], F(1, 2), F(1), 2
            )
        with pytest.raises(InvalidParams):
            bound_product_derivation([], F(1, 2), F(1), 2)
        with pytest.raises(OutsideExactFragment):
            bound_product_derivation([(F(1), ProdQ((F1,)))], F(1, 2), F(1), 2)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.just(F(1, 3)), fan_sets(1)), min_size=1, max_size=2
        ),
        fracs(),
        st.sampled_from([F(1), F(2)]),
        st.integers(2, 3),
    )
    def test_empty_verdict_is_sound(self, factors, eps_q, q, m):
        out = bound_product_derivation(factors, eps_q, q, m)
        assert out.M >= m
        if out.verdict != "empty":
            event("unknown")
            return
        event("empty")
        bodies = [scaled(a_q, K) for a_q, K in factors]
        model = ProductModel.of(bodies)
        assume(len(model.tuples()) <= 400)
        assert sz_product_set(model.tuples(), model, eps_q) <= out.M


class TestBqCover:
    def test_single_factor(self):
        cover = bq_cover([F1], 2, F(1))
        assert cover.tuples == ((1,), (2,), (3,))
        assert cover.products == (
            (Scale(F(1, 2), F1),),
            (F1,),
            (Scale(F(3, 2), F1),),
        )

    def test_validation(self):
        with pytest.raises(InvalidParams):
            bq_cover([F1], 0, F(1))
        with pytest.raises(InvalidParams):
            bq_cover([], 2, F(1))
        with pytest.raises(InvalidParams):
            bq_cover([F1], 2, F(1, 2))
        with pytest.raises(OutsideExactFragment):
            bq_cover([ProdQ((F1,))], 2, F(1))

    def test_member_basic(self):
        cover = bq_cover([F1], 2, F(1))
        assert bq_member(BqPoint((F(3, 4),), (True,)), cover)
        assert bq_member(BqPoint((F(1),), (True,)), cover)
        assert bq_member(BqPoint((F(1),), (False,)), cover)

    def test_member_false_outside(self):
        cover = bq_cover([F1, F1, F1], 4, F(1))
        assert not bq_member(
            BqPoint((F(1), F(1), F(1)), (True, True, True)), cover
        )

    @pytest.mark.parametrize("q", [F(1), F(2), F(3), F(3, 2)])
    def test_cover_is_down_closed(self, q):
        """bq_member relies on this: lowering any k_i > 1 stays in the cover."""
        for n in (1, 2, 3):
            for l in range(1, 9):
                tuples = set(bq_cover([F1] * n, l, q).tuples)
                assert (l,) + (1,) * (n - 1) in tuples
                for k in tuples:
                    for i in range(n):
                        if k[i] > 1:
                            assert k[:i] + (k[i] - 1,) + k[i + 1:] in tuples

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(1, 8),
        st.sampled_from([F(1), F(2), F(3)]),
        st.data(),
    )
    def test_member_matches_any_tuple_scan(self, n, l, q, data):
        """The least-tuple lookup against the definition (some tuple of the
        cover absorbs every nonzero coordinate); no ball assumption, so
        both answers occur."""
        cover = bq_cover([F1] * n, l, q)
        scales = tuple(
            data.draw(st.builds(F, st.integers(0, 16), st.just(16)), label=f"a{i}")
            for i in range(n)
        )
        nonzero = tuple(data.draw(st.booleans(), label=f"nz{i}") for i in range(n))
        scan = any(
            all(not nz or a <= F(k, l) for a, nz, k in zip(scales, nonzero, ks))
            for ks in cover.tuples
        )
        event(f"covered={scan}")
        assert bq_member(BqPoint(scales, nonzero), cover) == scan

    def test_member_arity(self):
        cover = bq_cover([F1], 2, F(1))
        with pytest.raises(InvalidParams):
            bq_member(BqPoint((F(1), F(1)), (True, True)), cover)
        with pytest.raises(InvalidParams):
            BqPoint((F(3, 2),), (True,))

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(1, 6),
        st.sampled_from([F(1), F(2), F(3)]),
        st.data(),
    )
    def test_ball_points_always_covered(self, n, l, q, data):
        scales = tuple(
            data.draw(
                st.builds(F, st.integers(0, 8), st.just(8)), label=f"a{i}"
            )
            for i in range(n)
        )
        assume(sum(a**q for a in scales) <= 1)
        nonzero = tuple(
            data.draw(st.booleans(), label=f"nz{i}") for i in range(n)
        )
        cover = bq_cover([F1] * n, l, q)
        assert bq_member(BqPoint(scales, nonzero), cover)


class TestChainNesting:
    def test_error_type(self):
        assert issubclass(ChainNestingViolated, ValueError)
