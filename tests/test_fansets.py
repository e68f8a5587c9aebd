"""Structural fan-set engine: frozen cases plus model/oracle cross-checks."""
from __future__ import annotations

import dataclasses
import itertools
import math
import signal
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from oracle import (
    contains_origin,
    fold,
    fold_points,
    oracle_derive,
    oracle_dist_q,
    oracle_in_cluster,
    oracle_local_diam_q,
    oracle_materialize,
    oracle_orbits,
    oracle_sz,
    prefix_cluster_map,
    project,
    reference_cluster_map,
    reference_materialize,
    reference_norms,
    reference_parents,
    reference_projection,
    reference_weights,
    unfold,
    unshared_derive,
)
from strategies import fan_sets, fracs, unions_and_groups
from szlenk import checks
from szlenk.calculus import InvalidParams
from szlenk.checks import tvl_check
from szlenk.fansets import (
    DisjUnion,
    Fan,
    GroupNotFound,
    MalformedFanSet,
    OutsideExactFragment,
    ProdQ,
    Scale,
    Sing,
    UnionApex,
    count_apexes,
    depth_fan,
    derive,
    derive_steps,
    diam_q,
    disj,
    radius_q,
    scaled,
    sz_eps,
)
from szlenk.ordinal import Ordinal
from szlenk.pointmodel import (
    ProductModel,
    _local_diams,
    _strides,
    cluster_map,
    count_points,
    derive_product_set,
    iterate_set,
    materialize,
    model_sz,
)

F1 = Fan(F(1, 2), (), Sing())
CHAIN2 = depth_fan(2, F(1, 2))


def fin(n: int) -> Ordinal:
    return Ordinal.from_int(n)


def norms_sorted(points) -> list[F]:
    return sorted(p.norm_q for p in points)


def dists_sorted(points) -> list[F]:
    return sorted(oracle_dist_q(a, b) for a, b in itertools.combinations(list(points), 2))


class TestValidation:
    def test_fan_width_positive(self):
        with pytest.raises(MalformedFanSet):
            Fan(F(0))
        with pytest.raises(MalformedFanSet):
            Fan(F(-1, 2))

    def test_scale_positive(self):
        with pytest.raises(MalformedFanSet):
            Scale(F(0), F1)
        with pytest.raises(MalformedFanSet):
            Scale(F(-1), F1)

    def test_union_apex_members(self):
        with pytest.raises(MalformedFanSet):
            UnionApex(())
        with pytest.raises(MalformedFanSet):
            UnionApex((Sing(),))

    def test_disj_union_offsets(self):
        with pytest.raises(MalformedFanSet):
            DisjUnion(())
        with pytest.raises(MalformedFanSet):
            DisjUnion(((F(0), Sing()), (F(0), F1)))
        with pytest.raises(MalformedFanSet):
            DisjUnion(((F(-1), Sing()),))

    def test_products_top_level_only(self):
        with pytest.raises(MalformedFanSet):
            ProdQ(())
        inner = ProdQ((F1,))
        with pytest.raises(MalformedFanSet):
            ProdQ((inner,))
        with pytest.raises(MalformedFanSet):
            Fan(F(1), (), inner)
        with pytest.raises(MalformedFanSet):
            Fan(F(1), (inner,), Sing())
        with pytest.raises(MalformedFanSet):
            Scale(F(1, 2), inner)
        with pytest.raises(MalformedFanSet):
            DisjUnion(((F(0), inner),))


class TestSmartConstructors:
    def test_scaled_normalizes(self):
        assert scaled(F(1, 2), None) is None
        assert scaled(F(1, 2), Sing()) == Sing()
        assert scaled(F(1), F1) == F1
        assert scaled(F(1, 2), Scale(F(1, 3), F1)) == Scale(F(1, 6), F1)
        assert scaled(F(1, 2), F1) == Scale(F(1, 2), F1)

    def test_disj_normalizes(self):
        assert disj([]) is None
        assert disj([(F(0), None), (F(1), None)]) is None
        assert disj([(F(0), F1)]) == F1
        assert disj([(F(1), F1)]) == DisjUnion(((F(1), F1),))
        inner = DisjUnion(((F(0), Sing()), (F(1), F1)))
        assert disj([(F(0), inner), (F(2), Sing())]) == DisjUnion(
            ((F(0), Sing()), (F(1), F1), (F(2), Sing()))
        )

    def test_depth_fan(self):
        assert depth_fan(0, F(1)) == Sing()
        assert depth_fan(2, F(1, 2)) == Fan(F(1, 2), (), F1)
        with pytest.raises(InvalidParams):
            depth_fan(-1, F(1))


class TestRadiusDiam:
    def test_sing(self):
        assert radius_q(Sing()) == 0
        assert diam_q(Sing()) == 0
        assert contains_origin(Sing())

    def test_plain_fan(self):
        assert radius_q(F1) == F(1, 2)
        assert diam_q(F1) == 1
        assert contains_origin(F1)

    def test_depth_fan_values(self):
        d2 = depth_fan(2, F(1, 2))
        assert radius_q(d2) == 1
        assert diam_q(d2) == 2

    def test_prefix_fan(self):
        f = Fan(F(1), (F1,), Sing())
        assert radius_q(f) == F(3, 2)
        assert diam_q(f) == F(5, 2)

    def test_scale(self):
        s = Scale(F(1, 4), F1)
        assert radius_q(s) == F(1, 8)
        assert diam_q(s) == F(1, 4)

    def test_union_apex(self):
        ua = UnionApex((F1, Fan(F(1, 3))))
        assert radius_q(ua) == F(1, 2)
        assert diam_q(ua) == 1
        ua2 = UnionApex((Fan(F(2)), Fan(F(3))))
        assert radius_q(ua2) == 3
        assert diam_q(ua2) == 6

    def test_disj_union(self):
        du = DisjUnion(((F(0), Sing()), (F(1), F1)))
        assert radius_q(du) == F(3, 2)
        assert diam_q(du) == F(3, 2)
        assert contains_origin(du)
        assert not contains_origin(DisjUnion(((F(1), F1),)))

    def test_product(self):
        p = ProdQ((F1, F1))
        assert radius_q(p) == 1
        assert diam_q(p) == 2
        assert contains_origin(p)
        assert not contains_origin(ProdQ((F1, DisjUnion(((F(1), F1),)))))


def model_local_diam_q(factors, paths):
    """The local diameter^q, inside the whole product of `factors`, of the
    model point whose factor points have the given `paths` (None when some
    factor has no point at its path)."""
    model = ProductModel.of(factors)
    x = []
    for f, path in zip(factors, paths):
        at = [j for j, p in enumerate(reference_materialize(f)) if p.path == path]
        if not at:
            return None
        x.append(at[0])
    axes = range(len(factors))
    strides = _strides(model, axes)
    codes = [sum(j * s for j, s in zip(y, strides)) for y in model.tuples()]
    d = _local_diams(model, axes, codes)[sum(j * s for j, s in zip(x, strides))]
    return F(d, model.den)


def local_diam_at(K, path):
    return model_local_diam_q([K], [path])


T = ("t", 0)


class TestLocalDiam:
    """Frozen local diameters on the point model, addressed by its paths."""

    def test_fan_paths(self):
        assert local_diam_at(F1, ()) == 1
        assert local_diam_at(F1, (T,)) == 0
        d2 = depth_fan(2, F(1, 2))
        assert local_diam_at(d2, ()) == 2
        assert local_diam_at(d2, (T,)) == 1
        assert local_diam_at(d2, (T, T)) == 0

    def test_prefix_path(self):
        f = Fan(F(1), (F1,), Sing())
        assert local_diam_at(f, (("p", ("pre", 0)),)) == 1
        assert local_diam_at(f, (("p", ("pre", 1)),)) is None

    def test_union_apex_paths(self):
        ua = UnionApex((F1, Fan(F(1, 3))))
        assert local_diam_at(ua, ()) == 1
        assert local_diam_at(ua, (("f", ("fan", 1)), T)) == 0
        # a fan inside the union has no apex of its own: it is the shared one
        assert local_diam_at(ua, (("f", ("fan", 0)),)) is None
        assert local_diam_at(ua, (("f", ("fan", 5)), T)) is None

    def test_scale_and_disj(self):
        assert local_diam_at(Scale(F(1, 4), F1), ()) == F(1, 4)
        du = DisjUnion(((F(0), Sing()), (F(1), F1)))
        assert local_diam_at(du, (("p", ("comp", 1)),)) == 1
        assert local_diam_at(du, (("f", ("comp", 0)),)) == 0
        assert local_diam_at(DisjUnion(((F(1), Sing()),)), ()) is None

    def test_product_paths(self):
        factors = [F1, depth_fan(2, F(1, 2))]
        assert model_local_diam_q(factors, [(), ()]) == 3
        assert model_local_diam_q(factors, [(T,), ()]) == 2
        assert model_local_diam_q(factors, [(T,), (T, T)]) == 0

    def test_leaf_path_rejected(self):
        assert local_diam_at(F1, (T, T)) is None


class TestFilterDerive:
    def test_plain_fan(self):
        assert derive(F1, F(1, 2)) == Sing()
        assert derive(F1, F(1)) is None
        assert derive(F1, F(3, 2)) is None

    def test_eps_positive(self):
        with pytest.raises(InvalidParams):
            derive(F1, F(0))
        with pytest.raises(InvalidParams):
            derive(F1, F(-1))

    def test_depth_fan_peels(self):
        assert derive(depth_fan(2, F(1, 2)), F(1, 2)) == F1

    def test_dead_apex_keeps_prefix(self):
        f = Fan(F(1, 4), (F1,), Sing())
        assert derive(f, F(1, 2)) == DisjUnion(((F(1, 4), Sing()),))

    def test_live_apex_dead_tail_restructures(self):
        f = Fan(F(1, 2), (F1,), Sing())
        assert derive(f, F(1, 2)) == DisjUnion(
            ((F(0), Sing()), (F(1, 2), Sing()))
        )

    def test_union_apex_collapses(self):
        ua = UnionApex((F1, Fan(F(1, 3))))
        assert derive(ua, F(1, 2)) == Sing()
        assert derive(ua, F(3, 4)) == Sing()
        assert derive(ua, F(1)) is None

    def test_union_apex_single_core(self):
        ua = UnionApex((Fan(F(1, 2), (), F1), Fan(F(1, 3))))
        assert derive(ua, F(1, 2)) == F1

    def test_union_apex_two_cores(self):
        ua = UnionApex(
            (Fan(F(1, 2), (), F1), Fan(F(1, 3), (), Fan(F(1, 3))))
        )
        assert derive(ua, F(1, 4)) == UnionApex(
            (Fan(F(1, 2), (), Sing()), Fan(F(1, 3), (), Sing()))
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.builds(Fan, fracs(), st.lists(fan_sets(2), max_size=2).map(tuple), fan_sets(2)),
        fracs(),
    )
    def test_fan_derives_as_its_one_arm_apex(self, K, eps_q):
        assert derive(K, eps_q) == derive(UnionApex((K,)), eps_q)

    def test_scale(self):
        assert derive(Scale(F(1, 4), F1), F(1, 2)) is None
        assert derive(Scale(F(1, 4), F1), F(1, 8)) == Sing()

    def test_product_rejected(self):
        with pytest.raises(OutsideExactFragment):
            derive(ProdQ((F1,)), F(1, 2))


class TestSz:
    def test_singleton(self):
        assert sz_eps(Sing(), F(7)) == fin(1)

    def test_plain_fan(self):
        assert sz_eps(F1, F(1, 2)) == fin(2)

    def test_depth_two(self):
        assert sz_eps(depth_fan(2, F(1, 2)), F(1, 2)) == fin(3)

    @pytest.mark.parametrize("n", range(5))
    def test_depth_chain(self, n):
        assert sz_eps(depth_fan(n, F(1, 2)), F(1, 2)) == fin(n + 1)
        assert sz_eps(depth_fan(n, F(1, 2)), F(3, 4)) == fin(n + 1)

    def test_above_diam(self):
        assert sz_eps(depth_fan(3, F(1, 2)), F(3)) == fin(1)

    def test_scaled(self):
        assert sz_eps(Scale(F(1, 4), F1), F(1, 2)) == fin(1)
        assert sz_eps(Scale(F(1, 4), F1), F(1, 8)) == fin(2)


class TestTrace:
    def test_depth_two_trace(self):
        final, trace = derive_steps(depth_fan(2, F(1, 2)), F(1, 2), 5)
        assert final is None
        snaps = [s.snapshot for s in trace.steps]
        assert snaps == [depth_fan(2, F(1, 2)), F1, Sing(), None]
        assert [s.apex_count for s in trace.steps] == [3, 1, 0, 0]
        assert [s.diam_q for s in trace.steps] == [F(2), F(1), F(0), F(0)]

    def test_zero_steps(self):
        final, trace = derive_steps(F1, F(1, 2), 0)
        assert final == F1
        assert len(trace.steps) == 1

    def test_negative_rejected(self):
        with pytest.raises(InvalidParams):
            derive_steps(F1, F(1, 2), -1)

    def test_count_apexes(self):
        assert count_apexes(None) == 0
        assert count_apexes(Sing()) == 0
        assert count_apexes(F1) == 1
        assert count_apexes(depth_fan(2, F(1, 2))) == 3
        assert count_apexes(UnionApex((F1, Fan(F(1, 3))))) == 1

    def test_closed_forms_at_depth_300(self):
        d = depth_fan(300, F(1, 2))
        assert count_apexes(d) == 2**300 - 1
        assert radius_q(d) == 150
        assert diam_q(d) == 300

    @settings(max_examples=200, deadline=None)
    @given(fan_sets(3))
    def test_count_apexes_matches_oracle(self, f):
        pts = oracle_materialize(f)
        assume(len(pts) <= 60)
        alive = frozenset(pts)
        clustered = sum(1 for x in pts if oracle_local_diam_q(x, alive) > 0)
        assert count_apexes(f) == clustered


class TestRadiusCache:
    FIELDS = {
        Sing: (),
        Fan: ("w_q", "prefix", "tail"),
        UnionApex: ("fans",),
        Scale: ("a_q", "body"),
        ProdQ: ("factors",),
        DisjUnion: ("components",),
    }

    @staticmethod
    def nodes():
        return [
            Sing(),
            depth_fan(3, F(1, 2)),
            UnionApex((F1, Fan(F(1, 3), (F1,), F1))),
            Scale(F(1, 4), depth_fan(2, F(1, 2))),
            ProdQ((F1, depth_fan(2, F(1, 3)))),
            DisjUnion(((F(0), F1), (F(1), Sing()))),
        ]

    @staticmethod
    def fill(node):
        """Fill every per-node cache (products have no apex count)."""
        radius_q(node)
        diam_q(node)
        if not isinstance(node, ProdQ):
            count_apexes(node)

    def test_cache_is_invisible(self):
        for a, b in zip(self.nodes(), self.nodes()):
            self.fill(a)
            assert {"_radius_q", "_diam_q"} <= set(vars(a))
            assert isinstance(a, ProdQ) or "_apexes" in vars(a)
            assert a == b and b == a
            assert hash(a) == hash(b)
            assert repr(a) == repr(b)

    def test_node_fields_unchanged(self):
        for node in self.nodes():
            self.fill(node)
            names = tuple(f.name for f in dataclasses.fields(node))
            assert names == self.FIELDS[type(node)]


class TestProject:
    def test_product_groups(self):
        p = ProdQ((F1, Sing(), depth_fan(2, F(1, 2))))
        assert project(p, [0, 2]) == ProdQ((F1, depth_fan(2, F(1, 2))))
        assert project(p, [1]) == Sing()
        assert project(p, [0, 0]) == F1
        with pytest.raises(GroupNotFound):
            project(p, [3])
        with pytest.raises(GroupNotFound):
            project(p, [])

    def test_disj_groups(self):
        du = DisjUnion(((F(0), F1), (F(1), Sing())))
        assert project(du, [0, 1]) == du
        assert project(du, [0]) == F1
        assert project(du, [1]) == DisjUnion(((F(1), Sing()), (F(0), Sing())))
        with pytest.raises(GroupNotFound):
            project(du, [2])

    def test_no_groups_elsewhere(self):
        with pytest.raises(GroupNotFound):
            project(F1, [0])

    def test_nested_zero_offset_union_without_origin(self):
        """The kept zero-offset union lacks the origin two levels down, so
        it is merged in before the origin joins at offset 0."""
        K = DisjUnion(
            ((0, DisjUnion(((0, DisjUnion(((1, Sing()), (2, Sing())))), (3, Sing())))), (1, Sing()))
        )
        assert project(K, [0]) == DisjUnion(
            ((F(1), Sing()), (F(2), Sing()), (F(3), Sing()), (F(0), Sing()))
        )

    def test_scaled_zero_offset_union_without_origin(self):
        K = DisjUnion(((0, Scale(F(1, 2), DisjUnion(((1, Sing()), (2, Sing()))))), (1, Sing())))
        assert project(K, [0]) == DisjUnion(((F(1, 2), Sing()), (F(1), Sing()), (F(0), Sing())))
        K = DisjUnion(((0, Scale(F(1, 2), DisjUnion(((2, F1),)))), (1, Sing())))
        assert project(K, [0]) == DisjUnion(((F(1), Scale(F(1, 2), F1)), (F(0), Sing())))


class TestModelFrozen:
    def test_plain_fan_points(self):
        pts = oracle_materialize(F1)
        assert len(pts) == 3
        assert norms_sorted(pts) == [F(0), F(1, 2), F(1, 2)]
        assert dists_sorted(pts) == [F(1, 2), F(1, 2), F(1)]
        apex = next(p for p in pts if p.norm_q == 0)
        leaves = [p for p in pts if p is not apex]
        assert all(oracle_in_cluster(apex, y) for y in leaves)
        assert not any(oracle_in_cluster(y, apex) for y in leaves)
        assert model_sz(F1, F(1, 2)) == 2

    def test_union_apex_share(self):
        """One apex and one tail orbit per fan: 3 orbits, 5 two-copy points."""
        ua = UnionApex((F1, Fan(F(1, 3))))
        pts = reference_materialize(ua)
        assert len(pts) == 3 == len(materialize(ua))
        model = ProductModel.of([ua])
        assert model.count(model.tuples()) == 5 == len(oracle_materialize(ua))
        apex = next(p for p in pts if p.norm_q == 0)
        assert all(oracle_in_cluster(apex, y) for y in pts)

    def test_product_model_rejected(self):
        with pytest.raises(OutsideExactFragment):
            materialize(ProdQ((F1,)))
        with pytest.raises(OutsideExactFragment):
            count_points(ProdQ((F1,)))

    def test_depth_twelve_chain(self):
        """13 orbits of the 8191 two-copy points."""
        assert model_sz(depth_fan(12, F(1, 2)), F(1, 2)) == 13

    def test_depth_sixty_four_chain(self):
        """65 orbits: a chain of depth n settles at n + 1 at w_q = eps_q =
        1/2, past any size the two-copy model could hold."""
        assert model_sz(depth_fan(64, F(1, 2)), F(1, 2)) == 65

    @pytest.mark.parametrize("eps_q", [F(0), F(-1)])
    def test_non_positive_threshold_raises(self, eps_q):
        """No point would ever die below a non-positive bar: the model
        refuses it, as `sz_eps` does, instead of deriving forever (the
        timer turns a hang into a failure after 1 s)."""

        def hang(signum, frame):
            raise AssertionError("model_sz did not return within 1 s")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.setitimer(signal.ITIMER_REAL, 1)
        try:
            with pytest.raises(InvalidParams):
                model_sz(depth_fan(2, F(1, 2)), eps_q)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        with pytest.raises(InvalidParams):
            sz_eps(depth_fan(2, F(1, 2)), eps_q)

    @settings(max_examples=200, deadline=None)
    @given(fan_sets(3))
    def test_points_are_the_oracle_materialization(self, K):
        """The oracle's orbit representatives (no tail step takes copy
        ("t", 1)), with the reference walk's paths in the same order, each
        carrying the norm^q that the oracle sums from its explicit
        coordinates and that `materialize` hands out at its position; every
        oracle point folds onto one of them."""
        got = [(p.path, p.norm_q) for p in reference_materialize(K)]
        assert materialize(K) == [norm_q for _, norm_q in got]
        opts = oracle_materialize(K)
        assert got == [(p.path, p.norm_q) for p in opts if fold(p.path) == p.path]
        assert {fold(p.path) for p in opts} == {path for path, _ in got}


def oracle_cluster_map(points) -> dict:
    """The cluster relation by the oracle: y's position to the set of
    positions of every x with y in C(x)."""
    return {
        j: {i for i, x in enumerate(points) if oracle_in_cluster(x, y)}
        for j, y in enumerate(points)
    }


def forest_closure(parents) -> dict:
    """By position j: j and every ancestor of j in the forest `parents`
    (a root its own parent)."""
    out = {}
    for j, p in enumerate(parents):
        # a parent precedes its child, so its closure is already there
        out[j] = {j} | out[p] if p != j else {j}
    return out


def assert_forest_is_oracle(points, parents) -> None:
    """`parents` is a forest on the path-carrying `points` whose closure is
    the oracle's relation: each point's parent precedes it, no point's path
    extends another point's by "f" steps only (the premise of the
    `pointmodel` docstring's forest argument), the closure is the prefix
    scan's relation, and that is the oracle's."""
    assert len(parents) == len(points)
    for j, p in enumerate(parents):
        assert p <= j, "not one earlier parent"
    paths = {p.path for p in points}
    for p in points:
        k = len(p.path)
        while k and p.path[k - 1][0] == "f":
            k -= 1
            assert p.path[:k] not in paths, "a path extends another by f steps only"
    reference = {j: set(v) for j, v in prefix_cluster_map(points).items()}
    assert forest_closure(parents) == reference
    assert reference == oracle_cluster_map(points)


class TestClusterMap:
    @settings(max_examples=300, deadline=None)
    @given(fan_sets(3))
    def test_matches_oracle(self, K):
        """The model's parents, on the reference walk's paths."""
        assert_forest_is_oracle(reference_materialize(K), ProductModel.of([K]).parents[0])

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(fan_sets(2), min_size=2, max_size=3),
        st.lists(fracs(), min_size=2, max_size=3),
        st.sets(st.integers(0, 2), min_size=1),
    )
    # the kept zero-offset root is the origin
    @example([F1, Sing()], [F(1), F(1)], {0})
    # the zero-offset component is dropped, so an origin is added
    @example([F1, Sing(), F1], [F(1), F(1), F(2)], {1, 2})
    def test_matches_oracle_on_tvl_projection(self, bodies, offs, keep):
        """The disjoint branch of tvl_check derives the projection on the
        kept positions of the union's own model, with every dropped
        component sent to the one point of norm 0 (the kept zero-offset
        root, or an added root at path ()).  The kept positions are closed
        under parents, and their forest, plus that root, is the one the
        path scan reads off the projected points (`reference_projection`),
        and the oracle's."""
        comps = [(F(0) if i == 0 else o, b) for i, (o, b) in enumerate(zip(offs, bodies))]
        K = DisjUnion(tuple(comps))
        groups = sorted(g for g in keep if g < len(comps))
        assume(groups and len(groups) < len(comps))
        whole, at, sub = kept_model(K, groups)
        points = reference_projection(K, groups)
        event("kept zero-offset root" if points[-1].path else "added origin")
        cmap = reference_cluster_map(points)
        assert sub.parents[0] == tuple(cmap[k][-1] for k in cmap)
        assert sum(1 for p in points if p.norm_q == 0) == 1
        assert_forest_is_oracle(points, sub.parents[0])
        # `cluster_map`, which only the benchmark's tracer still names,
        # remaps the same forest
        assert cluster_map(whole.parents[0], at, len(points)) == cmap

    @settings(max_examples=300, deadline=None)
    @given(fan_sets(3))
    def test_count_points_is_materialized_size(self, K):
        assert count_points(K) == len(materialize(K))


def engine_chain(F0, eps_q):
    chain = [F0]
    while chain[-1] is not None:
        chain.append(derive(chain[-1], eps_q))
    return chain


def model_chain(alive, eps_q, via):
    chain = [alive]
    while chain[-1]:
        chain.append(via(chain[-1], eps_q))
    return chain


def assert_model_is_reference(model: ProductModel, points_by_factor, den=None) -> None:
    """The model holds these points, by position: the prefix scan's
    parents, the weights counted off the paths and the norms^q over their
    least common denominator (over `den`, the whole model's, for a
    projection)."""
    assert tuple(map(len, model.norms)) == tuple(map(len, points_by_factor))
    assert model.parents == tuple(tuple(reference_parents(p)) for p in points_by_factor)
    assert model.weights == tuple(tuple(reference_weights(p)) for p in points_by_factor)
    D, norms = reference_norms(points_by_factor)
    if den is not None:
        assert den % D == 0
        D, norms = den, [[n * (den // D) for n in ns] for ns in norms]
    assert (model.den, model.norms) == (D, tuple(map(tuple, norms)))


def projected_models(K, groups) -> list[ProductModel]:
    """The models tvl_check derives for a product: K's, then the sub-model
    of the kept factors."""
    seen = []
    real = checks.iterate_product_set

    def spy(alive, model, eps_q, m):
        seen.append(model)
        return real(alive, model, eps_q, m)

    with mock.patch.object(checks, "iterate_product_set", spy):
        tvl_check(K, groups, F(1), F(1, 2), F(1), alpha=0)
    return seen


def kept_model(K, groups) -> tuple[ProductModel, dict, ProductModel]:
    """The model tvl_check derives for a disjoint union, the new position of
    each kept position, and the model the kept positions make: their norms,
    weights and parents in position order (a parent must be kept too), then
    an origin (norm 0, weight 1, a root) when a component is dropped and no
    kept point has norm 0."""
    seen = []
    real = checks.iterate_set

    def spy(alive, model, i, eps_q, m):
        seen.append((model, alive))
        return real(alive, model, i, eps_q, m)

    with mock.patch.object(checks, "iterate_set", spy):
        tvl_check(K, groups, F(1), F(1, 2), F(1), alpha=0)
    ((whole, kept),) = seen
    norms, parents, weights = whole.norms[0], whole.parents[0], whole.weights[0]
    order = sorted(kept)
    at = {j: k for k, j in enumerate(order)}
    sub = ([norms[j] for j in order], [at[parents[j]] for j in order], [weights[j] for j in order])
    if len(order) < len(norms) and all(sub[0]):
        for column, value in zip(sub, (0, len(order), 1)):
            column.append(value)
    return whole, at, ProductModel(whole.den, *((tuple(column),) for column in sub))


class TestModelWalk:
    """The model build's one walk (norms, parents and weights handed down,
    widths added once per fan) against the recursive materializer, in the
    same pre-order, the path scan's parents and the weights counted off the
    paths (tests/oracle.py)."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(fan_sets(3), min_size=1, max_size=2))
    def test_matches_reference_on_fan_sets(self, factors):
        assume(math.prod(map(count_points, factors)) <= 4000)
        model = ProductModel.of(factors)
        assert_model_is_reference(model, [reference_materialize(f) for f in factors])
        got = [[F(n, model.den) for n in norms] for norms in model.norms]
        assert [materialize(f) for f in factors] == got

    @settings(max_examples=150, deadline=None)
    @given(unions_and_groups())
    def test_matches_reference_on_disjoint_projection(self, case):
        """tvl_check derives a disjoint union's projection on the union's
        own model, built by the walk, and its kept positions, plus the
        added origin when no kept point has norm 0, hold the points that
        the path rule picks (`reference_projection`): their parents,
        weights and norms."""
        K, groups = case
        whole, _, sub = kept_model(K, groups)
        assert_model_is_reference(whole, [reference_materialize(K)])
        assert_model_is_reference(sub, [reference_projection(K, groups)], whole.den)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(fan_sets(2), min_size=2, max_size=3), st.data())
    def test_matches_reference_on_product_projection(self, factors, data):
        assume(math.prod(map(count_points, factors)) <= 4000)
        groups = data.draw(
            st.sets(st.integers(0, len(factors) - 1), min_size=1), label="groups"
        )
        whole, sub = projected_models(ProdQ(tuple(factors)), sorted(groups))
        assert_model_is_reference(whole, [reference_materialize(f) for f in factors])
        points = [reference_materialize(factors[i]) for i in sorted(groups)]
        assert_model_is_reference(sub, points, whole.den)

    def test_depth_thousand_chain(self):
        """The walk and `count_points` keep their own stacks: a chain of
        depth 1000 builds and derives to sz 1001 within seconds (the
        recursive materializer stopped near depth 496)."""
        start = time.perf_counter()
        assert model_sz(depth_fan(1000, F(1, 2)), F(1, 2)) == 1001
        assert time.perf_counter() - start < 5

    def test_depth_ten_thousand_chain(self):
        """One rank pass derives the whole sequence: a chain of depth 10^4
        builds and derives to sz 10^4 + 1 within 2 s (one kernel run per
        stage took about n^2, 8 s at depth 4000)."""
        start = time.perf_counter()
        assert model_sz(depth_fan(10**4, F(1, 2)), F(1, 2)) == 10**4 + 1
        assert time.perf_counter() - start < 2

    def test_depth_eight_thousand_chain_memory(self):
        """The model keeps no paths: building a chain of depth 8000 peaks
        below 32 MiB (every point holding its whole path took 251 MiB)."""
        chain = depth_fan(8000, F(1, 2))
        tracemalloc.start()
        try:
            model = ProductModel.of([chain])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(model.norms[0]) == 8001
        assert peak < 32 * 2**20


class TestTvlProjection:
    @settings(max_examples=150, deadline=None)
    @given(unions_and_groups(), fracs(max_den=4), st.integers(0, 3))
    # the zero-offset component is dropped: the added origin is in stage 0
    # of the projection only
    @example((DisjUnion(((F(0), F1), (F(1), CHAIN2))), [1]), F(1, 4), 1)
    @example((DisjUnion(((F(0), F1), (F(1), CHAIN2))), [1]), F(1, 4), 0)
    # the kept zero-offset root is the origin
    @example((DisjUnion(((F(0), CHAIN2), (F(1), F1))), [0]), F(1, 4), 1)
    def test_stages_match_the_projected_set(self, case, delta, alpha):
        """Stage alpha of the projection at delta, as tvl_check derives it,
        against the model of `project`.  The check's own survivors are
        replaced by the whole union, and q = 1 with eps = delta + 2 *
        (radius_q + 1) puts the cut below 0, so the violations list, once
        per two-copy point in position order, every point whose projection
        (a kept point itself, a dropped one the origin) is not in the stage,
        with that projection's norm^q.  The model of `project` holds the
        kept points in order, with their norms^q and orbit sizes, and then
        the origin when it is added."""
        K, groups = case
        model = ProductModel.of([K])
        keep = set(groups)
        kept = [j for j, p in enumerate(reference_materialize(K)) if p.path[0][1][1] in keep]
        want = ProductModel.of([project(K, groups)])
        norms = [F(n, want.den) for n in want.norms[0]]
        assert norms[: len(kept)] == [model.norm_q((j,)) for j in kept]
        assert want.weights[0][: len(kept)] == tuple(model.weights[0][j] for j in kept)
        added = len(kept) < len(model.norms[0]) and 0 not in norms[: len(kept)]
        assert (norms[len(kept) :], want.weights[0][len(kept) :]) == (
            ([0], (1,)) if added else ([], ())
        )
        stage = iterate_set(frozenset(range(len(norms))), want, 0, delta, alpha)
        at = {j: k for k, j in enumerate(kept)}
        origin = norms.index(0) if 0 in norms else None
        want_violations = []
        for j, w in enumerate(model.weights[0]):
            k = at.get(j, origin)
            if k not in stage:
                want_violations += [
                    f"survivor with projected norm_q={norms[k]} escapes the projected derivation"
                ] * w
        with mock.patch.object(checks, "iterate_product_set", lambda alive, *_: alive):
            rep = tvl_check(K, groups, delta + 2 * (radius_q(K) + 1), delta, F(1), alpha)
        assert rep.filtered == model.count(model.tuples())
        assert rep.violations == tuple(want_violations)

    @settings(max_examples=100, deadline=None)
    @given(unions_and_groups(), st.data())
    def test_projected_norms_are_the_kept_coordinates(self, case, data):
        """At alpha = 0 every point is a survivor, so `filtered` counts the
        points whose projection has norm^q over rad_q - cut_q; the oracle
        projects by summing the coordinates on the kept components' axes."""
        K, groups = case
        keep = set(groups)
        norms = [
            sum((v for ax, v in p.coords if ax[0][1][1] in keep), F(0))
            for p in oracle_materialize(K)
        ]
        rad_q = radius_q(K)
        t = data.draw(st.sampled_from(sorted({v for v in norms if v < rad_q} | {F(0)})))
        delta = F(1, 2)
        # q = 1: rad_q - ((eps - delta) / 2) is t
        rep = tvl_check(K, groups, delta + 2 * (rad_q - t), delta, F(1), alpha=0)
        assert rep.filtered == sum(1 for v in norms if v > t)


class TestEngineVsModel:
    @settings(max_examples=80, deadline=None)
    @given(fan_sets(2), fracs())
    def test_chains_agree(self, f, eps_q):
        """The symbolic engine's snapshots, the quotient stages (all axes
        and one axis) and the oracle's two-copy stages: each oracle stage
        folds onto the quotient stage, has its orbit-weighted size, and has
        the norms and distances of the engine snapshot's materialization."""
        model = ProductModel.of([f])
        orbits = oracle_orbits([f], model)
        echain = engine_chain(f, eps_q)
        mchain = model_chain(
            model.tuples(), eps_q, lambda a, e: derive_product_set(a, model, e)[-1]
        )
        schain = model_chain(
            frozenset(range(len(model.norms[0]))),
            eps_q,
            lambda a, e: iterate_set(a, model, 0, e, 1),
        )
        ochain = model_chain(frozenset(oracle_materialize(f)), eps_q, oracle_derive)
        assert [fold_points(orbits, ((p,) for p in a)) for a in ochain] == mchain
        assert [frozenset((j,) for j in a) for a in schain] == mchain
        assert [model.count(a) for a in mchain] == [len(a) for a in ochain]
        assert len(echain) == len(ochain)
        for snap, alive in zip(echain, ochain):
            pts = oracle_materialize(snap) if snap is not None else ()
            assert len(pts) == len(alive)
            assert norms_sorted(pts) == norms_sorted(alive)
            assert dists_sorted(pts) == dists_sorted(alive)
        n = len(echain) - 1
        assert sz_eps(f, eps_q) == fin(max(n, 1))
        assert oracle_sz(frozenset(oracle_materialize(f)), eps_q) == max(n, 1)

    @settings(max_examples=60, deadline=None)
    @given(fan_sets(2), fracs(), fracs(max_num=4))
    def test_scaling_homogeneous(self, f, eps_q, a_q):
        lhs = derive(Scale(a_q, f), a_q * eps_q)
        rhs = scaled(a_q, derive(f, eps_q))
        assert lhs == rhs

    @settings(max_examples=60, deadline=None)
    @given(fan_sets(2), fracs(), fracs())
    def test_monotone_in_eps(self, f, e1, e2):
        lo, hi = min(e1, e2), max(e1, e2)
        assert sz_eps(f, lo) >= sz_eps(f, hi)
        model = ProductModel.of([f])
        s_lo = derive_product_set(model.tuples(), model, lo)[-1]
        s_hi = derive_product_set(model.tuples(), model, hi)[-1]
        assert s_hi <= s_lo

    @settings(max_examples=60, deadline=None)
    @given(fan_sets(2))
    def test_superlevel_at_diam_empty(self, f):
        """No local diameter exceeds the diameter, so deriving at eps_q =
        diam_q empties the set (at any positive eps_q when diam_q is 0)."""
        assert derive(f, diam_q(f) or F(1)) is None

    @settings(max_examples=60, deadline=None)
    @given(fan_sets(2), fracs())
    def test_derivation_shrinks(self, f, eps_q):
        d = derive(f, eps_q)
        if d is not None:
            assert radius_q(d) <= radius_q(f)
            assert diam_q(d) <= diam_q(f)


class TestSharedStructure:
    """One derivation sequence shares its nodes (`DerivationMemo`); the
    reference is the unshared filtration kept in tests/oracle.py and the
    quotient stages of the point model."""

    @settings(max_examples=150, deadline=None)
    @given(fan_sets(3), fracs())
    # one node object filtered at two thresholds, plain and scaled
    @example(DisjUnion(((F(0), CHAIN2), (F(3), Scale(F(1, 4), CHAIN2)))), F(1, 2))
    def test_trace_matches_unshared_filtration(self, f, eps_q):
        ref = [f]
        while ref[-1] is not None:
            ref.append(unshared_derive(ref[-1], eps_q))
        final, trace = derive_steps(f, eps_q, len(ref) + 1)
        assert final is None
        assert [s.snapshot for s in trace.steps] == ref
        assert [s.apex_count for s in trace.steps] == [count_apexes(r) for r in ref]
        assert [s.diam_q for s in trace.steps] == [
            diam_q(r) if r is not None else F(0) for r in ref
        ]
        assert sz_eps(f, eps_q) == fin(len(ref) - 1)

    @settings(max_examples=80, deadline=None)
    @given(fan_sets(4), fracs())
    def test_trace_matches_quotient_stages(self, f, eps_q):
        """Per step: the snapshot's orbit points carry the stage's norms
        with the same orbit weights, its apex count is the two-copy count
        of the stage's points with positive local diameter, and its
        diameter is the largest distance over the stage's two-copy points."""
        assume(count_points(f) <= 40)
        model = ProductModel.of([f])
        assume(model.count(model.tuples()) <= 60)
        orbits = oracle_orbits([f], model)
        stages = model_chain(
            frozenset(range(len(model.norms[0]))),
            eps_q,
            lambda a, e: iterate_set(a, model, 0, e, 1),
        )
        _, trace = derive_steps(f, eps_q, len(stages))
        assert len(trace.steps) == len(stages) and trace.steps[-1].snapshot is None
        norms, weights = model.norms[0], model.weights[0]
        for step, stage in zip(trace.steps, stages):
            snap = step.snapshot
            got = Counter()
            for p in reference_materialize(snap) if snap is not None else ():
                got[p.norm_q] += 1 << sum(1 for kind, _ in p.path if kind == "t")
            want = Counter()
            for j in stage:
                want[F(norms[j], model.den)] += weights[j]
            assert got == want
            clustered = [j for j, d in _local_diams(model, (0,), stage).items() if d > 0]
            assert step.apex_count == model.count((j,) for j in clustered)
            two_copy = unfold(orbits, ((j,) for j in stage))
            far = max(
                (oracle_dist_q(a[0], b[0]) for a, b in itertools.combinations(two_copy, 2)),
                default=F(0),
            )
            assert step.diam_q == far
        assert sz_eps(f, eps_q) == fin(max(len(stages) - 1, 1))

    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_chain_steps_are_the_input_subtrees(self, n):
        chain = depth_fan(n, F(1, 2))
        _, trace = derive_steps(chain, F(1, 2), n + 1)
        sub = chain
        for step in trace.steps[:-1]:
            assert step.snapshot is sub
            sub = getattr(sub, "tail", None)
        assert trace.steps[-1].snapshot is None


class TestSweep:
    """Deep chains derive in linear time at the default recursion limit."""

    def test_sz_of_depth_900_chain(self):
        assert sys.getrecursionlimit() <= 1000
        start = time.perf_counter()
        assert sz_eps(depth_fan(900, F(1, 2)), F(1, 2)) == fin(901)
        assert time.perf_counter() - start < 1.0

    def test_trace_of_depth_400_chain(self):
        start = time.perf_counter()
        final, trace = derive_steps(depth_fan(400, F(1, 2)), F(1, 2), 401)
        assert time.perf_counter() - start < 1.0
        assert final is None
        assert [s.apex_count for s in trace.steps[-3:]] == [1, 0, 0]
