"""Product grids, staircase derivations, bounds, covers."""
from __future__ import annotations

import bisect
import dataclasses
import itertools
import math
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from oracle import (
    fold_points,
    oracle_derive,
    oracle_dist_q,
    oracle_in_cluster,
    oracle_local_diam_q,
    oracle_materialize,
    oracle_orbits,
    oracle_p_derive,
    oracle_p_local_diam_q,
    oracle_p_sz,
    oracle_points,
    prefix_cluster_map,
    push_to_all_local_diams,
    reference_bq_member,
    reference_materialize,
    reference_stages,
    unfold,
)
from strategies import fan_sets, fracs
from szlenk.calculus import InvalidParams, frount_M_qpow
from szlenk.fansets import (
    DerivationMemo,
    Fan,
    ProdQ,
    OutsideExactFragment,
    Scale,
    Sing,
    depth_fan,
    derive,
    diam_q,
    scaled,
)
from szlenk import products
from szlenk.exactmath import pow_bounds
from szlenk.pointmodel import (
    ProductModel,
    _local_diams,
    _strides,
    derive_product_set,
    derive_set,
    iterate_product_set,
    iterate_set,
    sz_product_set,
)
from szlenk.products import (
    AEpsGrid,
    ProductBound,
    a_eps_grid,
    a_eps_minimal,
    bound_product_derivation,
    bq_cover,
    bq_member,
    derive_product_step,
    product_sz,
    product_union_derive,
    union_count,
)

F1 = Fan(F(1, 2), (), Sing())


def reference_a_eps_grid(g: AEpsGrid) -> list[tuple[F, ...]]:
    """The A-grid by the all-tuples enumeration: each factor's values j * step
    while lo((j * step)^q) <= diam_q_i, every tuple of them kept when the
    Fraction sum of a_q_i * hi(v_i^q) reaches lo((delta/2)^q)."""
    per_factor = []
    for d_q in g.diam_q:
        vals = []
        j = 0
        while True:
            lo, hi = pow_bounds(j * g.step, g.q)
            if lo > d_q:
                break
            vals.append((j * g.step, hi))
            j += 1
        per_factor.append(vals)
    cut_lo, _ = pow_bounds(g.delta / 2, g.q)
    return [
        tuple(v for v, _ in combo)
        for combo in itertools.product(*per_factor)
        if sum((a * hi for a, (_, hi) in zip(g.a_q, combo)), F(0)) >= cut_lo
    ]


def reference_levels(g: AEpsGrid) -> tuple[tuple[tuple[int, ...], ...], int]:
    """`AEpsGrid.levels` on Fractions, one `pow_bounds` call per multiplier:
    the bounds of (j * step)^q and (delta/2)^q as `pow_bounds` gives them,
    the weights a_q_i * hi((j * step)^q) for every j with
    lo((j * step)^q) <= diam_q_i, and all of them over the least common
    denominator of the weights and lo((delta/2)^q)."""
    per_factor: list[list[F]] = []
    step = g.step
    total = 1
    for a, d_q in zip(g.a_q, g.diam_q):
        vals: list[F] = []
        while True:
            lo, hi = pow_bounds(len(vals) * step, g.q)
            if lo > d_q:
                break
            vals.append(a * hi)
            if total * len(vals) > products.ENUMERATION_LIMIT:
                raise InvalidParams("grid enumeration too large")
        total *= len(vals)
        per_factor.append(vals)
    cut_lo, _ = pow_bounds(g.delta / 2, g.q)
    D = math.lcm(cut_lo.denominator, *(v.denominator for vals in per_factor for v in vals))
    weights = tuple(
        tuple(v.numerator * (D // v.denominator) for v in vals) for vals in per_factor
    )
    return weights, cut_lo.numerator * (D // cut_lo.denominator)


def with_levels(g: AEpsGrid, levels) -> AEpsGrid:
    """A copy of g whose cached `levels` are the given ones."""
    out = dataclasses.replace(g)
    out.__dict__["levels"] = levels
    return out


def reference_a_eps_minimal(g: AEpsGrid) -> list[tuple[int, ...]]:
    """The minimal columns by the row filter: a prefix walk on the levels
    finds, for every prefix of the first n - 1 multipliers that some column
    extends, the least last multiplier that reaches the cut, and keeps the
    column when lowering any prefix multiplier by one drops the sum below
    the cut."""
    weights, cut = g.levels
    n = len(weights)
    most = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        most[i] = most[i + 1] + weights[i][-1]

    def rows(i, prefix, acc):
        w = weights[i]
        first = bisect.bisect_left(w, cut - acc - most[i + 1])
        if i + 1 < n:
            for j in range(first, len(w)):
                yield from rows(i + 1, prefix + (j,), acc + w[j])
        elif first < len(w):
            yield prefix, acc, first

    last = weights[-1]
    return [
        p + (first,)
        for p, acc, first in rows(0, (), 0)
        if all(
            j == 0 or acc + last[first] - w[j] + w[j - 1] < cut
            for w, j in zip(weights, p)
        )
    ]


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

    def test_power_budget(self):
        """A large exponent denominator is refused before any root is taken
        (`levels` works at about 96 * v bits per power)."""
        start = time.perf_counter()
        with pytest.raises(InvalidParams, match=r"q = 100001/100000 needs a power"):
            AEpsGrid((F(1),), (F(1),), F(1), F(1, 2), F(100001, 100000))
        assert time.perf_counter() - start < 1

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 3),
        st.sampled_from([F(1), F(2), F(3), F(3, 2), F(5, 3), F(7, 4)]),
        fracs(max_num=2, max_den=4),
        st.sampled_from([F(1, 2), F(1), F(2)]),
        st.data(),
    )
    def test_levels_match_the_fraction_reference(self, n, q, delta, gap, data):
        """The integer levels against `reference_levels`: the same tops, the
        same rationals (weights over the cut), and so the same grid and
        minimal columns.  A diameter is 0, a random fraction, or exactly
        lo((k * step)^q), where the cut keeps multiplier k."""
        step = gap / 4
        a_q = [data.draw(fracs(max_num=3, max_den=4), label=f"a{i}") for i in range(n)]
        diams = []
        for i in range(n):
            kind = data.draw(st.sampled_from(["zero", "frac", "bound"]), label=f"kind{i}")
            if kind == "zero":
                diams.append(F(0))
            elif kind == "frac":
                diams.append(data.draw(fracs(max_num=2, max_den=4), label=f"diam{i}"))
            else:
                k = data.draw(st.integers(1, 8), label=f"k{i}")
                diams.append(pow_bounds(k * step, q)[0])
        event(f"q={q}")
        g = AEpsGrid(tuple(a_q), tuple(diams), delta + gap, delta, q)
        ref_levels = reference_levels(g)
        (weights, cut), (ref_weights, ref_cut) = g.levels, ref_levels
        assert [len(w) for w in weights] == [len(w) for w in ref_weights]
        for w, ref_w in zip(weights, ref_weights):
            assert [x * ref_cut for x in w] == [x * cut for x in ref_w]
        ref = with_levels(g, ref_levels)
        assert a_eps_grid(g) == a_eps_grid(ref)
        assert a_eps_minimal(g) == a_eps_minimal(ref)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 3),
        st.sampled_from([F(1), F(2), F(3), F(3, 2), F(5, 3)]),
        fracs(max_num=2, max_den=4),
        st.sampled_from([F(1, 2), F(1), F(2)]),
        st.data(),
    )
    def test_minimal_matches_the_row_filter(self, n, q, delta, gap, data):
        """The minimal columns from `_minimal_tuples` on the distinct
        weights against the row filter, on real grids and on hand-made
        levels whose weights repeat (a repeated weight's higher multiplier
        is never minimal)."""
        a_q = [data.draw(fracs(max_num=3, max_den=4), label=f"a{i}") for i in range(n)]
        diams = [data.draw(fracs(max_num=2, max_den=4), label=f"diam{i}") for i in range(n)]
        g = AEpsGrid(tuple(a_q), tuple(diams), delta + gap, delta, q)
        assert a_eps_minimal(g) == reference_a_eps_minimal(g)
        lists = st.lists(st.integers(0, 6), min_size=1, max_size=6).map(sorted)
        weights = tuple(tuple(data.draw(lists, label=f"w{i}")) for i in range(n))
        cut = data.draw(st.integers(-1, 6 * n + 1), label="cut")
        hand = with_levels(g, (weights, cut))
        got = a_eps_minimal(hand)
        event(f"{len(got)} minimal")
        assert got == reference_a_eps_minimal(hand)

    @settings(max_examples=150, deadline=None)
    @given(
        fracs(max_num=5, max_den=6),
        st.sampled_from([F(1), F(2), F(3), F(3, 2), F(5, 3)]),
        st.integers(1, 4),
        fracs(max_num=4, max_den=4),
        st.integers(0, 12),
    )
    def test_power_floors_match_pow_bounds(self, step, q, factor, cap, most):
        """The ladder against S * lo((j * step)^q) from `pow_bounds`, with S
        a multiple of the step's denominator^q at integer q and
        2^ROOT_BITS at fractional q (the denominators that make the lower
        bounds integers)."""
        S = step.denominator ** q.numerator * factor if q.denominator == 1 else 1 << 96
        expected = []
        for j in range(most + 1):
            lo = pow_bounds(j * step, q)[0] * S
            if lo > cap * S:
                break
            assert lo.denominator == 1
            expected.append(lo.numerator)
        event(f"{len(expected)} of {most + 1}")
        assert products._power_floors(step, q, S, cap, most) == expected

    def test_single_factor_enumeration(self):
        g = AEpsGrid((F(1),), (F(1),), F(1), F(1, 2), F(1))
        grid = a_eps_grid(g)
        assert grid == [(j,) for j in range(2, 9)]
        assert len(grid) == 7
        assert a_eps_minimal(g) == [(2,)]

    def test_two_factor_count(self):
        g = AEpsGrid((F(1, 2), F(1, 2)), (F(1), F(1)), F(1), F(1, 2), F(1))
        grid = a_eps_grid(g)
        assert len(grid) == 71  # pairs (j1, j2) in 0..8 with j1 + j2 >= 4
        for j1, j2 in grid:
            assert type(j1) is int and type(j2) is int
            assert j1 * g.step <= 1 and j2 * g.step <= 1
            assert (j1 + j2) * g.step / 2 >= F(1, 4)
        assert a_eps_minimal(g) == [(j, 4 - j) for j in range(5)]

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
            assert all(type(j) is int and j >= 0 for j in tup)
            vals = [j * g.step for j in tup]
            assert sum(aq * v**q for aq, v in zip(g.a_q, vals)) >= (delta / 2) ** q
            for v, d in zip(vals, diams):
                assert v <= d

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3),
        st.sampled_from([F(1), F(2), F(3), F(3, 2), F(5, 3)]),
        fracs(max_num=2, max_den=4),
        st.sampled_from([F(1, 2), F(1), F(2)]),
        st.data(),
    )
    def test_matches_all_tuples_reference(self, n, q, delta, gap, data):
        a_q = [data.draw(fracs(max_num=3, max_den=4), label=f"a{i}") for i in range(n)]
        diams = [
            data.draw(fracs(max_num=2, max_den=4), label=f"diam{i}") for i in range(n)
        ]
        g = AEpsGrid(
            tuple(a_q), tuple(pow_bounds(d, q)[1] for d in diams), delta + gap, delta, q
        )
        ref = reference_a_eps_grid(g)
        grid = a_eps_grid(g)
        event(f"q={q} grid={'empty' if not grid else 'nonempty'}")
        # same columns in the same order, values mapped through j * step
        assert [tuple(j * g.step for j in t) for t in grid] == ref
        # the grid is up-closed in its box, so its minimal columns are the
        # ones whose every one-step predecessor leaves it
        tops = [len(w) for w in g.levels[0]]
        cols = set(grid)

        def bump(t, i, d):
            return t[:i] + (t[i] + d,) + t[i + 1 :]

        for t in grid:
            for i in range(n):
                assert t[i] + 1 == tops[i] or bump(t, i, 1) in cols
        assert a_eps_minimal(g) == [
            t for t in grid if not any(t[i] and bump(t, i, -1) in cols for i in range(n))
        ]


def reference_minimal_tuples(values, bar):
    """The minimal tuples by scanning every pair of tuples that pass."""
    combos = [v for v in itertools.product(*values) if sum(v) > bar]
    return [
        v
        for v in combos
        if not any(u != v and all(a <= b for a, b in zip(u, v)) for u in combos)
    ]


class TestDeriveProductStep:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True).map(sorted),
            min_size=1,
            max_size=4,
        ),
        st.integers(0, 120),
    )
    def test_minimal_tuples_match_the_pairwise_scan(self, values, bar):
        got = products._minimal_tuples(values, bar)
        event(f"{len(got)} minimal")
        assert got == reference_minimal_tuples(values, bar)

    def test_scaled_pair_empty(self):
        pu = derive_product_step([(F(1, 2), F1), (F(1, 2), F1)], F(3, 2))
        assert pu.is_empty()
        assert first_stage(pu, F(3, 2)) == frozenset()
        assert union_count(pu.model, pu.terms) == 0

    def test_unscaled_pair_origin(self):
        pu = derive_product_step([(F(1), F1), (F(1), F1)], F(3, 2))
        alive = first_stage(pu, F(3, 2))
        assert len(alive) == 1
        (x,) = alive
        assert all(norms[j] == 0 for norms, j in zip(pu.model.norms, x))
        assert len(pu.terms) == 1
        assert term_points(pu) == alive
        # alive sets and terms hold positions, not points
        assert all(type(j) is int for x in alive for j in x)
        assert all(type(j) is int for term in pu.terms for G in term for j in G)

    def test_sing_factor_degenerates(self):
        pu = derive_product_step([(F(1), F1), (F(1), Sing())], F(1, 2))
        alive = first_stage(pu, F(1, 2))
        assert len(alive) == 1
        (x,) = alive
        assert all(norms[j] == 0 for norms, j in zip(pu.model.norms, x))
        assert term_points(pu) == alive

    def test_validation(self):
        with pytest.raises(InvalidParams):
            derive_product_step([], F(1))
        with pytest.raises(InvalidParams):
            derive_product_step([(F(1), F1)], F(0))
        with pytest.raises(InvalidParams):
            derive_product_step([(F(1), F1)], F(-1))
        with pytest.raises(InvalidParams):
            derive_product_step([(F(0), F1)], F(1))
        with pytest.raises(OutsideExactFragment):
            derive_product_step([(F(1), ProdQ((F1,)))], F(1))

    def test_iteration_terminates(self):
        pu = derive_product_step([(F(1), F1), (F(1), depth_fan(2, F(1, 2)))], F(1, 2))
        count = 0
        while not pu.is_empty():
            pu = product_union_derive(pu, F(1, 2))
            count += 1
        assert count >= 1

    def test_full_sz_matches_model(self):
        factors = [(F(1), F1), (F(1), depth_fan(2, F(1, 2)))]
        model = ProductModel.of([F1, depth_fan(2, F(1, 2))])
        assert product_sz(factors, F(1, 2)) == sz_product_set(
            model.tuples(), model, F(1, 2)
        )


def first_stage(pu, eps_q):
    """The exact one-step derivation of the whole product of pu's model,
    by the point-set reference."""
    return reference_stages(pu.model.tuples(), pu.model, eps_q, 1)[-1]


def term_points(pu):
    """The union of the terms' products, as position tuples."""
    return frozenset(x for term in pu.terms for x in itertools.product(*term))


@st.composite
def weighted_boxes(draw, factors):
    """A product model whose factors have 1-5 positions with random orbit
    sizes 2^t, t in 0..3 (the box count reads nothing else of a model), and
    0-6 boxes of random position sets, empty ones included: not closed,
    and overlapping at random."""
    sizes = [draw(st.integers(1, 5), label=f"size{i}") for i in range(factors)]
    tails = tuple(tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))) for n in sizes)
    model = ProductModel(1, tuple((0,) * n for n in sizes), tuple(tuple(range(n)) for n in sizes), tails)
    box = st.tuples(*(st.frozensets(st.integers(0, n - 1)) for n in sizes))
    return model, draw(st.lists(box, max_size=6), label="boxes")


class TestUnionCount:
    """The box count of a union against listing its points."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 4).flatmap(weighted_boxes))
    def test_matches_the_enumeration(self, drawn):
        model, boxes = drawn
        points = {x for box in boxes for x in itertools.product(*box)}
        event(f"{len(boxes)} boxes")
        assert union_count(model, boxes) == model.count(points)


def reference_prune(terms):
    """The pairwise prune: dedupe, then drop every term componentwise
    contained in another."""
    uniq = list(dict.fromkeys(terms))
    return [
        t for t in uniq if not any(o != t and all(a <= b for a, b in zip(t, o)) for o in uniq)
    ]


def reference_staircase(model, Gs, eps_q):
    """The staircase without a table: every term reads lam of its sets
    afresh and builds its super-level sets as new frozensets."""
    lams = [_local_diams(model, (i,), G) for i, G in enumerate(Gs)]
    values = [sorted(set(lam.values())) for lam in lams]
    return [
        tuple(frozenset(x for x in G if lam[x] >= v) for G, lam, v in zip(Gs, lams, vs))
        for vs in products._minimal_tuples(values, model.scaled_bar(eps_q))
    ]


def reference_derive_terms(model, terms, eps_q):
    return reference_prune([t for term in terms for t in reference_staircase(model, term, eps_q)])


class TestFactorTable:
    """The staircase on one factor-set table per derivation sequence."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_indexed_prune_matches_the_pairwise_one(self, n, data):
        """Term lists with repeats, whose repeats are equal frozensets that
        are not the same object."""
        subsets = st.frozensets(st.integers(0, 4), min_size=1)
        terms = data.draw(st.lists(st.tuples(*[subsets] * n), max_size=12), label="terms")
        picks = data.draw(st.lists(st.integers(0, max(len(terms) - 1, 0)), max_size=6), label="picks")
        for j in picks if terms else ():
            terms.append(tuple(frozenset(list(G)) for G in terms[j]))
        got = products._prune(terms)
        event(f"{len(terms) - len(got)} dropped")
        assert got == reference_prune(terms)

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(st.tuples(fracs(max_num=4, max_den=4), fan_sets(2)), min_size=2, max_size=4),
        st.integers(1, 16),
    )
    def test_steps_match_the_staircase_without_a_table(self, factors, k):
        """Random 2-4 factor products: the same terms, in the same order, at
        every step."""
        model = ProductModel.of([scaled(a_q, K) for a_q, K in factors])
        assume(len(model.tuples()) <= 2000)
        eps_q = eps_at(factors, k, 16)
        pu = derive_product_step(factors, eps_q)
        whole = tuple(frozenset(range(len(norms))) for norms in pu.model.norms)
        want = reference_derive_terms(pu.model, [whole], eps_q)
        steps = 1
        while True:
            assert list(pu.terms) == want
            if pu.is_empty():
                break
            pu = product_union_derive(pu, eps_q)
            want = reference_derive_terms(pu.model, want, eps_q)
            steps += 1
        event(f"steps={steps}")

    def test_equal_sets_share_one_level_entry(self, monkeypatch):
        """Two equal frozensets that are distinct objects read one cached
        entry: the table keys a set by its value, not its identity."""
        model = ProductModel.of([depth_fan(3, F(1, 2))])
        table = products.FactorSets(model, 0)
        calls = []
        kernel = products._local_diams

        def counted(model, axes, alive):
            calls.append(alive)
            return kernel(model, axes, alive)

        monkeypatch.setattr(products, "_local_diams", counted)
        G = frozenset(range(len(model.norms[0])))
        H = frozenset(list(G))
        assert G == H and G is not H
        assert table.level_sets(G) is table.level_sets(H)
        assert calls == [G]

    def test_one_lam_per_distinct_factor_set(self, monkeypatch):
        """On three depth-8 chains every (factor, set) that the staircase
        reads gets one `_local_diams` call, and the sets are those the
        staircase without a table reads."""
        chain = depth_fan(8, F(1, 2))
        factors = [(F(1), chain)] * 3
        eps_q = F(1, 2)
        model = ProductModel.of([chain] * 3)
        terms = [tuple(frozenset(range(len(norms))) for norms in model.norms)]
        read = set()
        while terms:
            read.update((i, G) for term in terms for i, G in enumerate(term))
            terms = reference_derive_terms(model, terms, eps_q)
        calls = []
        kernel = products._local_diams

        def counted(model, axes, alive):
            calls.append((*axes, alive))
            return kernel(model, axes, alive)

        monkeypatch.setattr(products, "_local_diams", counted)
        assert product_sz(factors, eps_q) == sz_product_set(model.tuples(), model, eps_q)
        assert len(calls) == len(set(calls)) == len(read)
        assert set(calls) == read


def scan_reach_q(x, alive, pts):
    """max over alive y in prod_i C(x_i) of dist^q(x, y), by scanning the
    whole product cluster of x (each C(x_i) by the oracle's predicate; `pts`
    from `oracle_points`)."""
    clusters = [
        [k for k, y in enumerate(pts[i]) if oracle_in_cluster(pts[i][j], y)]
        for i, j in enumerate(x)
    ]
    best = F(0)
    for y in itertools.product(*clusters):
        if y in alive:
            d = sum((oracle_dist_q(pts[i][a], pts[i][b]) for i, (a, b) in enumerate(zip(x, y))), F(0))
            best = max(best, d)
    return best


def draw_subset(data, model):
    """An arbitrary subset of the product (not a union of terms), of a
    product whose two-copy model the oracle can scan."""
    everything = sorted(model.tuples())
    assume(model.count(everything) <= 150)
    keep = data.draw(
        st.lists(st.booleans(), min_size=len(everything), max_size=len(everything)),
        label="keep",
    )
    return frozenset(x for x, k in zip(everything, keep) if k)


def ancestors(parent, j):
    """j and its ancestors in one factor's cluster forest."""
    out = [j]
    while parent[j] != j:
        j = parent[j]
        out.append(j)
    return out


def closure(model, alive):
    """The least closed set holding `alive`, the product kernel's domain:
    with each point, every tuple of ancestors-or-selves of its positions
    (the `pointmodel` docstring's closure argument)."""
    return frozenset(
        y
        for x in alive
        for y in itertools.product(*(ancestors(p, j) for p, j in zip(model.parents, x)))
    )


def draw_eps_q(data, model, alive):
    """Small fractions, or a threshold at an attained 2 * distance^q (which
    tests the strict inequality)."""
    norms = {model.norm_q(x) for x in alive}
    gaps = sorted({2 * (b - a) for a in norms for b in norms if b > a})
    pick = st.one_of(fracs(max_den=4), st.sampled_from(gaps)) if gaps else fracs(max_den=4)
    return data.draw(pick, label="eps_q")


class TestScaledBar:
    """floor(eps_q * D), with D the model's common denominator, from an int,
    a Fraction or a string."""

    MODEL = ProductModel.of([Fan(F(1, 3), (), Fan(F(1, 4), (), Sing()))])

    @pytest.mark.parametrize(
        "eps_q, value", [(1, F(1)), (F(5, 7), F(5, 7)), ("7/5", F(7, 5)), (F(1, 24), F(1, 24))]
    )
    def test_floor_of_eps_q_times_d(self, eps_q, value):
        D = self.MODEL.den
        assert D == 12
        assert self.MODEL.scaled_bar(eps_q) == math.floor(value * D)

    @pytest.mark.parametrize("eps_q", [0, -2, F(0), F(-1, 3), "0", "-1/3"])
    def test_non_positive_is_refused(self, eps_q):
        with pytest.raises(InvalidParams, match="^eps_q must be positive$"):
            self.MODEL.scaled_bar(eps_q)


class TestDeriveProductSet:
    """The per-axis cluster max against the oracle's pairwise diameters."""

    @settings(max_examples=200, deadline=None)
    @given(fan_sets(2))
    def test_distance_is_norm_difference(self, K):
        pts = oracle_materialize(K)
        for j, inv in prefix_cluster_map(pts).items():
            for i in inv:
                assert oracle_dist_q(pts[i], pts[j]) == pts[j].norm_q - pts[i].norm_q

    @settings(max_examples=150, deadline=None)
    @given(st.lists(fan_sets(1), min_size=1, max_size=3), st.data())
    def test_matches_oracle_on_mirror_closed_subsets(self, bodies, data):
        """Any subset of the quotient names a mirror-closed subset of the
        two-copy model, the union of its orbits: the oracle derives that
        union, and its survivors fold onto the engine's.  (Without that
        symmetry the local diameter can be less than 2 * reach, and the
        point model does not claim it.)  The product kernel takes the
        closure of a random subset; the rank pass takes the random subset's
        first positions, any set."""
        model = ProductModel.of(bodies)
        some = draw_subset(data, model)
        alive = closure(model, some)
        eps_q = draw_eps_q(data, model, alive)
        got = derive_product_set(alive, model, eps_q)[-1]
        event(f"{len(bodies)} factors, {'some' if got else 'none'} kept")
        orbits = oracle_orbits(bodies, model)
        assert fold_points(orbits, oracle_p_derive(unfold(orbits, alive), eps_q)) == got
        first = frozenset(x[:1] for x in some)
        got = iterate_set(frozenset(j for (j,) in first), model, 0, model.scaled_bar(eps_q), 1)
        want = oracle_derive(frozenset(p for (p,) in unfold(orbits[:1], first)), eps_q)
        assert fold_points(orbits[:1], ((p,) for p in want)) == {(j,) for j in got}

    @settings(max_examples=150, deadline=None)
    @given(st.lists(fan_sets(1), min_size=1, max_size=3), st.data())
    def test_matches_cluster_scan_on_closed_subsets(self, bodies, data):
        """The product kernel on the closure of a random subset, and the
        rank pass on the random subset's first positions, any set."""
        model = ProductModel.of(bodies)
        some = draw_subset(data, model)
        alive = closure(model, some)
        eps_q = draw_eps_q(data, model, alive)
        opoints = oracle_points(bodies, model)
        want = frozenset(x for x in alive if 2 * scan_reach_q(x, alive, opoints) > eps_q)
        event(f"{len(bodies)} factors, {'some' if want else 'none'} kept")
        assert derive_product_set(alive, model, eps_q)[-1] == want
        first = frozenset((x[0],) for x in some)
        want = frozenset(x for (x,) in first if 2 * scan_reach_q((x,), first, opoints) > eps_q)
        assert iterate_set(frozenset(x for (x,) in first), model, 0, model.scaled_bar(eps_q), 1) == want

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.lists(fan_sets(4 - n), min_size=n, max_size=n)
        ),
        fracs(max_den=4),
    )
    def test_two_copy_stages_fold_onto_the_quotient(self, bodies, eps_q):
        """Every stage the oracle derives on its two-copy materialization
        is mirror-closed (the union of the orbits it meets), folds onto the
        engine's stage, and has the engine stage's orbit-weighted size."""
        model = ProductModel.of(bodies)
        assume(model.count(model.tuples()) <= 120)
        orbits = oracle_orbits(bodies, model)
        for i, tails in enumerate(model.tails):
            assert [len(o) for o in orbits[i]] == [1 << t for t in tails]
        alive = model.tuples()
        oalive = frozenset(itertools.product(*map(oracle_materialize, bodies)))
        stages = 0
        while True:
            assert fold_points(orbits, oalive) == alive
            assert unfold(orbits, alive) == oalive
            assert model.count(alive) == len(oalive)
            if not alive:
                break
            alive = derive_product_set(alive, model, eps_q)[-1]
            oalive = oracle_p_derive(oalive, eps_q)
            stages += 1
        event(f"{len(bodies)} factors, {stages} stages")

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_axis_lends_reach(self, n):
        """With one tail step per factor, a point survives eps_q = 1/2 iff
        it sits at the apex on some axis: its reach lies along those axes
        alone."""
        model = ProductModel.of([F1] * n)
        apex = model.norms[0].index(0)
        alive = model.tuples()
        want = frozenset(x for x in alive if apex in x)
        assert derive_product_set(alive, model, F(1, 2))[-1] == want
        orbits = oracle_orbits([F1] * n, model)
        assert fold_points(orbits, oracle_p_derive(unfold(orbits, alive), F(1, 2))) == want


def reference_local_diams(model, factors, axes, alive):
    """The tuple-keyed kernel: the push-to-all kernel on position tuples,
    building head + (z,) + tail for every x whose cluster on the axis holds
    the value's point (`prefix_cluster_map` of the paths of the reference
    walk of `factors`, the model's)."""
    norms = model.norms
    own = {k: sum(norms[a][j] for a, j in zip(axes, k)) for k in alive}
    best = own
    for n, a in enumerate(axes):
        inv = prefix_cluster_map(reference_materialize(factors[a]))
        pushed = {}
        for y, v in best.items():
            head, tail = y[:n], y[n + 1 :]
            for z in inv[y[n]]:
                key = head + (z,) + tail
                if pushed.get(key, -1) < v:
                    pushed[key] = v
        best = pushed
    return {k: 2 * (best[k] - v) for k, v in own.items()}


def code_diams(model, axes, alive):
    """`_local_diams` on the codes of position tuples, keyed back by tuple."""
    strides = _strides(model, axes)
    by_code = {sum(j * s for j, s in zip(x, strides)): x for x in alive}
    assert len(by_code) == len(alive)
    return {by_code[c]: d for c, d in _local_diams(model, axes, by_code).items()}


def unequal_model(bodies):
    """The product model of three factors with at least two point counts,
    small enough for the oracle."""
    model = ProductModel.of(bodies)
    sizes = [len(norms) for norms in model.norms]
    assume(len(set(sizes)) > 1 and model.count(model.tuples()) <= 150)
    return model


class TestIntegerCodeKernel:
    """`_local_diams` on mixed-radix codes against the tuple-keyed kernel
    and against the oracle's pairwise diameters."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(fan_sets(1), min_size=3, max_size=3), fracs(max_den=4))
    def test_every_stage_of_an_unequal_product(self, bodies, eps_q):
        model = unequal_model(bodies)
        D = model.den
        orbits = oracle_orbits(bodies, model)
        axes = range(3)
        alive, stages = model.tuples(), 0
        while alive:
            got = code_diams(model, axes, alive)
            assert got == reference_local_diams(model, bodies, axes, alive)
            pts = unfold(orbits, alive)
            for x, d in got.items():
                px = tuple(o[j][0] for o, j in zip(orbits, x))
                assert d == D * oracle_p_local_diam_q(px, pts)
            alive = derive_product_set(alive, model, eps_q)[-1]
            stages += 1
        event(f"{stages} stages")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(fan_sets(1), min_size=3, max_size=3), st.data())
    def test_closed_subset_of_an_unequal_product(self, bodies, data):
        """Off the mirror-closed stages, on the closure of a random subset,
        the kernel still computes 2 * reach, the tuple-keyed kernel's
        value."""
        model = unequal_model(bodies)
        alive = closure(model, draw_subset(data, model))
        axes = range(3)
        assert code_diams(model, axes, alive) == reference_local_diams(model, bodies, axes, alive)
        # the axes in another order, as a sub-product of two factors
        sub = frozenset((x[2], x[0]) for x in alive)
        assert code_diams(model, (2, 0), sub) == reference_local_diams(model, bodies, (2, 0), sub)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(fan_sets(2), min_size=2, max_size=3), fracs(max_den=4))
    def test_one_axis_on_later_factors(self, bodies, eps_q):
        """One-axis calls on axis i > 0, as `_staircase` makes them: a code
        is the position, at every stage of `derive_set` on that factor."""
        model = ProductModel.of(bodies)
        D = model.den
        orbits = oracle_orbits(bodies, model)
        for i in range(1, len(bodies)):
            assume(sum(1 << t for t in model.tails[i]) <= 60)
            alive = frozenset(range(len(model.norms[i])))
            while alive:
                got = _local_diams(model, (i,), alive)
                want = reference_local_diams(model, bodies, (i,), [(j,) for j in alive])
                assert got == {j: d for (j,), d in want.items()}
                live = frozenset(p for j in alive for p in orbits[i][j])
                for j, d in got.items():
                    assert d == D * oracle_local_diam_q(orbits[i][j][0], live)
                alive = iterate_set(alive, model, i, model.scaled_bar(eps_q), 1)


def codes(model, axes, alive):
    """The codes over `axes` of position tuples indexed by factor."""
    strides = _strides(model, axes)
    return {sum(x[a] * s for a, s in zip(axes, strides)) for x in alive}


class TestForestKernel:
    """`_local_diams` pushes each value one edge up the cluster forest, in
    one pass per axis over a closed set; the push-to-all kernel pushes it to
    every x whose cluster holds it, read off the prefix scan."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.lists(fan_sets(4 - n), min_size=n, max_size=n)
        ),
        st.randoms(use_true_random=False),
        st.sampled_from([1, 2, 3, 5]),
    )
    def test_matches_push_to_all_on_closed_subsets(self, bodies, rnd, sparsity):
        """The closures of random subsets of 1-3 factor products, over all
        axes (in order and reversed) and over one axis at a time: each
        projection of a closed set is closed."""
        model = ProductModel.of(bodies)
        everything = sorted(model.tuples())
        assume(len(everything) <= 4000)
        alive = closure(model, [x for x in everything if rnd.randrange(sparsity) == 0])
        n = len(bodies)
        event(f"{n} factors")
        every = tuple(range(n))
        for axes in (every, every[::-1], *((i,) for i in every)):
            sub = codes(model, axes, alive)
            want = push_to_all_local_diams(model, bodies, axes, sub)
            assert _local_diams(model, axes, sub) == want

    @pytest.mark.parametrize("n, factors", [(40, 1), (8, 2), (4, 3)])
    def test_no_code_is_raised_twice(self, n, factors):
        """One pass per axis, with exactly one parent lookup per code and
        axis and no code created.  On chains of depth n every code has at
        most one child per axis, so a pass raises no code twice."""
        lookups = [0]

        class Counted(tuple):
            def __getitem__(self, y):
                lookups[0] += 1
                return super().__getitem__(y)

        chains = [depth_fan(n, F(1, 2))] * factors
        model = ProductModel.of(chains)
        counted = ProductModel(
            model.den, model.norms, tuple(map(Counted, model.parents)), model.tails
        )
        axes = range(factors)
        alive = codes(model, axes, model.tuples())
        got = _local_diams(counted, axes, alive)
        assert got == push_to_all_local_diams(model, chains, axes, alive)
        assert lookups[0] == factors * len(alive)
        assert got.keys() == alive

    @pytest.mark.parametrize("factors", [1, 2, 3])
    def test_a_set_that_is_not_closed_raises(self, factors):
        """A set that lacks a point's parent on some axis raises KeyError,
        in the kernel and in a derivation, instead of returning values:
        every point but a root alone, and the whole product less its
        root."""
        model = ProductModel.of([depth_fan(3, F(1, 2))] * factors)
        whole = model.tuples()
        root = min(whole)
        axes = range(factors)
        assert set(model.parents[0]) == {0, 1, 2} and root == (0,) * factors
        for alive in [*(frozenset({x}) for x in whole if x != root), whole - {root}]:
            with pytest.raises(KeyError):
                _local_diams(model, axes, codes(model, axes, alive))
            with pytest.raises(KeyError):
                derive_product_set(alive, model, F(1, 2))


class TestDerivationSequence:
    """One call per derivation sequence (one bar, one encoding) against the
    stage loop, one call of the oracle's walk kernel per step
    (`reference_stages`)."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.lists(fan_sets(3 - n), min_size=n, max_size=n)
        ),
        st.data(),
    )
    def test_stages_match_one_call_per_step(self, bodies, data):
        """On the closures of random subsets of 1-3 factor products, with a
        step cap or to the empty stage; and per factor, the ranks
        `derive_set` gives the random subset's positions on that factor, any
        set, against its own one-step calls."""
        model = ProductModel.of(bodies)
        some = draw_subset(data, model)
        alive = closure(model, some)
        eps_q = draw_eps_q(data, model, alive)
        m = data.draw(st.one_of(st.none(), st.integers(0, 4)), label="m")
        want = reference_stages(alive, model, eps_q, m)
        event(f"{len(bodies)} factors, {len(want) - 1} steps")
        assert derive_product_set(alive, model, eps_q, m) == want
        if m is None:
            assert sz_product_set(alive, model, eps_q) == max(len(want) - 1, 1)
        else:
            assert iterate_product_set(alive, model, eps_q, m) == want[-1]
        bar = model.scaled_bar(eps_q)
        for i in range(len(bodies)):
            seq = [frozenset(x[i] for x in some)]
            for _ in range(len(seq[0]) if m is None else m):
                if not seq[-1]:
                    break
                seq.append(iterate_set(seq[-1], model, i, bar, 1))
            ranks = derive_set(seq[0], model, i, bar, m)
            assert ranks == {x: sum(x in s for s in seq) for x in seq[0]}


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
        assume(model.count(model.tuples()) <= 400)
        expected = sz_product_set(model.tuples(), model, eps_q)
        whole = frozenset(itertools.product(*map(oracle_materialize, bodies)))
        assert oracle_p_sz(whole, eps_q) == expected
        assert product_sz(factors, eps_q) == expected


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


def reference_sz_int(K, eps_q) -> int:
    """The sz loop `bound_product_derivation` used: derive until empty."""
    memo = DerivationMemo()
    cur, n = K, 0
    while cur is not None:
        cur = derive(cur, eps_q, memo)
        n += 1
    return max(n, 1)


def reference_bound(factors, eps_q, q, m) -> ProductBound:
    """The bound with the verdict from the whole sz of every factor."""
    M = frount_M_qpow(max(diam_q(K) for _, K in factors), eps_q, q, m)
    eps8_q = eps_q / pow_bounds(F(8), q)[1]
    empty = all(reference_sz_int(K, eps8_q) <= m for _, K in factors)
    return ProductBound("empty" if empty else "unknown", M)


CHAINS = st.integers(0, 6).map(lambda d: depth_fan(d, F(1, 2)))


class TestBoundAgainstTheSzLoop:
    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(
            st.tuples(st.just(F(1, 3)), st.one_of(fan_sets(2), CHAINS)),
            min_size=1,
            max_size=3,
        ),
        fracs(),
        st.sampled_from([F(1), F(2), F(3, 2)]),
        st.integers(2, 4),
    )
    def test_matches_the_sz_loop(self, factors, eps_q, q, m):
        """At most m steps per factor give the verdict and M that the full
        sz of every factor gave, also when some factor's sz exceeds m."""
        eps8_q = eps_q / pow_bounds(F(8), q)[1]
        deep = any(reference_sz_int(K, eps8_q) > m for _, K in factors)
        event("some sz > m" if deep else "every sz <= m")
        got = bound_product_derivation(factors, eps_q, q, m)
        assert got == reference_bound(factors, eps_q, q, m)


def reference_bq_cover(factors, l, q):
    """(tuples, scales) of the cover by filtering every tuple of
    1..k_max, with one power per k for the scales."""
    n = len(factors)
    _, root_hi = pow_bounds(F(n), 1 / q)
    _, bound_hi = pow_bounds(l + root_hi, q)
    k_max = l
    while pow_bounds(F(k_max + 1), q)[0] <= bound_hi:
        k_max += 1
    lo = [pow_bounds(F(k), q)[0] for k in range(1, k_max + 1)]
    D = math.lcm(bound_hi.denominator, *(v.denominator for v in lo))
    cap = bound_hi.numerator * (D // bound_hi.denominator)
    lo_d = [v.numerator * (D // v.denominator) for v in lo]
    tuples = tuple(
        k
        for k, vals in zip(
            itertools.product(range(1, k_max + 1), repeat=n),
            itertools.product(lo_d, repeat=n),
        )
        if sum(vals) <= cap
    )
    scales = tuple(pow_bounds(F(k, l), q)[1] for k in range(1, k_max + 1))
    return tuples, scales


COVER_FACTORS = [F1, depth_fan(2, F(1, 3)), Scale(F(1, 2), F1), Sing()]


class TestBqCover:
    def test_single_factor(self):
        cover = bq_cover([F1], 2, F(1))
        assert cover.runs == (((), 3),)
        assert cover.tuples == ((1,), (2,), (3,))
        assert cover.scales == (F(1, 2), F(1), F(3, 2))
        assert cover.top == 3

    def test_validation(self):
        with pytest.raises(InvalidParams):
            bq_cover([F1], 0, F(1))
        with pytest.raises(InvalidParams):
            bq_cover([], 2, F(1))
        with pytest.raises(InvalidParams):
            bq_cover([F1], 2, F(1, 2))
        with pytest.raises(OutsideExactFragment):
            bq_cover([ProdQ((F1,))], 2, F(1))

    @pytest.mark.parametrize(
        "q, n, l, accepted",
        [
            (F(1), 1, 199_999, True),
            (F(1), 1, 200_000, False),
            (F(1), 2, 445, True),
            (F(1), 2, 446, False),
            (F(2), 2, 446, True),
            (F(2), 2, 447, False),
            (F(2), 3, 57, True),
            (F(3, 2), 2, 446, True),
            (F(3, 2), 2, 447, False),
            (F(3, 2), 3, 57, False),
        ],
    )
    def test_refusal_boundaries(self, q, n, l, accepted):
        """A cover is refused iff k_max^n > ENUMERATION_LIMIT, k_max the
        largest k with lo(k^q) within the bound; the boundaries as measured
        with the search for k_max that the power ladder replaced."""
        if accepted:
            cover = bq_cover([Sing()] * n, l, q)
            assert len(cover.scales) ** n <= products.ENUMERATION_LIMIT
        else:
            with pytest.raises(InvalidParams, match="cover enumeration too large"):
                bq_cover([Sing()] * n, l, q)

    def test_member_basic(self):
        cover = bq_cover([F1], 2, F(1))
        assert bq_member((3,), 4, (True,), cover)
        assert bq_member((1,), 1, (True,), cover)
        assert bq_member((1,), 1, (False,), cover)

    def test_member_false_outside(self):
        cover = bq_cover([F1, F1, F1], 4, F(1))
        assert not bq_member((1, 1, 1), 1, (True, True, True), cover)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 16),
        st.sampled_from([F(1), F(2), F(3), F(3, 2), F(5, 3)]),
    )
    def test_walk_matches_the_tuple_filter(self, n, l, q):
        """The prefix walk gives the filter's tuples in the same order, one
        power per k gives the same scales, and `top` is the largest k of any
        tuple."""
        cover = bq_cover(COVER_FACTORS[:n], l, q)
        tuples, scales = reference_bq_cover(COVER_FACTORS[:n], l, q)
        event(f"{len(tuples)} tuples")
        assert cover.tuples == tuples
        assert cover.scales == scales
        assert cover.top == max(map(max, tuples))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(1, (2000, 400, 40)[n - 1]))
        ),
        st.sampled_from([F(1), F(2), F(3), F(3, 2), F(5, 3), F(7, 4), F(11, 10)]),
    )
    def test_scales_are_one_power_per_k(self, n_l, q):
        """The scales, one ladder with step 1/l, are hi((k/l)^q) from
        `pow_bounds`, one power per k, up to l in the thousands."""
        n, l = n_l
        cover = bq_cover([F1] * n, l, q)
        k_max = len(cover.scales)
        assert k_max >= l
        assert cover.scales == tuple(pow_bounds(F(k, l), q)[1] for k in range(1, k_max + 1))

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

    @pytest.mark.parametrize("q", [F(1), F(2), F(3, 2), F(5, 3)])
    def test_cover_matches_definition(self, q):
        """Every tuple with sum_i lo(k_i^q) <= the outward bound, in
        lexicographic order, each coordinate scaled by hi((k_i/l)^q)."""
        def lo(k):
            return pow_bounds(F(k), q)[0]

        factors = [F1, depth_fan(2, F(1, 3)), Scale(F(1, 2), F1)]
        for n in (1, 2, 3):
            for l in (1, 2, 5):
                cover = bq_cover(factors[:n], l, q)
                bound = pow_bounds(l + pow_bounds(F(n), 1 / q)[1], q)[1]
                k_max = max(k for k in range(1, 4 * l + 4) if lo(k) <= bound)
                tuples = tuple(
                    k for k in itertools.product(range(1, k_max + 1), repeat=n)
                    if sum(lo(ki) for ki in k) <= bound
                )
                assert cover.tuples == tuples
                assert cover.scales == tuple(
                    pow_bounds(F(k, l), q)[1] for k in range(1, k_max + 1)
                )

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
        den = data.draw(st.integers(1, 16), label="den")
        scales = tuple(data.draw(st.integers(0, den), label=f"k{i}") for i in range(n))
        nonzero = tuple(data.draw(st.booleans(), label=f"nz{i}") for i in range(n))
        scan = any(
            all(not nz or F(a, den) <= F(k, l) for a, nz, k in zip(scales, nonzero, ks))
            for ks in cover.tuples
        )
        event(f"covered={scan}")
        assert bq_member(scales, den, nonzero, cover) == scan

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(1, 8),
        st.sampled_from([F(1), F(2), F(3), F(3, 2)]),
        st.data(),
    )
    def test_member_matches_the_reference(self, n, l, q, data):
        """The table of least absorbing scales against the least tuple
        computed per coordinate, on any point: covered or not, and every
        refusal (arity, den < 1, a scale below 0 or above den) with its
        message.  One cover serves several denominators."""
        cover = bq_cover([F1] * n, l, q)
        for _ in range(10):
            den = data.draw(st.integers(1, 16), label="den")
            scale = st.one_of(st.integers(0, den), st.integers(den // 2, den))
            scales = [data.draw(scale, label="k") for _ in range(n)]
            nonzero = [data.draw(st.booleans(), label="nz") for _ in range(n)]
            kind = data.draw(
                st.sampled_from(["point"] * 4 + ["arity", "den", "below", "above"]), label="kind"
            )
            i = data.draw(st.integers(0, n - 1), label="i")
            if kind == "arity":
                (scales if data.draw(st.booleans(), label="which") else nonzero).pop()
            elif kind == "den":
                den = data.draw(st.integers(-2, 0), label="bad den")
            elif kind == "below":
                scales[i] = data.draw(st.integers(-3, -1), label="bad k")
            elif kind == "above":
                scales[i] = den + data.draw(st.integers(1, 3), label="bad k")

            def outcome(member):
                try:
                    return member(tuple(scales), den, tuple(nonzero), cover)
                except InvalidParams as exc:
                    return str(exc)

            want = outcome(reference_bq_member)
            event(f"{want}")
            assert outcome(bq_member) == want

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 12),
        st.sampled_from([F(1), F(2), F(3), F(3, 2), F(5, 3)]),
        st.data(),
    )
    def test_runs_are_the_cover(self, n, l, q, data):
        """The runs' prefixes strictly increase, each run has m >= 1 and
        ends where the filter's cover does (prefix + (m + 1,) is out of it),
        and membership read from the runs' ends agrees with the reference's
        set of the filtered tuples."""
        cover = bq_cover(COVER_FACTORS[:n], l, q)
        tuples = frozenset(reference_bq_cover(COVER_FACTORS[:n], l, q)[0])
        prefixes = [p for p, _ in cover.runs]
        assert all(len(p) == n - 1 for p in prefixes)
        assert all(a < b for a, b in zip(prefixes, prefixes[1:]))
        assert all(m >= 1 for _, m in cover.runs)
        assert all(p + (m,) in tuples and p + (m + 1,) not in tuples for p, m in cover.runs)
        assert sum(m for _, m in cover.runs) == len(tuples)
        den = data.draw(st.integers(1, 16), label="den")
        for _ in range(20):
            scales = tuple(data.draw(st.integers(0, den), label="k") for _ in range(n))
            nonzero = tuple(data.draw(st.booleans(), label="nz") for _ in range(n))
            want = reference_bq_member(scales, den, nonzero, cover)
            event(f"covered={want}")
            assert bq_member(scales, den, nonzero, cover) == want

    def test_member_arity(self):
        cover = bq_cover([F1], 2, F(1))
        with pytest.raises(InvalidParams, match="arity"):
            bq_member((1, 1), 1, (True, True), cover)
        with pytest.raises(InvalidParams, match="arity"):
            bq_member((1,), 1, (True, True), cover)
        for scales, den in [((3,), 2), ((-1,), 2), ((0,), 0)]:
            with pytest.raises(InvalidParams, match=r"\[0, 1\]"):
                bq_member(scales, den, (True,), cover)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(1, 6),
        st.sampled_from([F(1), F(2), F(3)]),
        st.data(),
    )
    def test_ball_points_always_covered(self, n, l, q, data):
        scales = tuple(data.draw(st.integers(0, 8), label=f"k{i}") for i in range(n))
        assume(sum(F(k, 8) ** q for k in scales) <= 1)
        nonzero = tuple(
            data.draw(st.booleans(), label=f"nz{i}") for i in range(n)
        )
        cover = bq_cover([F1] * n, l, q)
        assert bq_member(scales, 8, nonzero, cover)


def walk_terms(factors, eps_q) -> int:
    """Derive the product of the scaled factors step by step until it is
    empty, checking the products module's argument at every step: the
    union of the terms' products is the stage of the exact point-set
    derivation (`reference_stages`), the terms' box count is that stage's
    orbit-weighted size, and every factor set of every term is closed
    (with y it holds every x with y in C(x), which `prefix_cluster_map`
    lists).  Returns the number of steps."""
    pu = derive_product_step(factors, eps_q)
    stages = reference_stages(pu.model.tuples(), pu.model, eps_q)
    invs = [prefix_cluster_map(reference_materialize(scaled(a_q, K))) for a_q, K in factors]
    steps = 1
    while True:
        for term in pu.terms:
            for G, cmap in zip(term, invs):
                assert all(x in G for y in G for x in cmap[y]), "a term's factor set is not closed"
        assert term_points(pu) == stages[steps]
        assert union_count(pu.model, pu.terms) == pu.model.count(stages[steps])
        if pu.is_empty():
            return steps
        pu = product_union_derive(pu, eps_q)
        steps += 1


def eps_at(factors, k: int, den: int) -> F:
    """eps_q at k/den of the largest scaled diameter^q (1/2 when it is 0)."""
    d_q = max(a_q * diam_q(K) for a_q, K in factors)
    return d_q * F(k, den) if d_q else F(1, 2)


class TestChainNesting:
    """The per-term staircases stay exact on the union, step by step."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(fracs(max_num=4, max_den=4), fan_sets(3)), min_size=3, max_size=3),
        st.integers(1, 16),
    )
    def test_no_violation_on_three_depth_three_factors(self, factors, k):
        """Three scaled factors of depth up to 3 (fans, apex unions, scaled
        and disjoint shapes), eps_q at k/16 of the largest scaled diameter,
        walked to the end."""
        model = ProductModel.of([scaled(a_q, K) for a_q, K in factors])
        assume(len(model.tuples()) <= 3000)
        eps_q = eps_at(factors, k, 16)
        sz = walk_terms(factors, eps_q)
        event(f"sz={sz}")
        assert sz == sz_product_set(model.tuples(), model, eps_q)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(fracs(max_num=4, max_den=4), fan_sets(2)), min_size=4, max_size=4),
        st.integers(1, 16),
    )
    def test_no_violation_on_four_depth_two_factors(self, factors, k):
        """Four scaled factors of depth up to 2, at most 2000 orbits."""
        model = ProductModel.of([scaled(a_q, K) for a_q, K in factors])
        assume(len(model.tuples()) <= 2000)
        eps_q = eps_at(factors, k, 16)
        sz = walk_terms(factors, eps_q)
        event(f"sz={sz}")
        assert sz == sz_product_set(model.tuples(), model, eps_q)
