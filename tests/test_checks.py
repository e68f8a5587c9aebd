"""Tests for the containment checks and the verification suites."""
import itertools
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracle
from oracle import (
    project,
    reference_pieces,
    reference_ranks,
    reference_stages,
    reference_union_lemma_check,
)
from strategies import fan_sets, fracs, unions_and_groups
from szlenk import checks
from szlenk.calculus import InvalidParams
from szlenk.checks import (
    SUITES,
    TvlReport,
    UnknownSuite,
    UnionLemmaReport,
    _bq_sample,
    _column_states,
    _grid_instance,
    _grid_steps,
    _union_instance,
    run_suite,
    tvl_check,
    union_lemma_check,
)
from szlenk.fansets import (
    DisjUnion,
    Fan,
    GroupNotFound,
    OutsideExactFragment,
    ProdQ,
    Sing,
    UnionApex,
    depth_fan,
    radius_q,
)
from szlenk.generators import case_rng, rand_frac, rand_q
from szlenk.pointmodel import ProductModel, iterate_set, model_sz
from szlenk.products import (
    BqCover,
    _as_factor,
    a_eps_minimal,
    bq_cover,
    derive_product_step,
    union_count,
)

F = Fraction
F1 = Fan(F(1, 2), (), Sing())


class TestUnionLemmaCheck:
    def test_single_fan_trivial(self):
        rep = union_lemma_check([F1], F(1, 2), m=2, n=1, q=F(1), mode="apex")
        assert rep.mode == "apex"
        assert rep.ok and rep.half_ok and rep.mn_ok
        assert rep.componentwise_equal is None
        assert rep.violations == ()

    def test_two_apex_fans(self):
        rep = union_lemma_check([F1, Fan(F(1, 3), (), Sing())], F(1, 2), 1, 2, F(1), "apex")
        assert rep.mode == "apex"
        assert rep.ok
        assert rep.half_alphas >= 1

    def test_disjoint_components(self):
        rep = union_lemma_check([F1, Sing()], F(1, 2), 1, 2, F(1), "disjoint")
        assert rep.mode == "disjoint"
        assert rep.ok
        assert rep.componentwise_equal is True

    def test_early_stagewise_break_keeps_the_other_sides(self, monkeypatch):
        """The m*n-fold and one-step sides reuse the stagewise walk's
        stages; when the walk stops at its first escape, they still reach
        every stage they need."""
        Ks = [depth_fan(3, F(1, 2)), F1]
        clean = union_lemma_check(Ks, F(1, 2), 2, 2, F(1), "disjoint")
        real = checks.derive_set

        def starved(alive, model, i, bar, m=None):
            # the (eps/2)-side empties after one step (every rank is 1), so
            # stage 1 of the union escapes
            if bar < model.scaled_bar(F(1, 2)):
                return dict.fromkeys(alive, 1)
            return real(alive, model, i, bar, m)

        monkeypatch.setattr(checks, "derive_set", starved)
        rep = union_lemma_check(Ks, F(1, 2), 2, 2, F(1), "disjoint")
        assert clean.ok
        assert rep.half_alphas == 1 and len(rep.violations) == 1
        assert rep.violations[0].startswith("stagewise: alpha=1,")
        assert (rep.mn_ok, rep.componentwise_equal) == (True, True)

    def test_forced_disjoint_mode_for_fans(self):
        rep = union_lemma_check([F1, F1], F(1, 2), 1, 2, F(1), "disjoint")
        assert rep.mode == "disjoint"
        assert rep.ok

    def test_apex_mode_needs_fans(self):
        with pytest.raises(OutsideExactFragment):
            union_lemma_check([F1, Sing()], F(1, 2), 1, 2, F(1), "apex")

    def test_product_member_rejected(self):
        with pytest.raises(OutsideExactFragment):
            union_lemma_check([ProdQ((F1, F1))], F(1, 2), 1, 1, F(1), "disjoint")

    def test_validation(self):
        with pytest.raises(InvalidParams):
            union_lemma_check([F1], F(1, 2), 1, 2, F(1), "apex")
        with pytest.raises(InvalidParams):
            union_lemma_check([F1], F(1, 2), 0, 1, F(1), "apex")
        with pytest.raises(InvalidParams):
            union_lemma_check([F1], F(0), 1, 1, F(1), "apex")
        with pytest.raises(InvalidParams):
            union_lemma_check([F1], F(1, 2), 1, 1, F(1), "sideways")

    def test_report_is_frozen_data(self):
        rep = union_lemma_check([F1], F(1, 2), 1, 1, F(1), "apex")
        assert isinstance(rep, UnionLemmaReport)
        assert rep == union_lemma_check([F1], F(1, 2), 1, 1, F(1), "apex")


_KERNEL = oracle.walk_local_diams


def faulty_local_diams(model, axes, alive):
    """A broken copy of the oracle's walk kernel for the comparisons below:
    a set without position 0 loses every reach, and one with it gets thrice
    its reach.  Points of reach 0 still die, so every sequence still
    empties.  The check reads ranks, so under this kernel it reads them off
    the stage loop (`reference_ranks`), which derives with the walk
    kernel."""
    got = _KERNEL(model, axes, alive)
    return {c: 3 * d if 0 in got else 0 for c, d in got.items()}


def union_cases():
    """Random union instances of both modes: apex-glued fans, or
    components of any shape at positive offsets."""
    fans = st.builds(Fan, fracs(), st.lists(fan_sets(1), max_size=2).map(tuple), fan_sets(1))
    return st.one_of(
        st.tuples(st.just("apex"), st.lists(fans, min_size=1, max_size=3)),
        st.tuples(st.just("disjoint"), st.lists(fan_sets(2), min_size=1, max_size=3)),
    )


class TestUnionAgainstReference:
    """`union_lemma_check` (positions, three rank passes) against the
    tuple-based check that derived one step at a time (tests/oracle.py):
    the whole report, violation strings included, with the real kernel and
    rank pass, and with a broken kernel whose stages give both checks their
    ranks and stages."""

    @settings(max_examples=150, deadline=None)
    @given(
        union_cases(),
        fracs(max_num=2, max_den=4),
        st.integers(1, 3),
        st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 2)]),
        st.booleans(),
    )
    def test_reports_match(self, case, eps_q, m, q, broken):
        """Also the pieces: the runs of positions that the check derives at
        eps/2 and at eps are those the first path step picks."""
        mode, Ks = case
        args = (Ks, eps_q, m, len(Ks), q, mode)
        kernel = faulty_local_diams if broken else _KERNEL
        derived = []
        real = reference_ranks if broken else checks.derive_set

        def spy(alive, model, i, bar, m=None):
            derived.append(alive)
            return real(alive, model, i, bar, m)

        with mock.patch.object(oracle, "walk_local_diams", kernel):
            with mock.patch.object(checks, "derive_set", spy):
                got = union_lemma_check(*args)
            want = reference_union_lemma_check(*args)
        event(f"{mode}, {'broken' if broken else 'real'} kernel, {len(got.violations)} violations")
        U = UnionApex(tuple(Ks)) if mode == "apex" else DisjUnion(
            tuple((Fraction(i + 1), K) for i, K in enumerate(Ks))
        )
        pieces = reference_pieces(U)
        # the union, then each piece at eps/2, then each piece at eps
        assert derived[1:] == pieces + pieces
        assert got == want

    def test_suite_instances_with_a_broken_kernel(self):
        """The suites' own instances (cases 0..199 of seed 1): under the
        broken kernel every kind of violation occurs, and both checks
        report the same."""
        kinds: Counter = Counter()
        with mock.patch.object(oracle, "walk_local_diams", faulty_local_diams), \
                mock.patch.object(checks, "derive_set", reference_ranks):
            for index in range(200):
                args = _union_instance(case_rng(1, index))
                got = union_lemma_check(*args)
                assert got == reference_union_lemma_check(*args), index
                kinds.update(v.split(":")[0] for v in got.violations)
        assert set(kinds) == {"stagewise", "mn-fold", "componentwise"}


class TestTvlCheck:
    def test_product_survivor_projects(self):
        K = ProdQ((F1, F1))
        rep = tvl_check(K, [0], F(1), F(1, 2), F(1), alpha=1)
        assert isinstance(rep, TvlReport)
        assert rep.ok
        assert rep.checked == 1  # only the apex pair survives one step
        assert rep.filtered == 0  # its projection has norm 0

    def test_alpha_zero_full_groups(self):
        K = ProdQ((F1, F1))
        rep = tvl_check(K, [0, 1], F(1), F(1, 2), F(1), alpha=0)
        assert rep.ok
        assert rep.checked == 9  # 3 points per factor
        assert rep.filtered == 4  # the four copy-copy tuples at norm 1

    def test_disjoint_union_case(self):
        K = DisjUnion(((F(0), F1), (F(1), Sing())))
        rep = tvl_check(K, [0], F(1, 2), F(1, 4), F(1), alpha=1)
        assert rep.ok
        assert rep.checked == 1

    def test_disjoint_union_alpha_zero(self):
        K = DisjUnion(((F(0), F1), (F(1), Sing())))
        rep = tvl_check(K, [1], F(1, 2), F(1, 4), F(1), alpha=0)
        assert rep.ok

    def test_counterexample_lists_smallest_positions_first(self, monkeypatch):
        """With the projected derivation B emptied, every filtered survivor
        is a violation, and they are listed in position order: the suite's
        counterexample (the first two) shows the two of smallest position,
        not the first two a frozenset happens to yield."""
        iterate = checks.iterate_product_set
        calls = []

        def a_then_empty(alive, model, eps_q, m):
            calls.append(model)
            return iterate(alive, model, eps_q, m) if len(calls) == 1 else frozenset()

        monkeypatch.setattr(checks, "iterate_product_set", a_then_empty)
        K = ProdQ((Fan(F(1), (Sing(), Sing()), Sing()), Fan(F(1, 2), (Sing(),), Sing())))
        rep = tvl_check(K, [0, 1], F(2), F(1, 2), F(1), alpha=0)
        assert len(calls) == 2
        assert not rep.ok and len(rep.violations) == rep.filtered
        # alpha = 0 keeps every point, and projecting onto both factors is
        # the identity; the cut is radius_q - ((eps - delta) / 2)^q
        model = ProductModel.of(K.factors)
        cut = radius_q(K) - F(3, 4)
        first = [x for x in sorted(model.tuples()) if model.norm_q(x) > cut][:2]
        assert first == [(1, 0), (1, 1)]
        assert [model.weight(x) for x in first] == [1, 1]
        assert rep.violations[:2] == (
            "survivor with projected norm_q=1 escapes the projected derivation",
            "survivor with projected norm_q=3/2 escapes the projected derivation",
        )

    def test_validation(self):
        K = ProdQ((F1, F1))
        with pytest.raises(InvalidParams):
            tvl_check(K, [0], F(1, 2), F(1, 2), F(1), 1)  # delta >= eps
        with pytest.raises(InvalidParams):
            tvl_check(K, [0], F(1), F(1, 2), F(3, 2), 1)  # fractional q
        with pytest.raises(InvalidParams):
            tvl_check(K, [0], F(1), F(1, 2), F(1), -1)
        with pytest.raises(GroupNotFound):
            tvl_check(K, [5], F(1), F(1, 2), F(1), 1)
        with pytest.raises(GroupNotFound):
            tvl_check(K, [], F(1), F(1, 2), F(1), 1)
        with pytest.raises(GroupNotFound):
            tvl_check(F1, [0], F(1), F(1, 2), F(1), 1)


class TestPostdoc2:
    @settings(max_examples=150, deadline=None)
    @given(unions_and_groups(), st.sampled_from([F(1), F(2)]), fracs(max_den=4), st.integers(1, 7))
    def test_eta_is_the_largest_projected_sz(self, case, q, eps, k):
        """The suite takes each subset projection as the kept runs of the
        union's own positions.  Its eta is the largest `model_sz` over the
        models of `project` onto every nonempty subset of the components,
        including zero-offset unions, nested or scaled, that lack the
        origin; its sz is the union's."""
        K = case[0]
        delta = eps * F(k, 8)
        with mock.patch.object(checks, "_postdoc2_instance", lambda rng: (K, q, eps, delta)):
            _, detail, _ = checks._suite_postdoc2(None)
        n = len(K.components)
        eta = max(
            model_sz(project(K, G), delta ** int(q))
            for r in range(1, n + 1)
            for G in itertools.combinations(range(n), r)
        )
        assert f" eta={eta} " in detail
        assert detail.endswith(f" sz={model_sz(K, eps ** int(q))}")


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            run_suite("foo", 5, 1)

    def test_bad_samples(self):
        with pytest.raises(InvalidParams):
            run_suite("tvl", 0, 1)

    def test_suite_names(self):
        assert set(SUITES) == {
            "unionlemma1",
            "unionlemma2",
            "techlem1",
            "techlem2",
            "techlema",
            "tvl",
            "postdoc2",
            "lecondsast",
            "punibound_finite",
        }

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_small_run_all_pass(self, name):
        samples = 6
        rep = run_suite(name, samples, seed=7)
        assert rep.suite == name
        assert rep.samples == samples
        assert rep.passed == samples
        assert rep.failed == 0
        assert rep.ok
        assert len(rep.cases) == samples
        assert [c.index for c in rep.cases] == list(range(samples))

    def test_same_seed_same_report(self):
        a = run_suite("unionlemma1", 4, seed=3)
        b = run_suite("unionlemma1", 4, seed=3)
        assert a == b

    def test_different_seed_changes_details(self):
        a = run_suite("tvl", 5, seed=1)
        b = run_suite("tvl", 5, seed=2)
        assert [c.detail for c in a.cases] != [c.detail for c in b.cases]


class TestGridFastPaths:
    """The suites' fast paths against the slow scans they replace, on the
    suites' own instances (cases 0..99 of seed 1)."""

    def test_techlem1_minimal_columns_cover_as_all_columns(self):
        """Also the suite's box count of the uncovered survivors,
        |L u C| - |C| over the terms L and the minimal columns' boxes C,
        against the weighted scan of the survivors by the exact point-set
        derivation (`reference_stages`)."""
        for index in range(100):
            factors, eps, delta, q = _grid_instance(case_rng(1, index))
            eps_q = eps ** int(q)
            pu = derive_product_step(factors, eps_q)
            model = pu.model
            alive = reference_stages(model.tuples(), model, eps_q, 1)[-1]
            g, grid, step, full = _grid_steps(model, factors, eps, delta, q)

            def boxes(columns):
                return [tuple(step(i, full[i], j) for i, j in enumerate(col)) for col in columns]

            def uncovered(points, columns):
                sets = boxes(columns)
                return [x for x in points if not any(all(c in s for c, s in zip(x, st)) for st in sets)]

            minimal = a_eps_minimal(g)
            # the survivors, as the suite counts them, and every product point
            for points in (alive, model.tuples()):
                assert len(uncovered(points, minimal)) == len(uncovered(points, grid)), index
            C = boxes(minimal)
            got = union_count(model, pu.terms + tuple(C)) - union_count(model, C)
            assert got == model.count(uncovered(alive, minimal)), index
            assert union_count(model, pu.terms) == model.count(alive), index

    def test_techlem2_states_match_the_all_columns_loop(self):
        report = run_suite("techlem2", 100, seed=1)
        for index, case in enumerate(report.cases):
            rng = case_rng(1, index)
            factors, eps, delta, q = _grid_instance(rng)
            m = rng.randint(1, 3)
            model = ProductModel.of([_as_factor(a, K) for a, K in factors])
            g, grid, step, full = _grid_steps(model, factors, eps, delta, q)
            states = {full}
            for _ in range(m):
                states = {
                    tuple(step(i, st[i], j) for i, j in enumerate(col))
                    for st in states
                    for col in grid
                }
            assert _column_states(g, grid, step, full, m) == states, index
            if "(empty)" not in case.detail:
                assert case.detail.endswith(f" states={len(states)}"), index


def _fraction_bq_sample(rng, n, iq):
    """The sampling loop on Fractions: scales k/16, rejected while the sum of
    their q-th powers exceeds 1."""
    while True:
        scales = tuple(Fraction(rng.randint(0, 16), 16) for _ in range(n))
        if sum(a**iq for a in scales) <= 1:
            break
    return scales, tuple(rng.random() < 0.7 for _ in range(n))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("iq", range(1, 7))
def test_bq_sample_draws_as_the_fraction_loop(n, iq):
    """The getrandbits(5) draws of `_bq_sample` against randint(0, 16), on
    the q that `rand_q` draws (1, 2, 3) and beyond: the same points and the
    same generator state after every sample."""
    powers = [k**iq for k in range(17)]
    for index in range(20):
        fast, slow = case_rng(4, index), case_rng(4, index)
        for _ in range(50):
            ks, nonzero = _bq_sample(fast, n, powers)
            assert (tuple(F(k, 16) for k in ks), nonzero) == _fraction_bq_sample(slow, n, iq)
            assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("max_num, max_den", [(8, 16), (2, 16), (4, 16), (2, 4)])
def test_rand_frac_and_rand_q_draw_as_the_fraction_calls(max_num, max_den):
    """The prebuilt Fractions of `rand_frac` and `rand_q` against building
    them from the draws, on the bounds the suites use: the same values and
    the same generator state after every draw, on 20 case streams."""
    for index in range(20):
        fast, slow = case_rng(5, index), case_rng(5, index)
        for _ in range(50):
            got = rand_frac(fast, max_num=max_num, max_den=max_den)
            assert got == Fraction(slow.randint(1, max_num), slow.randint(1, max_den))
            assert type(got) is Fraction and fast.getstate() == slow.getstate()
            assert rand_q(fast) == Fraction(slow.choice([1, 2, 3]))
            assert fast.getstate() == slow.getstate()


def test_grid_step_bars_are_the_scaled_thresholds():
    """`_grid_steps` takes factor i's bar at multiplier j on integers: on
    the techlem1 and techlem2 instances (cases 0..99 of seed 1), every step
    it gives equals the derivation at `scaled_bar` of the Fraction
    threshold a_q_i * (j * step)^q."""
    for index in range(100):
        factors, eps, delta, q = _grid_instance(case_rng(1, index))
        model = ProductModel.of([_as_factor(a, K) for a, K in factors])
        g, _, step, full = _grid_steps(model, factors, eps, delta, q)
        for i, (a_q, _) in enumerate(factors):
            for j in range(1, len(g.levels[0][i])):
                bar = model.scaled_bar(a_q * (j * g.step) ** int(q))
                assert step(i, full[i], j) == iterate_set(full[i], model, i, bar, 1), (index, i, j)


def _cut_cover(cover, cuts) -> BqCover:
    """The cover without every tuple at or above one of the cuts: a
    down-closed sub-cover, its runs lowered or dropped."""
    ends = {
        t[:-1]: t[-1]
        for t in cover.tuples
        if not any(all(a >= b for a, b in zip(t, c)) for c in cuts)
    }
    return BqCover(cover.l, cover.q, cover.n, tuple(ends.items()), cover.scales)


class TestLecondsastGrid:
    """`_bq_grid_covered`, which decides the lecondsast suite without
    drawing, against the sampled loop it stands in for."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 8), st.sampled_from([1, 2, 3]), st.data())
    def test_grid_answer_is_the_exhaustive_scan(self, n, l, iq, data):
        """On whole covers and on down-closed sub-covers, the answer is
        whether the reference lookup covers every 1/16 grid point of the
        ball under every mask of nonzero x_i."""
        cover = bq_cover([F1] * n, l, F(iq))
        cuts = data.draw(st.lists(st.sampled_from(cover.tuples), max_size=3), label="cuts")
        sub = _cut_cover(cover, cuts)
        powers = [k**iq for k in range(17)]
        points = [
            k for k in itertools.product(range(17), repeat=n)
            if sum(powers[x] for x in k) <= powers[16]
        ]
        masks = list(itertools.product((False, True), repeat=n))
        scan = all(oracle.reference_bq_member(k, 16, nz, sub) for k in points for nz in masks)
        event(f"covered={scan}")
        assert checks._bq_grid_covered(sub, powers) == scan

    def test_sampled_loop_gives_the_same_cases(self, monkeypatch):
        """400 cases: with the grid answer forced to no, every case draws
        and counts its 500 points, and the reports are the same."""
        grid = [run_suite("lecondsast", 200, seed) for seed in (1, 2)]
        monkeypatch.setattr(checks, "_bq_grid_covered", lambda cover, powers: False)
        assert [run_suite("lecondsast", 200, seed) for seed in (1, 2)] == grid

    def test_cut_cover_counts_as_the_sampled_loop(self, monkeypatch):
        """With the cover's runs lowered by 1 to 4, the suite's verdict and
        message are those of the Fraction sampling loop, from the
        generator's state after the cover, with the reference lookup.
        Both verdicts occur."""
        seen, cut = {}, 0

        def cut_cover(factors, l, q):
            cover = bq_cover(factors, l, q)
            runs = tuple((p, m - cut) for p, m in cover.runs if m > cut)
            seen["cover"] = BqCover(cover.l, cover.q, cover.n, runs, cover.scales)
            seen["state"] = rng.getstate()
            return seen["cover"]

        monkeypatch.setattr(checks, "bq_cover", cut_cover)
        verdicts = Counter()
        for index in range(60):
            cut, rng = index % 4 + 1, case_rng(5, index)
            passed, _, message = checks._suite_lecondsast(rng)
            cover, slow = seen["cover"], random.Random()
            slow.setstate(seen["state"])
            points = (_fraction_bq_sample(slow, cover.n, int(cover.q)) for _ in range(500))
            bad = sum(
                1 for scales, nz in points
                if not oracle.reference_bq_member(tuple(int(a * 16) for a in scales), 16, nz, cover)
            )
            assert (passed, message) == (bad == 0, f"{bad} sampled points uncovered" if bad else ""), index
            verdicts[passed] += 1
        assert verdicts[True] and verdicts[False]

    def test_a_passing_case_draws_no_sample(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("drew a sample")

        monkeypatch.setattr(checks, "_bq_sample", refuse)
        assert run_suite("lecondsast", 20, seed=1).ok
