"""The one-factor rank pass (`pointmodel.derive_set`) against the stage loop
it replaced: `reference_ranks` (tests/oracle.py) reads each point's rank off
`reference_stages`, one `derive_product_set` step at a time, so the rank is
the number of stages that hold the point, m + 1 at most."""
from fractions import Fraction

from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracle import reference_ranks
from strategies import fan_sets, fracs
from szlenk.fansets import DisjUnion, Fan, Sing, UnionApex, depth_fan
from szlenk.pointmodel import ProductModel, derive_set

F = Fraction


def eps_qs(model: ProductModel, i: int = 0):
    """Small fractions, or a threshold at an attained 2 * distance^q, where
    the survival test's strict inequality decides."""
    norms = sorted(set(model.norms[i]))
    gaps = sorted({F(2 * (b - a), model.den) for a in norms[:8] for b in norms[-8:] if b > a})
    return st.one_of(fracs(max_den=4), st.sampled_from(gaps)) if gaps else fracs(max_den=4)


def alive_sets(model: ProductModel, i: int = 0):
    """Factor i's whole point set, or a random subset of it that keeps each
    point with probability 1/4, 1/2 or 3/4."""
    points = range(len(model.norms[i]))

    def subset(draw):
        rnd, keep = draw
        return frozenset(x for x in points if rnd.random() < keep)

    some = st.tuples(st.randoms(use_true_random=False), st.sampled_from([0.25, 0.5, 0.75]))
    return st.one_of(st.just(frozenset(points)), some.map(subset))


caps = st.one_of(st.none(), st.integers(0, 4))


@st.composite
def deep_fan_sets(draw, min_depth: int = 100, max_depth: int = 160):
    """Fan sets past depth 100: a chain whose levels have random widths,
    and each level a random prefix, a fan glued at its apex or a component
    at an offset beside it."""
    out = Sing()
    for _ in range(draw(st.integers(min_depth, max_depth), label="depth")):
        w_q = draw(fracs(max_den=4), label="w_q")
        kind = draw(st.sampled_from(["chain", "prefix", "apex", "offset"]))
        if kind == "prefix":
            out = Fan(w_q, (draw(fan_sets(1)),), out)
        elif kind == "apex":
            out = UnionApex((Fan(w_q, (), out), draw(st.builds(Fan, fracs(), st.just(()), fan_sets(1)))))
        elif kind == "offset":
            out = DisjUnion(((F(0), Fan(w_q, (), out)), (draw(fracs()), draw(fan_sets(1)))))
        else:
            out = Fan(w_q, (), out)
    return out


class TestRanksAgainstStageLoop:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(fan_sets), st.data())
    def test_random_subsets_of_random_sets(self, K, data):
        """Random alive subsets of random fan sets of depth 1-4, with no
        step cap or a cap of 0-4 steps."""
        model = ProductModel.of([K])
        alive = data.draw(alive_sets(model), label="alive")
        eps_q = data.draw(eps_qs(model), label="eps_q")
        m = data.draw(caps, label="m")
        want = reference_ranks(alive, model, 0, eps_q, m)
        event(f"largest rank {max(want.values(), default=0)}")
        assert derive_set(alive, model, 0, eps_q, m) == want

    @settings(max_examples=12, deadline=None)
    @given(st.integers(100, 400), fracs(max_den=4), fracs(max_den=4), caps, st.data())
    def test_chains_past_depth_100(self, n, w_q, eps_q, m, data):
        """Chains of depth 100-400, whole or a random subset of them."""
        model = ProductModel.of([depth_fan(n, w_q)])
        alive = data.draw(alive_sets(model), label="alive")
        want = reference_ranks(alive, model, 0, eps_q, m)
        event(f"largest rank {max(want.values(), default=0) // 25 * 25}+")
        assert derive_set(alive, model, 0, eps_q, m) == want

    @settings(max_examples=12, deadline=None)
    @given(deep_fan_sets(), st.data())
    def test_random_sets_past_depth_100(self, K, data):
        """Random fan sets past depth 100, whole or a random subset."""
        model = ProductModel.of([K])
        alive = data.draw(alive_sets(model), label="alive")
        eps_q = data.draw(eps_qs(model), label="eps_q")
        m = data.draw(caps, label="m")
        want = reference_ranks(alive, model, 0, eps_q, m)
        event(f"largest rank {max(want.values(), default=0) // 25 * 25}+")
        assert derive_set(alive, model, 0, eps_q, m) == want

    def test_later_factor_of_a_product(self):
        """Factor i > 0 of a product model: its own positions, norms and
        parents."""
        model = ProductModel.of([Fan(F(1, 2)), depth_fan(5, F(1, 3)), Sing()])
        alive = frozenset(range(len(model.norms[1])))
        ranks = derive_set(alive, model, 1, F(1, 3))
        assert ranks == reference_ranks(alive, model, 1, F(1, 3))
        assert ranks == {j: 6 - j for j in range(6)}
