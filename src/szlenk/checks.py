"""Containment checks and randomized verification suites.

Two exact set-level checks (`union_lemma_check`, `tvl_check`) compare both
sides of a containment on materialized point sets, and nine seeded suites
generate desk-scale random instances and run the corresponding check or
bound.  Every suite failure is a genuine engine defect: the underlying
containments hold unconditionally on this class of sets.
"""
from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .calculus import InvalidParams, frount_M_qpow, sigma_qpow
from .exactmath import pow_bounds
from . import fansets, pointmodel
from .fansets import (
    DisjUnion,
    Fan,
    FanSet,
    GroupNotFound,
    OutsideExactFragment,
    ProdQ,
    UnionApex,
    diam_q,
    radius_q,
    sz_eps,
)
from .generators import (
    case_rng,
    rand_fan,
    rand_fan_set,
    rand_factors,
    rand_frac,
    rand_q,
)
from .pointmodel import (
    ProductModel,
    count_points,
    derive_set,
    iterate_product_set,
    iterate_set,
    sz_product_set,
)
from .products import (
    AEpsGrid,
    _as_factor,
    a_eps_grid,
    a_eps_minimal,
    bound_product_derivation,
    bq_cover,
    bq_member,
    derive_product_step,
    union_count,
)


# No check derives a fan set itself (`sz_eps` does), and none builds a
# projected cluster forest; these names stay only because the benchmark's
# tracer (perfbench/tracing.py) wraps them here.
derive = fansets.derive
cluster_map = pointmodel.cluster_map


class UnknownSuite(ValueError):
    """The requested verification suite does not exist."""


# ---------------------------------------------------------------------------
# union containments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnionLemmaReport:
    mode: str
    half_ok: bool
    mn_ok: bool
    componentwise_equal: Optional[bool]
    half_alphas: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return (
            self.half_ok
            and self.mn_ok
            and self.componentwise_equal is not False
        )


def union_lemma_check(
    Ks: Sequence[FanSet],
    eps_q: Fraction,
    m: int,
    n: int,
    q: Fraction,
    mode: str,
) -> UnionLemmaReport:
    """Exact union containments for the union of the Ks.

    Builds the union (`mode` "apex": fans glued at a shared apex, or
    "disjoint": components placed at positive offsets) and verifies on
    materialized points:

    * every stage of the eps-derivation of the union is covered by the
      union of the same-stage (eps/2)-derivations of the pieces, where
      (eps/2)^q is realized as eps_q / 2^q (outward-rounded for fractional
      q, which only enlarges the covering side);
    * the (m*n)-fold eps-derivation of the union is covered by the union
      of the m-fold eps-derivations of the pieces;
    * for offset unions, one derivation step distributes over components
      exactly.
    """
    eps_q, q = Fraction(eps_q), Fraction(q)
    if n != len(Ks) or n < 1:
        raise InvalidParams("n must equal the number of sets")
    if m < 1:
        raise InvalidParams("m must be >= 1")
    if eps_q <= 0:
        raise InvalidParams("eps_q must be positive")
    if q < 1:
        raise InvalidParams("q must be >= 1")
    for K in Ks:
        if isinstance(K, ProdQ):
            raise OutsideExactFragment("union pieces must be non-product sets")
    if mode == "apex":
        if not all(isinstance(K, Fan) for K in Ks):
            raise OutsideExactFragment(
                "an apex-glued union needs Fan pieces (they must share the apex)"
            )
        U: FanSet = UnionApex(tuple(Ks))
        # the shared apex, at position 0, lies in every piece; the points
        # below fan i follow it in one run (the `pointmodel` docstring)
        shared, runs = (0,), [count_points(K) - 1 for K in Ks]
    elif mode == "disjoint":
        U = DisjUnion(tuple((Fraction(i + 1), K) for i, K in enumerate(Ks)))
        shared, runs = (), [count_points(K) for K in Ks]
    else:
        raise InvalidParams("mode must be apex or disjoint")
    model = ProductModel.of([U])
    weights = model.weights[0]
    whole = frozenset(range(len(weights)))
    ends = list(itertools.accumulate(runs, initial=len(shared)))
    pieces = [frozenset((*shared, *range(a, b))) for a, b in zip(ends, ends[1:])]

    def count(positions: Iterable[int]) -> int:
        return sum(map(weights.__getitem__, positions))

    _, hi2 = pow_bounds(Fraction(2), q)
    half_q = eps_q / hi2
    violations: list[str] = []

    # three kinds of derivation sequence, one rank pass each: the union at
    # eps, each piece at eps/2 with ranks capped past the union's last
    # stage, each piece at eps capped past m steps; stage k of a sequence
    # is its points of rank > k
    ranks = derive_set(whole, model, 0, eps_q)
    last = max(ranks.values())
    halves = [derive_set(p, model, 0, half_q, last) for p in pieces]
    fulls = [derive_set(p, model, 0, eps_q, m) for p in pieces]

    def best(seqs: list) -> dict[int, int]:
        """By point, the largest rank over the pieces (0 outside them)."""
        out: dict[int, int] = {}
        for seq in seqs:
            for x, d in seq.items():
                if d > out.get(x, 0):
                    out[x] = d
        return out

    # stage k of the union against the union of the pieces' stages k at
    # eps/2: it escapes at the points with ranks[x] > k >= half[x], so the
    # first escape is at the least half[x] below ranks[x]; with none, the
    # walk reaches the empty stage, `last`
    half = best(halves)
    late = {x: h for x, d in ranks.items() if d > (h := half.get(x, 0))}
    half_ok = not late
    alphas = min(late.values(), default=last)
    if late:
        escaped = (x for x, h in late.items() if ranks[x] > alphas >= h)
        violations.append(f"stagewise: alpha={alphas}, {count(escaped)} points uncovered")

    # the (m*n)-fold derivation of the union against the union of the
    # pieces' m-fold ones
    full = best(fulls)
    uncovered = [x for x, d in ranks.items() if d > m * n and full.get(x, 0) <= m]
    mn_ok = not uncovered
    if not mn_ok:
        violations.append(
            f"mn-fold: {count(uncovered)} points uncovered at m={m}, n={n}"
        )

    comp_eq: Optional[bool] = None
    if mode == "disjoint":
        comp_eq = all((d > 1) == (full.get(x, 0) > 1) for x, d in ranks.items())
        if not comp_eq:
            violations.append("componentwise: one-step derivation differs")

    return UnionLemmaReport(
        mode, half_ok, mn_ok, comp_eq, alphas, tuple(violations)
    )


# ---------------------------------------------------------------------------
# projection containment
# ---------------------------------------------------------------------------


def _component_runs(K: DisjUnion) -> list[range]:
    """The positions of the points below each component of K in K's model:
    one run each (the `pointmodel` docstring)."""
    ends = list(itertools.accumulate((count_points(b) for _, b in K.components), initial=0))
    return [range(a, b) for a, b in zip(ends, ends[1:])]


@dataclass(frozen=True)
class TvlReport:
    checked: int
    filtered: int
    ok: bool
    violations: tuple[str, ...]


def tvl_check(
    K: FanSet,
    groups: Sequence[int],
    eps: Fraction,
    delta: Fraction,
    q: Fraction,
    alpha: int,
) -> TvlReport:
    """Projection membership for deep survivors with nearly full norm.

    Every point of the alpha-fold eps-derivation of K whose projection onto
    the kept axis groups has norm^q exceeding radius_q(K) - ((eps-delta)/2)^q
    must project into the alpha-fold delta-derivation of the projected set.
    Exact, hence restricted to integer q (the threshold needs (eps-delta)^q).
    `checked`, `filtered` and the violations count points of the two-copy
    model: the projection maps a mirror orbit into one, so every member of
    an orbit behaves as its representative, which counts once per member.
    """
    eps, delta, q = Fraction(eps), Fraction(delta), Fraction(q)
    if q.denominator != 1 or q < 1:
        raise InvalidParams("this check needs integer q >= 1")
    if not 0 < delta < eps:
        raise InvalidParams("need 0 < delta < eps")
    if alpha < 0:
        raise InvalidParams("alpha must be >= 0")
    iq = int(q)
    eps_q, delta_q = eps**iq, delta**iq
    cut_q = ((eps - delta) / 2) ** iq
    rad_q = radius_q(K)
    if isinstance(K, ProdQ):
        kind, pool = "factor", K.factors
    elif isinstance(K, DisjUnion):
        kind, pool = "component", K.components
    else:
        raise GroupNotFound("only products and disjoint unions carry axis groups")
    sel = sorted(set(groups))
    if not sel or any(not 0 <= g < len(pool) for g in sel):
        raise GroupNotFound(f"{kind} indices must be within 0..{len(pool) - 1}")

    model = ProductModel.of(K.factors if isinstance(K, ProdQ) else [K])
    A = iterate_product_set(model.tuples(), model, eps_q, alpha)
    if isinstance(K, ProdQ):
        # the projection keeps the selected factors: their sub-model
        sub = ProductModel(
            model.den,
            *(tuple(t[i] for i in sel) for t in (model.norms, model.parents, model.weights)),
        )
        B = iterate_product_set(sub.tuples(), sub, delta_q, alpha)
        norm_q = sub.norm_q

        def proj(x):
            return tuple(x[i] for i in sel)

    else:
        # the kept runs keep their parents (the `pointmodel` docstring), so
        # the projection's derivation is the kept positions' own
        runs = _component_runs(K)
        kept = frozenset(j for i in sel for j in runs[i])
        B = {(j,) for j in iterate_set(kept, model, 0, delta_q, alpha)}
        norm_q = model.norm_q
        # a kept point projects to itself, a dropped one to the origin: the
        # kept point of norm 0 (the root of a kept zero-offset component)
        # if there is one, else an added childless root, here (), of rank 1
        origin = min(((j,) for j in kept if model.norms[0][j] == 0), default=())
        if alpha == 0:
            B.add(())

        def proj(x):
            return x if x[0] in kept else origin

    filtered = 0
    violations: list[str] = []
    # in position order, so the first violations do not depend on how the
    # frozenset iterates
    for x in sorted(A):
        px = proj(x)
        px_q = norm_q(px)
        if px_q > rad_q - cut_q:
            w = model.weight(x)
            filtered += w
            if px not in B:
                violations += [
                    f"survivor with projected norm_q={px_q}"
                    " escapes the projected derivation"
                ] * w
    return TvlReport(model.count(A), filtered, not violations, tuple(violations))


# ---------------------------------------------------------------------------
# suite harness: a suite maps the random.Random of one case to
# (passed, detail[, counterexample]); run_suite builds the report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseResult:
    index: int
    passed: bool
    detail: str
    counterexample: str = ""


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    samples: int
    passed: int
    failed: int
    cases: tuple[CaseResult, ...]

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _union_instance(rng):
    mode = rng.choice(["apex", "disjoint"])
    n = rng.randint(2, 3)
    if mode == "apex":
        Ks: list[FanSet] = [rand_fan(rng, 2) for _ in range(n)]
    else:
        Ks = [rand_fan_set(rng, 2) for _ in range(n)]
    q = rand_q(rng)
    eps_q = rand_frac(rng, max_num=2)
    m = rng.randint(1, 2)
    return Ks, eps_q, m, n, q, mode


def _suite_unionlemma1(rng: random.Random) -> tuple:
    Ks, eps_q, m, n, q, mode = _union_instance(rng)
    rep = union_lemma_check(Ks, eps_q, m, n, q, mode)
    detail = f"mode={mode} n={n} q={q} eps_q={eps_q} alphas={rep.half_alphas}"
    return rep.half_ok, detail, "; ".join(rep.violations)


def _suite_unionlemma2(rng: random.Random) -> tuple:
    Ks, eps_q, m, n, q, mode = _union_instance(rng)
    rep = union_lemma_check(Ks, eps_q, m, n, q, mode)
    passed = rep.mn_ok and rep.componentwise_equal is not False
    detail = f"mode={mode} n={n} m={m} eps_q={eps_q}"
    return passed, detail, "; ".join(rep.violations)


def _grid_instance(rng):
    n = rng.randint(1, 2)
    factors = []
    for _ in range(n):
        a_q = rand_frac(rng, max_num=2, max_den=4)
        factors.append((a_q, rand_fan(rng, 1)))
    q = rand_q(rng)
    dmax = max(diam_q(K) for _, K in factors)
    base = max(dmax, Fraction(1, 4))
    eps = base * Fraction(rng.randint(2, 8), 8)
    delta = eps / 2
    return factors, eps, delta, q


def _grid_steps(
    model: ProductModel, factors, eps: Fraction, delta: Fraction, q: Fraction
):
    """(g, grid, step, full): the A-grid parameters of the factors, their
    grid, the memoized per-factor step (i, state, j) -> one derivation of
    factor i's `state` at threshold (a_i * j * step)^q = a_q_i * (j * step)^q
    (j = 0 keeps the state), and the tuple of full factor states.

    Grid columns hold integer multipliers j_i of the grid step.  The grid
    is up-closed in its box, and derivation is monotone in its threshold,
    so step(i, state, j) shrinks as j grows: whatever some column covers,
    each minimal column below it (`a_eps_minimal`) covers too.
    """
    iq = int(q)
    g = AEpsGrid(
        tuple(a for a, _ in factors),
        tuple(diam_q(K) for _, K in factors),
        eps,
        delta,
        q,
    )
    grid = a_eps_grid(g)
    step_q = g.step**iq

    @functools.cache
    def step(i: int, state: frozenset, j: int) -> frozenset:
        if j == 0:
            return state
        return iterate_set(state, model, i, factors[i][0] * step_q * j**iq, 1)

    return g, grid, step, tuple(frozenset(range(len(n))) for n in model.norms)


def _suite_techlem1(rng: random.Random) -> tuple:
    factors, eps, delta, q = _grid_instance(rng)
    pu = derive_product_step(factors, eps ** int(q))
    lhs = pu.terms
    detail = f"n={len(factors)} q={q} eps={eps} lhs={union_count(pu.model, lhs)}"
    if not lhs:
        return True, detail + " (empty)"
    g, grid, step, full = _grid_steps(pu.model, factors, eps, delta, q)
    covers = [
        tuple(step(i, full[i], j) for i, j in enumerate(col))
        for col in a_eps_minimal(g)
    ]
    # the survivors' weight outside every cover: |L u C| - |C|
    bad = union_count(pu.model, lhs + tuple(covers)) - union_count(pu.model, covers)
    return (
        not bad,
        detail + f" grid={len(grid)}",
        f"{bad} survivors uncovered" if bad else "",
    )


def _column_states(g: AEpsGrid, grid, step, full, m: int) -> set:
    """The factor states after m stages, a stage taking every state through
    every grid column.  Per state, one row of step results per factor over
    the multipliers the grid uses (from the factor's least one to the top:
    the grid is up-closed), indexed by the columns."""
    cols = list(zip(*grid))
    spans = [range(min(c), len(w)) for c, w in zip(cols, g.levels[0])]
    states = {full}
    for _ in range(m):
        nxt: set = set()
        for st in states:
            rows = [
                dict(zip(span, (step(i, st[i], j) for j in span)))
                for i, span in enumerate(spans)
            ]
            nxt.update(zip(*(map(r.__getitem__, c) for r, c in zip(rows, cols))))
        states = nxt
    return states


def _suite_techlem2(rng: random.Random) -> tuple:
    """m-fold product derivation vs. the union over all m-tuples of grid
    columns of products of composed per-factor derivations (each stage may
    use its own grid column; reusing one column for every stage is provably
    too small — a product tuple can outlive its coordinates' solo runs)."""
    factors, eps, delta, q = _grid_instance(rng)
    m = rng.randint(1, 3)
    model = ProductModel.of([_as_factor(a, K) for a, K in factors])
    lhs = iterate_product_set(model.tuples(), model, eps ** int(q), m)
    detail = f"n={len(factors)} q={q} m={m} eps={eps} lhs={model.count(lhs)}"
    if not lhs:
        return True, detail + " (empty)"
    g, grid, step, full = _grid_steps(model, factors, eps, delta, q)
    states = _column_states(g, grid, step, full, m)
    bad = model.count(
        x for x in lhs if not any(all(c in s for c, s in zip(x, st)) for st in states)
    )
    return (
        not bad,
        detail + f" grid={len(grid)} states={len(states)}",
        f"{bad} survivors uncovered" if bad else "",
    )


def _suite_techlema(rng: random.Random) -> tuple:
    factors = rand_factors(rng)
    q = rand_q(rng)
    eps_q = rand_frac(rng, max_num=2)
    m = rng.randint(2, 3)
    out = bound_product_derivation(factors, eps_q, q, m)
    detail = f"n={len(factors)} q={q} eps_q={eps_q} m={m} -> {out.verdict} M={out.M}"
    if out.verdict != "empty":
        return True, detail
    model = ProductModel.of([_as_factor(a, K) for a, K in factors])
    sz = sz_product_set(model.tuples(), model, eps_q)
    return (
        sz <= out.M,
        detail + f" sz={sz}",
        "" if sz <= out.M else f"exact sz {sz} exceeds M={out.M}",
    )


def _suite_tvl(rng: random.Random) -> tuple:
    q = rand_q(rng)
    eps = rand_frac(rng, max_num=2, max_den=4)
    delta = eps * Fraction(rng.randint(1, 3), 4)
    alpha = rng.randint(0, 2)
    if rng.random() < 0.5:
        K: FanSet = ProdQ(tuple(rand_fan_set(rng, 1) for _ in range(2)))
        pool_n = 2
    else:
        comps = []
        for j in range(rng.randint(2, 3)):
            off = Fraction(0) if j == 0 else rand_frac(rng, max_num=2)
            comps.append((off, rand_fan_set(rng, 1)))
        K = DisjUnion(tuple(comps))
        pool_n = len(comps)
    groups = sorted(rng.sample(range(pool_n), rng.randint(1, pool_n)))
    rep = tvl_check(K, groups, eps, delta, q, alpha)
    detail = (
        f"kind={'prod' if isinstance(K, ProdQ) else 'disj'} q={q} "
        f"eps={eps} delta={delta} alpha={alpha} groups={groups} "
        f"checked={rep.checked} filtered={rep.filtered}"
    )
    return rep.ok, detail, "; ".join(rep.violations[:2])


def _postdoc2_instance(rng):
    q = rand_q(rng)
    eps = rand_frac(rng, max_num=2, max_den=4)
    delta = eps * Fraction(rng.randint(1, 7), 8)
    comps = []
    for j in range(rng.randint(2, 3)):
        off = Fraction(0) if j == 0 and rng.random() < 0.5 else rand_frac(rng, max_num=2)
        comps.append((off, rand_fan_set(rng, 2)))
    return DisjUnion(tuple(comps)), q, eps, delta


def _suite_postdoc2(rng: random.Random) -> tuple:
    K, q, eps, delta = _postdoc2_instance(rng)
    iq = int(q)
    model = ProductModel.of([K])
    # a projection onto some components is their runs of positions; the
    # origin it may add is a childless root of rank 1, which never raises
    # the largest rank
    runs = _component_runs(K)
    eta = 0
    for r in range(1, len(runs) + 1):
        for G in itertools.combinations(runs, r):
            kept = frozenset(itertools.chain(*G))
            eta = max(eta, *derive_set(kept, model, 0, delta**iq).values())
    sig = sigma_qpow(radius_q(K), eps, delta, q)
    sz = max(derive_set(frozenset(range(len(model.norms[0]))), model, 0, eps**iq).values())
    passed = sz <= eta * sig
    detail = (
        f"n={len(runs)} q={q} eps={eps} delta={delta} "
        f"eta={eta} sigma={sig} sz={sz}"
    )
    return passed, detail, "" if passed else f"sz {sz} exceeds eta*sigma = {eta * sig}"


_LECONDSAST_POINTS = 500


def _bq_sample(
    rng: random.Random, n: int, powers: Sequence[int]
) -> tuple[list[int], tuple[bool, ...]]:
    """A sample point's scales k_i / 16, as the integers k_i, drawn until
    sum_i k_i^q <= 16^q (that is, sum_i (k_i / 16)^q <= 1), and each x_i
    nonzero with probability 0.7.  `powers[k]` is k^q for k = 0..16.

    Each k_i is drawn as rng.randint(0, 16) draws it.  In CPython,
    randint(0, 16) is randrange(17), and a `random.Random` draws below 17
    by taking getrandbits(5) (17 has 5 bits) and redrawing while the
    result is >= 17, so the accepted value is uniform on 0..16.  Redrawing
    getrandbits(5) the same way consumes the same bits and returns the same
    k_i, without randint's argument handling.  That is CPython's
    implementation, not a documented guarantee:
    `test_bq_sample_draws_as_the_fraction_loop` (tests/test_checks.py)
    compares the draws and the generator state with the randint loop, so
    it holds the equality on whichever Python runs the tests.
    """
    bits, cap = rng.getrandbits, powers[16]
    while True:
        ks = []
        for _ in range(n):
            k = bits(5)
            while k >= 17:
                k = bits(5)
            ks.append(k)
        if sum([powers[k] for k in ks]) <= cap:
            break
    return ks, tuple(rng.random() < 0.7 for _ in range(n))


def _suite_lecondsast(rng: random.Random) -> tuple:
    n = rng.randint(1, 3)
    l = rng.randint(1, 8)
    q = rand_q(rng)
    powers = [k ** int(q) for k in range(17)]
    factors = [rand_fan_set(rng, 1) for _ in range(n)]
    cover = bq_cover(factors, l, q)
    samples = (_bq_sample(rng, n, powers) for _ in range(_LECONDSAST_POINTS))
    bad = sum(1 for ks, nonzero in samples if not bq_member(ks, 16, nonzero, cover))
    detail = (
        f"n={n} l={l} q={q} cover={len(cover.tuples)} "
        f"points={_LECONDSAST_POINTS}"
    )
    return bad == 0, detail, f"{bad} sampled points uncovered" if bad else ""


def _suite_punibound_finite(rng: random.Random) -> tuple:
    factors = rand_factors(rng)
    q = rand_q(rng)
    iq = int(q)
    eps_q = rand_frac(rng, max_num=2)
    eps8_q = eps_q / 8**iq
    m = max(2, max(sz_eps(K, eps8_q).as_int() for _, K in factors))
    d_q = max(diam_q(K) for _, K in factors)
    M = frount_M_qpow(d_q, eps_q, q, m)
    model = ProductModel.of([_as_factor(a, K) for a, K in factors])
    sz = sz_product_set(model.tuples(), model, eps_q)
    passed = sz <= M
    detail = f"n={len(factors)} q={q} eps_q={eps_q} m={m} M={M} sz={sz}"
    return passed, detail, "" if passed else f"sz {sz} exceeds M={M}"


SUITES: dict[str, Callable[[random.Random], tuple]] = {
    "unionlemma1": _suite_unionlemma1,
    "unionlemma2": _suite_unionlemma2,
    "techlem1": _suite_techlem1,
    "techlem2": _suite_techlem2,
    "techlema": _suite_techlema,
    "tvl": _suite_tvl,
    "postdoc2": _suite_postdoc2,
    "lecondsast": _suite_lecondsast,
    "punibound_finite": _suite_punibound_finite,
}


def run_suite(name: str, samples: int, seed: int) -> SuiteReport:
    """Cases 0..samples-1 of a suite, case i drawing from its own generator
    (`case_rng` of the seed and i)."""
    if name not in SUITES:
        raise UnknownSuite(
            f"unknown suite {name!r}; choose from {', '.join(SUITES)}"
        )
    if samples < 1:
        raise InvalidParams("samples must be >= 1")
    cases = tuple(
        CaseResult(i, *SUITES[name](case_rng(seed, i))) for i in range(samples)
    )
    failed = sum(1 for c in cases if not c.passed)
    return SuiteReport(name, samples, samples - failed, failed, cases)
