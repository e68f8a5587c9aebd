"""Containment checks and randomized verification suites.

Two exact set-level checks (`union_lemma_check`, `tvl_check`) compare both
sides of a containment on materialized point sets, and nine seeded suites
generate desk-scale random instances and run the corresponding check or
bound.  Every suite failure is a genuine engine defect: the underlying
containments hold unconditionally on this class of sets.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .calculus import InvalidParams, frount_M_qpow, sigma_qpow
from .exactmath import pow_bounds
from .fansets import (
    DisjUnion,
    Fan,
    FanSet,
    GroupNotFound,
    OutsideExactFragment,
    ProdQ,
    UnionApex,
    derive,
    diam_q,
    project,
    radius_q,
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
    Point,
    ProductModel,
    SetModel,
    cluster_map,
    derive_set,
    iterate_product_set,
    iterate_set,
    product_norm_q,
    restrict_model,
    sz_product_set,
    sz_set,
)
from .products import (
    AEpsGrid,
    BqPoint,
    _as_factor,
    a_eps_grid,
    bound_product_derivation,
    bq_cover,
    bq_member,
    derive_product_step,
)


class UnknownSuite(ValueError):
    """The requested verification suite does not exist."""


def _sz_int(K: FanSet, eps_q: Fraction) -> int:
    cur: Optional[FanSet] = K
    n = 0
    while cur is not None:
        cur = derive(cur, eps_q)
        n += 1
    return max(n, 1)


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
    q: Fraction = Fraction(1),
    mode: str = "auto",
) -> UnionLemmaReport:
    """Exact union containments for the union of the Ks.

    Builds the union (fans glued at a shared apex, or components placed at
    positive offsets) and verifies on materialized points:

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
    if mode == "auto":
        mode = "apex" if all(isinstance(K, Fan) for K in Ks) else "disjoint"
    if mode == "apex":
        if not all(isinstance(K, Fan) for K in Ks):
            raise OutsideExactFragment(
                "an apex-glued union needs Fan pieces (they must share the apex)"
            )
        U: FanSet = UnionApex(tuple(Ks))
        model = SetModel.of(U)
        pieces = [
            frozenset(
                p
                for p in model.points
                if p.path[:1] == (("f", ("fan", i)),) or p.path == ()
            )
            for i in range(n)
        ]
    elif mode == "disjoint":
        U = DisjUnion(tuple((Fraction(i + 1), K) for i, K in enumerate(Ks)))
        model = SetModel.of(U)
        pieces = [
            frozenset(
                p for p in model.points if p.path[:1] == (("p", ("comp", i)),)
            )
            for i in range(n)
        ]
    else:
        raise InvalidParams("mode must be auto, apex, or disjoint")

    cmap = model.cmap
    _, hi2 = pow_bounds(Fraction(2), q)
    half_q = eps_q / hi2
    violations: list[str] = []

    lhs = model.alive()
    rhs = list(pieces)
    half_ok = True
    alphas = 0
    while True:
        covered = frozenset().union(*rhs) if rhs else frozenset()
        escaped = lhs - covered
        if escaped:
            half_ok = False
            violations.append(
                f"stagewise: alpha={alphas}, {len(escaped)} points uncovered"
            )
            break
        if not lhs:
            break
        lhs = derive_set(lhs, cmap, eps_q)
        rhs = [derive_set(r, cmap, half_q) for r in rhs]
        alphas += 1

    lhs2 = iterate_set(model.alive(), cmap, eps_q, m * n)
    rhs2 = frozenset().union(
        *[iterate_set(p, cmap, eps_q, m) for p in pieces]
    )
    mn_ok = lhs2 <= rhs2
    if not mn_ok:
        violations.append(
            f"mn-fold: {len(lhs2 - rhs2)} points uncovered at m={m}, n={n}"
        )

    comp_eq: Optional[bool] = None
    if mode == "disjoint":
        one = derive_set(model.alive(), cmap, eps_q)
        split = frozenset().union(
            *[derive_set(p, cmap, eps_q) for p in pieces]
        )
        comp_eq = one == split
        if not comp_eq:
            violations.append("componentwise: one-step derivation differs")

    return UnionLemmaReport(
        mode, half_ok, mn_ok, comp_eq, alphas, tuple(violations)
    )


# ---------------------------------------------------------------------------
# projection containment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TvlReport:
    checked: int
    filtered: int
    ok: bool
    violations: tuple[str, ...]


_ORIGIN = Point((), frozenset())


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
    violations: list[str] = []

    if isinstance(K, ProdQ):
        sel = sorted(set(groups))
        if not sel or any(not 0 <= g < len(K.factors) for g in sel):
            raise GroupNotFound(
                f"factor indices must be within 0..{len(K.factors) - 1}"
            )
        model = ProductModel.of(K.factors)
        A = iterate_product_set(model.tuples(), model, eps_q, alpha)
        sub = restrict_model(model, sel)
        B = iterate_product_set(sub.tuples(), sub, delta_q, alpha)
        filtered = 0
        for x in A:
            px = tuple(x[i] for i in sel)
            if product_norm_q(px) > rad_q - cut_q:
                filtered += 1
                if px not in B:
                    violations.append(
                        f"survivor with projected norm_q={product_norm_q(px)}"
                        " escapes the projected derivation"
                    )
        return TvlReport(len(A), filtered, not violations, tuple(violations))

    if isinstance(K, DisjUnion):
        sel = sorted(set(groups))
        if not sel or any(not 0 <= g < len(K.components) for g in sel):
            raise GroupNotFound(
                f"component indices must be within 0..{len(K.components) - 1}"
            )
        model = SetModel.of(K)
        keep = set(sel)

        def proj(p: Point) -> Point:
            comp = p.path[0][1][1]
            return p if comp in keep else _ORIGIN

        canon: dict = {}
        for p in model.points:
            img = proj(p)
            cur = canon.get(img.coords)
            if cur is None or len(img.path) < len(cur.path):
                canon[img.coords] = img
        proj_points = list(canon.values())
        pmap = cluster_map(proj_points)
        A = iterate_set(model.alive(), model.cmap, eps_q, alpha)
        B = iterate_set(frozenset(proj_points), pmap, delta_q, alpha)
        b_coords = {p.coords for p in B}
        filtered = 0
        for x in A:
            px = proj(x)
            if px.norm_q() > rad_q - cut_q:
                filtered += 1
                if px.coords not in b_coords:
                    violations.append(
                        f"survivor with projected norm_q={px.norm_q()}"
                        " escapes the projected derivation"
                    )
        return TvlReport(len(A), filtered, not violations, tuple(violations))

    raise GroupNotFound("only products and disjoint unions carry axis groups")


# ---------------------------------------------------------------------------
# suite harness
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


def _collect(suite: str, samples: int, runner) -> SuiteReport:
    cases = []
    for i in range(samples):
        cases.append(runner(i))
    failed = sum(1 for c in cases if not c.passed)
    return SuiteReport(suite, samples, samples - failed, failed, tuple(cases))


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


def _suite_unionlemma1(samples: int, seed: int) -> SuiteReport:
    def run(i: int) -> CaseResult:
        rng = case_rng(seed, i)
        Ks, eps_q, m, n, q, mode = _union_instance(rng)
        rep = union_lemma_check(Ks, eps_q, m, n, q, mode)
        detail = f"mode={mode} n={n} q={q} eps_q={eps_q} alphas={rep.half_alphas}"
        return CaseResult(i, rep.half_ok, detail, "; ".join(rep.violations))

    return _collect("unionlemma1", samples, run)


def _suite_unionlemma2(samples: int, seed: int) -> SuiteReport:
    def run(i: int) -> CaseResult:
        rng = case_rng(seed, i)
        Ks, eps_q, m, n, q, mode = _union_instance(rng)
        rep = union_lemma_check(Ks, eps_q, m, n, q, mode)
        passed = rep.mn_ok and rep.componentwise_equal is not False
        detail = f"mode={mode} n={n} m={m} eps_q={eps_q}"
        return CaseResult(i, passed, detail, "; ".join(rep.violations))

    return _collect("unionlemma2", samples, run)


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


def _factor_filtrations(
    model: ProductModel, factors, iq: int, m: int
) -> Callable[[int, Fraction], frozenset]:
    """Memoized m-fold derivations of each scaled factor at threshold
    (a_i * eps_bar)^q = a_q_i * eps_bar^q; eps_bar = 0 keeps the full set."""
    memo: dict = {}

    def surv(i: int, v: Fraction) -> frozenset:
        key = (i, v)
        if key not in memo:
            full = frozenset(model.factor_points[i])
            if v == 0:
                memo[key] = full
            else:
                t_q = factors[i][0] * v**iq
                memo[key] = iterate_set(full, model.cmaps[i], t_q, m)
        return memo[key]

    return surv


def _covered(x, grid, surv) -> bool:
    return any(
        all(x[i] in surv(i, v) for i, v in enumerate(tup)) for tup in grid
    )


def _suite_techlem1(samples: int, seed: int) -> SuiteReport:
    def run(i: int) -> CaseResult:
        rng = case_rng(seed, i)
        factors, eps, delta, q = _grid_instance(rng)
        iq = int(q)
        eps_q = eps**iq
        pu = derive_product_step(factors, eps_q)
        lhs = pu.points()
        detail = f"n={len(factors)} q={q} eps={eps} lhs={len(lhs)}"
        if not lhs:
            return CaseResult(i, True, detail + " (empty)")
        g = AEpsGrid(
            tuple(a for a, _ in factors),
            tuple(diam_q(K) for _, K in factors),
            eps,
            delta,
            q,
        )
        grid = a_eps_grid(g)
        surv = _factor_filtrations(pu.model, factors, iq, 1)
        bad = [x for x in lhs if not _covered(x, grid, surv)]
        return CaseResult(
            i,
            not bad,
            detail + f" grid={len(grid)}",
            f"{len(bad)} survivors uncovered" if bad else "",
        )

    return _collect("techlem1", samples, run)


def _suite_techlem2(samples: int, seed: int) -> SuiteReport:
    """m-fold product derivation vs. the union over all m-tuples of grid
    columns of products of composed per-factor derivations (each stage may
    use its own grid column; reusing one column for every stage is provably
    too small — a product tuple can outlive its coordinates' solo runs)."""

    def run(i: int) -> CaseResult:
        rng = case_rng(seed, i)
        factors, eps, delta, q = _grid_instance(rng)
        iq = int(q)
        eps_q = eps**iq
        m = rng.randint(1, 3)
        model = ProductModel.of([_as_factor(a, K) for a, K in factors])
        lhs = iterate_product_set(model.tuples(), model, eps_q, m)
        detail = f"n={len(factors)} q={q} m={m} eps={eps} lhs={len(lhs)}"
        if not lhs:
            return CaseResult(i, True, detail + " (empty)")
        g = AEpsGrid(
            tuple(a for a, _ in factors),
            tuple(diam_q(K) for _, K in factors),
            eps,
            delta,
            q,
        )
        grid = a_eps_grid(g)
        memo: dict = {}

        def dstep(fi: int, state: frozenset, v: Fraction) -> frozenset:
            key = (fi, state, v)
            if key not in memo:
                if v == 0:
                    memo[key] = state
                else:
                    t_q = factors[fi][0] * v**iq
                    memo[key] = derive_set(state, model.cmaps[fi], t_q)
            return memo[key]

        states = {tuple(frozenset(p) for p in model.factor_points)}
        for _ in range(m):
            states = {
                tuple(dstep(fi, st[fi], v) for fi, v in enumerate(col))
                for st in states
                for col in grid
            }
        bad = [
            x
            for x in lhs
            if not any(
                all(x[fi] in st[fi] for fi in range(len(x))) for st in states
            )
        ]
        return CaseResult(
            i,
            not bad,
            detail + f" grid={len(grid)} states={len(states)}",
            f"{len(bad)} survivors uncovered" if bad else "",
        )

    return _collect("techlem2", samples, run)


def _suite_techlema(samples: int, seed: int) -> SuiteReport:
    def run(i: int) -> CaseResult:
        rng = case_rng(seed, i)
        factors = rand_factors(rng, max_factors=3, depth=1, sum_cap=Fraction(1))
        q = rand_q(rng)
        eps_q = rand_frac(rng, max_num=2)
        m = rng.randint(2, 3)
        out = bound_product_derivation(factors, eps_q, q, m)
        detail = f"n={len(factors)} q={q} eps_q={eps_q} m={m} -> {out.verdict} M={out.M}"
        if out.verdict != "empty":
            return CaseResult(i, True, detail)
        model = ProductModel.of([_as_factor(a, K) for a, K in factors])
        sz = sz_product_set(model.tuples(), model, eps_q)
        return CaseResult(
            i,
            sz <= out.M,
            detail + f" sz={sz}",
            "" if sz <= out.M else f"exact sz {sz} exceeds M={out.M}",
        )

    return _collect("techlema", samples, run)


def _suite_tvl(samples: int, seed: int) -> SuiteReport:
    def run(i: int) -> CaseResult:
        rng = case_rng(seed, i)
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
        return CaseResult(i, rep.ok, detail, "; ".join(rep.violations[:2]))

    return _collect("tvl", samples, run)


def _suite_postdoc2(samples: int, seed: int) -> SuiteReport:
    def run(i: int) -> CaseResult:
        rng = case_rng(seed, i)
        q = rand_q(rng)
        iq = int(q)
        eps = rand_frac(rng, max_num=2, max_den=4)
        delta = eps * Fraction(rng.randint(1, 7), 8)
        comps = []
        for j in range(rng.randint(2, 3)):
            off = Fraction(0) if j == 0 and rng.random() < 0.5 else rand_frac(rng, max_num=2)
            comps.append((off, rand_fan_set(rng, 2)))
        K = DisjUnion(tuple(comps))
        idx = range(len(comps))
        eta = 0
        for r in range(1, len(comps) + 1):
            for G in itertools.combinations(idx, r):
                sub = project(K, G)
                m = SetModel.of(sub)
                eta = max(eta, sz_set(m.alive(), m.cmap, delta**iq))
        sig = sigma_qpow(radius_q(K), eps, delta, q)
        whole = SetModel.of(K)
        sz = sz_set(whole.alive(), whole.cmap, eps**iq)
        passed = sz <= eta * sig
        detail = (
            f"n={len(comps)} q={q} eps={eps} delta={delta} "
            f"eta={eta} sigma={sig} sz={sz}"
        )
        return CaseResult(
            i,
            passed,
            detail,
            "" if passed else f"sz {sz} exceeds eta*sigma = {eta * sig}",
        )

    return _collect("postdoc2", samples, run)


def _suite_lecondsast(
    samples: int, seed: int, points_per_case: int = 500
) -> SuiteReport:
    def run(i: int) -> CaseResult:
        rng = case_rng(seed, i)
        n = rng.randint(1, 3)
        l = rng.randint(1, 8)
        q = rand_q(rng)
        iq = int(q)
        factors = [rand_fan_set(rng, 1) for _ in range(n)]
        cover = bq_cover(factors, l, q)
        bad = 0
        for _ in range(points_per_case):
            while True:
                scales = tuple(
                    Fraction(rng.randint(0, 16), 16) for _ in range(n)
                )
                if sum(a**iq for a in scales) <= 1:
                    break
            nonzero = tuple(rng.random() < 0.7 for _ in range(n))
            if not bq_member(BqPoint(scales, nonzero), cover):
                bad += 1
        detail = (
            f"n={n} l={l} q={q} cover={len(cover.tuples)} "
            f"points={points_per_case}"
        )
        return CaseResult(
            i, bad == 0, detail, f"{bad} sampled points uncovered" if bad else ""
        )

    return _collect("lecondsast", samples, run)


def _suite_punibound_finite(samples: int, seed: int) -> SuiteReport:
    def run(i: int) -> CaseResult:
        rng = case_rng(seed, i)
        factors = rand_factors(rng, max_factors=3, depth=1, sum_cap=Fraction(1))
        q = rand_q(rng)
        iq = int(q)
        eps_q = rand_frac(rng, max_num=2)
        eps8_q = eps_q / 8**iq
        m = max(2, max(_sz_int(K, eps8_q) for _, K in factors))
        d_q = max(diam_q(K) for _, K in factors)
        M = frount_M_qpow(d_q, eps_q, q, m)
        model = ProductModel.of([_as_factor(a, K) for a, K in factors])
        sz = sz_product_set(model.tuples(), model, eps_q)
        passed = sz <= M
        detail = f"n={len(factors)} q={q} eps_q={eps_q} m={m} M={M} sz={sz}"
        return CaseResult(
            i, passed, detail, "" if passed else f"sz {sz} exceeds M={M}"
        )

    return _collect("punibound_finite", samples, run)


SUITES: dict[str, Callable[[int, int], SuiteReport]] = {
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
    if name not in SUITES:
        raise UnknownSuite(
            f"unknown suite {name!r}; choose from {', '.join(SUITES)}"
        )
    if samples < 1:
        raise InvalidParams("samples must be >= 1")
    return SUITES[name](samples, seed)
