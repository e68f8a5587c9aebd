"""Finite point materialization of fan sets, and exact derivation on it.

A fan set's derivation behavior is fully captured by a finite labeled point
set, its two-copy model: each omega-repeated tail is materialized as two
mirror copies, and the best far pair across the two copies realizes the
exact local diameter 2*reach just as infinitely many copies would.
Derivation runs on a quotient of that set: one point per mirror orbit.

A point is

* its ``path`` — the structural branch steps with kinds "t" (tail copy:
  cluster-continuing), "p" (prefix copy or positively offset component:
  excludable by a neighborhood), "f" (transparent: a fan selector inside a
  shared apex, or a zero-offset component), and
* its carried ``norm_q`` — N, the norm^q: each copy step (a "t" or "p"
  step) shifts the copy on a fresh axis of its own, so it adds its weight
  to the parent's norm on the way down the walk.

The cluster of x is the set of points present in every w*-neighborhood of
x: those whose path extends x's and whose first non-transparent step beyond
x is a tail step.  The relation is a forest.  Let p, the nearest cluster
parent of y, be the point x != y with y in C(x) whose path is longest.
Then the points whose clusters hold y are y, p, the parent of p and so on
up to a root: C^-1(y) - {y} = C^-1(p).  The relation is transitive (step
1 of the `products` docstring), so C^-1(p) lies in C^-1(y).  Conversely,
let y be in C(x) with x != y, p.  Both paths are prefixes of y's and p's
is the longer, so x's path is a proper prefix of p's.  No point's path
extends another point's path by "f" steps only: `materialize` emits a
point only at `Sing`, `Fan` and `UnionApex` nodes, and below one of them
a path takes a copy step, or a fan selector and then a copy step.  So p's
path takes a non-"f" step beyond x's, which is also y's first non-"f"
step beyond x: a tail step, and p is in C(x).  `checks.tvl_check` reads
a subset of these points, plus an origin at path () when no kept point
has norm 0; that origin is a root and nobody's parent, since a tail step
below it would follow a kept `Fan` point of norm 0 on an all-"f" path.
So `cluster_map` keeps one parent per point, found by one walk back along
its path that stops at the first prefix it looks up with success.
Positions are in pre-order, so p < y.

The orbit argument.  Swapping the two copies of one tail is an isometry of
the two-copy model that maps paths to paths step kind by step kind, so it
keeps the cluster relation and N; every derivation stage of the whole model
is therefore mirror-closed: with a point it holds every image of it under
such swaps.  The orbit of a point with t tail steps on its path has 2^t
members, and exactly one of them, its representative, takes copy ("t", 0)
at every tail step; `materialize` emits only representatives.  Take a
representative x and a mirror-closed alive set S.  Every swap of a tail
below x fixes x and maps C(x) onto itself, so folding an alive y in C(x)
(turning each ("t", 1) into ("t", 0)) gives an alive representative in
C(x) with the same N: the max of N over the alive cluster of x is reached
on a representative.  The local diameter^q at x inside S is
2 * (that max - N(x)): every y in C(x) lies below x in the walk, x plus the
shifts of the copy steps between them, each on an axis x does not use, so
dist^q(x, y) = N(y) - N(x); two points of C(x) differ at most on the axes
below x, so no pair is farther apart than 2 * (max - N(x)); and the mirror
of the farthest y across the first tail step below x is that far from y.
So a point's survival depends only on the representatives of S, and is the
same across its orbit.  Any set of representatives names the mirror-closed
union of their orbits, so the kernel below is exact on every alive subset
of the quotient, and each stage of the quotient is the fold of the
two-copy stage.  The size of a two-copy set is the orbit-weighted count of
its quotient (`ProductModel.count`).  The path and N are all a derivation
reads; tests/oracle.py keeps the two-copy model with explicit coordinates
as the independent slow check.

One model serves sets and products: a set is the one-factor product
``ProductModel.of([F])``, whose points are 1-tuples.  A product point is a
tuple of positions, one per factor, into that factor's `factor_points`;
alive sets, staircase terms and factor states all hold positions, and
`Point` exists only at the boundary (`materialize` builds it,
`cluster_map` reads its path).  Clusters multiply componentwise and
distances^q add across the disjoint factor groups, and a product point's
orbit is the product of its factors' orbits.  So the largest N over
the product cluster C(x_1) x ... x C(x_n) is a max taken one axis at a
time, and on one axis a max over a subtree of that factor's forest.  One
kernel, `_local_diams`, takes it on integer norms over the model's common
denominator: on each axis, every point in decreasing order of its value
walks that value up the forest, one edge at a time, until it meets a
point that holds at least as much, so no point is raised twice and an axis
costs one sort and one push per point (the points a walk creates
included).  It derives subsets of the product (`derive_product_set`, every
axis) and of one factor's points (`derive_set`, one axis), and gives
`products` its per-factor local diameters.  Inside the kernel a point is
one integer, its mixed-radix code sum_n j_n * stride_n (`_strides`), so a
step adds (p - y) * stride to a code instead of building a tuple.
A one-axis code is the position itself, so `derive_set` and the staircase
pass positions straight in; `derive_product_set` encodes its position
tuples once per step and decodes the survivors.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .calculus import InvalidParams
from .fansets import (
    DisjUnion,
    Fan,
    FanSet,
    MalformedFanSet,
    OutsideExactFragment,
    ProdQ,
    Scale,
    Sing,
    UnionApex,
)

@dataclass(frozen=True)
class Point:
    path: tuple
    norm_q: Fraction


def materialize(F: FanSet) -> tuple[Point, ...]:
    """One point per mirror orbit of a non-product fan set: every
    omega-tail is walked once, as its copy ("t", 0)."""
    if isinstance(F, ProdQ):
        raise OutsideExactFragment("materialize products factor by factor")
    out: list[Point] = []

    def copies(f: Fan, path: tuple, norm: Fraction, s: Fraction) -> None:
        w = f.w_q * s
        for i, c in enumerate(f.prefix):
            go(c, path + (("p", ("pre", i)),), norm + w, s)
        go(f.tail, path + (("t", 0),), norm + w, s)

    def go(node: FanSet, path: tuple, norm: Fraction, s: Fraction) -> None:
        if isinstance(node, Sing):
            out.append(Point(path, norm))
        elif isinstance(node, Fan):
            out.append(Point(path, norm))
            copies(node, path, norm, s)
        elif isinstance(node, UnionApex):
            out.append(Point(path, norm))
            for i, f in enumerate(node.fans):
                copies(f, path + (("f", ("fan", i)),), norm, s)
        elif isinstance(node, Scale):
            go(node.body, path, norm, s * node.a_q)
        elif isinstance(node, DisjUnion):
            for i, (off, b) in enumerate(node.components):
                if off > 0:
                    go(b, path + (("p", ("comp", i)),), norm + off * s, s)
                else:
                    go(b, path + (("f", ("comp", i)),), norm, s)
        else:
            raise MalformedFanSet(f"not a fan set: {node!r}")

    go(F, (), Fraction(0), Fraction(1))
    return tuple(out)


# Largest number of tuples a product model (of orbits), a grid or a cover may
# enumerate (InvalidParams beyond).
ENUMERATION_LIMIT = 200_000


def count_points(F: FanSet) -> int:
    """len(materialize(F)), by the same recursion without building points."""
    if isinstance(F, Sing):
        return 1
    if isinstance(F, Fan):
        return 1 + sum(map(count_points, F.prefix)) + count_points(F.tail)
    if isinstance(F, UnionApex):
        return 1 + sum(count_points(f) - 1 for f in F.fans)
    if isinstance(F, Scale):
        return count_points(F.body)
    if isinstance(F, DisjUnion):
        return sum(count_points(b) for _, b in F.components)
    if isinstance(F, ProdQ):
        raise OutsideExactFragment("materialize products factor by factor")
    raise MalformedFanSet(f"not a fan set: {F!r}")


def cluster_map(points: Sequence[Point]) -> dict[int, tuple[int, ...]]:
    """The cluster forest, by position j: (j, p) with p the nearest cluster
    parent of points[j], the x with the longest path such that points[j]
    is in C(x), or (j,) for a root (y is in C(x) iff x's path is a proper
    prefix of y's and the first non-"f" step of y's beyond it is a "t"
    step).  Paths must be unique and positions in pre-order."""
    at = {p.path: j for j, p in enumerate(points)}
    assert len(at) == len(points), "cluster_map needs unique paths"
    out = {}
    for j, y in enumerate(points):
        path, kind, out[j] = y.path, None, (j,)
        for k in range(len(path) - 1, -1, -1):
            if path[k][0] != "f":
                kind = path[k][0]
            if kind == "t" and (x := at.get(path[:k])) is not None:
                assert x < j, "cluster_map needs points in pre-order"
                out[j] = (j, x)
                break
    return out


# a product point: its position in each factor's `factor_points`
PPoint = tuple[int, ...]


@dataclass(frozen=True)
class ProductModel:
    """Materialized factors of a product plus their cluster maps; a set is
    the one-factor product.  Points are orbit representatives, and a count
    of points means the two-copy model's count (`count`)."""

    factor_points: tuple[tuple[Point, ...], ...]
    # per factor, the cluster forest of its points (`cluster_map`)
    cmaps: tuple[dict[int, tuple[int, ...]], ...]

    @staticmethod
    def of(factors: Sequence[FanSet]) -> "ProductModel":
        size = math.prod(count_points(f) for f in factors)
        if size > ENUMERATION_LIMIT:
            raise InvalidParams(
                f"product enumeration too large ({size} orbits, limit {ENUMERATION_LIMIT})"
            )
        pts = tuple(materialize(f) for f in factors)
        return ProductModel(pts, tuple(cluster_map(p) for p in pts))

    def tuples(self) -> frozenset[PPoint]:
        return frozenset(itertools.product(*(range(len(p)) for p in self.factor_points)))

    @cached_property
    def weights(self) -> tuple[tuple[int, ...], ...]:
        """Per factor, by position, the size of the point's mirror orbit:
        2 ** (the number of "t" steps on its path)."""
        return tuple(
            tuple(1 << sum(1 for kind, _ in p.path if kind == "t") for p in pts)
            for pts in self.factor_points
        )

    def weight(self, x: PPoint) -> int:
        """The size of x's mirror orbit: the product of its factors'."""
        return math.prod([w[j] for w, j in zip(self.weights, x)])

    def count(self, alive: Iterable[PPoint]) -> int:
        """The number of two-copy points whose orbits `alive` holds."""
        return sum(map(self.weight, alive))

    def norm_q(self, x: PPoint) -> Fraction:
        return sum((pts[j].norm_q for pts, j in zip(self.factor_points, x)), Fraction(0))

    @cached_property
    def scaled_norms(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """A common denominator D of the factor points' norms^q, and per
        factor, by position, each point's norm^q times D (an integer)."""
        D = math.lcm(*(p.norm_q.denominator for pts in self.factor_points for p in pts))
        return D, tuple(
            tuple(p.norm_q.numerator * (D // p.norm_q.denominator) for p in pts)
            for pts in self.factor_points
        )

    def scaled_bar(self, eps_q: Fraction) -> int:
        """floor(eps_q * D): an integer count of 1/D exceeds eps_q iff it
        exceeds this.  Every derivation turns its threshold into a bar
        here, so a non-positive one (no point would ever die) stops here.
        An int or a Fraction is read as its numerator and denominator;
        anything else goes through Fraction first."""
        if not isinstance(eps_q, (int, Fraction)):
            eps_q = Fraction(eps_q)
        num = eps_q.numerator
        if num <= 0:
            raise InvalidParams("eps_q must be positive")
        return num * self.scaled_norms[0] // eps_q.denominator


def _strides(model: ProductModel, axes: Sequence[int]) -> list[int]:
    """Place values of a mixed-radix code over the factors `axes`: the
    point with position j_n on factor axes[n] has code sum_n j_n * stride_n.
    A one-axis code is the position itself."""
    out, stride = [], 1
    for a in axes:
        out.append(stride)
        stride *= len(model.factor_points[a])
    return out


def _local_diams(
    model: ProductModel, axes: Sequence[int], alive: Iterable[int]
) -> dict[int, int]:
    """D times the local diameter^q of every point of an alive set.

    Each alive point is its code over the factors `axes` (`_strides`); the
    result maps it to 2 * (max N over its alive cluster - its own N),
    with N the norm^q times D: the local diameter inside the union of the
    alive points' mirror orbits (the module docstring's orbit argument).

    The max is taken one axis at a time: starting from N on the alive set,
    on axis a each code, in decreasing order of its value, walks that value
    up the forest, to the code with its position y replaced by the parent
    of y (created when missing), and on, until it meets a code that holds
    at least as much.  A root is its own parent, so a walk ends there.
    Every code present before the walks walks itself, and a created code
    only lies inside a walk that went on past it, so the code a walk stops
    at hands at least as much to its ancestors: afterwards each code holds
    the max over its subtree on axis a.  In that order no code is raised
    twice.  After the last axis each point holds the max over its whole
    product cluster.  On codes a step adds (parent - y) * stride_a.
    """
    _, norms = model.scaled_norms
    layout = [
        (norms[a], model.cmaps[a], stride, len(norms[a]))
        for a, stride in zip(axes, _strides(model, axes))
    ]
    own = dict.fromkeys(alive, 0)
    for norm, _, stride, size in layout:
        for c in own:
            own[c] += norm[c // stride % size]
    best = own.copy()
    get = best.get
    for _, cmap, stride, size in layout:
        for c in sorted(best, key=get, reverse=True):
            v, y = best[c], c // stride % size
            while True:
                p = cmap[y][-1]
                c += (p - y) * stride
                if get(c, -1) >= v:
                    break
                best[c], y = v, p
    return {c: 2 * (best[c] - v) for c, v in own.items()}


def derive_product_set(
    alive: frozenset[PPoint], model: ProductModel, eps_q: Fraction
) -> frozenset[PPoint]:
    """One exact derivation step on an alive subset of the product: x
    survives iff its local diameter^q exceeds eps_q (`_local_diams` on
    every axis)."""
    bar = model.scaled_bar(eps_q)
    axes = range(len(model.factor_points))
    points = list(alive)
    codes = [0] * len(points)
    for n, stride in enumerate(_strides(model, axes)):
        codes = [c + x[n] * stride for c, x in zip(codes, points)]
    by_code = dict(zip(codes, points))
    return frozenset(by_code[c] for c, d in _local_diams(model, axes, by_code).items() if d > bar)


def derive_set(
    alive: frozenset[int], model: ProductModel, i: int, eps_q: Fraction
) -> frozenset[int]:
    """One exact derivation step on a set of factor i's positions."""
    bar = model.scaled_bar(eps_q)
    return frozenset(j for j, d in _local_diams(model, (i,), alive).items() if d > bar)


def iterate_product_set(
    alive: frozenset[PPoint], model: ProductModel, eps_q: Fraction, m: int
) -> frozenset[PPoint]:
    for _ in range(m):
        if not alive:
            break
        alive = derive_product_set(alive, model, eps_q)
    return alive


def sz_product_set(
    alive: frozenset[PPoint], model: ProductModel, eps_q: Fraction
) -> int:
    """Least m with the m-fold derivation empty (1 for a nonempty dead set)."""
    count = 0
    while alive:
        alive = derive_product_set(alive, model, eps_q)
        count += 1
    return max(count, 1)


def model_sz(F: FanSet, eps_q: Fraction) -> int:
    """sz_eps of a non-product fan set on its one-factor model."""
    model = ProductModel.of([F])
    return sz_product_set(model.tuples(), model, eps_q)
