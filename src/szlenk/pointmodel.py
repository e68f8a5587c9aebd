"""Finite point materialization of fan sets.

A fan set's derivation behavior is fully captured by a finite labeled point
set: each omega-repeated tail is materialized as two copies.  Two copies
suffice because every derivation stage is invariant under swapping the two
copies (their geometry is identical), so whenever a cluster is nonempty it
holds both mirror images of each survivor, and the best far pair across two
mirror copies realizes the exact local diameter 2*reach just as infinitely
many copies would.

Points carry

* ``path`` — the structural branch steps with kinds "t" (tail copy:
  cluster-continuing), "p" (prefix copy or positively offset component:
  excludable by a neighborhood), "f" (transparent: a fan selector inside a
  shared apex, or a zero-offset component), and
* ``coords`` — a frozenset of (axis, value_q) pairs, where each copy step
  contributes the copy shift on a fresh axis named by the path prefix.

Two distinct points never share an axis with different values (coordinates
on the common path prefix agree; beyond it the supports are disjoint), so
distance^q is the plain sum over the symmetric difference of coords.

The cluster of x is the set of points present in every w*-neighborhood of
x: those whose path extends x's and whose first non-transparent step beyond
x is a tail step.  The local diameter^q at x inside an alive subset S is
2 * max distance^q from x to its alive cluster — see fansets for why.

Products are tuples of factor points; clusters multiply componentwise and
distances^q add across the disjoint factor groups.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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

Coords = frozenset


@dataclass(frozen=True)
class Point:
    path: tuple
    coords: Coords

    def norm_q(self) -> Fraction:
        return sum((v for _, v in self.coords), Fraction(0))


def dist_q(x: Point, y: Point) -> Fraction:
    """||x - y||^q: the coords they do not share, summed."""
    return sum((v for _, v in x.coords ^ y.coords), Fraction(0))


def in_cluster(x: Point, y: Point) -> bool:
    """Whether y lies in every w*-neighborhood of x (y in C(x)); x in C(x)."""
    px, py = x.path, y.path
    if px == py:
        return x == y
    if len(py) <= len(px) or py[: len(px)] != px:
        return False
    for step in py[len(px):]:
        if step[0] == "f":
            continue
        return step[0] == "t"
    return False


def materialize(F: FanSet) -> tuple[Point, ...]:
    """All points of a non-product fan set, two copies per omega-tail."""
    if isinstance(F, ProdQ):
        raise OutsideExactFragment("materialize products factor by factor")
    out: list[Point] = []

    def emit(path: tuple, coords: list) -> None:
        out.append(Point(path, frozenset(coords)))

    def copies(f: Fan, path: tuple, coords: list, s: Fraction) -> None:
        for i, c in enumerate(f.prefix):
            st = ("p", ("pre", i))
            go(c, path + (st,), coords + [(path + (st,), f.w_q * s)], s)
        for j in (0, 1):
            st = ("t", j)
            go(f.tail, path + (st,), coords + [(path + (st,), f.w_q * s)], s)

    def go(node: FanSet, path: tuple, coords: list, s: Fraction) -> None:
        if isinstance(node, Sing):
            emit(path, coords)
        elif isinstance(node, Fan):
            emit(path, coords)
            copies(node, path, coords, s)
        elif isinstance(node, UnionApex):
            emit(path, coords)
            for i, f in enumerate(node.fans):
                copies(f, path + (("f", ("fan", i)),), coords, s)
        elif isinstance(node, Scale):
            go(node.body, path, coords, s * node.a_q)
        elif isinstance(node, DisjUnion):
            for i, (off, b) in enumerate(node.components):
                if off > 0:
                    st = ("p", ("comp", i))
                    go(b, path + (st,), coords + [(path + (st,), off * s)], s)
                else:
                    go(b, path + (("f", ("comp", i)),), coords, s)
        else:
            raise MalformedFanSet(f"not a fan set: {node!r}")

    go(F, (), [], Fraction(1))
    seen = {p.coords for p in out}
    assert len(seen) == len(out), "materialization produced coordinate collisions"
    return tuple(out)


ClusterMap = dict[Point, tuple[Point, ...]]


def cluster_map(points: Sequence[Point]) -> ClusterMap:
    """For each point, its full cluster within the materialization.

    The cluster relation is purely structural (path-based), so the map for
    any alive subset is obtained by intersecting these tuples with it.
    """
    return {x: tuple(y for y in points if in_cluster(x, y)) for x in points}


def reach_q(x: Point, alive: frozenset[Point], cmap: ClusterMap) -> Fraction:
    best = Fraction(0)
    for y in cmap[x]:
        if y in alive:
            d = dist_q(x, y)
            if d > best:
                best = d
    return best


def derive_set(
    alive: frozenset[Point], cmap: ClusterMap, eps_q: Fraction
) -> frozenset[Point]:
    """One exact derivation step on an alive subset."""
    return frozenset(x for x in alive if 2 * reach_q(x, alive, cmap) > eps_q)


def iterate_set(
    alive: frozenset[Point], cmap: ClusterMap, eps_q: Fraction, m: int
) -> frozenset[Point]:
    for _ in range(m):
        if not alive:
            break
        alive = derive_set(alive, cmap, eps_q)
    return alive


def sz_set(alive: frozenset[Point], cmap: ClusterMap, eps_q: Fraction) -> int:
    """Least m with the m-fold derivation empty (1 for a nonempty dead set)."""
    count = 0
    while alive:
        alive = derive_set(alive, cmap, eps_q)
        count += 1
    return max(count, 1)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

PPoint = tuple[Point, ...]


@dataclass(frozen=True)
class ProductModel:
    """Materialized factors of a product plus their cluster maps."""

    factor_points: tuple[tuple[Point, ...], ...]
    cmaps: tuple[ClusterMap, ...]

    @staticmethod
    def of(factors: Sequence[FanSet]) -> "ProductModel":
        pts = tuple(materialize(f) for f in factors)
        return ProductModel(pts, tuple(cluster_map(p) for p in pts))

    def tuples(self) -> frozenset[PPoint]:
        return frozenset(itertools.product(*self.factor_points))


def product_norm_q(x: PPoint) -> Fraction:
    return sum((p.norm_q() for p in x), Fraction(0))


def product_reach_q(
    x: PPoint, alive: frozenset[PPoint], model: ProductModel
) -> Fraction:
    """max over alive y in C(x) of dist^q(x, y); clusters multiply."""
    best = Fraction(0)
    for y in itertools.product(*(model.cmaps[i][x[i]] for i in range(len(x)))):
        if y in alive:
            d = sum((dist_q(a, b) for a, b in zip(x, y)), Fraction(0))
            if d > best:
                best = d
    return best


def derive_product_set(
    alive: frozenset[PPoint], model: ProductModel, eps_q: Fraction
) -> frozenset[PPoint]:
    return frozenset(
        x for x in alive if 2 * product_reach_q(x, alive, model) > eps_q
    )


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
    count = 0
    while alive:
        alive = derive_product_set(alive, model, eps_q)
        count += 1
    return max(count, 1)


def restrict_model(model: ProductModel, keep: Sequence[int]) -> ProductModel:
    sel = tuple(sorted(set(keep)))
    return ProductModel(
        tuple(model.factor_points[i] for i in sel),
        tuple(model.cmaps[i] for i in sel),
    )


# ---------------------------------------------------------------------------
# single-set convenience wrappers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SetModel:
    points: tuple[Point, ...]
    cmap: ClusterMap  # type: ignore[type-arg]

    @staticmethod
    def of(F: FanSet) -> "SetModel":
        pts = materialize(F)
        return SetModel(pts, cluster_map(pts))

    def alive(self) -> frozenset[Point]:
        return frozenset(self.points)


def model_sz(F: FanSet, eps_q: Fraction) -> int:
    m = SetModel.of(F)
    return sz_set(m.alive(), m.cmap, eps_q)
