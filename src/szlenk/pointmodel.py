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

Every y in C(x) extends x's coordinates, so dist^q(x, y) = N(y) - N(x)
with N the norm^q: the reach of x is the largest N over its alive cluster,
minus N(x).

Products are tuples of factor points; clusters multiply componentwise and
distances^q add across the disjoint factor groups.  So the largest N over
the product cluster C(x_1) x ... x C(x_n) is a max taken one axis at a
time: each axis pushes every value to the points whose cluster on that
axis holds it (the inverse cluster map).  A derivation step costs
O(n * |product| * max |C^-1|) dict updates on integer norms over one
common denominator, instead of a scan of the whole product cluster of
every alive point.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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

    def __hash__(self) -> int:
        # equal points have equal coords, and a frozenset keeps its hash
        return hash(self.coords)

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

    @cached_property
    def positions(self) -> tuple[dict[Point, int], ...]:
        """Per factor, each point's position in `factor_points`."""
        return tuple({p: j for j, p in enumerate(pts)} for pts in self.factor_points)

    @cached_property
    def inverse_cmaps(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per factor, by position: the positions of the points x with y in
        C(x) (y itself among them)."""
        out = []
        for pos, cmap in zip(self.positions, self.cmaps):
            inv: list[list[int]] = [[] for _ in pos]
            for x, cluster in cmap.items():
                for y in cluster:
                    inv[pos[y]].append(pos[x])
            out.append(tuple(map(tuple, inv)))
        return tuple(out)

    @cached_property
    def scaled_norms(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """A common denominator D of the factor points' norms^q, and per
        factor, by position, each point's norm^q times D (an integer)."""
        norms = [[p.norm_q() for p in pts] for pts in self.factor_points]
        D = math.lcm(*(v.denominator for vs in norms for v in vs))
        return D, tuple(tuple(int(v * D) for v in vs) for vs in norms)


def product_norm_q(x: PPoint) -> Fraction:
    return sum((p.norm_q() for p in x), Fraction(0))


def derive_product_set(
    alive: frozenset[PPoint], model: ProductModel, eps_q: Fraction
) -> frozenset[PPoint]:
    """One exact derivation step on an alive subset of the product.

    With N the norm^q, x survives iff 2 * (max N over alive y in C(x)
    minus N(x)) > eps_q.  The max is pushed one axis at a time: starting
    from N on `alive`, axis i sends each value from y to every point that
    differs from y only in coordinate i, at some z with y_i in C(z),
    keeping the largest value per point; after the last axis each point
    holds the max over its whole product cluster.
    """
    eps_q = Fraction(eps_q)
    D, norms = model.scaled_norms
    pos = model.positions
    keys = {x: tuple(pos[i][p] for i, p in enumerate(x)) for x in alive}
    own = {k: sum(norms[i][j] for i, j in enumerate(k)) for k in keys.values()}
    best = own
    for i, inv in enumerate(model.inverse_cmaps):
        pushed: dict[tuple[int, ...], int] = {}
        for y, v in best.items():
            head, tail = y[:i], y[i + 1 :]
            for z in inv[y[i]]:
                key = head + (z,) + tail
                if pushed.get(key, -1) < v:
                    pushed[key] = v
        best = pushed
    bar = eps_q.numerator * D
    return frozenset(
        x for x, k in keys.items() if 2 * (best[k] - own[k]) * eps_q.denominator > bar
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
