"""Independent slow-path oracle for derivations on materialized point sets.

Deliberately re-derives everything from first principles with different
mechanics than the engine:

* local diameter at x = max pairwise distance among the alive points lying
  in every neighborhood of x (including x itself), rather than the engine's
  2 * max-reach shortcut;
* its own cluster predicate and dict-based distance computation.

Only shares the Point dataclass (paths + coords are the ground truth both
sides consume).  The engine's alive sets hold position tuples; `as_points`
turns them into the tuples of `Point`s the oracle works on.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from szlenk.pointmodel import Point, ProductModel

PPoint = tuple[Point, ...]


def as_points(model: ProductModel, alive) -> frozenset[PPoint]:
    """The tuples of factor points that an alive set's positions name."""
    return frozenset(
        tuple(pts[j] for pts, j in zip(model.factor_points, x)) for x in alive
    )


def oracle_dist_q(x: Point, y: Point) -> Fraction:
    dx = dict(x.coords)
    dy = dict(y.coords)
    total = Fraction(0)
    for ax, v in dx.items():
        if ax in dy:
            assert dy[ax] == v, "shared axis with conflicting values"
        else:
            total += v
    for ax, v in dy.items():
        if ax not in dx:
            total += v
    return total


def oracle_in_cluster(x: Point, y: Point) -> bool:
    if y.path == x.path:
        return y == x
    n = len(x.path)
    if list(y.path[:n]) != list(x.path):
        return False
    rest = [s for s in y.path[n:] if s[0] != "f"]
    return bool(rest) and rest[0][0] == "t"


def oracle_local_diam_q(
    x: Point, alive: frozenset[Point]
) -> Fraction:
    cl = [y for y in alive if oracle_in_cluster(x, y)]
    best = Fraction(0)
    for a, b in itertools.combinations(cl, 2):
        d = oracle_dist_q(a, b)
        if d > best:
            best = d
    return best


def oracle_derive(alive: frozenset[Point], eps_q: Fraction) -> frozenset[Point]:
    return frozenset(x for x in alive if oracle_local_diam_q(x, alive) > eps_q)


def oracle_sz(alive: frozenset[Point], eps_q: Fraction) -> int:
    count = 0
    while alive:
        alive = oracle_derive(alive, eps_q)
        count += 1
    return max(count, 1)


# -- products ---------------------------------------------------------------


def oracle_pdist_q(x: PPoint, y: PPoint) -> Fraction:
    return sum((oracle_dist_q(a, b) for a, b in zip(x, y)), Fraction(0))


def oracle_p_in_cluster(x: PPoint, y: PPoint) -> bool:
    return all(oracle_in_cluster(a, b) for a, b in zip(x, y))


def oracle_p_local_diam_q(x: PPoint, alive: frozenset[PPoint]) -> Fraction:
    cl = [y for y in alive if oracle_p_in_cluster(x, y)]
    best = Fraction(0)
    for a, b in itertools.combinations(cl, 2):
        d = oracle_pdist_q(a, b)
        if d > best:
            best = d
    return best


def oracle_p_derive(
    alive: frozenset[PPoint], eps_q: Fraction
) -> frozenset[PPoint]:
    return frozenset(
        x for x in alive if oracle_p_local_diam_q(x, alive) > eps_q
    )


def oracle_p_sz(alive: frozenset[PPoint], eps_q: Fraction) -> int:
    count = 0
    while alive:
        alive = oracle_p_derive(alive, eps_q)
        count += 1
    return max(count, 1)
