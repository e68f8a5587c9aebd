"""Independent slow-path oracle for derivations on materialized point sets.

Deliberately re-derives everything from first principles with different
mechanics than the engine:

* its own two-copy materializer, `oracle_materialize`, which gives every
  point explicit coordinates: each copy step shifts the copy on a fresh
  axis named by its path, and no two points may share a coordinate set;
* local diameter at x = max pairwise distance among the alive points lying
  in every neighborhood of x (including x itself), rather than the engine's
  2 * max-reach shortcut;
* its own cluster predicate and dict-based distance computation.

`unshared_derive` keeps the engine's filtration as it was before one
derivation sequence shared its nodes: every step rebuilds every node, with
no memo and no interning, as the reference for the shared engine.

`prefix_cluster_map` and `push_to_all_local_diams` keep the point model's
cluster relation and kernel as they were before the kernel walked the
cluster forest: every x whose cluster holds y, found by looking up every
prefix of y's path, and each value pushed to all of them at once, as the
references for `cluster_map`'s forest and the one-edge `_local_diams`.

The engine materializes one point per mirror orbit (every tail step taken
as copy ("t", 0)), carrying only a path and a norm, and its alive sets hold
positions.  `oracle_orbits` groups the oracle's points by the engine
position of their `fold`, `oracle_points` takes the orbit representatives,
and `unfold` and `fold_points` move alive sets between engine positions and
oracle points.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from szlenk.fansets import (
    DisjUnion,
    Fan,
    MalformedFanSet,
    OutsideExactFragment,
    ProdQ,
    Scale,
    Sing,
    UnionApex,
    disj,
    radius_q,
    scaled,
)
from szlenk.pointmodel import _strides


@dataclass(frozen=True)
class OraclePoint:
    path: tuple
    coords: frozenset  # of (axis, value_q) pairs
    norm_q: Fraction


PPoint = tuple[OraclePoint, ...]


def oracle_materialize(F) -> tuple[OraclePoint, ...]:
    """All points of a non-product fan set, two copies per omega-tail, in
    the walk order of the engine's `materialize`."""
    assert not isinstance(F, ProdQ)
    out = []

    def copies(f, path, coords, s):
        w = f.w_q * s
        for i, c in enumerate(f.prefix):
            ax = path + (("p", ("pre", i)),)
            go(c, ax, coords + [(ax, w)], s)
        for j in (0, 1):
            ax = path + (("t", j),)
            go(f.tail, ax, coords + [(ax, w)], s)

    def go(node, path, coords, s):
        if isinstance(node, (Sing, Fan, UnionApex)):
            norm_q = sum((v for _, v in coords), Fraction(0))
            out.append(OraclePoint(path, frozenset(coords), norm_q))
        if isinstance(node, Fan):
            copies(node, path, coords, s)
        elif isinstance(node, UnionApex):
            for i, f in enumerate(node.fans):
                copies(f, path + (("f", ("fan", i)),), coords, s)
        elif isinstance(node, Scale):
            go(node.body, path, coords, s * node.a_q)
        elif isinstance(node, DisjUnion):
            for i, (off, b) in enumerate(node.components):
                if off > 0:
                    ax = path + (("p", ("comp", i)),)
                    go(b, ax, coords + [(ax, off * s)], s)
                else:
                    go(b, path + (("f", ("comp", i)),), coords, s)

    go(F, (), [], Fraction(1))
    assert len({p.coords for p in out}) == len(out), "coordinate collision"
    return tuple(out)


def fold(path: tuple) -> tuple:
    """The path of the representative of a point's mirror orbit: every tail
    step taken as copy ("t", 0)."""
    return tuple(("t", 0) if step[0] == "t" else step for step in path)


def oracle_orbits(factors, model) -> tuple[tuple[tuple[OraclePoint, ...], ...], ...]:
    """Per factor of `model` (the engine's model of `factors`), by position,
    every oracle point whose `fold` is that position's path, the
    representative (the engine's path and norm) first."""
    out = []
    for F, pts in zip(factors, model.factor_points, strict=True):
        at = {p.path: j for j, p in enumerate(pts)}
        assert len(at) == len(pts)
        orbits: list[list[OraclePoint]] = [[] for _ in pts]
        for p in oracle_materialize(F):
            orbits[at[fold(p.path)]].append(p)
        for p, orbit in zip(pts, orbits):
            assert (orbit[0].path, orbit[0].norm_q) == (p.path, p.norm_q)
        out.append(tuple(map(tuple, orbits)))
    return tuple(out)


def oracle_points(factors, model) -> tuple[tuple[OraclePoint, ...], ...]:
    """Per factor of `model`, by position, the oracle's point at the same
    path (the orbit representative)."""
    return tuple(
        tuple(orbit[0] for orbit in orbits) for orbits in oracle_orbits(factors, model)
    )


def unfold(orbits, alive) -> frozenset[PPoint]:
    """Every oracle product point in the orbit of some position tuple of
    `alive` (`orbits` from `oracle_orbits`)."""
    return frozenset(
        y for x in alive for y in itertools.product(*(o[j] for o, j in zip(orbits, x)))
    )


def fold_points(orbits, points) -> frozenset[tuple[int, ...]]:
    """The position tuples of the orbits that oracle product points lie in."""
    at = [{p: j for j, orbit in enumerate(o) for p in orbit} for o in orbits]
    return frozenset(tuple(a[p] for a, p in zip(at, x)) for x in points)


def oracle_dist_q(x: OraclePoint, y: OraclePoint) -> Fraction:
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


def oracle_in_cluster(x, y) -> bool:
    if y.path == x.path:
        return y == x
    n = len(x.path)
    if list(y.path[:n]) != list(x.path):
        return False
    rest = [s for s in y.path[n:] if s[0] != "f"]
    return bool(rest) and rest[0][0] == "t"


def oracle_local_diam_q(
    x: OraclePoint, alive: frozenset[OraclePoint]
) -> Fraction:
    cl = [y for y in alive if oracle_in_cluster(x, y)]
    best = Fraction(0)
    for a, b in itertools.combinations(cl, 2):
        d = oracle_dist_q(a, b)
        if d > best:
            best = d
    return best


def oracle_derive(alive: frozenset[OraclePoint], eps_q: Fraction) -> frozenset[OraclePoint]:
    return frozenset(x for x in alive if oracle_local_diam_q(x, alive) > eps_q)


def oracle_sz(alive: frozenset[OraclePoint], eps_q: Fraction) -> int:
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


# -- the unshared filtration ------------------------------------------------


def unshared_filter_reach(F, t_q: Fraction):
    """The points of F with cluster reach h > t_q, every node built anew."""
    if isinstance(F, Sing):
        return Sing() if 0 > t_q else None
    if isinstance(F, Fan):
        remnants = [(F.w_q, unshared_filter_reach(c, t_q)) for c in F.prefix]
        tail = unshared_filter_reach(F.tail, t_q)
        apex_alive = F.w_q + radius_q(F.tail) > t_q
        if not apex_alive:
            assert tail is None  # reach inside the tail is below the apex reach
            return disj(remnants)
        if tail is not None:
            kept = tuple(r for _, r in remnants if r is not None)
            return Fan(F.w_q, kept, tail)
        return disj([(Fraction(0), Sing())] + remnants)
    if isinstance(F, UnionApex):
        apex_alive = any(f.w_q + radius_q(f.tail) > t_q for f in F.fans)
        cores = []
        leftovers = []
        for f in F.fans:
            tail = unshared_filter_reach(f.tail, t_q)
            remnants = [(f.w_q, unshared_filter_reach(c, t_q)) for c in f.prefix]
            if tail is not None:
                kept = tuple(r for _, r in remnants if r is not None)
                cores.append(Fan(f.w_q, kept, tail))
            else:
                leftovers.extend(remnants)
        if not apex_alive:
            assert not cores
            return disj(leftovers)
        if cores:
            zero = cores[0] if len(cores) == 1 else UnionApex(tuple(cores))
        else:
            zero = Sing()
        return disj([(Fraction(0), zero)] + leftovers)
    if isinstance(F, Scale):
        return scaled(F.a_q, unshared_filter_reach(F.body, t_q / F.a_q))
    if isinstance(F, DisjUnion):
        return disj([(off, unshared_filter_reach(b, t_q)) for off, b in F.components])
    if isinstance(F, ProdQ):
        raise OutsideExactFragment(
            "products derive through the product machinery, not pointwise filtration"
        )
    raise MalformedFanSet(f"not a fan set: {F!r}")


def unshared_derive(F, eps_q: Fraction):
    return unshared_filter_reach(F, Fraction(eps_q) / 2)


# -- the cluster relation in full -------------------------------------------


def prefix_cluster_map(points) -> dict[int, tuple[int, ...]]:
    """By position j: j, then the positions of every x with points[j] in C(x)
    (y is in C(x) iff x's path is a proper prefix of y's and the first
    non-"f" step of y's beyond it is a "t" step).  Paths must be unique."""
    at = {p.path: j for j, p in enumerate(points)}
    assert len(at) == len(points), "prefix_cluster_map needs unique paths"
    out = {}
    for j, y in enumerate(points):
        path, inv, kind = y.path, [j], None
        for k in range(len(path) - 1, -1, -1):
            if path[k][0] != "f":
                kind = path[k][0]
            if kind == "t" and (x := at.get(path[:k])) is not None:
                inv.append(x)
        out[j] = tuple(inv)
    return out


def push_to_all_local_diams(model, axes, alive) -> dict[int, int]:
    """`_local_diams` by pushing each value, one axis at a time, to every
    code whose cluster on that axis holds it (`prefix_cluster_map`), in
    one pass over a copy of the previous axis's values."""
    _, norms = model.scaled_norms
    layout = []
    for a, stride in zip(axes, _strides(model, axes)):
        inv = prefix_cluster_map(model.factor_points[a])
        deltas = [tuple(z - y for z in inv[y][1:]) for y in range(len(inv))]
        layout.append((norms[a], deltas, stride, len(norms[a])))
    own = dict.fromkeys(alive, 0)
    for norm, _, stride, size in layout:
        for c in own:
            own[c] += norm[c // stride % size]
    best = own
    for _, deltas, stride, size in layout:
        pushed = best.copy()
        for c, v in best.items():
            for d in deltas[c // stride % size]:
                k = c + d * stride
                if pushed.get(k, -1) < v:
                    pushed[k] = v
        best = pushed
    return {c: 2 * (best[c] - v) for c, v in own.items()}
