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

`reference_radius_q` and `reference_diam_q` keep the measures as they
were before each node measured itself as one integer record: a Fraction
recursion over the children, with no cache, as the reference for
`fansets.radius_q` and `fansets.diam_q`; the unshared filtration reads
them too.

`reference_trace_doc` keeps the trace document as it was before its
snapshots were written as text: each step's set as a document dict, which
the plain JSON encoder renders.

`prefix_cluster_map` and `push_to_all_local_diams` keep the point model's
cluster relation and kernel as they were before the kernel used the
cluster forest: every x whose cluster holds y, found by looking up every
prefix of y's path, and each value pushed to all of them at once, as the
references for the model's forest and the one-edge `_local_diams`.

`walk_local_diams` keeps the kernel as it was before it required a closed
set: each value walks up the forest until it meets as much, creating the
codes it passes, so it is exact on any subset.  It is the kernel of the
stage loop (`reference_stages`), and the one that tests patch to break
the stages on purpose.

The `reference_*` functions at the end keep what the model build, the
derivation sequences, `union_lemma_check` and `bq_member` were before each
became one walk or one call, or lost its paths: a recursive materializer
whose points carry their paths, parents from the paths' prefix scan
(`reference_cluster_map`, also the reference for `tvl_check`'s projected
forest) and weights counted off the paths, one `walk_local_diams` call per
step on any subset (`reference_stages`, the reference for the closed-set
`derive_product_set` and, as `reference_ranks`, for the one-factor ranks
of any subset), a union's pieces read off the first path step, the union
check on position tuples, and the least absorbing tuple computed per
coordinate.

The engine materializes one point per mirror orbit (every tail step taken
as copy ("t", 0)) and keeps no paths; its alive sets hold positions, in
the walk's pre-order.  `oracle_orbits` matches the oracle's orbit
representatives to engine positions by that order and groups the oracle's
points by the representative they `fold` onto, `oracle_points` takes the
representatives, and `unfold` and `fold_points` move alive sets between
engine positions and oracle points.

`project` keeps the symbolic projection onto axis groups, which builds the
projected fan set: the reference for `checks.tvl_check` and the `postdoc2`
suite, which take a projection of a disjoint union as the kept runs of the
union's own positions (with `contains_origin` and `_flat`, which decide
where the origin joins).

`reference_direct_sum_index` keeps the space calculus's evaluator as it was
before compactness came from the summands' results: a second recursive walk,
`reference_is_compact`, decides compactness at every sum level, and the
punibound rule takes one candidate per noncompact summand over a floor of w.

`fundamental_sequence` (with `predecessor`) gives a limit ordinal's
canonical fundamental sequence, the independent reference for the
least-upper-bound tests of `ordinal.sup_affine` and
`ordinal.least_omega_power_above`: whatever lies below a limit lies below
some member of its sequence.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from szlenk.calculus import (
    Atom,
    CSpace,
    DirectSum,
    FiniteSum,
    InvalidParams,
    MalformedExpr,
    ParamFamily,
    SpaceIndex,
    c_space_index,
    family_index_sup,
    profile_total_sup,
)
from szlenk.checks import UnionLemmaReport
from szlenk.documents import SCHEMA_VERSION, fan_node_to_doc
from szlenk.exactmath import pow_bounds
from szlenk.fansets import (
    DisjUnion,
    Fan,
    GroupNotFound,
    MalformedFanSet,
    OutsideExactFragment,
    ProdQ,
    Scale,
    Sing,
    UnionApex,
    disj,
    scaled,
)
from szlenk.ordinal import (
    ONE,
    Ordinal,
    add,
    frac_to_str,
    is_power_of_omega,
    least_omega_power_above,
    mul,
    omega_pow,
)
from szlenk.pointmodel import ProductModel, _strides


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
    every oracle point whose `fold` is the path of the oracle's
    representative at that pre-order position, the representative (with
    the engine's norm) first."""
    out = []
    for F, norms in zip(factors, model.norms, strict=True):
        pts = oracle_materialize(F)
        reps = [p for p in pts if fold(p.path) == p.path]
        assert [p.norm_q * model.den for p in reps] == list(norms)
        at = {p.path: j for j, p in enumerate(reps)}
        orbits: list[list[OraclePoint]] = [[] for _ in reps]
        for p in pts:
            orbits[at[fold(p.path)]].append(p)
        out.append(tuple(map(tuple, orbits)))
    return tuple(out)


def oracle_points(factors, model) -> tuple[tuple[OraclePoint, ...], ...]:
    """Per factor of `model`, by position, the oracle's orbit
    representative at the same pre-order position."""
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


# -- the Fraction measures --------------------------------------------------


def reference_radius_q(F) -> Fraction:
    """max ||x||^q over F, by Fraction recursion with no cache."""
    if isinstance(F, Sing):
        return Fraction(0)
    if isinstance(F, Fan):
        return F.w_q + max(reference_radius_q(c) for c in F.prefix + (F.tail,))
    if isinstance(F, UnionApex):
        return max(reference_radius_q(f) for f in F.fans)
    if isinstance(F, Scale):
        return F.a_q * reference_radius_q(F.body)
    if isinstance(F, ProdQ):
        return sum((reference_radius_q(f) for f in F.factors), Fraction(0))
    if isinstance(F, DisjUnion):
        return max(off + reference_radius_q(b) for off, b in F.components)
    raise MalformedFanSet(f"not a fan set: {F!r}")


def reference_diam_q(F) -> Fraction:
    """max ||x - y||^q over pairs of F, by Fraction recursion with no
    cache: the best cross pair sums the two largest copy radii, the tail
    counted twice."""
    if isinstance(F, Sing):
        return Fraction(0)
    if isinstance(F, Fan):
        radii = sorted(map(reference_radius_q, F.prefix + (F.tail, F.tail)), reverse=True)
        return max(
            [2 * F.w_q + radii[0] + radii[1], *map(reference_diam_q, F.prefix + (F.tail,))]
        )
    if isinstance(F, UnionApex):
        d = max(map(reference_diam_q, F.fans))
        radii = sorted(map(reference_radius_q, F.fans), reverse=True)
        return max(d, radii[0] + radii[1]) if len(radii) > 1 else d
    if isinstance(F, Scale):
        return F.a_q * reference_diam_q(F.body)
    if isinstance(F, ProdQ):
        return sum(map(reference_diam_q, F.factors), Fraction(0))
    if isinstance(F, DisjUnion):
        d = max(reference_diam_q(b) for _, b in F.components)
        radii = sorted((off + reference_radius_q(b) for off, b in F.components), reverse=True)
        return max(d, radii[0] + radii[1]) if len(radii) > 1 else d
    raise MalformedFanSet(f"not a fan set: {F!r}")


def reference_trace_doc(steps, q: Fraction, sz_eps) -> dict:
    """`documents.trace_to_doc` as it was before the snapshots were spliced
    in as text: every step's set as its `fan_node_to_doc` document."""
    return {
        "v": SCHEMA_VERSION,
        "q": frac_to_str(Fraction(q)),
        "steps": [
            {
                "step": k,
                "set": None if s.snapshot is None else fan_node_to_doc(s.snapshot),
                "apexes": s.apex_count,
                "diam_q": frac_to_str(s.diam_q),
            }
            for k, s in enumerate(steps)
        ],
        "sz_eps": sz_eps,
    }


# -- the unshared filtration ------------------------------------------------


def unshared_filter_reach(F, t_q: Fraction):
    """The points of F with cluster reach h > t_q, every node built anew."""
    if isinstance(F, Sing):
        return Sing() if 0 > t_q else None
    if isinstance(F, Fan):
        remnants = [(F.w_q, unshared_filter_reach(c, t_q)) for c in F.prefix]
        tail = unshared_filter_reach(F.tail, t_q)
        apex_alive = F.w_q + reference_radius_q(F.tail) > t_q
        if not apex_alive:
            assert tail is None  # reach inside the tail is below the apex reach
            return disj(remnants)
        if tail is not None:
            kept = tuple(r for _, r in remnants if r is not None)
            return Fan(F.w_q, kept, tail)
        return disj([(Fraction(0), Sing())] + remnants)
    if isinstance(F, UnionApex):
        apex_alive = any(f.w_q + reference_radius_q(f.tail) > t_q for f in F.fans)
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


def push_to_all_local_diams(model, factors, axes, alive) -> dict[int, int]:
    """`_local_diams` by pushing each value, one axis at a time, to every
    code whose cluster on that axis holds it (`prefix_cluster_map` of the
    paths of `reference_materialize`, `factors` being the model's), in one
    pass over a copy of the previous axis's values."""
    norms = model.norms
    layout = []
    for a, stride in zip(axes, _strides(model, axes)):
        inv = prefix_cluster_map(reference_materialize(factors[a]))
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


# -- the point model's replaced implementations -----------------------------


@dataclass(frozen=True)
class PathPoint:
    path: tuple
    norm_q: Fraction


def reference_materialize(F) -> tuple[PathPoint, ...]:
    """The points of `materialize` by two mutually recursive walks (two
    frames per level), each copy adding its fan's width to the parent's
    norm on its own."""
    if isinstance(F, ProdQ):
        raise OutsideExactFragment("materialize products factor by factor")
    out: list[PathPoint] = []

    def copies(f: Fan, path: tuple, norm: Fraction, s: Fraction) -> None:
        w = f.w_q * s
        for i, c in enumerate(f.prefix):
            go(c, path + (("p", ("pre", i)),), norm + w, s)
        go(f.tail, path + (("t", 0),), norm + w, s)

    def go(node, path: tuple, norm: Fraction, s: Fraction) -> None:
        if isinstance(node, Sing):
            out.append(PathPoint(path, norm))
        elif isinstance(node, Fan):
            out.append(PathPoint(path, norm))
            copies(node, path, norm, s)
        elif isinstance(node, UnionApex):
            out.append(PathPoint(path, norm))
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


def reference_cluster_map(points) -> dict[int, tuple[int, ...]]:
    """The cluster forest of a point list, read off the paths: by position
    j, (j, p) with p the nearest cluster parent of points[j], the x with
    the longest path such that points[j] is in C(x), or (j,) for a root (y
    is in C(x) iff x's path is a proper prefix of y's and the first non-"f"
    step of y's beyond it is a "t" step).  Paths must be unique and
    positions in pre-order."""
    at = {p.path: j for j, p in enumerate(points)}
    assert len(at) == len(points), "reference_cluster_map needs unique paths"
    out = {}
    for j, y in enumerate(points):
        path, kind, out[j] = y.path, None, (j,)
        for k in range(len(path) - 1, -1, -1):
            if path[k][0] != "f":
                kind = path[k][0]
            if kind == "t" and (x := at.get(path[:k])) is not None:
                assert x < j, "reference_cluster_map needs points in pre-order"
                out[j] = (j, x)
                break
    return out


def reference_parents(points) -> list[int]:
    """`reference_cluster_map`'s forest as a parent list, a root its own
    parent."""
    cmap = reference_cluster_map(points)
    return [cmap[j][-1] for j in range(len(points))]


def reference_projection(K, groups) -> list[PathPoint]:
    """The points of the projection of a disjoint union onto the components
    `groups` (`project`), picked by the first step of their paths: the kept
    components' points in order, then an origin at path () when a component
    is dropped and no kept point has norm 0."""
    keep = set(groups)
    points = reference_materialize(K)
    out = [p for p in points if p.path[0][1][1] in keep]
    if len(out) < len(points) and all(p.norm_q for p in out):
        out.append(PathPoint((), Fraction(0)))
    return out


def contains_origin(F) -> bool:
    if isinstance(F, Sing):
        return True
    if isinstance(F, (Fan, UnionApex)):
        return True  # the apex
    if isinstance(F, Scale):
        return contains_origin(F.body)
    if isinstance(F, ProdQ):
        return all(contains_origin(f) for f in F.factors)
    if isinstance(F, DisjUnion):
        return any(off == 0 and contains_origin(b) for off, b in F.components)
    raise MalformedFanSet(f"not a fan set: {F!r}")


def _flat(F, a_q: Fraction = Fraction(1)) -> list:
    """The components of the a_q-scaled union F, which lacks the origin,
    with every union at offset 0 merged in: Scale(a, DU((o, b), ...)) is
    DU((a*o, a*b), ...)."""
    while isinstance(F, Scale):
        a_q, F = a_q * F.a_q, F.body
    return [
        c
        for off, b in F.components
        for c in ([(a_q * off, scaled(a_q, b))] if off else _flat(b, a_q))
    ]


def project(F, groups):
    """Project onto the named axis groups (exact on the fan class).

    For a product the groups are factor indices and projection keeps those
    factors.  For a disjoint union the groups are component indices: kept
    components survive unchanged and every dropped component collapses to
    the origin (its support is disjoint from the kept axes).  When the
    kept components lack the origin, a kept union at offset 0 is merged
    into its components before the origin is added.
    """
    sel = sorted(set(groups))
    if isinstance(F, ProdQ):
        n = len(F.factors)
        if not sel or any(not 0 <= g < n for g in sel):
            raise GroupNotFound(f"factor indices must be within 0..{n - 1}")
        kept = [F.factors[g] for g in sel]
        return kept[0] if len(kept) == 1 else ProdQ(tuple(kept))
    if isinstance(F, DisjUnion):
        n = len(F.components)
        if not sel or any(not 0 <= g < n for g in sel):
            raise GroupNotFound(f"component indices must be within 0..{n - 1}")
        comps = [F.components[g] for g in sel]
        if len(sel) < n and not any(off == 0 and contains_origin(b) for off, b in comps):
            # the origin joins at offset 0, where a kept component may sit:
            # a union lacking the origin (nested or scaled), so flatten first
            comps = _flat(DisjUnion(tuple(comps))) + [(Fraction(0), Sing())]
        out = disj(comps)
        assert out is not None
        return out
    raise GroupNotFound("only products and disjoint unions carry axis groups")


def reference_weights(points) -> list[int]:
    """Orbit sizes counted off the paths: 2 ** (the number of "t" steps)."""
    return [1 << sum(1 for kind, _ in p.path if kind == "t") for p in points]


def reference_norms(points_by_factor) -> tuple[int, list[list[int]]]:
    """The least common denominator D of the points' norms^q, and each
    norm^q times D."""
    D = 1
    for pts in points_by_factor:
        for p in pts:
            D = math.lcm(D, p.norm_q.denominator)
    return D, [[int(p.norm_q * D) for p in pts] for pts in points_by_factor]


def walk_local_diams(
    model: ProductModel, axes: Sequence[int], alive: Iterable[int]
) -> dict[int, int]:
    """`pointmodel._local_diams` as it was before it required a closed set,
    exact on any alive set of codes.

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
    layout = [
        (model.norms[a], model.parents[a], stride, len(model.norms[a]))
        for a, stride in zip(axes, _strides(model, axes))
    ]
    norm, _, _, size = layout[0]  # the first axis has stride 1
    own = {c: norm[c % size] for c in alive}
    for norm, _, stride, size in layout[1:]:
        for c in own:
            own[c] += norm[c // stride % size]
    best = own.copy()
    get = best.get
    for _, parent, stride, size in layout:
        for c in sorted(best, key=get, reverse=True):
            v, y = best[c], c // stride % size
            while True:
                p = parent[y]
                c += (p - y) * stride
                if get(c, -1) >= v:
                    break
                best[c], y = v, p
    return {c: 2 * (best[c] - v) for c, v in own.items()}


def reference_stages(alive, model, eps_q, m=None) -> list:
    """alive, any subset of the product, and its derivations, one
    `walk_local_diams` call on every axis per step (each step encoding the
    tuples and taking the bar afresh): m steps, or up to the first empty
    stage (m = None: until then, which takes at most len(alive) steps,
    since every step drops the points of largest N)."""
    axes = tuple(range(len(model.norms)))
    strides = _strides(model, axes)
    stages = [alive]
    for _ in range(len(alive) if m is None else m):
        if not stages[-1]:
            break
        by_code = {sum(j * s for j, s in zip(x, strides)): x for x in stages[-1]}
        bar = model.scaled_bar(eps_q)
        lam = walk_local_diams(model, axes, by_code)
        stages.append(frozenset(by_code[c] for c, d in lam.items() if d > bar))
    return stages


def reference_ranks(alive, model, i, eps_q, m=None) -> dict[int, int]:
    """`pointmodel.derive_set`'s ranks read off the stage loop: by point of
    `alive` (positions of factor i), the number of stages of
    `reference_stages` on factor i alone that hold it, so m + 1 at most."""
    one = ProductModel(model.den, (model.norms[i],), (model.parents[i],), (model.weights[i],))
    stages = reference_stages(frozenset((x,) for x in alive), one, eps_q, m)
    return {x: sum((x,) in s for s in stages) for x in alive}


def reference_pieces(U) -> list[frozenset[int]]:
    """The positions of each piece of a union, by the first step of their
    paths: for a `UnionApex`, the shared apex (path ()) and the points
    below fan i; for a `DisjUnion` of positive offsets, the points below
    component i."""
    points = reference_materialize(U)
    if isinstance(U, UnionApex):
        firsts = [(("f", ("fan", i)),) for i in range(len(U.fans))]
        shared = {()}
    else:
        firsts = [(("p", ("comp", i)),) for i in range(len(U.components))]
        shared = set()
    return [
        frozenset(j for j, p in enumerate(points) if p.path[:1] == first or p.path in shared)
        for first in firsts
    ]


def reference_union_lemma_check(Ks, eps_q, m, n, q, mode):
    """`checks.union_lemma_check` on position tuples, deriving one step at
    a time in lockstep: the union at eps and the pieces at eps/2 while the
    stagewise walk lasts, the union on to the m*n-th stage, and each piece
    once and then m - 1 more times."""
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
        U = UnionApex(tuple(Ks))
    elif mode == "disjoint":
        U = DisjUnion(tuple((Fraction(i + 1), K) for i, K in enumerate(Ks)))
    else:
        raise InvalidParams("mode must be apex or disjoint")
    model = ProductModel.of([U])
    whole = model.tuples()
    pieces = [frozenset((j,) for j in piece) for piece in reference_pieces(U)]

    def iterate(alive, e, k):
        return reference_stages(alive, model, e, k)[-1]

    _, hi2 = pow_bounds(Fraction(2), q)
    half_q = eps_q / hi2
    violations = []
    stages = [whole]
    rhs = list(pieces)
    half_ok = True
    alphas = 0
    while True:
        lhs = stages[-1]
        escaped = lhs - frozenset().union(*rhs)
        if escaped:
            half_ok = False
            violations.append(f"stagewise: alpha={alphas}, {model.count(escaped)} points uncovered")
            break
        if not lhs:
            break
        stages.append(iterate(lhs, eps_q, 1))
        rhs = [iterate(r, half_q, 1) for r in rhs]
        alphas += 1
    while len(stages) <= m * n and stages[-1]:
        stages.append(iterate(stages[-1], eps_q, 1))
    lhs2 = stages[min(m * n, len(stages) - 1)]
    firsts = [iterate(p, eps_q, 1) for p in pieces]
    rhs2 = frozenset().union(*[iterate(f, eps_q, m - 1) for f in firsts])
    mn_ok = lhs2 <= rhs2
    if not mn_ok:
        violations.append(f"mn-fold: {model.count(lhs2 - rhs2)} points uncovered at m={m}, n={n}")
    comp_eq = None
    if mode == "disjoint":
        comp_eq = stages[min(1, len(stages) - 1)] == frozenset().union(*firsts)
        if not comp_eq:
            violations.append("componentwise: one-step derivation differs")
    return UnionLemmaReport(mode, half_ok, mn_ok, comp_eq, alphas, tuple(violations))


def reference_bq_member(scales, den, nonzero, cover) -> bool:
    """`products.bq_member` with the least absorbing tuple computed per
    coordinate, max(1, ceil(a_i * l)) for a nonzero x_i and 1 otherwise."""
    if len(scales) != cover.n or len(nonzero) != cover.n:
        raise InvalidParams("point arity does not match the cover")
    if den < 1 or min(scales) < 0 or max(scales) > den:
        raise InvalidParams("scales must lie in [0, 1]")
    least = tuple(
        max(1, -(-k * cover.l // den)) if nz else 1 for k, nz in zip(scales, nonzero)
    )
    return least in frozenset(cover.tuples)


def reference_norms_in_c0(e: DirectSum) -> bool:
    if isinstance(e.summands, ParamFamily):
        return e.summands.norms.in_c0()
    return True  # finitely many summands always vanish at infinity


def reference_is_compact(e) -> bool:
    if isinstance(e, Atom):
        return e.compact
    if isinstance(e, CSpace):
        return e.gamma.is_finite()
    if isinstance(e, FiniteSum):
        return all(reference_is_compact(p) for p in e.parts)
    if isinstance(e, DirectSum):
        if not reference_norms_in_c0(e):
            return False
        if isinstance(e.summands, ParamFamily):
            return e.summands.compact_members()
        return all(reference_is_compact(s) for s in e.summands)
    raise MalformedExpr(f"not a space expression: {e!r}")


def reference_punibound_candidate(r: SpaceIndex):
    """The least w-power strictly above an attained (successor) index, and
    the least w-power >= a limit index."""
    if r.index.is_successor() or r.index.is_zero():
        return least_omega_power_above(r.index)
    return r.index if is_power_of_omega(r.index) else least_omega_power_above(r.index)


def reference_direct_sum_index(e) -> SpaceIndex:
    """`calculus.direct_sum_index` with compactness decided by its own walk."""
    if isinstance(e, Atom):
        return SpaceIndex.of(profile_total_sup(e.profile), "identity", e.compact)
    if isinstance(e, CSpace):
        return SpaceIndex.of(c_space_index(e.gamma), "c_space", e.gamma.is_finite())
    if isinstance(e, FiniteSum):
        parts = [reference_direct_sum_index(p) for p in e.parts]
        if any(r.kind == "not_asplund" for r in parts):
            return SpaceIndex.not_asplund("collection(v)")
        idx = max(r.index for r in parts)
        return SpaceIndex.of(idx, "collection(v)", all(r.compact for r in parts))
    if not isinstance(e, DirectSum):
        raise MalformedExpr(f"not a space expression: {e!r}")

    c0 = reference_norms_in_c0(e)
    compact = reference_is_compact(e)
    fam = e.summands if isinstance(e.summands, ParamFamily) else None

    if e.p in ("1", "inf"):
        if not c0:
            return SpaceIndex.not_asplund("nonascase")
        if compact:
            return SpaceIndex.of(ONE, "compactbound", True)
        if fam is not None:
            return SpaceIndex.of(family_index_sup(fam), "nonascase")
        parts = [reference_direct_sum_index(s) for s in e.summands]
        if any(r.kind == "not_asplund" for r in parts):
            return SpaceIndex.not_asplund("nonascase")
        return SpaceIndex.of(max(r.index for r in parts), "nonascase")

    # p = "0" or rational in (1, oo)
    if compact:
        return SpaceIndex.of(ONE, "compactbound", True)
    candidates = [omega_pow(ONE)]  # a noncompact sum always reaches w
    if fam is not None:
        if not fam.compact_members():
            sup = SpaceIndex.of(family_index_sup(fam), "family")
            candidates.append(reference_punibound_candidate(sup))
    else:
        for s in e.summands:
            r = reference_direct_sum_index(s)
            if r.kind == "not_asplund":
                return SpaceIndex.not_asplund("nonascase")
            if not r.compact:
                candidates.append(reference_punibound_candidate(r))
    return SpaceIndex.of(max(candidates), "punibound")


# -- fundamental sequences of limit ordinals --------------------------------


class NotALimit(ValueError):
    """Raised when a fundamental sequence is requested for 0 or a successor."""


def predecessor(a: Ordinal) -> Ordinal:
    """The b with b + 1 = a; requires a to be a successor."""
    if not a.is_successor():
        raise ValueError(f"{a} is not a successor")
    exp, coeff = a.cnf[-1]
    if coeff > 1:
        return Ordinal(a.cnf[:-1] + ((exp, coeff - 1),))
    return Ordinal(a.cnf[:-1])


def fundamental_sequence(a: Ordinal, k: int) -> Ordinal:
    """The k-th member of the canonical fundamental sequence of a limit a.

    Rules: (d + w^(b+1))[k] = d + w^b * k, and (d + w^l)[k] = d + w^(l[k])
    for limit exponents l.  The sequence is strictly increasing in k with
    supremum a.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if not a.is_limit():
        raise NotALimit(f"{a} is not a limit ordinal")
    exp, coeff = a.cnf[-1]
    head = a.cnf[:-1] if coeff == 1 else a.cnf[:-1] + ((exp, coeff - 1),)
    delta = Ordinal(head)
    if exp.is_successor():
        step = mul(omega_pow(predecessor(exp)), Ordinal.from_int(k))
    else:
        step = omega_pow(fundamental_sequence(exp, k))
    return add(delta, step)
