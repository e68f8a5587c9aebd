"""Finite point materialization of fan sets, and exact derivation on it.

A fan set's derivation behavior is fully captured by a finite labeled point
set, its two-copy model: each omega-repeated tail is materialized as two
mirror copies, and the best far pair across the two copies realizes the
exact local diameter 2*reach just as infinitely many copies would.
Derivation runs on a quotient of that set: one point per mirror orbit.

The arguments below name a point by its ``path``, the structural branch
steps down the walk to it, with kinds "t" (tail copy: cluster-continuing),
"p" (prefix copy or positively offset component: excludable by a
neighborhood) and "f" (transparent: a fan selector inside a shared apex, or
a zero-offset component).  Paths are the language of the proofs, not data:
the model keeps, by position, each point's norm^q N, its nearest cluster
parent and the number t of tail steps on its path, which is all a
derivation reads.  Each copy step (a "t" or "p" step) shifts the copy on a
fresh axis of its own, so it adds its weight to the parent's N on the way
down the walk.

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
step beyond x: a tail step, and p is in C(x).

So the model keeps one parent per point, and `materialize` hands it out
during its pre-order walk, which carries down the parent that a point at
the current node gets (none at the root).  A point takes the carried
parent, or itself when there is none (a root).  Below a point x, the
first step that is not a fan selector is a copy step: a "t" step makes x
the parent, and a "p" step passes on x's own parent.  Every other step,
a `DisjUnion` component step included, passes the carried parent
through.  That is the nearest cluster parent, by the premise above: the
copy step right below x is the first non-"f" step beyond x of every path
below it, so it decides whether those points are in C(x).  For a path
through a "t" step, x is the longest candidate, since a point between
them would extend x's path by an "f" step only.  For a path through a "p"
step, x is no candidate, and every shorter one meets the same first
non-"f" step on x's path as on y's, so y's candidates are x's and so is
the nearest of them.  A component step is never the first non-"f" step
beyond a point, so it changes no candidate.  Positions are in pre-order,
so p < y.  The same walk hands out each point's t (below) and adds each
fan's width once per fan, not once per copy.

Pre-order also makes every subtree of the walk one contiguous run of
positions, whose length `count_points` gives: the points below the root's
i-th component (or i-th fan, after the shared apex at position 0) follow
those below the components (fans) before it.  So `checks` finds a union's
pieces and a projection's kept components as runs of positions.  The
projection of a disjoint union onto some components (`checks.tvl_check`,
the `postdoc2` suite) is a set of the union's own positions: a component
step at the root passes no parent on, so every kept point's ancestors lie
in its own component, and its paths below the component step are the same
in the projected set.  The projection adds an origin at path () when no
kept point has norm 0; that origin is nobody's parent, since a tail step
below it would follow a kept `Fan` point of norm 0 on an all-"f" path, so
it is a childless root, of rank 1 (below).  `cluster_map` stays only
because the benchmark's tracer (perfbench/tracing.py) wraps it by that
name, in this module and in `checks`; nothing in the package calls it.

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
union of their orbits, so 2 * (max - N(x)) is exact on every alive subset
of the quotient, and each stage of the quotient is the fold of the
two-copy stage.  The size of a two-copy set is the orbit-weighted count of
its quotient (`ProductModel.count`).  tests/oracle.py keeps the two-copy
model with explicit coordinates as the independent slow check, and a
path-carrying walk with the cluster relation read off the paths, and the
walk on Fractions (`reference_walk`), as the references for this one.

The model holds integers only.  It keeps t, not the orbit size 2^t, whose
bits grow with depth, so a count shifts (`ProductModel.weight`) and a
chain's memory is linear in its points.  It keeps N times a common
denominator D.  A pre-pass that also counts the points (`_scan`) takes D
as the lcm, over each width and offset the walk adds, of its denominator
times the denominators of the scales above it.  So wherever the walk adds
a value, the scale times D is an integer and a multiple of the value's
denominator: the walk carries it, changes it only at `Scale` nodes, and
adds the value as its numerator times that integer // its denominator,
exactly.  D can exceed the norms' least common denominator (1/6 + 1/6 =
1/3, over D = 6), so `ProductModel.of` divides D and the norms by their
gcd.

One model serves sets and products: a set is the one-factor product
``ProductModel.of([F])``, whose points are 1-tuples.  A product point is a
tuple of positions, one per factor; alive sets, staircase terms and factor
states all hold positions.  Clusters multiply componentwise and
distances^q add across the disjoint factor groups, and a product point's
orbit is the product of its factors' orbits.  So the largest N over
the product cluster C(x_1) x ... x C(x_n) is a max taken one axis at a
time, and on one axis a max over a subtree of that factor's forest.  One
kernel, `_local_diams`, takes it on integer norms over the model's common
denominator, on closed sets.

The closure argument.  Call a set of product points closed when with y it
holds every x whose product cluster holds y (step 2 of the `products`
docstring, on a product).  With a point, a closed set holds the point's
parent on every axis: the tuple with that one position replaced by its
nearest cluster parent.  Every set the package hands the kernel is closed.
A whole product (`ProductModel.tuples`) and a whole factor are.  So are
the super-level sets of lam that the staircase reads (step 2), and every
stage derived from a closed set: lam can only fall along a cluster
(step 1), so if y survives and y is in C(x), then x is alive and survives
too.  On a closed set an axis is one pass over the points in decreasing
order of their codes (below), and each point pushes its value to its
parent on that axis when it is larger.  A parent's code is the smaller
(p < y), so every child on the axis pushes before its parent does, and a
point holds the max over its alive subtree on the axis by its own turn:
the points between an alive descendant and it on the axis are its
descendant's ancestors, so they are alive and pass the max on edge by
edge.  After the last axis each point x holds the max over its whole
product cluster: for y alive in it, the tuple that takes y's positions on
the axes done so far and x's on the others is an ancestor-or-self of y,
so it is alive and the passes carry N(y) to x through it.  A set that is
not closed fails: looking up a missing parent raises KeyError, so no
wrong value comes back.  tests/oracle.py keeps the walk kernel that serves
any subset (`walk_local_diams`) as the reference.

The kernel derives closed subsets of the product (`derive_product_set`,
every axis) and gives `products` its per-factor local diameters.  In it a
point is one integer, its mixed-radix code sum_n j_n * stride_n
(`_strides`), so a step adds (p - y) * stride to a code; a one-axis code
is the position itself.  `derive_product_set` derives a whole sequence in
one call, with one bar, one encoding, and one decoding per stage.

The rank recursion.  On one factor a whole derivation sequence is one pass
(`derive_set`).  Fix an alive set S of positions, any set at all (cluster-
or mirror-closed or not), and let S_0 = S and S_k be the derivation of
S_(k-1).  The rank d(x) of a point is the least k with x outside S_k, so
d(x) = 0 off S, stage k is {x : d(x) > k}, and the sequence empties after
max d steps.  With N the norm^q times D and bar = floor(eps_q * D):

    d(x) = 1 + max{d(y) : y a proper descendant of x, N(y) - N(x) > bar // 2}

for x in S, with max of nothing 0.  (2 * (N(y) - N(x)) > bar iff
N(y) - N(x) > bar // 2, both sides being integers.)  By induction on k,
S_k = {x : d(x) > k}, the recursion's d: at k = 0 both sides are S, as
d >= 1 on S.  For k >= 1, x is in S_k iff it is in S_(k-1) and some point
y of its cluster alive in S_(k-1) has 2 * (N(y) - N(x)) > bar (the local
diameter above, which holds on any subset of the quotient), and that y is
not x itself, since 2 * 0 > bar fails (bar >= 0).  By the hypothesis for
k - 1, that says d(x) > k - 1 and some proper descendant y with
N(y) - N(x) > bar // 2 has d(y) > k - 1.  The second part implies the
first, since then d(x) >= 1 + d(y), and it says exactly d(x) > k.

`derive_set` evaluates the recursion once per point, taking positions in
decreasing order, so every child comes before its parent (p < y).  It
hands each point a list whose entry k is the largest N over the points of
the point's subtree that have rank > k; the list does not increase with k,
and it is kept negated, so it does not decrease and a bisection can search
it.  The max in the recursion is then the number of entries greater than
N(x) + bar // 2, one bisection.  N does not decrease down the forest, so
x raises no entry of its children's merged list and appends at most one,
N(x) itself at k = d(x) - 1.  A parent adopts the longest list handed up
to it and merges the others into it entrywise, each at the cost of the
shorter list: a long-path merge.  A list is at most as long as the height
h(c) of its subtree (the most points on a downward path from c), since
d(y) <= h(y).  At each point the merges cost at most the lengths of every
child's list but the longest, which is at most the sum of h(c) over every
child c but one of greatest height.  Summed over the forest that is at most
P, the number of points: each point lies on exactly one path of the
long-path decomposition (each point continues the path of a child of
greatest height), and those paths start at the roots and at exactly those
children, with h(c) points each.  So the pass costs O(P log P): one
bisection and at most one append per point, and O(P) for the merges.  With
a step cap m the lists keep their first m entries, which answer every rank
up to m + 1, the cap.  Every one-factor sequence reads ranks: `iterate_set`
keeps the points of rank > m, and `iterate_product_set` and
`sz_product_set` take the pass on a one-axis model.

Products of two or more factors keep the staged kernel.  The recursion
holds there too, but the descendants form a DAG (a product point has up to
one parent per axis), so two children's subtrees overlap, no parent can
adopt a child's list in place, and the merges cost about what the stages
cost.  tests/oracle.py keeps the stage loop (`reference_stages`, one step
of its walk kernel at a time) as the slow check on the ranks, on any
subset.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .calculus import InvalidParams
from .exactmath import as_frac
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


def _scan(F: FanSet) -> tuple[int, int]:
    """(the number of points `materialize` emits for F, the common
    denominator D of its walk: the module docstring's pre-pass).  A frame
    holds a node and the product of the denominators of the scales above
    it."""
    n, D, stack = 0, 1, [(F, 1)]
    pop, push = stack.pop, stack.append
    while stack:
        node, sd = pop()
        if isinstance(node, Fan):
            fans: Sequence[Fan] = (node,)
        elif isinstance(node, Sing):
            fans = ()
        elif isinstance(node, UnionApex):
            fans = node.fans
        elif isinstance(node, Scale):
            push((node.body, sd * node.a_q.denominator))
            continue
        elif isinstance(node, DisjUnion):
            for off, b in node.components:
                D = math.lcm(D, off.denominator * sd)
                push((b, sd))
            continue
        elif isinstance(node, ProdQ):
            raise OutsideExactFragment("materialize products factor by factor")
        else:
            raise MalformedFanSet(f"not a fan set: {node!r}")
        n += 1
        for f in fans:
            D = math.lcm(D, f.w_q.denominator * sd)
            for c in f.prefix:
                push((c, sd))
            push((f.tail, sd))
    return n, D


def count_points(F: FanSet) -> int:
    """len(materialize(F)), by `_scan`."""
    return _scan(F)[0]


def materialize(F: FanSet, D: int, parents: list[int], tails: list[int]) -> list[int]:
    """One point per mirror orbit of a non-product fan set, in pre-order:
    every omega-tail is walked once, as its copy ("t", 0).  Returns each
    point's norm^q times D (from `_scan`) by position, and appends to
    `parents` its nearest cluster parent (itself for a root) and to `tails`
    its t.  It adds integers only, and keeps its own stack, so depth costs
    no recursion."""
    norms: list[int] = []
    # a frame: node, N, the scale times D, the parent a point here gets
    # (None: none, a root) and t of a point here; frames are pushed in
    # reverse, so they pop in pre-order
    stack: list[tuple] = [(F, 0, D, None, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        node, norm, m, up, t = pop()
        if isinstance(node, Fan):
            fans: Sequence[Fan] = (node,)
        elif isinstance(node, Sing):
            fans = ()
        elif isinstance(node, UnionApex):
            fans = node.fans
        elif isinstance(node, Scale):
            a = node.a_q
            push((node.body, norm, m * a.numerator // a.denominator, up, t))
            continue
        elif isinstance(node, DisjUnion):
            for off, b in reversed(node.components):
                push((b, norm + off.numerator * m // off.denominator, m, up, t))
            continue
        else:
            raise MalformedFanSet(f"not a fan set: {node!r}")
        j = len(norms)
        norms.append(norm)
        parents.append(j if up is None else up)
        tails.append(t)
        for f in reversed(fans):
            # every copy of the fan sits at N plus its width, each on an
            # axis of its own: one sum per fan
            w = f.w_q
            nw = norm + w.numerator * m // w.denominator
            push((f.tail, nw, m, j, t + 1))
            for c in reversed(f.prefix):
                push((c, nw, m, up, t))
    return norms


# Largest number of tuples a product model (of orbits), a grid or a cover may
# enumerate (InvalidParams beyond).
ENUMERATION_LIMIT = 200_000


def cluster_map(
    parents: Sequence[int], at: dict[int, int], size: int
) -> dict[int, tuple[int, ...]]:
    """The cluster forest of a projection of one factor's points: `at`
    sends the kept positions, a set closed under `parents`, to positions
    0..size-1 in the same order, and a position it does not reach is an
    added root.  By new position k: (k, p) with p the new position of k's
    parent, or (k,) for a root."""
    out = {k: (k,) for k in range(size)}
    for j, k in at.items():
        p = at[parents[j]]
        if p != k:
            out[k] = (k, p)
    return out


# a product point: its position in each factor
PPoint = tuple[int, ...]


@dataclass(frozen=True)
class ProductModel:
    """The materialized factors of a product: by factor and position, each
    point's norm^q, nearest cluster parent and orbit size; a set is the
    one-factor product.  Points are orbit representatives, and a count of
    points means the two-copy model's count (`count`).  Every entry is an
    integer, and an orbit size 2^t is kept as its t."""

    # D, the least common denominator of the points' norms^q
    den: int
    # per factor, by position: the point's norm^q times D
    norms: tuple[tuple[int, ...], ...]
    # per factor, by position: the nearest cluster parent (itself for a root)
    parents: tuple[tuple[int, ...], ...]
    # per factor, by position: t, the tail steps on the point's path; its
    # mirror orbit has 2^t points
    tails: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(factors: Sequence[FanSet]) -> "ProductModel":
        scans = [_scan(f) for f in factors]
        size = math.prod(n for n, _ in scans)
        if size > ENUMERATION_LIMIT:
            raise InvalidParams(
                f"product enumeration too large ({size} orbits, limit {ENUMERATION_LIMIT})"
            )
        D = math.lcm(*(d for _, d in scans))
        parents, tails = [[] for _ in factors], [[] for _ in factors]
        norms = [materialize(f, D, up, t) for f, up, t in zip(factors, parents, tails)]
        # the norms^q over D have least common denominator D // g
        g = math.gcd(D, *itertools.chain.from_iterable(norms))
        if g > 1:
            D, norms = D // g, [[n // g for n in ns] for ns in norms]
        return ProductModel(D, *(tuple(map(tuple, c)) for c in (norms, parents, tails)))

    def tuples(self) -> frozenset[PPoint]:
        return frozenset(itertools.product(*(range(len(n)) for n in self.norms)))

    def weight(self, x: PPoint) -> int:
        """The size of x's mirror orbit, the product of its factors':
        2 to the sum of their t."""
        return 1 << sum([t[j] for t, j in zip(self.tails, x)])

    def count(self, alive: Iterable[PPoint]) -> int:
        """The number of two-copy points whose orbits `alive` holds."""
        return sum(map(self.weight, alive))

    def norm_q(self, x: PPoint) -> Fraction:
        return Fraction(sum(n[j] for n, j in zip(self.norms, x)), self.den)

    def scaled_bar(self, eps_q: Fraction) -> int:
        """floor(eps_q * D): an integer count of 1/D exceeds eps_q iff it
        exceeds this.  Every derivation turns its threshold into a bar
        here, so a non-positive one (no point would ever die) stops here."""
        eps_q = as_frac(eps_q)
        num = eps_q.numerator
        if num <= 0:
            raise InvalidParams("eps_q must be positive")
        return num * self.den // eps_q.denominator


def _strides(model: ProductModel, axes: Sequence[int]) -> list[int]:
    """Place values of a mixed-radix code over the factors `axes`: the
    point with position j_n on factor axes[n] has code sum_n j_n * stride_n.
    A one-axis code is the position itself."""
    out, stride = [], 1
    for a in axes:
        out.append(stride)
        stride *= len(model.norms[a])
    return out


def _local_diams(
    model: ProductModel, axes: Sequence[int], alive: Iterable[int]
) -> dict[int, int]:
    """D times the local diameter^q of every point of a closed alive set.

    Each alive point is its code over the factors `axes` (`_strides`); the
    result maps it to 2 * (max N over its alive cluster - its own N),
    with N the norm^q times D: the local diameter inside the union of the
    alive points' mirror orbits (the module docstring's orbit argument).

    The set must be closed (the module docstring's closure argument): with
    a code it holds the code's parent on each axis, its position y there
    replaced by the parent of y, which on codes adds (parent - y) * stride.
    Starting from N, one pass per axis over the codes in decreasing order
    pushes each code's value to that parent when it is larger; a root is
    its own parent.  A set that is not closed raises KeyError at its first
    missing parent.
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
    order = sorted(best, reverse=True)
    for _, parent, stride, size in layout:
        for c in order:
            y = c // stride % size
            p = c + (parent[y] - y) * stride
            if best[p] < best[c]:
                best[p] = best[c]
    return {c: 2 * (best[c] - v) for c, v in own.items()}


def derive_product_set(
    alive: frozenset[PPoint], model: ProductModel, eps_q: Fraction, m: Optional[int] = 1
) -> list[frozenset[PPoint]]:
    """The derivation sequence of a closed alive subset of the product:
    alive, then each exact derivation step of the last stage, for m steps
    or until a stage is empty (m = None: until then).  x survives a step
    iff its local diameter^q exceeds eps_q (`_local_diams` on every axis);
    each stage of a closed set is closed (the module docstring's closure
    argument).  The tuples are encoded once and the bar is taken once for
    the whole sequence."""
    axes = tuple(range(len(model.norms)))
    points = list(alive)
    codes = [0] * len(points)
    for n, stride in enumerate(_strides(model, axes)):
        codes = [c + x[n] * stride for c, x in zip(codes, points)]
    by_code = dict(zip(codes, points))
    bar = model.scaled_bar(eps_q)
    steps = math.inf if m is None else m
    out = [alive]
    while codes and len(out) <= steps:
        codes = [c for c, d in _local_diams(model, axes, codes).items() if d > bar]
        out.append(frozenset(map(by_code.__getitem__, codes)))
    return out


def derive_set(
    alive: frozenset[int], model: ProductModel, i: int, bar: int, m: Optional[int] = None
) -> dict[int, int]:
    """The rank of each point of a set of factor i's positions at the
    integer bar (`ProductModel.scaled_bar` of the threshold): the least k
    with the point outside the k-th derivation of `alive`, capped at m + 1
    (m = None: no cap).  Stage k is {x : rank > k}.  One pass over the
    cluster forest (the module docstring's rank recursion): `held` keeps, by
    position, the negated list handed up to it so far."""
    half = bar // 2
    norm, parent = model.norms[i], model.parents[i]
    cap = len(norm) if m is None else m
    ranks: dict[int, int] = {}
    held: dict[int, list[int]] = {}
    take, put = held.pop, held.setdefault
    for x in range(max(alive), min(alive) - 1, -1) if alive else ():
        got = take(x, None)
        if x in alive:
            if got is None:
                ranks[x], got = 1, ([-norm[x]] if cap else [])
            else:
                d = ranks[x] = 1 + bisect_left(got, -norm[x] - half)
                if d > len(got) < cap:
                    got.append(-norm[x])
        elif got is None:
            continue
        p = parent[x]
        if p != x:
            kept = put(p, got)
            if kept is not got:
                if len(kept) < len(got):
                    held[p], kept, got = got, got, kept
                kept[: len(got)] = map(min, kept, got)
    return ranks


def iterate_set(
    alive: frozenset[int], model: ProductModel, i: int, bar: int, m: int
) -> frozenset[int]:
    """The m-fold derivation of a set of factor i's positions at the
    integer bar: its points of rank > m."""
    return frozenset(x for x, d in derive_set(alive, model, i, bar, m).items() if d > m)


def iterate_product_set(
    alive: frozenset[PPoint], model: ProductModel, eps_q: Fraction, m: int
) -> frozenset[PPoint]:
    """The m-fold derivation of an alive subset of the product: on one axis
    any subset, by the rank pass; on more, a closed one."""
    if len(model.norms) == 1:
        kept = iterate_set(frozenset(x for (x,) in alive), model, 0, model.scaled_bar(eps_q), m)
        return frozenset((x,) for x in kept)
    return derive_product_set(alive, model, eps_q, m)[-1]


def sz_product_set(
    alive: frozenset[PPoint], model: ProductModel, eps_q: Fraction
) -> int:
    """Least m with the m-fold derivation empty (1 for a nonempty dead set):
    on one axis the largest rank, of any subset; on more, of a closed one."""
    if len(model.norms) == 1:
        ranks = derive_set(frozenset(x for (x,) in alive), model, 0, model.scaled_bar(eps_q))
        return max(ranks.values(), default=1)
    return max(len(derive_product_set(alive, model, eps_q, None)) - 1, 1)


def model_sz(F: FanSet, eps_q: Fraction) -> int:
    """sz_eps of a non-product fan set on its one-factor model."""
    model = ProductModel.of([F])
    every = frozenset(range(len(model.norms[0])))
    return max(derive_set(every, model, 0, model.scaled_bar(eps_q)).values())
