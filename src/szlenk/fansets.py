"""Exact epsilon-derivations on fan sets.

A fan set describes a w*-compact set of finitely supported points in
countable ell_q coordinates.  The grammar:

* ``Sing`` - the singleton {0};
* ``Fan(w_q, prefix, tail)`` - {0} together with one shifted copy
  w*e_b(i) + prefix_i of every prefix member and countably many shifted
  copies w*e_c(k) + tail of the tail, every copy re-rooted on fresh axes;
* ``UnionApex(fans)`` - several fans glued at a common apex 0, copies on
  disjoint axis namespaces;
* ``Scale(a_q, body)`` - the body scaled by a (a_q = a**q > 0);
* ``ProdQ(factors)`` - a product across disjoint axis groups (top level
  only; products derive through the product machinery, not `derive`);
* ``DisjUnion(components)`` - components (offset_q, body), the body shifted
  by offset*e on a fresh axis; at most one component may have offset 0 so
  distinct components keep a positive mutual gap.

Every magnitude is carried as its q-th power (a rational), and distinct
points differ on axes where exactly one of them is supported, so every
distance^q is a rational sum and all comparisons are exact.

The central quantity is the cluster reach h(x): the farthest distance^q
from x to a point that lies in *every* w*-neighborhood of x (such points
arrive along the omega-repeated tails).  The local diameter of the set at
x is exactly 2*h(x): two far tail copies realize reach twice over disjoint
supports, and no pair can do better.  The epsilon-derivation therefore
keeps exactly the points with 2*h(x) > eps^q, and the survivor set is
again a fan set: an apex outlives its tail interior (reach from the apex
exceeds every reach inside the tail by the fan width), so derivation never
strands a tail without its apex, and dead tails turn the remaining prefix
copies into disjoint offset components.

One derivation sequence shares its nodes (`DerivationMemo`): every node the
filtration builds is looked up by its kind, fields and children, so a
derived node built like one seen before is that node, and the filtration
runs once per (node, threshold).  A step then filters only the nodes that no earlier step
filtered, and a sequence costs O(distinct nodes over its snapshots), not
O(the sum of their sizes).  Step k of a depth-n chain is the input's own
depth-(n-k) subtree, which step k already filtered, so all n + 1 steps
together cost O(n).  Radius, diameter and apex count are cached on each
node, so a shared node is measured once.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .calculus import InvalidParams
from .ordinal import Ordinal


class MalformedFanSet(ValueError):
    """A fan-set value violates a structural invariant."""


class OutsideExactFragment(ValueError):
    """The operation is exact only on the non-product fragment."""


class GroupNotFound(ValueError):
    """An axis-group selector does not match the set's group structure."""


def _no_prod(child: "FanSet", where: str) -> None:
    if isinstance(child, ProdQ):
        raise MalformedFanSet(f"ProdQ may only appear at the top level, not inside {where}")


@dataclass(frozen=True)
class Sing:
    """The singleton {0}."""


@dataclass(frozen=True)
class Fan:
    w_q: Fraction
    prefix: tuple["FanSet", ...] = ()
    tail: "FanSet" = Sing()

    def __post_init__(self) -> None:
        object.__setattr__(self, "w_q", Fraction(self.w_q))
        object.__setattr__(self, "prefix", tuple(self.prefix))
        if self.w_q <= 0:
            raise MalformedFanSet("fan width w_q must be positive")
        for c in self.prefix:
            _no_prod(c, "a fan prefix")
        _no_prod(self.tail, "a fan tail")


@dataclass(frozen=True)
class UnionApex:
    fans: tuple[Fan, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "fans", tuple(self.fans))
        if not self.fans:
            raise MalformedFanSet("UnionApex needs at least one fan")
        for f in self.fans:
            if not isinstance(f, Fan):
                raise MalformedFanSet("UnionApex members must be Fan nodes")


@dataclass(frozen=True)
class Scale:
    a_q: Fraction
    body: "FanSet"

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_q", Fraction(self.a_q))
        if self.a_q <= 0:
            raise MalformedFanSet("scale factor a_q must be positive")
        _no_prod(self.body, "a scale")


@dataclass(frozen=True)
class ProdQ:
    factors: tuple["FanSet", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise MalformedFanSet("ProdQ needs at least one factor")
        for f in self.factors:
            _no_prod(f, "another ProdQ")


@dataclass(frozen=True)
class DisjUnion:
    components: tuple[tuple[Fraction, "FanSet"], ...]

    def __post_init__(self) -> None:
        comps = tuple((Fraction(o), b) for o, b in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise MalformedFanSet("DisjUnion needs at least one component")
        zero = 0
        for off, body in comps:
            if off < 0:
                raise MalformedFanSet("component offsets must be >= 0")
            if off == 0:
                zero += 1
            _no_prod(body, "a DisjUnion component")
        if zero > 1:
            raise MalformedFanSet(
                "at most one DisjUnion component may sit at offset 0 "
                "(positive offsets certify the mutual gap)"
            )


FanSet = Union[Sing, Fan, UnionApex, Scale, ProdQ, DisjUnion]


# ---------------------------------------------------------------------------
# smart constructors
# ---------------------------------------------------------------------------


def scaled(a_q: Fraction, body: Optional[FanSet]) -> Optional[FanSet]:
    """Scale with the obvious normalizations (Sing fixed, factors merged)."""
    if body is None or isinstance(body, Sing):
        return body
    a_q = Fraction(a_q)
    if a_q == 1:
        return body
    if isinstance(body, Scale):
        return Scale(a_q * body.a_q, body.body)
    return Scale(a_q, body)


def disj(components: Sequence[tuple[Fraction, Optional[FanSet]]]) -> Optional[FanSet]:
    """Build a disjoint union, dropping empty bodies and unwrapping trivia."""
    comps: list[tuple[Fraction, FanSet]] = []
    for off, body in components:
        off = Fraction(off)
        if body is None:
            continue
        if off == 0 and isinstance(body, DisjUnion):
            comps.extend(body.components)  # no shared shift axis: safe to merge
        else:
            comps.append((off, body))
    if not comps:
        return None
    if len(comps) == 1 and comps[0][0] == 0:
        return comps[0][1]
    return DisjUnion(tuple(comps))


def depth_fan(n: int, w_q: Fraction) -> FanSet:
    """A chain of fans of depth n: D_0 = Sing, D_k = Fan(w_q, [], D_{k-1})."""
    if n < 0:
        raise InvalidParams("depth must be >= 0")
    out: FanSet = Sing()
    for _ in range(n):
        out = Fan(w_q, (), out)
    return out


# ---------------------------------------------------------------------------
# radius / diameter / reach
# ---------------------------------------------------------------------------


def radius_q(F: FanSet) -> Fraction:
    """max ||x||^q over the set (exact).

    Each node computes its radius once and keeps it as the instance
    attribute ``_radius_q``; `diam_q` and `count_apexes` keep theirs as
    ``_diam_q`` and ``_apexes``.  These attributes are not dataclass fields,
    so equality, hashing and repr never see them.  A derivation sequence
    shares its nodes across steps (`DerivationMemo`), so a subtree that
    outlives a step is measured once, not once per step.  Nodes are never
    hashed here: hashing a deep frozen dataclass is itself O(size).
    """
    r = getattr(F, "_radius_q", None)
    if r is not None:
        return r
    if isinstance(F, Sing):
        r = Fraction(0)
    elif isinstance(F, Fan):
        best = Fraction(0)
        for c in F.prefix + (F.tail,):
            best = max(best, radius_q(c))
        r = F.w_q + best
    elif isinstance(F, UnionApex):
        r = max(radius_q(f) for f in F.fans)
    elif isinstance(F, Scale):
        r = F.a_q * radius_q(F.body)
    elif isinstance(F, ProdQ):
        r = sum((radius_q(f) for f in F.factors), Fraction(0))
    elif isinstance(F, DisjUnion):
        r = max(off + radius_q(b) for off, b in F.components)
    else:
        raise MalformedFanSet(f"not a fan set: {F!r}")
    object.__setattr__(F, "_radius_q", r)  # frozen: set outside the fields
    return r


def diam_q(F: FanSet) -> Fraction:
    """max ||x - y||^q over pairs (exact), cached on the node.

    Points in different copies have disjoint supports beyond the common
    prefix, so their distance^q is the sum of the two one-sided norms; the
    best cross pair combines the two largest copy radii, with the
    omega-repeated tail available twice.
    """
    d = getattr(F, "_diam_q", None)
    if d is not None:
        return d
    if isinstance(F, Sing):
        d = Fraction(0)
    elif isinstance(F, Fan):
        radii = sorted(
            (radius_q(c) for c in F.prefix + (F.tail, F.tail)), reverse=True
        )
        d = 2 * F.w_q + radii[0] + radii[1]
        for c in F.prefix + (F.tail,):
            d = max(d, diam_q(c))
    elif isinstance(F, UnionApex):
        d = max(diam_q(f) for f in F.fans)
        if len(F.fans) > 1:
            radii = sorted((radius_q(f) for f in F.fans), reverse=True)
            d = max(d, radii[0] + radii[1])
    elif isinstance(F, Scale):
        d = F.a_q * diam_q(F.body)
    elif isinstance(F, ProdQ):
        d = sum((diam_q(f) for f in F.factors), Fraction(0))
    elif isinstance(F, DisjUnion):
        d = max(diam_q(b) for _, b in F.components)
        if len(F.components) > 1:
            radii = sorted((off + radius_q(b) for off, b in F.components), reverse=True)
            d = max(d, radii[0] + radii[1])
    else:
        raise MalformedFanSet(f"not a fan set: {F!r}")
    object.__setattr__(F, "_diam_q", d)
    return d


# ---------------------------------------------------------------------------
# filtration and derivation
# ---------------------------------------------------------------------------


class DerivationMemo:
    """The nodes of one derivation sequence, shared across its steps.

    `share` looks a node up by its kind, its rational fields as (numerator,
    denominator) and the ids of its children, and returns the memo's node
    with that key, registering the node itself when it is the first.
    `_filter_reach` registers every node it filters and shares every node
    it builds, so a derived node with the kind, fields and children of a
    node seen before, in the input or in an earlier step, is that node.
    `filtered` maps (node id, threshold) to the node and its filtration,
    and `nodes` holds every node whose key it keeps, so each id the memo
    keys on belongs to a live node and cannot be reused while the memo
    lives.  A memo serves one sequence (`derive_steps`, `sz_eps`, a loop
    over `derive`) and dies with it.
    """

    def __init__(self) -> None:
        self.nodes: dict[tuple, FanSet] = {}
        self.filtered: dict[tuple[int, int, int], tuple[FanSet, Optional[FanSet]]] = {}

    def share(self, F: Optional[FanSet]) -> Optional[FanSet]:
        if F is None:
            return None
        if isinstance(F, Fan):
            w = F.w_q
            key: tuple = (Fan, w.numerator, w.denominator, id(F.tail), *map(id, F.prefix))
        elif isinstance(F, Sing):
            key = (Sing,)
        elif isinstance(F, DisjUnion):
            key = (DisjUnion, *[(o.numerator, o.denominator, id(b)) for o, b in F.components])
        elif isinstance(F, Scale):
            key = (Scale, F.a_q.numerator, F.a_q.denominator, id(F.body))
        elif isinstance(F, UnionApex):
            key = (UnionApex, *map(id, F.fans))
        else:  # products never get here: the filtration refuses them first
            raise MalformedFanSet(f"not a fan set: {F!r}")
        return self.nodes.setdefault(key, F)


def _filter_reach(F: FanSet, t_q: Fraction, memo: DerivationMemo) -> Optional[FanSet]:
    """Keep exactly the points with h > t_q; None when nothing survives.

    The result is closed: h at the apex strictly exceeds h anywhere inside
    the tail copies (reach inside the tail is at most radius_q(tail), the
    apex adds the width), so an apex is never removed while tail interior
    survives.  When a tail dies under a surviving apex, the fan restructures
    into a disjoint union of the apex singleton and the shifted surviving
    prefix remnants.  Each (node, threshold) is filtered once per memo, and
    every node built here is shared through it.
    """
    key = (id(F), t_q.numerator, t_q.denominator)
    hit = memo.filtered.get(key)
    if hit is not None:
        return hit[1]
    share = memo.share
    if isinstance(F, Sing):
        out = share(Sing()) if 0 > t_q else None
    elif isinstance(F, (Fan, UnionApex)):
        # a fan is the one-arm apex (F,); with no leftovers the apex part
        # is the whole result, as disj([(0, zero)]) would return it
        fans = (F,) if isinstance(F, Fan) else F.fans
        apex_alive = any(f.w_q + radius_q(f.tail) > t_q for f in fans)
        cores: list[Fan] = []
        leftovers: list[tuple[Fraction, Optional[FanSet]]] = []
        for f in fans:
            tail = _filter_reach(f.tail, t_q, memo)
            remnants = [(f.w_q, _filter_reach(c, t_q, memo)) for c in f.prefix]
            if tail is not None:
                kept = tuple(r for _, r in remnants if r is not None)
                cores.append(share(Fan(f.w_q, kept, tail)))
            else:
                leftovers.extend(remnants)
        if not apex_alive:
            assert not cores
            out = share(disj(leftovers))
        else:
            if cores:
                zero: FanSet = cores[0] if len(cores) == 1 else share(UnionApex(tuple(cores)))
            else:
                zero = share(Sing())
            out = share(disj([(Fraction(0), zero)] + leftovers)) if leftovers else zero
    elif isinstance(F, Scale):
        out = share(scaled(F.a_q, _filter_reach(F.body, t_q / F.a_q, memo)))
    elif isinstance(F, DisjUnion):
        out = share(disj([(off, _filter_reach(b, t_q, memo)) for off, b in F.components]))
    elif isinstance(F, ProdQ):
        raise OutsideExactFragment(
            "products derive through the product machinery, not pointwise filtration"
        )
    else:
        raise MalformedFanSet(f"not a fan set: {F!r}")
    share(F)  # a node built like F later on is F
    memo.filtered[key] = (F, out)
    return out


def derive(
    F: FanSet, eps_q: Fraction, memo: Optional[DerivationMemo] = None
) -> Optional[FanSet]:
    """The exact one-step eps-derivation s_eps(F); None when empty.

    A point survives iff its local diameter^q exceeds eps_q; the strict
    comparison matches the strict `diam > eps` in the derivation's
    definition, and local diameters are attained here (far tail pairs), so
    there is no boundary subtlety to round.  Successive steps of one
    sequence pass the same `memo`, so they share nodes and filtrations.
    """
    eps_q = Fraction(eps_q)
    if eps_q <= 0:
        raise InvalidParams("eps_q must be positive")
    if memo is None:
        memo = DerivationMemo()
    return _filter_reach(F, eps_q / 2, memo)


@dataclass(frozen=True)
class TraceStep:
    step: int
    snapshot: Optional[FanSet]
    apex_count: int
    diam_q: Fraction


@dataclass(frozen=True)
class DerivationTrace:
    steps: tuple[TraceStep, ...]


def count_apexes(F: Optional[FanSet]) -> int:
    """Number of cluster points (positive local diameter) — diagnostic,
    cached on the node.

    The count is that of the two-copy point model (two copies of every
    omega-tail; ``pointmodel`` keeps one per mirror orbit and weighs it by
    the orbit's size): a fan counts its apex, once each prefix copy and
    twice its tail, 1 + sum(prefix) + 2 * count(tail).  The
    tail is visited once, so the work is linear in the node count while the
    result may be exponential in depth (2**n - 1 for a chain of depth n).
    """
    if F is None:
        return 0
    n = getattr(F, "_apexes", None)
    if n is not None:
        return n
    if isinstance(F, Sing):
        n = 0
    elif isinstance(F, Fan):
        n = 1 + sum(count_apexes(c) for c in F.prefix) + 2 * count_apexes(F.tail)
    elif isinstance(F, UnionApex):
        n = 1 + sum(count_apexes(f) - 1 for f in F.fans)
    elif isinstance(F, Scale):
        n = count_apexes(F.body)
    elif isinstance(F, ProdQ):
        raise OutsideExactFragment(
            "products derive through the product machinery, not pointwise filtration"
        )
    elif isinstance(F, DisjUnion):
        n = sum(count_apexes(b) for _, b in F.components)
    else:
        raise MalformedFanSet(f"not a fan set: {F!r}")
    object.__setattr__(F, "_apexes", n)
    return n


def derive_steps(
    F: FanSet, eps_q: Fraction, m: int
) -> tuple[Optional[FanSet], DerivationTrace]:
    """m-fold derivation with a step-by-step trace; the steps share one
    `DerivationMemo`, so a snapshot built like a subtree seen before is
    that subtree."""
    if m < 0:
        raise InvalidParams("step count must be >= 0")
    memo = DerivationMemo()
    cur: Optional[FanSet] = F
    steps = [TraceStep(0, cur, count_apexes(cur), diam_q(cur))]
    for k in range(1, m + 1):
        if cur is None:
            break
        cur = derive(cur, eps_q, memo)
        steps.append(
            TraceStep(k, cur, count_apexes(cur), diam_q(cur) if cur is not None else Fraction(0))
        )
    return cur, DerivationTrace(tuple(steps))


def sz_eps(F: FanSet, eps_q: Fraction) -> Ordinal:
    """Least m with s_eps^m(F) empty, as an ordinal (always finite here).

    Each derivation step strictly shortens the longest root-to-leaf copy
    chain, so the iteration empties within depth+1 steps.
    """
    memo = DerivationMemo()
    cur: Optional[FanSet] = F
    count = 0
    while cur is not None:
        cur = derive(cur, eps_q, memo)
        count += 1
    return Ordinal.from_int(count)
