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
node, so a shared node is measured once.  `derive_steps` returns a
sequence's trace as a tuple of `TraceStep`s, step k at index k: each
step's snapshot, its apex count and its diameter.

A node's radius and diameter are one integer record (D, R, M), radius_q =
R/D and diam_q = M/D, computed lazily on first use and never when the node
is built.  Each node combines its children's records: it picks the
children that decide its own values (the largest radius, the two largest,
the largest diameter) by integer cross-multiplication and takes the lcm of
those winners' denominators only, so a wide node costs one pass of small
integer products and its D stays the lcm of its own two denominators.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
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
        if type(self.w_q) is not Fraction:
            object.__setattr__(self, "w_q", Fraction(self.w_q))
        if type(self.prefix) is not tuple:
            object.__setattr__(self, "prefix", tuple(self.prefix))
        if self.w_q.numerator <= 0:
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
        if type(self.a_q) is not Fraction:
            object.__setattr__(self, "a_q", Fraction(self.a_q))
        if self.a_q.numerator <= 0:
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
        comps = tuple(
            (o if type(o) is Fraction else Fraction(o), b) for o, b in self.components
        )
        object.__setattr__(self, "components", comps)
        if not comps:
            raise MalformedFanSet("DisjUnion needs at least one component")
        zero = 0
        for off, body in comps:
            if off.numerator < 0:
                raise MalformedFanSet("component offsets must be >= 0")
            if not off.numerator:
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
    if type(a_q) is not Fraction:
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
        if type(off) is not Fraction:
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
    """max ||x||^q over the set (exact): R/D of the node's measure.

    Each node measures itself once, on first use, as one integer record
    (D, R, M) with radius_q = R/D and diam_q = M/D, kept as the instance
    attribute ``_measure``; `count_apexes` keeps its count as ``_apexes``.
    These attributes are not dataclass fields, so equality, hashing and
    repr never see them, and no node measures itself when it is built.  A
    derivation sequence shares its nodes across steps (`DerivationMemo`),
    so a subtree that outlives a step is measured once, not once per step.
    Nodes are never hashed here: hashing a deep frozen dataclass is itself
    O(size).
    """
    D, R, _ = _measure(F)
    return Fraction(R, D)


def diam_q(F: FanSet) -> Fraction:
    """max ||x - y||^q over pairs (exact): M/D of the node's measure.

    Points in different copies have disjoint supports beyond the common
    prefix, so their distance^q is the sum of the two one-sided norms; the
    best cross pair combines the two largest copy radii, with the
    omega-repeated tail available twice.
    """
    D, _, M = _measure(F)
    return Fraction(M, D)


def _measure(F: FanSet) -> tuple[int, int, int]:
    """(D, R, M) with radius_q(F) = R/D and diam_q(F) = M/D, in lowest
    terms together (gcd(D, R, M) = 1), cached on the node.

    Each child enters as its own record; a `DisjUnion` component enters as
    the record of offset + body, and a `Scale` multiplies its body's
    numerators and denominator by the scale's.  `_join` picks the winners
    among the children by cross-multiplication and takes the lcm of their
    denominators only, so the integers stay those of a few children however
    wide the node is, and once reduced D is lcm(den radius_q, den diam_q).
    The children are measured in plain loops, one frame per level.
    """
    m = getattr(F, "_measure", None)
    if m is not None:
        return m
    if isinstance(F, Sing):
        m = (1, 0, 0)
    elif isinstance(F, Fan):
        t = _measure(F.tail)
        kids = [t, t]  # the omega-repeated tail pairs with itself
        for c in F.prefix:
            kids.append(_measure(c))
        m = _join(F.w_q, kids)
    elif isinstance(F, UnionApex):
        kids = []
        for f in F.fans:
            kids.append(_measure(f))
        m = _join(_ZERO, kids)
    elif isinstance(F, Scale):
        D, R, M = _measure(F.body)
        a = F.a_q
        m = _lowest(D * a.denominator, R * a.numerator, M * a.numerator)
    elif isinstance(F, ProdQ):
        kids = []
        for f in F.factors:
            kids.append(_measure(f))
        D = lcm(*(k[0] for k in kids))
        m = _lowest(D, sum(R * (D // d) for d, R, _ in kids), sum(M * (D // d) for d, _, M in kids))
    elif isinstance(F, DisjUnion):
        kids = []
        for off, b in F.components:
            D, R, M = _measure(b)
            if off:
                n, d = off.numerator, off.denominator
                D, R, M = D * d, n * D + R * d, M * d
            kids.append((D, R, M))
        m = _join(_ZERO, kids)
    else:
        raise MalformedFanSet(f"not a fan set: {F!r}")
    object.__setattr__(F, "_measure", m)  # frozen: set outside the fields
    return m


_ZERO = Fraction(0)


def _join(w: Fraction, kids: list[tuple[int, int, int]]) -> tuple[int, int, int]:
    """The record of w plus the largest radius among `kids`, with diameter
    the largest of theirs or, for two or more kids, 2w plus the two largest
    radii.  The winners are picked by cross-multiplication, and D is the
    lcm of w's denominator and the winners' denominators only."""
    r1 = big = kids[0]
    r2 = None
    for k in kids[1:]:
        D, R, M = k
        if R * r1[0] > r1[1] * D:
            r1, r2 = k, r1
        elif r2 is None or R * r2[0] > r2[1] * D:
            r2 = k
        if M * big[0] > big[2] * D:
            big = k
    wd = w.denominator
    D = lcm(wd, r1[0], big[0]) if r2 is None else lcm(wd, r1[0], r2[0], big[0])
    wn = w.numerator * (D // wd)
    R = wn + r1[1] * (D // r1[0])
    M = big[2] * (D // big[0])
    if r2 is not None:
        M = max(M, wn + R + r2[1] * (D // r2[0]))
    return _lowest(D, R, M)


def _lowest(D: int, R: int, M: int) -> tuple[int, int, int]:
    g = gcd(D, R, M)
    return (D, R, M) if g == 1 else (D // g, R // g, M // g)


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
    over `derive`) and dies with it.  `derive` keeps here the last eps_q
    it was given and its threshold eps_q / 2, so a sequence halves eps_q
    once.
    """

    def __init__(self) -> None:
        self.nodes: dict[tuple, FanSet] = {}
        self.filtered: dict[tuple[int, int, int], tuple[FanSet, Optional[FanSet]]] = {}
        self.eps_q: object = None
        self.t_q = _ZERO

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
    tn, td = t_q.numerator, t_q.denominator
    key = (id(F), tn, td)
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
        apex_alive = False
        for f in fans:
            # the apex's reach w + R/D against t, on integers
            D, R, _ = _measure(f.tail)
            w = f.w_q
            if (w.numerator * D + R * w.denominator) * td > tn * w.denominator * D:
                apex_alive = True
                break
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
            out = share(disj([(_ZERO, zero)] + leftovers)) if leftovers else zero
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
    if memo is None:
        memo = DerivationMemo()
    if eps_q is not memo.eps_q:
        e = eps_q if type(eps_q) is Fraction else Fraction(eps_q)
        if e <= 0:
            raise InvalidParams("eps_q must be positive")
        memo.eps_q, memo.t_q = eps_q, e / 2
    return _filter_reach(F, memo.t_q, memo)


@dataclass(frozen=True)
class TraceStep:
    snapshot: Optional[FanSet]
    apex_count: int
    diam_q: Fraction


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


def derive_steps(F: FanSet, eps_q: Fraction, m: int) -> tuple[TraceStep, ...]:
    """The trace of the m-fold derivation: step k at index k, ending early
    at the first empty stage.  The steps share one `DerivationMemo`, so a
    snapshot built like a subtree seen before is that subtree."""
    if m < 0:
        raise InvalidParams("step count must be >= 0")
    memo = DerivationMemo()
    cur: Optional[FanSet] = F
    steps = [TraceStep(cur, count_apexes(cur), diam_q(cur))]
    for _ in range(m):
        if cur is None:
            break
        cur = derive(cur, eps_q, memo)
        steps.append(TraceStep(cur, count_apexes(cur), diam_q(cur) if cur is not None else _ZERO))
    return tuple(steps)


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
