"""Exact product-set machinery: grids, staircase derivations, covers.

Derivation of a product multiplies clusters componentwise, so the local
diameter^q of a product point is the sum of the factor local diameters^q.
The one-step derived set of a full product is therefore the super-level
region {x : sum_i lam_i(x_i) > eps_q}, which decomposes exactly into a
finite union of products of per-factor super-level sets indexed by the
minimal value tuples of the (finitely-valued) factor functions lam_i.

A term is a tuple of per-factor position sets (a factor's points by their
pre-order positions in the model), and the union's point set holds position
tuples.
The undivided product is a one-term union, and every step derives a union
the same way: each term is a full product, so its derived set splits by the
same staircase, and the union of the per-term results is the exact derived
set of the whole union.  The argument, with C the cluster map of the model
(`pointmodel`) and N the norm^q:

1. For y in C(x), C(y) is contained in C(x): y's path extends x's, its
   first non-transparent step beyond x is a tail step, and every path that
   extends y's starts the same way beyond x.  And N(y) >= N(x), because
   dist^q(x, y) = N(y) - N(x).  So inside any alive set the local
   diameter 2 * (max N over the alive cluster - N) can only fall along a
   cluster: lam(y) <= lam(x) for y in C(x).
2. Call a factor set G closed when y in G and y in C(x) imply x in G.  A
   full factor is closed.  If G is closed, so is each super-level set
   {lam_G >= v}: for y in it and y in C(x), x is in G and, by 1,
   lam_G(x) >= lam_G(y) >= v.  Terms only ever hold full factors and such
   super-level sets, so at every step every term's factor sets are closed.
3. Let U be a union of terms and x a point of U.  If a term T meets the
   product cluster C(x) = C(x_1) x ... x C(x_n) at y, then each y_i lies
   in T's i-th set and in C(x_i), so closure puts x in T.  Hence the best
   N over the alive cluster of x is the best over the terms T that hold x,
   lam_U(x) = max over those T of lam_T(x), and
   s_eps(U) = the union over T of s_eps(T), which is exactly the union of
   the per-term staircases.

So the terms are the derived set, and no step builds a point set: each
step derives every term by its own staircase and prunes the terms
contained in another (tests/test_products.py walks random products step
by step, checks the closure, and holds the union of the terms equal to the
stage of the exact point-set derivation).  The staircase's per-factor
local diameters come from the point model's kernel (`_local_diams`), one
axis at a time, as integers over the model's common denominator, and its
minimal value tuples from a pruned prefix walk (`_minimal_tuples`).

A step's point count, the two-copy points of the union, is the
orbit-weighted size of the union of the terms' boxes (`union_count`),
read without listing a product point.  Per factor, the positions fall
into atoms by the bitmask of the boxes whose set on that factor holds
them, and an atom weighs the sum of its positions' orbit sizes.  A pass
over the factors keeps, for each mask of boxes that hold every
coordinate chosen so far, the weight of those prefixes; the next factor
ANDs each mask with each atom's mask and drops an empty AND, so a point
is counted once, under the boxes that hold it.  Equal masks merge, so
at factor i the pass holds at most the product of the atom counts of the
factors before it, and factor i costs at most the product of the atom
counts up to i itself.  Atoms are disjoint and nonempty, so a factor has
no more atoms than positions, and the pass costs at most the number of
factors times the orbit count, and far less when the terms share their
sets.

One derivation sequence shares one factor-set table (`FactorSets`, one per
factor; `_whole` makes it and every step passes it on).  A factor set is
its own key: the table computes, once per distinct set, lam, its sorted
values and its super-level sets {lam >= v}, so a set that many terms share
is read once.  Frozensets cache their hash, and an equal set built twice
costs one equality check on lookup.  The prune that drops terms contained
in another (`_prune`) tests containment only among one factor's distinct
sets.  The table lives as long as its sequence, as `DerivationMemo` does
for the symbolic half.

Each job has one walk.  The A-grid (`a_eps_grid`) is a prefix walk on its
integer `levels`, and its minimal columns are the staircase's minimal
tuples (`_minimal_tuples`) of the factors' distinct weights, so one pruned
walk finds both.  The integer lower bounds of (j * step)^q for the grid,
and of k^q and (k/l)^q for a ball cover (`bq_cover`), are one power ladder
(`_power_floors`) each; a cover checks the power budget, and refuses an l
past the enumeration limit, before its first power.
`bound_product_derivation` is the separate finite emptiness bound: it
derives each factor at most m times and stops at the first empty set.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .calculus import InvalidParams, check_power, frount_M_qpow
from .exactmath import ROOT_BITS, as_frac, int_nth_root_floor, pow_bounds
from .fansets import DerivationMemo, FanSet, ProdQ, OutsideExactFragment, derive, diam_q, scaled
from . import pointmodel
from .pointmodel import ENUMERATION_LIMIT, ProductModel, _local_diams

# No product step runs the point-set derivation; this name stays only
# because the benchmark's tracer (perfbench/tracing.py) wraps it here.
derive_product_set = pointmodel.derive_product_set


# ---------------------------------------------------------------------------
# the A-grid of threshold tuples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AEpsGrid:
    """Parameters of the threshold grid for an n-factor scaled product.

    `a_q` and `diam_q` carry the q-th powers of the scale factors and the
    factor diameters; `eps` and `delta` are the plain thresholds (their
    difference sets the grid step, which only exists un-powered).  A grid
    column is a tuple of integer multipliers j_i of `step`: the threshold
    eps_bar_i = j_i * step.
    """

    a_q: tuple[Fraction, ...]
    diam_q: tuple[Fraction, ...]
    eps: Fraction
    delta: Fraction
    q: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_q", tuple(map(as_frac, self.a_q)))
        object.__setattr__(self, "diam_q", tuple(map(as_frac, self.diam_q)))
        object.__setattr__(self, "eps", as_frac(self.eps))
        object.__setattr__(self, "delta", as_frac(self.delta))
        object.__setattr__(self, "q", as_frac(self.q))
        if not self.a_q or len(self.a_q) != len(self.diam_q):
            raise InvalidParams("need matching nonempty a_q and diam_q tuples")
        if any(a.numerator <= 0 for a in self.a_q):
            raise InvalidParams("scale factors must be positive")
        if any(d.numerator < 0 for d in self.diam_q):
            raise InvalidParams("diameters must be >= 0")
        if not (self.delta.numerator > 0 and self.delta < self.eps):
            raise InvalidParams("need 0 < delta < eps")
        if self.q.numerator < self.q.denominator:
            raise InvalidParams("q must be >= 1")
        # `levels` takes q-th powers of delta/2 and of the multiples of
        # the step up to the first one past every diameter
        top = math.floor(max(1, *self.diam_q) / self.step) + 2
        check_power(top * self.step, self.q, "q")
        check_power(self.delta / 2, self.q, "q")

    @cached_property
    def step(self) -> Fraction:
        return (self.eps - self.delta) / 4

    @cached_property
    def levels(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(weights, cut) as integers over one common denominator.

        `weights[i][j]` is a_q_i * hi((j * step)^q), for every multiplier j
        with lo((j * step)^q) <= diam_q_i, nondecreasing in j; `cut` is
        lo((delta/2)^q).  A column is in the grid iff its weights sum to at
        least the cut.

        The bounds are those of `pow_bounds`, computed on integers: with S
        the bounds' denominator, lo(x^q) = floor(S * x^q), and each factor's
        lower bounds are one `_power_floors` ladder.  At integer q = u,
        S = (the denominators of step and delta/2)^u makes the bounds exact,
        and hi = lo.  At fractional q, S = 2^ROOT_BITS as in
        `nth_root_bounds`, and hi = lo + 1, except that hi(0) = 0.  The
        weights and the cut then share the denominator
        lcm(a_q denominators) * S.
        """
        u, v = self.q.numerator, self.q.denominator
        step, half = self.step, self.delta / 2
        S = (step.denominator * half.denominator) ** u if v == 1 else 1 << ROOT_BITS
        gap = 0 if v == 1 else 1
        L = math.lcm(*(a.denominator for a in self.a_q))
        weights: list[tuple[int, ...]] = []
        total = 1  # tuples over the factors listed so far
        for a, d_q in zip(self.a_q, self.diam_q):
            most = ENUMERATION_LIMIT // total
            lo = _power_floors(step, self.q, S, d_q, most)
            if len(lo) > most:
                raise InvalidParams("grid enumeration too large")
            total *= len(lo)
            mult = a.numerator * (L // a.denominator)
            # hi(0^q) = 0, with no gap
            weights.append((0, *(mult * (x + gap) for x in lo[1:])))
        cut = int_nth_root_floor(half.numerator**u * S**v // half.denominator**u, v)
        return tuple(weights), cut * L


def _power_floors(step: Fraction, q: Fraction, S: int, cap: Fraction, most: int) -> list[int]:
    """floor(S * (j * step)^q) for j = 0, 1, ... while the value is at most
    cap * S, and at most most + 1 values.  With q = u/v and step = num/den,
    that is int_nth_root_floor((j * num)^u * S^v // den^u, v): the floor of
    a v-th root is the floor of the root of the floor."""
    u, v = q.numerator, q.denominator
    top = step.numerator**u * S**v
    den, c_num, c_den = step.denominator**u, cap.numerator * S, cap.denominator
    out: list[int] = []
    for j in range(most + 1):
        x = j**u * top // den
        if v > 1:
            x = int_nth_root_floor(x, v)
        if x * c_den > c_num:
            break
        out.append(x)
    return out


def a_eps_grid(g: AEpsGrid) -> list[tuple[int, ...]]:
    """All tuples (j_i) of integer multipliers of `g.step` with
    eps_bar_i = j_i * step <= diam_i and
    sum_i a_q_i * eps_bar_i^q >= (delta/2)^q, in lexicographic order.

    Comparisons round outward for fractional q (borderline tuples are
    included), which only enlarges the grid and keeps downstream
    containment checks sound.

    A prefix walk on the integer `levels`: a factor's multipliers run from
    the least one whose weight, with the prefix's sum and the most the later
    factors can add, still reaches the cut, to the top.
    """
    weights, cut = g.levels
    # most: the largest sum the factors after the current one can add
    most = sum(w[-1] for w in weights)
    rows: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for w in weights[:-1]:
        most -= w[-1]
        rows = [
            (p + (j,), acc + w[j])
            for p, acc in rows
            for j in range(bisect.bisect_left(w, cut - acc - most), len(w))
        ]
    w = weights[-1]
    return [p + (j,) for p, acc in rows for j in range(bisect.bisect_left(w, cut - acc), len(w))]


def a_eps_minimal(g: AEpsGrid) -> list[tuple[int, ...]]:
    """The minimal columns of the A-grid, in lexicographic order.

    The grid is up-closed in its box (weights grow with j), so a column is
    minimal iff lowering any one multiplier by one drops its weight sum
    below the cut.  Such a column takes each weight at its least multiplier
    (an equal weight one lower would keep the sum), so its weights are a
    minimal tuple of the factors' distinct weights with sum > cut - 1
    (`_minimal_tuples`), and each weight maps back to its least multiplier.
    """
    weights, cut = g.levels
    values = [list(dict.fromkeys(w)) for w in weights]
    return [
        tuple(map(bisect.bisect_left, weights, v))
        for v in _minimal_tuples(values, cut - 1)
    ]


# ---------------------------------------------------------------------------
# staircase derivation of products
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProductUnion:
    """A union of products of per-factor position sets (the terms, whose
    union is the derived set), plus the model and the factor-set table of
    the derivation sequence (`_whole` makes it).  Its point count is
    `union_count(model, terms)`."""

    model: ProductModel
    terms: tuple[tuple[frozenset[int], ...], ...]
    table: tuple[FactorSets, ...]

    def is_empty(self) -> bool:
        return not self.terms


class FactorSets:
    """One factor's sets in one product derivation sequence, with what the
    staircase reads of a set computed once and keyed by the set itself: the
    sorted values of its lam (`_local_diams`) and, by value v, its
    super-level set {lam >= v}.  lam does not depend on the threshold, so
    the table serves steps at any eps_q."""

    def __init__(self, model: ProductModel, i: int) -> None:
        self.model, self.i = model, i
        self.levels: dict[frozenset[int], tuple[list[int], dict[int, frozenset[int]]]] = {}

    def level_sets(self, G: frozenset[int]) -> tuple[list[int], dict[int, frozenset[int]]]:
        """The sorted distinct values of lam on G (D times the local
        diameter^q of each point inside G), and by value v the set
        {x in G : lam(x) >= v}."""
        got = self.levels.get(G)
        if got is None:
            lam = _local_diams(self.model, (self.i,), G)
            values = sorted(set(lam.values()))
            got = self.levels[G] = values, {
                v: frozenset(x for x, d in lam.items() if d >= v) for v in values
            }
        return got


def _prune(terms: list[tuple[frozenset[int], ...]]) -> list[tuple[frozenset[int], ...]]:
    """Dedupe terms and drop those componentwise contained in another,
    keeping the first-seen order.

    Per factor, each distinct set maps to the bitmask of the terms whose set
    on that factor contains it, so subset tests run only among one factor's
    distinct sets; a term is contained in another iff the AND of its masks
    over the factors holds a bit besides its own."""
    uniq = list(dict.fromkeys(terms))
    inside = [-1] * len(uniq)
    for column in zip(*uniq):
        by_set: dict[frozenset[int], int] = {}
        for b, G in enumerate(column):
            by_set[G] = by_set.get(G, 0) | 1 << b
        holders = {}
        for a in by_set:
            mask = 0
            for c, m in by_set.items():
                if a <= c:
                    mask |= m
            holders[a] = mask
        for b, G in enumerate(column):
            inside[b] &= holders[G]
    return [t for b, t in enumerate(uniq) if inside[b] == 1 << b]


def union_count(model: ProductModel, boxes: Sequence[tuple[frozenset[int], ...]]) -> int:
    """The number of two-copy points in the union of the boxes' products,
    each box a tuple of per-factor position sets (the module docstring's
    box count): atoms per factor, then one pass over the factors carrying
    a weight per mask of boxes still holding the prefix."""
    if not boxes:
        return 0
    level = {(1 << len(boxes)) - 1: 1}
    for column, tails in zip(zip(*boxes), model.tails):
        by_set: dict[frozenset[int], int] = {}
        for b, G in enumerate(column):
            by_set[G] = by_set.get(G, 0) | 1 << b
        holders: dict[int, int] = {}
        for G, mask in by_set.items():
            for x in G:
                holders[x] = holders.get(x, 0) | mask
        atoms: dict[int, int] = {}
        for x, mask in holders.items():
            atoms[mask] = atoms.get(mask, 0) + (1 << tails[x])
        nxt: dict[int, int] = {}
        for mask, acc in level.items():
            for held, w in atoms.items():
                both = mask & held
                if both:
                    nxt[both] = nxt.get(both, 0) + acc * w
        level = nxt
    return sum(level.values())


def _minimal_tuples(values: Sequence[Sequence[int]], bar: int) -> list[tuple[int, ...]]:
    """The minimal tuples v, one entry from each of the sorted lists of
    distinct values, with sum(v) > bar, in lexicographic order.

    v is minimal iff lowering any one entry to the next smaller value of its
    list brings the sum to at most bar: iff sum(v) - bar is at most the gap
    below each entry (the least entry of a list has none).  A prefix walk
    in increasing order: for a prefix of the first n - 1 entries only the
    least last entry that passes the bar can be minimal (one bisection);
    a prefix that no completion lifts past the bar is skipped; and once a
    prefix passes the bar with the least later entries, no larger entry at
    its last place can be minimal, since lowering that entry would still
    pass.
    """
    n = len(values)
    least, most = [0] * (n + 1), [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        least[i] = least[i + 1] + values[i][0]
        most[i] = most[i + 1] + values[i][-1]
    last = values[-1]
    out: list[tuple[int, ...]] = []

    def walk(i: int, prefix: tuple[int, ...], acc: int, slack: float) -> None:
        if i == n - 1:
            k = bisect.bisect_right(last, bar - acc)
            if k < len(last) and acc + last[k] - bar <= slack:
                out.append(prefix + (last[k],))
            return
        vals = values[i]
        for j, x in enumerate(vals):
            a = acc + x
            if a + most[i + 1] <= bar:
                continue
            walk(i + 1, prefix + (x,), a, min(slack, x - vals[j - 1]) if j else slack)
            if a + least[i + 1] > bar:
                break

    walk(0, (), 0, math.inf)
    return out


def _staircase(
    table: Sequence[FactorSets], term: tuple[frozenset[int], ...], bar: int
) -> list[tuple[frozenset[int], ...]]:
    """Exact one-step derivation of the full product of a term's sets: one
    product of super-level sets per minimal value tuple (each value is
    taken, so no such set is empty)."""
    values, levels = zip(*(f.level_sets(G) for f, G in zip(table, term)))
    return [tuple(map(dict.__getitem__, levels, v)) for v in _minimal_tuples(values, bar)]


def _as_factor(a_q: Fraction, K: FanSet) -> FanSet:
    if isinstance(K, ProdQ):
        raise OutsideExactFragment("factors must come from the exact fragment")
    a_q = as_frac(a_q)
    if a_q.numerator <= 0:
        raise InvalidParams("scale factors must be positive")
    out = scaled(a_q, K)
    assert out is not None
    return out


def _whole(factors: Sequence[tuple[Fraction, FanSet]]) -> ProductUnion:
    """prod_i a_i K_i as a one-term union."""
    if not factors:
        raise InvalidParams("need at least one factor")
    model = ProductModel.of([_as_factor(a_q, K) for a_q, K in factors])
    term = tuple(frozenset(range(len(n))) for n in model.norms)
    table = tuple(FactorSets(model, i) for i in range(len(term)))
    return ProductUnion(model, (term,), table)


def derive_product_step(
    factors: Sequence[tuple[Fraction, FanSet]], eps_q: Fraction
) -> ProductUnion:
    """Exact s_eps of prod_i a_i K_i as a union of products of super-level
    sets of the factors (one product per minimal threshold tuple)."""
    return product_union_derive(_whole(factors), eps_q)


def product_union_derive(pu: ProductUnion, eps_q: Fraction) -> ProductUnion:
    """One more derivation step, keeping the union-of-products form: each
    term derives by its own staircase, and the union of the results is the
    derived set of the union (the module docstring's argument)."""
    table, bar = pu.table, pu.model.scaled_bar(eps_q)
    raw = [t for term in pu.terms for t in _staircase(table, term, bar)]
    return ProductUnion(pu.model, tuple(_prune(raw)), table)


def product_sz(
    factors: Sequence[tuple[Fraction, FanSet]], eps_q: Fraction
) -> int:
    """Least m with the m-fold derivation of prod_i a_i K_i empty, via the
    union-of-products iteration (products are never empty, so this is
    always >= 1)."""
    pu, count = _whole(factors), 0
    while not pu.is_empty():
        pu = product_union_derive(pu, eps_q)
        count += 1
    return count


# ---------------------------------------------------------------------------
# the finite emptiness bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductBound:
    verdict: str  # "empty" | "unknown"
    M: int


def bound_product_derivation(
    factors: Sequence[tuple[Fraction, FanSet]],
    eps_q: Fraction,
    q: Fraction,
    m: int,
) -> ProductBound:
    """Finite emptiness certificate for the derivation of prod_i a_i K_i,
    separate from the exact iteration (`product_sz`).

    If the m-fold (eps/8)-derivation of every unscaled factor is empty, the
    whole scaled product empties within M = frount_M_qpow(max diam_q, eps_q,
    q, m) steps and the verdict is "empty"; otherwise "unknown".  Requires
    m >= 2 and sum_i a_q_i <= 1.
    """
    eps_q, q = as_frac(eps_q), as_frac(q)
    if not isinstance(m, int) or m < 2:
        raise InvalidParams("m must be an integer >= 2")
    if not factors:
        raise InvalidParams("need at least one factor")
    if eps_q.numerator <= 0:
        raise InvalidParams("eps_q must be positive")
    if q < 1:
        raise InvalidParams("q must be >= 1")
    total = Fraction(0)
    for a_q, K in factors:
        a_q = as_frac(a_q)
        if a_q.numerator <= 0:
            raise InvalidParams("scale factors must be positive")
        if isinstance(K, ProdQ):
            raise OutsideExactFragment("factors must come from the exact fragment")
        total += a_q
    if total > 1:
        raise InvalidParams("need sum of a_q factors <= 1")
    d_q = max(diam_q(K) for _, K in factors)
    M = frount_M_qpow(d_q, eps_q, q, m)
    _, hi8 = pow_bounds(Fraction(8), q)
    eps8_q = eps_q / hi8

    def empties(K: Optional[FanSet]) -> bool:
        memo = DerivationMemo()
        for _ in range(m):
            K = derive(K, eps8_q, memo)
            if K is None:
                return True
        return False

    return ProductBound("empty" if all(empties(K) for _, K in factors) else "unknown", M)


# ---------------------------------------------------------------------------
# ball covers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BqCover:
    """The integer-tuple cover of the q-convex hull ball of the factors.

    A cover is down-closed and walked in lexicographic order, so for each
    prefix k_1..k_{n-1} its last coordinate runs over 1..m.  It is held as
    those runs, (prefix, m) in increasing prefix order, one per prefix.
    The products' (k/l)-scaled copies are not held: every factor's copy at
    k is scaled(scales[k - 1], K), from one ladder of scales for all
    factors, and a report splices each copy's text from its factor's one
    document."""

    l: int
    q: Fraction
    n: int
    runs: tuple[tuple[tuple[int, ...], int], ...]
    # by k - 1, hi((k/l)^q) for k = 1..k_max
    scales: tuple[Fraction, ...]
    # by denominator, its table of least absorbing k (`least`)
    _least: dict = field(default_factory=dict, repr=False, compare=False)

    @cached_property
    def tuples(self) -> tuple[tuple[int, ...], ...]:
        """Every tuple of the cover, in lexicographic order, expanded from
        the runs."""
        return tuple(p + (k,) for p, m in self.runs for k in range(1, m + 1))

    @property
    def top(self) -> int:
        """The largest k of any coordinate of any tuple: the first run's m.
        Its prefix is all ones, and every other coordinate of a tuple adds
        at least lo(1^q) to the sum, so no coordinate passes m."""
        return self.runs[0][1]

    @cached_property
    def ends(self) -> dict[tuple[int, ...], int]:
        """By prefix, the largest last coordinate (its run's m)."""
        return dict(self.runs)

    def least(self, den: int) -> "_LeastScales":
        """The cover's table of least absorbing k for scales s/den, one per
        denominator."""
        got = self._least.get(den)
        if got is None:
            if den < 1:
                raise InvalidParams("scales must lie in [0, 1]")
            got = self._least[den] = _LeastScales(self.l, den)
        return got


class _LeastScales(dict):
    """By scale s in [0, den], the least k >= 1 with s/den <= k/l, that is
    max(1, ceil(s * l / den)), each entry made on its first lookup; a scale
    outside [0, den] is a KeyError."""

    def __init__(self, l: int, den: int) -> None:
        super().__init__()
        self.l, self.den = l, den

    def __missing__(self, s: int) -> int:
        if not 0 <= s <= self.den:
            raise KeyError(s)
        k = self[s] = max(1, -(-s * self.l // self.den))
        return k


def bq_cover(factors: Sequence[FanSet], l: int, q: Fraction) -> BqCover:
    """Integer tuples k with sum_i k_i^q <= (l + n^(1/q))^q (outward-rounded)
    and the scales of the (k_i/l)-scaled factors of their products.

    The power budget is checked once, before the first power.  The tuples
    come from a prefix walk on the integer lower bounds of k^q (one
    `_power_floors` ladder, k = 0..k_max): a factor's
    k runs up to the largest one that, with the prefix's sum and the least
    the later factors add (1^q each), stays within the bound.  The walk
    stops one factor early: the last k runs over 1..m, m read from the
    prefix's own bisection, so the cover comes out as runs (`BqCover`), one
    step per prefix, in lexicographic order.  The scales hi((k/l)^q) are a
    second ladder, with step 1/l, one for every factor; no scaled copy is
    built."""
    q = Fraction(q)
    if not isinstance(l, int) or l < 1:
        raise InvalidParams("l must be an integer >= 1")
    if q < 1:
        raise InvalidParams("q must be >= 1")
    if not factors:
        raise InvalidParams("need at least one factor")
    for K in factors:
        if isinstance(K, ProdQ):
            raise OutsideExactFragment("factors must come from the exact fragment")
    n = len(factors)
    # One check covers every power below: a q-th power of a base with the
    # bits of (l + n) * R + 1 over R = 2^ROOT_BITS needs more bits than the
    # root n^(1/q) and than the q-th powers of l + hi(n^(1/q)) (a multiple
    # of 1/R at most l + n + 1/R), of k <= l + n + 1 and of k/l (l is
    # within the enumeration limit when those are taken).
    R = 1 << ROOT_BITS
    check_power(Fraction((l + n) * R + 1, R), q, "q")
    # refused iff k_max^n > ENUMERATION_LIMIT (k_max >= l the largest k with
    # lo(k^q) within the bound): iff l or the ladder's k_max passes `most`
    most = int_nth_root_floor(ENUMERATION_LIMIT, n)
    if l > most:
        raise InvalidParams("cover enumeration too large")
    _, root_hi = pow_bounds(Fraction(n), 1 / q)
    _, bound_hi = pow_bounds(l + root_hi, q)
    # lo_d[k] = S * lo(k^q) for k = 0..k_max, an integer (lo is exact at
    # integer q, and a multiple of 1/R else), and cap = floor(S * bound)
    S = 1 if q.denominator == 1 else R
    lo_d = _power_floors(Fraction(1), q, S, bound_hi, most + 1)
    if len(lo_d) > most + 1:
        raise InvalidParams("cover enumeration too large")
    cap = bound_hi.numerator * S // bound_hi.denominator
    rows: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for later in range(n - 1, 0, -1):
        rows = [
            (p + (k,), acc + lo_d[k])
            for p, acc in rows
            for k in range(1, bisect.bisect_right(lo_d, cap - acc - later * lo_d[1]))
        ]
    # each prefix left room for k = 1 of the last factor, so every m >= 1
    runs = tuple((p, bisect.bisect_right(lo_d, cap - acc) - 1) for p, acc in rows)
    # the scales hi((k/l)^q), k = 1..k_max: one ladder with step 1/l, its
    # denominator and gap chosen as in `AEpsGrid.levels` (k_max^u caps all k)
    k_max, u = len(lo_d) - 1, q.numerator
    den, gap = (l**u, 0) if q.denominator == 1 else (R, 1)
    lo_s = _power_floors(Fraction(1, l), q, den, Fraction(k_max) ** u, k_max)
    scales = tuple(Fraction(x + gap, den) for x in lo_s[1:])
    return BqCover(l, q, n, runs, scales)


def bq_member(
    scales: Sequence[int], den: int, nonzero: Sequence[bool], cover: BqCover
) -> bool:
    """Whether the point a_1 x_1 + ... + a_n x_n, with a_i = scales[i] / den
    in [0, 1] and x_i in K_i nonzero iff nonzero[i], lies in some product
    of the cover (a zero x_i makes the i-th scale irrelevant).

    A scaled factor (k_i/l) K_i absorbs a_i x_i whenever a_i <= k_i/l (the
    factor sets are star-shaped about 0: they contain every down-scaling of
    their points), and absorbs it trivially when x_i = 0.  The least
    absorbing tuple is k_i = max(1, ceil(a_i * l)) for nonzero x_i and 1
    otherwise; a cover from `bq_cover` is down-closed (its lower power
    bounds grow with k_i), so the point is covered iff that tuple is in it,
    that is iff its last k is at most its prefix's run end
    (`BqCover.ends`; a prefix with no run has none).  Each k_i is read from
    the cover's table for den (`BqCover.least`), which also refuses a scale
    outside [0, den]."""
    if len(scales) != cover.n or len(nonzero) != cover.n:
        raise InvalidParams("point arity does not match the cover")
    least = cover.least(den)
    try:
        ks = [least[s] for s in scales]
    except KeyError:
        raise InvalidParams("scales must lie in [0, 1]") from None
    ks = [k if nz else 1 for k, nz in zip(ks, nonzero)]
    return ks.pop() <= cover.ends.get(tuple(ks), 0)
