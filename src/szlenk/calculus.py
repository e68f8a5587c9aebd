"""Symbolic Szlenk-index calculus for direct-sum expressions.

The calculus works on two levels:

* epsilon-profiles: exact step functions eps^q -> ordinal recording an
  epsilon-Szlenk index as epsilon shrinks (finitely many explicit steps plus
  a constant or ladder tail), and
* space expressions: atoms carrying profiles, C(gamma+1) spaces, finite sums
  and p-direct sums (p = 0, 1, a rational in (1, oo), or oo), evaluated to an
  exact ordinal index or a not-Asplund verdict with a rule tag saying which
  evaluation rule fired.

Expressions are evaluated in one post-order pass: each node's result carries
its index, rule and compactness, and a sum reads its summands' results.  A
sum is compact iff its norms vanish at infinity and every summand's result
is compact.

Scalar thresholds are carried as q-th powers of rationals ("eps_q" values), so
every comparison is exact rational arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .exactmath import as_frac, ceil_frac, pow_bounds, power_bits
from .ordinal import (
    ONE,
    ZERO,
    Ordinal,
    _cut,
    add,
    brief,
    is_power_of_omega,
    least_omega_power_above,
    mul,
    omega_pow,
    sup_affine,
)


class InvalidParams(ValueError):
    """A quantitative-bound parameter is out of its legal range."""


class MalformedExpr(ValueError):
    """A space expression or profile violates a structural invariant."""


# ---------------------------------------------------------------------------
# epsilon-profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstTail:
    """Below the last step threshold the profile is constantly `value`."""

    value: Ordinal


def _rung(base_q: Fraction, ratio_q: Fraction, eps_q: Fraction) -> int:
    """max{j >= 0 : base_q * ratio_q**j >= eps_q}, or 0 if even j = 0 fails."""
    n, x = 0, base_q
    if x < eps_q:
        return 0
    while x * ratio_q >= eps_q:
        x *= ratio_q
        n += 1
    return n


@dataclass(frozen=True)
class LadderTail:
    """Below the last threshold the profile climbs a ladder.

    The value at eps is slope*n + offset where n = max{j >= 0 : base_q *
    ratio_q**j >= eps_q}; if even j = 0 fails (eps_q > base_q) the value is
    the offset.  Successive rungs appear as eps crosses base_q * ratio_q**j.
    """

    slope: Ordinal
    offset: Ordinal
    base_q: Fraction
    ratio_q: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "base_q", Fraction(self.base_q))
        object.__setattr__(self, "ratio_q", Fraction(self.ratio_q))
        if self.slope.is_zero():
            raise MalformedExpr("ladder tails need a nonzero slope (use ConstTail)")
        if not self.offset.is_successor():
            raise MalformedExpr("ladder offsets must be successor ordinals")
        if self.base_q <= 0:
            raise MalformedExpr("ladder base_q must be positive")
        if not 0 < self.ratio_q < 1:
            raise MalformedExpr("ladder ratio_q must lie in (0, 1)")

    def value_at(self, eps_q: Fraction) -> Ordinal:
        n = _rung(self.base_q, self.ratio_q, eps_q)
        return add(mul(self.slope, Ordinal.from_int(n)), self.offset)


ProfileTail = Union[ConstTail, LadderTail]


@dataclass(frozen=True)
class EpsProfile:
    """An exact map eps^q -> ordinal, nondecreasing as eps shrinks.

    ``steps`` is a tuple of (threshold_q, value) with strictly decreasing
    positive thresholds; value k applies on (threshold_{k+1}, threshold_k]:
    at its own threshold and below, until the next threshold takes over.
    Above every threshold the first value applies; strictly below the last
    threshold the tail applies.  Every value must be a successor >= 1 (an
    epsilon-Szlenk index of a nonempty set is never 0 and never a limit).
    """

    steps: tuple[tuple[Fraction, Ordinal], ...] = ()
    tail: ProfileTail = ConstTail(ONE)

    def __post_init__(self) -> None:
        norm = tuple((Fraction(t), v) for t, v in self.steps)
        object.__setattr__(self, "steps", norm)
        prev_t: Optional[Fraction] = None
        prev_v: Optional[Ordinal] = None
        for t, v in norm:
            if t <= 0:
                raise MalformedExpr("profile thresholds must be positive")
            if prev_t is not None and t >= prev_t:
                raise MalformedExpr("profile thresholds must strictly decrease")
            if not v.is_successor():
                raise MalformedExpr(f"profile value {_cut(str(v))} is not a successor")
            if prev_v is not None and v < prev_v:
                raise MalformedExpr("profile values must not decrease as eps shrinks")
            prev_t, prev_v = t, v
        if isinstance(self.tail, ConstTail):
            if not self.tail.value.is_successor():
                raise MalformedExpr("constant tails must be successor ordinals")
            tail_min = self.tail.value
        else:
            tail_min = self.tail.value_at(norm[-1][0]) if norm else self.tail.offset
        if prev_v is not None and tail_min < prev_v:
            raise MalformedExpr("tail values must dominate the step values")


def profile_eval(profile: EpsProfile, eps_q: Fraction) -> Ordinal:
    """The profile's value at eps (given as eps^q > 0).

    Each step value applies at its own threshold and below, until the next
    threshold takes over; the first value also applies above every
    threshold; strictly below the last threshold the tail applies.
    """
    eps_q = Fraction(eps_q)
    if eps_q <= 0:
        raise InvalidParams("eps_q must be positive")
    steps = profile.steps
    if steps:
        if eps_q > steps[0][0]:
            return steps[0][1]
        if eps_q >= steps[-1][0]:
            value = steps[0][1]
            for t, v in steps:  # thresholds decrease: keep the last t >= eps
                if t >= eps_q:
                    value = v
                else:
                    break
            return value
    if isinstance(profile.tail, ConstTail):
        return profile.tail.value
    return profile.tail.value_at(eps_q)


def profile_total_sup(profile: EpsProfile) -> Ordinal:
    """sup over eps > 0 of the profile (monotonicity makes this the tail sup)."""
    if isinstance(profile.tail, ConstTail):
        return profile.tail.value
    return sup_affine(profile.tail.slope, profile.tail.offset)


# ---------------------------------------------------------------------------
# parametric summand families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstNorms:
    """||T_n|| = value for every n."""

    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", Fraction(self.value))
        if self.value < 0:
            raise MalformedExpr("norms are non-negative")

    def in_c0(self) -> bool:
        return self.value == 0


@dataclass(frozen=True)
class GeometricNorms:
    """||T_n|| = base * ratio**n with 0 < ratio < 1."""

    base: Fraction
    ratio: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", Fraction(self.base))
        object.__setattr__(self, "ratio", Fraction(self.ratio))
        if self.base <= 0 or not 0 < self.ratio < 1:
            raise MalformedExpr("geometric norms need base > 0 and ratio in (0, 1)")

    def in_c0(self) -> bool:
        return True


NormSeq = Union[ConstNorms, GeometricNorms]


@dataclass(frozen=True)
class Copies:
    """Every member of the family has the same profile.

    Compact members must have a trivial profile (index 1), as compact atoms
    must.
    """

    profile: EpsProfile
    compact: bool = False

    def __post_init__(self) -> None:
        if self.compact and profile_total_sup(self.profile) != ONE:
            raise MalformedExpr("compact family members must have index 1")


@dataclass(frozen=True)
class LadderMembers:
    """Member n has value slope*n + offset for eps_q <= base_q * ratio_q**n,
    and the common `low` value above that threshold."""

    slope: Ordinal
    offset: Ordinal
    low: Ordinal
    base_q: Fraction
    ratio_q: Fraction
    compact: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "base_q", Fraction(self.base_q))
        object.__setattr__(self, "ratio_q", Fraction(self.ratio_q))
        if self.slope.is_zero():
            raise MalformedExpr("ladder families need a nonzero slope (use Copies)")
        if not self.offset.is_successor() or not self.low.is_successor():
            raise MalformedExpr("family values must be successor ordinals")
        if self.low > self.offset:
            raise MalformedExpr("family low value must not exceed the offset")
        if self.base_q <= 0 or not 0 < self.ratio_q < 1:
            raise MalformedExpr("family thresholds need base_q > 0, ratio_q in (0, 1)")
        if self.compact:
            raise MalformedExpr("ladder families are never compact")


Members = Union[Copies, LadderMembers]


@dataclass(frozen=True)
class ParamFamily:
    """A countable summand family T_0, T_1, ... with decidable norm shape."""

    norms: NormSeq
    members: Members

    def compact_members(self) -> bool:
        return self.members.compact


def family_sup_at(fam: ParamFamily, eps_q: Fraction) -> Ordinal:
    """sup over n of the n-th member's value at eps (exact)."""
    eps_q = Fraction(eps_q)
    if eps_q <= 0:
        raise InvalidParams("eps_q must be positive")
    m = fam.members
    if isinstance(m, Copies):
        return profile_eval(m.profile, eps_q)
    if m.base_q < eps_q:
        return m.low
    n = _rung(m.base_q, m.ratio_q, eps_q)
    return max(m.low, add(mul(m.slope, Ordinal.from_int(n)), m.offset))


def family_index_sup(fam: ParamFamily) -> Ordinal:
    """sup over n and eps of the member values (each member's total index)."""
    m = fam.members
    if isinstance(m, Copies):
        return profile_total_sup(m.profile)
    return max(m.low, sup_affine(m.slope, m.offset))


# ---------------------------------------------------------------------------
# space expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """A named operator/space with a declared epsilon-profile.

    Compact atoms must have a trivial profile (index 1): an operator is
    compact exactly when its index is 1, so anything else is inconsistent.
    """

    name: str
    norm_bound: Fraction
    profile: EpsProfile
    compact: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "norm_bound", Fraction(self.norm_bound))
        if self.norm_bound < 0:
            raise MalformedExpr("atom norm bounds are non-negative")
        if self.compact and profile_total_sup(self.profile) != ONE:
            raise MalformedExpr(f"compact atom {brief(self.name)} must have index 1")


@dataclass(frozen=True)
class CSpace:
    """The space C([0, gamma]) of continuous functions on [0, gamma]."""

    gamma: Ordinal


@dataclass(frozen=True)
class FiniteSum:
    """An unlabeled finite direct sum; its index is the max of the parts."""

    parts: tuple["SpaceExpr", ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise MalformedExpr("finite sums need at least one part")


@dataclass(frozen=True)
class DirectSum:
    """(+ sum over lambda of T_lambda)_p for p = "0", "1", "inf" or p in (1, oo).

    Summands are either an explicit finite tuple of expressions or a
    parametric family.
    """

    p: Union[str, Fraction]
    summands: Union[tuple["SpaceExpr", ...], ParamFamily]

    def __post_init__(self) -> None:
        p = self.p
        if isinstance(p, str):
            if p not in ("0", "1", "inf"):
                try:
                    p = Fraction(p)
                except (ValueError, ZeroDivisionError):
                    raise MalformedExpr(f"bad direct-sum exponent {brief(self.p)}") from None
        elif type(p) is not int and not isinstance(p, Fraction):  # not a bool or a float
            raise MalformedExpr(
                f"direct-sum exponents must be strings, ints or Fractions, got {brief(p)}"
            )
        if isinstance(p, (int, Fraction)):
            p = Fraction(p)
            if p == 0:
                p = "0"
            elif p == 1:
                p = "1"
            elif not p > 1:
                raise MalformedExpr("rational direct-sum exponents must lie in (1, oo)")
        object.__setattr__(self, "p", p)
        if isinstance(self.summands, tuple) and not self.summands:
            raise MalformedExpr("direct sums need at least one summand")


SpaceExpr = Union[Atom, CSpace, FiniteSum, DirectSum]


@dataclass(frozen=True)
class SpaceIndex:
    """Evaluation result: an exact ordinal index or a not-Asplund verdict,
    plus the name of the rule that decided it."""

    kind: str  # "ordinal" | "not_asplund"
    index: Optional[Ordinal]
    rule: str
    compact: bool = False

    @staticmethod
    def of(index: Ordinal, rule: str, compact: bool = False) -> "SpaceIndex":
        return SpaceIndex("ordinal", index, rule, compact)

    @staticmethod
    def not_asplund(rule: str) -> "SpaceIndex":
        return SpaceIndex("not_asplund", None, rule, False)


def c_space_index(gamma: Ordinal) -> Ordinal:
    """Index of C([0, gamma]).

    Finite gamma gives 1.  Otherwise the index is w^(alpha+1) for the unique
    alpha with w^(w^alpha) <= gamma < w^(w^(alpha+1)); in CNF terms alpha is
    the leading exponent of the leading exponent of gamma.
    """
    if gamma.is_finite():
        return ONE
    e = gamma.leading_exponent()
    alpha = e.leading_exponent()
    return omega_pow(add(alpha, ONE))


def _punibound_candidate(x: Ordinal) -> Ordinal:
    """Index of a p-sum (p in {0} u (1, oo)) whose largest summand index is x.

    A summand with attained (successor) index S has some eps-derivation of
    length exactly S, so the sum needs the least w-power strictly above S; a
    limit index is never attained at fixed eps, so a limit power of w bounds
    the sum itself.  The candidate is monotone in x, so the largest summand
    decides, and it is at least w for x >= 1: a noncompact sum reaches w.
    """
    return x if x.is_limit() and is_power_of_omega(x) else least_omega_power_above(x)


def direct_sum_index(e: SpaceExpr) -> SpaceIndex:
    """Evaluate a space expression to its exact index with rule provenance.

    Rules: "identity" (atoms), "c_space", "collection(v)" (finite max),
    "nonascase" (p in {1, inf}: not-Asplund gate / plain sup), "compactbound"
    (all parts compact with c0 norms), "punibound" (p in {0} u (1, oo)).

    One post-order pass: a sum evaluates its summands in order and stops
    at the first not-Asplund one.  A sum is compact iff its norms vanish at
    infinity (finitely many always do) and every summand's result is
    compact; a family whose norms are not in c0 is not Asplund for p in
    {1, inf}.
    """
    if isinstance(e, Atom):
        return SpaceIndex.of(profile_total_sup(e.profile), "identity", e.compact)
    if isinstance(e, CSpace):
        return SpaceIndex.of(c_space_index(e.gamma), "c_space", e.gamma.is_finite())
    if isinstance(e, FiniteSum):
        parts, rule = e.parts, "collection(v)"
    elif isinstance(e, DirectSum):
        parts, rule = e.summands, "nonascase"
    else:
        raise MalformedExpr(f"not a space expression: {e!r}")

    if isinstance(parts, ParamFamily):
        c0 = parts.norms.in_c0()
        if not c0 and e.p in ("1", "inf"):
            return SpaceIndex.not_asplund(rule)
        index, compact = family_index_sup(parts), c0 and parts.compact_members()
    else:
        index, compact = ZERO, True
        for s in parts:  # a loop, not a comprehension: one frame per level
            r = direct_sum_index(s)
            if r.kind == "not_asplund":
                return SpaceIndex.not_asplund(rule)
            index, compact = max(index, r.index), compact and r.compact
    if isinstance(e, FiniteSum):
        return SpaceIndex.of(index, rule, compact)
    if compact:
        return SpaceIndex.of(ONE, "compactbound", True)
    if e.p in ("1", "inf"):
        return SpaceIndex.of(index, "nonascase")
    return SpaceIndex.of(_punibound_candidate(index), "punibound")


# ---------------------------------------------------------------------------
# quantitative bounds
# ---------------------------------------------------------------------------


# The budget for powers at a user-supplied exponent (`sigma`, `frount_M`):
# every power they take works at no more than this many bits, as estimated
# by `power_bits` before any power is taken.  2**21 bits is about 630 000
# decimal digits, far past the 4300-digit default limit on printing an int.
POWER_BITS = 1 << 21


def check_power(x: Fraction, e: Fraction, name: str) -> None:
    """Refuse x**e (InvalidParams) when its estimated size exceeds the
    POWER_BITS budget; `name` is the exponent's parameter name."""
    bits = power_bits(x, e)
    if bits > POWER_BITS:
        raise InvalidParams(
            f"{name} = {e} needs a power of about {bits} bits, "
            f"over the {POWER_BITS}-bit budget"
        )


def sigma(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> int:
    """Least n >= 1 with n >= (2a/(b-c))**d - (b/(b-c))**d + 1.

    Exact for integer d; for fractional d the value is rounded outward (up),
    which keeps every bound built on top of it valid.  Whenever 2a <= b the
    answer is 1.
    """
    a, b, c, d = Fraction(a), Fraction(b), Fraction(c), Fraction(d)
    if a < 0 or not b > c > 0 or d < 1:
        raise InvalidParams("sigma needs a >= 0, b > c > 0, d >= 1")
    if 2 * a <= b:  # then (2a/(b-c))**d <= (b/(b-c))**d and the body is <= 1
        return 1
    check_power(2 * a / (b - c), d, "d")
    check_power(b / (b - c), d, "d")
    _, hi_a = pow_bounds(2 * a / (b - c), d)
    lo_b, _ = pow_bounds(b / (b - c), d)
    return max(1, ceil_frac(hi_a - lo_b + 1))


def sigma_qpow(a_q: Fraction, b: Fraction, c: Fraction, q: Fraction) -> int:
    """sigma(a, b, c, q) where a is supplied as its q-th power a_q = a**q.

    Radii of representable sets are only known as q-th powers; with d = q the
    first term is (2a/(b-c))**q = 2**q * a_q / (b-c)**q, rational for integer
    q, so no root of a_q is ever needed.
    """
    a_q, b, c, q = as_frac(a_q), as_frac(b), as_frac(c), as_frac(q)
    if a_q.numerator < 0 or not b > c > 0 or q < 1:
        raise InvalidParams("sigma_qpow needs a_q >= 0, b > c > 0, q >= 1")
    _, hi_2q = pow_bounds(Fraction(2), q)
    lo_bq, _ = pow_bounds(b, q)
    if hi_2q * a_q <= lo_bq:  # certainly 2a <= b, where the body is <= 1
        return 1
    lo_gap, _ = pow_bounds(b - c, q)
    lo_b, _ = pow_bounds(b / (b - c), q)
    return max(1, ceil_frac(hi_2q * a_q / lo_gap - lo_b + 1))


def frount_M(d: Fraction, eps_q: Fraction, q: Fraction, m: int) -> int:
    """Least M >= m with (2**q - 1) * eps_q * M >= 8**q * d**q * (m - 1).

    ``d`` is a plain diameter bound and ``eps_q`` is eps**q.  Exact for
    integer q; outward-rounded (up) otherwise.  Requires m >= 2.
    """
    d, q = Fraction(d), Fraction(q)
    if d <= 0:
        raise InvalidParams("frount_M needs d > 0")
    check_power(d, q, "q")
    check_power(Fraction(8), q, "q")
    _, hi_dq = pow_bounds(d, q)
    return frount_M_qpow(hi_dq, eps_q, q, m)


def frount_M_qpow(d_q: Fraction, eps_q: Fraction, q: Fraction, m: int) -> int:
    """frount_M with the diameter supplied as its q-th power d_q = d**q >= 0."""
    d_q, eps_q, q = as_frac(d_q), as_frac(eps_q), as_frac(q)
    if not isinstance(m, int) or m < 2:
        raise InvalidParams("frount_M needs an integer m >= 2")
    if d_q.numerator < 0 or eps_q.numerator <= 0 or q < 1:
        raise InvalidParams("frount_M needs d_q >= 0, eps_q > 0, q >= 1")
    if not d_q:
        return m
    _, hi_8q = pow_bounds(Fraction(8), q)
    lo_2q, _ = pow_bounds(Fraction(2), q)
    need = hi_8q * d_q * (m - 1) / ((lo_2q - 1) * eps_q)
    return max(m, ceil_frac(need))
