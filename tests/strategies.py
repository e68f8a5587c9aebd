"""Shared hypothesis strategies for the test suite."""
from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from szlenk.calculus import (
    Atom,
    ConstNorms,
    ConstTail,
    Copies,
    CSpace,
    DirectSum,
    EpsProfile,
    FiniteSum,
    GeometricNorms,
    LadderMembers,
    LadderTail,
    ParamFamily,
)
from szlenk.fansets import DisjUnion, Fan, ProdQ, Scale, Sing, UnionApex
from szlenk.ordinal import OMEGA, ONE, ZERO, Ordinal, add, mul, omega_pow


def fin(n: int) -> Ordinal:
    return Ordinal.from_int(n)


def ordinals(max_depth: int = 2) -> st.SearchStrategy[Ordinal]:
    """Arbitrary ordinals below epsilon_0 with nesting up to max_depth."""
    if max_depth == 0:
        return st.integers(0, 9).map(fin)
    exps = ordinals(max_depth - 1)
    terms = st.lists(st.tuples(exps, st.integers(1, 4)), min_size=0, max_size=3)

    def build(raw: list[tuple[Ordinal, int]]) -> Ordinal:
        out = ZERO
        # Combining with ordinal addition normalizes arbitrary term soups.
        for exp, coeff in raw:
            out = add(out, mul(omega_pow(exp), fin(coeff)))
        return out

    return terms.map(build)


def fracs(max_den: int = 8, min_num: int = 1, max_num: int = 8):
    """Positive rationals num/den with small numerators and denominators."""
    return st.builds(
        Fraction, st.integers(min_num, max_num), st.integers(1, max_den)
    )


def fan_sets(max_depth: int = 2) -> st.SearchStrategy:
    """Small random fan sets (no products); point counts stay modest."""
    if max_depth == 0:
        return st.just(Sing())
    sub = fan_sets(max_depth - 1)
    fan = st.builds(
        Fan,
        fracs(),
        st.lists(sub, min_size=0, max_size=2).map(tuple),
        sub,
    )
    apex = st.builds(
        UnionApex, st.lists(fan, min_size=1, max_size=2).map(tuple)
    )
    scale = st.builds(Scale, fracs(max_num=4), fan)

    def mk_disj(parts: list) -> DisjUnion:
        comps = []
        for i, (off, body) in enumerate(parts):
            comps.append((Fraction(0) if i == 0 else off, body))
        return DisjUnion(tuple(comps))

    disj = st.lists(
        st.tuples(fracs(), st.one_of(st.just(Sing()), fan)),
        min_size=1,
        max_size=2,
    ).map(mk_disj)
    return st.one_of(st.just(Sing()), fan, apex, scale, disj)


def nested_sets(max_depth: int = 3) -> st.SearchStrategy:
    """Fan sets whose disjoint unions and scales nest directly: a component
    is any set, a disjoint union at its own positive offset included, and
    a scale holds any set, another scale or a point included."""
    if max_depth == 0:
        return st.just(Sing())
    sub = nested_sets(max_depth - 1)
    fan = st.builds(Fan, fracs(), st.lists(sub, max_size=2).map(tuple), sub)
    scale = st.builds(Scale, fracs(max_num=4), sub)
    union = st.builds(
        lambda first, rest: DisjUnion((first, *rest)),
        st.tuples(st.one_of(st.just(Fraction(0)), fracs()), sub),
        st.lists(st.tuples(fracs(), sub), max_size=1),
    )
    apex = st.builds(UnionApex, st.lists(fan, min_size=1, max_size=2).map(tuple))
    return st.one_of(st.just(Sing()), fan, scale, union, apex)


def measured_sets(max_depth: int = 3) -> st.SearchStrategy:
    """Sets of every node kind for the measures: `fan_sets`, with nested
    scales, unions with a zero and positive offsets, apexes of two or three
    fans, and products of two or three factors at the top."""
    sub = fan_sets(max_depth - 1)
    fan = st.builds(Fan, fracs(), st.lists(sub, max_size=3).map(tuple), sub)
    nested = st.builds(lambda a, b, K: Scale(a, Scale(b, K)), fracs(max_num=4), fracs(max_num=4), sub)
    union = st.builds(
        lambda zero, rest: DisjUnion(((Fraction(0), zero), *rest)),
        sub,
        st.lists(st.tuples(fracs(), sub), min_size=1, max_size=2),
    )
    apex = st.builds(UnionApex, st.lists(fan, min_size=2, max_size=3).map(tuple))
    node = st.one_of(fan_sets(max_depth), fan, nested, union, apex)
    return st.one_of(node, st.lists(node, min_size=2, max_size=3).map(lambda fs: ProdQ(tuple(fs))))


SLOPES = (ONE, fin(2), OMEGA, omega_pow(fin(2)))
OFFSETS = (ONE, fin(3), add(OMEGA, ONE))


def origin_free_unions():
    """Unions without the origin: positive offsets only, possibly around a
    zero-offset part that is itself such a union, possibly scaled."""
    positive = st.lists(st.tuples(fracs(), fan_sets(1)), min_size=1, max_size=2)

    def extend(inner):
        nested = st.builds(lambda z, rest: DisjUnion(((Fraction(0), z), *rest)), inner, positive)
        return st.one_of(nested, st.builds(Scale, fracs(max_num=4), inner))

    return st.recursive(positive.map(lambda cs: DisjUnion(tuple(cs))), extend, max_leaves=3)


@st.composite
def unions_and_groups(draw):
    """A disjoint union, its zero-offset component (if any) possibly a
    nested or scaled union without the origin, and a nonempty set of
    component indices."""
    zero = draw(st.one_of(st.none(), fan_sets(1), origin_free_unions()), label="zero")
    rest = draw(st.lists(st.tuples(fracs(), fan_sets(1)), min_size=1, max_size=2), label="rest")
    K = DisjUnion(tuple(rest) if zero is None else ((Fraction(0), zero), *rest))
    n = len(K.components)
    groups = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n), label="groups")
    return K, sorted(groups)


def eps_profiles() -> st.SearchStrategy[EpsProfile]:
    """Constant profiles (finite values) and ladder profiles."""
    const = st.integers(1, 6).map(lambda n: EpsProfile((), ConstTail(fin(n))))
    ladder = st.builds(
        lambda slope, offset: EpsProfile((), LadderTail(slope, offset, Fraction(1), Fraction(1, 2))),
        st.sampled_from(SLOPES),
        st.sampled_from(OFFSETS),
    )
    return st.one_of(const, ladder)


def param_families() -> st.SearchStrategy[ParamFamily]:
    """Families with constant (0 or 1) or geometric norms, and compact or
    noncompact copies or ladder members."""
    norms = st.sampled_from(
        [ConstNorms(Fraction(0)), ConstNorms(Fraction(1)), GeometricNorms(Fraction(1), Fraction(1, 2))]
    )
    copies = st.one_of(
        st.just(Copies(EpsProfile(), compact=True)), eps_profiles().map(Copies)
    )
    ladder = st.builds(
        lambda slope, low_offset: LadderMembers(
            slope, low_offset[1], low_offset[0], Fraction(1), Fraction(1, 4)
        ),
        st.sampled_from(SLOPES),
        st.sampled_from([(ONE, ONE), (ONE, fin(3)), (fin(3), fin(3)), (ONE, add(OMEGA, ONE))]),
    )
    return st.builds(ParamFamily, norms, st.one_of(copies, ladder))


def space_exprs(max_depth: int = 2) -> st.SearchStrategy:
    """Space expressions: compact and noncompact atoms, C(gamma+1) for finite
    and infinite gamma, finite sums, and p-sums (p in 0, 1, inf, 2, 3/2) of
    explicit summands or of a parametric family, nested up to max_depth."""
    compact = st.just(Atom("k", Fraction(1), EpsProfile(), compact=True))
    noncompact = eps_profiles().map(lambda prof: Atom("a", Fraction(1), prof))
    c_space = st.one_of(st.integers(0, 9).map(fin), ordinals(2)).map(CSpace)
    leaves = st.one_of(compact, noncompact, c_space)
    if max_depth == 0:
        return leaves
    sub = space_exprs(max_depth - 1)
    parts = st.lists(sub, min_size=1, max_size=3).map(tuple)
    p = st.sampled_from(["0", "1", "inf", Fraction(2), Fraction(3, 2)])
    return st.one_of(
        st.builds(DirectSum, p, parts),
        st.builds(DirectSum, p, param_families()),
        st.builds(FiniteSum, parts),
        leaves,
    )
