"""Seeded random instance generation for the verification suites.

Instances are desk-scale: at most 3 factors, fan depth at most 3, rational
data with denominators at most 16.  Each sample draws from its own
`random.Random(f"{seed}:{index}")`, so suites are reproducible and samples
are independent of evaluation order.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .fansets import DisjUnion, Fan, FanSet, Scale, Sing, UnionApex

MAX_DEN = 16


def case_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def rand_frac(
    rng: random.Random, max_num: int = 8, max_den: int = MAX_DEN
) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def rand_q(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([1, 2, 3]))


def rand_fan(rng: random.Random, depth: int) -> Fan:
    w = rand_frac(rng, max_num=4)
    n_prefix = rng.choice([0, 0, 1, 2]) if depth >= 1 else 0
    prefix = tuple(rand_fan_set(rng, depth - 1) for _ in range(n_prefix))
    tail = rand_fan_set(rng, depth - 1)
    return Fan(w, prefix, tail)


def rand_fan_set(rng: random.Random, depth: int) -> FanSet:
    """A random fan set of depth <= depth (no products)."""
    if depth <= 0:
        return Sing()
    kind = rng.choice(["sing", "fan", "fan", "apex", "scale", "disj"])
    if kind == "sing":
        return Sing()
    if kind == "fan":
        return rand_fan(rng, depth)
    if kind == "apex":
        fans = tuple(rand_fan(rng, depth - 1) for _ in range(rng.randint(1, 2)))
        return UnionApex(fans)
    if kind == "scale":
        return Scale(rand_frac(rng, max_num=4), rand_fan(rng, depth - 1))
    comps = []
    for i in range(rng.randint(1, 2)):
        off = Fraction(0) if i == 0 and rng.random() < 0.5 else rand_frac(rng, max_num=4)
        comps.append((off, rand_fan_set(rng, depth - 1)))
    return DisjUnion(tuple(comps))


def rand_factors(rng: random.Random) -> list[tuple[Fraction, FanSet]]:
    """1 to 3 random scaled factors (a_q_i, K_i) of depth <= 1, with
    sum a_q_i <= 1: each a_q_i is 1/n times a random quarter."""
    n = rng.randint(1, 3)
    out = []
    for _ in range(n):
        a_q = Fraction(rng.randint(1, 4), 4 * n)
        out.append((a_q, rand_fan_set(rng, 1)))
    return out
