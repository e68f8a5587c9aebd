"""The benchmark's op catalogues: one fixed list of CLI invocations per workload.

Every op is one ``szlenk.cli.main(argv)`` call.  Its input documents are
built here as plain JSON dicts (without the package's serializer), from fixed
catalogue seeds, so the same catalogue and the same input bytes come out on
every machine and at every commit.  The run seed only orders the ops (see
``run.py``); that keeps each pass over a catalogue the same amount of work,
and lets ``digests.json`` hold the recorded report digest of every op.

Each op also names an independent check of its report (``Op.check``), run
on its first execution in a run.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("symbolic", "verify", "products")

# Sample counts of the A7 acceptance sweep (tests/test_acceptance.py); a
# verify op runs one suite at a tenth of its A7 count.
A7_SAMPLES = {
    "unionlemma1": 200,
    "unionlemma2": 200,
    "techlem1": 200,
    "techlem2": 100,
    "techlema": 100,
    "tvl": 100,
    "postdoc2": 50,
    "lecondsast": 20,
    "punibound_finite": 50,
}
VERIFY_SCALE = 10
VERIFY_SEEDS = 16

@dataclass(frozen=True)
class Op:
    """One CLI invocation.  ``argv`` names documents as ``@name``."""

    key: str
    kind: str
    size: str
    argv: tuple[str, ...]
    check: tuple = ()


@dataclass
class Catalogue:
    ops: list[Op] = field(default_factory=list)
    docs: dict[str, dict] = field(default_factory=dict)


def frac(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# set documents
# ---------------------------------------------------------------------------

SING = {"sing": {}}


def fan(w_q: Fraction, prefix: list, tail: dict) -> dict:
    return {"fan": {"w_q": frac(w_q), "prefix": prefix, "tail": tail}}


def chain(depth: int, w_q: Fraction = Fraction(1, 2)) -> dict:
    """depth_fan(depth, w_q): D_0 = point, D_k = Fan(w_q, [], D_{k-1})."""
    node = SING
    for _ in range(depth):
        node = fan(w_q, [], node)
    return node


def set_doc(node: dict, q: int = 2) -> dict:
    return {"v": 1, "q": str(q), "set": node}


def rand_w(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 4), rng.randint(1, 8))


def shape(rng: random.Random, depth: int) -> dict:
    """A random non-product set node of depth <= depth with wide prefixes."""
    if depth <= 0:
        return SING
    kind = rng.choice(["fan", "fan", "fan", "apex", "scale", "disj"])
    if kind == "fan":
        return rand_fan(rng, depth)
    if kind == "apex":
        return {"apex": {"fans": [rand_fan(rng, depth - 1 or 1) for _ in range(rng.randint(2, 3))]}}
    if kind == "scale":
        return {"scale": {"a_q": frac(rand_w(rng)), "body": rand_fan(rng, depth)}}
    comps = [[frac(Fraction(0) if i == 0 else rand_w(rng)), shape(rng, depth - 1)]
             for i in range(rng.randint(2, 3))]
    return {"disj": {"components": comps}}


def rand_fan(rng: random.Random, depth: int) -> dict:
    width = rng.randint(2, 4) if depth >= 2 else rng.randint(0, 3)
    prefix = [shape(rng, rng.randint(0, depth - 1)) for _ in range(width)]
    return fan(rand_w(rng), prefix, shape(rng, depth - 1))


# ---------------------------------------------------------------------------
# ordinals and space documents
# ---------------------------------------------------------------------------


def ord_json(terms: list) -> dict:
    """CNF ordinal as JSON: terms are (exponent terms, coefficient) pairs."""
    return {"cnf": [[ord_json(e), c] for e, c in terms]}


def nat(n: int) -> list:
    return [([], n)] if n else []


def ord_text(terms: list) -> str:
    if not terms:
        return "0"
    parts = []
    for e, c in terms:
        if not e:
            parts.append(str(c))
            continue
        if e == nat(1):
            body = "w"
        elif len(e) == 1 and not e[0][0]:
            body = f"w^{e[0][1]}"
        else:
            body = f"w^({ord_text(e)})"
        parts.append(body if c == 1 else f"{body}*{c}")
    return " + ".join(parts)


def rand_ordinal(rng: random.Random, depth: int) -> list:
    """Random CNF terms with strictly decreasing exponents; infinite for
    depth >= 1, with exponents nested up to depth - 1 levels."""
    if depth == 0:
        return nat(rng.randint(1, 9))
    terms = []
    if depth >= 2 and rng.random() < 0.6:
        terms.append((rand_ordinal(rng, depth - 1), rng.randint(1, 5)))
    exps = {rng.randint(1, 6)} | {rng.randint(0, 6) for _ in range(rng.randint(0, 3))}
    terms += [(nat(e), rng.randint(1, 9)) for e in sorted(exps, reverse=True)]
    return terms


ONE = nat(1)
W = [(ONE, 1)]


def profile(rng: random.Random) -> dict:
    k = rng.randint(1, 5)
    steps = [[frac(Fraction(1, 2 ** i)), ord_json(nat(k + i))] for i in range(rng.randint(0, 3))]
    top = k + len(steps)
    if rng.random() < 0.5:
        tail = {"const": ord_json(nat(top + rng.randint(0, 2)))}
    else:
        tail = {"ladder": {"slope": ord_json(W if rng.random() < 0.5 else nat(2)),
                           "offset": ord_json(nat(top + 1)), "base_q": frac(Fraction(1, 2 ** len(steps))),
                           "ratio_q": "1/2"}}
    return {"steps": steps, "tail": tail}


def atom(rng: random.Random, name: str, compact: bool = False) -> dict:
    prof = {"steps": [], "tail": {"const": ord_json(ONE)}} if compact else profile(rng)
    return {"atom": {"name": name, "norm": frac(rand_w(rng)), "profile": prof, "compact": compact}}


def space_doc(node: dict) -> dict:
    return {"v": 1, "space": node}


def space_case(rng: random.Random, rule: str) -> tuple[dict, str, str]:
    """A space node the evaluator should decide by `rule`: (node, kind, rule)."""
    geo = {"geometric": {"base": "1", "ratio": frac(Fraction(1, rng.randint(2, 5)))}}
    if rule == "identity":
        return atom(rng, "T"), "ordinal", rule
    if rule == "c_space":
        return {"cspace": {"gamma": ord_json(rand_ordinal(rng, 2))}}, "ordinal", rule
    if rule == "collection(v)":
        parts = [atom(rng, f"T{i}") for i in range(rng.randint(2, 4))]
        parts.append({"cspace": {"gamma": ord_json(rand_ordinal(rng, 1))}})
        return {"finite_sum": {"parts": parts}}, "ordinal", rule
    if rule == "collection(v)/not_asplund":
        bad = {"sum": {"p": "1", "family": {"norms": {"const": "1"},
                                            "members": {"copies": {"profile": profile(rng), "compact": False}}}}}
        return {"finite_sum": {"parts": [atom(rng, "T"), bad]}}, "not_asplund", "collection(v)"
    if rule == "nonascase/not_asplund":
        fam = {"norms": {"const": frac(rand_w(rng))},
               "members": {"copies": {"profile": profile(rng), "compact": False}}}
        return {"sum": {"p": rng.choice(["1", "inf"]), "family": fam}}, "not_asplund", "nonascase"
    if rule == "nonascase/family":
        fam = {"norms": geo, "members": {"ladder": {
            "slope": ord_json(W), "offset": ord_json(nat(rng.randint(1, 4))), "low": ord_json(ONE),
            "base_q": "1", "ratio_q": frac(Fraction(1, rng.randint(2, 4)))}}}
        return {"sum": {"p": rng.choice(["1", "inf"]), "family": fam}}, "ordinal", "nonascase"
    if rule == "nonascase/summands":
        summands = [atom(rng, f"T{i}") for i in range(rng.randint(2, 4))]
        return {"sum": {"p": rng.choice(["1", "inf"]), "summands": summands}}, "ordinal", "nonascase"
    if rule == "compactbound":
        summands = [atom(rng, f"K{i}", compact=True) for i in range(rng.randint(2, 4))]
        return {"sum": {"p": rng.choice(["0", "1", "2", "3/2"]), "summands": summands}}, "ordinal", rule
    if rule == "punibound/summands":
        summands = [atom(rng, f"T{i}") for i in range(rng.randint(2, 4))]
        summands.append({"cspace": {"gamma": ord_json(rand_ordinal(rng, 1))}})
        return {"sum": {"p": rng.choice(["0", "2", "3"]), "summands": summands}}, "ordinal", "punibound"
    if rule == "punibound/family":
        fam = {"norms": geo, "members": {"copies": {"profile": profile(rng), "compact": False}}}
        return {"sum": {"p": rng.choice(["0", "2"]), "family": fam}}, "ordinal", "punibound"
    raise ValueError(rule)


SPACE_RULES = (
    "identity", "c_space", "collection(v)", "collection(v)/not_asplund",
    "nonascase/not_asplund", "nonascase/family", "nonascase/summands",
    "compactbound", "punibound/summands", "punibound/family",
)


# ---------------------------------------------------------------------------
# catalogues
# ---------------------------------------------------------------------------


def symbolic() -> Catalogue:
    """Chains set p90, small parse-and-dispatch ops set p50.

    Twelve identical-cost depth-16 chains sit around the 90th percentile of
    the 113 ops, so p90 does not jump between chain depths from run to run;
    the 92 small ops put the median among them.
    """
    cat = Catalogue()
    half = Fraction(1, 2)
    chains = [(d, 2) for d in (4, 6, 8, 10, 12, 14, 17, 18, 20)]
    chains += [(16, q) for q in range(1, 13)]
    for d, q in chains:
        name = f"chain-d{d}-q{q}"
        cat.docs[name] = set_doc(chain(d, half), q)
        cat.ops.append(Op(f"symbolic/{name}", "chain", f"d{d}",
                   ("set", "derive", f"@{name}", "--eps-q", "1/2"), ("chain", d)))
    rng = random.Random("perfbench:shapes")
    for i in range(32):
        name = f"shape-{i:02d}"
        cat.docs[name] = set_doc(shape(rng, rng.randint(2, 4)), rng.choice([1, 2, 3]))
        eps = rng.choice(["1/8", "1/4", "1/2", "1"])
        cat.ops.append(Op(f"symbolic/{name}", "shape", "shape",
                   ("set", "derive", f"@{name}", "--eps-q", eps), ("settles",)))
    rng = random.Random("perfbench:spaces")
    for rule in SPACE_RULES:
        for j in range(3):
            node, kind, expect = space_case(rng, rule)
            name = f"space-{rule.replace('/', '-').replace('(', '').replace(')', '')}-{j}"
            cat.docs[name] = space_doc(node)
            cat.ops.append(Op(f"symbolic/{name}", "space", "space",
                       ("space", "eval", f"@{name}"), ("space", kind, expect)))
    rng = random.Random("perfbench:ordinals")
    for i in range(14):
        terms = rand_ordinal(rng, rng.randint(1, 3))
        cat.ops.append(Op(f"symbolic/ord-{i:02d}", "ord", "ord", ("ord", ord_text(terms)),
                   ("ord", ord_json(terms))))
    rng = random.Random("perfbench:bounds")
    for i in range(8):
        c = Fraction(rng.randint(1, 4), 8)
        b = c + Fraction(rng.randint(1, 8), 8)
        a = b * Fraction(rng.randint(1, 12), 4)
        d = rng.randint(1, 4)
        cat.ops.append(Op(f"symbolic/sigma-{i:02d}", "sigma", "sigma",
                   ("sigma", frac(a), frac(b), frac(c), str(d)), ("sigma", a, b, c, d)))
    for i in range(8):
        d = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        eps = Fraction(rng.randint(1, 4), rng.randint(1, 8))
        q = rng.randint(1, 3)
        m = rng.randint(2, 6)
        cat.ops.append(Op(f"symbolic/frount-{i:02d}", "frount", "frount",
                   ("frount", frac(d), frac(eps), str(q), str(m)), ("frount", d, eps, q, m)))
    return cat


def verify() -> Catalogue:
    """Every suite at a tenth of its A7 sample count, on VERIFY_SEEDS seeds."""
    cat = Catalogue()
    for suite, full in A7_SAMPLES.items():
        n = max(1, full // VERIFY_SCALE)
        for s in range(VERIFY_SEEDS):
            cat.ops.append(Op(f"verify/{suite}-n{n}-s{s}", "verify", suite,
                       ("verify", suite, "--samples", str(n), "--seed", str(s)), ("verify", n)))
    return cat


def narrow_fan(rng: random.Random, depth: int) -> dict:
    """A random fan of depth <= depth with at most one prefix child per level."""
    if depth <= 0:
        return SING
    prefix = [narrow_fan(rng, rng.randint(0, depth - 1)) for _ in range(rng.randint(0, 1))]
    return fan(rand_w(rng), prefix, narrow_fan(rng, depth - 1))


# (factors, depth, chain factors?, eps values); chain factors are the
# cheapest shape of a given depth, random narrow fans cost more.
EPS = ("1/8", "1/4", "1/2", "1")
PRODUCTS = [
    (2, 2, True, EPS),
    *[(2, 2, False, EPS)] * 10,
    (2, 3, True, ("1/4", "1/2", "1")),
    *[(2, 3, False, ("1/4", "1/2", "1"))] * 2,
    (2, 4, True, ("1/2", "1")),
    (3, 2, True, ("1/4", "1/2", "1")),
    *[(3, 2, False, ("1/2", "1"))] * 2,
    (3, 3, True, ("1",)),
]
COVERS = (2,) * 12 + (4,) * 12 + (8,) * 8 + (12,) * 3 + (16,) * 3


def products() -> Catalogue:
    """Certified product derivations and ball covers.

    A few large ops (the 3x3 and 2x4 products, L = 12 and 16 covers, the
    3x2 products) make up the top tenth and set p90; many 2x2 products and
    small covers put the median among them.
    """
    cat = Catalogue()
    half = Fraction(1, 2)
    rng = random.Random("perfbench:products")
    for i, (nf, d, chains, epss) in enumerate(PRODUCTS):
        factors = [chain(d, half) if chains else narrow_fan(rng, d) for _ in range(nf)]
        name = f"prod-{nf}x{d}-{i}"
        cat.docs[name] = set_doc({"prod": {"factors": factors}}, rng.choice([1, 2, 3]))
        for eps in epss:
            # the point model checks the smallest products in well under a second
            cat.ops.append(Op(f"products/{name}-e{eps.replace('/', '_')}", "product", f"{nf}x{d}",
                       ("set", "derive", f"@{name}", "--eps-q", eps), ("product", nf * d <= 4)))
    for j, l in enumerate(COVERS):
        q = rng.choice([1, 2, 3])
        names = []
        for k in range(3):
            name = f"factor-{j:02d}-{k}"
            cat.docs[name] = set_doc(chain(rng.randint(1, 2), rand_w(rng)), q)
            names.append(f"@{name}")
        cat.ops.append(Op(f"products/cover-{j:02d}-l{l}", "cover", f"L{l}",
                   ("cover", str(l), *names), ("cover", l, 3)))
    return cat


CATALOGUES = {"symbolic": symbolic, "verify": verify, "products": products}


def catalogue(workload: str) -> Catalogue:
    return CATALOGUES[workload]()


HEAVY_SIZES = {"d12", "d14", "d15", "d16", "d17", "d18", "d20", "2x3", "2x4", "3x2", "3x3", "L8", "L12", "L16"}


def tiny(ops: list[Op]) -> list[Op]:
    """The first op of each (kind, size) group, without the costly sizes."""
    seen: set = set()
    out = []
    for op in ops:
        if op.size not in HEAVY_SIZES and (op.kind, op.size) not in seen:
            seen.add((op.kind, op.size))
            out.append(op)
    return out


def build_inputs(workload: str, tiny_size: bool, docdir: Path) -> list:
    """Build the catalogue, write its documents, read them back; returns
    (op, argv) pairs with document paths filled in."""
    cat = catalogue(workload)
    ops = tiny(cat.ops) if tiny_size else cat.ops
    docdir.mkdir(parents=True, exist_ok=True)
    for name, doc in cat.docs.items():
        (docdir / f"{name}.json").write_text(
            json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")
    for path in docdir.glob("*.json"):
        path.read_bytes()
    return [
        (op, [str(docdir / f"{a[1:]}.json") if a.startswith("@") else a for a in op.argv])
        for op in ops
    ]
