#!/usr/bin/env python3
"""Generate a corpus of example documents for the CLI.

Emits set documents (including nested, scaled, disjoint-union, and product
shapes), space documents for every evaluation rule, and a derivation-trace
report, all in canonical JSON.  Every document is round-tripped through the
parser before it is written.

Usage:
    python3 scripts/build_example_docs.py --out DIR [--count N] [--seed N]
"""
import argparse
import sys
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from szlenk import ordinal  # noqa: E402
from szlenk.calculus import (  # noqa: E402
    Atom,
    ConstNorms,
    Copies,
    CSpace,
    DirectSum,
    EpsProfile,
    LadderMembers,
    LadderTail,
    ParamFamily,
)
from szlenk.documents import (  # noqa: E402
    dumps_canonical,
    fanset_from_doc,
    fanset_to_doc,
    loads,
    space_from_doc,
    space_to_doc,
    trace_to_doc,
)
from szlenk.fansets import ProdQ, depth_fan, derive_steps  # noqa: E402
from szlenk.generators import case_rng, rand_fan_set, rand_q  # noqa: E402
from szlenk.ordinal import ONE  # noqa: E402

W = ordinal.parse("w")


def curated_sets() -> dict:
    fan2 = depth_fan(2, F(1, 2))
    return {
        "set_depth2": fanset_to_doc(fan2, F(2)),
        "set_product": fanset_to_doc(ProdQ((depth_fan(1, F(1, 2)), depth_fan(1, F(1, 2)))), F(2)),
    }


def curated_spaces() -> dict:
    ladder = Atom("ladder", F(1), EpsProfile((), LadderTail(ONE, ONE, F(1), F(1, 2))))
    return {
        "space_atom": space_to_doc(ladder),
        "space_cspace": space_to_doc(CSpace(ordinal.parse("w^w"))),
        "space_c0_ladder_family": space_to_doc(
            DirectSum("0", ParamFamily(ConstNorms(F(1)), LadderMembers(W, ONE, ONE, F(1), F(1, 4))))
        ),
        "space_linf_const": space_to_doc(
            DirectSum("inf", ParamFamily(ConstNorms(F(1)), Copies(EpsProfile(), compact=False)))
        ),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--count", type=int, default=12, help="random set documents to add")
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    docs = curated_sets() | curated_spaces()
    for i in range(args.count):
        rng = case_rng(args.seed, i)
        docs[f"set_random_{i:02d}"] = fanset_to_doc(rand_fan_set(rng, 2), rand_q(rng))

    fan2 = depth_fan(2, F(1, 2))
    docs["trace_depth2"] = {
        "v": 1,
        "command": "set derive",
        "eps_q": "1/2",
        "trace": trace_to_doc(derive_steps(fan2, F(1, 2), 5), F(2), 3),
    }

    for name, doc in sorted(docs.items()):
        text = dumps_canonical(doc)
        reparsed = loads(text)
        if name.startswith("set_"):
            fanset_from_doc(reparsed)
        elif name.startswith("space_"):
            space_from_doc(reparsed)
        (args.out / f"{name}.json").write_text(text, encoding="utf-8")
    print(f"wrote {len(docs)} documents to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
