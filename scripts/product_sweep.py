#!/usr/bin/env python3
"""Time `product_sz` against the kernel-only loop on products of chains.

For each product of equal chains (`depth_fan(d, 1/2)`, scale 1, at
eps_q = 1/2) it times `products.product_sz`, which derives the point set
and the staircase's terms at every step, and the kernel-only loop: the same
model build and `pointmodel.sz_product_set`, which derives the point set
alone.  Both give the same sz.  The ratio is the staircase's cost on top of
the exact derivation.  For each one-factor chain of --ones it times the
model build and the derivation (one `derive_set` rank pass, whose largest
rank is sz) apart, and takes the tracemalloc peak of one more build,
outside the timed runs; sz is depth + 1.  Prints one JSON line.

Usage:
    python3 scripts/product_sweep.py [--depths 8 12 16] [--four 6] [--repeats 1]
        [--ones 64 128 256 512 1000]

Three chains at each of --depths (add 24 for the deep end), four chains
of depth --four (0 leaves them out), and one chain at each of --ones (none
by default).
"""
import argparse
import json
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from szlenk.fansets import depth_fan  # noqa: E402
from szlenk.pointmodel import ProductModel, derive_set, sz_product_set  # noqa: E402
from szlenk.products import product_sz  # noqa: E402

HALF = Fraction(1, 2)


def kernel_sz(chains: list) -> int:
    model = ProductModel.of(chains)
    return sz_product_set(model.tuples(), model, HALF)


def row(factors: int, depth: int, repeats: int) -> dict:
    """The least time of each loop over the repeats; the two loops take
    turns, so a slow spell of the machine falls on both."""
    chains = [depth_fan(depth, HALF)] * factors
    runs = {
        "product_sz": lambda: product_sz([(Fraction(1), c) for c in chains], HALF),
        "kernel": lambda: kernel_sz(chains),
    }
    best = dict.fromkeys(runs, float("inf"))
    sz = {}
    for _ in range(repeats):
        for name, fn in runs.items():
            start = time.perf_counter()
            sz[name] = fn()
            best[name] = min(best[name], time.perf_counter() - start)
    if sz["product_sz"] != sz["kernel"]:
        raise SystemExit(f"{factors}x d{depth}: product_sz {sz['product_sz']} != kernel {sz['kernel']}")
    return {
        "factors": factors,
        "depth": depth,
        "sz": sz["kernel"],
        "product_sz_s": round(best["product_sz"], 4),
        "kernel_s": round(best["kernel"], 4),
        "ratio": round(best["product_sz"] / best["kernel"], 2),
    }


def one_row(depth: int, repeats: int) -> dict:
    """The least model build and rank pass times of one chain, and the
    peak memory of one build."""
    chain = depth_fan(depth, HALF)
    build = loop = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        model = ProductModel.of([chain])
        built = time.perf_counter()
        ranks = derive_set(frozenset(range(len(model.norms[0]))), model, 0, HALF)
        build, loop = min(build, built - start), min(loop, time.perf_counter() - built)
    sz = max(ranks.values())
    if sz != depth + 1:
        raise SystemExit(f"d{depth}: sz {sz} != {depth + 1}")
    tracemalloc.start()
    ProductModel.of([chain])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "depth": depth,
        "sz": depth + 1,
        "build_s": round(build, 4),
        "kernel_s": round(loop, 4),
        "build_peak_mib": round(peak / 2**20, 2),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--depths", type=int, nargs="*", default=[8, 12, 16], help="depths of the 3-chain products")
    ap.add_argument("--four", type=int, default=6, help="depth of the 4-chain product (0: none)")
    ap.add_argument("--repeats", type=int, default=1, help="runs per timing; the least is kept")
    ap.add_argument("--ones", type=int, nargs="*", default=[], help="depths of one-factor chains")
    ns = ap.parse_args()
    sizes = [(3, d) for d in ns.depths] + ([(4, ns.four)] if ns.four else [])
    rows = [row(n, d, ns.repeats) for n, d in sizes]
    ones = [one_row(d, ns.repeats) for d in ns.ones]
    print(json.dumps({"w_q": "1/2", "eps_q": "1/2", "rows": rows, "ones": ones}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
