#!/usr/bin/env python3
"""Time `product_sz`, the kernel-only loop and the `cover` command on chains.

For each product of equal chains (`depth_fan(d, 1/2)`, scale 1, at
eps_q = 1/2) it times `products.product_sz`, which derives the staircase's
terms at every step and builds no point set, and the kernel-only loop: the
same model build and `pointmodel.sz_product_set`, which derives the point
set of every stage.  Both give the same sz.  The ratio is the staircase's
time over the point-set derivation's.  For each one-factor chain of --ones it times the
model build and the derivation (one `derive_set` rank pass, whose largest
rank is sz) apart, and takes the tracemalloc peak of one more build,
outside the timed runs; sz is depth + 1.  For each L of --covers it times
the in-process command `cover L f f f`, f a depth-2 chain document at q = 2,
report included, and gives the cover's tuple and run counts and the
report's bytes.  For each depth d of --derives it times the in-process
command `set derive f --eps-q 1/2 --steps d+1`, f the document of
`depth_fan(d, 1/2)` at q = 2, report included, through the whole trace to
sz = d + 1, and gives the report's bytes.  Prints one JSON line.

Usage:
    python3 scripts/product_sweep.py [--depths 8 12 16] [--four 6] [--repeats 1]
        [--ones 64 128 256 512 1000] [--covers 8 16 32 52] [--derives 16 64 256]

Three chains at each of --depths (add 24 for the deep end), four chains
of depth --four (0 leaves them out), one chain at each of --ones, one
cover at each of --covers and one derivation at each of --derives (none of
the last three by default).
"""
import argparse
import contextlib
import io
import json
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from szlenk.cli import main as cli_main  # noqa: E402
from szlenk.documents import dumps_canonical, fanset_to_doc  # noqa: E402
from szlenk.fansets import depth_fan  # noqa: E402
from szlenk.pointmodel import ProductModel, derive_set, sz_product_set  # noqa: E402
from szlenk.products import bq_cover, product_sz  # noqa: E402

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


def cover_row(l: int, path: str, repeats: int) -> dict:
    """The least wall time of the `cover` command on three copies of the
    chain document at path, its report's bytes, and the cover's counts."""
    argv = ["cover", str(l), path, path, path]
    best = float("inf")
    for _ in range(repeats):
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli_main(argv)
        best = min(best, time.perf_counter() - start)
        if code != 0:
            raise SystemExit(f"cover L={l}: exit {code}")
    cover = bq_cover([depth_fan(2, HALF)] * 3, l, Fraction(2))
    return {
        "l": l,
        "tuples": sum(m for _, m in cover.runs),
        "runs": len(cover.runs),
        "report_bytes": len(out.getvalue().encode("utf-8")),
        "cover_s": round(best, 4),
    }


def derive_row(depth: int, path: Path, repeats: int) -> dict:
    """The least wall time of `set derive` on the depth-d chain document
    written to path, through the whole trace, and its report's bytes."""
    path.write_text(dumps_canonical(fanset_to_doc(depth_fan(depth, HALF), Fraction(2))), encoding="utf-8")
    argv = ["set", "derive", str(path), "--eps-q", "1/2", "--steps", str(depth + 1)]
    best = float("inf")
    for _ in range(repeats):
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli_main(argv)
        best = min(best, time.perf_counter() - start)
        if code != 0:
            raise SystemExit(f"set derive d{depth}: exit {code}")
    sz = json.loads(out.getvalue())["trace"]["sz_eps"]
    if sz != depth + 1:
        raise SystemExit(f"set derive d{depth}: sz {sz} != {depth + 1}")
    return {
        "depth": depth,
        "sz": sz,
        "report_bytes": len(out.getvalue().encode("utf-8")),
        "derive_s": round(best, 4),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--depths", type=int, nargs="*", default=[8, 12, 16], help="depths of the 3-chain products")
    ap.add_argument("--four", type=int, default=6, help="depth of the 4-chain product (0: none)")
    ap.add_argument("--repeats", type=int, default=1, help="runs per timing; the least is kept")
    ap.add_argument("--ones", type=int, nargs="*", default=[], help="depths of one-factor chains")
    ap.add_argument("--covers", type=int, nargs="*", default=[], help="L of the 3-chain covers")
    ap.add_argument("--derives", type=int, nargs="*", default=[], help="depths of the derived chains")
    ns = ap.parse_args()
    sizes = [(3, d) for d in ns.depths] + ([(4, ns.four)] if ns.four else [])
    rows = [row(n, d, ns.repeats) for n, d in sizes]
    ones = [one_row(d, ns.repeats) for d in ns.ones]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chain.json"
        path.write_text(dumps_canonical(fanset_to_doc(depth_fan(2, HALF), Fraction(2))), encoding="utf-8")
        covers = [cover_row(l, str(path), ns.repeats) for l in ns.covers]
        derives = [derive_row(d, Path(tmp) / f"d{d}.json", ns.repeats) for d in ns.derives]
    print(json.dumps(
        {"w_q": "1/2", "eps_q": "1/2", "rows": rows, "ones": ones, "covers": covers, "derives": derives}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
