#!/usr/bin/env python3
"""Time `product_sz`, the kernel-only loop, the `cover` command and verify suites.

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
sz = d + 1, and gives the report's bytes.  For each suite of --suites it
times `checks.run_suite` in process at the suite's A7 sample count
(`run_verify_all.FULL_SAMPLES`) on seeds 1 and 2, and gives its failed
cases.  For each command of --startup it times a fresh `szlenk` process
that runs one small instance of the command (`STARTUP`), and `python -c
pass` as the base, each the best wall time of --repeats processes.  Prints
one JSON line.

Usage:
    python3 scripts/product_sweep.py [--depths 8 12 16] [--four 6] [--repeats 1]
        [--ones 64 128 256 512 1000] [--covers 8 16 32 52] [--derives 16 64 256]
        [--suites techlem1 techlem2] [--startup ord sigma set]

Three chains at each of --depths (add 24 for the deep end), four chains
of depth --four (0 leaves them out), one chain at each of --ones, one
cover at each of --covers, one derivation at each of --derives, one row
for each suite of --suites and one for each command of --startup, plus
the base (none of the last five by default).
"""
import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from run_verify_all import FULL_SAMPLES  # noqa: E402
from szlenk.checks import SUITES, run_suite  # noqa: E402
from szlenk.cli import main as cli_main  # noqa: E402
from szlenk.documents import dumps_canonical, fanset_to_doc  # noqa: E402
from szlenk.fansets import depth_fan  # noqa: E402
from szlenk.pointmodel import ProductModel, derive_set, sz_product_set  # noqa: E402
from szlenk.products import bq_cover, product_sz  # noqa: E402

HALF = Fraction(1, 2)

# one small instance of each command, by its first word; CHAIN is the
# depth-2 chain document at q = 2
STARTUP = {
    "ord": ["ord", "w^2 + 1"],
    "sigma": ["sigma", "1", "3", "1", "2"],
    "frount": ["frount", "1", "1/2", "2", "2"],
    "set": ["set", "derive", "CHAIN", "--eps-q", "1/2"],
    "verify": ["verify", "tvl", "--samples", "1"],
    "cover": ["cover", "2", "CHAIN"],
}
# a fresh process that runs the command line as the `szlenk` entry point does
ENTRY = "import sys; from szlenk.cli import main; sys.exit(main(sys.argv[1:]))"


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


def suite_row(name: str, repeats: int) -> dict:
    """The least in-process time of the suite's A7 run on seeds 1 and 2,
    and its failed cases."""
    samples = FULL_SAMPLES[name]
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        reports = [run_suite(name, samples, seed) for seed in (1, 2)]
        best = min(best, time.perf_counter() - start)
    return {
        "suite": name,
        "samples": samples,
        "failed": sum(r.failed for r in reports),
        "suite_s": round(best, 4),
    }


def startup_row(name: str, argv: list, repeats: int) -> dict:
    """The least wall time of a fresh interpreter running argv (after
    `python`) over the repeats."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True)
        best = min(best, time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"startup {name}: exit {proc.returncode}")
    return {"command": name, "best_s": round(best, 4)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--depths", type=int, nargs="*", default=[8, 12, 16], help="depths of the 3-chain products")
    ap.add_argument("--four", type=int, default=6, help="depth of the 4-chain product (0: none)")
    ap.add_argument("--repeats", type=int, default=1, help="runs per timing; the least is kept")
    ap.add_argument("--ones", type=int, nargs="*", default=[], help="depths of one-factor chains")
    ap.add_argument("--covers", type=int, nargs="*", default=[], help="L of the 3-chain covers")
    ap.add_argument("--derives", type=int, nargs="*", default=[], help="depths of the derived chains")
    ap.add_argument("--suites", nargs="*", default=[], choices=list(SUITES), help="verify suites to time")
    ap.add_argument(
        "--startup", nargs="*", default=[], choices=list(STARTUP), help="commands to time in fresh processes"
    )
    ns = ap.parse_args()
    sizes = [(3, d) for d in ns.depths] + ([(4, ns.four)] if ns.four else [])
    rows = [row(n, d, ns.repeats) for n, d in sizes]
    ones = [one_row(d, ns.repeats) for d in ns.ones]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chain.json"
        path.write_text(dumps_canonical(fanset_to_doc(depth_fan(2, HALF), Fraction(2))), encoding="utf-8")
        covers = [cover_row(l, str(path), ns.repeats) for l in ns.covers]
        derives = [derive_row(d, Path(tmp) / f"d{d}.json", ns.repeats) for d in ns.derives]
        startup = [startup_row("base", ["-c", "pass"], ns.repeats)] if ns.startup else []
        for name in ns.startup:
            argv = [str(path) if a == "CHAIN" else a for a in STARTUP[name]]
            startup.append(startup_row(name, ["-c", ENTRY, *argv], ns.repeats))
    suites = [suite_row(name, ns.repeats) for name in ns.suites]
    print(json.dumps({
        "w_q": "1/2", "eps_q": "1/2", "rows": rows, "ones": ones, "covers": covers, "derives": derives,
        "suites": suites, "startup": startup,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
