#!/usr/bin/env python3
"""Run every randomized verification suite at full scale and summarize.

Writes one canonical JSON report per suite when --out-dir is given, prints a
fixed-width summary table, and exits nonzero if any case fails anywhere.

Usage:
    python3 scripts/run_verify_all.py [--seed N] [--scale X] [--out-dir DIR]
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from szlenk.checks import SUITES, run_suite  # noqa: E402
from szlenk.documents import dumps_canonical, suite_report_to_doc  # noqa: E402

FULL_SAMPLES = {
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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--scale", type=float, default=1.0, help="sample-count multiplier")
    ap.add_argument("--out-dir", type=Path, default=None)
    ns = ap.parse_args()

    if ns.out_dir is not None:
        ns.out_dir.mkdir(parents=True, exist_ok=True)

    print(f"{'suite':<18} {'samples':>7} {'passed':>7} {'failed':>7} {'secs':>7}")
    total_failed = 0
    for name in SUITES:
        samples = max(1, int(FULL_SAMPLES[name] * ns.scale))
        start = time.perf_counter()
        rep = run_suite(name, samples, ns.seed)
        secs = time.perf_counter() - start
        total_failed += rep.failed
        print(f"{name:<18} {samples:>7} {rep.passed:>7} {rep.failed:>7} {secs:>7.2f}")
        if ns.out_dir is not None:
            path = ns.out_dir / f"{name}.json"
            path.write_text(dumps_canonical(suite_report_to_doc(rep, ns.seed)), encoding="utf-8")
    print(f"total failures: {total_failed}")
    return 0 if total_failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
