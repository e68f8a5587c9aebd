#!/usr/bin/env python3
"""Write a results file: repeated benchmark runs plus the baseline rows.

    python3 perfbench/collect.py --out perfbench/results/first.json

For every workload it runs perfbench/run.py untraced on SEEDS seeds (one
fresh process each), SETS times over disjoint seeds, and traced on
TRACED_SEEDS seeds, and reports each metric's values, median, quartiles and
spread (interquartile distance over the median).  The sets must agree: each
spread within the metric's bound, and no later median worse than the first
by more than it.  It then measures the
baseline rows that these workloads cover (CLI ``set derive`` on depth-16/20
chains, the 2-factor depth-4 product against the point model, and
``lecondsast``'s share of the suite sweep at the A7 sample counts), and times
one op of each size left out of the catalogues, under a timeout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import random
from fractions import Fraction
from pathlib import Path

import clock
import run
import tracing
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEEDS = 10
SETS = 2
TRACED_SEEDS = 3


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["exit"] = proc.returncode
    result["wall_s"] = time.perf_counter() - start
    if trace:
        result["sweep"] = json.loads((run.WORK / f"trace-{workload}.json").read_text())["sweep"]
    print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode} "
          f"correct {result['correct']} in {result['wall_s']:.1f} s", file=sys.stderr)
    return result


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0}


def metric_table(results: list[dict]) -> dict:
    names = results[0]["metrics"]
    return {n: summary([r["metrics"][n]["value"] for r in results]) | {"unit": names[n]["unit"]}
            for n in names}


def agreement(sets: list[dict]) -> dict:
    """Per end-to-end metric: is each set's spread within the bound, and is
    each later set's median no worse than the first set's by more than it?"""
    out = {}
    for m in BENCH["end_to_end"]:
        name, bound = m["name"], m["bound"]
        medians = [st["metrics"][name]["median"] for st in sets]
        sign = 1 if m["better"] == "lower" else -1
        worse = [sign * (x - medians[0]) / medians[0] for x in medians[1:]]
        spreads = [st["metrics"][name]["spread"] for st in sets]
        out[name] = {"bound": bound, "medians": medians, "spreads": spreads,
                     "worse_than_first": worse,
                     "within": all(w <= bound for w in worse) and all(sp <= bound for sp in spreads)}
    return out


def cli_wall(argv: list[str], timeout: float) -> float | None:
    """Wall time of one `python3 -m szlenk.cli` process, None on timeout."""
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    start = time.perf_counter()
    try:
        subprocess.run([sys.executable, "-m", "szlenk.cli", *argv], cwd=run.ROOT, env=env,
                       capture_output=True, timeout=timeout, check=True)
    except subprocess.TimeoutExpired:
        return None
    return time.perf_counter() - start


def write_doc(name: str, doc: dict) -> str:
    path = run.WORK / "docs-baseline" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    return str(path)


def baseline_rows(szlenk) -> list[dict]:
    rows = []
    for depth in (16, 20):
        doc = write_doc(f"chain-d{depth}", workloads.set_doc(workloads.chain(depth)))
        walls = [cli_wall(["set", "derive", doc, "--eps-q", "1/2"], 120) for _ in range(3)]
        rows.append({"row": f"CLI set derive on depth-{depth} fan documents",
                     "roadmap_s": {16: 0.46, 20: 2.99}[depth],
                     "measured_s": statistics.median(walls), "runs_s": walls,
                     "how": "median of 3 `python3 -m szlenk.cli` processes, interpreter start included"})

    half = Fraction(1, 2)
    factors = [(Fraction(1), szlenk.fansets.depth_fan(4, half))] * 2
    start = time.perf_counter()
    sz = szlenk.products.product_sz(factors, half)
    structured = time.perf_counter() - start
    start = time.perf_counter()
    pm = szlenk.pointmodel
    model = pm.ProductModel.of([f for _, f in factors])
    sz_model = pm.sz_product_set(model.tuples(), model, half)
    point_model = time.perf_counter() - start
    tracer = tracing.Tracer()
    original = szlenk.products.derive_product_set
    szlenk.products.derive_product_set = tracer.wrap("certify", original)
    try:
        start = time.perf_counter()
        szlenk.products.product_sz(factors, half)
        traced = time.perf_counter() - start
    finally:
        szlenk.products.derive_product_set = original
    rows.append({"row": "product_sz against the point model, 2 factors of depth 4",
                 "roadmap": "0.80 s against 0.87 s; 96 % of product_sz in certification",
                 "product_sz_s": structured, "point_model_s": point_model,
                 "certify_share": tracer.total_times(lambda t: 1.0)["certify"] / traced,
                 "sz": sz, "sz_point_model": sz_model})

    suites = {}
    for suite, samples in workloads.A7_SAMPLES.items():
        start = time.perf_counter()
        rep = szlenk.checks.run_suite(suite, samples, 1)
        suites[suite] = time.perf_counter() - start
        assert rep.failed == 0
    total = sum(suites.values())
    rows.append({"row": "suite sweep at the A7 sample counts, seed 1",
                 "roadmap": "5.0 s in total, lecondsast 2.26 s of it",
                 "total_s": total, "lecondsast_s": suites["lecondsast"],
                 "lecondsast_share": suites["lecondsast"] / total, "suites_s": suites})
    return rows


def excluded_sizes() -> list[dict]:
    """One op of each size left out of the catalogues, under a timeout."""
    out = []
    cases = [(f"chain depth {d}", workloads.set_doc(workloads.chain(d)), 60) for d in (22, 24, 26)]
    rng = random.Random("perfbench:excluded")
    cases.append(("3 random narrow factors at depth 3", workloads.set_doc(
        {"prod": {"factors": [workloads.narrow_fan(rng, 3) for _ in range(3)]}}), 120))
    cases.append(("3 chain factors at depth 4", workloads.set_doc(
        {"prod": {"factors": [workloads.chain(4)] * 3}}), 120))
    for i, (label, doc, timeout) in enumerate(cases):
        wall = cli_wall(["set", "derive", write_doc(f"excluded-{i}", doc), "--eps-q", "1/2"], timeout)
        out.append({"size": label, "wall_s": wall, "timeout_s": timeout,
                    "result": "timed out" if wall is None else "finished"})
        print(f"excluded {label}: {wall}", file=sys.stderr)
    return out


def environment() -> dict:
    c = clock.Clock()
    for _ in range(20):
        c.pulse()
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "machine": platform.machine(), "nproc": os.cpu_count(), "loadavg": os.getloadavg(),
            "calibration_kernel_ms": statistics.median(c.pulses) * 1e3}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True)
    ns = ap.parse_args()
    out = {"command": BENCH["command"], "run_seconds": BENCH["run_seconds"],
           "environment_before": environment(), "workloads": {}}
    for w in workloads.WORKLOADS:
        sets = []
        for k in range(SETS):
            seeds = list(range(1 + k * SEEDS, 1 + (k + 1) * SEEDS))
            results = [bench(w, s, 0) for s in seeds]
            sets.append({"seeds": seeds, "all_correct": all(r["correct"] for r in results),
                         "failed": sum(r["failed"] for r in results),
                         "attempted": [r["attempted"] for r in results],
                         "wall_s": [r["wall_s"] for r in results],
                         "metrics": metric_table(results)})
        traced = [bench(w, 100 + s, 1) for s in range(TRACED_SEEDS)]
        sweep = {}
        for size in traced[0]["sweep"]:
            sweep[size] = statistics.median(t["sweep"][size]["median_ms"] for t in traced)
        out["workloads"][w] = {"untraced": sets, "agreement": agreement(sets), "traced": {
            "seeds": [100 + s for s in range(TRACED_SEEDS)],
            "all_correct": all(r["correct"] for r in traced),
            "metrics": metric_table(traced), "sweep_median_ms": sweep}}
    szlenk = run.import_szlenk()
    out["baseline_rows"] = baseline_rows(szlenk)
    out["excluded_sizes"] = excluded_sizes()
    out["environment_after"] = environment()
    ns.out.parent.mkdir(parents=True, exist_ok=True)
    ns.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
