#!/usr/bin/env python3
"""The szlenk benchmark: one workload, one fresh process, one closed loop.

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One client runs the workload's op catalogue (perfbench/workloads.py) in
passes; the seed fixes the op order of every pass.  Each op is one in-process
``szlenk.cli.main(argv)`` call whose report is captured in memory, so the
loop times the program and not interpreter start-up.

A run is: set-up (import ``szlenk``, build and write the input documents,
read them back), timed in SETUP_REPEATS fresh interpreters (setup_once.py)
against a reference set-up, whose median is reported as ``setup_s``; then
whole passes, at least MIN_PASSES, until --seconds have elapsed.  Every op execution is checked against its exit code and the report
digest recorded in digests.json; the first execution of each op in the run
also gets an independent check of its report (``check_report``), outside the
timed call.

Times are nominal (see clock.py), and an op's latency is its median time
over the run's passes (see ``op_ms``): ``latency_p50_ms``/``latency_p90_ms``
are quantiles over the catalogue's ops and ``ops_per_s`` is the op count over
the sum of those latencies, i.e. the throughput of one pass.  ``ok_ratio`` is
1 - failed executions / attempted executions (the failed ratio itself is
printed too; a metric that is 0 on a correct run cannot carry a relative
bound).

With --trace 0 the end-to-end metrics are printed.  With --trace 1 untraced
and traced passes alternate; the traced passes give the per-layer metrics
(perfbench/tracing.py, per catalogue pass), the untraced ones the latency by
input size, and their throughput ratio the tracing overhead.  Spans are
written to .perfbench_work/ at the end.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 when every op passed, 1 when one failed and 2
when the benchmark could not run (no sources, bad arguments).
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 7  # fresh interpreters timed per run
MIN_PASSES = 3  # untraced passes per run; an op's latency is its median
MIN_TRACED_PASSES = 2  # pairs of an untraced and a traced pass

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402
from clock import NOMINAL_PULSE_S, NOMINAL_REFERENCE_S, Clock  # noqa: E402


class Unavailable(RuntimeError):
    """The checkout has no package sources to benchmark."""


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def import_szlenk():
    """Import the package under src/."""
    if not (SRC / "szlenk" / "__init__.py").is_file():
        raise Unavailable(f"no package sources at {SRC.relative_to(ROOT)}/szlenk")
    sys.path.insert(0, str(SRC))
    import szlenk
    import szlenk.cli  # noqa: F401
    if Path(szlenk.__file__).resolve().parent != SRC / "szlenk":
        raise Unavailable(f"imported szlenk from {szlenk.__file__}, not from src/")
    return szlenk


def fresh_setup(*args: str) -> float:
    """Seconds of one set-up in a fresh interpreter (setup_once.py)."""
    proc = subprocess.run([sys.executable, str(HERE / "setup_once.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return float(proc.stdout)


def setup(workload: str, tiny: bool, docdir: Path):
    """Time SETUP_REPEATS set-ups, each in a fresh interpreter and each
    against a reference set-up run just before it, then set up this process;
    returns the package, the ops and the median set-up time (nominal s)."""
    szlenk = import_szlenk()
    ratios = []
    for _ in range(SETUP_REPEATS):
        reference = fresh_setup("--reference")
        ratios.append(fresh_setup(workload, str(docdir)) / reference)
    ops = workloads.build_inputs(workload, tiny, docdir)
    return szlenk, ops, statistics.median(ratios) * NOMINAL_REFERENCE_S


# ---------------------------------------------------------------------------
# one op
# ---------------------------------------------------------------------------


def call(main, argv):
    """Run one CLI invocation; returns (exit code, report, stderr, error)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # an uncaught error is a failed op, not a crash
        return None, out.getvalue(), err.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue(), None


def digest(report: str) -> str:
    return hashlib.sha256(report.encode("utf-8")).hexdigest()


def check_report(szlenk, op, argv, report: str) -> str | None:
    """Independent check of one report; returns a reason when it fails."""
    doc = json.loads(report)
    kind, *args = op.check
    if kind == "chain":
        (depth,) = args
        # w_q = eps_q = 1/2: each step removes one level, so depth + 1 steps.
        if doc["trace"]["sz_eps"] != depth + 1:
            return f"sz_eps {doc['trace']['sz_eps']} != depth + 1 = {depth + 1}"
        if depth <= 8:
            half = Fraction(1, 2)
            model = szlenk.pointmodel.model_sz(szlenk.fansets.depth_fan(depth, half), half)
            if model != depth + 1:
                return f"point model gives sz {model} for depth {depth}"
    elif kind == "settles":
        if doc["trace"]["sz_eps"] is None:
            return "did not settle within the step budget"
    elif kind == "space":
        want_kind, want_rule = args
        got = doc["result"]
        if (got["kind"], got["rule"]) != (want_kind, want_rule):
            return f"got {got['kind']}/{got['rule']}, want {want_kind}/{want_rule}"
    elif kind == "ord":
        if doc != args[0]:
            return f"CNF {doc} != {args[0]}"
    elif kind == "sigma":
        a, b, c, d = args
        body = (2 * a / (b - c)) ** d - (b / (b - c)) ** d + 1
        want = max(1, -((-body.numerator) // body.denominator))
        if doc["value"] != want:
            return f"sigma {doc['value']} != {want}"
    elif kind == "frount":
        d, eps, q, m = args
        need = Fraction(8) ** q * d ** q * (m - 1) / ((2 ** q - 1) * eps ** q)
        want = max(m, -((-need.numerator) // need.denominator))
        if doc["value"] != want:
            return f"M {doc['value']} != {want}"
    elif kind == "verify":
        (n,) = args
        if doc["failed"] != 0 or doc["passed"] != n:
            return f"{doc['failed']} of {n} cases failed"
    elif kind == "product":
        (small,) = args
        if doc.get("chain_nesting_violated") or doc["sz_eps"] is None:
            return "product derivation did not settle"
        if small:
            path = next(a for a in argv if a.endswith(".json"))
            F, _ = szlenk.documents.fanset_from_doc(json.loads(Path(path).read_text()))
            pm = szlenk.pointmodel
            model = pm.ProductModel.of(list(F.factors))
            eps_q = Fraction(op.argv[op.argv.index("--eps-q") + 1])
            want = pm.sz_product_set(model.tuples(), model, eps_q)
            if doc["sz_eps"] != want:
                return f"sz_eps {doc['sz_eps']} != point model {want}"
    elif kind == "cover":
        l, n = args
        q = int(doc["q"])
        tuples = {tuple(k) for k in doc["tuples"]}
        if len(tuples) != len(doc["tuples"]) or len(doc["products"]) != len(tuples):
            return "cover tuples repeat or do not match the products"
        for k in tuples:
            if len(k) != n or min(k) < 1 or sum(ki ** q for ki in k) > (l + n) ** q:
                return f"cover tuple {k} is outside the ball of radius l + n"
            if any(k[:i] + (k[i] - 1,) + k[i + 1:] not in tuples for i in range(n) if k[i] > 1):
                return f"cover is not down-closed at {k}"
        if (l,) + (1,) * (n - 1) not in tuples:
            return f"cover misses {(l,) + (1,) * (n - 1)}"
    return None


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------


class Run:
    """The op catalogue of one run and the latencies its passes measured."""

    def __init__(self, szlenk, ops, digests, seed: int, workload: str, clock: Clock):
        self.szlenk = szlenk
        self.clock = clock
        self.ops = ops
        self.digests = digests
        self.rng = random.Random(f"perfbench:{workload}:{seed}")
        self.bad: dict[str, str] = {}
        self.checked: set[str] = set()
        self.attempted = 0
        self.failed = 0

    def expect(self, op, code, report, error) -> str | None:
        want = self.digests.get(op.key)
        if error is not None:
            return error
        if want is None:
            return "no recorded digest"
        if code != want["exit"]:
            return f"exit {code}, want {want['exit']}"
        if digest(report) != want["sha256"]:
            return "report digest differs from the recorded one"
        return None

    def check(self, op, argv, report) -> str | None:
        try:
            return check_report(self.szlenk, op, argv, report)
        except (KeyError, TypeError, ValueError) as exc:
            return f"unreadable report: {type(exc).__name__}: {exc}"

    def timed_pass(self, main, lat: dict) -> None:
        """Every op once, in seeded order; appends its (start, end) to lat[key].

        An op fails on an exception, an unexpected exit code or a report
        digest other than the recorded one; its first run in this process
        also gets the independent check, outside the timed call."""
        for op, argv in self.rng.sample(self.ops, len(self.ops)):
            t0 = time.perf_counter()
            code, report, err, error = call(main, argv)
            t1 = time.perf_counter()
            lat.setdefault(op.key, []).append((t0, t1))
            self.attempted += 1
            reason = self.expect(op, code, report, error)
            if reason is None and op.key not in self.checked:
                self.checked.add(op.key)
                reason = self.check(op, argv, report)
            if reason is not None:
                self.bad.setdefault(op.key, reason + (f" [{err.strip()}]" if err.strip() else ""))
            if op.key in self.bad:
                self.failed += 1
            self.clock.maybe_pulse()


def quantile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def op_ms(lat: dict, clock: Clock | None) -> dict[str, float]:
    """Each op's median latency over the run's passes, in nominal ms
    (measured ms without a clock)."""
    if clock is None:
        return {k: statistics.median(e - s for s, e in v) * 1e3 for k, v in lat.items()}
    return {k: statistics.median(clock.nominal(s, e) for s, e in v) * 1e3 for k, v in lat.items()}


def latency_metrics(per_op: dict[str, float]) -> dict[str, float]:
    ms = sorted(per_op.values())
    return {"ops_per_s": len(ms) / (sum(ms) / 1e3),
            "latency_p50_ms": quantile(ms, 50), "latency_p90_ms": quantile(ms, 90)}


def end_to_end(lat, clock, passes, setup_s, attempted, failed) -> tuple[dict, list[str]]:
    per_op = op_ms(lat, clock)
    nominal = latency_metrics(per_op)
    p90 = nominal["latency_p90_ms"]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (nominal["ops_per_s"], "ops/s"),
        "latency_p50_ms": (nominal["latency_p50_ms"], "ms"),
        "latency_p90_ms": (p90, "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "1"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }
    lines = [f"{k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines.append(f"latency samples = {len(per_op)} ops, each the median of {passes} passes "
                 f"({sum(1 for v in per_op.values() if v > p90)} beyond p90)")
    lines.append(f"failed_ratio = {failed / attempted:.6g} 1 ({failed} of {attempted} executions)")
    raw = latency_metrics(op_ms(lat, None))
    lines.append("measured (not nominal): " + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))
    lines.append(f"calibration kernel: median {statistics.median(clock.pulses) * 1e3:.4g} ms "
                 f"over {len(clock.pulses)} pulses (nominal {NOMINAL_PULSE_S * 1e3:g} ms)")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def sweep(ops, lat, clock) -> dict[str, dict]:
    """Median of the ops' latencies per input size (chain depth,
    factors x depth, cover L, suite), in nominal ms."""
    per_op = op_ms(lat, clock)
    groups: dict[str, list[float]] = {}
    for op, _ in ops:
        groups.setdefault(f"{op.kind} {op.size}", []).append(per_op[op.key])
    return {k: {"median_ms": statistics.median(v), "ops": len(v)} for k, v in sorted(groups.items())}


def run(args) -> int:
    workload = args.workload
    docdir = WORK / f"docs-{workload}"
    szlenk, resolved, setup_s = setup(workload, args.tiny, docdir)
    clock = Clock()
    digests = json.loads(DIGESTS.read_text())
    if args.digests is not None:
        digests = json.loads(Path(args.digests).read_text())
    r = Run(szlenk, resolved, digests, args.seed, workload, clock)

    gc.collect()
    main = szlenk.cli.main
    lat: dict[str, list[tuple[float, float]]] = {}
    passes = 0
    start = time.perf_counter()
    if not args.trace:
        while passes < MIN_PASSES or time.perf_counter() - start < args.seconds:
            r.timed_pass(main, lat)
            passes += 1
            gc.collect()
        clock.pulse()
        metrics, lines = end_to_end(lat, clock, passes, setup_s, r.attempted, r.failed)
    else:
        tracer = tracing.Tracer()
        traced_main = _op_ids(tracer, tracer.wrap("cli.main", main))
        traced_lat: dict[str, list[tuple[float, float]]] = {}
        while passes < MIN_TRACED_PASSES or time.perf_counter() - start < args.seconds:
            r.timed_pass(main, lat)
            gc.collect()
            tracer.install(szlenk)
            try:
                r.timed_pass(traced_main, traced_lat)
            finally:
                tracer.uninstall()
            passes += 1
            gc.collect()
        clock.pulse()
        layers = tracing.layer_metrics(tracer, passes, clock.scale)
        # traced ops/s over untraced ops/s
        layers["trace.overhead_ratio"] = (sum(op_ms(lat, clock).values())
                                          / sum(op_ms(traced_lat, clock).values()))
        layers["trace.spans"] = len(tracer.spans) / passes
        metrics = {k: {"value": v, "unit": "1" if k == "trace.overhead_ratio" else tracing.unit_of(k)}
                   for k, v in layers.items()}
        lines = [f"{k} = {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
        sizes = sweep(resolved, lat, clock)
        lines += [f"sweep {k}: median {v['median_ms']:.4g} ms over {v['ops']} ops" for k, v in sizes.items()]
        out = WORK / f"trace-{workload}.json"
        out.write_text(json.dumps({
            "workload": workload, "seed": args.seed, "passes": passes,
            "names": "name,start_s,end_s,parent,op",
            "spans": tracer.spans, "layers": layers, "sweep": sizes,
        }, separators=(",", ":")))
        lines.append(f"spans written to {out.relative_to(ROOT)}")

    for key, reason in sorted(r.bad.items()):
        print(f"FAILED {key}: {reason}", file=sys.stderr)
    print(f"workload {workload} seed {args.seed}: {len(resolved)} ops per pass, {passes} passes")
    for line in lines:
        print(line)
    correct = r.failed == 0 and not r.bad
    print(json.dumps({"correct": correct, "attempted": r.attempted, "failed": r.failed, "metrics": metrics}))
    return 0 if correct else 1


def _op_ids(tracer, traced_main):
    """cli.main as a span, numbering the ops so their spans share an id."""
    def main(argv):
        tracer.op += 1
        return traced_main(argv)
    return main


def run_all(args) -> int:
    """Every workload in its own fresh process; the last line maps each
    workload to its result."""
    results, code = {}, 0
    for w in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        if args.digests is not None:
            cmd += ["--digests", args.digests]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {w} exited with {proc.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        results[w] = json.loads(lines[-1])
        code = max(code, proc.returncode)
    print(json.dumps(results))
    return code


def parse_args(argv):
    ap = argparse.ArgumentParser(description="szlenk benchmark (one workload per process)")
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="a few cheap ops per pass (smoke test)")
    ap.add_argument("--digests", default=None, help="digest file to check against (smoke test)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run(args)
    except Unavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
