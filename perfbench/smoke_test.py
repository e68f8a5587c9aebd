"""Smoke test of the benchmark at tiny size.

    python3 -m pytest -q perfbench/smoke_test.py

Checks that every metric in BENCHMARK.json is emitted with its unit, traced
and untraced, and that a report whose recorded digest is corrupted counts as
a failed op.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    cmd = [sys.executable, str(HERE / "run.py"), "--seed", "3", "--seconds", "0", "--tiny", *args]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    code, result = bench("--workload", workload, "--trace", str(trace))
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_corrupted_digest_counts_as_failed_op():
    digests = json.loads((HERE / "digests.json").read_text())
    key = "symbolic/chain-d4-q2"
    digests[key]["sha256"] = "0" * 64
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    path = work / "corrupted-digests.json"
    path.write_text(json.dumps(digests))
    code, result = bench("--workload", "symbolic", "--trace", "0", "--digests", str(path))
    assert code == 1
    assert result["correct"] is False
    # the corrupted op fails in every timed pass, and only that op fails
    passes = result["attempted"] // len(workloads.tiny(workloads.catalogue("symbolic").ops))
    assert result["failed"] == passes >= 1
