"""The scripts write the same reports as the command line, at the sample
counts of the acceptance gate and the benchmark; the product sweep runs at a
tiny size."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from test_acceptance import FULL_SCALE
from szlenk.checks import SUITES
from szlenk.cli import EXIT_OK, main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_run_verify_all_reports_match_cli(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_verify_all.py"), "--scale", "0.05", "--out-dir", str(out_dir)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:-1]]
    assert [row[0] for row in rows] == list(SUITES)
    for suite, samples, *_ in rows:
        target = tmp_path / f"{suite}.json"
        code = main(["verify", suite, "--samples", samples, "--seed", "1", "--out", str(target)])
        assert code == EXIT_OK
        assert (out_dir / f"{suite}.json").read_bytes() == target.read_bytes()
    capsys.readouterr()


def test_one_a7_table(bench):
    """scripts/run_verify_all.py, the A7 gate and the benchmark's verify
    workload (perfbench/workloads.py, only read) run the suites at the same
    full sample counts."""
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location("run_verify_all", SCRIPTS / "run_verify_all.py")
    script = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(script)
    finally:
        sys.path[:] = path
    assert list(script.FULL_SAMPLES) == list(SUITES)
    assert script.FULL_SAMPLES == dict(FULL_SCALE) == bench.workloads.A7_SAMPLES


def test_product_sweep_prints_one_json_line():
    """scripts/product_sweep.py at a tiny size: one JSON line, one row per
    product, the same sz from `product_sz` and the kernel-only loop, and
    one row for a one-factor chain of depth 3, with its build's peak
    memory."""
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "product_sweep.py"), "--depths", "2", "3", "--four", "2",
         "--ones", "3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    doc = json.loads(line)
    rows = doc["rows"]
    assert [(r["factors"], r["depth"]) for r in rows] == [(3, 2), (3, 3), (4, 2)]
    assert all(r["sz"] >= 1 and r["ratio"] > 0 for r in rows)
    (one,) = doc["ones"]
    assert (one["depth"], one["sz"]) == (3, 4)
    assert one["build_s"] >= 0 and one["kernel_s"] >= 0
    assert one["build_peak_mib"] >= 0
