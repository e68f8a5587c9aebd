"""The benchmark's independent report checks (perfbench/run.py,
``check_report``) still run against the package, so renaming a name they
call fails here and not only in the benchmark.  perfbench/ is only read."""
import importlib.util
import sys
from pathlib import Path

import pytest

import szlenk
from szlenk.cli import EXIT_OK, main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """perfbench/run.py as a module; the sys.path entry and the perfbench
    modules its import adds are taken out again afterwards."""
    path, before = list(sys.path), set(sys.modules)
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = path
        for name in set(sys.modules) - before:
            if str(getattr(sys.modules[name], "__file__", "")).startswith(str(PERFBENCH)):
                del sys.modules[name]


@pytest.mark.parametrize(
    "workload, check",
    [("symbolic", ("chain", 4)), ("products", ("product", True))],
    ids=["chain", "product"],
)
def test_check_report_accepts_the_report(bench, tmp_path, capsys, workload, check):
    ops = bench.workloads.build_inputs(workload, False, tmp_path)
    op, argv = next((op, argv) for op, argv in ops if op.check == check)
    assert main(argv) == EXIT_OK
    report = capsys.readouterr().out
    assert bench.check_report(szlenk, op, argv, report) is None
