"""The benchmark's independent report checks (perfbench/run.py,
``check_report``) still run against the package, so renaming a name they
call fails here and not only in the benchmark.  perfbench/ is only read."""
import pytest

import szlenk
from szlenk.cli import EXIT_OK, main


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
