"""Reports stay byte-identical: every benchmark catalogue op, run in-process
on documents written under a temporary directory, reproduces the exit code
and report sha256 recorded in perfbench/digests.json.  perfbench/ is only
read; its run.py supplies ``DIGESTS``, ``call`` and ``digest``."""
import json

from szlenk.cli import main


def test_every_catalogue_op_reproduces_its_digest(bench, tmp_path):
    want = json.loads(bench.DIGESTS.read_text())
    got, bad = {}, []
    for workload in bench.workloads.WORKLOADS:
        for op, argv in bench.workloads.build_inputs(workload, False, tmp_path / workload):
            code, report, _, error = bench.call(main, argv)
            got[op.key] = {"exit": code, "sha256": bench.digest(report)}
            if error is not None or got[op.key] != want.get(op.key):
                bad.append(f"{op.key}: {error or got[op.key]}")
    assert bad == []
    assert set(got) == set(want)
