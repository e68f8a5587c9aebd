"""The scripts write the same reports as the command line."""
import subprocess
import sys
from pathlib import Path

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
