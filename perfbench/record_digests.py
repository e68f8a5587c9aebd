#!/usr/bin/env python3
"""Record the report digest and exit code of every catalogue op.

    python3 perfbench/record_digests.py

Run it at the commit whose reports are the reference; it rewrites
perfbench/digests.json.  Reports must stay byte-identical across commits,
so a later commit only re-records when a report change is intended.
Every report is also put through the run's independent check first, and
nothing is written if one fails.
"""
import json
import sys

import run
import workloads


def main() -> int:
    szlenk = run.import_szlenk()
    digests, failures = {}, []
    for name in workloads.WORKLOADS:
        ops = workloads.build_inputs(name, False, run.WORK / f"docs-{name}")
        for op, argv in ops:
            code, report, err, error = run.call(szlenk.cli.main, argv)
            reason = error or run.check_report(szlenk, op, argv, report)
            if reason:
                failures.append(f"{op.key}: {reason} {err.strip()}")
            digests[op.key] = {"exit": code, "sha256": run.digest(report)}
        print(f"{name}: {len(ops)} ops", file=sys.stderr)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
