"""One set-up of a benchmark run, in a fresh interpreter.

    python3 perfbench/setup_once.py WORKLOAD DOCDIR
    python3 perfbench/setup_once.py --reference

Imports ``szlenk`` from src/, then builds the workload's input documents,
writes them to DOCDIR and reads them back (``workloads.build_inputs``).  It
prints the seconds that took.  Nothing but what the interpreter loads at
start-up is imported before the clock starts, so every module the package
pulls in, and any work it does at import time, is in the time.

With --reference it imports a fixed set of standard-library modules instead
and prints the seconds that took: the work of a set-up without the package,
which calibrates set-up times (see clock.py).
"""
import os
import sys
import time

start = time.perf_counter()
if sys.argv[1] == "--reference":
    import argparse, csv, dataclasses, decimal, email.message, fractions, http.client  # noqa: E401,F401
    import json, logging, statistics, tarfile, unittest, xml.dom.minidom  # noqa: E401,F401
else:
    HERE = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
    import szlenk.cli  # noqa: F401
    import workloads
    from pathlib import Path

    workloads.build_inputs(sys.argv[1], False, Path(sys.argv[2]))
print(time.perf_counter() - start)
