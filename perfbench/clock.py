"""Machine-speed calibration for the benchmark's times.

On a shared machine the same op runs up to twice as slow for stretches of
seconds to minutes, while other tenants load the cores.  A run therefore
times a fixed calibration kernel (stdlib only, so no change to the package
can move it) every PULSE_GAP_S seconds, and scales each measured time by
NOMINAL_PULSE_S over the median kernel time of the pulses around it.  Times
reported by the benchmark are nominal seconds: seconds on a machine where
one kernel call takes exactly NOMINAL_PULSE_S.

Set-up is timed in fresh interpreters (setup_once.py), where the kernel
tracks the machine's speed poorly: starting a process and importing modules
slow down by another factor than warm arithmetic does.  Each set-up is
therefore timed next to a reference set-up that imports a fixed set of
standard-library modules, and scaled by NOMINAL_REFERENCE_S over the
reference's time.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import json
import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_PULSE_S = 0.020
NOMINAL_REFERENCE_S = 0.100
PULSE_GAP_S = 0.4
WINDOW = 3  # pulses on each side of a time that set its scale


def _tree(depth: int):
    return () if depth == 0 else (_tree(depth - 1), _tree(depth - 1))


def _count(node) -> int:
    return 1 + sum(_count(c) for c in node)


_TREE = _tree(12)


def _dispatch() -> int:
    """Build a small sub-command parser and parse a command line, as the CLI
    does once per op."""
    parser = argparse.ArgumentParser(prog="kernel")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("a", "b", "c", "d"):
        p = sub.add_parser(name)
        p.add_argument("x")
        p.add_argument("--y", type=int, default=1)
    return parser.parse_args(["b", "v", "--y", "3"]).y + len(json.loads('{"a": [1, {"b": "3/4"}]}'))


def kernel() -> int:
    """Fixed work in the package's style: rational arithmetic hashed into
    dicts and sets, recursion over nested tuples, canonical JSON encoding,
    and command-line dispatch (which the small ops are made of)."""
    acc = Fraction(0)
    seen: dict = {}
    for i in range(1, 500):
        x = Fraction(i % 17 + 1, i % 13 + 2)
        acc += x * x
        key = (i % 31, x)
        seen[key] = seen.get(key, 0) + 1
    text = json.dumps({str(i): [str(i * 7), [i, i + 1], {"a": i}] for i in range(1300)},
                      sort_keys=True)
    return len(frozenset(seen)) + _count(_TREE) + len(text) + sum(_dispatch() for _ in range(12))


class Clock:
    """The kernel times of one run, and the nominal rate they imply."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.pulses: list[float] = []
        self.last = float("-inf")

    def pulse(self) -> None:
        # without collections, the kernel's time does not depend on the heap
        gc.disable()
        try:
            start = perf_counter()
            kernel()
            end = perf_counter()
        finally:
            gc.enable()
        self.times.append((start + end) / 2)
        self.pulses.append(end - start)
        self.last = end

    def maybe_pulse(self) -> None:
        if perf_counter() - self.last >= PULSE_GAP_S:
            self.pulse()

    def scale(self, t: float) -> float:
        """Nominal seconds per measured second around time t."""
        i = bisect.bisect(self.times, t)
        near = self.pulses[max(0, i - WINDOW):i + WINDOW]
        return NOMINAL_PULSE_S / statistics.median(near)

    def nominal(self, start: float, end: float) -> float:
        return (end - start) * self.scale((start + end) / 2)
