"""Fixtures shared by the tests that read perfbench/ (and never write it)."""
import importlib.util
import sys
from pathlib import Path

import pytest

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
