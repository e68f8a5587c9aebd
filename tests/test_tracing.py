"""The benchmark's tracer (perfbench/tracing.py) still finds every name it
wraps in the package, and puts every original back."""
import importlib.util
import json
from fractions import Fraction as F
from pathlib import Path

import szlenk
from szlenk.cli import EXIT_OK, main
from szlenk.documents import dumps_canonical, fanset_to_doc
from szlenk.fansets import Fan, ProdQ, Sing, depth_fan

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
MODULES = ("cli", "documents", "calculus", "checks", "fansets", "pointmodel", "products", "ordinal")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot() -> dict:
    out = {name: dict(vars(getattr(szlenk, name))) for name in MODULES}
    out["SUITES"] = dict(szlenk.checks.SUITES)
    return out


def test_tracer_install_and_uninstall(capsys, tmp_path):
    before = snapshot()
    tracer = load_tracing().Tracer()
    tracer.install(szlenk)
    try:
        fan = Fan(F(1, 2), (), Sing())
        path = tmp_path / "p.json"
        path.write_text(dumps_canonical(fanset_to_doc(ProdQ((fan, fan)), F(2))), encoding="utf-8")
        code = main(["set", "derive", str(path), "--eps-q", "1/4", "--steps", "8"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == EXIT_OK
    # one staircase span and one exact derivation per step (sz_eps = 3)
    assert tracer.counts["products.staircase.calls"] == 3
    assert tracer.counts["products.certify.calls"] == 3
    assert snapshot() == before


def test_one_exact_derivation_per_step_with_several_terms(capsys, tmp_path):
    """The `products.certify` span times the one exact derivation of each
    step, however many terms the step's staircases produce: two depth-2
    chains at eps_q = 1/2 hold 2, 3, 2, 1 and 0 terms over five steps."""
    tracer = load_tracing().Tracer()
    tracer.install(szlenk)
    try:
        chain = depth_fan(2, F(1, 2))
        path = tmp_path / "p.json"
        path.write_text(dumps_canonical(fanset_to_doc(ProdQ((chain, chain)), F(1))), encoding="utf-8")
        code = main(["set", "derive", str(path), "--eps-q", "1/2"])
    finally:
        tracer.uninstall()
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert [s["terms"] for s in doc["steps"]] == [1, 2, 3, 2, 1, 0]
    assert tracer.counts["products.staircase.calls"] == 5
    assert tracer.counts["products.certify.calls"] == tracer.counts["products.staircase.calls"]
