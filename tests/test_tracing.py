"""The benchmark's tracer (perfbench/tracing.py) still finds every name it
wraps in the package, and puts every original back."""
import importlib.util
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

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
    # one staircase span per step (sz_eps = 3), and no exact point-set
    # derivation: the terms are the derived set
    assert tracer.counts["products.staircase.calls"] == 3
    assert tracer.counts["products.certify.calls"] == 0
    assert snapshot() == before


def test_no_exact_derivation_per_step_with_several_terms(capsys, tmp_path):
    """No step runs the exact point-set derivation (the `products.certify`
    span), however many terms the step's staircases produce: two depth-2
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
    assert tracer.counts["products.certify.calls"] == 0


@pytest.mark.parametrize("suite", ["unionlemma1", "tvl"])
def test_point_model_spans_on_verify(capsys, monkeypatch, suite):
    """One verify op per suite, traced: the tracer installs, and the
    `pointmodel.materialize` and `pointmodel.derive` spans still record,
    with `pointmodel.points` the number of points the built models hold
    (each model's factors are materialized once, by `ProductModel.of`).
    `tvl` derives a disjoint union's projection on the union's own model,
    so no projected forest is remapped (`pointmodel.cluster_map`)."""
    built = []
    of = szlenk.pointmodel.ProductModel.of

    def recorded(factors):
        built.append(of(factors))
        return built[-1]

    monkeypatch.setattr(szlenk.pointmodel.ProductModel, "of", staticmethod(recorded))
    tracer = load_tracing().Tracer()
    tracer.install(szlenk)
    try:
        code = main(["verify", suite, "--samples", "3", "--seed", "0"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == EXIT_OK
    names = {span[0] for span in tracer.spans}
    assert {"pointmodel.materialize", "pointmodel.derive"} <= names
    held = sum(len(norms) for model in built for norms in model.norms)
    assert built and tracer.counts["pointmodel.points"] == held
    assert tracer.counts["pointmodel.cluster_map.calls"] == 0
