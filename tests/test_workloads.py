"""The benchmark checks the `set derive` reports of its smallest products
(``product_sz``, which derives on the staircase) with the point model's
``sz_product_set`` (perfbench/run.py); here the slow oracle, on its own
two-copy materialization, checks both on the same products.
perfbench/workloads.py is only read."""
import importlib.util
import itertools
import sys
from fractions import Fraction
from pathlib import Path

from oracle import oracle_materialize, oracle_p_sz
from szlenk.documents import fanset_from_doc
from szlenk.pointmodel import ProductModel, sz_product_set
from szlenk.products import product_sz

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_small_benchmark_products_match_oracle():
    cat = load_workloads().catalogue("products")
    checked = 0
    for op in cat.ops:
        if op.kind != "product":
            continue
        nf, depth = map(int, op.size.split("x"))
        if nf * depth > 4:
            continue
        name = next(a[1:] for a in op.argv if a.startswith("@"))
        eps_q = Fraction(op.argv[op.argv.index("--eps-q") + 1])
        F, _ = fanset_from_doc(cat.docs[name])
        whole = frozenset(itertools.product(*map(oracle_materialize, F.factors)))
        want = oracle_p_sz(whole, eps_q)
        assert product_sz([(Fraction(1), f) for f in F.factors], eps_q) == want, op.key
        model = ProductModel.of(list(F.factors))
        assert sz_product_set(model.tuples(), model, eps_q) == want, op.key
        checked += 1
    assert checked == 44
