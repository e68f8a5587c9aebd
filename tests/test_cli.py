"""Tests for the command-line front end."""
import contextlib
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from szlenk import ordinal
from szlenk.calculus import (
    Atom,
    ConstNorms,
    ConstTail,
    Copies,
    CSpace,
    DirectSum,
    EpsProfile,
    FiniteSum,
    GeometricNorms,
    LadderMembers,
    LadderTail,
    ParamFamily,
)
from szlenk import cli, fansets, pointmodel, products
from szlenk.cli import COMMANDS, EXIT_OK, EXIT_USAGE, _printable, _render_text, build_parser, main
from szlenk.documents import dumps_canonical, fan_node_to_doc, fanset_to_doc, space_to_doc
from szlenk.exactmath import pow_bounds
from szlenk.fansets import DisjUnion, Fan, ProdQ, Scale, Sing, UnionApex, depth_fan, derive_steps
from szlenk.ordinal import ONE, Ordinal
from oracle import reference_trace_doc
from strategies import fan_sets
from test_products import reference_bq_cover
from test_workloads import load_workloads

F = Fraction
W = ordinal.parse("w")
F1 = Fan(F(1, 2), (), Sing())


# (points, terms) at each step of `set derive` on k depth-4 chains at
# eps_q = 1/2, as the two-copy point model reported them
TWO_COPY_CHAIN_STEPS = {
    2: [(961, 1), (705, 2), (449, 3), (257, 4), (129, 5), (49, 4), (17, 3), (5, 2),
        (1, 1), (0, 0)],
    3: [(29791, 1), (25695, 3), (19551, 6), (13407, 10), (8287, 15), (4447, 18),
        (2143, 19), (927, 18), (351, 15), (111, 10), (31, 6), (7, 3), (1, 1), (0, 0)],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dumps_canonical(doc), encoding="utf-8")
    return str(path)


class TestOrd:
    def test_cnf_json(self, capsys):
        code, out, _ = run(capsys, "ord", "w^2*3 + w")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert ordinal.from_json(doc) == ordinal.parse("w^2*3 + w")
        assert doc["cnf"][0][1] == 3

    def test_absorption(self, capsys):
        code, out, _ = run(capsys, "ord", "w + w^2")
        assert code == EXIT_OK
        assert ordinal.from_json(json.loads(out)) == ordinal.parse("w^2")

    def test_parse_error_exits_2(self, capsys):
        code, out, err = run(capsys, "ord", "w^^")
        assert code == EXIT_USAGE
        assert out == ""
        assert "position" in err

    def test_deeply_nested_expression_exits_2(self, capsys):
        code, out, err = run(capsys, "ord", "w^(" * 400 + "1" + ")" * 400)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "ord", "w^2*3 + w", "--format", "text")
        assert code == EXIT_OK
        assert out == "w^2*3 + w\n"


class TestSpaceEval:
    def test_single_atom_identity(self, capsys, tmp_path):
        atom = Atom("E", F(1), EpsProfile(((F(1, 2), Ordinal.from_int(1)),), ConstTail(Ordinal.from_int(2))))
        path = write_doc(tmp_path, "atom.json", space_to_doc(atom))
        code, out, _ = run(capsys, "space", "eval", path)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["v"] == 1
        assert doc["result"]["rule"] == "identity"
        assert doc["result"]["index_text"] == "2"

    def test_c_space(self, capsys, tmp_path):
        path = write_doc(tmp_path, "c.json", space_to_doc(CSpace(ordinal.parse("w^w"))))
        code, out, _ = run(capsys, "space", "eval", path)
        assert code == EXIT_OK
        assert json.loads(out)["result"]["index_text"] == "w^2"

    def test_ladder_sum_exceeds_member_sup(self, capsys, tmp_path):
        fam = ParamFamily(
            ConstNorms(F(1)),
            LadderMembers(W, Ordinal.from_int(1), Ordinal.from_int(1), F(1), F(1, 2)),
        )
        path = write_doc(tmp_path, "sum.json", space_to_doc(DirectSum("0", fam)))
        code, out, _ = run(capsys, "space", "eval", path)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["result"]["index_text"] == "w^2"
        assert doc["result"]["rule"] == "punibound"

    def test_linf_not_asplund(self, capsys, tmp_path):
        fam = ParamFamily(ConstNorms(F(1)), Copies(EpsProfile(), compact=False))
        path = write_doc(tmp_path, "linf.json", space_to_doc(DirectSum("inf", fam)))
        code, out, _ = run(capsys, "space", "eval", path)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["result"]["kind"] == "not_asplund"
        assert doc["result"]["rule"] == "nonascase"

    def test_boolean_cnf_coefficient_exits_2(self, capsys, tmp_path):
        atom = Atom("E", F(1), EpsProfile((), ConstTail(Ordinal.from_int(2))))
        doc = space_to_doc(atom)
        doc["space"]["atom"]["profile"]["tail"]["const"]["cnf"][0][1] = True
        path = write_doc(tmp_path, "bool.json", doc)
        code, out, err = run(capsys, "space", "eval", path)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "cnf term" in err

    @pytest.mark.parametrize("flag", ["false", "true", 0, None])
    def test_non_boolean_atom_compact_exits_2(self, capsys, tmp_path, flag):
        doc = space_to_doc(Atom("T", F(1), EpsProfile((), ConstTail(Ordinal.from_int(3)))))
        doc["space"]["atom"]["compact"] = False
        code, out, _ = run(capsys, "space", "eval", write_doc(tmp_path, "ok.json", doc))
        assert code == EXIT_OK
        assert json.loads(out)["result"]["index_text"] == "3"
        doc["space"]["atom"]["compact"] = flag
        code, out, err = run(capsys, "space", "eval", write_doc(tmp_path, "bad.json", doc))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "atom compact" in err

    @pytest.mark.parametrize("flag", ["false", "true", 1])
    def test_non_boolean_copies_compact_exits_2(self, capsys, tmp_path, flag):
        fam = ParamFamily(ConstNorms(F(1)), Copies(EpsProfile(), compact=False))
        doc = space_to_doc(DirectSum("inf", fam))
        members = doc["space"]["sum"]["family"]["members"]["copies"]
        assert members["compact"] is False
        members["compact"] = flag
        code, out, err = run(capsys, "space", "eval", write_doc(tmp_path, "bad.json", doc))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "copies compact" in err

    def test_compact_copies_with_nontrivial_profile_exit_2(self, capsys, tmp_path):
        profile = EpsProfile((), ConstTail(Ordinal.from_int(5)))
        fam = ParamFamily(GeometricNorms(F(1), F(1, 2)), Copies(profile, compact=False))
        doc = space_to_doc(DirectSum("0", fam))
        doc["space"]["sum"]["family"]["members"]["copies"]["compact"] = True
        code, out, err = run(capsys, "space", "eval", write_doc(tmp_path, "bad.json", doc))
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: compact family members must have index 1\n"

    @staticmethod
    def l1_chain(tmp_path, n: int) -> str:
        """A document of n nested 1-sums, each of one summand, around one
        ladder atom of index w."""
        atom = Atom("a", F(1), EpsProfile((), LadderTail(ONE, ONE, F(1), F(1, 2))))
        inner = dumps_canonical(space_to_doc(atom)["space"])
        text = '{"space":' + '{"sum":{"p":"1","summands":[' * n + inner + "]}}" * n + ',"v":1}'
        path = tmp_path / f"chain{n}.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_deep_sum_chain_evaluates(self, capsys, tmp_path):
        """300 levels evaluate; the readers' recursion stops the CLI at
        about 330, where it exits 2 (the next test)."""
        code, out, _ = run(capsys, "space", "eval", self.l1_chain(tmp_path, 300))
        assert code == EXIT_OK
        result = json.loads(out)["result"]
        assert (result["index_text"], result["rule"]) == ("w", "nonascase")

    def test_deeply_nested_sum_chain_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "space", "eval", self.l1_chain(tmp_path, 3000))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_bad_document_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"v\": 1}", encoding="utf-8")
        code, out, err = run(capsys, "space", "eval", str(path))
        assert code == EXIT_USAGE
        assert "error:" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "space", "eval", "/nonexistent/nope.json")
        assert code == EXIT_USAGE
        assert "error:" in err


class TestSetDerive:
    def test_depth_fan_trace(self, capsys, tmp_path):
        path = write_doc(
            tmp_path, "d2.json", fanset_to_doc(depth_fan(2, F(1, 2)), F(2))
        )
        code, out, _ = run(capsys, "set", "derive", path, "--eps-q", "1/2", "--steps", "5")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["trace"]["sz_eps"] == 3
        steps = doc["trace"]["steps"]
        assert [s["step"] for s in steps] == [0, 1, 2, 3]
        assert steps[3]["set"] is None
        assert steps[0]["apexes"] == 3

    def test_depth_60_chain(self, capsys, tmp_path):
        path = write_doc(
            tmp_path, "d60.json", fanset_to_doc(depth_fan(60, F(1, 2)), F(2))
        )
        code, out, _ = run(capsys, "set", "derive", path, "--eps-q", "1/2", "--steps", "80")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["trace"]["sz_eps"] == 61
        assert doc["trace"]["steps"][0]["apexes"] == 2**60 - 1

    def test_deeply_nested_document_exits_2(self, capsys, tmp_path):
        n = 3000
        text = '{"v":1,"q":"2","set":' + '{"fan":{"w_q":"1/2","tail":' * n
        text += '{"sing":{}}' + "}}" * n + "}"
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "set", "derive", str(path), "--eps-q", "1/2")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_deepest_accepted_chain_still_derives(self, capsys, tmp_path):
        """474 fan levels exit 0: the deepest chain the command accepted
        here, at the default recursion limit, before its measures and trace
        text were written node by node (475 exited 2).  Those walks take one
        frame per level, like the ones they replaced."""
        n = 474
        text = '{"q":"2","set":' + '{"fan":{"prefix":[],"tail":' * n
        text += '{"sing":{}}' + ',"w_q":"1/2"}}' * n + ',"v":1}'
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "set", "derive", str(path), "--eps-q", "1/2")
        assert (code, err) == (EXIT_OK, "")
        # the report nests as deep as the input, so it is not read back
        assert out.count('"step":') == 33 and out.endswith(',"sz_eps":null,"v":1},"v":1}\n')

    @settings(max_examples=60, deadline=None)
    @given(fan_sets(3), st.sampled_from(["1/8", "1/2", "1"]), st.integers(0, 6))
    def test_reports_match_the_dict_encoded_reference(self, tmp_path_factory, K, eps, m):
        """Both formats of the report, with the snapshots spliced in as
        text, are those of the report that holds each snapshot as a dict."""
        path = tmp_path_factory.getbasetemp() / "derive.json"
        path.write_text(dumps_canonical(fanset_to_doc(K, F(3))), encoding="utf-8")
        steps = derive_steps(K, F(eps), m)
        settled = next((k for k, s in enumerate(steps) if s.snapshot is None), None)
        want = {
            "v": 1,
            "command": "set derive",
            "eps_q": eps,
            "trace": reference_trace_doc(steps, F(3), settled),
        }
        texts = {
            "json": json.dumps(want, sort_keys=True, separators=(",", ":")) + "\n",
            "text": _render_text("set derive", want),
        }
        for fmt, text in texts.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["set", "derive", str(path), "--eps-q", eps, "--steps", str(m), "--format", fmt])
            assert (code, out.getvalue()) == (EXIT_OK, text)

    def test_sing_empties_at_one(self, capsys, tmp_path):
        path = write_doc(tmp_path, "s.json", fanset_to_doc(Sing(), F(1)))
        code, out, _ = run(capsys, "set", "derive", path, "--eps-q", "1/2")
        assert code == EXIT_OK
        assert json.loads(out)["trace"]["sz_eps"] == 1

    def test_budget_exhausted_leaves_sz_null(self, capsys, tmp_path):
        path = write_doc(
            tmp_path, "d4.json", fanset_to_doc(depth_fan(4, F(1, 2)), F(2))
        )
        code, out, _ = run(capsys, "set", "derive", path, "--eps-q", "1/2", "--steps", "2")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["trace"]["sz_eps"] is None
        assert len(doc["trace"]["steps"]) == 3

    def test_product_routed_to_product_iterator(self, capsys, tmp_path):
        path = write_doc(
            tmp_path, "p.json", fanset_to_doc(ProdQ((F1, F1)), F(2))
        )
        code, out, _ = run(capsys, "set", "derive", path, "--eps-q", "1/4", "--steps", "8")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["product"] is True
        assert doc["steps"][0] == {"step": 0, "terms": 1, "points": 9}
        assert doc["sz_eps"] == 3
        assert doc["steps"][-1]["points"] == 0

    def test_oversized_product_exits_2(self, capsys, tmp_path, monkeypatch):
        """Two fans of 600 prefix singletons span 602^2 = 362 404 orbits,
        and eight depth-4 chains 5^8 = 390 625; the model counts them and
        refuses before it materializes any factor."""
        def fail(*args):
            raise AssertionError("the model was built")

        monkeypatch.setattr(pointmodel, "materialize", fail)
        monkeypatch.setattr(pointmodel, "cluster_map", fail)
        wide = Fan(F(1, 2), (Sing(),) * 600, Sing())
        cases = [((wide, wide), 362404), ((depth_fan(4, F(1, 2)),) * 8, 390625)]
        for factors, size in cases:
            path = write_doc(tmp_path, "p.json", fanset_to_doc(ProdQ(factors), F(2)))
            code, out, err = run(capsys, "set", "derive", path, "--eps-q", "1/2")
            assert code == EXIT_USAGE
            assert out == ""
            assert err.splitlines() == [
                f"error: product enumeration too large ({size} orbits, limit 200000)"
            ]

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_products_of_depth_4_chains(self, capsys, tmp_path, k):
        """k depth-4 chains at w_q = eps_q = 1/2 settle at 4k + 1, and step
        0 counts the 31^k points of the two-copy model (5^k orbits).  For
        k = 2 and 3 the report is the two-copy model's, byte for byte."""
        path = write_doc(tmp_path, "p.json", fanset_to_doc(ProdQ((depth_fan(4, F(1, 2)),) * k), F(2)))
        code, out, err = run(capsys, "set", "derive", path, "--eps-q", "1/2")
        assert (code, err) == (EXIT_OK, "")
        doc = json.loads(out)
        assert doc["sz_eps"] == 4 * k + 1
        assert doc["steps"][0] == {"step": 0, "terms": 1, "points": 31**k}
        if k in TWO_COPY_CHAIN_STEPS:
            steps = [
                {"step": i, "terms": t, "points": p}
                for i, (p, t) in enumerate(TWO_COPY_CHAIN_STEPS[k])
            ]
            want = {
                "v": 1, "command": "set derive", "eps_q": "1/2", "q": "2",
                "product": True, "steps": steps, "sz_eps": 4 * k + 1,
            }
            assert out == dumps_canonical(want)

    @pytest.mark.parametrize("field", ["q", "w_q"])
    def test_boolean_fraction_exits_2(self, capsys, tmp_path, field):
        doc = fanset_to_doc(F1, F(2))
        if field == "q":
            doc["q"] = True
        else:
            doc["set"]["fan"]["w_q"] = True
        path = write_doc(tmp_path, "bool.json", doc)
        code, out, err = run(capsys, "set", "derive", path, "--eps-q", "1/2")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "rational string" in err

    def test_bad_eps_exits_2(self, capsys, tmp_path):
        path = write_doc(tmp_path, "s.json", fanset_to_doc(Sing(), F(1)))
        for eps in ("0", "-1/2", "banana"):
            code, _, err = run(capsys, "set", "derive", path, "--eps-q", eps)
            assert code == EXIT_USAGE
            assert "error:" in err

    def test_text_format(self, capsys, tmp_path):
        path = write_doc(tmp_path, "s.json", fanset_to_doc(Sing(), F(1)))
        code, out, _ = run(capsys, "set", "derive", path, "--eps-q", "1/2", "--format", "text")
        assert code == EXIT_OK
        assert "sz_eps = 1" in out


class TestVerify:
    def test_passing_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "unionlemma1", "--samples", "5", "--seed", "1")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["suite"] == "unionlemma1"
        assert doc["passed"] == 5 and doc["failed"] == 0
        assert [c["index"] for c in doc["cases"]] == list(range(5))
        assert all(c["passed"] for c in doc["cases"])

    def test_unknown_suite_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "foo", "--samples", "5")
        assert code == EXIT_USAGE
        assert "unknown suite" in err

    def test_bad_samples_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "unionlemma1", "--samples", "0")
        assert code == EXIT_USAGE
        assert "error:" in err

    def test_postdoc2_projects_nested_zero_offset_unions(self, capsys):
        """Some cases of this run project a disjoint union whose kept
        zero-offset component is a nested or scaled union."""
        code, out, _ = run(capsys, "verify", "postdoc2", "--samples", "100", "--seed", "0")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["suite"] == "postdoc2" and doc["passed"] == 100

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "techlem1", "--samples", "3", "--seed", "2", "--format", "text"
        )
        assert code == EXIT_OK
        assert out.startswith("suite techlem1: 3/3 passed")


class TestSigmaFrount:
    def test_sigma_value(self, capsys):
        code, out, _ = run(capsys, "sigma", "1", "3", "1", "2")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["value"] == 1
        assert doc["params"] == {"a": "1", "b": "3", "c": "1", "d": "2"}

    def test_sigma_fractions(self, capsys):
        code, out, _ = run(capsys, "sigma", "5/2", "3", "1", "2")
        assert code == EXIT_OK
        assert json.loads(out)["value"] >= 1

    def test_sigma_bad_params_exit_2(self, capsys):
        code, _, err = run(capsys, "sigma", "1", "1", "1", "2")
        assert code == EXIT_USAGE
        assert "error:" in err

    def test_frount_value(self, capsys):
        code, out, _ = run(capsys, "frount", "1", "1", "1", "2")
        assert code == EXIT_OK
        assert json.loads(out)["value"] == 8

    def test_frount_m1_exits_2(self, capsys):
        code, _, err = run(capsys, "frount", "1", "1", "1", "1")
        assert code == EXIT_USAGE
        assert "m >= 2" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("sigma", "3", "2", "1", "100000000"),
            ("sigma", "3", "2", "1", "500001/10000"),
            ("frount", "1", "1/2", "100000000", "2"),
            ("frount", "1", "1/2", "10000001/100000", "2"),
        ],
    )
    def test_power_over_budget_exits_2_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "bit budget" in err

    @pytest.mark.parametrize("q", ["1000001/1000000", "10001/10000"])
    def test_cover_power_over_budget_exits_2_at_once(self, capsys, tmp_path, q):
        """`cover` checks the power budget before its first power: at
        q = 1000001/1000000 the root n^(1/q) alone would run for minutes,
        and at 10001/10000 the power (l + n^(1/q))^q is over the budget."""
        path = write_doc(tmp_path, "k.json", fanset_to_doc(F1, F(q)))
        start = time.perf_counter()
        code, out, err = run(capsys, "cover", "2", path, path)
        assert time.perf_counter() - start < 1
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "bit budget" in err

    def test_large_sigma_under_budget_prints_exactly(self, capsys):
        code, out, _ = run(capsys, "sigma", "3", "2", "1", "5000")
        assert code == EXIT_OK
        value = json.loads(out)["value"]
        assert value == 6**5000 - 2**5000 + 1
        assert len(str(value)) == 3891

    def test_large_frount_under_budget_prints_exactly(self, capsys):
        code, out, _ = run(capsys, "frount", "1", "1/2", "3000", "2")
        assert code == EXIT_OK
        # least M >= 2 with (2^q - 1) (1/2)^q M >= 8^q
        assert json.loads(out)["value"] == -(-(16**3000) // (2**3000 - 1))

    def test_fractional_exponent_with_large_denominator(self, capsys):
        code, out, _ = run(capsys, "frount", "1", "1/2", "1001/1000", "2")
        assert code == EXIT_OK
        assert json.loads(out)["value"] == 17

    @pytest.mark.parametrize(
        "argv, digits",
        [
            (("sigma", "3", "2", "1", "5600"), 4358),
            (("frount", "1", "1/2", "5000", "2"), 4516),
            (("frount", "1", "1/2", "5000", "2", "--format", "text"), 4516),
        ],
    )
    def test_result_over_the_digit_limit_exits_2(self, capsys, argv, digits):
        """Python prints an int of at most sys.get_int_max_str_digits()
        digits (4300 by default); a larger result is refused by name."""
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (
            f"error: {argv[0]} result has {digits} digits, over the "
            f"{sys.get_int_max_str_digits()}-digit limit on printing integers\n"
        )

    def test_digit_limit_is_the_printing_limit(self):
        limit = sys.get_int_max_str_digits()
        assert len(str(10**limit - 1)) == limit
        assert _printable(10**limit - 1, "sigma") == 10**limit - 1
        with pytest.raises(ValueError):
            str(10**limit)
        with pytest.raises(ValueError, match=f"has {limit + 1} digits"):
            _printable(10**limit, "sigma")

    @pytest.mark.parametrize("limit", [640, 4300])
    def test_digit_limit_boundaries(self, limit):
        """Either side of 10**limit, and of 2**cut, the largest power of two
        that `_printable` passes without computing 10**limit."""
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            cut = limit * 3321928 // 10**6
            assert len(str(2**cut - 1)) <= limit
            for value in (2**cut - 1, 2**cut, 10**limit - 1):
                assert _printable(value, "frount") == value
            with pytest.raises(ValueError, match=f"has {limit + 1} digits"):
                _printable(10**limit, "frount")
        finally:
            sys.set_int_max_str_digits(before)

    def test_eps_q_below_root_precision_exits_2(self, capsys):
        """(1/2)^(10001/100) < 2^-96, below what the lower bound of a
        fractional power resolves."""
        code, out, err = run(capsys, "frount", "1", "1/2", "10001/100", "2")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (
            "error: eps^q is below 2^-96, the precision of fractional powers "
            "(eps = 1/2, q = 10001/100)\n"
        )

    def test_eps_q_just_above_root_precision_prints(self, capsys):
        """(1/2)^(9599/100) > 2^-96: the least M >= 2 with
        (lo(2^q) - 1) * lo(eps^q) * M >= hi(8^q) * hi(1^q) * (2 - 1)."""
        code, out, _ = run(capsys, "frount", "1", "1/2", "9599/100", "2")
        assert code == EXIT_OK
        q = F(9599, 100)
        eps_q, _ = pow_bounds(F(1, 2), q)
        assert 0 < eps_q < F(1, 2**95)
        _, hi8 = pow_bounds(F(8), q)
        _, hi1 = pow_bounds(F(1), q)
        lo2, _ = pow_bounds(F(2), q)
        assert json.loads(out)["value"] == max(2, math.ceil(hi8 * hi1 / ((lo2 - 1) * eps_q)))

    def test_frount_text(self, capsys):
        code, out, _ = run(capsys, "frount", "1", "1", "1", "2", "--format", "text")
        assert code == EXIT_OK
        assert out == "M(d=1, eps=1, q=1, m=2) = 8\n"


class TestCover:
    def test_two_factor_cover(self, capsys, tmp_path):
        path = write_doc(tmp_path, "f.json", fanset_to_doc(F1, F(2)))
        code, out, _ = run(capsys, "cover", "2", path, path)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["n"] == 2 and doc["l"] == 2 and doc["q"] == "2"
        assert [1, 1] in doc["tuples"]
        assert len(doc["products"]) == len(doc["tuples"])

    @pytest.mark.parametrize("q", ["1", "2", "3", "3/2"])
    def test_spliced_report_is_the_plain_json(self, capsys, tmp_path, q):
        """The products array is spliced from one text per factor and the
        cover's scales; the report equals the plain rendering of every
        product's copies, each built with `scaled`."""
        factors = [F1, depth_fan(2, F(1, 3)), Scale(F(1, 2), F1), Sing(), Scale(F(2), F1)]
        paths = [
            write_doc(tmp_path, f"f{i}.json", fanset_to_doc(K, F(q)))
            for i, K in enumerate(factors)
        ]
        # l = 16 at n = 3 is the largest cover in the benchmark's catalogue
        picks = [(range(n), l) for n in (1, 2, 3) for l in (1, 2, 5)] + [(range(3), 16)]
        picks += [((3,), 2), ((4,), 2), ((4, 3), 5), ((2, 4), 5), ((3, 0, 4, 2), 2)]
        for idx, l in picks:
            chosen = [factors[i] for i in idx]
            code, out, _ = run(capsys, "cover", str(l), *[paths[i] for i in idx])
            assert code == EXIT_OK
            cover = products.bq_cover(chosen, l, F(q))
            copies = [[fansets.scaled(a, K) for a in cover.scales] for K in chosen]
            full = {
                "v": 1,
                "command": "cover",
                "l": l,
                "q": q,
                "n": len(idx),
                "tuples": [list(k) for k in cover.tuples],
                "products": [
                    [fan_node_to_doc(c[ki - 1]) for c, ki in zip(copies, k)]
                    for k in cover.tuples
                ],
            }
            assert out == json.dumps(full, sort_keys=True, separators=(",", ":")) + "\n"

    def test_text_format(self, capsys, tmp_path):
        """One line per tuple of the filtered cover, in order, each with its
        scales k_i/l."""
        path = write_doc(tmp_path, "f.json", fanset_to_doc(F1, F(2)))
        for n in (1, 2, 3):
            for l in (1, 2, 5):
                code, out, _ = run(capsys, "cover", str(l), *[path] * n, "--format", "text")
                assert code == EXIT_OK
                tuples, _ = reference_bq_cover([F1] * n, l, F(2))
                lines = out.splitlines()
                assert lines[0] == f"cover: n={n} l={l} q=2 tuples={len(tuples)}"
                assert lines[1:] == [
                    f"  k=({', '.join(map(str, k))})  "
                    f"scales=({', '.join(ordinal.frac_to_str(F(ki, l)) for ki in k)})"
                    for k in tuples
                ]
                if (n, l) == (2, 2):
                    assert "  k=(1, 1)  scales=(1/2, 1/2)" in lines

    def test_scale_over_the_digit_limit_exits_2(self, capsys, tmp_path):
        """At q = 10000 the copy at k = 3 is scaled by (3/2)^10000, whose
        numerator 3^10000 has 4772 digits: refused by name before any copy
        is written, as `sigma` and `frount` refuse a long result."""
        path = write_doc(tmp_path, "k.json", fanset_to_doc(F1, F(10000)))
        code, out, err = run(capsys, "cover", "2", path, path)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (
            "error: cover result has 4772 digits, over the "
            f"{sys.get_int_max_str_digits()}-digit limit on printing integers\n"
        )

    def test_out_writes_the_report(self, capsys, tmp_path):
        path = write_doc(tmp_path, "f.json", fanset_to_doc(F1, F(3)))
        target = tmp_path / "cover.json"
        code, out, _ = run(capsys, "cover", "4", path, path, path, "--out", str(target))
        assert code == EXIT_OK
        assert out == ""
        code, printed, _ = run(capsys, "cover", "4", path, path, path)
        assert code == EXIT_OK
        assert target.read_text(encoding="utf-8") == printed

    def test_mismatched_q_exits_2(self, capsys, tmp_path):
        p1 = write_doc(tmp_path, "f1.json", fanset_to_doc(F1, F(2)))
        p2 = write_doc(tmp_path, "f2.json", fanset_to_doc(F1, F(3)))
        code, _, err = run(capsys, "cover", "2", p1, p2)
        assert code == EXIT_USAGE
        assert "same q" in err

    def test_product_factor_exits_2(self, capsys, tmp_path):
        path = write_doc(tmp_path, "p.json", fanset_to_doc(ProdQ((F1, F1)), F(2)))
        code, _, err = run(capsys, "cover", "2", path)
        assert code == EXIT_USAGE
        assert "error:" in err

    @pytest.mark.parametrize("l", ["400", "1000000000"])
    def test_oversized_cover_exits_2(self, capsys, tmp_path, l):
        path = write_doc(tmp_path, "s.json", fanset_to_doc(Sing(), F(1)))
        code, out, err = run(capsys, "cover", l, path, path, path)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.splitlines() == ["error: cover enumeration too large"]


def _wrong_type_documents() -> list:
    """(command, document) pairs that between them hold every field of set
    and space documents: each node kind, profile steps and both tails,
    both norm sequences and both kinds of family members."""
    fan = Fan(F(1, 2), (Sing(),), Fan(F(1, 4), (), Sing()))
    sets = [
        fan,
        UnionApex((Fan(F(1, 2), (), Sing()), Fan(F(1, 3), (Sing(),), Sing()))),
        Scale(F(1, 2), fan),
        ProdQ((F1, F1)),
        DisjUnion(((F(0), Sing()), (F(1), fan))),
    ]
    steps = ((F(1, 2), Ordinal.from_int(2)),)
    atom = Atom("E", F(1), EpsProfile(steps, LadderTail(ONE, ONE, F(1), F(1, 2))))
    copies = Copies(EpsProfile(steps, ConstTail(Ordinal.from_int(3))), compact=False)
    spaces = [
        FiniteSum((atom, CSpace(W))),
        DirectSum("3/2", (atom,)),
        DirectSum("0", ParamFamily(GeometricNorms(F(1), F(1, 2)), LadderMembers(W, ONE, ONE, F(1), F(1, 4)))),
        DirectSum("inf", ParamFamily(ConstNorms(F(1)), copies)),
    ]
    return [("set", fanset_to_doc(K, F(2))) for K in sets] + [
        ("space", space_to_doc(e)) for e in spaces
    ]


def _fields(doc, path=()):
    """The path to every value inside a document: each object key and each
    list index, at every depth."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


# the fields a reader iterates: a non-list there must exit 2
ARRAY_FIELDS = {"prefix", "fans", "factors", "components", "parts", "summands", "steps"}
# a value of each JSON type, with 1.0 and true for fields that read 1
WRONG_VALUES = [1, 1.0, 2.5, "x", True, None, [1], {"k": 1}]


class TestWrongJsonTypes:
    @pytest.mark.parametrize("command, doc", _wrong_type_documents())
    def test_every_field_takes_every_json_type(self, capsys, tmp_path, command, doc):
        """Every field of the document, given each JSON type, exits 0 or
        with one `error:` line and exit 2, never with a traceback.  An
        array field that is not a list, a version that is not the integer
        1 and a sum exponent that is neither a string nor an integer exit
        2, and so does an atom name that is not a string."""
        argv = ["set", "derive", "--eps-q", "1/2", "--steps", "4"] if command == "set" else [
            "space", "eval"
        ]
        text = dumps_canonical(doc)
        code, _, _ = run(capsys, *argv, write_doc(tmp_path, "ok.json", doc))
        assert code == EXIT_OK
        for path in _fields(doc):
            for value in WRONG_VALUES:
                bad = json.loads(text)
                at = bad
                for key in path[:-1]:
                    at = at[key]
                at[path[-1]] = value
                code, out, err = run(capsys, *argv, write_doc(tmp_path, "bad.json", bad))
                where = f"{'/'.join(map(str, path))} = {value!r}"
                assert code in (EXIT_OK, EXIT_USAGE), where
                assert "Traceback" not in err, where
                if code == EXIT_USAGE:
                    assert out == "", where
                    assert err.startswith("error:") and err.count("\n") == 1, where
                refused = (
                    (path[-1] in ARRAY_FIELDS and not isinstance(value, list))
                    or (path[-1] == "v" and not (type(value) is int and value == 1))
                    or (path[-1] == "p" and not isinstance(value, str) and type(value) is not int)
                    or (path[-1] == "name" and not isinstance(value, str))
                )
                if refused:
                    assert code == EXIT_USAGE, where

    @pytest.mark.parametrize("command, doc", _wrong_type_documents())
    def test_every_object_refuses_an_unknown_key(self, capsys, tmp_path, command, doc):
        """A key added to any object of the document, at any depth, exits 2
        with one `error:` line that names it."""
        argv = ["set", "derive", "--eps-q", "1/2"] if command == "set" else ["space", "eval"]
        text = dumps_canonical(doc)
        paths = [()] + [p for p in _fields(doc) if isinstance(_at(doc, p), dict)]
        for path in paths:
            bad = json.loads(text)
            _at(bad, path)["prefx"] = []
            code, out, err = run(capsys, *argv, write_doc(tmp_path, "bad.json", bad))
            where = "/".join(map(str, path))
            assert (code, out) == (EXIT_USAGE, ""), where
            assert err.startswith("error:") and err.count("\n") == 1, where
            assert "'prefx'" in err, where

    @pytest.mark.parametrize("command, doc", _wrong_type_documents())
    def test_huge_values_give_a_short_error_line(self, capsys, tmp_path, command, doc):
        """A 100 000-character string and a 30 000-element list at every
        field, a 100 000-character unknown key in every object and a
        100 000-character kind for every one-key node exit 0 or exit 2 with
        one `error:` line under 500 bytes: a message echoes a document value
        only in brief."""
        argv = ["set", "derive", "--eps-q", "1/2", "--steps", "4"] if command == "set" else [
            "space", "eval"
        ]
        text = dumps_canonical(doc)
        objects = [()] + [p for p in _fields(doc) if isinstance(_at(doc, p), dict)]
        cases = [(p, v) for p in _fields(doc) for v in ("x" * 100_000, ["x"] * 30_000)]
        cases += [(p + ("k" * 100_000,), []) for p in objects]
        cases += [
            (p, {"k" * 100_000: body})
            for p in objects[1:]
            if len(_at(doc, p)) == 1
            for body in _at(doc, p).values()
        ]
        for path, value in cases:
            bad = json.loads(text)
            _at(bad, path[:-1])[path[-1]] = value
            code, out, err = run(capsys, *argv, write_doc(tmp_path, "bad.json", bad))
            where = "/".join(str(key)[:20] for key in path)
            assert code in (EXIT_OK, EXIT_USAGE), where
            if code == EXIT_USAGE:
                assert out == "", where
                assert err.startswith("error:") and err.count("\n") == 1, where
                assert len(err.encode()) < 500, where


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


class TestPlumbing:
    def test_no_args_exits_2(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == EXIT_OK
        capsys.readouterr()

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "sigma", "1", "3", "1", "2", "--out", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["value"] == 1

    def test_byte_determinism(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for target in (a, b):
            code, _, _ = run(
                capsys, "verify", "techlem1", "--samples", "5", "--seed", "7",
                "--out", str(target),
            )
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_reports_are_canonical_json(self, capsys):
        code, out, _ = run(capsys, "verify", "unionlemma2", "--samples", "3", "--seed", "0")
        assert code == EXIT_OK
        assert out == dumps_canonical(json.loads(out))

    def test_log_level_flag_rejected_when_unknown(self, capsys):
        code, _, err = run(capsys, "--log", "loud", "sigma", "1", "3", "1", "2")
        assert code == EXIT_USAGE
        assert "log level" in err

    def test_no_argv_reads_sys_argv(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "sigma", "1", "3", "1", "2")
        monkeypatch.setattr(sys, "argv", ["szlenk", "sigma", "1", "3", "1", "2"])
        assert main() == code == EXIT_OK
        assert capsys.readouterr().out == out


# argv tokens: command words, exact and abbreviated flags, and values,
# some of which argparse reads in its own ways
ARGV_VALUES = ["-", "", "0", "3", "17", " 5", "x", "1/2", "w", "a.json", "json", "text", "xml"]
ARGV_TOKENS = sorted({w for words in COMMANDS for w in words}) + ARGV_VALUES + [
    "--out", "--format", "--eps-q", "--steps", "--samples", "--seed", "--log",
    "--o", "--form", "--eps", "--st", "--sa", "--see", "-1", "--", "--out=f", "-h", "--help",
]


def _argparse(argv):
    """vars of what argparse parses argv to, or None for a usage error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


class TestPlainArgv:
    """`cli._match` reads plain argv from the command table and returns the
    namespace argparse would, or None, which hands argv to argparse."""

    @settings(max_examples=1500, deadline=None)
    @example(("cover",), ["16", "a", "--out", "x", "b"])  # argparse ends the list at --out
    @example(("set", "derive"), ["f"])  # --eps-q is required
    @given(
        st.sampled_from([(), *COMMANDS]),
        st.lists(st.sampled_from(ARGV_TOKENS) | st.sampled_from(ARGV_VALUES), max_size=8),
    )
    def test_matcher_agrees_with_argparse(self, words, tokens):
        argv = [*words, *tokens]
        matched = cli._match(argv)
        if matched is not None:
            assert vars(matched) == _argparse(argv)

    @pytest.mark.parametrize("argv", [
        ["set", "derive", "f", "--eps-q", "1/2", "--steps", "3"],
        ["set", "derive", "--out", "r", "--eps-q", "1/2", "-"],
        ["verify", "techlem1", "--samples", "3", "--seed", "0", "--format", "text"],
        ["cover", "16", "a", "b", "c"],
        ["cover", "--out", "r", "16", "a"],
        ["frount", "1", "1/2", "2", "3"],
        ["ord", ""],
    ])
    def test_plain_argv_is_matched(self, argv):
        matched = cli._match(argv)
        assert matched is not None
        assert vars(matched) == _argparse(argv)

    @pytest.mark.parametrize("argv", [
        ["cover", "16", "a", "--out", "x", "b"],  # argparse ends the list at --out
        ["set", "derive", "f"],  # --eps-q is required
        ["set", "derive", "f", "--eps", "1/2"],
        ["set", "derive", "f", "--eps-q=1/2"],
        ["set", "derive", "f", "--eps-q", "1/2", "--steps", "-1"],
        ["set", "derive", "f", "--eps-q", "1/2", "--steps", "x"],
        ["set", "derive", "f", "--eps-q", "1/2", "--steps", "2", "--steps", "3"],
        ["ord", "w", "--format", "xml"],
        ["ord", "--", "w"],
        ["ord", "-h"],
        ["sigma", "1", "3", "1"],
        ["--log", "info", "ord", "w"],
        ["set"],
        [],
    ])
    def test_other_argv_goes_to_argparse(self, argv):
        assert cli._match(argv) is None

    def test_every_benchmark_argv_is_matched(self):
        """perfbench/workloads.py is only read: each op of its catalogues
        is plain argv, so the benchmark never pays for argparse."""
        workloads = load_workloads()
        for name in workloads.WORKLOADS:
            for op in workloads.catalogue(name).ops:
                assert cli._match(list(op.argv)) is not None, op.key


SRC = Path(__file__).resolve().parent.parent / "src"
LOG_LINE = re.compile(r"INFO szlenk\.cli: (.+) finished in \d+\.\d{3} s\n")


class TestInProcess:
    """One process serves many `main` calls: the parser is built once and
    shared, and logging follows the stderr of each call."""

    def test_log_line_goes_to_the_current_stderr(self, capsys, monkeypatch):
        monkeypatch.delenv("SZLENK_LOG", raising=False)
        root = list(logging.getLogger().handlers)
        first, second = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(first):
            assert main(["sigma", "1", "3", "1", "2"]) == EXIT_OK
        with contextlib.redirect_stderr(second):
            assert main(["--log", "info", "sigma", "1", "3", "1", "2"]) == EXIT_OK
        assert first.getvalue() == ""
        assert LOG_LINE.fullmatch(second.getvalue()).group(1) == "sigma"
        code, _, err = run(capsys, "--log", "info", "ord", "w")
        assert code == EXIT_OK
        assert LOG_LINE.fullmatch(err).group(1) == "ord"
        code, _, err = run(capsys, "ord", "w")
        assert (code, err) == (EXIT_OK, "")
        assert logging.getLogger().handlers == root

    def test_repeated_derive_does_the_same_work(self, capsys, tmp_path, monkeypatch):
        """No cache outlives a call: a second `set derive` of the same
        depth-16 chain runs as many filtration evaluations as the first."""
        path = write_doc(tmp_path, "d16.json", fanset_to_doc(depth_fan(16, F(1, 2)), F(2)))
        original = fansets._filter_reach
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(fansets, "_filter_reach", counted)
        counts, outs = [], []
        for _ in range(2):
            before = len(calls)
            code, out, _ = run(capsys, "set", "derive", path, "--eps-q", "1/2", "--steps", "20")
            assert code == EXIT_OK
            counts.append(len(calls) - before)
            outs.append(out)
        assert counts[0] > 0 and counts[0] == counts[1]
        assert outs[0] == outs[1]

    @staticmethod
    def argvs(tmp_path):
        fan = write_doc(tmp_path, "f.json", fanset_to_doc(depth_fan(3, F(1, 2)), F(2)))
        space = write_doc(tmp_path, "s.json", space_to_doc(CSpace(ordinal.parse("w^w"))))
        return [
            ["--help"],
            ["frobnicate"],
            ["--log", "info", "sigma", "1", "3", "1", "2"],
            ["ord", "w^2*3 + w", "--format", "text"],
            ["space", "eval", space],
            ["set", "derive", fan, "--eps-q", "1/2", "--steps", "3"],
            ["verify", "unionlemma1", "--samples", "3", "--seed", "1"],
            ["sigma", "5/2", "3", "1", "2"],
            ["frount", "1", "1/2", "2", "3"],
            ["cover", "2", fan, fan],
        ]

    @staticmethod
    def outcome(capsys, argv):
        code, out, err = run(capsys, *argv)
        return code, out, LOG_LINE.sub("INFO szlenk.cli: \\1 finished\n", err)

    def test_no_state_leaks_through_the_shared_parser(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("SZLENK_LOG", raising=False)
        argvs = self.argvs(tmp_path)
        parser = build_parser()
        shared = [self.outcome(capsys, argv) for argv in argvs]
        assert build_parser() is parser
        fresh = []
        for argv in argvs:
            build_parser.cache_clear()
            fresh.append(self.outcome(capsys, argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [EXIT_OK, EXIT_USAGE] + [EXIT_OK] * 8
        assert shared[2][2] == "INFO szlenk.cli: sigma finished\n"
        assert all(err == "" for _, _, err in shared[3:])

    def test_argparse_alone_answers_the_same(self, capsys, tmp_path, monkeypatch):
        """With the matcher switched off, every argv of the list exits with
        the same code and writes the same stdout and stderr."""
        monkeypatch.delenv("SZLENK_LOG", raising=False)
        argvs = self.argvs(tmp_path)
        assert [cli._match(argv) is not None for argv in argvs] == [False] * 3 + [True] * 7
        matched = [self.outcome(capsys, argv) for argv in argvs]
        monkeypatch.setattr(cli, "_match", lambda argv: None)
        assert [self.outcome(capsys, argv) for argv in argvs] == matched

    def test_fresh_process(self, capsys):
        env = {k: v for k, v in os.environ.items() if k != "SZLENK_LOG"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

        def cli(*argv):
            return subprocess.run(
                [sys.executable, "-m", "szlenk.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )

        proc = cli("--log", "info", "sigma", "1", "3", "1", "2")
        assert proc.returncode == EXIT_OK
        code, out, _ = run(capsys, "sigma", "1", "3", "1", "2")
        assert (code, proc.stdout) == (EXIT_OK, out)
        assert LOG_LINE.fullmatch(proc.stderr).group(1) == "sigma"
        assert cli("--help").returncode == EXIT_OK
        bad = cli("sigma", "1")
        assert bad.returncode == EXIT_USAGE
        assert bad.stdout == ""
