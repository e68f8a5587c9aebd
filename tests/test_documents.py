"""Round-trip and schema tests for the JSON document layer."""
import json
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
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
from szlenk.documents import (
    DocumentError,
    SharedRows,
    _canonical,
    _node_text,
    dumps_canonical,
    fan_node_to_doc,
    fanset_from_doc,
    fanset_to_doc,
    loads,
    profile_from_doc,
    profile_to_doc,
    scaled_copy_texts,
    space_from_doc,
    space_to_doc,
    trace_to_doc,
)
from szlenk.fansets import DisjUnion, Fan, ProdQ, Scale, Sing, UnionApex, derive_steps, scaled
from szlenk.ordinal import OMEGA, Ordinal, frac_to_str
from szlenk.products import bq_cover

from oracle import reference_trace_doc
from strategies import fan_sets, fracs, measured_sets

F = Fraction
F1 = Fan(F(1, 2), (), Sing())
W = OMEGA


def n(k: int) -> Ordinal:
    return Ordinal.from_int(k)


SPACES = [
    Atom("T", F(1), EpsProfile(), compact=True),
    Atom(
        "ladder",
        F(2),
        EpsProfile(
            ((F(1), n(1)), (F(1, 2), n(2))),
            LadderTail(W, n(3), F(1, 4), F(1, 2)),
        ),
    ),
    CSpace(ordinal.omega_pow(W)),
    FiniteSum((Atom("a", F(1), EpsProfile()), CSpace(W))),
    DirectSum("0", (Atom("a", F(1), EpsProfile()), Atom("b", F(1), EpsProfile()))),
    DirectSum(
        F(3, 2),
        ParamFamily(
            GeometricNorms(F(1), F(1, 2)),
            LadderMembers(W, n(1), n(1), F(1), F(1, 2)),
        ),
    ),
    DirectSum(
        "inf",
        ParamFamily(ConstNorms(F(1)), Copies(EpsProfile(), compact=False)),
    ),
]


class TestFanSetDocs:
    def test_frozen_example(self):
        doc = fanset_to_doc(F1, F(2))
        assert doc == {
            "v": 1,
            "q": "2",
            "set": {"fan": {"w_q": "1/2", "prefix": [], "tail": {"sing": {}}}},
        }
        assert fanset_from_doc(doc) == (F1, F(2))

    def test_product_and_disj(self):
        from szlenk.fansets import DisjUnion, Scale, UnionApex

        K = ProdQ((F1, Scale(F(1, 4), DisjUnion(((F(0), Sing()), (F(1), F1))))))
        K2 = UnionApex((F1, Fan(F(1, 3), (Sing(),), F1)))
        for s in (K, K2):
            doc = fanset_to_doc(s, F(1))
            back, q = fanset_from_doc(doc)
            assert back == s and q == 1
            assert fanset_to_doc(back, q) == doc

    @settings(max_examples=60, deadline=None)
    @given(fan_sets(), fracs(max_den=4, max_num=3))
    def test_roundtrip(self, s, q):
        if q < 1:
            q = 1 / q
        doc = fanset_to_doc(s, q)
        back, q2 = fanset_from_doc(doc)
        assert back == s and q2 == q
        assert fanset_to_doc(back, q2) == doc
        assert loads(dumps_canonical(doc)) == doc

    def test_errors(self):
        with pytest.raises(DocumentError):
            fanset_from_doc({"v": 2, "q": "1", "set": {"sing": {}}})
        with pytest.raises(DocumentError):
            fanset_from_doc({"v": 1, "set": {"sing": {}}})
        with pytest.raises(DocumentError):
            fanset_from_doc({"v": 1, "q": "1/2", "set": {"sing": {}}})
        with pytest.raises(DocumentError):
            fanset_from_doc({"v": 1, "q": "1", "set": {"blob": {}}})
        with pytest.raises(DocumentError):
            fanset_from_doc({"v": 1, "q": "1", "set": {"sing": {}, "fan": {}}})
        with pytest.raises(DocumentError):
            fanset_from_doc(
                {"v": 1, "q": "1", "set": {"fan": {"w_q": "x", "tail": {"sing": {}}}}}
            )
        with pytest.raises(DocumentError):
            fanset_from_doc(
                {"v": 1, "q": "1", "set": {"apex": {"fans": [{"sing": {}}]}}}
            )
        with pytest.raises(DocumentError):
            fanset_from_doc(
                {"v": 1, "q": "1", "set": {"disj": {"components": [["1"]]}}}
            )


class TestSpaceDocs:
    @pytest.mark.parametrize("e", SPACES, ids=lambda e: type(e).__name__)
    def test_roundtrip(self, e):
        doc = space_to_doc(e)
        back = space_from_doc(doc)
        assert back == e
        assert space_to_doc(back) == doc

    def test_profile_roundtrip(self):
        p = EpsProfile(((F(1, 2), n(2)),), ConstTail(n(4)))
        assert profile_from_doc(profile_to_doc(p)) == p

    def test_tail_defaults_to_const_one(self):
        p = profile_from_doc({"steps": []})
        assert p == EpsProfile()

    def test_errors(self):
        with pytest.raises(DocumentError):
            space_from_doc({"v": 1})
        with pytest.raises(DocumentError):
            space_from_doc({"v": 1, "space": {"sum": {"p": "0"}}})
        with pytest.raises(DocumentError):
            space_from_doc(
                {
                    "v": 1,
                    "space": {
                        "sum": {"p": "0", "summands": [], "family": {}}
                    },
                }
            )
        with pytest.raises(DocumentError):
            space_from_doc({"v": 1, "space": {"atom": {"name": "x"}}})
        with pytest.raises(DocumentError):
            space_from_doc({"v": 1, "space": {"widget": {}}})


class TestTraceDocs:
    def test_trace_doc_shape(self):
        doc = trace_to_doc(derive_steps(F1, F(1, 2), 3), F(1), sz_eps=2)
        assert doc["v"] == 1 and doc["q"] == "1" and doc["sz_eps"] == 2
        assert [s["step"] for s in doc["steps"]] == [0, 1, 2]
        assert doc["steps"][-1]["set"] is None
        assert doc["steps"][0]["apexes"] == 1
        assert doc["steps"][0]["diam_q"] == "1"

    @settings(max_examples=300, deadline=None)
    @given(measured_sets(), st.data())
    def test_node_text_is_the_canonical_document(self, K, data):
        """The text written node by node is the canonical encoding of the
        node's document, for every node kind, also with a known subnode's
        text spliced in at each place that subnode occurs."""
        event(type(K).__name__)
        want = _canonical(fan_node_to_doc(K))
        assert _node_text(K, {}) == want
        nodes = list(subnodes(K))
        sub = nodes[data.draw(st.integers(0, len(nodes) - 1), label="spliced subnode")]
        assert _node_text(K, {id(sub): _canonical(fan_node_to_doc(sub))}) == want

    @settings(max_examples=150, deadline=None)
    @given(fan_sets(3), st.sampled_from([F(1, 8), F(1, 2), F(1)]), st.integers(0, 6))
    def test_spliced_trace_renders_as_the_dict_document(self, K, eps_q, m):
        """A trace with its snapshots spliced in as text renders to the
        bytes of the document that holds each snapshot as a dict."""
        steps = derive_steps(K, eps_q, m)
        settled = next((k for k, s in enumerate(steps) if s.snapshot is None), None)
        doc = {"eps_q": frac_to_str(eps_q), "trace": trace_to_doc(steps, F(2), settled)}
        want = {"eps_q": frac_to_str(eps_q), "trace": reference_trace_doc(steps, F(2), settled)}
        assert dumps_canonical(doc) == json.dumps(want, sort_keys=True, separators=(",", ":")) + "\n"


def subnodes(K):
    """K and every node below it, in pre-order."""
    yield K
    if isinstance(K, Fan):
        kids = (*K.prefix, K.tail)
    elif isinstance(K, UnionApex):
        kids = K.fans
    elif isinstance(K, ProdQ):
        kids = K.factors
    elif isinstance(K, Scale):
        kids = (K.body,)
    elif isinstance(K, DisjUnion):
        kids = tuple(b for _, b in K.components)
    else:
        kids = ()
    for c in kids:
        yield from subnodes(c)


def expand_runs(cols, runs):
    """The rows that runs of keys stand for, each entry picked in full (key
    k of a column at its index k - 1)."""
    return [
        [col[k - 1] for col, k in zip(cols, (*prefix, last))]
        for prefix, m in runs
        for last in range(1, m + 1)
    ]


def encode(cols):
    """The columns as `SharedRows` holds them: each entry's canonical text."""
    return [[_canonical(x) for x in col] for col in cols]


class TestCanonical:
    def test_key_order_is_canonical(self):
        a = dumps_canonical({"b": 1, "a": [{"y": 2, "x": 3}]})
        b = dumps_canonical({"a": [{"x": 3, "y": 2}], "b": 1})
        assert a == b
        assert a.endswith("\n")

    def test_shared_rows_render_as_the_plain_array(self):
        """Entries are picked per column by each row's keys, a run's rows in
        order; the rendering sorts the top-level keys around the spliced
        value."""
        cols = [[{"b": [1, 2], "a": "x"}, {"z": {}}], [[], {"q": "é"}]]
        runs = [((1,), 2), ((2,), 1), ((1,), 1)]
        keys = [(1, 1), (1, 2), (2, 1), (1, 1)]
        plain = {
            "z": 0,
            "rows": [[cols[0][i - 1], cols[1][j - 1]] for i, j in keys],
            "a": [None, True],
        }
        spliced = dict(plain, rows=SharedRows(encode(cols), runs))
        want = json.dumps(plain, sort_keys=True, separators=(",", ":")) + "\n"
        assert dumps_canonical(spliced) == want == dumps_canonical(plain)
        assert len(spliced["rows"]) == 4
        assert dumps_canonical({"rows": SharedRows(encode(cols), [])}) == '{"rows":[]}\n'

    @pytest.mark.parametrize(
        "cols, keys",
        [
            ([["a"]], []),
            ([["a"], [0, 0]], []),
            ([["a"]], [((), 1)]),
            ([[[1, {"k": "v"}], {}]], [((), 2), ((), 1)]),
            ([[0, 1, 2, 3, 4, 5, -12], [10**30, -1]], [((7,), 2), ((1,), 1)]),
            ([["50%", "%s%d%%"], ["{}", '{"a": 1}'], ['"quoted"', "],["]],
             [((1, 2), 1), ((2, 1), 2), ((2, 2), 1)]),
        ],
    )
    def test_shared_rows_render_matches_the_rows_in_full(self, cols, keys):
        """Rows by runs of keys: no runs, a one-row run, one column, int
        entries, and strings holding the characters of format strings and
        JSON."""
        assert SharedRows(encode(cols), keys).render() == _canonical(expand_runs(cols, keys))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_shared_rows_render_is_json_dumps(self, data):
        """Any 1-3 columns of int and dict entries, any runs (none
        included): the rendering is json.dumps of the rows in full, with
        sorted keys and compact separators."""
        entry = st.one_of(
            st.integers(-(10**20), 10**20),
            st.dictionaries(
                st.text(max_size=3),
                st.one_of(st.integers(), st.text(max_size=3), st.lists(st.integers(), max_size=2)),
                max_size=3,
            ),
        )
        n = data.draw(st.integers(1, 3), label="columns")
        cols = [data.draw(st.lists(entry, min_size=1, max_size=5), label="column") for _ in range(n)]
        *heads, last = cols
        run = st.tuples(
            st.tuples(*(st.integers(1, len(h)) for h in heads)), st.integers(1, len(last))
        )
        runs = data.draw(st.lists(run, max_size=5), label="runs")
        rows = SharedRows(encode(cols), runs)
        full = expand_runs(cols, runs)
        assert rows.render() == json.dumps(full, sort_keys=True, separators=(",", ":"))
        assert len(rows) == len(full)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(fan_sets(2), st.builds(Scale, fracs(max_num=4), fan_sets(1))),
        st.integers(1, 8),
        st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 2)]),
        st.data(),
    )
    def test_scaled_copy_texts_are_the_copies_documents(self, K, l, q, data):
        """Each spliced text is the canonical document of scaled(a, K): on
        a cover's ladder (a = 1 at k = l at integer q) and on drawn scales,
        among them 1 and, for a Scale(b, .) factor, 1/b (a * b = 1)."""
        scales = list(bq_cover([K], l, q).scales)
        scales += data.draw(st.lists(st.one_of(fracs(), st.just(Fraction(1))), max_size=3))
        if isinstance(K, Scale):
            scales.append(1 / K.a_q)
        event(type(K).__name__)
        texts = scaled_copy_texts(K, fan_node_to_doc(K), scales)
        assert texts == [_canonical(fan_node_to_doc(scaled(a, K))) for a in scales]

    def test_loads_error(self):
        with pytest.raises(DocumentError):
            loads("{nope")
