"""JSON document schemas for sets, spaces, traces, and reports.

Every document is a plain-JSON dict with schema version ``"v": 1``; all
rationals are carried as strings ("3/4", "2") so exactness survives
serialization, and set documents fix q once in the header ({"q": "2"}).
``dumps_canonical`` renders documents byte-deterministically (sorted keys,
fixed separators), which is what makes repeated runs diff-clean.

A report whose top-level array repeats the same entries many times (the
``cover`` report's ``tuples``, and its ``products``: each row is one scaled
copy per factor, picked by the row's tuple k) carries it as `SharedRows`:
columns of canonical texts, one per key k, and rows given by runs.  A run
is a key prefix and the count m of rows whose last key runs over 1..m.
``dumps_canonical`` builds each run's prefix text once and joins it around
the last column's texts, so the bytes are those of the plain array at one
Python step per run, not per row.  A cover's copy texts come from
`scaled_copy_texts`: each factor is encoded once and the copies' scales,
one ladder for every factor, are spliced into its text.

A ``set derive`` trace is a tuple of steps, step k at index k, and its
document holds each step's set as `SplicedText`: each distinct snapshot
node is written once as canonical text, straight from the nodes and
without a document dict, last step first, so a snapshot that holds a
later one (step k of a chain holds step k + 1) splices that text in.
`SharedRows` and `SplicedText` are the two kinds of `Spliced` value, and
``dumps_canonical`` writes each one's text where its JSON would go, at
any depth.  Every report goes through one reused encoder.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import getitem
from typing import Optional, Sequence

from . import ordinal
from .calculus import (
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
    ProfileTail,
    SpaceExpr,
    SpaceIndex,
)
from .checks import SuiteReport
from .fansets import (
    DisjUnion,
    Fan,
    FanSet,
    ProdQ,
    Scale,
    Sing,
    TraceStep,
    UnionApex,
)
from .ordinal import Ordinal, brief, frac_from_str, frac_to_str

SCHEMA_VERSION = 1


class DocumentError(ValueError):
    """A document violates the schema."""


def _expect_dict(doc: object, what: str) -> dict:
    if not isinstance(doc, dict):
        raise DocumentError(f"{what} must be an object, got {type(doc).__name__}")
    return doc


def _expect_list(doc: object, what: str) -> list:
    if not isinstance(doc, list):
        raise DocumentError(f"{what} must be a list, got {type(doc).__name__}")
    return doc


def _expect_version(doc: dict) -> None:
    v = doc.get("v")
    if type(v) is not int or v != SCHEMA_VERSION:  # not true or 1.0
        raise DocumentError(f"unsupported document version {brief(v)}")


def _known(body: dict, keys: frozenset, what: str) -> dict:
    """body, unless it holds a key outside `keys`: a misspelt field would
    otherwise read as absent and take its default."""
    if not keys.issuperset(body):
        raise DocumentError(f"{what}: unknown keys {brief(sorted(body.keys() - keys))}")
    return body


def _one_key(doc: dict, what: str) -> str:
    if len(doc) != 1:
        raise DocumentError(f"{what} must have exactly one variant key, got {brief(sorted(doc))}")
    return next(iter(doc))


def _variant(doc: object, what: str, kinds: dict[str, frozenset]) -> tuple[str, dict]:
    """The kind of a node {kind: body} and its body, whose keys must be
    among those `kinds` gives that kind."""
    kind = _one_key(_expect_dict(doc, what), what)
    if kind not in kinds:
        raise DocumentError(f"unknown {what} kind {brief(kind)}")
    return kind, _known(_expect_dict(doc[kind], f"{kind} body"), kinds[kind], f"{kind} body")


def _frac(doc: object, what: str) -> Fraction:
    try:
        return frac_from_str(doc)
    except ValueError as exc:
        raise DocumentError(f"{what}: {exc}") from None


def _bool(doc: object, what: str) -> bool:
    if type(doc) is not bool:  # "false" or 0 must not read as a flag value
        raise DocumentError(f"{what}: expected true or false, got {brief(doc)}")
    return doc


def _ord(doc: object, what: str) -> Ordinal:
    try:
        return ordinal.from_json(doc)
    except ValueError as exc:
        raise DocumentError(f"{what}: {exc}") from None


# ---------------------------------------------------------------------------
# fan sets
# ---------------------------------------------------------------------------


def fan_node_to_doc(F: FanSet) -> dict:
    """Serialize a bare set node (no version/q header)."""
    if isinstance(F, Sing):
        return {"sing": {}}
    if isinstance(F, Fan):
        return {
            "fan": {
                "w_q": frac_to_str(F.w_q),
                "prefix": [fan_node_to_doc(c) for c in F.prefix],
                "tail": fan_node_to_doc(F.tail),
            }
        }
    if isinstance(F, UnionApex):
        return {"apex": {"fans": [fan_node_to_doc(f) for f in F.fans]}}
    if isinstance(F, Scale):
        return {"scale": {"a_q": frac_to_str(F.a_q), "body": fan_node_to_doc(F.body)}}
    if isinstance(F, ProdQ):
        return {"prod": {"factors": [fan_node_to_doc(f) for f in F.factors]}}
    if isinstance(F, DisjUnion):
        return {
            "disj": {
                "components": [[frac_to_str(off), fan_node_to_doc(b)] for off, b in F.components]
            }
        }
    raise DocumentError(f"not a fan set: {F!r}")


def _node_text(F: FanSet, texts: dict[int, str]) -> str:
    """The canonical text of `fan_node_to_doc(F)`, written directly: `texts`
    maps the ids of nodes whose text is known (all alive in the caller's
    nodes) to that text, which is spliced in wherever the node occurs."""
    out: list[str] = []
    _node_pieces(F, texts, out)
    return "".join(out)


def _node_pieces(F: FanSet, texts: dict[int, str], out: list[str]) -> None:
    """Append the pieces of F's canonical text to `out`, keys in sorted
    order; one frame per nesting level.  A rational's text (digits, "-"
    and "/") needs no JSON escaping."""
    known = texts.get(id(F))
    if known is not None:
        out.append(known)
    elif isinstance(F, Fan):
        out.append('{"fan":{"prefix":[')
        for i, c in enumerate(F.prefix):
            if i:
                out.append(",")
            _node_pieces(c, texts, out)
        out.append('],"tail":')
        _node_pieces(F.tail, texts, out)
        out.append(',"w_q":"' + frac_to_str(F.w_q) + '"}}')
    elif isinstance(F, Sing):
        out.append('{"sing":{}}')
    elif isinstance(F, Scale):
        out.append('{"scale":{"a_q":"' + frac_to_str(F.a_q) + '","body":')
        _node_pieces(F.body, texts, out)
        out.append("}}")
    elif isinstance(F, DisjUnion):
        out.append('{"disj":{"components":[')
        for i, (off, b) in enumerate(F.components):
            out.append(('["' if i == 0 else ',["') + frac_to_str(off) + '",')
            _node_pieces(b, texts, out)
            out.append("]")
        out.append("]}}")
    elif isinstance(F, (UnionApex, ProdQ)):
        apex = isinstance(F, UnionApex)
        out.append('{"apex":{"fans":[' if apex else '{"prod":{"factors":[')
        for i, f in enumerate(F.fans if apex else F.factors):
            if i:
                out.append(",")
            _node_pieces(f, texts, out)
        out.append("]}}")
    else:
        raise DocumentError(f"not a fan set: {F!r}")


# the keys of each set node kind's body
_SET_KEYS = {
    "sing": frozenset(),
    "fan": frozenset({"w_q", "prefix", "tail"}),
    "apex": frozenset({"fans"}),
    "scale": frozenset({"a_q", "body"}),
    "prod": frozenset({"factors"}),
    "disj": frozenset({"components"}),
}


def _fan_node_from_doc(doc: object) -> FanSet:
    kind, body = _variant(doc, "set node", _SET_KEYS)
    if kind == "sing":
        return Sing()
    if kind == "fan":
        prefix = _expect_list(body.get("prefix", []), "fan prefix")
        return Fan(
            _frac(body.get("w_q"), "fan w_q"),
            tuple(_fan_node_from_doc(c) for c in prefix),
            _fan_node_from_doc(body.get("tail")),
        )
    if kind == "apex":
        fans = []
        for f in _expect_list(body.get("fans", []), "apex fans"):
            sub = _fan_node_from_doc(f)
            if not isinstance(sub, Fan):
                raise DocumentError("apex members must be fan nodes")
            fans.append(sub)
        return UnionApex(tuple(fans))
    if kind == "scale":
        return Scale(_frac(body.get("a_q"), "scale a_q"), _fan_node_from_doc(body.get("body")))
    if kind == "prod":
        factors = _expect_list(body.get("factors", []), "prod factors")
        return ProdQ(tuple(_fan_node_from_doc(f) for f in factors))
    comps = []  # kind == "disj"
    for item in _expect_list(body.get("components", []), "disj components"):
        if not isinstance(item, list) or len(item) != 2:
            raise DocumentError("disj components must be [offset, node] pairs")
        comps.append((_frac(item[0], "disj offset"), _fan_node_from_doc(item[1])))
    return DisjUnion(tuple(comps))


def fanset_to_doc(F: FanSet, q: Fraction) -> dict:
    return {"v": SCHEMA_VERSION, "q": frac_to_str(Fraction(q)), "set": fan_node_to_doc(F)}


_SET_DOC_KEYS = frozenset({"v", "q", "set"})


def fanset_from_doc(doc: object) -> tuple[FanSet, Fraction]:
    top = _known(_expect_dict(doc, "set document"), _SET_DOC_KEYS, "set document")
    _expect_version(top)
    if "q" not in top or "set" not in top:
        raise DocumentError("set documents need 'q' and 'set' fields")
    q = _frac(top["q"], "document q")
    if q < 1:
        raise DocumentError("document q must be >= 1")
    return _fan_node_from_doc(top["set"]), q


# ---------------------------------------------------------------------------
# profiles and spaces
# ---------------------------------------------------------------------------


def _tail_to_doc(tail: ProfileTail) -> dict:
    if isinstance(tail, ConstTail):
        return {"const": ordinal.to_json(tail.value)}
    return {
        "ladder": {
            "slope": ordinal.to_json(tail.slope),
            "offset": ordinal.to_json(tail.offset),
            "base_q": frac_to_str(tail.base_q),
            "ratio_q": frac_to_str(tail.ratio_q),
        }
    }


_LADDER_TAIL_KEYS = frozenset({"slope", "offset", "base_q", "ratio_q"})


def _tail_from_doc(doc: object) -> ProfileTail:
    node = _expect_dict(doc, "profile tail")
    kind = _one_key(node, "profile tail")
    if kind == "const":
        return ConstTail(_ord(node["const"], "const tail"))
    if kind == "ladder":
        body = _expect_dict(node["ladder"], "ladder tail")
        _known(body, _LADDER_TAIL_KEYS, "ladder tail")
        return LadderTail(
            _ord(body.get("slope"), "ladder slope"),
            _ord(body.get("offset"), "ladder offset"),
            _frac(body.get("base_q"), "ladder base_q"),
            _frac(body.get("ratio_q"), "ladder ratio_q"),
        )
    raise DocumentError(f"unknown profile tail kind {brief(kind)}")


def profile_to_doc(p: EpsProfile) -> dict:
    return {
        "steps": [[frac_to_str(t), ordinal.to_json(v)] for t, v in p.steps],
        "tail": _tail_to_doc(p.tail),
    }


_PROFILE_KEYS = frozenset({"steps", "tail"})


def profile_from_doc(doc: object) -> EpsProfile:
    body = _known(_expect_dict(doc, "profile"), _PROFILE_KEYS, "profile")
    steps = []
    for item in _expect_list(body.get("steps", []), "profile steps"):
        if not isinstance(item, list) or len(item) != 2:
            raise DocumentError("profile steps must be [threshold, ordinal] pairs")
        steps.append((_frac(item[0], "step threshold"), _ord(item[1], "step value")))
    return EpsProfile(tuple(steps), _tail_from_doc(body.get("tail", {"const": ordinal.to_json(Ordinal.from_int(1))})))


def _norms_to_doc(n) -> dict:
    if isinstance(n, ConstNorms):
        return {"const": frac_to_str(n.value)}
    return {"geometric": {"base": frac_to_str(n.base), "ratio": frac_to_str(n.ratio)}}


_GEOMETRIC_KEYS = frozenset({"base", "ratio"})


def _norms_from_doc(doc: object):
    node = _expect_dict(doc, "norm sequence")
    kind = _one_key(node, "norm sequence")
    if kind == "const":
        return ConstNorms(_frac(node["const"], "const norm"))
    if kind == "geometric":
        body = _expect_dict(node["geometric"], "geometric norms")
        _known(body, _GEOMETRIC_KEYS, "geometric norms")
        return GeometricNorms(
            _frac(body.get("base"), "norm base"), _frac(body.get("ratio"), "norm ratio")
        )
    raise DocumentError(f"unknown norm sequence kind {brief(kind)}")


def _members_to_doc(m) -> dict:
    if isinstance(m, Copies):
        return {"copies": {"profile": profile_to_doc(m.profile), "compact": m.compact}}
    return {
        "ladder": {
            "slope": ordinal.to_json(m.slope),
            "offset": ordinal.to_json(m.offset),
            "low": ordinal.to_json(m.low),
            "base_q": frac_to_str(m.base_q),
            "ratio_q": frac_to_str(m.ratio_q),
        }
    }


# the keys of each kind of family members' body
_MEMBER_KEYS = {
    "copies": frozenset({"profile", "compact"}),
    "ladder": frozenset({"slope", "offset", "low", "base_q", "ratio_q"}),
}


def _members_from_doc(doc: object):
    kind, body = _variant(doc, "family members", _MEMBER_KEYS)
    if kind == "copies":
        return Copies(
            profile_from_doc(body.get("profile")),
            _bool(body.get("compact", False), "copies compact"),
        )
    return LadderMembers(
        _ord(body.get("slope"), "members slope"),
        _ord(body.get("offset"), "members offset"),
        _ord(body.get("low"), "members low"),
        _frac(body.get("base_q"), "members base_q"),
        _frac(body.get("ratio_q"), "members ratio_q"),
    )


def _family_to_doc(fam: ParamFamily) -> dict:
    return {"norms": _norms_to_doc(fam.norms), "members": _members_to_doc(fam.members)}


_FAMILY_KEYS = frozenset({"norms", "members"})


def _family_from_doc(doc: object) -> ParamFamily:
    body = _known(_expect_dict(doc, "family"), _FAMILY_KEYS, "family")
    return ParamFamily(_norms_from_doc(body.get("norms")), _members_from_doc(body.get("members")))


def _space_node_to_doc(e: SpaceExpr) -> dict:
    if isinstance(e, Atom):
        return {
            "atom": {
                "name": e.name,
                "norm": frac_to_str(e.norm_bound),
                "profile": profile_to_doc(e.profile),
                "compact": e.compact,
            }
        }
    if isinstance(e, CSpace):
        return {"cspace": {"gamma": ordinal.to_json(e.gamma)}}
    if isinstance(e, FiniteSum):
        return {"finite_sum": {"parts": [_space_node_to_doc(s) for s in e.parts]}}
    if isinstance(e, DirectSum):
        p = e.p if isinstance(e.p, str) else frac_to_str(e.p)
        body: dict = {"p": p}
        if isinstance(e.summands, ParamFamily):
            body["family"] = _family_to_doc(e.summands)
        else:
            body["summands"] = [_space_node_to_doc(s) for s in e.summands]
        return {"sum": body}
    raise DocumentError(f"not a space expression: {e!r}")


# the keys of each space node kind's body
_SPACE_KEYS = {
    "atom": frozenset({"name", "norm", "profile", "compact"}),
    "cspace": frozenset({"gamma"}),
    "finite_sum": frozenset({"parts"}),
    "sum": frozenset({"p", "family", "summands"}),
}


def _space_node_from_doc(doc: object) -> SpaceExpr:
    kind, body = _variant(doc, "space node", _SPACE_KEYS)
    if kind == "atom":
        if "name" not in body or "profile" not in body:
            raise DocumentError("atoms need 'name' and 'profile'")
        if not isinstance(body["name"], str):
            raise DocumentError(f"atom name must be a string, got {brief(body['name'])}")
        return Atom(
            body["name"],
            _frac(body.get("norm", "1"), "atom norm"),
            profile_from_doc(body["profile"]),
            _bool(body.get("compact", False), "atom compact"),
        )
    if kind == "cspace":
        return CSpace(_ord(body.get("gamma"), "cspace gamma"))
    if kind == "finite_sum":
        parts = _expect_list(body.get("parts", []), "finite_sum parts")
        return FiniteSum(tuple(_space_node_from_doc(s) for s in parts))
    if "p" not in body:  # kind == "sum"
        raise DocumentError("direct sums need 'p'")
    if ("family" in body) == ("summands" in body):
        raise DocumentError("direct sums need exactly one of 'family' or 'summands'")
    if "family" in body:
        return DirectSum(body["p"], _family_from_doc(body["family"]))
    summands = _expect_list(body["summands"], "sum summands")
    return DirectSum(body["p"], tuple(_space_node_from_doc(s) for s in summands))


def space_to_doc(e: SpaceExpr) -> dict:
    return {"v": SCHEMA_VERSION, "space": _space_node_to_doc(e)}


_SPACE_DOC_KEYS = frozenset({"v", "space"})


def space_from_doc(doc: object) -> SpaceExpr:
    top = _known(_expect_dict(doc, "space document"), _SPACE_DOC_KEYS, "space document")
    _expect_version(top)
    if "space" not in top:
        raise DocumentError("space documents need a 'space' field")
    return _space_node_from_doc(top["space"])


def space_index_to_doc(r: SpaceIndex) -> dict:
    out: dict = {"kind": r.kind, "rule": r.rule, "compact": r.compact}
    if r.index is not None:
        out["index"] = ordinal.to_json(r.index)
        out["index_text"] = ordinal.to_text(r.index)
    return out


# ---------------------------------------------------------------------------
# traces and reports
# ---------------------------------------------------------------------------


def trace_to_doc(steps: Sequence[TraceStep], q: Fraction, sz_eps: Optional[int]) -> dict:
    """The trace document of `steps`, step k at index k, with each step's
    set as `SplicedText` (None for an empty stage).

    Each distinct snapshot node is written once as canonical text.  The
    snapshots are written from the last step back, so one that holds a
    later one (step k of a chain holds step k + 1) splices that text in,
    and the work is that of the report's bytes, not of their nesting."""
    texts: dict[int, str] = {}
    for s in reversed(steps):
        if s.snapshot is not None:
            texts[id(s.snapshot)] = _node_text(s.snapshot, texts)
    return {
        "v": SCHEMA_VERSION,
        "q": frac_to_str(Fraction(q)),
        "steps": [
            {
                "step": k,
                "set": None if s.snapshot is None else SplicedText(texts[id(s.snapshot)]),
                "apexes": s.apex_count,
                "diam_q": frac_to_str(s.diam_q),
            }
            for k, s in enumerate(steps)
        ],
        "sz_eps": sz_eps,
    }


def suite_report_to_doc(report: SuiteReport, seed: int) -> dict:
    """The ``verify`` report of one suite run."""
    cases = []
    for c in report.cases:
        entry: dict = {"index": c.index, "passed": c.passed, "detail": c.detail}
        if c.counterexample:
            entry["counterexample"] = c.counterexample
        cases.append(entry)
    return {
        "v": SCHEMA_VERSION,
        "command": "verify",
        "suite": report.suite,
        "samples": report.samples,
        "seed": seed,
        "passed": report.passed,
        "failed": report.failed,
        "cases": cases,
    }


class Spliced:
    """A report value given by its canonical text: `dumps_canonical` writes
    `render()` where the value's JSON would go."""

    def render(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class SplicedText(Spliced):
    """A value whose canonical text is already written."""

    text: str

    def render(self) -> str:
        return self.text


@dataclass(frozen=True)
class SharedRows(Spliced):
    """A JSON array of rows whose entries recur, as a value of a report,
    given by runs: a run (prefix, m) stands for the rows of the key
    tuples prefix + (k,), k = 1..m, in order, and the row of a key tuple t
    is [columns[0][t[0] - 1], columns[1][t[1] - 1], ...], where each column
    holds, by k - 1, the canonical text of its entry for key k."""

    columns: Sequence[Sequence[str]]
    runs: Sequence[tuple[Sequence[int], int]]

    def __len__(self) -> int:
        return sum(m for _, m in self.runs)

    def render(self) -> str:
        """The canonical text of the array: per run, the prefix's text
        P = "[a,b," is built once and the rows are P joined around the last
        column's texts for k = 1..m."""
        *heads, last = self.columns
        # a leading pad lets each key index its own text
        heads = [["", *(t + "," for t in col)] for col in heads]
        out = []
        for prefix, m in self.runs:
            p = "[" + "".join(map(getitem, heads, prefix))
            out.append(p + ("]," + p).join(last[:m]) + "]")
        return "[" + ",".join(out) + "]"


def scaled_copy_texts(K: FanSet, doc: dict, scales: Sequence[Fraction]) -> list[str]:
    """By k - 1, the canonical text of scaled(scales[k - 1], K), given K's
    document: K (or the body of a `Scale` K) is encoded once and each
    copy's scale is spliced around it.  A `Sing` copy is K itself, as is a
    copy at scale 1; a copy of Scale(b, body) at scale a is scaled by a * b
    around body, and any other copy by a around K."""
    own = _canonical(doc)
    if isinstance(K, Sing):
        return [own] * len(scales)
    if isinstance(K, Scale):
        body, texts = doc["scale"]["body"], (frac_to_str(a * K.a_q) for a in scales)
    else:
        body, texts = doc, map(frac_to_str, scales)
    head, tail = '{"scale":{"a_q":"', '","body":' + _canonical(body) + "}}"
    return [own if a == 1 else head + t + tail for a, t in zip(scales, texts)]


class _HasSpliced(Exception):
    """The encoder met a `Spliced` value."""


def _refuse(o: object) -> object:
    if isinstance(o, Spliced):
        raise _HasSpliced
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


# one encoder for every report: json.dumps builds a new one per call once
# any option is set, and these are its defaults otherwise
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_refuse).encode


def dumps_canonical(doc: object) -> str:
    """Byte-deterministic rendering: sorted keys, fixed separators, LF end.

    A `Spliced` value, at any depth, renders as its own text.  A document
    without one is encoded in one call; the encoder stops at the first
    `Spliced` value it meets, and the document is then walked by
    `_spliced`.
    """
    try:
        return _canonical(doc) + "\n"
    except _HasSpliced:
        return _spliced(doc) + "\n"


def _spliced(v: object) -> str:
    """The canonical text of v, each `Spliced` value's own text in its place."""
    if isinstance(v, Spliced):
        return v.render()
    if isinstance(v, dict):
        return "{" + ",".join(
            f"{encode_basestring_ascii(k)}:{_spliced(x)}" for k, x in sorted(v.items())
        ) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(map(_spliced, v)) + "]"
    return _LEAVES.get(type(v), _canonical)(v)


# the encoder's own texts of the leaves a report holds most, without a call
# through `_canonical` per leaf
_LEAVES = {str: encode_basestring_ascii, int: int.__repr__}


def loads(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from None
