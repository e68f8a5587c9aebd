"""Command-line front end: documents in, canonical JSON reports out.

Subcommands
-----------
``ord EXPR``
    Evaluate an ordinal expression ("w^2*3 + w") to its CNF JSON.
``space eval FILE``
    Index of a direct-sum space document, with the rule that produced it.
``set derive FILE --eps-q P/Q [--steps N]``
    Iterated eps-derivation of a set document, with a step-by-step trace.
    Product documents route through the union-of-products iterator, which
    reports term and point counts per step.
``verify SUITE [--samples N] [--seed N]``
    Run a randomized containment-check suite; exit 1 on any failing case.
``sigma A B C D`` / ``frount D EPS Q M``
    The quantitative stage bounds, echoing their inputs.
``cover L FILE...``
    Integer-tuple cover of the q-ball spanned by factor set documents.  Its
    ``tuples`` array holds the tuples k and its ``products`` array one
    scaled copy per factor and row.  Each factor is encoded as a document
    once, and its copies' texts are spliced from that text and the cover's
    one scale ladder, up to the largest k a tuple uses.  Both arrays reach
    the renderer as `SharedRows` over the cover's runs (a prefix and the
    count of last coordinates 1..m), which joins the texts into the rows
    run by run.

Each subcommand is one entry of the command table ``COMMANDS``: its words,
its handler (``cmd_*``), its positionals and its options.  The handler
reads the parsed arguments directly and returns the report document and
the exit code; ``main`` only parses argv, sets up logging, calls the
handler and writes the report.

Plain argv (a command's exact words, its positionals as one run, and its
exact flags each followed by one value) is matched straight from the
table into the namespace argparse would return.  Any other argv goes to
the argparse parser that `build_parser` builds from the same table, so
argparse answers ``--help``, every usage error, ``--opt=value``, ``--``,
abbreviated flags, negative numbers and the top-level ``--log``.

Reports are canonical JSON (sorted keys, fixed separators, LF) so a fixed
invocation is byte-identical across runs; anything time-dependent goes to
stderr through logging only.  Set ``SZLENK_LOG=info`` (or pass ``--log
info``; the flag wins) to see wall-clock timings.

One process may call ``main`` many times.  The parser is built on the first
call that needs it and shared by the later ones.  Log lines go through one
handler on the ``szlenk`` logger to whatever ``sys.stderr`` is when each
line is written, each call sets only that logger's level, and the root
logger is left alone.

Exit codes: 0 success, 1 a failed ``verify`` case, 2 usage,
parse, or document errors (input nested past the recursion limit included,
and a ``sigma`` or ``frount`` result or a ``cover`` scale longer than
Python prints an integer, ``sys.get_int_max_str_digits()``).
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import ordinal
from .calculus import InvalidParams, check_power, direct_sum_index, frount_M, sigma
from .checks import run_suite
from .documents import (
    SCHEMA_VERSION,
    DocumentError,
    SharedRows,
    dumps_canonical,
    fan_node_to_doc,
    fanset_from_doc,
    loads,
    scaled_copy_texts,
    space_from_doc,
    space_index_to_doc,
    suite_report_to_doc,
    trace_to_doc,
)
from .exactmath import ROOT_BITS, pow_bounds
from .fansets import ProdQ, Scale, Sing, derive_steps
from .ordinal import frac_from_str, frac_to_str
from .pointmodel import ProductModel
from .products import (
    ProductUnion,
    bq_cover,
    derive_product_step,
    product_union_derive,
    union_count,
)

LOG = logging.getLogger("szlenk.cli")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command in `COMMANDS`.

    Built on the first call and shared after it: ``parse_args`` leaves the
    parser as it was and answers each call with a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="szlenk",
        description="exact Szlenk-style index computations on documents",
    )
    parser.add_argument(
        "--log",
        metavar="LEVEL",
        default=None,
        help="log level (debug/info/warning/error); overrides SZLENK_LOG",
    )
    top = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for words, (handler, summary, positionals, options) in COMMANDS.items():
        sub = top
        if len(words) == 2:
            if words[0] not in groups:
                group = top.add_parser(words[0], help=GROUPS[words[0]])
                groups[words[0]] = group.add_subparsers(dest=f"{words[0]}_command", required=True)
            sub = groups[words[0]]
        p = sub.add_parser(words[-1], help=summary)
        p.set_defaults(cmd=" ".join(words), handler=handler)
        for name, kwargs in [*options.items(), *positionals.items()]:
            p.add_argument(name, **kwargs)
    return parser


def _match(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """The namespace ``build_parser().parse_args(argv)`` returns, for argv
    of the plain shape; None for any other argv, which argparse then reads.

    Plain argv is a command's exact words, then its positionals as one run,
    with options before or after it.  Each option is one of the command's
    exact flags followed by a value that is "-" or does not start with "-",
    once at most, and every required option is there.  Values convert as
    argparse converts them (`type`, then `choices`).  Everything else goes
    to argparse: help, usage errors, ``--opt=value``, ``--``, abbreviated
    flags, negative numbers, the top-level ``--log``; so does a run broken
    by an option, which argparse refuses when the run ends in a
    ``nargs="+"`` list."""
    for n in (1, 2):
        words = tuple(argv[:n])
        if words in COMMANDS:
            break
    else:
        return None
    handler, _, positionals, options = COMMANDS[words]
    ns: dict = {"log": None, "command": words[0], "cmd": " ".join(words), "handler": handler}
    if n == 2:
        ns[f"{words[0]}_command"] = words[1]
    run: list[str] = []
    closed = False  # an option came after the run
    i = n
    try:
        while i < len(argv):
            token = argv[i]
            if token[:1] != "-" or token == "-":
                if closed:
                    return None
                run.append(token)
                i += 1
                continue
            o = options.get(token)
            if o is None or o["dest"] in ns or i + 1 == len(argv):
                return None
            value = argv[i + 1]
            if value[:1] == "-" and value != "-":
                return None
            ns[o["dest"]] = _convert(value, o)
            closed = bool(run)
            i += 2
        *heads, (last, spec) = positionals.items()
        plus = spec.get("nargs") == "+"
        if len(run) < len(positionals) or (len(run) > len(positionals) and not plus):
            return None
        for (dest, a), value in zip(heads, run):
            ns[dest] = _convert(value, a)
        rest = [_convert(v, spec) for v in run[len(heads):]]
        ns[last] = rest if plus else rest[0]
    except ValueError:
        return None
    for o in options.values():
        if o["dest"] not in ns:
            if o.get("required"):
                return None
            ns[o["dest"]] = o.get("default")
    return argparse.Namespace(**ns)


def _convert(text: str, spec: dict) -> object:
    """text as argparse stores it for the argument of these keyword
    arguments (its `type`, then its `choices`); ValueError where argparse
    reports a usage error."""
    value = text if "type" not in spec else spec["type"](text)
    if "choices" in spec and value not in spec["choices"]:
        raise ValueError(f"invalid choice {value!r}")
    return value


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _parse_frac(text: str, what: str) -> Fraction:
    try:
        return frac_from_str(text)
    except ValueError:
        raise InvalidParams(f"{what} must be a fraction like 3/4, got {text!r}") from None


def _read_json(path: str) -> object:
    if path == "-":
        return loads(sys.stdin.read())
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    return loads(text)


class _StderrHandler(logging.StreamHandler):
    """Writes to the ``sys.stderr`` of the moment of each record, so an
    in-process caller that swaps stderr between calls sees its own lines."""

    def __init__(self) -> None:
        logging.Handler.__init__(self)  # StreamHandler would bind a stream

    @property
    def stream(self):
        return sys.stderr


@functools.cache
def _szlenk_logger() -> logging.Logger:
    """The ``szlenk`` logger with the CLI's one handler; the root logger is
    left to the host."""
    handler = _StderrHandler()
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger = logging.getLogger("szlenk")
    logger.addHandler(handler)
    return logger


def _setup_logging(flag: Optional[str]) -> None:
    name = flag if flag is not None else os.environ.get("SZLENK_LOG", "warning")
    level = getattr(logging, str(name).upper(), None)
    if not isinstance(level, int):
        raise InvalidParams(f"unknown log level {name!r}")
    _szlenk_logger().setLevel(level)


def _printable(value: int, command: str) -> int:
    """value, unless it has more digits than Python converts an integer to
    text (`sys.get_int_max_str_digits`), which the report needs."""
    limit = sys.get_int_max_str_digits()
    # 3321928 / 10**6 < log2(10): a value this short has at most limit digits
    if not limit or value.bit_length() <= limit * 3321928 // 10**6:
        return value
    if value >= 10**limit:
        # 3010299 / 10**7 < log10(2): a count at most two digits short
        digits = (value.bit_length() - 1) * 3010299 // 10**7 + 1
        while value >= 10**digits:
            digits += 1
        raise InvalidParams(
            f"{command} result has {digits} digits, over the "
            f"{limit}-digit limit on printing integers"
        )
    return value


def _emit(doc: dict, args: argparse.Namespace) -> None:
    if args.format == "json":
        text = dumps_canonical(doc)
    else:
        text = _render_text(args.cmd, doc)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# command handlers: each takes the parsed arguments and returns
# (report document, exit code)
# ---------------------------------------------------------------------------


def cmd_ord(args: argparse.Namespace) -> tuple[dict, int]:
    value = ordinal.parse(args.expr)
    return ordinal.to_json(value), EXIT_OK


def cmd_space_eval(args: argparse.Namespace) -> tuple[dict, int]:
    expr = space_from_doc(_read_json(args.file))
    result = direct_sum_index(expr)
    doc = {
        "v": SCHEMA_VERSION,
        "command": args.cmd,
        "result": space_index_to_doc(result),
    }
    return doc, EXIT_OK


def cmd_set_derive(args: argparse.Namespace) -> tuple[dict, int]:
    eps_q = _parse_frac(args.eps_q, "--eps-q")
    F, q = fanset_from_doc(_read_json(args.file))
    if eps_q <= 0:
        raise InvalidParams("--eps-q must be positive")
    if args.steps < 0:
        raise InvalidParams("--steps must be >= 0")
    if isinstance(F, ProdQ):
        return _derive_product(F, q, eps_q, args)
    steps = derive_steps(F, eps_q, args.steps)
    settled = next((k for k, s in enumerate(steps) if s.snapshot is None), None)
    doc = {
        "v": SCHEMA_VERSION,
        "command": args.cmd,
        "eps_q": frac_to_str(eps_q),
        "trace": trace_to_doc(steps, q, settled),
    }
    return doc, EXIT_OK


def _derive_product(
    F: ProdQ, q: Fraction, eps_q: Fraction, args: argparse.Namespace
) -> tuple[dict, int]:
    """Product documents: iterate the union-of-products form.

    The trace records term/point counts per step rather than snapshots
    (derived products need not stay products); a step's point count is the
    orbit-weighted size of the union of its terms (`union_count`)."""
    factors = [(Fraction(1), f) for f in F.factors]
    pu: Optional[ProductUnion] = None
    entries: list[dict] = []
    settled: Optional[int] = None
    for k in range(1, args.steps + 1):
        if pu is None:
            pu = derive_product_step(factors, eps_q)
        else:
            pu = product_union_derive(pu, eps_q)
        entries.append({"step": k, "terms": len(pu.terms), "points": union_count(pu.model, pu.terms)})
        if pu.is_empty():
            settled = k
            break
    # the first step's model holds the undivided product; build it only
    # when that step did not run
    model = ProductModel.of(F.factors) if pu is None else pu.model
    points = math.prod(map(sum, model.weights))
    doc = {
        "v": SCHEMA_VERSION,
        "command": args.cmd,
        "eps_q": frac_to_str(eps_q),
        "q": frac_to_str(q),
        "product": True,
        "steps": [{"step": 0, "terms": 1, "points": points}] + entries,
        "sz_eps": settled,
    }
    return doc, EXIT_OK


def cmd_verify(args: argparse.Namespace) -> tuple[dict, int]:
    report = run_suite(args.suite, args.samples, args.seed)
    return suite_report_to_doc(report, args.seed), (EXIT_OK if report.failed == 0 else EXIT_FAIL)


def cmd_sigma(args: argparse.Namespace) -> tuple[dict, int]:
    a, b, c, d = (_parse_frac(getattr(args, n), n) for n in "abcd")
    value = _printable(sigma(a, b, c, d), args.cmd)
    doc = {
        "v": SCHEMA_VERSION,
        "command": args.cmd,
        "params": {
            "a": frac_to_str(a),
            "b": frac_to_str(b),
            "c": frac_to_str(c),
            "d": frac_to_str(d),
        },
        "value": value,
    }
    return doc, EXIT_OK


def cmd_frount(args: argparse.Namespace) -> tuple[dict, int]:
    d = _parse_frac(args.d, "d")
    eps = _parse_frac(args.eps, "eps")
    qv = _parse_frac(args.q, "q")
    m = args.m
    if eps <= 0 or qv < 1:
        raise InvalidParams("frount needs eps > 0 and q >= 1")
    check_power(eps, qv, "q")
    # eps enters through its q-th power; round it down so the reported M
    # never understates the bound for the true eps.
    eps_q = pow_bounds(eps, qv)[0]
    if eps_q == 0:  # a fractional power's lower bound resolves 2^-ROOT_BITS
        raise InvalidParams(
            f"eps^q is below 2^-{ROOT_BITS}, the precision of fractional "
            f"powers (eps = {frac_to_str(eps)}, q = {frac_to_str(qv)})"
        )
    value = _printable(frount_M(d, eps_q, qv, m), args.cmd)
    doc = {
        "v": SCHEMA_VERSION,
        "command": args.cmd,
        "params": {
            "d": frac_to_str(d),
            "eps": frac_to_str(eps),
            "q": frac_to_str(qv),
            "m": m,
        },
        "value": value,
    }
    return doc, EXIT_OK


def cmd_cover(args: argparse.Namespace) -> tuple[dict, int]:
    factors = []
    qs = []
    for path in args.files:
        F, q = fanset_from_doc(_read_json(path))
        factors.append(F)
        qs.append(q)
    if len(set(qs)) != 1:
        raise DocumentError("all factor documents must share the same q")
    cover = bq_cover(factors, args.l, qs[0])
    # a copy's scale is the one number of its document that no input
    # document held, so it is the one that can be too long to print: a on
    # a plain factor, a * b on a Scale(b, .), none on a Sing.  Every ladder
    # scale is checked, the ones past the largest k a tuple uses included.
    bs = (K.a_q if isinstance(K, Scale) else 1 for K in factors if not isinstance(K, Sing))
    for b in dict.fromkeys(bs):
        for a in cover.scales:
            c = a * b
            _printable(max(c.numerator, c.denominator), args.cmd)
    scales = cover.scales[: cover.top]
    doc = {
        "v": SCHEMA_VERSION,
        "command": args.cmd,
        "l": cover.l,
        "q": frac_to_str(cover.q),
        "n": cover.n,
        "tuples": SharedRows([[str(k) for k in range(1, cover.top + 1)]] * cover.n, cover.runs),
        # row k of the products holds factor i's (k_i/l)-scaled copy,
        # spliced from the factor's one document
        "products": SharedRows(
            [scaled_copy_texts(K, fan_node_to_doc(K), scales) for K in factors], cover.runs
        ),
    }
    return doc, EXIT_OK


# ---------------------------------------------------------------------------
# the command table: `build_parser` and `_match` both read it
# ---------------------------------------------------------------------------

# every command takes these two
_COMMON = {
    "--out": dict(
        dest="out", metavar="FILE", default=None, help="write the report here instead of stdout"
    ),
    "--format": dict(
        dest="format", choices=("json", "text"), default="json", help="report format (default json)"
    ),
}

# the parent words of two-word commands, with their help
GROUPS = {"space": "space-document commands", "set": "set-document commands"}

# words: (handler, help, positionals, options).  The positionals map each
# dest, in order, and the options each flag, to the keyword arguments of
# its ``add_argument``; each option gives its dest, and only the last
# positional may take nargs="+".  A run sets ``cmd`` (the words joined, as
# reports carry it) and ``handler``.
COMMANDS = {
    ("ord",): (
        cmd_ord, "evaluate an ordinal expression to CNF",
        {"expr": dict(help="expression over w, ^, *, +, integers")}, _COMMON,
    ),
    ("space", "eval"): (
        cmd_space_eval, "compute the index of a space document",
        {"file": dict(help="space document (JSON), or - for stdin")}, _COMMON,
    ),
    ("set", "derive"): (
        cmd_set_derive, "iterate the eps-derivation of a set document",
        {"file": dict(help="set document (JSON), or - for stdin")},
        {
            **_COMMON,
            "--eps-q": dict(
                dest="eps_q", required=True, metavar="P/Q", help="eps^q as a fraction, e.g. 1/2"
            ),
            "--steps": dict(
                dest="steps", type=int, default=32, metavar="N", help="maximum steps (default 32)"
            ),
        },
    ),
    ("verify",): (
        cmd_verify, "run a randomized containment-check suite",
        {"suite": dict(help="suite name (see the checks module)")},
        {
            **_COMMON,
            "--samples": dict(
                dest="samples", type=int, default=100, metavar="N",
                help="number of cases (default 100)",
            ),
            "--seed": dict(
                dest="seed", type=int, default=0, metavar="N", help="generator seed (default 0)"
            ),
        },
    ),
    ("sigma",): (
        cmd_sigma, "stage bound: least n with n >= (2a/(b-c))^d - (b/(b-c))^d + 1",
        {name: dict(help=f"parameter {name} as a fraction") for name in "abcd"}, _COMMON,
    ),
    ("frount",): (
        cmd_frount, "product emptiness bound M for m-fold derivations",
        {
            "d": dict(help="diameter bound as a fraction"),
            "eps": dict(help="eps as a fraction"),
            "q": dict(help="norm exponent q >= 1 as a fraction"),
            "m": dict(type=int, help="derivation depth m >= 2"),
        },
        _COMMON,
    ),
    ("cover",): (
        cmd_cover, "integer-tuple cover of the q-ball of scaled factors",
        {
            "l": dict(type=int, help="grid resolution l >= 1"),
            "files": dict(nargs="+", metavar="FILE", help="factor set documents (same q)"),
        },
        _COMMON,
    ),
}


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------


def _render_text(command: str, doc: dict) -> str:
    lines: list[str] = []
    if command == "ord":
        lines.append(ordinal.to_text(ordinal.from_json(doc)))
    elif command == "space eval":
        r = doc["result"]
        if r["kind"] == "ordinal":
            lines.append(
                f"index {r['index_text']}  (rule {r['rule']}, compact={str(r['compact']).lower()})"
            )
        else:
            lines.append(f"not Asplund  (rule {r['rule']})")
    elif command == "set derive":
        if doc.get("product"):
            for s in doc["steps"]:
                lines.append(f"step {s['step']}: terms={s['terms']} points={s['points']}")
            if doc["sz_eps"] is not None:
                lines.append(f"sz_eps = {doc['sz_eps']}")
            else:
                lines.append("not empty within the step budget")
        else:
            for s in doc["trace"]["steps"]:
                if s["set"] is None:
                    lines.append(f"step {s['step']}: empty")
                else:
                    lines.append(
                        f"step {s['step']}: apexes={s['apexes']} diam_q={s['diam_q']}"
                    )
            sz = doc["trace"]["sz_eps"]
            lines.append(
                f"sz_eps = {sz}" if sz is not None else "not empty within the step budget"
            )
    elif command == "verify":
        lines.append(
            f"suite {doc['suite']}: {doc['passed']}/{doc['samples']} passed, "
            f"{doc['failed']} failed"
        )
        for c in doc["cases"]:
            if not c["passed"]:
                cex = f"  [{c['counterexample']}]" if "counterexample" in c else ""
                lines.append(f"case {c['index']}: FAIL {c['detail']}{cex}")
    elif command == "sigma":
        p = doc["params"]
        lines.append(
            f"sigma({p['a']}, {p['b']}, {p['c']}, {p['d']}) = {doc['value']}"
        )
    elif command == "frount":
        p = doc["params"]
        lines.append(
            f"M(d={p['d']}, eps={p['eps']}, q={p['q']}, m={p['m']}) = {doc['value']}"
        )
    elif command == "cover":
        rows = doc["tuples"]
        lines.append(f"cover: n={doc['n']} l={doc['l']} q={doc['q']} tuples={len(rows)}")
        # a line is its prefix's texts, built once per run, around the last
        # k's texts; the tuples' columns hold each k as itself
        ks = range(1, len(rows.columns[-1]) + 1)
        scales = [frac_to_str(Fraction(k, doc["l"])) for k in ks]
        for prefix, m in rows.runs:
            head = "".join(f"{k}, " for k in prefix)
            mid = "".join(f"{scales[k - 1]}, " for k in prefix)
            lines += [f"  k=({head}{k})  scales=({mid}{s})" for k, s in zip(ks[:m], scales)]
    else:  # pragma: no cover - parser restricts commands
        raise InvalidParams(f"unknown command {command!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _match(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        _setup_logging(args.log)
        start = time.perf_counter()
        doc, code = args.handler(args)
        LOG.info("%s finished in %.3f s", args.cmd, time.perf_counter() - start)
        _emit(doc, args)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        # parsers and the symbolic engine recurse once per nesting level
        print("error: input nested too deeply (recursion limit reached)", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
