"""Exact ordinal arithmetic below epsilon_0, in Cantor normal form.

An ordinal is stored as a tuple of (exponent, coefficient) pairs with strictly
decreasing exponents and positive integer coefficients, i.e.

    w^e1 * c1 + w^e2 * c2 + ... + w^ek * ck      (e1 > e2 > ... > ek)

where each exponent is itself such an ordinal.  This represents every ordinal
below epsilon_0 uniquely and makes comparison, (non-commutative) addition and
multiplication, and w-powers exact and fast at the sizes this package needs.
"""
from __future__ import annotations

import re
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union


class ParseError(ValueError):
    """Raised on malformed ordinal text; carries the offending position."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class Ordinal:
    """An ordinal below epsilon_0 in Cantor normal form.

    ``cnf`` is a tuple of (exponent, coefficient) pairs; the empty tuple is 0.
    Instances are immutable, hashable and totally ordered.
    """

    cnf: tuple[tuple["Ordinal", int], ...] = ()

    def __post_init__(self) -> None:
        prev = None
        for exp, coeff in self.cnf:
            if not isinstance(exp, Ordinal) or not isinstance(coeff, int):
                raise TypeError("cnf terms must be (Ordinal, int) pairs")
            if coeff < 1:
                raise ValueError("cnf coefficients must be >= 1")
            if prev is not None and not exp < prev:
                raise ValueError("cnf exponents must be strictly decreasing")
            prev = exp

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "Ordinal":
        if n < 0:
            raise ValueError("ordinals are non-negative")
        if n == 0:
            return ZERO
        return Ordinal(((ZERO, n),))

    # -- predicates and accessors -----------------------------------------

    def is_zero(self) -> bool:
        return not self.cnf

    def is_finite(self) -> bool:
        return not self.cnf or (len(self.cnf) == 1 and self.cnf[0][0].is_zero())

    def as_int(self) -> int:
        if not self.is_finite():
            raise ValueError(f"{self} is not finite")
        return self.cnf[0][1] if self.cnf else 0

    def is_successor(self) -> bool:
        return bool(self.cnf) and self.cnf[-1][0].is_zero()

    def is_limit(self) -> bool:
        return bool(self.cnf) and not self.cnf[-1][0].is_zero()

    def leading_exponent(self) -> "Ordinal":
        if not self.cnf:
            raise ValueError("0 has no leading exponent")
        return self.cnf[0][0]

    # -- ordering ----------------------------------------------------------

    def _cmp(self, other: "Ordinal") -> int:
        for (e1, c1), (e2, c2) in zip(self.cnf, other.cnf):
            if e1 != e2:
                return -1 if e1._cmp(e2) < 0 else 1
            if c1 != c2:
                return -1 if c1 < c2 else 1
        if len(self.cnf) != len(other.cnf):
            return -1 if len(self.cnf) < len(other.cnf) else 1
        return 0

    def __lt__(self, other: "Ordinal") -> bool:
        return self._cmp(_coerce(other)) < 0

    def __le__(self, other: "Ordinal") -> bool:
        return self._cmp(_coerce(other)) <= 0

    def __gt__(self, other: "Ordinal") -> bool:
        return self._cmp(_coerce(other)) > 0

    def __ge__(self, other: "Ordinal") -> bool:
        return self._cmp(_coerce(other)) >= 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Union["Ordinal", int]) -> "Ordinal":
        return add(self, _coerce(other))

    def __radd__(self, other: int) -> "Ordinal":
        return add(_coerce(other), self)

    def __mul__(self, other: Union["Ordinal", int]) -> "Ordinal":
        return mul(self, _coerce(other))

    def __rmul__(self, other: int) -> "Ordinal":
        return mul(_coerce(other), self)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"Ordinal[{to_text(self)}]"


def _coerce(x: Union[Ordinal, int]) -> Ordinal:
    if isinstance(x, Ordinal):
        return x
    if isinstance(x, int):
        return Ordinal.from_int(x)
    raise TypeError(f"cannot interpret {x!r} as an ordinal")


ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


# -- core operations -------------------------------------------------------


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal sum a + b (left-absorbing, not commutative)."""
    a, b = _coerce(a), _coerce(b)
    if b.is_zero():
        return a
    if a.is_zero():
        return b
    lead = b.cnf[0][0]
    # Terms of a strictly below w^lead are absorbed by b.
    kept = [t for t in a.cnf if t[0] > lead]
    merged = list(b.cnf)
    boundary = [t for t in a.cnf if t[0] == lead]
    if boundary:
        merged[0] = (lead, boundary[0][1] + merged[0][1])
    return Ordinal(tuple(kept) + tuple(merged))


def mul(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal product a * b (left-distributive over +, not commutative)."""
    a, b = _coerce(a), _coerce(b)
    if a.is_zero() or b.is_zero():
        return ZERO
    e1, c1 = a.cnf[0]
    out = ZERO
    for f, d in b.cnf:
        if f.is_zero():
            # a * d scales the leading coefficient only.
            piece = Ordinal(((e1, c1 * d),) + a.cnf[1:])
        else:
            piece = Ordinal(((add(e1, f), d),))
        out = add(out, piece)
    return out


def omega_pow(a: Ordinal) -> Ordinal:
    """w ** a."""
    a = _coerce(a)
    return Ordinal(((a, 1),))


def is_power_of_omega(a: Ordinal) -> bool:
    """True iff a = w^e for some e (this includes 1 = w^0)."""
    a = _coerce(a)
    return len(a.cnf) == 1 and a.cnf[0][1] == 1


def least_omega_power_above(x: Ordinal) -> Ordinal:
    """The least w^a with x < w^a.

    For x = 0 this is 1 = w^0; otherwise x has leading exponent e and
    w^e <= x < w^(e+1), so the answer is w^(e+1).
    """
    x = _coerce(x)
    if x.is_zero():
        return ONE
    return omega_pow(add(x.leading_exponent(), ONE))


def sup_affine(slope: Ordinal, offset: Ordinal) -> Ordinal:
    """sup_n (slope*n + offset) over n < w.

    With slope 0, or lead(offset) > lead(slope), every member is the offset
    (s*n + o = o), so the sup is the offset itself; otherwise the members
    climb to slope * w = w^(lead(slope)+1).
    """
    if slope.is_zero() or (
        not offset.is_zero() and offset.leading_exponent() > slope.leading_exponent()
    ):
        return offset
    return omega_pow(add(slope.leading_exponent(), ONE))


# -- text syntax -----------------------------------------------------------
#
#   expr   := term ("+" term)*
#   term   := "w" ["^" base] ["*" nat] | nat
#   base   := nat | "w" | "(" expr ")"
#
# Terms are combined with ordinal addition, so input need not be in CNF:
# "w + w^2" evaluates to w^2.

_TOKEN = re.compile(r"\s*(w|\d+|[\^*+()])")


def _tokenize(text: str) -> Iterator[tuple[str, int]]:
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            return
        yield m.group(1), m.start(1)
        pos = m.end()


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = list(_tokenize(text))
        self.i = 0
        self.n = len(text)

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self) -> int:
        return self.tokens[self.i][1] if self.i < len(self.tokens) else self.n

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.n)
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        if self.peek() != tok:
            raise ParseError(f"expected {tok!r}", self.pos())
        self.i += 1

    def parse_expr(self) -> Ordinal:
        out = self.parse_term()
        while self.peek() == "+":
            self.take()
            out = add(out, self.parse_term())
        return out

    def parse_term(self) -> Ordinal:
        tok = self.peek()
        if tok is None:
            raise ParseError("expected a term", self.n)
        if tok.isdigit():
            self.take()
            return Ordinal.from_int(int(tok))
        if tok != "w":
            raise ParseError(f"expected 'w' or a number, got {tok!r}", self.pos())
        self.take()
        exponent = ONE
        if self.peek() == "^":
            self.take()
            exponent = self.parse_base()
        coeff = 1
        if self.peek() == "*":
            self.take()
            lit = self.peek()
            if lit is None or not lit.isdigit():
                raise ParseError("expected a coefficient after '*'", self.pos())
            self.take()
            coeff = int(lit)
            if coeff < 1:
                raise ParseError("coefficient must be >= 1", self.pos())
        return mul(omega_pow(exponent), Ordinal.from_int(coeff))

    def parse_base(self) -> Ordinal:
        tok = self.peek()
        if tok == "(":
            self.take()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok == "w":
            self.take()
            return OMEGA
        if tok is not None and tok.isdigit():
            self.take()
            return Ordinal.from_int(int(tok))
        raise ParseError("expected an exponent", self.pos())


def parse(text: str) -> Ordinal:
    """Parse ordinal text like "w^(w)*3 + w*2 + 5"."""
    p = _Parser(text)
    if not p.tokens:
        raise ParseError("empty input", 0)
    out = p.parse_expr()
    if p.peek() is not None:
        raise ParseError(f"trailing input {p.peek()!r}", p.pos())
    return out


def to_text(a: Ordinal) -> str:
    a = _coerce(a)
    if a.is_zero():
        return "0"
    parts = []
    for exp, coeff in a.cnf:
        if exp.is_zero():
            parts.append(str(coeff))
            continue
        if exp == ONE:
            body = "w"
        elif exp.is_finite():
            body = f"w^{exp.as_int()}"
        else:
            body = f"w^({to_text(exp)})"
        parts.append(body if coeff == 1 else f"{body}*{coeff}")
    return " + ".join(parts)


# -- JSON ------------------------------------------------------------------


def to_json(a: Ordinal) -> dict:
    a = _coerce(a)
    return {"cnf": [[to_json(exp), coeff] for exp, coeff in a.cnf]}


def from_json(doc: object) -> Ordinal:
    if not isinstance(doc, dict) or set(doc) != {"cnf"} or not isinstance(doc["cnf"], list):
        raise ValueError(f"not an ordinal document: {brief(doc)}")
    terms = []
    for item in doc["cnf"]:
        # type(...) is int: JSON true/false load as bool, an int subclass
        if not isinstance(item, list) or len(item) != 2 or type(item[1]) is not int:
            raise ValueError(f"malformed cnf term: {brief(item)}")
        terms.append((from_json(item[0]), item[1]))
    return Ordinal(tuple(terms))


# -- rationals as strings (shared helper for document schemas) -------------


def frac_to_str(x: Fraction) -> str:
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def frac_from_str(s: object) -> Fraction:
    if type(s) is int:  # not bool: JSON true/false are not numbers
        return Fraction(s)
    if not isinstance(s, str):
        raise ValueError(f"expected a rational string, got {brief(s)}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:  # exc may repeat s
        raise ValueError(f"bad rational literal {brief(s)}: {_cut(str(exc))}") from None


# -- values in error messages ------------------------------------------------

_REPR = reprlib.Repr()
_REPR.maxlist = _REPR.maxdict = 8
_REPR.maxstring = _REPR.maxlong = _REPR.maxother = 80


def brief(x: object) -> str:
    """repr(x) in at most 160 characters, for every error message that
    echoes a document value.  A short value keeps its repr (`reprlib`
    sorts dict keys); a long string or number keeps its ends around "...",
    a list or dict its first 8 entries, to 6 levels deep."""
    return _cut(_REPR.repr(x))


def _cut(text: str) -> str:
    return text if len(text) <= 160 else f"{text[:78]}...{text[-79:]}"
