"""Text formats for densities, contexts, and trace reports.

The plain density syntax round-trips exactly with the canonical form:

    expr     := term (('+' | '-') term)*
    term     := ['-'] factor ('*' factor)*
    factor   := atom ('^' posint)*
    atom     := rational | jet | func | '(' expr ')'
    jet      := name ('[' int (',' int)* ']')?
    func     := ('exp' | 'sin' | 'cos') '(' expr ')'
    rational := int ('/' posint)?

Multiplication is always written with '*'; a jet multi-index has one entry
per independent coordinate (so q[2] is the second x-derivative on a line).
Parentheses and function calls nest at most MAX_NESTING levels deep, and a
factor's exponent is at most MAX_EXPONENT, where a chain a^m^n and a power of
a group (a^m)^n both count as m*n.  A jet's total order (the sum of its
multi-index) is at most MAX_JET_ORDER; a derivative's output may exceed it,
and then prints but does not parse back.  A number has at most MAX_DIGITS
digits, as a literal and as a printed numerator or denominator.  Factors print
as even jets, then function factors, then odd jets.  Jets print in JetVar order
(field, total order, multi-index): q[1,0]*q[0,2]; function factors by kind,
then by argument structure, whatever the context's interning order.
Context files are line-based: one `indep` line naming the independent
coordinates, then one `field NAME even|odd antifield NAME` line per
conjugate pair; `#` starts a comment.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain, islice
from typing import NamedTuple, Optional

from .core import (
    Expression,
    FieldContext,
    JetVar,
    RESERVED_NAMES,
    _func,
    _structural_funcs,
    jet,
    unpack,
)
from .trace import SECTIONS

#: deepest nesting of '(' and function calls the parser accepts; the parser
#: recurses once per level, so this keeps it far from the interpreter's limit
MAX_NESTING = 100

#: largest exponent of one factor.  It bounds the growth of coefficients and
#: terms: ((2^1000)^1000)^1000 would be a number of 10^9 bits.  A power of a
#: group counts its own exponent times the largest exponent inside it
MAX_EXPONENT = 1000

#: largest total order (sum of the multi-index) of a jet in parsed text.  The
#: chain rule through a function factor grows super-polynomially with it: the
#: Euler operator of exp(q[K])*q[K]^3 took 0.07 s at K=16 and 5 s at K=32 on a
#: line, and of exp(q[8,8])*q[8,8]^3 1.6 s on a plane (20 s at [10,10]), with
#: Python 3.11 on a 2-core host
MAX_JET_ORDER = 16

#: most decimal digits in a number literal or a printed coefficient numerator or
#: denominator; the interpreter's default limit on int <-> str conversion, so
#: longer numbers get this module's error instead of one about its setting
MAX_DIGITS = 4300
_DIGITS_BOUND = 10**MAX_DIGITS


class ParseError(ValueError):
    """A syntax or naming error, carrying the 1-based line and column."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class _Token(NamedTuple):
    kind: str  # "number" | "name" | one-char symbol | "end"
    text: str
    line: int
    col: int


_SYMBOLS = frozenset("+-*/^()[],")
_DIGITS = frozenset("0123456789")  # str.isdigit would also accept non-ASCII digits


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j - i > MAX_DIGITS:
                raise ParseError(f"number longer than {MAX_DIGITS} digits", line, col)
            tokens.append(_Token("number", text[i:j], line, col))
            col += j - i
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
        elif ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], ctx: FieldContext) -> None:
        self.tokens = tokens
        self.pos = 0
        self.ctx = ctx
        self.depth = 0
        self.largest = 1  # largest exponent of a factor parsed in the current group

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.advance()
        if tok.kind != kind:
            found = repr(tok.text) if tok.text else "end of input"
            raise ParseError(f"expected {what}, found {found}", tok.line, tok.col)
        return tok

    def parse_expr(self) -> Expression:
        e = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            t = self.parse_term()
            e = e + t if op.kind == "+" else e - t
        return e

    def parse_term(self) -> Expression:
        negate = self.peek().kind == "-"
        if negate:
            self.advance()
        e = self.parse_factor()
        while self.peek().kind == "*":
            self.advance()
            e = e * self.parse_factor()
        return -e if negate else e

    def parse_factor(self) -> Expression:
        outer, self.largest = self.largest, 1
        e = self.parse_atom()
        inner, power = self.largest, 1
        while self.peek().kind == "^":
            self.advance()
            tok = self.expect("number", "a positive integer exponent")
            step = int(tok.text)
            if step < 1:
                raise ParseError("exponent must be a positive integer", tok.line, tok.col)
            power *= step
            if inner * power > MAX_EXPONENT:
                raise ParseError(f"exponent larger than {MAX_EXPONENT}", tok.line, tok.col)
        self.largest = max(outer, inner * power)
        return e if power == 1 else e**power

    def parse_atom(self) -> Expression:
        tok = self.advance()
        if tok.kind == "number":
            numerator = int(tok.text)
            if self.peek().kind == "/":
                self.advance()
                den = self.expect("number", "a positive integer denominator")
                if int(den.text) == 0:
                    raise ParseError("denominator must be positive", den.line, den.col)
                return Expression.const(self.ctx, Fraction(numerator, int(den.text)))
            return Expression.const(self.ctx, numerator)
        if tok.kind == "(":
            return self._group(tok)
        if tok.kind == "name":
            return self._atom_name(tok)
        found = repr(tok.text) if tok.text else "end of input"
        raise ParseError(f"expected a term, found {found}", tok.line, tok.col)

    def _group(self, opening: _Token) -> Expression:
        """The expression after an opening '(' through its closing ')'."""
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"nesting deeper than {MAX_NESTING} levels", opening.line, opening.col
            )
        self.depth += 1
        e = self.parse_expr()
        self.expect(")", "')'")
        self.depth -= 1
        return e

    def _atom_name(self, tok: _Token) -> Expression:
        if tok.text in RESERVED_NAMES:
            arg = self._group(self.expect("(", f"'(' after {tok.text}"))
            self.largest = 1  # a power of the call leaves the argument's powers alone
            try:
                return _func(tok.text, arg)
            except ValueError as exc:
                raise ParseError(str(exc), tok.line, tok.col) from None
        if tok.text in self.ctx.indep:
            raise ParseError(
                f"{tok.text!r} is a base coordinate; densities may involve only "
                "fields, antifields, and their derivatives",
                tok.line,
                tok.col,
            )
        try:
            owner = self.ctx.owner(tok.text)
        except ValueError:
            raise ParseError(f"unknown symbol {tok.text!r}", tok.line, tok.col) from None
        order = self.ctx.zero_order
        if self.peek().kind == "[":
            self.advance()
            entries = [self._jet_entry(0)]
            while self.peek().kind == ",":
                self.advance()
                entries.append(self._jet_entry(sum(entries)))
            self.expect("]", "']' or ','")
            if len(entries) != self.ctx.n_indep:
                raise ParseError(
                    f"multi-index for {tok.text!r} needs {self.ctx.n_indep} "
                    f"entr{'y' if self.ctx.n_indep == 1 else 'ies'}, got {len(entries)}",
                    tok.line,
                    tok.col,
                )
            order = tuple(entries)
        return jet(self.ctx, owner, order)

    def _jet_entry(self, total: int) -> int:
        """One multi-index entry, given the sum of the entries before it."""
        tok = self.expect("number", "a jet order")
        k = int(tok.text)
        if total + k > MAX_JET_ORDER:
            raise ParseError(f"jet order larger than {MAX_JET_ORDER}", tok.line, tok.col)
        return k


def parse_density(text: str, ctx: FieldContext) -> Expression:
    """Parse a density expression into canonical form."""
    parser = _Parser(_tokenize(text), ctx)
    e = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(f"unexpected trailing input {tail.text!r}", tail.line, tail.col)
    return e


def parse_context(text: str) -> FieldContext:
    """Parse a context file: one `indep` line, then `field ... antifield ...` lines."""
    indep: Optional[list[str]] = None
    pairs: list[tuple[str, str, int]] = []
    last_line = 1
    for lineno, raw in enumerate(text.splitlines(), 1):
        last_line = lineno
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        if words[0] == "indep":
            if indep is not None:
                raise ParseError("duplicate indep line", lineno, 1)
            if len(words) < 2:
                raise ParseError("indep needs at least one coordinate name", lineno, 1)
            indep = words[1:]
        elif words[0] == "field":
            if len(words) != 5 or words[2] not in ("even", "odd") or words[3] != "antifield":
                raise ParseError(
                    "expected: field NAME even|odd antifield NAME", lineno, 1
                )
            if indep is None:
                raise ParseError("indep line must come before field lines", lineno, 1)
            pairs.append((words[1], words[4], 0 if words[2] == "even" else 1))
        else:
            raise ParseError(f"unknown directive {words[0]!r}", lineno, 1)
    try:
        return FieldContext(indep or (), pairs)
    except ValueError as exc:
        raise ParseError(str(exc), last_line, 1) from None


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def _jet_name(ctx: FieldContext, v: JetVar) -> str:
    name = ctx.names[v.owner]
    if not v.degree:
        return name
    return f"{name}[{','.join(str(k) for k in v.order)}]"


def _coeff_text(c, sign: int, frac: str = "%d/%d") -> tuple[str, str]:
    """("-" or "", magnitude text) of sign * c, for an int or Fraction c and a
    sign +-1, read from the int or from numerator and denominator with no
    Fraction arithmetic; a fraction fills in frac.  At most MAX_DIGITS digits
    in the numerator and in the denominator."""
    n, d = (c, 1) if type(c) is int else (c.numerator, c.denominator)
    if n < 0:
        n, sign = -n, -sign
    if n >= _DIGITS_BOUND or d >= _DIGITS_BOUND:
        raise ValueError(f"a coefficient has more than {MAX_DIGITS} digits")
    return "-" if sign < 0 else "", str(n) if d == 1 else frac % (n, d)


class _Output:
    """The memo of one output (a format_density or format_trace_report call):
    rows maps each monomial key, decoded once, to `factors(ctx, even, funcs,
    odd, self)` and its sign (see unpack), rank to its place in the order of
    every key decoded so far by structural key (structure), and args maps
    each function-argument id to the output's form of the argument."""

    __slots__ = ("factors", "rows", "structure", "rank", "args")

    def __init__(self, factors) -> None:
        self.factors = factors
        self.rows, self.structure, self.rank, self.args = {}, {}, {}, {}

    def decode(self, ctx: FieldContext, keys) -> None:
        """Decode each key of keys not yet decoded, then re-rank the union.
        A factor may render a function argument, whose keys a nested call
        ranks with those decoded so far: the ranked keys lead rows."""
        rows, structure = self.rows, self.structure
        for key in keys:
            if key not in rows:
                even, funcs, odd, sign = unpack(ctx, key)
                structure[key] = (even, _structural_funcs(ctx, funcs), odd)
                rows[key] = (self.factors(ctx, even, funcs, odd, self), sign)
        if len(rows) > len(self.rank):
            # rank lists its keys in order: the sort merges the new keys in
            order = [*self.rank, *islice(rows, len(self.rank), None)]
            order.sort(key=structure.__getitem__)
            self.rank = dict(zip(order, range(len(order))))


def _rows(e: Expression, out: _Output) -> list:
    """((factors, sign), coefficient) per monomial of e, in display order: the
    keys out has not met are decoded and ranked first (see _Output), so the
    sort compares int ranks only."""
    terms = e.terms
    if not terms.keys() <= out.rank.keys():
        out.decode(e.ctx, terms)
    rows = out.rows
    return [(rows[key], terms[key]) for key in sorted(terms, key=out.rank.__getitem__)]


def _arg_text(ctx: FieldContext, aid: int, out: _Output, render) -> str:
    """The text of a function argument as `render` writes it, once per output."""
    text = out.args.get(aid)
    if text is None:
        text = out.args[aid] = render(ctx.arg(aid), out)
    return text


def _signed_sum(rows: list, sep: str, frac: str) -> str:
    """Join rows of _rows as a signed sum; a coefficient of magnitude one is
    written only when there are no factors.  Each row's sign and magnitude
    text come from _coeff_text, a fraction written as frac."""
    chunks = []
    for (factors, sign), coeff in rows:
        minus, digits = _coeff_text(coeff, sign, frac)
        if digits != "1" or not factors:
            body = digits + sep + factors if factors else digits
        else:
            body = factors
        chunks.append((" - " if minus else " + ") + body if chunks else minus + body)
    return "".join(chunks) or "0"


def _plain_factors(ctx: FieldContext, even, funcs, odd, out: _Output) -> str:
    parts = []
    for v, power in even:
        text = _jet_name(ctx, v)
        parts.append(text if power == 1 else f"{text}^{power}")
    for (kind, aid), power in funcs:
        text = f"{kind}({_arg_text(ctx, aid, out, _plain)})"
        parts.append(text if power == 1 else f"{text}^{power}")
    parts.extend(_jet_name(ctx, v) for v in odd)
    return "*".join(parts)


def _plain(e: Expression, out: _Output) -> str:
    """Plain text of a density, in the output out."""
    return _signed_sum(_rows(e, out), "*", "%d/%d")


def _latex_jet(ctx: FieldContext, v: JetVar) -> str:
    if ctx.is_antifield(v.owner):
        base = ctx.names[ctx.antifield(v.owner)] + "^{\\dagger}"
    else:
        base = ctx.names[v.owner]
    if v.degree:
        sub = "".join(ctx.indep[d] * k for d, k in enumerate(v.order))
        base += "_{" + sub + "}"
    return base


def _latex_power(base: str, power: int) -> str:
    if power == 1:
        return base
    if "^" in base:
        return "{" + base + "}^{" + str(power) + "}"
    return base + "^{" + str(power) + "}"


def _latex_factors(ctx: FieldContext, even, funcs, odd, out: _Output) -> str:
    parts = [_latex_power(_latex_jet(ctx, v), power) for v, power in even]
    for (kind, aid), power in funcs:
        arg = _arg_text(ctx, aid, out, _latex)
        if kind == "exp":
            parts.append(_latex_power("e^{" + arg + "}", power))
        elif power == 1:
            parts.append("\\" + kind + "(" + arg + ")")
        else:
            parts.append("\\" + kind + "^{" + str(power) + "}(" + arg + ")")
    parts.extend(_latex_jet(ctx, v) for v in odd)
    return " ".join(parts)


def _latex(e: Expression, out: _Output) -> str:
    """LaTeX of a density, in the output out."""
    return _signed_sum(_rows(e, out), " ", "\\frac{%d}{%d}")


def _json_factors(ctx: FieldContext, even, funcs, odd, out: _Output) -> tuple:
    names = [(_jet_name(ctx, v), power) for v, power in even]
    return names, funcs, [_jet_name(ctx, v) for v in odd]


def density_to_json(e: Expression) -> dict:
    """JSON-ready form of a density, with a flat table of function arguments.

    Function-argument ids are renumbered from 0 in first-use order so the
    result is independent of the context's interning history.
    """
    ctx = e.ctx
    out = _Output(_json_factors)  # an arg id maps to its renumbered id
    queue: list[int] = []  # arg ids by renumbered id

    def arg_id(aid: int) -> int:
        if aid not in out.args:
            out.args[aid] = len(queue)
            queue.append(aid)
        return out.args[aid]

    def encode(x: Expression) -> dict:
        # ids are given in display order; every row gets lists of its own
        return {
            "monomials": [
                {
                    "coeff": "".join(_coeff_text(coeff, sign)),
                    "even": [list(u) for u in even],
                    "funcs": [[kind, arg_id(aid), power] for (kind, aid), power in funcs],
                    "odd": list(odd),
                }
                for ((even, funcs, odd), sign), coeff in _rows(x, out)
            ]
        }

    top = encode(e)
    # encoding an argument may append to queue; the loop reaches those too
    top["args"] = {str(i): encode(ctx.arg(aid)) for i, aid in enumerate(queue)}
    return top


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def format_density(e: Expression, style: str = "plain") -> str:
    """Render a density as canonical text: "plain", "json", or "latex"."""
    if style == "plain":
        return _plain(e, _Output(_plain_factors))
    if style == "json":
        return _dumps(density_to_json(e))
    if style == "latex":
        return _latex(e, _Output(_latex_factors))
    raise ValueError(f"unknown format {style!r}")


# ---------------------------------------------------------------------------
# trace reports
# ---------------------------------------------------------------------------


_SECTIONS = tuple(sect.name for sect in SECTIONS)  # in display order


def _report_renderer(report):
    """Plain text of the densities of one trace report, rendered once per
    object, as paired pieces and groups share density objects (expand_trace).
    The report keeps every object alive, so no id is reused meanwhile.  The
    distinct keys of all its densities are decoded and ranked first, at once."""
    densities = [report.residue, *(getattr(report, name + "_total") for name in _SECTIONS)]
    for name in _SECTIONS:
        for kind in ("_terms", "_groups"):
            densities += (x.density for x in getattr(report, name + kind))
    out = _Output(_plain_factors)
    out.decode(report.residue.ctx, dict.fromkeys(chain.from_iterable(e.terms for e in densities)))
    texts: dict = {}  # id(density) -> text

    def render(e: Expression) -> str:
        text = texts.get(id(e))
        if text is None:
            text = texts[id(e)] = _plain(e, out)
        return text

    return render


def _report_data(report) -> dict:
    """The trace report as plain data for json.dumps.  A piece or group row
    holds every field of its TraceTerm or TraceGroup but the section, which
    its place gives: the density as plain text, a group's pieces as labels."""
    render = _report_renderer(report)

    def row(obj, **extra) -> dict:
        data = dict(obj.__dict__, density=render(obj.density), **extra)
        del data["section"]
        return data

    return {
        "labels": report.labels,
        "parities": report.parities,
        "eq_sign": report.eq_sign,
        "verdict": report.verdict,
        "residue": render(report.residue),
        "matches": report.matches,
        "cancellation_pairs": report.cancellation_pairs,
        "bracket_check": report.bracket_check,
        "totals": {name: render(getattr(report, name + "_total")) for name in _SECTIONS},
        "sections": {
            name: {
                "terms": [row(t) for t in getattr(report, name + "_terms")],
                "groups": [
                    row(g, pieces=[t.label for t in g.pieces])
                    for g in getattr(report, name + "_groups")
                ],
            }
            for name in _SECTIONS
        },
    }


def trace_report_to_json(report) -> dict:
    """The JSON trace report parsed back: exactly what its text says."""
    return json.loads(format_trace_report(report, "json"))


def format_trace_report(report, style: str = "plain") -> str:
    """Render a Jacobi trace report as readable text or as JSON."""
    if style == "json":
        return _dumps(_report_data(report))
    if style != "plain":
        raise ValueError(f"unknown format {style!r}")
    render = _report_renderer(report)
    p = report.parities
    lines = [
        "shifted-graded Jacobi trace",
        f"functionals: F={report.labels[0]}  G={report.labels[1]}  H={report.labels[2]}",
        f"parities: F={p['F']} G={p['G']} H={p['H']}   eq-sign: {report.eq_sign:+d}",
        f"verdict: {report.verdict}",
        f"residue: {render(report.residue)}",
    ]
    for name in _SECTIONS:
        terms = getattr(report, name + "_terms")
        n = len(terms)
        lines.append(f"{name} ({n} piece{'s' if n != 1 else ''}):")
        for t in terms:
            partner = f" -> {t.partner[0]}:{t.partner[1]}" if t.partner else ""
            lines.append(f"  <{t.label}> {t.status}{partner}  {render(t.density)}")
    if report.matches:
        lines.append(
            "matches: "
            + "  ".join(f"<{label}>={sec}({level})" for label, sec, level in report.matches)
        )
    if report.cancellation_pairs:
        lines.append(
            "cancellations: "
            + "  ".join(f"(<{a}>,<{b}>)" for a, b in report.cancellation_pairs)
        )
    lines.append(
        "consistency: "
        + "  ".join(f"{k}={v}" for k, v in sorted(report.bracket_check.items()))
    )
    return "\n".join(lines)
