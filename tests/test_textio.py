"""Density parsing and the plain/LaTeX/JSON/trace renderers."""

import json
import random

import pytest

from varschouten import (
    Expression,
    Functional,
    ParseError,
    density_to_json,
    expand_trace,
    format_density,
    format_trace_report,
    jet,
    parse_context,
    parse_density,
    trace_report_to_json,
)
from varschouten.fuzz import FuzzParams, random_expression


class TestParsing:
    def test_product_binds_tighter_than_sum(self, ctx):
        got = format_density(parse_density("q + q[1] * q[2]", ctx))
        assert got == "q + q[1]*q[2]"

    def test_power_binds_tighter_than_product(self, ctx):
        got = format_density(parse_density("2 * q^2 + 1/2", ctx))
        assert got == "1/2 + 2*q^2"

    def test_parentheses_group(self, ctx):
        assert parse_density("q * (q + q[1])", ctx) == parse_density(
            "q^2 + q*q[1]", ctx
        )
        got = format_density(parse_density("(q + q[1])^2", ctx))
        assert got == "2*q*q[1] + q^2 + q[1]^2"

    def test_unary_minus_and_rationals(self, ctx):
        assert format_density(parse_density("-q + 3*q", ctx)) == "2*q"
        assert format_density(parse_density("3/6 * q", ctx)) == "1/2*q"
        assert format_density(parse_density("-1/2 * q[1]", ctx)) == "-1/2*q[1]"

    def test_comments_and_newlines(self, ctx):
        text = "# leading comment\nq * q[2]   # inline\n + p * p[1]\n"
        assert format_density(parse_density(text, ctx)) == "p*p[1] + q*q[2]"

    def test_adjacency_is_not_multiplication(self, ctx):
        with pytest.raises(ParseError, match="unexpected trailing input"):
            parse_density("2 q", ctx)

    def test_multi_index_form(self, ctx):
        assert parse_density("q[2]", ctx) == jet(ctx, "q", (2,))

    def test_roundtrip_plain_format(self, ctx):
        params = FuzzParams(seed=0, count=0, max_jet_order=2, max_degree=3)
        rng = random.Random(99)
        seen = 0
        for _ in range(40):
            e = random_expression(ctx, rng, params, rng.randrange(2))
            assert parse_density(format_density(e), ctx) == e
            seen += not e.is_zero()
        assert seen > 10


PARSE_ERRORS = [
    ("q +", 1, 4, "expected a term, found end of input"),
    ("q ** 2", 1, 4, "expected a term, found '*'"),
    ("q[0,1]", 1, 1, "multi-index for 'q' needs 1 entry, got 2"),
    (
        "x * q",
        1,
        1,
        "'x' is a base coordinate; densities may involve only fields, "
        "antifields, and their derivatives",
    ),
    ("zzz", 1, 1, "unknown symbol 'zzz'"),
    ("exp(p)", 1, 1, "exp argument must be parity-even"),
    ("q^0", 1, 3, "exponent must be a positive integer"),
    ("3/0", 1, 3, "denominator must be positive"),
    ("q]", 1, 2, "unexpected trailing input ']'"),
    ("q[2] q", 1, 6, "unexpected trailing input 'q'"),
    ("exp q", 1, 5, "expected '(' after exp, found 'q'"),
    ("q[1", 1, 4, "expected ']' or ',', found end of input"),
    ("(q", 1, 3, "expected ')', found end of input"),
    ("q^x", 1, 3, "expected a positive integer exponent, found 'x'"),
    ("1/x", 1, 3, "expected a positive integer denominator, found 'x'"),
    ("q[", 1, 3, "expected a jet order, found end of input"),
]


class TestParseErrors:
    @pytest.mark.parametrize("text,line,col,msg", PARSE_ERRORS)
    def test_message_and_location(self, ctx, text, line, col, msg):
        with pytest.raises(ParseError) as exc:
            parse_density(text, ctx)
        err = exc.value
        assert (err.line, err.col) == (line, col)
        assert str(err) == f"line {line}, column {col}: {msg}"


class TestContextParsing:
    def test_comment_lines_ignored(self):
        ctx = parse_context("# hello\nindep x\n# mid\nfield q even antifield p\n")
        assert ctx.names == ["q", "p"]

    @pytest.mark.parametrize(
        "text,msg",
        [
            (
                "field q even antifield p\nindep x\n",
                "indep line must come before field lines",
            ),
            ("foo bar\n", "unknown directive 'foo'"),
            ("indep x\nfield q even\n", "expected: field NAME even|odd antifield NAME"),
            (
                "indep x\nfield q sideways antifield p\n",
                "expected: field NAME even|odd antifield NAME",
            ),
            ("indep x\nindep y\nfield q even antifield p\n", "duplicate indep line"),
            ("indep x\nfield q-1 even antifield p\n", "invalid name 'q-1'"),
            ("indep x\nfield q even antifield q\n", "duplicate name 'q'"),
            ("indep x\nfield exp even antifield p\n", "name 'exp' is reserved"),
            ("indep x x\nfield q even antifield p\n", "names must be distinct"),
            ("indep x\n", "at least one field/antifield pair is required"),
            ("indep\n", "indep needs at least one coordinate name"),
        ],
    )
    def test_malformed_context_rejected(self, text, msg):
        with pytest.raises(ParseError) as exc:
            parse_context(text)
        assert msg in str(exc.value)


class TestPlainFormat:
    def test_zero(self, ctx):
        assert format_density(Expression.zero(ctx)) == "0"

    def test_sum_spacing_and_signs(self, ctx):
        assert format_density(parse_density("q - q[1]", ctx)) == "q - q[1]"

    def test_bare_rational(self, ctx):
        assert format_density(parse_density("5/3", ctx)) == "5/3"

    def test_function_powers(self, ctx):
        assert format_density(parse_density("sin(q)^2", ctx)) == "sin(q)^2"
        assert format_density(parse_density("sin(q) * sin(q)", ctx)) == "sin(q)^2"

    def test_nested_function_argument(self, ctx):
        e = parse_density("exp(sin(q))", ctx)
        assert format_density(e) == "exp(sin(q))"
        assert parse_density(format_density(e), ctx) == e

    def test_odd_reordering_normalizes(self, ctx):
        assert format_density(parse_density("q[1]*p + p*q[1]", ctx)) == "2*q[1]*p"

    def test_jets_print_in_graded_order_on_the_plane(self):
        # graded-lex puts q[1,0] before q[0,2]; plain lex would not
        plane = parse_context("indep x y\nfield q even antifield p\n")
        assert format_density(parse_density("q[0,2]*q[1,0]", plane)) == "q[1,0]*q[0,2]"
        assert format_density(parse_density("p[0,2]*p[1,0]", plane)) == "-p[1,0]*p[0,2]"

    def test_each_context_renders_its_own_arguments(self):
        # both contexts intern their function argument as id 0
        line = parse_context("indep x\nfield q even antifield p\n")
        pairs = parse_context("indep x\nfield u even antifield v\n")
        on_line = parse_density("exp(q)*p", line)
        on_pairs = parse_density("exp(u[1])*v", pairs)
        for _ in range(2):
            assert format_density(on_line) == "exp(q)*p"
            assert format_density(on_pairs) == "exp(u[1])*v"

    def test_function_factors_render_by_kind_then_argument(self):
        # the two contexts intern the arguments q, q[1], q*q[1], exp(q) in
        # orders as opposite as nesting allows, so arg ids order the two exp
        # factors one way in the first context and the other way in the second
        factors = ["exp(q)", "exp(q[1])", "sin(q*q[1])", "cos(exp(q))"]
        want = {
            "plain": [
                "cos(exp(q))*exp(q)*exp(q[1])*sin(q*q[1])",
                "cos(exp(q))*exp(q)*sin(q*q[1]) - cos(exp(q))*exp(q[1])"
                " + exp(q)*exp(q[1])^2*p[1]",
            ],
            "latex": [
                "\\cos(e^{q}) e^{q} e^{q_{x}} \\sin(q q_{x})",
                "\\cos(e^{q}) e^{q} \\sin(q q_{x}) - \\cos(e^{q}) e^{q_{x}}"
                " + e^{q} {e^{q_{x}}}^{2} q^{\\dagger}_{x}",
            ],
            "json": [
                '{"args":{"0":{"monomials":[{"coeff":"1","even":[],"funcs":[["exp",1,1]],'
                '"odd":[]}]},"1":{"monomials":[{"coeff":"1","even":[["q",1]],"funcs":[],'
                '"odd":[]}]},"2":{"monomials":[{"coeff":"1","even":[["q[1]",1]],"funcs":[],'
                '"odd":[]}]},"3":{"monomials":[{"coeff":"1","even":[["q",1],["q[1]",1]],'
                '"funcs":[],"odd":[]}]}},"monomials":[{"coeff":"1","even":[],"funcs":'
                '[["cos",0,1],["exp",1,1],["exp",2,1],["sin",3,1]],"odd":[]}]}',
                '{"args":{"0":{"monomials":[{"coeff":"1","even":[],"funcs":[["exp",1,1]],'
                '"odd":[]}]},"1":{"monomials":[{"coeff":"1","even":[["q",1]],"funcs":[],'
                '"odd":[]}]},"2":{"monomials":[{"coeff":"1","even":[["q",1],["q[1]",1]],'
                '"funcs":[],"odd":[]}]},"3":{"monomials":[{"coeff":"1","even":[["q[1]",1]],'
                '"funcs":[],"odd":[]}]}},"monomials":[{"coeff":"1","even":[],"funcs":'
                '[["cos",0,1],["exp",1,1],["sin",2,1]],"odd":[]},{"coeff":"-1","even":[],'
                '"funcs":[["cos",0,1],["exp",3,1]],"odd":[]},{"coeff":"1","even":[],'
                '"funcs":[["exp",1,1],["exp",3,2]],"odd":["p[1]"]}]}',
            ],
        }
        for order in (factors, [factors[2], factors[1], factors[3], factors[0]]):
            ctx = parse_context("indep x\nfield q even antifield p\n")
            built = {text: parse_density(text, ctx) for text in order}
            e1, e2, e3, e4 = (built[text] for text in factors)
            products = [
                e4 * e3 * e2 * e1,
                e2 * e2 * e1 * jet(ctx, "p", 1) + e3 * e4 * e1 - e2 * e4,
            ]
            for style, texts in want.items():
                assert [format_density(e, style) for e in products] == texts

        # On the plane, JetVar order (total order first) and (owner, order)
        # order differ: q[1,0] < q[0,2] as jets, but exp(q[0,2]) prints
        # first.  In the odd context, arguments hold odd jets.  Each context
        # interns its factors in the listed order and in reverse.
        cases = [
            (
                "indep x y\nfield q even antifield p\n",
                ["exp(q[0,2])", "exp(q[1,0])", "sin(1/2*q)", "sin(1/3*q)", "cos(exp(q*q[1,0])*q)"],
                lambda e, j: [
                    e[0] * e[1] * e[2] * e[3],
                    e[4] ** 2 * j("q", (0, 1)) - e[1] * e[0] * e[4] * j("p", (1, 1)),
                ],
                {
                    "plain": [
                        "exp(q[0,2])*exp(q[1,0])*sin(1/2*q)*sin(1/3*q)",
                        "-cos(q*exp(q*q[1,0]))*exp(q[0,2])*exp(q[1,0])*p[1,1]"
                        " + q[0,1]*cos(q*exp(q*q[1,0]))^2",
                    ],
                    "latex": [
                        "e^{q_{yy}} e^{q_{x}} \\sin(\\frac{1}{2} q) \\sin(\\frac{1}{3} q)",
                        "-\\cos(q e^{q q_{x}}) e^{q_{yy}} e^{q_{x}} q^{\\dagger}_{xy}"
                        " + q_{y} \\cos^{2}(q e^{q q_{x}})",
                    ],
                },
            ),
            (
                "indep t\nfield psi odd antifield chi\n",
                [
                    "exp(chi[1])",
                    "exp(chi)",
                    "sin(psi*psi[1])",
                    "sin(chi[2])",
                    "cos(psi*psi[2] + chi)",
                ],
                lambda e, j: [
                    e[4] * e[3] * e[2] * e[1] * e[0] * j("psi", 1) * j("psi", 0),
                    e[1] * e[0] ** 2 - e[2] * e[3] * j("psi", 2),
                ],
                {
                    "plain": [
                        "-cos(psi*psi[2] + chi)*exp(chi)*exp(chi[1])*sin(psi*psi[1])"
                        "*sin(chi[2])*psi*psi[1]",
                        "exp(chi)*exp(chi[1])^2 - sin(psi*psi[1])*sin(chi[2])*psi[2]",
                    ],
                    "latex": [
                        "-\\cos(psi psi_{tt} + psi^{\\dagger}) e^{psi^{\\dagger}}"
                        " e^{psi^{\\dagger}_{t}} \\sin(psi psi_{t}) \\sin(psi^{\\dagger}_{tt})"
                        " psi psi_{t}",
                        "e^{psi^{\\dagger}} {e^{psi^{\\dagger}_{t}}}^{2}"
                        " - \\sin(psi psi_{t}) \\sin(psi^{\\dagger}_{tt}) psi_{tt}",
                    ],
                },
            ),
        ]
        for context, factors, build, want in cases:
            for order in (factors, factors[::-1]):
                ctx = parse_context(context)
                built = {text: parse_density(text, ctx) for text in order}
                products = build(
                    [built[text] for text in factors], lambda name, k: jet(ctx, name, k)
                )
                for style, texts in want.items():
                    assert [format_density(e, style) for e in products] == texts

    def test_argument_text_survives_new_interning(self, ctx):
        text = "sin(q*exp(q[1]))*exp(q[1])*p - 1/2*cos(q)"
        e = parse_density(text, ctx)
        before = format_density(e)
        parse_density("exp(q[1]^2 + exp(q))*cos(2*q)*sin(q*exp(q[2]))", ctx)
        fresh_ctx = parse_context("indep x\nfield q even antifield p\n")
        fresh = format_density(parse_density(text, fresh_ctx))
        assert format_density(e) == before == fresh


class TestLatexFormat:
    def fmt(self, ctx, text):
        return format_density(parse_density(text, ctx), style="latex")

    def test_fraction_and_function_power(self, ctx):
        assert self.fmt(ctx, "3/4 * sin(q)^2") == "\\frac{3}{4} \\sin^{2}(q)"

    def test_exponential_and_antifield_dagger(self, ctx):
        assert self.fmt(ctx, "exp(q[1]) * p[2]") == "e^{q_{x}} q^{\\dagger}_{xx}"

    def test_negative_rational(self, ctx):
        assert self.fmt(ctx, "-2/7") == "-\\frac{2}{7}"

    def test_zero(self, ctx):
        assert format_density(Expression.zero(ctx), style="latex") == "0"

    def test_subscripts_and_trig(self, ctx):
        assert self.fmt(ctx, "q - q[1]") == "q - q_{x}"
        assert self.fmt(ctx, "cos(q) * p") == "\\cos(q) q^{\\dagger}"
        assert self.fmt(ctx, "q[2] + q^2") == "q^{2} + q_{xx}"

    def test_two_directions_spell_out_coordinates(self):
        ctx2 = parse_context("indep x y\nfield u even antifield v\n")
        assert format_density(jet(ctx2, "u", (1, 2)), style="latex") == "u_{xyy}"
        assert (
            format_density(jet(ctx2, "v", (0, 1)), style="latex")
            == "u^{\\dagger}_{y}"
        )

    def test_unknown_style_rejected(self, ctx):
        with pytest.raises(ValueError, match="unknown format"):
            format_density(parse_density("q", ctx), style="bogus")


class TestDensityJson:
    def test_structure(self, ctx):
        d = parse_density("3/4 * sin(q)^2 + exp(q[1]) * p[2]", ctx)
        assert density_to_json(d) == {
            "monomials": [
                {
                    "coeff": "1",
                    "even": [],
                    "funcs": [["exp", 0, 1]],
                    "odd": ["p[2]"],
                },
                {
                    "coeff": "3/4",
                    "even": [],
                    "funcs": [["sin", 1, 2]],
                    "odd": [],
                },
            ],
            "args": {
                "0": {
                    "monomials": [
                        {"coeff": "1", "even": [["q[1]", 1]], "funcs": [], "odd": []}
                    ]
                },
                "1": {
                    "monomials": [
                        {"coeff": "1", "even": [["q", 1]], "funcs": [], "odd": []}
                    ]
                },
            },
        }

    def test_no_function_factors_means_empty_args(self, ctx):
        assert density_to_json(parse_density("q * p", ctx)) == {
            "monomials": [
                {"coeff": "1", "even": [["q", 1]], "funcs": [], "odd": ["p"]}
            ],
            "args": {},
        }

    def test_a_monomial_met_twice_gets_lists_of_its_own(self, ctx):
        # q is a monomial of the density and of its exp argument
        d = density_to_json(parse_density("q*p + q + exp(q)*p", ctx))
        top = d["monomials"][1]
        (arg,) = d["args"]["0"]["monomials"]
        assert top == arg == {"coeff": "1", "even": [["q", 1]], "funcs": [], "odd": []}
        for field in ("even", "funcs", "odd"):
            assert top[field] is not arg[field]
        assert top["even"][0] is not arg["even"][0]

    def test_argument_ids_do_not_depend_on_interning_history(self):
        # parse the same density in two contexts with different warm-up
        # traffic; serialized ids must renumber from zero either way
        a = parse_context("indep x\nfield q even antifield p\n")
        b = parse_context("indep x\nfield q even antifield p\n")
        parse_density("exp(q[2]) + sin(q[1])", b)  # warm b's intern table
        text = "exp(q[1]) * sin(q)"
        ja = json.dumps(density_to_json(parse_density(text, a)), sort_keys=True)
        jb = json.dumps(density_to_json(parse_density(text, b)), sort_keys=True)
        assert ja == jb


class TestTraceRendering:
    @pytest.fixture(autouse=True)
    def _expand(self, golden):
        self.report = expand_trace(*golden)
        self.lines = format_trace_report(self.report).splitlines()

    def test_header_lines(self):
        assert self.lines[:6] == [
            "shifted-graded Jacobi trace",
            "functionals: F=F  G=G  H=H",
            "parities: F=1 G=1 H=1   eq-sign: +1",
            "verdict: verified",
            "residue: 0",
            "lhs (8 pieces):",
        ]

    def test_section_headings_and_piece_counts(self):
        assert self.lines[14] == "rhs1 (10 pieces):"
        assert self.lines[25] == "rhs2 (10 pieces):"
        assert len(self.lines) == 41

    def test_piece_lines_carry_label_status_partner(self):
        assert self.lines[6].startswith("  <1> matched -> rhs1:1  ")
        assert self.lines[13].startswith("  <8> matched -> rhs2:8  ")
        assert self.lines[15].startswith("  <9> cancelled -> rhs2:9  ")
        assert self.lines[35].startswith("  <8> matched -> lhs:8  ")

    def test_footer_lines(self):
        assert self.lines[36:] == [
            "reorder signs: {1}:+1  {2}:+1  {3}:+1  {4}:-1  {5}:-1  {6}:-1  "
            "{7}:+1  {8}:+1",
            "rhs2 group relabel: {1}-><10>  {2}-><2>  {3}-><12>  {4}-><6>  "
            "{5}-><9>  {6}-><4>  {7}-><11>  {8}-><8>",
            "matches: <1>=rhs1(canonical)  <2>=rhs1(canonical)  "
            "<3>=rhs2(canonical)  <4>=rhs2(canonical)  <5>=rhs1(canonical)  "
            "<6>=rhs2(canonical)  <7>=rhs1(canonical)  <8>=rhs2(canonical)",
            "cancellations: (<9>,<9>)  (<10>,<10>)  (<11>,<11>)  (<12>,<12>)  "
            "(<13>,<13>)  (<14>,<14>)",
            "consistency: joint=divergence  plain_defect=divergence  "
            "residue=canonical",
        ]

    def test_piece_densities_parse_back(self, ctx):
        for line in self.lines[6:14]:
            text = line.split("  ", 2)[2]
            assert not parse_density(text, ctx).is_zero()


class TestTraceJson:
    @pytest.fixture(autouse=True)
    def _expand(self, golden):
        self.js = trace_report_to_json(expand_trace(*golden))

    def test_top_level_keys(self):
        assert sorted(self.js) == [
            "bracket_check",
            "cancellation_pairs",
            "eq_sign",
            "labels",
            "ledger",
            "matches",
            "parities",
            "residue",
            "rhs2_relabel",
            "sections",
            "totals",
            "verdict",
        ]

    def test_summary_values(self):
        js = self.js
        assert js["labels"] == ["F", "G", "H"]
        assert js["parities"] == {"F": 1, "G": 1, "H": 1}
        assert js["eq_sign"] == 1
        assert js["verdict"] == "verified"
        assert js["residue"] == "0"
        assert js["ledger"] == {
            "1": 1, "2": 1, "3": 1, "4": -1, "5": -1, "6": -1, "7": 1, "8": 1,
        }
        assert js["rhs2_relabel"] == {
            "1": 10, "2": 2, "3": 12, "4": 6, "5": 9, "6": 4, "7": 11, "8": 8,
        }
        assert js["matches"] == [
            [1, "rhs1", "canonical"], [2, "rhs1", "canonical"],
            [3, "rhs2", "canonical"], [4, "rhs2", "canonical"],
            [5, "rhs1", "canonical"], [6, "rhs2", "canonical"],
            [7, "rhs1", "canonical"], [8, "rhs2", "canonical"],
        ]
        assert js["cancellation_pairs"] == [
            [9, 9], [10, 10], [11, 11], [12, 12], [13, 13], [14, 14],
        ]
        assert js["bracket_check"] == {
            "residue": "canonical",
            "plain_defect": "divergence",
            "joint": "divergence",
        }

    def test_sections_shape(self):
        sections = self.js["sections"]
        assert sorted(sections) == ["lhs", "rhs1", "rhs2"]
        lhs = sections["lhs"]
        assert sorted(lhs) == ["groups", "terms"]
        assert len(lhs["terms"]) == 8 and len(lhs["groups"]) == 8
        assert len(sections["rhs1"]["terms"]) == 10
        assert len(sections["rhs2"]["terms"]) == 10
        first = lhs["terms"][0]
        assert first["label"] == 1
        assert first["status"] == "matched"
        assert first["partner"] == ["rhs1", 1]
        assert first["struck"] == "G"

    def test_serializable(self):
        dumped = json.dumps(self.js, sort_keys=True)
        assert json.loads(dumped) == self.js
