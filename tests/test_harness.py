"""Command-line interface behavior, output formats, and exit codes."""

import dataclasses
import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import varschouten
from varschouten import (
    cli,
    format_density,
    functional_parity,
    fuzz,
    graded_symmetry_defect,
    is_exact,
    jacobi_defect,
    parse_context,
    parse_density,
    schouten_bracket,
)
from varschouten.cli import _build_parser, main
from varschouten.core import MAX_POWER
from varschouten.fuzz import MAX_DEGREE, MAX_MONOMIALS, FuzzParams
from varschouten.textio import MAX_DIGITS, MAX_EXPONENT, MAX_JET_ORDER, MAX_NESTING

GOLDEN_F = "p * q * q[2]"
GOLDEN_G = "p[1] * exp(q[1])"
GOLDEN_H = "p[2] * cos(q)"
PLANE = "indep x y\nfield q even antifield p\n"
# trace options whose report scales by a content past MAX_DIGITS digits: an
# int with 6,000 digits, and 1 over an int with 6,000
_BIG_INT_TRIPLE = ["--F", "9" * 3000 + "*p*q", "--G", "9" * 3000 + "*p*q", "--H", "p*q"]
_SEVENTHS = "1/" + "7" * 2000
_TINY_FRACTION_TRIPLE = [
    "--F", _SEVENTHS + "*p*q*q[1]", "--G", _SEVENTHS + "*p*q[2]", "--H", _SEVENTHS + "*p[1]*q"
]


def run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestEuler:
    def test_plain_output(self, capsys):
        code, out, err = run(["euler", "--density", GOLDEN_F, "--wrt", "q"], capsys)
        assert (code, out, err) == (0, "q*p[2] + 2*q[1]*p[1] + 2*q[2]*p\n", "")

    def test_json_output(self, capsys):
        code, out, err = run(
            ["euler", "--density", "q^2", "--wrt", "q", "--format", "json"], capsys
        )
        assert code == 0 and err == ""
        assert out == (
            '{"args":{},"monomials":'
            '[{"coeff":"2","even":[["q",1]],"funcs":[],"odd":[]}]}\n'
        )

    def test_side_flag_accepted(self, capsys):
        left = run(["euler", "--density", GOLDEN_F, "--wrt", "p"], capsys)
        right = run(
            ["euler", "--density", GOLDEN_F, "--wrt", "p", "--side", "right"], capsys
        )
        assert left[0] == right[0] == 0
        assert left[1] == right[1] == "q*q[2]\n"

    def test_custom_context_file(self, capsys, tmp_path):
        ctx_file = tmp_path / "ctx.txt"
        ctx_file.write_text("indep t\nfield u odd antifield w\n")
        code, out, err = run(
            ["euler", "--density", "w * u[1]", "--wrt", "u", "--ctx", str(ctx_file)],
            capsys,
        )
        assert (code, out, err) == (0, "-w[1]\n", "")

    def test_density_from_file(self, capsys, tmp_path):
        dens = tmp_path / "density.txt"
        dens.write_text("# stored density\np * q * q[2]\n")
        code, out, _ = run(
            ["euler", "--density", "@" + str(dens), "--wrt", "q"], capsys
        )
        assert code == 0
        assert out == "q*p[2] + 2*q[1]*p[1] + 2*q[2]*p\n"


class TestBracket:
    def test_golden_inner_bracket(self, capsys):
        code, out, err = run(
            ["bracket", "--F", GOLDEN_G, "--G", GOLDEN_H], capsys
        )
        assert (code, err) == (0, "")
        assert out == (
            "q[1]^2*cos(q)*exp(q[1])*p[2] + q[1]^2*q[2]*cos(q)*exp(q[1])*p[1]"
            " + q[2]^2*exp(q[1])*sin(q)*p[1]\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["bracket", "--F", "0", "--G", "p + q"],
            ["jacobi", "--F", "0", "--G", "0", "--H", "p + q"],
        ],
        ids=["bracket", "jacobi"],
    )
    def test_zero_argument_does_not_hide_a_mixed_density(self, capsys, argv):
        # the parity check runs before the zero shortcut of the bracket
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "parity-mixed" in err


class TestJacobi:
    def test_golden_triple_verifies(self, ctx, capsys):
        code, out, err = run(
            ["jacobi", "--F", GOLDEN_F, "--G", GOLDEN_G, "--H", GOLDEN_H], capsys
        )
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 2 and lines[1] == "ZERO"
        defect = parse_density(lines[0], ctx)
        assert not defect.is_zero() and is_exact(defect)

    def test_json_output(self, capsys):
        code, out, _ = run(
            [
                "jacobi", "--F", GOLDEN_F, "--G", GOLDEN_G, "--H", GOLDEN_H,
                "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload) == ["defect", "verdict"]
        assert payload["verdict"] == "ZERO"
        assert payload["defect"]["monomials"]

    def test_parity_mixed_input_rejected(self, capsys):
        code, out, err = run(
            ["jacobi", "--F", "p + q", "--G", "q", "--H", "q"], capsys
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: functional 'F' has a parity-mixed density; "
            "split it into homogeneous components first\n"
        )


class TestTrace:
    def test_plain_report(self, capsys):
        code, out, err = run(
            ["trace", "--F", GOLDEN_F, "--G", GOLDEN_G, "--H", GOLDEN_H], capsys
        )
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "shifted-graded Jacobi trace"
        assert lines[3] == "verdict: verified"
        assert len(lines) == 39

    def test_json_report(self, capsys):
        code, out, _ = run(
            [
                "trace", "--F", GOLDEN_F, "--G", GOLDEN_G, "--H", GOLDEN_H,
                "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "verified"
        assert payload["eq_sign"] == 1


class TestNormalize:
    def test_plain(self, capsys):
        code, out, err = run(["normalize", "--density", "q + q"], capsys)
        assert (code, out, err) == (0, "2*q\n", "")

    def test_latex(self, capsys):
        code, out, err = run(
            ["normalize", "--density", "q[1]*p + p*q[1]", "--format", "latex"],
            capsys,
        )
        assert (code, out, err) == (0, "2 q_{x} q^{\\dagger}\n", "")


class TestFuzz:
    def test_plain_summary(self, capsys):
        code, out, err = run(["fuzz", "--count", "3", "--seed", "5"], capsys)
        assert (code, out, err) == (0, "3/3 verified (0 degenerate)\n", "")

    def test_plain_failure_lines(self, ctx, capsys, monkeypatch):
        # every check fails, so each trial prints one residue line
        monkeypatch.setattr(fuzz, "is_exact", lambda e: False)
        code, out, err = run(["fuzz", "--count", "2", "--seed", "2026"], capsys)
        failures = fuzz.run_fuzz(ctx, FuzzParams(seed=2026, count=2))
        lines = out.splitlines()
        assert (code, err, lines[0], len(lines)) == (1, "", "0/2 verified (0 degenerate)", 3)
        for index, (line, failure) in enumerate(zip(lines[1:], failures["failures"])):
            seed = fuzz.trial_seed(2026, index)
            assert line == f"  trial {index} (seed {seed}): residue {failure['residue']}"

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize(
        "text",
        [
            "indep x\nfield q even antifield p\n",
            "indep x\nfield u even antifield v\nfield a odd antifield b\n",
            "indep t\nfield psi odd antifield chi\n",
        ],
        ids=["default", "pairs", "odd"],
    )
    def test_parity_choice_fixes_every_drawn_parity(self, monkeypatch, text, parity):
        drawn, draw = [], fuzz.random_functional

        def recorded(*args):
            drawn.append(draw(*args))
            return drawn[-1]

        monkeypatch.setattr(fuzz, "random_functional", recorded)
        params = FuzzParams(seed=2026, count=4, max_jet_order=1, parity=parity)
        report = fuzz.run_fuzz(parse_context(text), params)
        assert report["verified"] == report["trials"] == 4
        assert len(drawn) == 12
        nonzero = [F for F in drawn if not F.density.is_zero()]
        want = 1 if parity == "odd" else 0
        assert nonzero and {functional_parity(F) for F in nonzero} == {want}

    def test_a_monomial_past_its_redraws_is_left_out(self, ctx, monkeypatch):
        # with jets of order 0 the line has one odd jet, p, so an odd monomial
        # that draws three odd factors is zero; after 8 such draws in a row
        # _random_monomial gives up, and the density keeps its other monomial
        drawn, draw = [], fuzz._random_monomial

        def recorded(*args):
            drawn.append(draw(*args))
            return drawn[-1]

        monkeypatch.setattr(fuzz, "_random_monomial", recorded)
        params = FuzzParams(seed=66, count=1, max_jet_order=0, max_monomials=2, parity="odd")
        rng = random.Random(fuzz.trial_seed(params.seed, 0))
        triple = [fuzz.random_functional(ctx, rng, params, r) for r in "FGH"]
        assert drawn.count(None) == 1
        assert [X.density.parity for X in triple] == [1, 1, 1]
        assert fuzz.run_fuzz(ctx, params)["verified"] == 1

    def test_no_funcs_flag(self, capsys):
        code, out, _ = run(
            ["fuzz", "--count", "2", "--seed", "3", "--no-funcs"], capsys
        )
        assert (code, out) == (0, "2/2 verified (1 degenerate)\n")

    def test_json_summary_deterministic(self, capsys):
        argv = ["fuzz", "--count", "3", "--seed", "5", "--format", "json"]
        first = run(argv, capsys)
        second = run(argv, capsys)
        assert first == second
        assert first[0] == 0
        assert first[1] == (
            '{"degenerate":0,"failures":[],"trials":3,"verified":3}\n'
        )

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--count", "-5"),
            ("--max-jet-order", "-1"),
            ("--max-jet-order", str(MAX_JET_ORDER + 1)),  # past the parser's limit
            ("--max-degree", "0"),
            ("--max-degree", str(MAX_DEGREE + 1)),
            ("--max-monomials", "0"),
            ("--max-monomials", str(MAX_MONOMIALS + 1)),
            ("--max-monomials", "1000000"),
        ],
    )
    def test_out_of_range_settings_exit_2(self, capsys, flag, value):
        code, out, err = run(["fuzz", flag, value], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: " + flag[2:].replace("-", "_")) and err.count("\n") == 1

    def test_defaults_are_the_fuzz_params_defaults(self):
        args, defaults = _build_parser().parse_args(["fuzz"]), FuzzParams()
        for field in dataclasses.fields(FuzzParams):
            assert getattr(args, field.name) == getattr(defaults, field.name), field.name

    def test_zero_trials_verify(self, capsys):
        code, out, err = run(["fuzz", "--count", "0"], capsys)
        assert (code, out, err) == (0, "0/0 verified (0 degenerate)\n", "")

    def test_unknown_parity_rejected(self):
        with pytest.raises(ValueError, match="parity"):
            FuzzParams(parity="mixed")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("count", True),
            ("count", 2.5),
            ("seed", 1.5),
            ("seed", False),
            ("max_jet_order", 1.0),
            ("max_degree", True),
            ("max_monomials", "4"),
            ("allow_funcs", 1),
            ("allow_funcs", None),
        ],
    )
    def test_mistyped_knobs_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            FuzzParams(**{field: value})

    def test_seed_env_override(self, capsys, monkeypatch):
        explicit = run(
            ["fuzz", "--count", "3", "--seed", "5", "--format", "json"], capsys
        )
        monkeypatch.setenv("VARSCHOUTEN_SEED", "0x5")
        from_env = run(["fuzz", "--count", "3", "--format", "json"], capsys)
        assert from_env == explicit

    def test_malformed_seed_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("VARSCHOUTEN_SEED", "zz")
        code, out, err = run(["fuzz", "--count", "1"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: VARSCHOUTEN_SEED must be an integer, got 'zz'\n"

    def test_failure_report_prints_the_unscaled_densities(self, ctx, monkeypatch):
        # every defect fails, so each trial reports its Jacobi residue
        monkeypatch.setattr(fuzz, "is_exact", lambda e: False)
        params = FuzzParams(seed=2026, count=3)
        report = fuzz.run_fuzz(ctx, params)
        assert report["verified"] == 0 and len(report["failures"]) == 3
        fractional = False
        for index, failure in enumerate(report["failures"]):
            rng = random.Random(fuzz.trial_seed(params.seed, index))
            F, G, H = (fuzz.random_functional(ctx, rng, params, label) for label in "FGH")
            defect = jacobi_defect(F, G, H).density
            fractional |= any(type(c) is Fraction for c in defect.terms.values())
            assert failure["densities"] == {
                "F": format_density(F.density),
                "G": format_density(G.density),
                "H": format_density(H.density),
            }
            assert failure["residue"] == format_density(defect)
        assert fractional

    @pytest.mark.parametrize("spoiled", [False, True], ids=["defect", "spoiled"])
    def test_symmetry_failure_report_prints_the_unscaled_defect(self, ctx, monkeypatch, spoiled):
        # each trial's first check (the Jacobi defect) passes and its second
        # (the symmetry defect) fails, so each trial reports its symmetry
        # residue.  These trials' symmetry defects are 0 as densities; the
        # spoiled one, [[F,G]] alone, is bilinear too and has coefficients
        # that show the residue is rescaled to the densities as drawn.
        calls = itertools.count()
        monkeypatch.setattr(fuzz, "is_exact", lambda e: next(calls) % 2 == 0)
        if spoiled:
            monkeypatch.setattr(fuzz, "_symmetry_density", lambda F, G, fg: fg.density)
        params = FuzzParams(seed=2026, count=3)
        report = fuzz.run_fuzz(ctx, params)
        assert report["verified"] == 0 and len(report["failures"]) == 3
        fractional = False
        for index, failure in enumerate(report["failures"]):
            rng = random.Random(fuzz.trial_seed(params.seed, index))
            F, G, H = (fuzz.random_functional(ctx, rng, params, label) for label in "FGH")
            want = (schouten_bracket if spoiled else graded_symmetry_defect)(F, G).density
            fractional |= any(type(c) is Fraction for c in want.terms.values())
            assert failure["residue"] == format_density(want)
            assert failure["residue"] != format_density(jacobi_defect(F, G, H).density)
        assert fractional == spoiled


class TestErrorHandling:
    def test_parse_error_exits_2(self, capsys):
        code, out, err = run(["euler", "--density", "q + q *", "--wrt", "q"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: line 1, column 8: expected a term, found end of input\n"

    def test_missing_context_file(self, capsys, tmp_path):
        code, out, err = run(
            ["euler", "--density", "q", "--wrt", "q",
             "--ctx", str(tmp_path / "absent.txt")],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_malformed_context_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("frobnicate\n")
        code, out, err = run(
            ["euler", "--density", "q", "--wrt", "q", "--ctx", str(bad)], capsys
        )
        assert (code, out) == (2, "")
        assert err == "error: line 1, column 1: unknown directive 'frobnicate'\n"

    @pytest.mark.parametrize(
        "opening, depth", [("(", 3000), ("exp(", 600), ("(", MAX_NESTING + 1)]
    )
    def test_deep_nesting_exits_2(self, capsys, opening, depth):
        density = opening * depth + "q" + ")" * depth
        code, out, err = run(["normalize", "--density", density], capsys)
        assert (code, out) == (2, "")
        column = len(opening) * (MAX_NESTING + 1)  # the first '(' past the limit
        assert err == (
            f"error: line 1, column {column}: nesting deeper than {MAX_NESTING} levels\n"
        )

    @pytest.mark.parametrize("opening", ["(", "exp("])
    def test_nesting_at_the_limit_parses(self, capsys, opening):
        density = opening * MAX_NESTING + "q" + ")" * MAX_NESTING
        code, out, err = run(["normalize", "--density", density], capsys)
        want = "q" if opening == "(" else density
        assert (code, out, err) == (0, want + "\n", "")

    @pytest.mark.parametrize(
        "density, column",
        [
            ("q^99999999999", 3),
            (f"q^{MAX_EXPONENT + 1}", 3),
            (f"2*q[1]^{MAX_EXPONENT // 10}^11", 12),  # a chain multiplies: 1100
            # a power of a group multiplies the largest exponent inside it
            ("(q^1000)^1000", 10),
            ("(q^10)^101", 8),
            ("((2*q)^1000)^100", 14),
            ("(2^1000)^1000", 10),
            ("(q^1000*q)^2", 12),
        ],
    )
    def test_exponent_past_the_limit_exits_2(self, capsys, density, column):
        code, out, err = run(["normalize", "--density", density], capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"error: line 1, column {column}: exponent larger than {MAX_EXPONENT}\n"
        )

    @pytest.mark.parametrize("factors", [32, 33])
    def test_power_past_a_key_slot(self, capsys, factors):
        # each factor is within MAX_EXPONENT, and their product may pass MAX_POWER
        density = "*".join(["q^1000"] * factors)
        code, out, err = run(["normalize", "--density", density], capsys)
        if 1000 * factors <= MAX_POWER:
            assert (code, out, err) == (0, f"q^{1000 * factors}\n", "")
        else:
            assert (code, out) == (2, "")
            assert err == f"error: a power in a monomial is larger than {MAX_POWER}\n"

    @pytest.mark.parametrize(
        "second, want",
        [
            # [[F,F]] = 0 for odd F: the face products hold q^39999*p and
            # cancel, and overflow is read off the bracket's sum
            ("p", (0, "0\n", "")),
            ("p[1]", (2, "", f"error: a power in a monomial is larger than {MAX_POWER}\n")),
        ],
    )
    def test_bracket_face_products_past_a_key_slot(self, capsys, second, want):
        power = "*".join(["q^1000"] * 20)
        code, out, err = run(["bracket", "--F", f"{power}*p", "--G", f"{power}*{second}"], capsys)
        assert (code, out, err) == want

    @pytest.mark.parametrize("digit", ["²", "٣"])  # superscript two, Arabic-Indic three
    def test_non_ascii_digit_exits_2(self, capsys, digit):
        code, out, err = run(["normalize", "--density", f"q^{digit}"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: line 1, column 3: unexpected character {digit!r}\n"

    @pytest.mark.parametrize(
        "density, want",
        [
            (f"q^{MAX_EXPONENT}", f"q^{MAX_EXPONENT}"),
            (f"q^{MAX_EXPONENT // 10}^10", f"q^{MAX_EXPONENT}"),
            (f"exp(q)^{MAX_EXPONENT}", f"exp(q)^{MAX_EXPONENT}"),
            ("(q^10)^100", "q^1000"),
            ("(q^3 + p)^2", "2*q^3*p + q^6"),
            ("q^1000*(q^2)^500", "q^2000"),  # a product, not a nested power
            ("exp(q^1000)^2", "exp(q^1000)^2"),  # the argument is not raised
        ],
    )
    def test_exponent_at_the_limit_parses(self, capsys, density, want):
        code, out, err = run(["normalize", "--density", density], capsys)
        assert (code, out, err) == (0, want + "\n", "")

    @pytest.mark.parametrize(
        "argv",
        [
            ["normalize", "--density", "7" * 5000],
            ["normalize", "--density", "99999999999^1000"],
            ["bracket", "--F", "9" * 3000 + "*p*q*q", "--G", "9" * 3000 + "*p*q"],
            # a trace report prints its densities scaled by the triple's content
            ["trace", *_BIG_INT_TRIPLE],
            ["trace", *_BIG_INT_TRIPLE, "--format", "json"],
            ["trace", *_TINY_FRACTION_TRIPLE],
            ["trace", *_TINY_FRACTION_TRIPLE, "--format", "json"],
        ],
        ids=["literal", "power", "product", "trace-int", "trace-int-json", "trace-fraction",
             "trace-fraction-json"],
    )
    def test_number_past_the_digit_limit_exits_2(self, capsys, argv):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{MAX_DIGITS} digits" in err
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize(
        "ctx_text, density, column",
        [
            (None, f"q[{MAX_JET_ORDER + 1}]", 3),
            (None, "q[3000]*q[3000]*q[3000]", 3),
            (None, f"q*exp(p*p[{MAX_JET_ORDER + 1}])", 11),
            # on a plane the total order counts: the entry that crosses it is named
            (PLANE, f"q[{MAX_JET_ORDER // 2},{MAX_JET_ORDER // 2 + 1}]", 5),
            (PLANE, f"p[0,{MAX_JET_ORDER + 1}]", 5),
        ],
        ids=["line", "product", "argument", "plane-sum", "plane-entry"],
    )
    def test_jet_order_past_the_limit_exits_2(self, capsys, tmp_path, ctx_text, density, column):
        argv = ["euler", "--density", density, "--wrt", "q"]
        if ctx_text is not None:
            (tmp_path / "ctx.txt").write_text(ctx_text)
            argv += ["--ctx", str(tmp_path / "ctx.txt")]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: line 1, column {column}: jet order larger than {MAX_JET_ORDER}\n"

    def test_jet_order_at_the_limit_parses(self, capsys, tmp_path):
        density = f"q[{MAX_JET_ORDER}]*exp(q[{MAX_JET_ORDER}])"
        assert run(["normalize", "--density", density], capsys) == (0, density + "\n", "")
        (tmp_path / "ctx.txt").write_text(PLANE)
        half = MAX_JET_ORDER // 2
        density = f"q[{half},{MAX_JET_ORDER - half}]"
        argv = ["normalize", "--density", density, "--ctx", str(tmp_path / "ctx.txt")]
        assert run(argv, capsys) == (0, density + "\n", "")

    def test_number_at_the_digit_limit_parses(self, capsys):
        literal = "9" * MAX_DIGITS
        assert run(["normalize", "--density", literal], capsys) == (0, literal + "\n", "")

    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, err = run([], capsys)
        assert code == 2
        assert "usage:" in err

    def test_internal_error_exits_3_with_one_line(self, capsys, monkeypatch):
        def broken(args, ctx):
            raise RuntimeError("kernel invariant broken")

        monkeypatch.setattr(cli, "_cmd_normalize", broken)
        code, out, err = run(["normalize", "--density", "q"], capsys)
        assert (code, out) == (3, "")
        assert err == "error: internal error: RuntimeError: kernel invariant broken\n"


def test_module_entry_point():
    # run from the directory holding the imported package, so that the child
    # finds the same package when only pytest's `pythonpath` setting has it
    proc = subprocess.run(
        [sys.executable, "-m", "varschouten", "normalize", "--density", "q[1]*p + p*q[1]"],
        capture_output=True,
        text=True,
        cwd=Path(varschouten.__file__).parents[1],
    )
    assert (proc.returncode, proc.stdout) == (0, "2*q[1]*p\n")
