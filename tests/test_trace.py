"""Labeled expansion of the graded Jacobi identity and its bookkeeping."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from varschouten import (
    Functional,
    cli,
    eq1_sign,
    expand_trace,
    jet,
    parse_context,
    parse_density,
    second_variation_cells,
    trace,
)
from varschouten.fuzz import FuzzParams, random_functional, trial_seed
from varschouten import textio
from varschouten.core import Expression, unpack
from varschouten.textio import format_density, format_trace_report, trace_report_to_json


def test_second_variation_cells_frozen(ctx, golden):
    F, _, _ = golden
    cells = dict(second_variation_cells(F.density, "q", "right", "q", "right"))
    p2 = jet(ctx, "p", 2)
    assert set(cells) == {((0,), (2,)), ((2,), (0,))}
    assert cells[((0,), (2,))] == p2
    assert cells[((2,), (0,))] == p2


def test_second_variation_cells_empty_when_variable_absent(ctx, golden):
    _, G, _ = golden  # G has no q-dependence outside jet order 1
    assert second_variation_cells(G.density, "p", "left", "q", "left") != []
    assert second_variation_cells(G.density, "q", "left", "q", "left") != []
    no_p2 = parse_density("q * q[2]", ctx)
    assert second_variation_cells(no_p2, "p", "left", "q", "left") == []


def test_second_variation_cells_are_graded_ascending():
    plane = parse_context("indep x y\nfield q even antifield p\n")
    e = parse_density("p * q * q[0,2] * q[1,0]", plane)
    cells = [cell for cell, _ in second_variation_cells(e, "q", "left", "q", "left")]
    graded = lambda s: (sum(s), s)
    assert cells == sorted(cells, key=lambda c: (graded(c[0]), graded(c[1])))
    # graded-lex puts (1,0) before (0,2); plain lex would not
    assert [sigma for sigma, _ in cells] == [(0, 0)] * 2 + [(1, 0)] * 2 + [(0, 2)] * 2


class TestGoldenTrace:
    @pytest.fixture(autouse=True)
    def _expand(self, ctx, golden):
        self.ctx = ctx
        self.report = expand_trace(*golden)

    def test_header_data(self):
        rep = self.report
        assert rep.labels == ("F", "G", "H")
        assert rep.parities == {"F": 1, "G": 1, "H": 1}
        assert rep.eq_sign == 1

    def test_verdict_and_residue(self):
        assert self.report.verdict == "verified"
        assert self.report.residue.is_zero()

    def test_piece_census(self):
        rep = self.report
        assert [t.label for t in rep.lhs_terms] == [1, 2, 3, 4, 5, 6, 7, 8]
        assert [t.label for t in rep.rhs1_terms] == [9, 10, 1, 2, 11, 12, 5, 13, 14, 7]
        assert [t.label for t in rep.rhs2_terms] == [11, 12, 6, 10, 9, 3, 4, 13, 14, 8]

    def test_group_census(self):
        rep = self.report
        assert len(rep.lhs_groups) == len(rep.rhs1_groups) == len(rep.rhs2_groups) == 8
        assert [g.label for g in rep.rhs1_groups] == [9, 1, 10, 5, 11, 3, 12, 7]
        assert [g.label for g in rep.rhs2_groups] == [10, 2, 12, 6, 9, 4, 11, 8]

    def test_matches(self):
        rep = self.report
        assert rep.matches == [
            (1, "rhs1", "canonical"), (2, "rhs1", "canonical"),
            (3, "rhs2", "canonical"), (4, "rhs2", "canonical"),
            (5, "rhs1", "canonical"), (6, "rhs2", "canonical"),
            (7, "rhs1", "canonical"), (8, "rhs2", "canonical"),
        ]

    def test_matched_densities_agree(self):
        rep = self.report
        by_label = {t.label: t for t in rep.lhs_terms}
        for label, section, _level in rep.matches:
            terms = rep.rhs1_terms if section == "rhs1" else rep.rhs2_terms
            partner = next(t for t in terms if t.label == label)
            assert (by_label[label].density - partner.density).is_zero()

    def test_cancellation_pairs(self):
        rep = self.report
        assert rep.cancellation_pairs == [
            (9, 9), (10, 10), (11, 11), (12, 12), (13, 13), (14, 14),
        ]
        rhs1 = {t.label: t for t in rep.rhs1_terms}
        rhs2 = {t.label: t for t in rep.rhs2_terms}
        for a, b in rep.cancellation_pairs:
            assert (rhs1[a].density + rhs2[b].density).is_zero()

    def test_no_second_variation_of_first_argument_on_lhs(self):
        assert self.report.lhs_struck_roles == {"G", "H"}
        assert all(t.struck in {"G", "H"} for t in self.report.lhs_terms)

    def test_bracket_check_levels(self):
        check = self.report.bracket_check
        assert check["residue"] == "canonical"
        assert set(check) == {"residue", "plain_defect", "joint"}
        assert "mismatch" not in check.values()

    def test_totals_cancel(self):
        rep = self.report
        combo = rep.lhs_total - rep.rhs1_total - rep.rhs2_total
        assert combo.is_zero()


def test_even_parity_triple_flips_eq_sign(ctx):
    F = Functional(parse_density("q * q[2] + p * p[1]", ctx), "F")
    G = Functional(parse_density("q * p * p[1]", ctx), "G")
    H = Functional(parse_density("p * q[1]", ctx), "H")
    rep = expand_trace(F, G, H)
    assert rep.eq_sign == eq1_sign(0, 0) == -1
    assert rep.verdict == "verified"
    assert rep.residue.is_zero()
    assert [t.label for t in rep.lhs_terms] == [1, 2, 3, 4, 5, 6, 7, 8]
    assert [t.label for t in rep.rhs1_terms] == [1, 2, 3, 4, 6, 5, 8, 7]
    assert [lbl for lbl, _, _ in rep.matches] == [1, 2, 3, 4, 5, 6, 7, 8]
    assert all(section == "rhs1" and level == "canonical" for _, section, level in rep.matches)
    assert rep.cancellation_pairs == []


def test_the_trace_shares_its_sweeps(sweeps, ctx, golden):
    # one sweep per role, one per first partial of each first strike, and
    # the bracket check's seven (six functionals and is_exact); a sweep per
    # owner, block and cell made 78
    with sweeps.paused():
        expand_trace(*golden)  # warms the context's tables
    report = expand_trace(*golden)
    assert report.verdict == "verified"
    assert len(sweeps) == 3 + 9 + 7


def test_trace_may_be_vacuous(ctx):
    # a triple whose every expansion face vanishes still verifies
    F = Functional(parse_density("q * q[2]", ctx), "F")
    G = Functional(parse_density("p * p[1]", ctx), "G")
    H = Functional(parse_density("p * q[1]", ctx), "H")
    rep = expand_trace(F, G, H)
    assert rep.verdict == "verified"
    assert rep.lhs_terms == [] and rep.rhs1_terms == [] and rep.rhs2_terms == []
    assert rep.residue.is_zero()


def test_a_spoiled_second_variation_leaves_pieces_unresolved(monkeypatch, golden, capsys):
    # negate every cell of H's strike (q, left)(p, left): the pieces built from
    # it no longer equal their predicted partners, and nothing else pairs them
    original = trace.second_variation_cells
    h_text = format_density(golden[2].density)

    def spoiled(e, w1, s1, w2, s2):
        cells = original(e, w1, s1, w2, s2)
        if format_density(e) == h_text and (w1, s1, w2, s2) == (0, "left", 1, "left"):
            return [(cell, -value) for cell, value in cells]
        return cells

    monkeypatch.setattr(trace, "second_variation_cells", spoiled)
    rep = expand_trace(*golden)
    assert rep.verdict == "unresolved"
    unresolved = [
        (t.section, t.label)
        for t in rep.lhs_terms + rep.rhs1_terms + rep.rhs2_terms
        if t.status == "unresolved"
    ]
    assert unresolved == [
        ("lhs", 3), ("lhs", 4), ("lhs", 6), ("rhs2", 15), ("rhs2", 16), ("rhs2", 17),
    ]
    argv = ["trace", "--F", "p * q * q[2]", "--G", "p[1] * exp(q[1])", "--H", "p[2] * cos(q)"]
    assert cli.main(argv) == 1
    assert "unresolved" in capsys.readouterr().out


def test_a_missed_partner_leaves_pieces_unresolved(monkeypatch, golden, capsys):
    # flip the outer face of every right-side prediction: no right piece finds
    # its partner, so every piece ends unresolved, and nothing raises
    original = trace._partner_coords

    def missed(section, struck, coords):
        where = original(section, struck, coords)
        if section == "lhs":
            return where
        return where[:2] + (1 - where[2],) + where[3:]

    monkeypatch.setattr(trace, "_partner_coords", missed)
    rep = expand_trace(*golden)
    pieces = rep.lhs_terms + rep.rhs1_terms + rep.rhs2_terms
    assert pieces and {t.status for t in pieces} == {"unresolved"}
    assert rep.verdict == "unresolved"
    assert rep.matches == [] and rep.cancellation_pairs == []
    argv = ["trace", "--F", "p * q * q[2]", "--G", "p[1] * exp(q[1])", "--H", "p[2] * cos(q)"]
    assert cli.main(argv) == 1
    assert "unresolved" in capsys.readouterr().out


_CONTEXTS = {
    "default": "indep x\nfield q even antifield p\n",
    "pairs": "indep x\nfield u even antifield v\nfield a odd antifield b\n",
    "plane": "indep x y\nfield q even antifield p\n",
}


@pytest.mark.parametrize("pF, pG", [(0, 0), (0, 1), (1, 0), (1, 1)])
@pytest.mark.parametrize("text", _CONTEXTS.values(), ids=_CONTEXTS)
def test_partner_coords_is_an_involution_on_the_group_specs(text, pF, pG):
    ctx = parse_context(text)
    parities = {"F": pF, "G": pG, "H": 1}
    specs = {}
    for sect in trace.SECTIONS:
        generated = list(trace._group_specs(sect, ctx, parities))
        section = {(sect.name,) + spec.coords: spec for spec in generated}
        assert len(section) == len(generated) == 8 * len(ctx.pairs) ** 2
        specs.update(section)
    for key, spec in specs.items():
        partner = trace._partner_coords(key[0], spec.struck[0], spec.coords)
        mate = specs[partner]
        assert mate.struck[0] == spec.struck[0]
        assert trace._partner_coords(partner[0], mate.struck[0], mate.coords) == key


def test_context_mismatch_rejected(ctx, golden):
    other = parse_context("indep x\nfield q even antifield p\n")
    F, G, _ = golden
    alien = Functional(parse_density("p * q", other), "A")
    with pytest.raises(ValueError, match="context"):
        expand_trace(F, G, alien)


def _digest(style, F, G, H) -> str:
    report = format_trace_report(expand_trace(F, G, H), style)
    return hashlib.sha256(report.encode()).hexdigest()[:16]


def _fuzzed_digests(text, max_jet_order, count, style):
    ctx = parse_context(text)
    params = FuzzParams(seed=2026, max_jet_order=max_jet_order)
    got = []
    for index in range(count):
        rng = random.Random(trial_seed(2026, index))
        got.append(_digest(style, *(random_functional(ctx, rng, params, r) for r in "FGH")))
    return got


# sha256 prefixes of the JSON and plain trace reports.  A refactor that keeps
# every report byte-identical keeps these; a deliberate format change updates
# them.  The fuzzed triples are seed-2026 trials 0-3 of each context.
_FUZZED = pytest.mark.parametrize(
    "text, max_jet_order, json_digests, plain_digests",
    [
        (
            "indep x\nfield q even antifield p\n",
            2,
            ["05ec4890ce8761fb", "0c6577bf27bcb077", "daa478fb480fe485", "29089cd50258a67c"],
            ["aaa21aa74080f4ed", "743d505be0fb8f45", "effd7c560602d6a8", "8f3b8eb6a143a46e"],
        ),
        (
            "indep x\nfield u even antifield v\nfield a odd antifield b\n",
            1,
            ["d3243b4f456acc79", "51b96dc438585081", "2b0d522bc81ade03", "45a99738eff7c3c2"],
            ["74f652981aaac282", "727f9feb57912fd4", "efe5108fcec5e8b9", "1cddf539a4039ee9"],
        ),
        (
            "indep x y\nfield q even antifield p\n",
            1,
            ["75e46b2f06e1f6a9", "cd6cb14f515f970c", "d75054c2dd92d7ef", "e8ee7298cad4ed8a"],
            ["a20137389ba17d1b", "21634d77326531d7", "6a48540bc0acca9c", "9ce8ae76a421ea7b"],
        ),
        (
            "indep t\nfield psi odd antifield chi\n",
            1,
            ["c9e93213343b5364", "df7c37af7227421d", "8921ad910f0ab636", "979ec56502405d00"],
            ["d61789b355330c98", "0419411c105844d7", "6a48540bc0acca9c", "b6d04d1641d59d48"],
        ),
    ],
    ids=["default", "pairs", "plane", "odd"],
)


def test_golden_trace_json_is_byte_stable(golden):
    assert _digest("json", *golden) == "160535a7aa8fee3c"


def test_golden_trace_plain_is_byte_stable(golden):
    assert _digest("plain", *golden) == "e5a0835c05978d7e"


@_FUZZED
def test_fuzzed_trace_json_is_byte_stable(text, max_jet_order, json_digests, plain_digests):
    assert _fuzzed_digests(text, max_jet_order, len(json_digests), "json") == json_digests


@_FUZZED
def test_fuzzed_trace_plain_is_byte_stable(text, max_jet_order, json_digests, plain_digests):
    assert _fuzzed_digests(text, max_jet_order, len(plain_digests), "plain") == plain_digests


def _trial_triple(ctx, index):
    rng = random.Random(trial_seed(2026, index))
    return [random_functional(ctx, rng, FuzzParams(seed=2026), r) for r in "FGH"]


def _report_densities(rep):
    groups = rep.lhs_groups + rep.rhs1_groups + rep.rhs2_groups
    return (
        [t.density for t in rep.lhs_terms + rep.rhs1_terms + rep.rhs2_terms]
        + [g.density for g in groups]
        + [rep.lhs_total, rep.rhs1_total, rep.rhs2_total, rep.residue]
    )


def _bookkeeping(rep):
    pieces = rep.lhs_terms + rep.rhs1_terms + rep.rhs2_terms
    groups = rep.lhs_groups + rep.rhs1_groups + rep.rhs2_groups
    return (
        [(t.section, t.label, t.status, t.level, t.partner, t.sign, t.cell, t.blocks) for t in pieces],
        [(g.section, g.index, g.label, [t.label for t in g.pieces]) for g in groups],
        rep.matches,
        rep.cancellation_pairs,
        rep.verdict,
        rep.bracket_check,
        rep.parities,
    )


@pytest.mark.parametrize("zero_role", [None, 2], ids=["three functionals", "zero H"])
@pytest.mark.parametrize("spoil", [False, True], ids=["as drawn", "spoiled"])
def test_trace_is_trilinear(monkeypatch, ctx, zero_role, spoil):
    # every piece is one factor of each role times +-1, so scaling F, G, H by
    # a, b, c scales every reported density by a*b*c and changes no bookkeeping
    if spoil:  # a cell scaled by -3/2 leaves a nonzero residue that is not exact
        original = trace.second_variation_cells

        def spoiled(e, w1, s1, w2, s2):
            cells = original(e, w1, s1, w2, s2)
            if (w1, s1, w2, s2) == (0, "left", 1, "left"):
                return [(cell, value.scale(Fraction(-3, 2))) for cell, value in cells]
            return cells

        monkeypatch.setattr(trace, "second_variation_cells", spoiled)
    triple = _trial_triple(ctx, 0)
    if zero_role is not None:
        triple[zero_role] = Functional(Expression.zero(ctx), "Z")
    factors = (Fraction(-2, 3), 5, Fraction(7, 11))
    scaled = [Functional(X.density.scale(k), X.label) for X, k in zip(triple, factors)]
    before, after = expand_trace(*triple), expand_trace(*scaled)
    assert _bookkeeping(after) == _bookkeeping(before)
    abc = factors[0] * factors[1] * factors[2]
    want = [d.scale(abc) for d in _report_densities(before)]
    assert _report_densities(after) == want
    if zero_role is None:
        assert any(type(c) is Fraction for d in want for c in d.terms.values())
        assert before.verdict == ("unresolved" if spoil else "verified")
        assert (before.bracket_check["residue"] == "mismatch") is spoil


@pytest.mark.parametrize(
    "texts",
    [
        ("p * q * q[2]", "p[1] * exp(q[1])", "p[2] * cos(q)"),
        ("q^2", "p", "p"),
        ("q*p", "q", "p"),
        ("q*p", "2*q*q[1]^2 - 3*q[2]*q", "p*q[1] - q*p[2]"),
    ],
    ids=["golden", "constants", "unit constants", "mixed"],
)
def test_trace_report_renders_each_density_as_alone(ctx, texts):
    # one report renders many densities through one memo of monomial texts;
    # each must read exactly as the density rendered on its own
    rep = expand_trace(*(Functional(parse_density(t, ctx), r) for t, r in zip(texts, "FGH")))
    assert rep.rhs1_terms
    _assert_each_density_renders_as_alone(rep)


def _assert_each_density_renders_as_alone(rep):
    doc = json.loads(format_trace_report(rep, "json"))
    assert trace_report_to_json(rep) == doc
    for name in ("lhs", "rhs1", "rhs2"):
        rows = doc["sections"][name]
        for row, t in zip(rows["terms"], getattr(rep, f"{name}_terms"), strict=True):
            assert row["density"] == format_density(t.density)
        for row, g in zip(rows["groups"], getattr(rep, f"{name}_groups"), strict=True):
            assert row["density"] == format_density(g.density)
        assert doc["totals"][name] == format_density(getattr(rep, f"{name}_total"))
    assert doc["residue"] == format_density(rep.residue)
    plain = format_trace_report(rep, "plain").splitlines()
    pieces = [line for line in plain if line.startswith("  <")]
    terms = rep.lhs_terms + rep.rhs1_terms + rep.rhs2_terms
    assert [line.split("  ", 2)[2] for line in pieces] == [format_density(t.density) for t in terms]


@pytest.mark.parametrize("style", ["plain", "json"])
@pytest.mark.parametrize(
    "text, max_jet_order",
    [
        ("indep x\nfield q even antifield p\n", 2),
        ("indep x\nfield u even antifield v\nfield a odd antifield b\n", 1),
    ],
    ids=["default", "pairs"],
)
def test_a_report_decodes_each_distinct_key_once(monkeypatch, text, max_jet_order, style):
    # every key of the report's densities, and of the function arguments
    # their factors render (arguments inside arguments too), is decoded once
    ctx = parse_context(text)
    rng = random.Random(trial_seed(2026, 1))
    params = FuzzParams(seed=2026, max_jet_order=max_jet_order)
    rep = expand_trace(*(random_functional(ctx, rng, params, r) for r in "FGH"))
    keys, args = set(), set()
    todo = [e.terms for e in _report_densities(rep)]
    while todo:
        for key in todo.pop():
            if key not in keys:
                keys.add(key)
                for (_, aid), _ in unpack(ctx, key)[1]:
                    if aid not in args:
                        args.add(aid)
                        todo.append(ctx.arg(aid).terms)
    assert args  # the trial's factors include function arguments
    decoded = []

    def counting(ctx, key):
        decoded.append(key)
        return unpack(ctx, key)

    monkeypatch.setattr(textio, "unpack", counting)
    format_trace_report(rep, style)
    assert len(decoded) == len(keys)
    assert set(decoded) == keys


@pytest.mark.parametrize(
    "text, max_jet_order, index",
    [
        ("indep x\nfield q even antifield p\n", 2, 1),
        ("indep x\nfield u even antifield v\nfield a odd antifield b\n", 1, 1),
        ("indep x y\nfield q even antifield p\n", 1, 1),
        ("indep t\nfield psi odd antifield chi\n", 1, 1),
    ],
    ids=["default", "pairs", "plane", "odd"],
)
def test_paired_pieces_render_as_their_partners(text, max_jet_order, index):
    # a paired piece holds its partner's density or its negation, and each
    # density object is rendered once per report: every rendered density must
    # still read as the density alone.  The contents of these triples
    # multiply to a Fraction, by which the unpaired densities are scaled.
    ctx = parse_context(text)
    rng = random.Random(trial_seed(2026, index))
    params = FuzzParams(seed=2026, max_jet_order=max_jet_order)
    triple = [random_functional(ctx, rng, params, r) for r in "FGH"]
    rep = expand_trace(*triple)
    _assert_each_density_renders_as_alone(rep)
    pieces = rep.lhs_terms + rep.rhs1_terms + rep.rhs2_terms
    by_label = {(t.section, t.label): t for t in pieces}
    assert len(by_label) == len(pieces)
    statuses = set()
    for t in pieces:
        partner = by_label[t.partner]
        assert partner.partner == (t.section, t.label)
        if t.status == "matched":
            assert t.density == partner.density
        else:
            assert t.status == "cancelled"
            assert t.density == -partner.density
        statuses.add(t.status)
    assert statuses == {"matched", "cancelled"}
    # a group may hold its partner group's density, the section totals not
    totals = {}
    for name in ("lhs", "rhs1", "rhs2"):
        totals[name] = Expression.zero(ctx)
        for g in getattr(rep, f"{name}_groups"):
            total = Expression.zero(ctx)
            for t in g.pieces:
                total = total + t.density
            assert g.density == total, (name, g.index)
            totals[name] = totals[name] + total
        assert getattr(rep, f"{name}_total") == totals[name]
    assert rep.residue == totals["lhs"] - totals["rhs1"] - totals["rhs2"]
    coeffs = [c for t in pieces for c in t.density.terms.values()]
    assert any(type(c) is Fraction for c in coeffs)
    assert not any(type(c) is Fraction and c.denominator == 1 for c in coeffs)
