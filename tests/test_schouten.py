"""The variational bracket, its grading, and the sign ledger."""

import random

from fractions import Fraction

import pytest

from varschouten import (
    Functional,
    cos,
    eq1_sign,
    euler,
    functional_eq,
    functional_parity,
    graded_symmetry_defect,
    is_exact,
    jacobi_defect,
    jet,
    parse_context,
    parse_density,
    reorder_sign_ledger,
    scale_add,
    schouten_bracket,
    sin,
    total_derivative,
    zero_functional,
)
from varschouten.fuzz import FuzzParams, random_functional, run_fuzz, trial_seed
from varschouten.schouten import _jacobi_density


def test_golden_inner_bracket_value(ctx, golden):
    """[[G,H]] assembles to -D(p1*e^q1)*D2(cos q) - D(e^q1)*p2*sin(q)."""
    _, G, H = golden
    q, p2 = jet(ctx, "q"), jet(ctx, "p", 2)
    e_q1 = parse_density("exp(q[1])", ctx)
    want = (
        -(total_derivative(jet(ctx, "p", 1) * e_q1))
        * total_derivative(total_derivative(cos(q)))
        - total_derivative(e_q1) * p2 * sin(q)
    )
    assert schouten_bracket(G, H).density == want


def test_one_sweep_per_functional(sweeps, ctx):
    # Each functional's Euler derivatives come from one sweep of its
    # partials, on first use, and serve every bracket it enters: the six
    # brackets of the golden Jacobi defect sweep F, G, H and the three inner
    # brackets once each, and is_exact sweeps all owners at once.  Per owner
    # and per bracket, as before, that was 24 + 2 sweeps.
    texts = ("p * q * q[2]", "p[1] * exp(q[1])", "p[2] * cos(q)")

    def triple():
        return [Functional(parse_density(t, ctx), r) for t, r in zip(texts, "FGH")]

    with sweeps.paused():
        assert is_exact(jacobi_defect(*triple()).density)  # warms the context's tables
    F, G, H = triple()
    defect = jacobi_defect(F, G, H).density
    assert len(sweeps) == 6
    assert is_exact(defect)
    assert len(sweeps) == 7
    # the store outlives the call: brackets of the same functionals sweep nothing
    jacobi_defect(F, G, H)
    graded_symmetry_defect(G, F)
    assert len(sweeps) == 7 + 3
    assert F.euler("q", "right") == euler(F.density, "q", "right")


def test_a_bracket_decides_its_verdict_from_the_kept_derivatives(sweeps, ctx):
    # fuzz's degenerate check asks the inner brackets fg, fh and gh for
    # is_zero after the outer brackets [[fg,H]], [[G,fh]] and [[F,gh]] have
    # read every owner's Euler derivatives of each: the verdicts sweep nothing
    rng = random.Random(trial_seed(2026, 8))
    F, G, H = (random_functional(ctx, rng, FuzzParams(), r) for r in "FGH")
    fg, fh, gh = schouten_bracket(F, G), schouten_bracket(F, H), schouten_bracket(G, H)
    _jacobi_density(F, G, H, fg, fh, gh)
    before = len(sweeps)
    verdicts = [X.is_zero() for X in (fg, fh, gh)]
    assert len(sweeps) == before
    assert verdicts == [is_exact(X.density) for X in (fg, fh, gh)] == [False, True, False]


def test_ten_fuzz_trials_sweep_each_functional_once(sweeps, ctx):
    # each trial sweeps F, G, H and its three inner brackets as the six
    # brackets ask, and each of its two defects at most once; the degenerate
    # check reads the inner brackets' kept derivatives and sweeps nothing
    report = run_fuzz(ctx, FuzzParams(seed=2026, count=10))
    assert report["verified"] == 10
    assert len(sweeps) == 58


def test_shifted_parity(ctx, golden):
    F, G, H = golden
    for a, b in ((F, G), (G, H), (F, H)):
        br = schouten_bracket(a, b)
        want = (functional_parity(a) + functional_parity(b) + 1) % 2
        assert functional_parity(br) == want


def test_zero_argument_short_circuits(ctx, golden):
    F, _, _ = golden
    assert schouten_bracket(F, zero_functional(ctx)).density.is_zero()
    assert schouten_bracket(zero_functional(ctx), F).density.is_zero()


def test_zero_argument_checks_the_other_parity(ctx):
    # a zero argument does not let a parity-mixed one through
    mixed = Functional(jet(ctx, "q") + jet(ctx, "p"), "M")
    for args in ((zero_functional(ctx), mixed), (mixed, zero_functional(ctx))):
        with pytest.raises(ValueError, match="'M' has a parity-mixed density"):
            schouten_bracket(*args)


def test_context_mismatch_rejected(ctx, golden):
    from varschouten import parse_context

    other = parse_context("indep x\nfield q even antifield p\n")
    F, G, _ = golden
    alien = Functional(parse_density("q", other))
    with pytest.raises(ValueError, match="context"):
        schouten_bracket(F, alien)


def test_non_homogeneous_rejected(ctx, golden):
    F, _, _ = golden
    mixed = Functional(jet(ctx, "q") + jet(ctx, "p"))
    with pytest.raises(ValueError, match="parity-mixed"):
        schouten_bracket(F, mixed)


def test_eq1_sign_all_parities():
    assert eq1_sign(0, 0) == -1
    assert eq1_sign(0, 1) == 1
    assert eq1_sign(1, 0) == 1
    assert eq1_sign(1, 1) == 1


def test_graded_antisymmetry(ctx, golden):
    F, G, H = golden
    for a, b in ((F, G), (G, H), (F, H), (F, F)):
        assert functional_eq(graded_symmetry_defect(a, b), zero_functional(ctx))


@pytest.mark.parametrize(
    "text, max_jet_order",
    [
        ("indep x\nfield q even antifield p\n", 2),
        ("indep x\nfield u even antifield v\nfield a odd antifield b\n", 1),
        ("indep x y\nfield q even antifield p\n", 1),
        ("indep t\nfield psi odd antifield chi\n", 1),
    ],
    ids=["line", "pairs", "plane", "odd"],
)
def test_graded_symmetry_defect_is_the_zero_density(text, max_jet_order):
    # [[F,G]] + s[[G,F]] vanishes as a density, not only modulo divergences
    ctx = parse_context(text)
    params = FuzzParams(seed=2026, max_jet_order=max_jet_order)
    for index in range(30):
        rng = random.Random(trial_seed(2026, index))
        F, G, H = (random_functional(ctx, rng, params, label) for label in "FGH")
        for a, b in ((F, G), (G, H), (F, H)):
            assert graded_symmetry_defect(a, b).density.is_zero(), (index, a.label, b.label)


def test_bilinearity(ctx, golden):
    F, G, H = golden
    rng = random.Random(23)
    a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    b = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    combo = scale_add(a, F, b, G)
    lhs = schouten_bracket(combo, H)
    rhs = scale_add(a, schouten_bracket(F, H), b, schouten_bracket(G, H))
    assert functional_eq(lhs, rhs)


def test_golden_jacobi_defect_is_exact(ctx, golden):
    F, G, H = golden
    defect = jacobi_defect(F, G, H)
    assert is_exact(defect.density)
    assert functional_eq(defect, zero_functional(ctx))


def test_jacobi_on_small_fuzzed_triples(ctx):
    params = FuzzParams(seed=0, count=0, max_jet_order=1, max_degree=2, max_monomials=2)
    rng = random.Random(31)
    for _ in range(5):
        F = random_functional(ctx, rng, params, "F")
        G = random_functional(ctx, rng, params, "G")
        H = random_functional(ctx, rng, params, "H")
        assert is_exact(jacobi_defect(F, G, H).density)


class TestReorderSignLedger:
    def test_frozen_odd_odd_table(self):
        assert reorder_sign_ledger(1, 1) == {
            1: 1, 2: 1, 3: 1, 4: -1, 5: -1, 6: -1, 7: 1, 8: 1,
        }

    def test_closed_forms(self):
        sign = lambda k: -1 if k % 2 else 1
        for pf in (0, 1):
            for pg in (0, 1):
                ledger = reorder_sign_ledger(pf, pg)
                assert ledger[1] == sign(pf - 1)
                assert ledger[2] == sign(pg - 1)
                assert ledger[3] == sign(pf + pg)
                assert ledger[4] == -1
                assert ledger[5] == ledger[6] == sign(pg)
                assert ledger[7] == ledger[8] == 1

    def test_three_factor_products(self):
        # each entry is (sign near the summand) * (reordering sign) * (global sign)
        sign = lambda k: -1 if k % 2 else 1
        for pf in (0, 1):
            for pg in (0, 1):
                g = sign((pf - 1) * (pg - 1))
                direct = {
                    1: sign((pf - 1) * pg) * g,
                    2: sign(pf) * sign(pf * pg) * g,
                    3: -sign((pf - 2) * pg) * g,
                    4: -sign(pf - 1) * sign((pf - 1) * pg) * g,
                    5: -sign(pf * (pg - 1)) * g,
                    6: -sign(pf * (pg - 1)) * g,
                    7: sign((pf - 1) * (pg - 1)) * g,
                    8: sign((pf - 1) * (pg - 1)) * g,
                }
                assert reorder_sign_ledger(pf, pg) == direct
