"""Directed partials, the total derivative, Euler operators, and exactness."""

import hashlib
import math
import random

from fractions import Fraction

import pytest

from varschouten import (
    Expression,
    Functional,
    JetVar,
    cos,
    euler,
    euler_blocks,
    exp,
    format_density,
    is_exact,
    iterated_derivative,
    jacobi_defect,
    jet,
    jet_orders,
    parse_context,
    parse_density,
    partial,
    sin,
    total_derivative,
)
from varschouten.core import MAX_POWER, _along, _lower, _sweep, eval_zero_section
from varschouten.fuzz import FuzzParams, random_expression, random_functional, trial_seed


def _samples(ctx, count, parity="any", seed=11):
    params = FuzzParams(seed=0, count=0, max_jet_order=2, max_degree=3)
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        want = rng.choice((0, 1)) if parity == "any" else parity
        e = random_expression(ctx, rng, params, want)
        if not e.is_zero():
            out.append(e)
    return out


# Four contexts with seeded product pairs: the default line, two pairs with an
# odd field, the plane, and a single odd field.  Extra fixed pairs put odd
# jets inside function arguments, which the generator never draws.
CONTEXTS = pytest.mark.parametrize(
    "text, max_jet_order, extra",
    [
        ("indep x\nfield q even antifield p\n", 2, [("q*exp(p*p[1])*p[2]", "cos(q[1]*p*p[2])*p")]),
        ("indep x\nfield u even antifield v\nfield a odd antifield b\n", 2, []),
        ("indep x y\nfield q even antifield p\n", 1, []),
        ("indep t\nfield psi odd antifield chi\n", 2, [("exp(psi*psi[1])*chi", "psi[2]")]),
    ],
    ids=["default", "pairs", "plane", "odd"],
)


def _product_pairs(text, max_jet_order, extra):
    ctx = parse_context(text)
    params = FuzzParams(max_jet_order=max_jet_order, max_degree=3)
    rng = random.Random(29)
    pairs = [(parse_density(a, ctx), parse_density(b, ctx)) for a, b in extra]
    while len(pairs) < len(extra) + 25:
        a = random_expression(ctx, rng, params, rng.randint(0, 1))
        b = random_expression(ctx, rng, params, rng.randint(0, 1))
        if not (a * b).is_zero():
            pairs.append((a, b))
    return ctx, pairs


class TestPartial:
    def test_power_rule(self, ctx):
        q = jet(ctx, "q")
        assert partial(q**3, JetVar(0, (0,)), "left") == q**2 * Fraction(3)

    def test_product_rule_even(self, ctx):
        q, q1 = jet(ctx, "q"), jet(ctx, "q", 1)
        e = q**2 * q1
        assert partial(e, JetVar(0, (1,)), "left") == q**2
        assert partial(e, JetVar(0, (0,)), "left") == q * q1 * Fraction(2)

    def test_chain_rule_through_function_argument(self, ctx):
        q1 = jet(ctx, "q", 1)
        e = exp(q1**2)
        assert partial(e, JetVar(0, (1,)), "left") == q1 * exp(q1**2) * Fraction(2)

    def test_directed_odd_strikes(self, ctx):
        p, p1, p2 = jet(ctx, "p"), jet(ctx, "p", 1), jet(ctx, "p", 2)
        e = p * p1 * p2
        # striking the middle factor crosses one odd factor from either side
        assert partial(e, JetVar(1, (1,)), "left") == -(p * p2)
        assert partial(e, JetVar(1, (1,)), "right") == -(p * p2)
        assert partial(e, JetVar(1, (0,)), "left") == p1 * p2
        assert partial(e, JetVar(1, (0,)), "right") == p1 * p2
        # on an even monomial the two directions disagree by a sign
        even = p * p1
        assert partial(even, JetVar(1, (0,)), "left") == p1
        assert partial(even, JetVar(1, (0,)), "right") == -p1

    def test_left_right_relation_on_homogeneous(self, ctx):
        # left and right odd partials differ by (-1)^(|f|-1)
        for e in _samples(ctx, 30, seed=5):
            sign = -1 if (e.parity - 1) % 2 else 1
            for wrt in (JetVar(1, (0,)), JetVar(1, (1,))):
                left = partial(e, wrt, "left")
                right = partial(e, wrt, "right").scale(sign)
                assert left == right

    def test_absent_variable_gives_zero(self, ctx):
        assert partial(jet(ctx, "q"), JetVar(1, (0,)), "left").is_zero()

    @pytest.mark.parametrize(
        "v, message",
        [
            (JetVar(5, (0,)), "owner index 5 out of range"),
            (JetVar(-1, (0,)), "owner index -1 out of range"),
            (JetVar(0, (1, 2)), "length 2 does not match 1"),
            (JetVar(0, (-1,)), "nonnegative"),
        ],
    )
    def test_rejects_jets_outside_the_context(self, ctx, v, message):
        q = jet(ctx, "q")
        with pytest.raises(ValueError, match=message):
            partial(q * q, v)

    @CONTEXTS
    def test_graded_leibniz_rule_both_sides(self, text, max_jet_order, extra):
        # dL(ab) = dL(a) b + (-1)^(|v||a|) a dL(b);  dR(ab) = a dR(b) + (-1)^(|v||b|) dR(a) b
        ctx, pairs = _product_pairs(text, max_jet_order, extra)
        for a, b in pairs:
            for owner in range(len(ctx.names)):
                vp = ctx.parities[owner]
                orders = jet_orders(a, owner) | jet_orders(b, owner) | jet_orders(a * b, owner)
                for sigma in orders:
                    v = JetVar(owner, sigma)
                    left = partial(a, v, "left") * b + (a * partial(b, v, "left")).scale(
                        -1 if vp * a.parity % 2 else 1
                    )
                    right = a * partial(b, v, "right") + (partial(a, v, "right") * b).scale(
                        -1 if vp * b.parity % 2 else 1
                    )
                    assert partial(a * b, v, "left") == left
                    assert partial(a * b, v, "right") == right


class TestTotalDerivative:
    def test_raises_jet_orders(self, ctx):
        q, q1, q2 = jet(ctx, "q"), jet(ctx, "q", 1), jet(ctx, "q", 2)
        assert total_derivative(q * q1) == q1**2 + q * q2

    def test_function_factors(self, ctx):
        q1, q2, q3 = jet(ctx, "q", 1), jet(ctx, "q", 2), jet(ctx, "q", 3)
        assert total_derivative(exp(q1)) == q2 * exp(q1)
        assert total_derivative(total_derivative(exp(q1))) == q2**2 * exp(q1) + q3 * exp(q1)
        assert total_derivative(sin(q1)) == q2 * cos(q1)
        assert total_derivative(cos(q1)) == -(q2 * sin(q1))

    def test_odd_factors(self, ctx):
        p, p1, p2 = jet(ctx, "p"), jet(ctx, "p", 1), jet(ctx, "p", 2)
        # p*p2 survives; p1*p1 annihilates
        assert total_derivative(p * p1) == p * p2
        assert total_derivative(p1 * p) == -(p * p2)

    def test_constants_vanish(self, ctx):
        assert total_derivative(Expression.const(ctx, Fraction(5, 3))).is_zero()

    def test_leibniz_rule(self, ctx):
        for a, b in zip(_samples(ctx, 12, seed=2), _samples(ctx, 12, seed=3)):
            lhs = total_derivative(a * b)
            rhs = total_derivative(a) * b + a * total_derivative(b)
            assert lhs == rhs

    def test_commutes_with_even_partial_up_to_shift(self, ctx):
        # d/dq_sigma o D = D o d/dq_sigma + d/dq_(sigma-1)
        wrt, below = JetVar(0, (1,)), JetVar(0, (0,))
        for e in _samples(ctx, 12, seed=7):
            lhs = partial(total_derivative(e), wrt, "left")
            rhs = total_derivative(partial(e, wrt, "left")) + partial(e, below, "left")
            assert lhs == rhs

    @CONTEXTS
    def test_chain_rule_through_the_partial_sweep(self, text, max_jet_order, extra):
        # D_d e = sum over owners and sigma of jet(owner, sigma + 1_d) * dL e / d(owner jet sigma)
        ctx, pairs = _product_pairs(text, max_jet_order, extra)
        for e in (x for a, b in pairs for x in (a, b, a * b)):
            for d in range(ctx.n_indep):
                want = Expression.zero(ctx)
                for owner in range(len(ctx.names)):
                    for sigma in jet_orders(e, owner):
                        raised = tuple(k + (axis == d) for axis, k in enumerate(sigma))
                        want = want + jet(ctx, owner, raised) * partial(e, JetVar(owner, sigma), "left")
                assert total_derivative(e, d) == want

    def test_direction_out_of_range(self, ctx):
        with pytest.raises(ValueError, match="direction"):
            total_derivative(jet(ctx, "q"), 1)

    @pytest.mark.parametrize(
        "text, direction",
        [
            ("indep x\nfield q even antifield p\n", 0.0),
            ("indep x\nfield q even antifield p\n", False),
            ("indep x y\nfield q even antifield p\n", True),
            ("indep x y\nfield q even antifield p\n", 1.0),
        ],
        ids=["float", "false", "true-on-plane", "float-on-plane"],
    )
    def test_direction_must_be_an_int(self, text, direction):
        with pytest.raises(ValueError, match="direction"):
            total_derivative(jet(parse_context(text), "q"), direction)

    def test_iterated_derivative_multi_index(self, ctx):
        e = jet(ctx, "q") ** 2
        assert iterated_derivative(e, (2,)) == total_derivative(total_derivative(e))
        assert iterated_derivative(e, 1) == total_derivative(e)

    def test_second_direction(self):
        ctx2 = parse_context("indep x y\nfield u even antifield v\n")
        u = jet(ctx2, "u")
        assert total_derivative(u, 1) == jet(ctx2, "u", (0, 1))
        assert iterated_derivative(u, (1, 1)) == jet(ctx2, "u", (1, 1))

    @pytest.mark.parametrize(
        "order, message",
        [
            (-1, "nonnegative"),
            ((-1,), "nonnegative"),
            ((1, 0), "length 2"),
        ],
    )
    def test_iterated_derivative_rejects_bad_orders_on_a_line(self, ctx, order, message):
        with pytest.raises(ValueError, match=message):
            iterated_derivative(jet(ctx, "q"), order)

    @pytest.mark.parametrize(
        "order, message",
        [
            ((1,), "length 1"),
            ((-3, 1), "nonnegative"),
            ((1, 1, 1), "length 3"),
            (1, "single independent coordinate"),
        ],
    )
    def test_iterated_derivative_reads_orders_as_jet_does(self, order, message):
        ctx2 = parse_context("indep x y\nfield q even antifield p\n")
        q = jet(ctx2, "q")
        with pytest.raises(ValueError, match=message):
            iterated_derivative(q, order)
        with pytest.raises(ValueError, match=message):
            jet(ctx2, "q", order)
        assert iterated_derivative(q, 0) == q


# Fixed densities whose function arguments hold pairs of odd jets, which the
# fuzz generator never draws, with mixed-parity sums among them.  The pins are
# sha256 prefixes of every left and right partial sweep, every left and right
# Euler derivative and every total derivative of each density, in plain text.
_ODD_ARGUMENT_DENSITIES = pytest.mark.parametrize(
    "text, densities, want",
    [
        (
            "indep x\nfield q even antifield p\n",
            [
                "q*exp(p*p[1])*p[2]",
                "cos(q[1]*p*p[2])*p",
                "p*exp(p*p[1]) + q[1]*sin(q*p*p[2])",
                "exp(p*p[1])*sin(p[1]*p[2])*q[2] + p[2]*p*cos(q*p*p[1])",
            ],
            "d44c9a59c6086742",
        ),
        (
            "indep x\nfield u even antifield v\nfield a odd antifield b\n",
            [
                "exp(a*v[1])*b*v",
                "u[1]*cos(a*a[1]*u)*a[2] + v*sin(a[1]*v[1]*b) + b[1]*exp(v*v[2])",
            ],
            "e85a966b5bb0a575",
        ),
        (
            "indep x y\nfield q even antifield p\n",
            [
                "exp(p*p[1,0])*q[0,1]*p",
                "sin(q[1,0]*p*p[0,1])*p[1,1] + q*cos(p[0,1]*p[1,0])",
            ],
            "4a697064e62eeeb7",
        ),
        (
            "indep t\nfield psi odd antifield chi\n",
            [
                "exp(psi*psi[1])*chi",
                "psi[2]*sin(chi[1]*psi*psi[1])*psi",
                "chi*exp(psi*psi[1])*psi[2] + chi[1]*sin(chi*psi*psi[2])*psi[1]*psi"
                " + cos(psi[1]*psi[2])",
            ],
            "2f41c6f75ba3efc9",
        ),
    ],
    ids=["default", "pairs", "plane", "odd"],
)


@_ODD_ARGUMENT_DENSITIES
def test_sided_derivatives_through_odd_arguments_are_byte_stable(text, densities, want):
    ctx = parse_context(text)
    lines = []
    for density in densities:
        e = parse_density(density, ctx)
        for owner in range(len(ctx.names)):
            for side in ("left", "right"):
                for v, d in _along(ctx, _sweep(e), owner, side).items():
                    lines.append(f"{side} {v.owner} {v.order}: {format_density(d)}")
                lines.append(f"euler {side} {owner}: {format_density(euler(e, owner, side))}")
        for direction in range(ctx.n_indep):
            lines.append(f"D {direction}: {format_density(total_derivative(e, direction))}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == want


class TestEuler:
    def test_frozen_values(self, ctx):
        cases = [
            ("p * exp(q[1])", "q", "-p[1]*exp(q[1]) - p*q[2]*exp(q[1])"),
            ("p * exp(q[1])", "p", "exp(q[1])"),
            ("p * cos(q)", "q", "-1 * p*sin(q)"),
            ("q * q[2]", "q", "2*q[2]"),
            ("p * p[1]", "p", "2*p[1]"),
        ]
        for dens, wrt, want in cases:
            got = euler(parse_density(dens, ctx), wrt, "left")
            assert got == parse_density(want, ctx), (dens, wrt)

    def test_blocks_sum_to_euler(self, ctx):
        for e in _samples(ctx, 15, seed=13):
            for wrt in ("q", "p"):
                for side in ("left", "right"):
                    total = Expression.zero(ctx)
                    for _, block in euler_blocks(e, wrt, side):
                        total = total + block
                    assert total == euler(e, wrt, side)

    @pytest.mark.parametrize(
        "text, density, want",
        [
            ("indep x\nfield q even antifield p\n", "q * q[2] + q[1]^2 * q[3]",
             [(0,), (1,), (2,), (3,)]),
            # graded-lex puts (1,0) before (0,2); plain lex would not
            ("indep x y\nfield q even antifield p\n", "q * q[0,2] * q[1,0]",
             [(0, 0), (1, 0), (0, 2)]),
        ],
        ids=["default", "plane"],
    )
    def test_blocks_are_graded_ascending_and_nonzero(self, text, density, want):
        ctx = parse_context(text)
        blocks = euler_blocks(parse_density(density, ctx), "q", "left")
        orders = [sigma for sigma, _ in blocks]
        assert orders == sorted(orders, key=lambda s: (sum(s), s)) == want
        assert all(not b.is_zero() for _, b in blocks)

    def test_annihilates_total_derivatives(self, ctx):
        for e in _samples(ctx, 20, seed=17):
            d = total_derivative(e)
            assert euler(d, "q", "left").is_zero()
            assert euler(d, "p", "left").is_zero()

    def test_multi_direction_fold(self):
        ctx2 = parse_context("indep x y\nfield u even antifield v\n")
        e = parse_density("v * u[1,2] + u[2,0] * u[0,1] + v[1,1]^2 * u", ctx2)
        for wrt in ("u", "v"):
            total = Expression.zero(ctx2)
            for _, block in euler_blocks(e, wrt, "left"):
                total = total + block
            assert total == euler(e, wrt, "left")


class TestIsExact:
    def test_zero_and_divergences(self, ctx):
        assert is_exact(Expression.zero(ctx))
        assert is_exact(parse_density("q[1]", ctx))
        assert is_exact(total_derivative(parse_density("p * q * exp(q[1])", ctx)))

    def test_divergence_pair(self, ctx):
        assert is_exact(parse_density("p * q[2] - p[2] * q", ctx))

    def test_non_exact_densities(self, ctx):
        assert not is_exact(parse_density("q * q[2]", ctx))
        assert not is_exact(Expression.const(ctx, 1))

    def test_surviving_function_constant_is_not_exact(self, ctx):
        assert not is_exact(exp(Expression.const(ctx, 1)))

    @pytest.mark.parametrize(
        "text, want",
        [
            # zero as functions only through an identity of exp or sin and
            # cos, which the free differential algebra does not apply: their
            # Euler derivatives, 2*exp(q)^2 - 2*exp(2*q) and the like, are
            # not zero there
            ("exp(q)*exp(q) - exp(2*q)", False),
            ("exp(q+q[1]) - exp(q)*exp(q[1])", False),
            ("sin(2*q) - 2*sin(q)*cos(q)", False),
            # not zero as densities either, but the chain rule alone cancels
            # their Euler derivatives, and their zero-section value is 0
            ("sin(q)^2+cos(q)^2-1", True),
            ("exp(-q)*exp(q)-1", True),
        ],
    )
    def test_verdicts_are_decided_in_the_free_algebra(self, ctx, text, want):
        e = parse_density(text, ctx)
        assert not e.is_zero()
        assert is_exact(e) is want
        assert Functional(e).is_zero() is want

    def test_verdict_is_invariant_under_scaling(self, ctx):
        # the first 8 criterion-5 defects (seed 2026), and non-exact controls:
        # each defect plus a non-exact density, and that density alone
        defects = [d for d in _criterion_5_defects(ctx, 8) if not d.is_zero()]
        assert any(type(c) is Fraction for d in defects for c in d.terms.values())
        control = parse_density("1/3*q*q[2] - 5/7*p*q[1]^2", ctx)
        cases = [(d, True) for d in defects] + [(d + control, False) for d in defects[:4]]
        cases.append((control, False))
        for e, want in cases:
            assert is_exact(e) is want
            for c in _SCALARS:
                assert is_exact(e.scale(c)) is want


# negative, fractional and large scalars
_SCALARS = (-1, Fraction(-7, 3), Fraction(1, 10**12 + 39), 10**40)


def _criterion_5_defects(ctx, count):
    """The Jacobi defects of the first `count` seed-2026 fuzz triples."""
    params = FuzzParams(seed=2026, count=count)
    out = []
    for index in range(count):
        rng = random.Random(trial_seed(params.seed, index))
        F, G, H = (random_functional(ctx, rng, params, label) for label in "FGH")
        out.append(jacobi_defect(F, G, H).density)
    return out


class TestPrimitivePart:
    def test_coprime_ints_and_a_positive_multiple(self, ctx):
        samples = _criterion_5_defects(ctx, 6) + _samples(ctx, 40)
        samples += [e.scale(c) for e in samples[:10] for c in _SCALARS]
        for e in samples:
            if e.is_zero():
                continue
            content, prim = e.content_and_primitive()
            coeffs = list(prim.terms.values())
            assert all(type(c) is int for c in coeffs)
            assert math.gcd(*coeffs) == 1
            key = next(iter(e.terms))
            ratio = Fraction(prim.terms[key]) / e.terms[key]
            assert ratio > 0
            assert prim == e.scale(ratio)
            assert content == 1 / ratio
            assert prim.scale(content) == e

    def test_primitive_input_is_returned_as_is(self, ctx):
        zero = Expression.zero(ctx)
        assert zero.content_and_primitive() == (1, zero)
        assert zero.content_and_primitive()[1] is zero
        e = parse_density("3*q*q[2] - 2*p*q[1]", ctx)
        assert e.content_and_primitive()[1] is e
        assert parse_density("-q", ctx).content_and_primitive() == (1, parse_density("-q", ctx))
        assert e.scale(Fraction(-5, 6)).content_and_primitive() == (Fraction(5, 6), -e)


def _integral_fractions(exprs):
    """Coefficients stored as a Fraction although they are integral."""
    return [c for e in exprs for c in e.terms.values() if type(c) is not int and c.denominator == 1]


class TestCoefficients:
    @CONTEXTS
    def test_integral_coefficients_are_stored_as_int(self, text, max_jet_order, extra):
        ctx, pairs = _product_pairs(text, max_jet_order, extra)
        results = []
        for a, b in pairs:
            ab = a * b
            results += [ab, a + b, a - b, a.scale(Fraction(3, 2)), a.scale(Fraction(1, 3)).scale(3)]
            results += [total_derivative(ab, d) for d in range(ctx.n_indep)]
            for owner in range(len(ctx.names)):
                for side in ("left", "right"):
                    results.append(euler(ab, owner, side))
                    results += [partial(ab, JetVar(owner, s), side) for s in jet_orders(ab, owner)]
        # the sample must exercise both kinds of coefficient
        assert any(type(c) is int for e in results for c in e.terms.values())
        assert any(type(c) is Fraction for e in results for c in e.terms.values())
        assert _integral_fractions(results + ctx._args) == []

    def test_constructors_store_integral_values_as_int(self, ctx):
        (two,) = Expression.const(ctx, Fraction(4, 2)).terms.values()
        assert type(two) is int and two == 2
        q = jet(ctx, "q")
        assert _integral_fractions([q, exp(q), q.scale(Fraction(6, 3))]) == []
        (half,) = parse_density("3/6*q", ctx).terms.values()
        assert type(half) is Fraction and half == Fraction(1, 2)


def _euler_only(e):
    """The exactness test without lowering: every Euler derivative of e and
    its zero-section value vanish (the reference the lowered test must
    match)."""
    for owner in range(len(e.ctx.names)):
        if not euler(e, owner, "left").is_zero():
            return False
    try:
        return eval_zero_section(e) == 0
    except ValueError:
        return False


_LINE = "indep x\nfield q even antifield p\n"
_PAIRS = "indep x\nfield u even antifield v\nfield a odd antifield b\n"
_ODD = "indep t\nfield psi odd antifield chi\n"


def _defects_in(text, max_jet_order, count):
    """The Jacobi defects of the first `count` seed-2026 triples, each drawn
    in a fresh context parsed from text."""
    params = FuzzParams(seed=2026, max_jet_order=max_jet_order)
    out = []
    for index in range(count):
        ctx = parse_context(text)
        rng = random.Random(trial_seed(params.seed, index))
        F, G, H = (random_functional(ctx, rng, params, label) for label in "FGH")
        out.append(jacobi_defect(F, G, H).density)
    return out


class TestLowering:
    """core._lower integrates the top-order jets of a 1-D density by parts;
    is_exact runs the Euler test on what it leaves."""

    def _check(self, e):
        flux, rest = _lower(e)
        assert total_derivative(flux) + rest == e
        assert not any(packed & e.ctx._guard for packed, _ in flux.terms)
        return flux, rest

    def test_identity_on_criterion_5_defects(self, ctx):
        defects = _criterion_5_defects(ctx, 10)
        rests = [self._check(d)[1] for d in defects]
        # the heaviest defects leave few terms for the Euler test
        assert len(defects[2].terms) > 1000 and len(rests[2].terms) < 100
        # how far the lowering reaches: a pass that lowers less stays correct,
        # so only these counts catch it
        assert [len(r.terms) for r in rests] == [140, 0, 31, 0, 48, 0, 0, 0, 0, 26]
        for index in (1, 3, 8):
            assert not defects[index].is_zero() and rests[index].is_zero()

    @pytest.mark.parametrize("text", [_PAIRS, _ODD], ids=["pairs", "odd"])
    @pytest.mark.parametrize("max_jet_order", [1, 2])
    def test_identity_on_other_contexts(self, text, max_jet_order):
        defects = _defects_in(text, max_jet_order, 10)
        lowered = [self._check(d) for d in defects]
        assert any(flux.terms for flux, _ in lowered)
        if (text, max_jet_order) == (_PAIRS, 2):  # how far the lowering reaches
            rests = [len(rest.terms) for _, rest in lowered]
            assert rests == [0, 0, 104, 71, 154, 0, 0, 0, 0, 349]

    @pytest.mark.parametrize(
        "text, density",
        [
            (_ODD, "psi * psi[1] * chi"),
            (_ODD, "psi[1] * chi * psi"),
            (_PAIRS, "a[1] * v * b[1]"),
            (_PAIRS, "u[1]^2 * a * v[1] * b * a[1]"),
        ],
    )
    def test_odd_picks_integrate_exactly(self, text, density):
        # an odd u_n moves past the odd jets numbered between u_{n-1} and it
        # (first use numbers psi[1], then psi, then D's psi[2]): a wrong sign
        # leaves 2m behind
        ctx = parse_context(text)
        e = total_derivative(parse_density(density, ctx))
        flux, rest = self._check(e)
        assert not e.is_zero() and rest.is_zero()

    def test_a_pick_holds_no_lower_jet_of_an_earlier_owner(self, ctx):
        # q[1]*p[2] holds q[1], the (n-1)-jet of q, which order 2 lowers
        # before p, so it stays: D of q[1]*p[1] takes only its own share
        e = parse_density("q[2]*p[1] + 2*q[1]*p[2]", ctx)
        flux, rest = self._check(e)
        assert flux == parse_density("q[1]*p[1]", ctx)
        assert rest == parse_density("q[1]*p[2]", ctx)

    def test_input_is_not_edited(self, ctx):
        e = _criterion_5_defects(ctx, 1)[0]
        before = dict(e.terms)
        flux, rest = _lower(e)
        assert e.terms == before and rest.terms is not e.terms and flux.terms

    def test_verdicts_match_the_euler_test(self):
        # exact densities D(a) and perturbed ones D(a) + b, 600 in all
        params = FuzzParams(seed=0, count=0, max_jet_order=2, max_degree=3)
        verdicts = []
        for text in (_LINE, _PAIRS, _ODD):
            ctx = parse_context(text)
            rng = random.Random(41)
            for _ in range(100):
                a, b = (random_expression(ctx, rng, params, rng.randint(0, 1)) for _ in "ab")
                exact = total_derivative(a)
                for e in (exact, exact + b):
                    want = _euler_only(e)
                    assert is_exact(e) is want
                    verdicts.append(want)
        assert len(verdicts) == 600
        assert 300 <= verdicts.count(True) < 600 - 150

    def test_powers_near_the_slot_limit(self, ctx):
        q1, q2 = jet(ctx, "q", 1), jet(ctx, "q", 2)
        # u_{n-1} at MAX_POWER stays in the remainder: raising it would carry
        e = q1**MAX_POWER * q2
        flux, rest = self._check(e)
        assert rest == e and is_exact(e)
        flux, rest = self._check(q1**5 * q2)
        assert rest.is_zero() and flux == q1**6 * Fraction(1, 6)

    def test_function_argument_powers_near_the_slot_limit(self):
        # D of v[1] * exp(b^30000) * b^2769 holds b^32768, so the lowering
        # leaves e whole and the Euler test refutes u[2]^2 as before
        ctx = parse_context(_PAIRS)
        e = parse_density("u[2]^2", ctx)
        b = jet(ctx, "b")
        e = e + exp(b**30000) * b**2769 * jet(ctx, "v", 2)
        assert _lower(e)[1] is e
        assert is_exact(e) is False

    def test_a_later_order_that_overflows_leaves_e_whole(self):
        # order 3 lowers u[3]; order 2's pass, D of v[1]*exp(b^30000)*b^2769,
        # raises after editing the remainder it took over, so none of it may
        # come back
        ctx = parse_context(_PAIRS)
        b = jet(ctx, "b")
        e = parse_density("u[3] + u[2]^2", ctx) + exp(b**30000) * b**2769 * jet(ctx, "v", 2)
        before = dict(e.terms)
        flux, rest = _lower(e)
        assert flux.is_zero() and rest is e and e.terms == before
        assert is_exact(e) is False

    def test_an_overflow_stays_with_its_owner(self):
        # one sweep strikes every owner's jets; the chain rule's b^32768 in
        # the partial along b leaves the partials along u and v readable
        ctx = parse_context(_PAIRS)
        b = jet(ctx, "b")
        tail = exp(b**30000) * b**2769
        e = parse_density("u[2]^2", ctx) + tail * jet(ctx, "v", 2)
        assert partial(e, JetVar(0, (2,))) == parse_density("2*u[2]", ctx)
        assert euler(e, "u") == Functional(e).euler("u") == parse_density("2*u[4]", ctx)
        assert partial(e, JetVar(1, (2,)), "right") == tail
        # the same overflow inside a function argument, through the chain rule
        u1 = jet(ctx, "u", 1)
        nested = exp(tail + u1**2) * jet(ctx, "v", 2)
        assert partial(nested, JetVar(0, (1,))) == 2 * u1 * exp(tail + u1**2) * jet(ctx, "v", 2)
        reads = [
            lambda: partial(e, JetVar(3, (0,))),
            lambda: euler(e, "b"),
            lambda: Functional(e).euler("b"),
            lambda: euler_blocks(e, "b", "right"),
            lambda: partial(nested, JetVar(3, (0,))),
        ]
        for read in reads:
            with pytest.raises(ValueError, match="larger than 32767"):
                read()

    def test_a_plane_density_comes_back_whole(self):
        ctx = parse_context("indep x y\nfield q even antifield p\n")
        e = total_derivative(jet(ctx, "q", (1, 0)) * jet(ctx, "p"), 1)
        flux, rest = _lower(e)
        assert flux.is_zero() and rest is e
        assert is_exact(e)

    def test_an_argument_at_order_n_minus_1_blocks_the_pick(self, ctx):
        # the argument of exp(q[1]) reaches order n-1, so nothing is picked:
        # the table integral of exp(q[1])*q[2] is left to the Euler test
        e = exp(jet(ctx, "q", 1)) * jet(ctx, "q", 2)
        flux, rest = _lower(e)
        assert flux.is_zero() and rest is e
        assert is_exact(e)


class TestArgumentOrders:
    """FieldContext fixes each function argument's top jet order when it
    interns it; max_jet_order reads those orders for function factors."""

    def test_nested_arguments(self, ctx):
        e = exp(sin(jet(ctx, "q", 2))) * jet(ctx, "q", 1)
        assert e.max_jet_order() == 2
        assert ctx._arg_orders == [2, 2]

    @pytest.mark.parametrize(
        "text", [_LINE, _PAIRS, "indep x y\nfield q even antifield p\n", _ODD],
        ids=["default", "pairs", "plane", "odd"],
    )
    def test_agrees_with_the_jet_orders_of_every_owner(self, text):
        ctx = parse_context(text)
        params = FuzzParams(seed=0, count=0, max_jet_order=3, max_degree=3)
        rng = random.Random(5)
        even = [w for w, parity in enumerate(ctx.parities) if not parity]
        for _ in range(60):
            e = random_expression(ctx, rng, params, rng.randint(0, 1))
            if rng.random() < 0.5:
                inner = random_expression(ctx, rng, params, 0) + jet(ctx, rng.choice(even))
                e = e * cos(exp(inner) * jet(ctx, rng.choice(even)))
            assert e.max_jet_order() == _top_of_jet_orders(e)
        assert len(ctx._arg_orders) == len(ctx._args) > 10
        for arg, order in zip(ctx._args, ctx._arg_orders):
            assert order == _top_of_jet_orders(arg)


def _top_of_jet_orders(e):
    """The top total order over jet_orders of every owner of e."""
    return max((sum(o) for w in range(len(e.ctx.names)) for o in jet_orders(e, w)), default=0)
