"""Graded expression arithmetic, contexts, and canonical forms."""

import ast
import copy
import dataclasses
import inspect
import pickle
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from varschouten import (
    Expression,
    FieldContext,
    Functional,
    JetVar,
    cos,
    euler,
    eval_zero_section,
    exp,
    format_density,
    functional_eq,
    is_exact,
    iterated_derivative,
    jet,
    jet_orders,
    parse_context,
    parse_density,
    partial,
    reorder_sign_ledger,
    scale_add,
    second_variation_cells,
    sin,
    total_derivative,
)
from varschouten import core
from varschouten.core import FUNC_DERIVATIVE, MAX_POWER, _along, _sweep, normalize_order, unpack


class TestFieldContext:
    def test_layout(self):
        ctx = FieldContext(indep=("x",), pairs=(("q", "p", 0),))
        assert ctx.names == ["q", "p"]
        assert ctx.parities == [0, 1]
        assert ctx.pairs == [(0, 1)]
        assert ctx.n_indep == 1

    def test_antifield_parity_flips(self):
        ctx = FieldContext(("x",), (("a", "b", 1),))
        assert ctx.parities == [1, 0]

    def test_parity_normalized_mod_two(self):
        ctx = FieldContext(("x",), (("a", "b", 2),))
        assert ctx.parities == [0, 1]

    @pytest.mark.parametrize("parity", [True, False, "odd", 1.0, None], ids=repr)
    def test_parity_must_be_an_int(self, parity):
        with pytest.raises(ValueError, match="parity of field 'q' must be an int"):
            FieldContext(("x",), (("q", "p", parity),))

    def test_requires_independent_coordinate(self):
        with pytest.raises(ValueError, match="independent"):
            FieldContext((), (("q", "p", 0),))

    def test_requires_a_pair(self):
        with pytest.raises(ValueError, match="pair"):
            FieldContext(("x",), ())

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FieldContext(("x",), (("q", "q", 0),))
        with pytest.raises(ValueError, match="distinct"):
            FieldContext(("x", "x"), (("q", "p", 0),))

    def test_reserved_names_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            FieldContext(("x",), (("exp", "p", 0),))

    def test_owner_lookup(self, ctx):
        assert ctx.owner("q") == 0
        assert ctx.owner("p") == 1
        assert ctx.owner(1) == 1
        with pytest.raises(ValueError):
            ctx.owner("nope")


class TestArithmetic:
    def test_odd_square_vanishes(self, ctx):
        p = jet(ctx, "p")
        assert (p * p).is_zero()
        assert (p**2).is_zero()

    def test_anticommutation(self, ctx):
        p, p1 = jet(ctx, "p"), jet(ctx, "p", 1)
        assert p * p1 == -(p1 * p)
        assert format_density(p1 * p) == "-p*p[1]"

    def test_even_factors_commute(self, ctx):
        q, q1, p = jet(ctx, "q"), jet(ctx, "q", 1), jet(ctx, "p")
        assert q * q1 * p == q1 * (p * q)  # p is odd but crosses only evens

    def test_sum_and_difference(self, ctx):
        q = jet(ctx, "q")
        assert (q + q - q * Fraction(2)).is_zero()
        assert (q - q).is_zero()

    def test_scale(self, ctx):
        q = jet(ctx, "q")
        assert q.scale(Fraction(3, 2)) == q + q.scale(Fraction(1, 2))
        assert q.scale(0).is_zero()

    @pytest.mark.parametrize(
        "coeff, factor, want",
        [
            (14, Fraction(6, 35), Fraction(12, 5)),
            (35, Fraction(6, 35), 6),
            (-9, Fraction(2, 3), -6),
            (9, Fraction(-2, 3), -6),
            (-14, Fraction(-6, 35), Fraction(12, 5)),
            (7, Fraction(-1, 2), Fraction(-7, 2)),
            (5, -3, -15),
            (Fraction(5, 6), Fraction(6, 35), Fraction(1, 7)),
            (Fraction(-5, 6), Fraction(-3, 5), Fraction(1, 2)),
            (Fraction(-5, 6), Fraction(12, 5), -2),
            (Fraction(7, 4), 8, 14),
        ],
    )
    def test_scale_agrees_with_fraction_arithmetic(self, ctx, coeff, factor, want):
        # an int coefficient takes int arithmetic and a Fraction one Fraction
        # arithmetic; either way an integral result is stored as an int
        e = parse_density("q*q[1] - 3*p + 2/3*q[2]", ctx) + Expression.const(ctx, coeff)
        got = e.scale(factor)
        assert got.terms.keys() == e.terms.keys()
        for key, c in e.terms.items():
            exact = Fraction(c) * factor
            assert got.terms[key] == exact
            assert type(got.terms[key]) is (int if exact.denominator == 1 else Fraction)
        (constant,) = (c for key, c in got.terms.items() if key == (0, 0))
        assert constant == want and type(constant) is type(want)

    def test_power_expands_multinomially(self, ctx):
        q, q1 = jet(ctx, "q"), jet(ctx, "q", 1)
        assert format_density((q + q1) ** 2) == "2*q*q[1] + q^2 + q[1]^2"

    def test_equality_is_construction_independent(self, ctx):
        q, q1, p = jet(ctx, "q"), jet(ctx, "q", 1), jet(ctx, "p")
        left = (q + q1) * p
        right = q * p + q1 * p
        assert left == right
        assert left.structural_key() == right.structural_key()

    def test_repr_counts_monomials(self, ctx):
        q = jet(ctx, "q")
        assert repr(Expression.zero(ctx)) == "<Expression: 0 monomials>"
        assert repr(q) == "<Expression: 1 monomial>"
        assert repr(q + jet(ctx, "p")) == "<Expression: 2 monomials>"

    def test_equality_with_a_non_expression_is_false(self, ctx):
        q = jet(ctx, "q")
        assert (q == 1) is False and (q != 1) is True
        assert (Expression.const(ctx, 1) == 1) is False

    def test_const_and_zero(self, ctx):
        one = Expression.const(ctx, 1)
        assert not one.is_zero()
        assert Expression.zero(ctx).is_zero()
        assert (one - one).is_zero()

    @pytest.mark.parametrize(
        "op",
        [
            lambda q: q + 1,
            lambda q: 1 + q,
            lambda q: q - 1,
            lambda q: 1 - q,
            lambda q: q * 0.5,
            lambda q: 0.5 * q,
            lambda q: q * "2",
        ],
        ids=["add", "radd", "sub", "rsub", "mul-float", "rmul-float", "mul-str"],
    )
    def test_operands_that_are_not_expressions_are_refused(self, ctx, op):
        with pytest.raises(TypeError):
            op(jet(ctx, "q"))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda q, alien: q + alien, "different field contexts"),
            (lambda q, alien: q * alien, "different field contexts"),
            (lambda q, alien: euler(q, "q", "up"), "side must be 'left' or 'right'"),
            (lambda q, alien: Functional(q).euler("q", "up"), "side must be 'left' or 'right'"),
            # q has no p jets, so the second side is never read by a strike
            (
                lambda q, alien: second_variation_cells(q, "p", "left", "q", "up"),
                "side must be 'left' or 'right'",
            ),
            (lambda q, alien: q**-1, "nonnegative integer"),
            (lambda q, alien: q**True, "nonnegative integer"),
            (lambda q, alien: q**False, "nonnegative integer"),
            (lambda q, alien: reorder_sign_ledger(2, 0), "parities must be 0 or 1"),
            (
                lambda q, alien: functional_eq(Functional(q), Functional(alien)),
                "different field contexts",
            ),
            (
                lambda q, alien: scale_add(1, Functional(q), 1, Functional(alien)),
                "different field contexts",
            ),
        ],
        ids=["add-alien", "mul-alien", "euler-side", "functional-euler-side", "cells-side",
             "pow-negative", "pow-true", "pow-false",
             "ledger-parity",
             "functional-eq-alien", "scale-add-alien"],
    )
    def test_invalid_arguments_raise_value_error(self, ctx, call, message):
        alien = jet(parse_context("indep x\nfield q even antifield p\n"), "q")
        with pytest.raises(ValueError, match=message):
            call(jet(ctx, "q"), alien)

    @pytest.mark.parametrize(
        "op",
        [
            lambda q: q * True,
            lambda q: False * q,
            lambda q: q.scale(True),
            lambda q: q.scale(False),
            lambda q: Expression.const(q.ctx, True),
            lambda q: Expression.const(q.ctx, False),
        ],
        ids=["mul-true", "rmul-false", "scale-true", "scale-false", "const-true", "const-false"],
    )
    def test_bool_coefficients_are_refused(self, ctx, op):
        with pytest.raises(TypeError, match="not bool"):
            op(jet(ctx, "q"))

    def test_coefficients_are_never_rounded(self, ctx):
        q = jet(ctx, "q")
        for value in (0.1, 0.5, 1.0, "1/2", None):
            with pytest.raises(TypeError, match="int or a Fraction"):
                Expression.const(ctx, value)
            with pytest.raises(TypeError, match="int or a Fraction"):
                q.scale(value)
        assert Expression.const(ctx, Fraction(1, 10)).terms == {(0, 0): Fraction(1, 10)}
        assert q.scale(Fraction(4, 2)) == q * 2 == 2 * q


class TestPowerLimit:
    """A power lives in a fixed-width slot of a packed key; past MAX_POWER an
    operation raises ValueError instead of carrying into the next slot."""

    def test_power_past_the_slot_raises(self, ctx):
        q = jet(ctx, "q")
        assert format_density(q**MAX_POWER) == f"q^{MAX_POWER}"
        for exponent in (MAX_POWER + 1, 70000):
            with pytest.raises(ValueError, match="larger than"):
                q**exponent

    def test_power_of_a_constant_or_zero_is_quick(self, ctx):
        # square and multiply: a few dozen products, not one per unit of exponent
        one = Expression.const(ctx, 1)
        assert one ** 10**6 == one
        assert (Expression.zero(ctx) ** 10**9).is_zero()

    def test_a_base_of_several_terms_multiplies_once_per_power(self, ctx, monkeypatch):
        base = parse_density("q + q[1] + q[2] + q[3]", ctx)
        want = Expression.const(ctx, 1)
        for _ in range(40):
            want = want * base
        squares = [base]
        for _ in range(3):
            squares.append(squares[-1] * squares[-1])
        assert squares[3] * squares[2] * squares[1] == base**14
        products = []
        real = Expression.__mul__

        def mul(a, b):
            products.append(len(b.terms))
            return real(a, b)

        monkeypatch.setattr(Expression, "__mul__", mul)
        assert base**40 == want
        assert products == [4] * 40
        # a base of one or two terms squares: a few dozen products
        del products[:]
        assert Expression.const(ctx, 1) ** 10**6 == Expression.const(ctx, 1)
        assert format_density(jet(ctx, "q") ** MAX_POWER) == f"q^{MAX_POWER}"
        assert len(((jet(ctx, "q") + jet(ctx, "q", 1)) ** 300).terms) == 301
        assert len(products) < 80

    def test_a_power_stops_at_its_first_zero_product(self, monkeypatch):
        # a sum of odd jets squares to zero, so the loop stops after its
        # second product instead of running to the exponent
        ctx = parse_context("indep t\nfield psi odd antifield chi\n")
        base = parse_density("psi + psi[1] + psi[2]", ctx)
        products = []
        real = Expression.__mul__

        def mul(a, b):
            products.append(len(b.terms))
            return real(a, b)

        monkeypatch.setattr(Expression, "__mul__", mul)
        assert (base**1000).is_zero()
        assert products == [3, 3]

    def test_repeated_squaring(self, ctx):
        e = jet(ctx, "q") * jet(ctx, "q", 1)
        for _ in range(14):
            e = e * e
        assert format_density(e) == "q^16384*q[1]^16384"
        with pytest.raises(ValueError, match="larger than"):
            e * e
        assert format_density(e * jet(ctx, "q", 2)) == "q^16384*q[1]^16384*q[2]"

    def test_derivatives_past_the_slot_raise(self, ctx):
        q, q1 = jet(ctx, "q"), jet(ctx, "q", 1)
        with pytest.raises(ValueError, match="larger than"):
            total_derivative(q * q1**MAX_POWER)  # the raised jet's power
        with pytest.raises(ValueError, match="larger than"):
            total_derivative(exp(q**20000) * q**20000)  # the chain rule's product
        d = total_derivative(exp(q**16000) * q**16000)
        assert format_density(d) == (
            "16000*q^15999*q[1]*exp(q^16000) + 16000*q^31999*q[1]*exp(q^16000)"
        )

    def test_overflowing_summands_that_cancel_raise_nothing(self, ctx):
        # the chain rule's two q^39999 summands cancel, so every derivative
        # of e is representable: overflow is read off the output keys
        q, p = jet(ctx, "q"), jet(ctx, "p")
        E = exp(-(q**20000)) * exp(q**20000)
        e = exp(q**20000) * exp(-(q**20000)) * q**20000 * p
        assert total_derivative(e) == (
            20000 * q**19999 * jet(ctx, "q", 1) * E * p + q**20000 * E * jet(ctx, "p", 1)
        )
        assert partial(e, JetVar(0, (0,))) == 20000 * q**19999 * E * p
        assert euler(e, "q") == 20000 * q**19999 * E * p

    def test_an_overflow_inside_a_function_argument_raises(self, ctx):
        # the limit: D of the argument A holds q^39999, and a function
        # argument's derivative is taken whole, so e is refused although
        # the outer chain-rule summands cancel (D(e) is exp(A)*exp(-A)*p[1])
        q, p = jet(ctx, "q"), jet(ctx, "p")
        A = exp(q**20000) * q**20000
        e = exp(A) * exp(-A) * p
        reads = [
            lambda: total_derivative(e),
            lambda: partial(e, JetVar(0, (0,))),
            lambda: is_exact(e),
        ]
        refusal = f"^a power in a monomial is larger than {MAX_POWER}$"
        for read in reads:
            with pytest.raises(ValueError, match=refusal):
                read()

    @pytest.mark.parametrize("op", ["product", "D", "sweep"])
    def test_seeded_sweep_near_the_slot_limit(self, ctx, op):
        # every result either raises or holds the exact power sums, with no
        # guard bit set: a slot sum is at most 2*MAX_POWER + 1, so the guard
        # bit catches every overflow before it can carry into the next slot
        rng = random.Random(23)
        raised = 0
        for _ in range(150):
            m = _draw_monomial(rng)
            e = _build_monomial(ctx, m)
            if op == "product":
                m2 = _draw_monomial(rng)
                summands = [(None, 1, m + m2)]
                run = lambda: {None: (e * _build_monomial(ctx, m2)).terms}
            elif op == "D":
                summands = _summands(m, lambda k: (None, Counter({("q", k + 1): 1})))
                run = lambda: {None: total_derivative(e).terms}
            else:
                summands = _summands(m, lambda k: (JetVar(0, (k,)), Counter()))
                run = lambda: {v: d.terms for v, d in _along(ctx, _sweep(e), 0, "left").items()}
            if max((p for _, _, s in summands for p in s.values()), default=0) > MAX_POWER:
                with pytest.raises(ValueError, match="larger than"):
                    run()
                raised += 1
                continue
            want: dict = {}
            for tag, c, s in summands:
                terms = want.setdefault(tag, {})
                terms[frozenset(s.items())] = terms.get(frozenset(s.items()), 0) + c
            assert {tag: _decoded(ctx, terms) for tag, terms in run().items() if terms} == want
        assert 20 < raised < 130


# The monomials of the sweep above, as {unit: power}: jet units ("q", k) for
# q[k], function units (kind, k, s) for kind(q[k]^s).
_HALF = MAX_POWER // 2
_POWERS = (1, 2, _HALF - 1, _HALF, _HALF + 1, MAX_POWER - 1, MAX_POWER)


def _draw_monomial(rng) -> Counter:
    m = Counter({("q", k): rng.choice((0, 0, *_POWERS)) for k in range(3)})
    if rng.random() < 0.7:
        m[(rng.choice(("exp", "sin", "cos")), rng.randrange(3), rng.choice(_POWERS))] = rng.choice(
            _POWERS
        )
    return +m


def _build_monomial(ctx, m: Counter) -> Expression:
    e = Expression.const(ctx, 1)
    for unit, p in m.items():
        f = jet(ctx, "q", unit[1])
        if unit[0] != "q":
            f = {"exp": exp, "sin": sin, "cos": cos}[unit[0]](f ** unit[2])
        e = e * f**p
    return e


def _summands(m: Counter, image) -> list:
    """[(tag, coefficient, monomial)]: a derivation of m by the Leibniz and
    chain rules, unmerged; image(k) is the tag and the factor that one power
    of q[k] becomes."""
    out = []
    for unit, p in m.items():
        rest = m - Counter({unit: 1})
        if unit[0] == "q":
            k, c = unit[1], p
        else:
            kind, k, s = unit
            dkind, sign = FUNC_DERIVATIVE[kind]
            rest += Counter({(dkind, k, s): 1, ("q", k): s - 1})
            c = p * sign * s
        tag, up = image(k)
        out.append((tag, c, rest + up))
    return out


def _decoded(ctx, terms: dict) -> dict:
    """terms with each key decoded into the units of _draw_monomial."""
    out = {}
    for key, c in terms.items():
        assert not key[0] & ctx._guard
        even, funcs, odd, sign = unpack(ctx, key)
        assert not odd and sign == 1
        m = {("q", v.order[0]): p for v, p in even}
        for (kind, aid), p in funcs:
            ((v, s),), _, _, _ = unpack(ctx, next(iter(ctx.arg(aid).terms)))
            m[(kind, v.order[0], s)] = p
        out[frozenset(m.items())] = c
    return out


class TestParity:
    def test_homogeneous_values(self, ctx):
        q, p = jet(ctx, "q"), jet(ctx, "p")
        assert q.parity == 0
        assert p.parity == 1
        assert (q * p).parity == 1
        assert (p * jet(ctx, "p", 1)).parity == 0

    def test_mixed_sum_has_no_parity(self, ctx):
        mixed = jet(ctx, "q") + jet(ctx, "p")
        assert mixed.parity is None

    def test_zero_counts_as_even(self, ctx):
        assert Expression.zero(ctx).parity == 0


class TestFunctionFactors:
    def test_argument_must_be_even(self, ctx):
        with pytest.raises(ValueError, match="parity-even"):
            exp(jet(ctx, "p"))
        with pytest.raises(ValueError, match="parity-even"):
            sin(jet(ctx, "q") * jet(ctx, "p"))

    def test_repeated_factor_merges_to_power(self, ctx):
        q = jet(ctx, "q")
        assert format_density(sin(q) * sin(q)) == "sin(q)^2"

    def test_interning_shares_arguments(self, ctx):
        q1 = jet(ctx, "q", 1)
        a = exp(q1 + q1) * cos(q1 + q1)
        b = cos(q1.scale(2)) * exp(q1.scale(2))
        assert a == b

    def test_nested_arguments(self, ctx):
        q = jet(ctx, "q")
        e = exp(sin(q))
        assert format_density(e) == "exp(sin(q))"
        assert parse_density("exp(sin(q))", ctx) == e


class TestZeroSection:
    def test_polynomial_keeps_constant_term(self, ctx):
        e = jet(ctx, "q") * jet(ctx, "q", 1) ** 2 + Expression.const(ctx, 3)
        assert eval_zero_section(e) == 3

    def test_function_factors_at_zero(self, ctx):
        q = jet(ctx, "q")
        assert eval_zero_section(exp(q)) == 1
        assert eval_zero_section(sin(q)) == 0
        assert eval_zero_section(cos(q) * Expression.const(ctx, Fraction(1, 2))) == Fraction(1, 2)

    def test_odd_factors_vanish(self, ctx):
        assert eval_zero_section(jet(ctx, "p") * jet(ctx, "p", 1)) == 0

    def test_irrational_value_raises(self, ctx):
        with pytest.raises(ValueError, match="no exact rational value"):
            eval_zero_section(exp(Expression.const(ctx, 1)))


class TestJetHelpers:
    def test_jet_accepts_int_or_multi_index(self, ctx):
        assert jet(ctx, "q", 2) == jet(ctx, "q", (2,))

    def test_jet_rejects_base_coordinates(self, ctx):
        with pytest.raises(ValueError, match="unknown field"):
            jet(ctx, "x")

    def test_jet_orders_sees_function_arguments(self, ctx):
        e = exp(jet(ctx, "q", 1)) * jet(ctx, "q")
        assert sorted(jet_orders(e, "q")) == [(0,), (1,)]
        assert jet_orders(e, "p") == set()

    def test_max_jet_order(self, ctx):
        e = jet(ctx, "q", 1) * jet(ctx, "p", 3)
        assert e.max_jet_order() == 3

    def test_normalize_order(self, ctx):
        assert normalize_order(ctx, 2) == (2,)
        assert normalize_order(ctx, (2,)) == (2,)
        with pytest.raises(ValueError, match="multi-index length"):
            normalize_order(ctx, (1, 2))

    @pytest.mark.parametrize("order", [True, (True,), (1.5,), (1.0,), "1", 2.0], ids=repr)
    def test_orders_are_ints(self, ctx, order):
        q = jet(ctx, "q")
        with pytest.raises(ValueError, match="jet order entries must be ints"):
            normalize_order(ctx, order)
        with pytest.raises(ValueError, match="jet order entries must be ints"):
            jet(ctx, "q", order)
        with pytest.raises(ValueError, match="jet order entries must be ints"):
            iterated_derivative(q, order)

    @pytest.mark.parametrize("ref", [True, False, 1.0, None], ids=repr)
    def test_owners_are_names_or_ints(self, ctx, ref):
        with pytest.raises(ValueError, match="an owner is a name or an int index"):
            jet(ctx, ref)

    @pytest.mark.parametrize("order", [True, (1.0,)], ids=repr)
    def test_a_rejected_order_takes_no_slot(self, ctx, order):
        with pytest.raises(ValueError):
            jet(ctx, "q", order)
        e = parse_density("q[1]*p", ctx)
        assert format_density(e) == "q[1]*p"
        assert format_density(e, "latex") == "q_{x} q^{\\dagger}"
        assert parse_density(format_density(e), ctx) == e

    def test_jetvar_ordering_key_is_graded(self, ctx):
        # owner first, then total order, then lexicographic components
        e = jet(ctx, "q", 2) * jet(ctx, "q") * jet(ctx, "q", 1)
        assert format_density(e) == "q*q[1]*q[2]"

    def test_jetvar_order_is_owner_then_graded_lex(self):
        jets = [JetVar(1, (0, 0)), JetVar(0, (0, 2)), JetVar(0, (1, 0)), JetVar(0, (0, 0))]
        assert sorted(jets) == [jets[3], jets[2], jets[1], jets[0]]

    def test_jetvar_survives_copy_and_pickle(self):
        v = JetVar(0, (1,))
        assert (v.owner, v.order) == (0, (1,))
        assert v == JetVar(0, (1,)) and hash(v) == hash(JetVar(0, (1,)))
        for clone in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert type(clone) is JetVar and clone == v
            assert (clone.owner, clone.order) == (0, (1,))


class TestInsertUnit:
    """A monomial times one more jet or function unit: the powers of equal
    units add, and a new unit joins with power one."""

    # owners 1, 2 and 4 are even; owner 0 is odd; arg ids 0..4 are interned first
    CONTEXT = "indep x\nfield a odd antifield b\nfield c even antifield d\nfield e even antifield f\n"
    JET_UNITS = ((JetVar(1, (1,)), 1), (JetVar(1, (3,)), 2), (JetVar(2, (0,)), 1))
    FUNC_UNITS = ((("cos", 3), 1), (("exp", 0), 2), (("sin", 1), 1))

    @pytest.mark.parametrize(
        "units, atom",
        [
            (JET_UNITS, JetVar(0, (5,))),  # an odd jet
            (JET_UNITS, JetVar(1, (2,))),
            (JET_UNITS, JetVar(4, (0,))),
            (JET_UNITS, JetVar(1, (3,))),  # present: its power rises
            (JET_UNITS, JetVar(1, (1,))),
            ((), JetVar(0, (0,))),
            (FUNC_UNITS, ("cos", 0)),
            (FUNC_UNITS, ("exp", 2)),
            (FUNC_UNITS, ("sin", 4)),
            (FUNC_UNITS, ("exp", 0)),  # present
            (FUNC_UNITS, ("sin", 1)),
        ],
    )
    def test_agrees_with_merging_one_unit(self, units, atom):
        ctx = parse_context(self.CONTEXT)
        for k in range(5):
            assert ctx.intern_arg(jet(ctx, 2, k)) == k

        def factor(unit):
            if isinstance(unit, JetVar):
                return jet(ctx, unit.owner, unit.order)
            return {"exp": exp, "sin": sin, "cos": cos}[unit[0]](ctx.arg(unit[1]))

        m = Expression.const(ctx, 1)
        for unit, power in units:
            m = m * factor(unit) ** power
        ((key, c),) = (m * factor(atom)).terms.items()
        even, funcs, odd, sign = unpack(ctx, key)
        assert c * sign == 1
        assert Counter(dict(even + funcs)) + Counter(odd) == Counter(dict(units)) + Counter([atom])
        assert all(ctx.parities[v.owner] for v in odd)
        assert all(not ctx.parities[v.owner] for v, _ in even)


class TestDerivationTable:
    """The context keeps the Leibniz engine's images and chain-rule summands
    per derivation, and no other module reads its private state."""

    def test_images_outlive_a_call(self, ctx, monkeypatch):
        met = []

        def image(ctx, jv, op):
            met.append((jv, op))
            return real(ctx, jv, op)

        real = core._image
        monkeypatch.setattr(core, "_image", image)
        q1 = JetVar(ctx.owner("q"), (1,))
        first = parse_density("q[1]^2*p + exp(q)*p[2]", ctx)
        total_derivative(first)
        partial(first, q1)
        before = set(met)
        assert len(before) == len(met)
        del met[:]
        second = parse_density("q[1]*p[1]*q[3] + exp(q)*q*p", ctx)
        total_derivative(second)
        partial(second, q1)
        # only the units the first calls did not meet, each once
        assert met and len(set(met)) == len(met) and not before & set(met)
        assert set(ctx._derivs) == {0, core._SWEEP}

    def test_each_argument_is_differentiated_once(self, ctx, monkeypatch):
        # the table is keyed by unit, not by function part: exp(q) stands in
        # three parts, alone, squared and beside sin(q[1]), and its argument
        # q is differentiated once per derivation all the same
        met = Counter()

        def derive(e, op, minuend=None):
            if any(e is arg for arg in ctx._args):
                met[format_density(e), op] += 1
            return real(e, op, minuend)

        real = core._derive
        monkeypatch.setattr(core, "_derive", derive)
        e = parse_density("exp(q)*q[1] + exp(q)^2*p + exp(q)*sin(q[1])*p[1]", ctx)
        total_derivative(e)
        partial(e, JetVar(ctx.owner("q"), (0,)))
        assert met == {(arg, op): 1 for arg in ("q", "q[1]") for op in (0, core._SWEEP)}
        # per derivation two tables: slot shift -> image, odd bit -> image
        assert all(len(tables) == 2 for tables in ctx._derivs.values())

    def test_the_engine_decodes_no_key(self):
        # the engine walks a key's slots and bits itself: neither _derive nor
        # its image builder reads unpack or the mask of the function units
        for fn in (core._derive, core._slot_image):
            tree = ast.parse(inspect.getsource(fn))
            names = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(tree)}
            assert not names & {"unpack", "_funcs"}, fn.__name__

    @staticmethod
    def _reads_elsewhere(home: str, private: set) -> list:
        """Every read of one of the private names in a module other than home."""
        reads = []
        for path in sorted(Path(core.__file__).parent.glob("*.py")):
            if path.name == home:
                continue
            tree = ast.parse(path.read_text(), str(path))
            reads += [
                f"{path.name}:{node.lineno} .{node.attr}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in private
            ]
        return reads

    def test_only_functional_is_zero_lowers(self):
        # exactness is decided in one place: outside core, the lowering is
        # read only in Functional.is_zero, and imported only by its module
        home = Path(inspect.getfile(Functional)).name
        inside, elsewhere = [], []
        for path in sorted(Path(core.__file__).parent.glob("*.py")):
            if path.name == "core.py":
                continue
            tree = ast.parse(path.read_text(), str(path))
            judge = {
                id(node)
                for cls in tree.body
                if isinstance(cls, ast.ClassDef) and cls.name == "Functional"
                for fn in cls.body
                if isinstance(fn, ast.FunctionDef) and fn.name == "is_zero"
                for node in ast.walk(fn)
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.alias) and node.name == "_lower":
                    if path.name != home:
                        elsewhere.append(f"{path.name}:{node.lineno} import")
                elif "_lower" in (getattr(node, "id", None), getattr(node, "attr", None)):
                    where = inside if id(node) in judge else elsewhere
                    where.append(f"{path.name}:{node.lineno}")
        assert len(inside) == 1 and not elsewhere, elsewhere

    def test_the_lowering_has_no_dimension_branch(self):
        # one lowering for every dimension, with one coordinate as the
        # one-axis case: _lower never asks how many coordinates there are
        tree = ast.parse(inspect.getsource(core._lower))
        reads = [
            node.lineno
            for node in ast.walk(tree)
            if "n_indep" in (getattr(node, "id", None), getattr(node, "attr", None))
        ]
        assert not reads

    def test_no_other_module_reads_private_context_state(self):
        private = {n for n in vars(FieldContext(("x",), [("q", "p", 0)])) if n.startswith("_")}
        assert "_derivs" in private
        assert not self._reads_elsewhere("core.py", private)

    def test_no_other_module_reads_private_functional_state(self):
        # the store and its memo belong to the module that defines Functional:
        # the trace and the brackets read its derivatives through its methods
        names = [f.name for f in dataclasses.fields(Functional)] + list(vars(Functional))
        private = {n for n in names if n.startswith("_") and not n.endswith("__")}
        assert {"_store", "_keep"} <= private
        assert not self._reads_elsewhere(Path(inspect.getfile(Functional)).name, private)
