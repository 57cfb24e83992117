"""Graded expression arithmetic, contexts, and canonical forms."""

import copy
import pickle
from collections import Counter
from fractions import Fraction

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
    iterated_derivative,
    jet,
    jet_orders,
    parse_context,
    parse_density,
    reorder_sign_ledger,
    scale_add,
    sin,
    total_derivative,
)
from varschouten.core import MAX_POWER, normalize_order, unpack


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

    def test_power_expands_multinomially(self, ctx):
        q, q1 = jet(ctx, "q"), jet(ctx, "q", 1)
        assert format_density((q + q1) ** 2) == "2*q*q[1] + q^2 + q[1]^2"

    def test_equality_is_construction_independent(self, ctx):
        q, q1, p = jet(ctx, "q"), jet(ctx, "q", 1), jet(ctx, "p")
        left = (q + q1) * p
        right = q * p + q1 * p
        assert left == right
        assert left.structural_key() == right.structural_key()

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
            (lambda q, alien: q**-1, "nonnegative integer"),
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
        ids=["add-alien", "mul-alien", "euler-side", "pow-negative", "ledger-parity",
             "functional-eq-alien", "scale-add-alien"],
    )
    def test_invalid_arguments_raise_value_error(self, ctx, call, message):
        alien = jet(parse_context("indep x\nfield q even antifield p\n"), "q")
        with pytest.raises(ValueError, match=message):
            call(jet(ctx, "q"), alien)

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
        with pytest.raises(ValueError, match="larger than"):
            q**70000

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
