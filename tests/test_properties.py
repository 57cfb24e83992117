"""Property tests of the ring axioms, the two derivations, their per-context
caches, the Euler fold, the plain-text and JSON round trips, and the trace and
bracket laws on random triples.

Densities are drawn as recipes (plain data) and built in a context, so one
recipe can be built in two contexts that intern function arguments in a
different order.  Every recipe may hold odd jets and exp/sin/cos factors,
whose arguments may hold pairs of odd jets and, for the round trips, function
factors of their own.
"""

import json
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
    expand_trace,
    exp,
    format_density,
    graded_symmetry_defect,
    is_exact,
    iterated_derivative,
    jet,
    jet_orders,
    parse_context,
    parse_density,
    partial,
    second_variation_cells,
    sin,
    total_derivative,
)
from varschouten.core import _along, _func, _sweep, unpack
from varschouten.fuzz import FuzzParams, random_functional

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)

# context text and the largest total jet order drawn in it
CONTEXTS = pytest.mark.parametrize(
    "text, max_order",
    [
        ("indep x\nfield q even antifield p\n", 2),
        ("indep x\nfield u even antifield v\nfield a odd antifield b\n", 2),
        ("indep x y\nfield q even antifield p\n", 1),
        ("indep t\nfield psi odd antifield chi\n", 2),
    ],
    ids=["line", "pairs", "plane", "odd"],
)

FUNCS = {"exp": exp, "sin": sin, "cos": cos}
COEFFS = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]


def _orders(n_indep, max_order):
    return st.tuples(*[st.integers(0, max_order)] * n_indep).filter(
        lambda o: sum(o) <= max_order
    )


@st.composite
def _monomial(draw, ctx, max_order, parity, depth=1):
    """A monomial recipe; its function factors nest `depth` levels deep."""
    owners = range(len(ctx.names))
    even_owners = [o for o in owners if not ctx.parities[o]]
    odd_owners = [o for o in owners if ctx.parities[o]]
    orders = _orders(ctx.n_indep, max_order)
    n_odd = draw(st.sampled_from([k for k in range(4) if k % 2 == parity]))
    even_jet = st.tuples(st.sampled_from(even_owners), orders, st.integers(1, 2))
    odd_jet = st.tuples(st.sampled_from(odd_owners), orders)
    return (
        draw(st.sampled_from(COEFFS)),
        draw(st.lists(even_jet, max_size=2)),
        draw(st.lists(odd_jet, min_size=n_odd, max_size=n_odd)),
        draw(
            st.lists(
                st.tuples(
                    st.sampled_from(sorted(FUNCS)),
                    st.lists(_monomial(ctx, max_order, 0, depth - 1), min_size=1, max_size=2),
                    st.integers(1, 2),
                ),
                max_size=1 if depth else 0,
            )
        ),
    )


def _recipe(ctx, max_order, parity, depth=1):
    """A homogeneous density of the given parity, as a list of monomial recipes."""
    return st.lists(_monomial(ctx, max_order, parity, depth), min_size=1, max_size=3)


def _build(ctx, recipe) -> Expression:
    total = Expression.zero(ctx)
    for coeff, even, odd, funcs in recipe:
        m = Expression.const(ctx, coeff)
        for owner, order, power in even:
            m = m * jet(ctx, owner, order) ** power
        for kind, arg, power in funcs:
            a = _build(ctx, arg)
            if not a.is_zero():
                m = m * FUNCS[kind](a) ** power
        for owner, order in odd:
            m = m * jet(ctx, owner, order)
        total = total + m
    return total


def _pair(data, ctx, max_order):
    parities = data.draw(st.tuples(st.integers(0, 1), st.integers(0, 1)))
    return tuple(
        _build(ctx, data.draw(_recipe(ctx, max_order, parity))) for parity in parities
    )


@CONTEXTS
@SETTINGS
@hypothesis.given(data=st.data())
def test_ring_axioms_and_graded_commutativity(text, max_order, data):
    # a*b = (-1)^(|a||b|) b*a for homogeneous a, b; associative; distributive
    ctx = parse_context(text)
    (a, b), (c, _) = _pair(data, ctx, max_order), _pair(data, ctx, max_order)
    assert a * b == (b * a).scale(-1 if a.parity * b.parity else 1)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - b) * c == a * c - b * c


@CONTEXTS
@SETTINGS
@hypothesis.given(data=st.data())
def test_total_derivative_leibniz_rule(text, max_order, data):
    # D(ab) = D(a) b + a D(b): D is even, so no sign
    ctx = parse_context(text)
    a, b = _pair(data, ctx, max_order)
    for d in range(ctx.n_indep):
        want = total_derivative(a, d) * b + a * total_derivative(b, d)
        assert total_derivative(a * b, d) == want


@CONTEXTS
@SETTINGS
@hypothesis.given(data=st.data())
def test_partial_graded_leibniz_rule_both_sides(text, max_order, data):
    # dL(ab) = dL(a) b + (-1)^(|v||a|) a dL(b);  dR(ab) = a dR(b) + (-1)^(|v||b|) dR(a) b
    ctx = parse_context(text)
    a, b = _pair(data, ctx, max_order)
    ab = a * b
    for owner in range(len(ctx.names)):
        vp = ctx.parities[owner]
        for sigma in jet_orders(a, owner) | jet_orders(b, owner):
            v = JetVar(owner, sigma)
            left = partial(a, v, "left") * b + (a * partial(b, v, "left")).scale(
                -1 if vp * a.parity % 2 else 1
            )
            right = a * partial(b, v, "right") + (partial(a, v, "right") * b).scale(
                -1 if vp * b.parity % 2 else 1
            )
            assert partial(ab, v, "left") == left
            assert partial(ab, v, "right") == right


@CONTEXTS
@SETTINGS
@hypothesis.given(data=st.data())
def test_euler_is_the_sum_of_its_blocks(text, max_order, data):
    # euler folds A_0 - D(A_1 - D(A_2 - ...)) one axis inside another, each
    # step one pass of the Leibniz engine; euler_blocks runs the same fold
    # on each partial on its own, so the blocks are also checked against
    # D^sigma applied by iterated_derivative
    ctx = parse_context(text)
    a, b = _pair(data, ctx, max_order)
    for e in (a, a * b + b):
        for owner in range(len(ctx.names)):
            for side in ("left", "right"):
                assert euler_blocks(e, owner, side) == _blocks_by_hand(e, owner, side)
                total = Expression.zero(ctx)
                for _, block in euler_blocks(e, owner, side):
                    total = total + block
                assert euler(e, owner, side) == total, (owner, side)


@CONTEXTS
@SETTINGS
@hypothesis.given(data=st.data())
def test_both_representatives_give_one_verdict(text, max_order, data):
    # Functional.is_zero judges a fresh functional, such as is_exact's, on
    # the lowered primitive part of its density, and one whose every owner's
    # Euler derivative is already read on the density as it stands: one
    # rule, so one verdict, on a density e, on a divergence D(h) and on
    # D(h) + e
    ctx = parse_context(text)
    e, h = _pair(data, ctx, max_order)
    for d in range(ctx.n_indep):
        div = total_derivative(h, d)
        assert is_exact(div)
        for density in (e, div, div + e):
            unlowered = Functional(density)
            for owner in range(len(ctx.names)):
                unlowered.euler(owner)
            assert is_exact(density) == unlowered.is_zero()


# the contexts beyond the default line: two pairs, a plane, an odd field
STORE_CONTEXTS = pytest.mark.parametrize(
    "text, max_order",
    [
        ("indep x\nfield u even antifield v\nfield a odd antifield b\n", 2),
        ("indep x y\nfield q even antifield p\n", 1),
        ("indep t\nfield psi odd antifield chi\n", 2),
    ],
    ids=["pairs", "plane", "odd"],
)


@STORE_CONTEXTS
@SETTINGS
@hypothesis.given(data=st.data())
def test_a_functional_keeps_the_euler_derivatives(text, max_order, data):
    # a Functional computes every owner's derivatives on both sides from one
    # sweep, the right ones from the left; each functional is asked one side
    # first, so both orders of filling its store are read
    ctx = parse_context(text)
    a, b = _pair(data, ctx, max_order)
    for e in (a, a * b + b):
        for first in ("left", "right"):
            F = Functional(e)
            for side in (first, "right" if first == "left" else "left"):
                for owner in range(len(ctx.names)):
                    total = Expression.zero(ctx)
                    for _, block in euler_blocks(e, owner, side):
                        total = total + block
                    assert euler(e, owner, side) == total == F.euler(owner, side), (owner, side)


def _blocks_by_hand(e: Expression, w: int, side: str) -> list:
    """euler_blocks from public derivatives: (-1)^|sigma| D^sigma of each
    partial along w, sigma in graded-lex order, zero blocks left out."""
    out = []
    for sigma in sorted(jet_orders(e, w), key=lambda o: (sum(o), o)):
        block = iterated_derivative(partial(e, JetVar(w, sigma), side), sigma)
        if not block.is_zero():
            out.append((sigma, -block if sum(sigma) % 2 else block))
    return out


def _cells_by_hand(e: Expression, w1: int, s1: str, w2: int, s2: str) -> list:
    """second_variation_cells from public derivatives: for each first partial
    along w1 in graded-lex order, (-1)^|sigma| D^sigma of each of its Euler
    blocks along w2."""
    out = []
    for sigma in sorted(jet_orders(e, w1), key=lambda o: (sum(o), o)):
        for tau, block in euler_blocks(partial(e, JetVar(w1, sigma), s1), w2, s2):
            value = iterated_derivative(block, sigma)
            if not value.is_zero():
                out.append(((sigma, tau), -value if sum(sigma) % 2 else value))
    return out


@STORE_CONTEXTS
@SETTINGS
@hypothesis.given(data=st.data())
def test_a_functional_keeps_its_blocks_and_cells(text, max_order, data):
    # the store keys blocks and cells by owner and sides; each functional is
    # asked one side first, so both orders of filling its store are read
    ctx = parse_context(text)
    a, b = _pair(data, ctx, max_order)
    owners = range(len(ctx.names))
    for e in (a, a * b + b):
        for first in ("left", "right"):
            F = Functional(e)
            sides = (first, "right" if first == "left" else "left")
            for side in sides:
                for w in owners:
                    assert F.blocks(w, side) == euler_blocks(e, w, side), (w, side)
            for s1 in sides:
                for s2 in sides:
                    for w1 in owners:
                        for w2 in owners:
                            want = second_variation_cells(e, w1, s1, w2, s2)
                            assert F.cells(w1, s1, w2, s2) == want, (w1, s1, w2, s2)
                            assert want == _cells_by_hand(e, w1, s1, w2, s2), (w1, s1, w2, s2)


def _asks(ctx) -> list:
    """Every total derivative ("D", d) and directed partial sweep (owner, side)."""
    asks = [("D", d) for d in range(ctx.n_indep)]
    return asks + [(owner, side) for owner in range(len(ctx.names)) for side in ("left", "right")]


def _decoded(d: Expression) -> list:
    """(even, funcs, odd, canonical coefficient) per term of d, in stored order."""
    return [(*key[:3], c * key[3]) for key, c in ((unpack(d.ctx, k), c) for k, c in d.terms.items())]


def _texts(d: Expression) -> tuple:
    return tuple(format_density(d, style) for style in ("plain", "json", "latex"))


def _ask(e: Expression, ask, text: bool):
    """One ask of e, as its terms decoded in stored order (keys are numbers
    local to a context; see unpack), or as its plain, JSON and LaTeX text
    when `text` is set (the display order, which does not depend on
    interning history)."""
    show = _texts if text else _decoded
    if ask[0] == "D":
        return show(total_derivative(e, ask[1]))
    return [(v, show(d)) for v, d in _along(e.ctx, _sweep(e), *ask).items()]


def _derivatives(e: Expression, text: bool, backwards: bool = False) -> dict:
    """Every ask of e.  `backwards` asks them in the opposite order, so a
    cache entry filled for one direction, owner or side is read first by
    another."""
    asks = _asks(e.ctx)
    return {ask: _ask(e, ask, text) for ask in (reversed(asks) if backwards else asks)}


@CONTEXTS
@SETTINGS
@hypothesis.given(data=st.data())
def test_component_caches_do_not_change_results(text, max_order, data):
    # The same context cold and once its caches are warm; each ask alone in
    # a fresh context, against the warm one that answered every other ask
    # first; and a context that interned the same function arguments in the
    # other order.
    shape = parse_context(text)
    recipes = [data.draw(_recipe(shape, max_order, parity)) for parity in (0, 1)]
    ctx = parse_context(text)
    a, b = (_build(ctx, r) for r in recipes)
    densities = (a, b, a * b)
    cold = [_derivatives(e, False) for e in densities]
    warm = [_derivatives(e, False) for e in densities]
    assert warm == cold

    for k, got in enumerate(warm):
        for ask in _asks(ctx):
            fresh = parse_context(text)
            a1, b1 = (_build(fresh, r) for r in recipes)
            assert _ask((a1, b1, a1 * b1)[k], ask, False) == got[ask]

    other = parse_context(text)
    b2 = _build(other, recipes[1])
    a2 = _build(other, recipes[0])
    for e, e2 in zip(densities, (a2, b2, a2 * b2)):
        assert _derivatives(e, True) == _derivatives(e2, True, backwards=True)


@CONTEXTS
@SETTINGS
@hypothesis.given(data=st.data())
def test_plain_text_round_trip(text, max_order, data):
    ctx = parse_context(text)
    for parity in (0, 1):
        e = _build(ctx, data.draw(_recipe(ctx, max_order, parity, depth=2)))
        assert parse_density(format_density(e), ctx) == e


def _from_json(ctx, data: dict) -> Expression:
    """Decode density_to_json: jets by name, factors through _func, Fraction coefficients."""
    memo: dict = {}

    def decode(x: dict) -> Expression:
        total = Expression.zero(ctx)
        for m in x["monomials"]:
            e = Expression.const(ctx, Fraction(m["coeff"]))
            for name, power in m["even"]:
                e = e * parse_density(name, ctx) ** power
            for kind, aid, power in m["funcs"]:
                if aid not in memo:
                    memo[aid] = decode(data["args"][str(aid)])
                e = e * _func(kind, memo[aid]) ** power
            for name in m["odd"]:
                e = e * parse_density(name, ctx)
            total = total + e
        return total

    return decode(data)


@CONTEXTS
@SETTINGS
@hypothesis.given(data=st.data())
def test_json_round_trip(text, max_order, data):
    # Fraction coefficients and function factors nested two deep are drawn
    ctx = parse_context(text)
    for parity in (0, 1):
        e = _build(ctx, data.draw(_recipe(ctx, max_order, parity, depth=2)))
        assert _from_json(ctx, json.loads(format_density(e, "json"))) == e


@pytest.mark.parametrize(
    "text",
    [
        "indep x\nfield u even antifield v\nfield a odd antifield b\n",
        "indep x y\nfield q even antifield p\n",
        "indep t\nfield psi odd antifield chi\n",
    ],
    ids=["pairs", "plane", "odd"],
)
@SETTINGS
@hypothesis.given(seed=st.integers(0, 2**64 - 1))
def test_trace_and_bracket_laws_on_random_triples(text, seed):
    # every piece pairs with the piece its role swap predicts, off the q/p line
    ctx = parse_context(text)
    rng = random.Random(seed)
    F, G, H = (random_functional(ctx, rng, FuzzParams(max_jet_order=1), r) for r in "FGH")
    report = expand_trace(F, G, H)
    assert report.verdict == "verified"
    pieces = report.lhs_terms + report.rhs1_terms + report.rhs2_terms
    assert {t.status for t in pieces} <= {"matched", "cancelled"}
    assert report.bracket_check["plain_defect"] != "mismatch"
    for a, b in ((F, G), (G, H), (F, H)):
        assert graded_symmetry_defect(a, b).density.is_zero(), (a.label, b.label)
