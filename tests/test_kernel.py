"""The packed monomial kernel against an independent oracle.

The oracle, written here, keeps a monomial as a dict of even powers (jets and
function factors) and a list of odd jets in product order; it multiplies by
adding powers and concatenating lists, differentiates by the Leibniz rule in
place, and brings the odd jets into JetVar order by counting inversions.  The
kernel's products and total derivatives, decoded with `unpack`, must agree
with it term for term, including odd jets far past any fixed lane width.
"""

from collections import Counter
from fractions import Fraction

import pytest

from varschouten import Expression, cos, exp, jet, parse_context, sin, total_derivative
from varschouten.core import unpack

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)

# context text and the largest total jet order drawn in it
CONTEXTS = pytest.mark.parametrize(
    "text, max_order",
    [
        ("indep x\nfield q even antifield p\n", 3),
        ("indep x\nfield u even antifield v\nfield a odd antifield b\n", 3),
        ("indep x y\nfield q even antifield p\n", 2),
        ("indep t\nfield psi odd antifield chi\n", 3),
    ],
    ids=["line", "pairs", "plane", "odd"],
)

FUNCS = {"exp": exp, "sin": sin, "cos": cos}
# the oracle's chain rule: f'(u) = sign * kind(u)
DERIVATIVE = {"exp": ("exp", 1), "sin": ("cos", 1), "cos": ("sin", -1)}


def _canonical_odd(jets: list):
    """(sorted jets, sign) for odd jets in product order, or None when one repeats."""
    if len(set(jets)) < len(jets):
        return None
    inversions = sum(x > y for i, x in enumerate(jets) for y in jets[i + 1 :])
    return tuple(sorted(jets)), -1 if inversions % 2 else 1


def _add(out: dict, even: Counter, odd: list, c) -> None:
    """Accumulate the oracle monomial c * even * odd (odd in product order)."""
    canon = _canonical_odd(odd)
    if canon is None or not c:
        return
    key = (frozenset(even.items()), canon[0])
    out[key] = out.get(key, 0) + c * canon[1]
    if not out[key]:
        del out[key]


def _jet_key(owner, order):
    """A jet as the oracle sorts it: owner, total order, multi-index."""
    return (owner, sum(order), tuple(order))


def _raise(jet_key, direction):
    owner, _, order = jet_key
    return _jet_key(owner, order[:direction] + (order[direction] + 1,) + order[direction + 1 :])


def oracle_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (even1, odd1), c1 in a.items():
        for (even2, odd2), c2 in b.items():
            _add(out, Counter(dict(even1)) + Counter(dict(even2)), [*odd1, *odd2], c1 * c2)
    return out


def oracle_d(a: dict, direction: int) -> dict:
    """D along one direction: each factor in turn is replaced by its derivative."""
    out: dict = {}
    for (even, odd), c in a.items():
        even = Counter(dict(even))
        for unit, p in even.items():
            rest = even - Counter({unit: 1})
            if unit[0] == "jet":
                _add(out, rest + Counter({("jet", _raise(unit[1], direction)): 1}), list(odd), c * p)
            else:  # ("func", kind, argument jet)
                kind, sign = DERIVATIVE[unit[1]]
                new = Counter({("func", kind, unit[2]): 1, ("jet", _raise(unit[2], direction)): 1})
                _add(out, rest + new, list(odd), c * p * sign)
        for i, v in enumerate(odd):
            _add(out, even, [*odd[:i], _raise(v, direction), *odd[i + 1 :]], c)
    return out


def decoded(e) -> dict:
    """The kernel's terms in the oracle's form."""
    ctx = e.ctx
    out = {}
    for key, c in e.terms.items():
        even, funcs, odd, sign = unpack(ctx, key)
        units = Counter({("jet", _jet_key(v.owner, v.order)): p for v, p in even})
        for (kind, aid), p in funcs:
            ((arg_key, _),) = ctx.arg(aid).terms.items()
            ((v, _),) = unpack(ctx, arg_key)[0]
            units[("func", kind, _jet_key(v.owner, v.order))] += p
        out[(frozenset(units.items()), tuple(_jet_key(v.owner, v.order) for v in odd))] = c * sign
    return out


# -- drawing densities -------------------------------------------------------


@st.composite
def _order(draw, ctx, max_order):
    total = draw(st.integers(0, max_order))
    cells = [draw(st.integers(0, ctx.n_indep - 1)) for _ in range(total)]
    return tuple(cells.count(d) for d in range(ctx.n_indep))


@st.composite
def _factor(draw, ctx, max_order):
    """("jet", owner, order, power), one power of an odd jet included, or
    ("func", kind, owner, order) with an even jet as the argument."""
    even = [o for o, parity in enumerate(ctx.parities) if not parity]
    owner = draw(st.integers(0, len(ctx.names) - 1))
    order = draw(_order(ctx, max_order))
    if draw(st.integers(0, 4)) == 0:
        return ("func", draw(st.sampled_from(sorted(FUNCS))), draw(st.sampled_from(even)), order)
    power = 1 if ctx.parities[owner] else draw(st.integers(1, 3))
    return ("jet", owner, order, power)


def _density(ctx, max_order):
    coeff = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
    monomial = st.tuples(coeff, st.lists(_factor(ctx, max_order), max_size=4))
    return st.lists(monomial, min_size=1, max_size=3)


def build(ctx, recipe):
    """The recipe as a kernel density (factors multiplied in drawn order) and
    as an oracle density."""
    kernel, oracle = None, {}
    for coeff, factors in recipe:
        m = Expression.const(ctx, coeff)
        even, odd = Counter(), []
        for f in factors:
            if f[0] == "func":
                _, kind, owner, order = f
                m = m * FUNCS[kind](jet(ctx, owner, order))
                even[("func", kind, _jet_key(owner, order))] += 1
            elif ctx.parities[f[1]]:
                m = m * jet(ctx, f[1], f[2])
                odd.append(_jet_key(f[1], f[2]))
            else:
                m = m * jet(ctx, f[1], f[2]) ** f[3]
                even[("jet", _jet_key(f[1], f[2]))] += f[3]
        kernel = m if kernel is None else kernel + m
        _add(oracle, even, odd, coeff)
    return kernel, oracle


@CONTEXTS
@SETTINGS
@hypothesis.given(data=st.data())
def test_products_and_derivatives_match_the_oracle(text, max_order, data):
    ctx = parse_context(text)
    a, ra = build(ctx, data.draw(_density(ctx, max_order)))
    b, rb = build(ctx, data.draw(_density(ctx, max_order)))
    assert decoded(a) == ra
    assert decoded(a * b) == oracle_mul(ra, rb)
    assert decoded(b * a) == oracle_mul(rb, ra)
    for d in range(ctx.n_indep):
        assert decoded(total_derivative(a * b, d)) == oracle_d(oracle_mul(ra, rb), d)


@pytest.mark.parametrize(
    "text, factors",
    [
        ("indep t\nfield psi odd antifield chi\n", [(0, 0), (0, 1)]),  # psi*psi[1]
        ("indep x\nfield u even antifield v\nfield a odd antifield b\n", [(2, 1), (1, 0)]),
        ("indep x y\nfield q even antifield p\n", [(1, (0, 1)), (1, (1, 0))]),
    ],
    ids=["odd", "pairs", "plane"],
)
def test_forty_total_derivatives_match_the_oracle(text, factors):
    # jet orders past 40: odd bits far beyond any fixed lane of a few dozen
    ctx = parse_context(text)
    e, r = build(ctx, [(1, [("jet", owner, (k,) if isinstance(k, int) else k, 1)
                            for owner, k in factors])])
    for step in range(1, 41):
        e, r = total_derivative(e), oracle_d(r, 0)
        if step % 10 == 0:
            assert decoded(e) == r and r
    other, ro = build(ctx, [(1, [("jet", factors[-1][0], ctx.zero_order, 1)])])
    assert decoded(e * other) == oracle_mul(r, ro)
    assert decoded(other * e) == oracle_mul(ro, r)

