"""SymPy as an independent oracle for the total derivative and the Euler operator.

On the even sector of the default line (the field q alone), a density is an
ordinary differential polynomial in q(x) with exp/sin/cos factors, so
`total_derivative` must agree with `sympy.diff` and `euler(e, "q")` with
`sympy.calculus.euler.euler_equations`.  The densities are the spot checks
below and seeded random ones whose function factors may nest.
"""

import random

import pytest

from varschouten import euler, format_density, parse_context, parse_density, total_derivative
from varschouten.core import unpack

sympy = pytest.importorskip("sympy")
from sympy.calculus.euler import euler_equations  # noqa: E402

X = sympy.Symbol("x")
Q = sympy.Function("q")(X)
FUNCS = {"exp": sympy.exp, "sin": sympy.sin, "cos": sympy.cos}
CONTEXT = "indep x\nfield q even antifield p\n"

SPOT = [
    "q*q[1]^2*exp(q[2])",
    "sin(q*q[1])*q[2]^2 + 1/3*cos(q[1])*q",
    "q[2]^3*exp(q)",
]


def _to_sympy(e):
    """A density in q alone as a SymPy expression in q(x) and its derivatives."""
    ctx = e.ctx
    total = sympy.Integer(0)
    for key, c in e.terms.items():
        even, funcs, odd, _ = unpack(ctx, key)
        assert not odd
        term = sympy.Rational(c.numerator, c.denominator)
        for jv, p in even:
            assert ctx.names[jv.owner] == "q"
            term *= sympy.diff(Q, X, jv.degree) ** p
        for (kind, aid), p in funcs:
            term *= FUNCS[kind](_to_sympy(ctx.arg(aid))) ** p
        total += term
    return total


def _monomial(rng, depth):
    coeff = rng.choice(["", "-", "2*", "1/2*", "-2/3*"])
    factors = [f"q[{rng.randint(0, 2)}]^{rng.randint(1, 2)}" for _ in range(rng.randint(1, 2))]
    if depth and rng.random() < 0.6:
        arg = " + ".join(_monomial(rng, depth - 1) for _ in range(rng.randint(1, depth)))
        factors.append(f"{rng.choice(sorted(FUNCS))}({arg})")
    return coeff + "*".join(factors)


def _densities(count, seed=2026):
    rng = random.Random(seed)
    return [" + ".join(_monomial(rng, 2) for _ in range(rng.randint(1, 2))) for _ in range(count)]


@pytest.mark.parametrize(
    "text",
    SPOT + _densities(10),
    ids=[f"spot{i}" for i in range(len(SPOT))] + [f"seeded{i}" for i in range(10)],
)
def test_total_derivative_and_euler_agree_with_sympy(text):
    ctx = parse_context(CONTEXT)
    e = parse_density(text, ctx)
    assert not e.is_zero()
    want = sympy.diff(_to_sympy(e), X)
    assert sympy.expand(_to_sympy(total_derivative(e)) - want) == 0, format_density(e)
    (eq,) = euler_equations(_to_sympy(e), Q, X)
    assert sympy.expand(_to_sympy(euler(e, "q")) - eq.lhs) == 0, format_density(e)
