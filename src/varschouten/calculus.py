"""Derivatives on graded jet densities.

Implements, on the Leibniz engine core._derive, the directed (left/right)
partial derivative with respect to a single jet variable, the total
derivative along an independent coordinate, the directed Euler operator
sum_sigma (-D)^sigma ∘ d/d(jet of order sigma), and the exactness test
characterizing total divergences.
"""

from __future__ import annotations

from typing import Union

from .core import (
    Expression,
    JetVar,
    _along,
    _derive,
    _lower,
    _partials,
    _sweep,
    eval_zero_section,
    normalize_order,
)

Side = str  # "left" | "right"


def partial(e: Expression, v: JetVar, side: Side = "left") -> Expression:
    """Directed graded partial derivative of e with respect to jet variable v.

    For odd v the variable is transported to the leftmost position of each
    monomial, collecting (-1) per odd transposition, then struck; the right
    partial differs from that by a sign per monomial (see core._right).  Even
    v uses the ordinary power rule.  Function factors differentiate by the
    chain rule through their arguments.
    """
    ctx = e.ctx
    v = JetVar(ctx.owner(v.owner), normalize_order(ctx, v.order))
    return _partials(e, v.owner, side).get(v) or Expression.zero(ctx)


def total_derivative(e: Expression, direction: int = 0) -> Expression:
    """The even derivation D_direction, which raises jet orders (see _derive)."""
    if type(direction) is not int:  # a bool or a float is no direction
        raise ValueError(f"a direction is an int index, not {direction!r}")
    if not 0 <= direction < e.ctx.n_indep:
        raise ValueError(f"direction {direction} out of range")
    return Expression(e.ctx, _derive(e, direction).get(None, {}))


def iterated_derivative(e: Expression, order) -> Expression:
    """Apply D^order for an order as core.normalize_order reads it."""
    for direction, k in enumerate(normalize_order(e.ctx, order)):
        for _ in range(k):
            e = total_derivative(e, direction)
    return e


def euler_blocks(
    e: Expression, ref: Union[int, str], side: Side = "left"
) -> list[tuple[tuple, Expression]]:
    """Summands (-1)^{|sigma|} D^sigma (d e / d w_sigma) of the Euler operator.

    Returns (sigma, block) pairs with nonzero blocks, sigma ascending in
    graded-lexicographic order.  Their sum is euler(e, ref, side).
    """
    return _blocks(_partials(e, e.ctx.owner(ref), side))


def _blocks(partials: dict) -> list[tuple[tuple, Expression]]:
    """The Euler blocks of one owner's partials {v: d e / dv} (see euler_blocks)."""
    blocks = []
    for v, d in partials.items():
        block = iterated_derivative(d, v.order)
        if v.degree % 2:
            block = -block
        if not block.is_zero():
            blocks.append((v.order, block))
    return blocks


def _alternating_total(ctx, pmap: dict, axis: int) -> Expression:
    """Evaluate sum_sigma (-1)^{|sigma|} D^sigma pmap[sigma] along one axis.

    Folds from the highest order down (A_0 - D(A_1 - D(A_2 - ...))), so each
    direction is differentiated max-order times instead of once per summand.
    Each step A_k - D(acc) is one pass of the Leibniz engine (core._derive).
    """
    if axis == ctx.n_indep:
        return pmap[()]
    groups: dict[int, dict] = {}
    for sigma, val in pmap.items():
        groups.setdefault(sigma[0], {})[sigma[1:]] = val
    top = max(groups)
    acc = _alternating_total(ctx, groups[top], axis + 1)
    for k in range(top - 1, -1, -1):
        sub = groups.get(k)
        minuend = dict(_alternating_total(ctx, sub, axis + 1).terms) if sub else {}
        acc = Expression(ctx, _derive(acc, axis, minuend)[None])
    return acc


def euler(e: Expression, ref: Union[int, str], side: Side = "left") -> Expression:
    """Directed Euler (variational) derivative with respect to an owner.

    Same value as summing euler_blocks, computed with far fewer total
    derivatives via a nested alternating fold.  Functional.euler keeps a
    functional's derivatives along every owner, from one sweep.
    """
    return _euler(e.ctx, _partials(e, e.ctx.owner(ref), side))


def _euler(ctx, partials: dict) -> Expression:
    """The Euler derivative from one owner's partials {v: d e / dv}."""
    if not partials:
        return Expression.zero(ctx)
    return _alternating_total(ctx, {v.order: d for v, d in partials.items()}, 0)


def _left_eulers(e: Expression):
    """Every owner's left Euler derivative of e in owner order, from one
    sweep of its partials, each computed when the caller asks for it."""
    swept = _sweep(e)
    for owner in range(len(e.ctx.names)):
        yield _euler(e.ctx, _along(e.ctx, swept, owner, "left"))


def is_exact(e: Expression) -> bool:
    """True iff e is a total divergence in the free differential algebra.

    exp, sin and cos are free symbols of their arguments there, tied to them
    only by the chain rule: no identity between them is applied, so a
    density that vanishes only through such an identity, such as
    exp(q)*exp(q) - exp(2*q) or sin(2*q) - 2*sin(q)*cos(q), is not exact.
    An exact density is exact as a function as well.

    Over base-coordinate-independent densities this is equivalent to all
    Euler derivatives vanishing together with a zero constant part.  The
    test runs on the remainder of core._lower, which integrates the
    top-order jets of a 1-D density by parts and otherwise leaves e whole:
    e == D(flux) + remainder, so the remainder has e's Euler derivatives
    and constant part, and often far fewer terms.  The verdict does not
    change under a nonzero scalar, so it is computed on the primitive part,
    whose coefficients are coprime ints.  One sweep gives every owner's
    partials; the owners' Euler derivatives are folded in order, up to the
    first that is nonzero.
    """
    if e.is_zero():
        return True
    e = _lower(e)[1].content_and_primitive()[1]
    if any(not d.is_zero() for d in _left_eulers(e)):
        return False
    try:
        return eval_zero_section(e) == 0
    except ValueError:
        return False
