"""Derivatives on graded jet densities.

Implements, on the Leibniz engine core._derive, the directed (left/right)
partial derivative with respect to a single jet variable, the total
derivative along an independent coordinate, the directed Euler operator
sum_sigma (-D)^sigma ∘ d/d(jet of order sigma), and the exactness test
characterizing total divergences.
"""

from __future__ import annotations

from typing import Union

from .core import Expression, JetVar, _derive, _partials, eval_zero_section, normalize_order

Side = str  # "left" | "right"


def partial(e: Expression, v: JetVar, side: Side = "left") -> Expression:
    """Directed graded partial derivative of e with respect to jet variable v.

    For odd v the variable is transported to the leftmost position of each
    monomial, collecting (-1) per odd transposition, then struck; the right
    partial differs from that by a sign per monomial (see _partials).  Even v
    uses the ordinary power rule.  Function factors differentiate by the
    chain rule through their arguments.
    """
    v = JetVar(e.ctx.owner(v.owner), normalize_order(e.ctx, v.order))
    return _partials(e, v.owner, side).get(v) or Expression.zero(e.ctx)


def total_derivative(e: Expression, direction: int = 0) -> Expression:
    """The even derivation D_direction, which raises jet orders (see _derive)."""
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
    blocks = []
    for v, d in _partials(e, e.ctx.owner(ref), side).items():
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
    """
    if axis == ctx.n_indep:
        return pmap[()]
    groups: dict[int, dict] = {}
    for sigma, val in pmap.items():
        groups.setdefault(sigma[0], {})[sigma[1:]] = val
    acc = None
    for k in range(max(groups), -1, -1):
        if acc is not None:
            acc = total_derivative(acc, axis)
        sub = groups.get(k)
        if sub is not None:
            term = _alternating_total(ctx, sub, axis + 1)
            acc = term if acc is None else term - acc
        elif acc is not None:
            acc = -acc
    return acc if acc is not None else Expression.zero(ctx)


def euler(e: Expression, ref: Union[int, str], side: Side = "left") -> Expression:
    """Directed Euler (variational) derivative with respect to an owner.

    Same value as summing euler_blocks, computed with far fewer total
    derivatives via a nested alternating fold.
    """
    ctx = e.ctx
    pmap = {v.order: d for v, d in _partials(e, ctx.owner(ref), side).items()}
    if not pmap:
        return Expression.zero(ctx)
    return _alternating_total(ctx, pmap, 0)


def is_exact(e: Expression) -> bool:
    """True iff e is a total divergence.

    Over base-coordinate-independent densities this is equivalent to all
    Euler derivatives vanishing together with a zero constant part.  The
    verdict does not change under a nonzero scalar, so it is computed on the
    primitive part of e, whose coefficients are coprime ints.
    """
    if e.is_zero():
        return True
    e = e.content_and_primitive()[1]
    for owner in range(len(e.ctx.names)):
        if not euler(e, owner, "left").is_zero():
            return False
    try:
        return eval_zero_section(e) == 0
    except ValueError:
        return False
