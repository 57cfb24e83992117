"""Derivatives on graded jet densities.

Implements the directed (left/right) partial derivative with respect to a
single jet variable, the total derivative along an independent coordinate,
the directed Euler operator  sum_sigma (-D)^sigma ∘ d/d(jet of order sigma),
and the exactness test characterizing total divergences.
"""

from __future__ import annotations

from typing import Union

from .core import (
    FUNC_DERIVATIVE,
    Expression,
    JetVar,
    _add_term,
    _insert_unit,
    _merge_odd,
    _mul_keys,
    eval_zero_section,
)

Side = str  # "left" | "right"


def _lower_power(units: tuple, i: int) -> tuple:
    """A sorted (atom, power) unit tuple with the power of entry i lowered by one."""
    atom, p = units[i]
    if p == 1:
        return units[:i] + units[i + 1 :]
    return units[:i] + ((atom, p - 1),) + units[i + 1 :]


def _partials(e: Expression, owner: int, side: Side) -> dict:
    """Every directed partial of e along the jets of one owner, in one sweep.

    Returns {v: d e / dv} over the nonzero partials, the struck JetVar v
    ascending.  Each monomial key is edited directly: an even jet has its
    power lowered, an odd jet is struck with (-1)^(odd jets crossed on the way
    to the `side` end), and a function factor f(arg) becomes f'(arg) times the
    (cached) sweep of its argument, placed in front of the rest of the monomial.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    ctx = e.ctx
    odd_owner = ctx.parities[owner]
    outs: dict = {}
    for (even, funcs, odd), coeff in e.terms.items():
        if not odd_owner:
            for i, (jv, p) in enumerate(even):
                if jv.owner == owner:
                    key = (_lower_power(even, i), funcs, odd)
                    _add_term(outs.setdefault(jv, {}), key, coeff * p)
        else:
            for i, jv in enumerate(odd):
                if jv.owner == owner:
                    crossed = i if side == "left" else len(odd) - i - 1
                    key = (even, funcs, odd[:i] + odd[i + 1 :])
                    c = -coeff if crossed % 2 else coeff
                    _add_term(outs.setdefault(jv, {}), key, c)
        for i, ((kind, aid), p) in enumerate(funcs):
            d_arg = ctx._arg_partials.get((aid, owner, side))
            if d_arg is None:
                d_arg = _partials(ctx.arg(aid), owner, side)
                ctx._arg_partials[(aid, owner, side)] = d_arg
            if not d_arg:
                continue
            dkind, sgn = FUNC_DERIVATIVE[kind]
            base = (even, _insert_unit(_lower_power(funcs, i), (dkind, aid)), odd)
            c = coeff * p * sgn
            if odd_owner and side == "right" and len(odd) % 2:
                c = -c  # the odd d(arg) crosses every odd jet on its way right
            for v, d in d_arg.items():
                out = outs.setdefault(v, {})
                for k2, c2 in d.terms.items():
                    prod = _mul_keys(k2, base)
                    if prod is not None:
                        _add_term(out, prod[0], c * c2 * prod[1])
    return {v: Expression(ctx, outs[v]) for v in sorted(outs) if outs[v]}


def partial(e: Expression, v: JetVar, side: Side = "left") -> Expression:
    """Directed graded partial derivative of e with respect to jet variable v.

    For odd v the variable is transported to the leftmost (or rightmost)
    position of each monomial, collecting (-1) per odd transposition, then
    struck.  Even v uses the ordinary power rule.  Function factors
    differentiate by the chain rule through their arguments.
    """
    return _partials(e, v.owner, side).get(v) or Expression.zero(e.ctx)


def _bump(order, direction):
    return order[:direction] + (order[direction] + 1,) + order[direction + 1 :]


def _func_chain(ctx, kind, aid, direction) -> Expression:
    """Cached chain-rule factor of one function unit: f'(arg) * D(arg)."""
    got = ctx._func_chain.get((kind, aid, direction))
    if got is None:
        dkind, sgn = FUNC_DERIVATIVE[kind]
        head = Expression(ctx, {((), (((dkind, aid), 1),), ()): sgn})
        got = head * total_derivative(ctx.arg(aid), direction)
        ctx._func_chain[(kind, aid, direction)] = got
    return got


def total_derivative(e: Expression, direction: int = 0) -> Expression:
    """The even derivation D_direction raising jet orders by the chain rule.

    Like the partial sweep, each summand strikes one unit of the sorted key
    and merges its derivative back in: a lowered even power merges with the
    raised jet, and a struck odd jet moves to the right end with
    (-1)^(odd jets crossed) before its raised jet merges into place.  Being
    even, D adds no sign of its own; a repeated odd jet kills the summand.
    """
    ctx = e.ctx
    if not 0 <= direction < ctx.n_indep:
        raise ValueError(f"direction {direction} out of range")
    out: dict = {}
    raised: dict = {}  # jet -> its D_direction, built once per call

    def up(jv):
        got = raised.get(jv)
        if got is None:
            got = raised[jv] = JetVar(jv.owner, _bump(jv.order, direction))
        return got

    for (even, funcs, odd), coeff in e.terms.items():
        for i, (jv, p) in enumerate(even):
            key = (_insert_unit(_lower_power(even, i), up(jv)), funcs, odd)
            _add_term(out, key, coeff * p)
        for i, ((kind, aid), p) in enumerate(funcs):
            chain = _func_chain(ctx, kind, aid, direction)
            base = (even, _lower_power(funcs, i), odd)
            for k2, c2 in chain.terms.items():
                prod = _mul_keys(base, k2)
                if prod is not None:
                    _add_term(out, prod[0], coeff * p * c2 * prod[1])
        for i, jv in enumerate(odd):
            merged = _merge_odd(odd[:i] + odd[i + 1 :], (up(jv),))
            if merged is not None:
                c = coeff * merged[1]
                _add_term(out, (even, funcs, merged[0]), -c if (len(odd) - i - 1) % 2 else c)
    return Expression(ctx, out)


def iterated_derivative(e: Expression, order) -> Expression:
    """Apply D^order for a multi-index (or single-direction int) order."""
    ctx = e.ctx
    if isinstance(order, int):
        order = (order,) + (0,) * (ctx.n_indep - 1)
    for direction, k in enumerate(order):
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
