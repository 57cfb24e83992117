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
    _merge_units,
    eval_zero_section,
)

Side = str  # "left" | "right"


def _lower_power(units: tuple, i: int) -> tuple:
    """A sorted (atom, power) unit tuple with the power of entry i lowered by one."""
    atom, p = units[i]
    if p == 1:
        return units[:i] + units[i + 1 :]
    return units[:i] + ((atom, p - 1),) + units[i + 1 :]


def _odd_strikes(odd: tuple, owner: int, side: Side) -> list:
    """[(v, odd without v, sign)] over the owner's jets; the sign is
    (-1)^(odd jets v crosses on its way to the `side` end)."""
    n = len(odd)
    return [
        (jv, odd[:i] + odd[i + 1 :], -1 if (i if side == "left" else n - i - 1) % 2 else 1)
        for i, jv in enumerate(odd)
        if jv.owner == owner
    ]


def _func_strikes(ctx, funcs: tuple, owner: int, side: Side) -> list:
    """The chain-rule summands of the function units' partials along one owner.

    Each entry (v, even', funcs', odd', c) is one monomial k2 of d arg / dv
    times f'(arg) and the other function units: the key _mul_keys(k2, base)
    of a monomial (even, funcs, odd) is (even' + even, funcs', odd' + odd),
    with the odd merge sign, and its coefficient is c times the monomial's.
    """
    out = []
    for i, ((kind, aid), p) in enumerate(funcs):
        d_arg = ctx._arg_partials.get((aid, owner, side))
        if d_arg is None:
            d_arg = ctx._arg_partials[(aid, owner, side)] = _partials(ctx.arg(aid), owner, side)
        if not d_arg:
            continue
        dkind, sgn = FUNC_DERIVATIVE[kind]
        base = _insert_unit(_lower_power(funcs, i), (dkind, aid))
        for v, d in d_arg.items():
            for (k_even, k_funcs, k_odd), c2 in d.terms.items():
                out.append((v, k_even, _merge_units(k_funcs, base), k_odd, p * sgn * c2))
    return out


def _partials(e: Expression, owner: int, side: Side) -> dict:
    """Every directed partial of e along the jets of one owner, in one sweep.

    Returns {v: d e / dv} over the nonzero partials, the struck JetVar v
    ascending.  The partial is a graded derivation, so each monomial's
    summands come from its three key components apart: an even jet has its
    power lowered, an odd jet is struck with (-1)^(odd jets crossed on the way
    to the `side` end), and a function factor f(arg) becomes f'(arg) times the
    sweep of its argument, placed in front of the rest of the monomial.  The
    strikes of the odd part and of the function part are cached in the
    context per (owner, side), as total_derivative caches their raises.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    ctx = e.ctx
    odd_owner = ctx.parities[owner]
    strike_odd, strike_funcs = ctx._strike_odd, ctx._strike_funcs
    outs: dict = {}
    for (even, funcs, odd), coeff in e.terms.items():
        if not odd_owner:
            for i, (jv, p) in enumerate(even):
                if jv.owner == owner:
                    key = (_lower_power(even, i), funcs, odd)
                    _add_term(outs.setdefault(jv, {}), key, coeff * p)
        else:
            got = strike_odd.get((odd, owner, side))
            if got is None:
                got = strike_odd[(odd, owner, side)] = _odd_strikes(odd, owner, side)
            for jv, rest, sign in got:
                _add_term(outs.setdefault(jv, {}), (even, funcs, rest), coeff * sign)
        if funcs:
            got = strike_funcs.get((funcs, owner, side))
            if got is None:
                got = strike_funcs[(funcs, owner, side)] = _func_strikes(ctx, funcs, owner, side)
            c = coeff
            if odd_owner and side == "right" and len(odd) % 2:
                c = -c  # the odd d(arg) crosses every odd jet on its way right
            for v, k_even, k_funcs, k_odd, c2 in got:
                merged = _merge_odd(k_odd, odd)
                if merged is not None:
                    key = (_merge_units(k_even, even), k_funcs, merged[0])
                    _add_term(outs.setdefault(v, {}), key, c * c2 * merged[1])
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


def _raise_odd(odd: tuple, direction: int) -> list:
    """[(odd with one jet raised along direction, sign)] over the nonzero summands.

    The struck jet moves to the right end with (-1)^(odd jets crossed) and its
    raised jet merges back into place; a repeated odd jet kills the summand.
    """
    out = []
    for i, jv in enumerate(odd):
        up = JetVar(jv.owner, _bump(jv.order, direction))
        merged = _merge_odd(odd[:i] + odd[i + 1 :], (up,))
        if merged is not None:
            out.append((merged[0], -merged[1] if (len(odd) - i - 1) % 2 else merged[1]))
    return out


def _raise_funcs(ctx, funcs: tuple, direction: int) -> list:
    """[(even', funcs', odd', c)]: each function unit's chain-rule summands.

    For a monomial (even, funcs, odd) the summand's key is
    (even + even', funcs', odd + odd') with the odd merge sign, and its
    coefficient is c times the monomial's.
    """
    out = []
    for i, ((kind, aid), p) in enumerate(funcs):
        rest = _lower_power(funcs, i)
        for (k_even, k_funcs, k_odd), c2 in _func_chain(ctx, kind, aid, direction).terms.items():
            out.append((k_even, _merge_units(rest, k_funcs), k_odd, p * c2))
    return out


def total_derivative(e: Expression, direction: int = 0) -> Expression:
    """The even derivation D_direction raising jet orders by the chain rule.

    By the Leibniz rule D(even*funcs*odd) is D(even)*funcs*odd +
    even*D(funcs)*odd + even*funcs*D(odd).  An even summand lowers one power
    and inserts the raised jet, built once per call.  The function and odd
    parts of the keys repeat across nearly every monomial, so the context
    caches their derivatives per direction: a raised odd part is a whole key
    component, and a chain-rule summand costs one merge with the even part
    and one with the odd part.  Even parts are not cached: they repeat less
    and are far more numerous, so their cache would hold every distinct even
    part that a context has met.  Being even, D adds no sign of its own.
    """
    ctx = e.ctx
    if not 0 <= direction < ctx.n_indep:
        raise ValueError(f"direction {direction} out of range")
    raised_odd, raised_funcs = ctx._raised_odd, ctx._raised_funcs
    out: dict = {}
    up: dict = {}  # jet -> its D_direction, built once per call
    for (even, funcs, odd), coeff in e.terms.items():
        for i, (jv, p) in enumerate(even):
            jv_up = up.get(jv)
            if jv_up is None:
                jv_up = up[jv] = JetVar(jv.owner, _bump(jv.order, direction))
            _add_term(out, (_insert_unit(_lower_power(even, i), jv_up), funcs, odd), coeff * p)
        if funcs:
            got = raised_funcs.get((funcs, direction))
            if got is None:
                got = raised_funcs[(funcs, direction)] = _raise_funcs(ctx, funcs, direction)
            for k_even, k_funcs, k_odd, c in got:
                merged = _merge_odd(odd, k_odd)
                if merged is not None:
                    key = (_merge_units(even, k_even), k_funcs, merged[0])
                    _add_term(out, key, coeff * c * merged[1])
        if odd:
            got = raised_odd.get((odd, direction))
            if got is None:
                got = raised_odd[(odd, direction)] = _raise_odd(odd, direction)
            for raised, sign in got:
                _add_term(out, (even, funcs, raised), coeff * sign)
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
