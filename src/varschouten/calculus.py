"""Derivatives on graded jet densities.

Implements the directed (left/right) partial derivative with respect to a
single jet variable, the total derivative along an independent coordinate,
the directed Euler operator  sum_sigma (-D)^sigma ∘ d/d(jet of order sigma),
and the exactness test characterizing total divergences.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Union

from .core import (
    FUNC_DERIVATIVE,
    SLOT_BITS,
    Expression,
    JetVar,
    _add_term,
    _check_powers,
    _crossings,
    eval_zero_section,
    normalize_order,
    unpack,
)

Side = str  # "left" | "right"


def _image(ctx, jv: JetVar, op):
    """The image of one jet under the derivation op, as (tag, key part or 0).

    D along direction op (an int) raises every jet: (None, raised jet).  The
    sweep op = (owner,) strikes each jet of the owner, (jet, 0), and kills
    every other jet: the falsy ().
    """
    if isinstance(op, int):
        order = jv.order
        return None, ctx._one(JetVar(jv.owner, order[:op] + (order[op] + 1,) + order[op + 1 :]))
    return (jv, 0) if jv.owner == op[0] else ()


def _func_summands(ctx, funcs: int, op) -> list:
    """[(tag, delta, odd', c)]: the chain-rule summands of op on one function part.

    A unit f(arg)^p gives p f'(arg) f(arg)^(p-1) times each monomial k2 of the
    derivative of arg, placed in front of the rest of the monomial: for a
    monomial (packed, odd) with this function part the summand's key is
    (packed + delta, odd' * odd), and its coefficient is c times the
    monomial's.
    """
    out = []
    for (kind, aid), p in unpack(ctx, (funcs, 0))[1]:
        dkind, sgn = FUNC_DERIVATIVE[kind]
        lift = ctx._one((dkind, aid)) - ctx._one((kind, aid))
        for tag, terms in _derive(ctx.arg(aid), op).items():
            for (k_packed, k_odd), c in terms.items():
                out.append((tag, lift + k_packed, k_odd, p * sgn * c))
    return out


def _derive(e: Expression, op) -> dict:
    """The derivation op of e by the graded Leibniz rule, as {tag: terms}.

    op is a direction d for the total derivative D_d, whose one tag is None,
    or (owner,) for the sweep of left partials along the owner's jets, tagged
    by the struck jet.  The loop does not tell them apart: per monomial
    (packed, odd), each even jet the op acts on adds its slot's delta to
    packed, one power lowered and its image (see _image) raised.  Each odd
    jet moves to the left end, (-1)^(odd bits below it), and its image moves
    back into place, (-1)^(odd bits below that).  The function part's
    summands are cached per (part, op): parts repeat across nearly every
    monomial.  Both derivations act from the left, so the function part,
    which is even and stands left of the odd part, is crossed without a sign.
    """
    ctx = e.ctx
    func_derivs, fmask, guard = ctx._func_derivs, ctx._masks["funcs"], ctx._guard
    acts_on = ~fmask if isinstance(op, int) else ctx._masks[op[0]]
    outs: defaultdict = defaultdict(dict)
    slot_images: dict = {}  # slot shift -> (tag, delta), built once per call
    bit_images: dict = {}  # odd bit -> its _image
    for (packed, odd), coeff in e.terms.items():
        x = packed & acts_on
        while x:  # x's slots, highest first, as in unpack
            shift = (x.bit_length() - 1) & -SLOT_BITS
            p = x >> shift
            x ^= p << shift
            image = slot_images.get(shift)
            if image is None:
                tag, up = _image(ctx, ctx._units[shift // SLOT_BITS], op)
                image = slot_images[shift] = (tag, up - (1 << shift))
            _add_term(outs[image[0]], (packed + image[1], odd), coeff * p)
        funcs = packed & fmask
        if funcs:
            got = func_derivs.get((funcs, op))
            if got is None:
                got = func_derivs[(funcs, op)] = _func_summands(ctx, funcs, op)
                guard = ctx._guard
            for tag, delta, k_odd, c2 in got:
                if k_odd & odd:
                    continue
                q = packed + delta
                if q & guard:
                    _check_powers(ctx, ((q, k_odd),))
                c = coeff * c2
                if k_odd and odd and _crossings(k_odd, odd) % 2:
                    c = -c
                _add_term(outs[tag], (q, k_odd | odd), c)
        x = odd
        while x:
            bit = x & -x
            x ^= bit
            image = bit_images.get(bit)
            if image is None:
                image = bit_images[bit] = _image(ctx, ctx._odd_jets[bit.bit_length() - 1], op)
            if not image:
                continue
            tag, up = image
            sign = (odd & (bit - 1)).bit_count()
            rest = odd ^ bit
            if up:
                if rest & up:
                    continue
                sign += (rest & (up - 1)).bit_count()
                rest |= up
            _add_term(outs[tag], (packed, rest), -coeff if sign % 2 else coeff)
    _check_powers(ctx, (key for terms in outs.values() for key in terms), e.terms)
    return outs


def _partials(e: Expression, owner: int, side: Side) -> dict:
    """Every directed partial of e along the jets of one owner, in one sweep.

    Returns {v: d e / dv} over the nonzero partials, the struck JetVar v
    ascending.  The right partial is the left one times (-1)^(|v||m'|) on
    each output monomial m': along an odd owner, the monomials with an odd
    number of odd jets change sign.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    outs = _derive(e, (owner,))
    if side == "right" and e.ctx.parities[owner]:
        for terms in outs.values():
            for key, c in terms.items():
                if key[1].bit_count() % 2:
                    terms[key] = -c
    return {v: Expression(e.ctx, outs[v]) for v in sorted(outs) if outs[v]}


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
