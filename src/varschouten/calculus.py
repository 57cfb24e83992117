"""Derivatives on graded jet densities, and the functionals that keep them.

Implements, on the Leibniz engine core._derive, the directed (left/right)
partial derivative with respect to a single jet variable, the total
derivative along an independent coordinate, the directed Euler operator
sum_sigma (-D)^sigma ∘ d/d(jet of order sigma), and the exactness test
characterizing total divergences.  Functional keeps every derivative of
its density; euler, euler_blocks and is_exact are views of a fresh one, and
Functional.is_zero is the one place exactness is decided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .core import (
    Expression,
    FieldContext,
    JetVar,
    _along,
    _check_side,
    _derive,
    _lower,
    _right,
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
    return _along(ctx, _sweep(e), v.owner, side).get(v) or Expression.zero(ctx)


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
    return Functional(e).blocks(ref, side)


def _blocks(partials: dict) -> list[tuple[tuple, Expression]]:
    """The Euler blocks of one owner's partials {v: d e / dv} (see euler_blocks)."""
    blocks = []
    for v, d in partials.items():
        block = _alternating_total(d.ctx, {v.order: d}, 0)
        if not block.is_zero():
            blocks.append((v.order, block))
    return blocks


def _alternating_total(ctx, pmap: dict, axis: int) -> Expression:
    """Evaluate sum_sigma (-1)^{|sigma|} D^sigma pmap[sigma] along one axis.

    Folds from the highest order down (A_0 - D(A_1 - D(A_2 - ...))), so each
    direction is differentiated max-order times instead of once per summand.
    Each step A_k - D(acc) is one pass of the Leibniz engine (core._derive).
    An empty pmap sums to zero.
    """
    if not pmap:
        return Expression.zero(ctx)
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
    derivatives via a nested alternating fold (see Functional.euler).
    """
    return Functional(e).euler(ref, side)


def is_exact(e: Expression) -> bool:
    """True iff e is a total divergence: Functional(e).is_zero(), which
    states the rule and lowers e first (see Functional.is_zero)."""
    return Functional(e).is_zero()


@dataclass(frozen=True, eq=False)
class Functional:
    """A density under an integral sign; equality is modulo total divergences.

    It owns everything derived from its density, in one store behind one
    memo (_keep): the sweep, each owner's left Euler derivative and blocks,
    per first strike the first partials' sweeps, the cells read off them,
    and the lowered functional that is_zero judges, each made on first use
    and handed out as kept (do not mutate it).
    """

    density: Expression
    label: str = ""
    _store: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def ctx(self) -> FieldContext:
        return self.density.ctx

    def _keep(self, key: tuple, make):
        """The store's entry at key, made by make() on the first ask."""
        if key not in self._store:
            self._store[key] = make()
        return self._store[key]

    @property
    def sweep(self) -> dict:
        """Every left partial of the density, all owners in one pass (core._sweep)."""
        return self._keep(("sweep",), lambda: _sweep(self.density))

    def euler(self, ref: Union[int, str], side: str = "left") -> Expression:
        """The directed Euler derivative of the functional along an owner.

        It belongs to the functional, not to the density that represents it
        (E o D = 0).  The left one is folded from the sweep on its first ask
        and kept; the right one is read off it (_sided).  A power past
        MAX_POWER raises ValueError only along this owner.
        """
        ctx, owner = self.ctx, self.ctx.owner(ref)
        return self._sided(("euler", owner), owner, side, lambda: _alternating_total(
            ctx, {v.order: d for v, d in _along(ctx, self.sweep, owner, "left").items()}, 0))

    def blocks(self, ref: Union[int, str], side: str = "left") -> list:
        """The Euler blocks along an owner, kept per side (see euler_blocks)."""
        owner = self.ctx.owner(ref)
        return self._sided(("blocks", owner), owner, side, lambda: _blocks(
            _along(self.ctx, self.sweep, owner, "left")))

    def cells(self, w1: Union[int, str], side1: str, w2: Union[int, str], side2: str) -> list:
        """The mixed second-variation cells: trace.second_variation_cells of
        the density.  Each is an Euler block, over sigma, of a tau Euler block
        of a first partial, whose sweep is kept per first strike (w1, side1)."""
        ctx, w1, w2 = self.ctx, self.ctx.owner(w1), self.ctx.owner(w2)
        return self._sided(("cells", w1, side1, w2), w2, side2, lambda: [
            ((sigma, tau), value)
            for v1, sweep in self._keep(("firsts", w1, side1), lambda: [
                (v1, _sweep(d)) for v1, d in _along(ctx, self.sweep, w1, side1).items()])
            for tau, block in _blocks(_along(ctx, sweep, w2, "left"))
            for sigma, value in _blocks({v1: block})
        ])

    def _sided(self, key: tuple, owner: int, side: str, make):
        """The entry at key, made by make() with owner struck on the left, on
        the left side or for an even owner; on the right of an odd one, its
        twin kept at key + ("right",).  D keeps each monomial's odd count, so
        core._right turns a left Euler derivative, block list or cell list
        into the right one with no second fold."""
        _check_side(side)
        left = self._keep(key, make)
        if side == "left" or not self.ctx.parities[owner]:
            return left
        ctx = self.ctx

        def flip(e):
            return Expression(ctx, _right(ctx, owner, e.terms))

        return self._keep(key + ("right",), lambda: (
            flip(left) if isinstance(left, Expression) else [(i, flip(e)) for i, e in left]))

    def is_zero(self) -> bool:
        """True iff the functional is zero, i.e. the density is exact.

        The one place exactness is decided.  Over base-coordinate-independent
        densities a density is exact iff it is zero, or every owner's Euler
        derivative (read up to the first that is not zero) and its
        zero-section value are zero.  This holds in the free differential
        algebra, where exp, sin and cos are free symbols of their arguments,
        tied to them only by the chain rule: a density that vanishes only
        through an identity between them, such as exp(q)*exp(q) - exp(2*q)
        or sin(2*q) - 2*sin(q)*cos(q), is not exact.  An exact density is
        exact as a function as well.

        It judges itself when every owner's left Euler derivative is kept,
        as after a bracket with a nonzero partner, and then sweeps nothing.
        Otherwise it judges a kept functional of the primitive part of
        core._lower's remainder, on any number of coordinates: density ==
        sum_a D_a(fluxes[a]) + remainder, so the remainder has the same
        Euler derivatives and zero-section value, often on far fewer terms,
        and no nonzero scalar changes the verdict.  The fluxes are not kept.
        """
        owners = range(len(self.ctx.names))
        judged = self
        if any(("euler", owner) not in self._store for owner in owners):
            judged = self._keep(
                ("lowered",),
                lambda: Functional(_lower(self.density)[1].content_and_primitive()[1]),
            )
        if judged.density.is_zero():
            return True
        if any(not judged.euler(owner).is_zero() for owner in owners):
            return False
        try:
            return eval_zero_section(judged.density) == 0
        except ValueError:
            return False

    def __repr__(self) -> str:
        name, n = self.label or "functional", len(self.density.terms)
        return f"<{name}: {n} monomial{'s' if n != 1 else ''}>"
