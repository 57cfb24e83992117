"""Derivatives on graded jet densities, and the functionals that keep them.

Implements, on the Leibniz engine core._derive, the directed (left/right)
partial derivative with respect to a single jet variable, the total
derivative along an independent coordinate, the directed Euler operator
sum_sigma (-D)^sigma ∘ d/d(jet of order sigma), and the exactness test
characterizing total divergences.  Functional keeps every derivative of
its density; euler, euler_blocks and is_exact are views of a fresh one, and
Functional.is_zero states the exactness rule once.
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
    whose coefficients are coprime ints.  The rule itself is
    Functional.is_zero, applied to a fresh functional of that part.
    """
    return Functional(_lower(e)[1].content_and_primitive()[1]).is_zero()


@dataclass(frozen=True, eq=False)
class Functional:
    """A density under an integral sign; equality is modulo total divergences.

    It owns everything derived from its density, in one store behind one
    memo (_keep): the sweep, each owner's left Euler derivative and blocks,
    per first strike the first partials' sweeps, and the cells read off
    them, each made on first use and handed out as kept (do not mutate it).
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
        and kept; the right one is read off it on each call (core._right).
        A power past MAX_POWER raises ValueError only along this owner.
        """
        _check_side(side)
        ctx, owner = self.ctx, self.ctx.owner(ref)
        left = self._keep(("euler", owner), lambda: _alternating_total(
            ctx, {v.order: d for v, d in _along(ctx, self.sweep, owner, "left").items()}, 0))
        return left if side == "left" else Expression(ctx, _right(ctx, owner, left.terms))

    def blocks(self, ref: Union[int, str], side: str = "left") -> list:
        """The Euler blocks along an owner, kept per side (see euler_blocks)."""
        owner = self.ctx.owner(ref)
        return self._keep(
            ("blocks", owner, side), lambda: _blocks(_along(self.ctx, self.sweep, owner, side))
        )

    def cells(self, w1: Union[int, str], side1: str, w2: Union[int, str], side2: str) -> list:
        """The mixed second-variation cells: trace.second_variation_cells of
        the density.  Each is an Euler block, over sigma, of a tau Euler block
        of a first partial, whose sweep is kept per first strike (w1, side1)."""
        _check_side(side2)  # side1 is checked by the first strike's _along
        ctx, w1, w2 = self.ctx, self.ctx.owner(w1), self.ctx.owner(w2)
        firsts = self._keep(
            ("firsts", w1, side1),
            lambda: [(v1, _sweep(d)) for v1, d in _along(ctx, self.sweep, w1, side1).items()],
        )
        return self._keep(
            ("cells", w1, side1, w2, side2),
            lambda: [
                ((sigma, tau), value)
                for v1, sweep in firsts
                for tau, block in _blocks(_along(ctx, sweep, w2, side2))
                for sigma, value in _blocks({v1: block})
            ],
        )

    def is_zero(self) -> bool:
        """True iff the functional is zero, i.e. the density is exact.

        The one statement of the exactness rule: a zero density, or every
        owner's Euler derivative zero (read up to the first that is not) and
        a zero zero-section value.  It is decided in the free differential
        algebra (see is_exact), so exp(q)*exp(q) - exp(2*q) gives False.
        Cost: it reads the kept left Euler derivatives, so after a bracket
        with a nonzero partner (which reads every owner's) it sweeps nothing;
        a fresh functional sweeps its density unlowered, and is_exact, which
        lowers first, is the cheaper test of a fresh density.
        """
        if self.density.is_zero():
            return True
        if any(not self.euler(owner).is_zero() for owner in range(len(self.ctx.names))):
            return False
        try:
            return eval_zero_section(self.density) == 0
        except ValueError:
            return False

    def __repr__(self) -> str:
        name, n = self.label or "functional", len(self.density.terms)
        return f"<{name}: {n} monomial{'s' if n != 1 else ''}>"
