"""Local integral functionals: densities considered modulo total divergences."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

from .calculus import _left_eulers, is_exact
from .core import Expression, FieldContext, Rat, _along, _right, _sweep


@dataclass(frozen=True, eq=False)
class Functional:
    """A density under an integral sign; equality is modulo total divergences.

    It owns what a sweep of its density's partials yields, each made on first
    use and kept as long as the functional: the sweep, every owner's left
    Euler derivative, and per first strike the sweeps of the first partials.
    """

    density: Expression
    label: str = ""
    # (w1, side1) -> [(v1, sweep of d_side1 density / d v1)], filled by firsts
    _firsts: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def ctx(self) -> FieldContext:
        return self.density.ctx

    @cached_property
    def sweep(self) -> dict:
        """Every left partial of the density, all owners in one pass (core._sweep)."""
        return _sweep(self.density)

    @cached_property
    def _eulers(self) -> list:
        """Every owner's left Euler derivative, in owner order, from the sweep."""
        return list(_left_eulers(self.ctx, self.sweep))

    def euler(self, ref: Union[int, str], side: str = "left") -> Expression:
        """The directed Euler derivative of the functional along an owner.

        It belongs to the functional, not to the density that represents it
        (E o D = 0).  The first call computes every owner's left derivative
        from the functional's sweep and keeps them.  A right derivative is
        read off the kept left one on each call: an even owner's serves both
        sides, and an odd owner's is the left one with a sign per monomial
        (core._right); nothing else is kept for it.  A power past MAX_POWER
        along any owner raises ValueError, as the brackets need them all.
        """
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        owner = self.ctx.owner(ref)
        left = self._eulers[owner]
        if side == "left":
            return left
        return Expression(self.ctx, _right(self.ctx, owner, left.terms))

    def firsts(self, w1: int, side1: str) -> list:
        """[(v1, sweep of d_side1 density / d v1)] over the first partials
        along owner w1, which every second strike on them reads."""
        got = self._firsts.get((w1, side1))
        if got is None:
            got = self._firsts[(w1, side1)] = [
                (v1, _sweep(first)) for v1, first in _along(self.ctx, self.sweep, w1, side1).items()
            ]
        return got

    def is_zero(self) -> bool:
        """True iff the functional is zero, i.e. the density is exact.

        The verdict is decided in the free differential algebra (see
        calculus.is_exact): a density that vanishes only through an identity
        of exp, sin or cos, such as exp(q)*exp(q) - exp(2*q), gives False.
        """
        return is_exact(self.density)

    def __repr__(self) -> str:
        name, n = self.label or "functional", len(self.density.terms)
        return f"<{name}: {n} monomial{'s' if n != 1 else ''}>"


def zero_functional(ctx: FieldContext) -> Functional:
    return Functional(Expression.zero(ctx), "0")


def functional_parity(F: Functional) -> int:
    """Z2 parity of a homogeneous functional (0 even, 1 odd)."""
    p = F.density.parity
    if p is None:
        raise ValueError(
            f"functional {F.label or ''!r} has a parity-mixed density; "
            "split it into homogeneous components first"
        )
    return p


def functional_eq(F: Functional, G: Functional) -> bool:
    """True iff F and G agree as functionals (densities differ by a divergence)."""
    if F.ctx is not G.ctx:
        raise ValueError("functionals belong to different field contexts")
    return is_exact(F.density - G.density)


def scale_add(c1: Rat, F: Functional, c2: Rat, G: Functional) -> Functional:
    """The functional with density c1*F.density + c2*G.density."""
    if F.ctx is not G.ctx:
        raise ValueError("functionals belong to different field contexts")
    return Functional(F.density.scale(c1) + G.density.scale(c2))
