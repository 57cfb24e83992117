"""Local integral functionals: densities considered modulo total divergences."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .calculus import _left_eulers, is_exact
from .core import Expression, FieldContext, Rat, _right


@dataclass(frozen=True, eq=False)
class Functional:
    """A density under an integral sign; equality is modulo total divergences."""

    density: Expression
    label: str = ""
    # side -> every owner's Euler derivative, filled by euler on first use
    _eulers: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def ctx(self) -> FieldContext:
        return self.density.ctx

    def euler(self, ref: Union[int, str], side: str = "left") -> Expression:
        """The directed Euler derivative of the functional along an owner.

        It belongs to the functional, not to the density that represents it
        (E o D = 0).  The first call computes every owner's left derivative
        from one sweep of the density's partials, and the right ones from
        those: an even owner's serves both sides, and an odd owner's right
        derivative is its left one with a sign per monomial (core._right).
        They are kept as long as the functional.  A power past MAX_POWER
        along any owner raises ValueError, as the brackets need them all.
        """
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        eulers = self._eulers
        if side not in eulers:
            if "left" not in eulers:
                eulers["left"] = list(_left_eulers(self.density))
            if side == "right":
                eulers["right"] = [
                    Expression(self.ctx, _right(self.ctx, w, d.terms))
                    for w, d in enumerate(eulers["left"])
                ]
        return eulers[side][self.ctx.owner(ref)]

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
