"""Local integral functionals: densities considered modulo total divergences."""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import is_exact
from .core import Expression, FieldContext, Rat


@dataclass(frozen=True, eq=False)
class Functional:
    """A density under an integral sign; equality is modulo total divergences."""

    density: Expression
    label: str = ""

    @property
    def ctx(self) -> FieldContext:
        return self.density.ctx

    def is_zero(self) -> bool:
        """True iff the functional is zero, i.e. the density is exact."""
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
