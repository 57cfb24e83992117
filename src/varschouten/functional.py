"""Local integral functionals: densities considered modulo total divergences.

Functional lives in calculus, which keeps its derivatives; here are the zero
functional, parity, equality modulo divergences and linear combinations."""

from __future__ import annotations

from .calculus import Functional, is_exact
from .core import Expression, FieldContext, Rat


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


def _shared_ctx(*functionals: Functional) -> FieldContext:
    """The field context of the functionals; ValueError when they differ."""
    if any(F.ctx is not functionals[0].ctx for F in functionals):
        raise ValueError("functionals belong to different field contexts")
    return functionals[0].ctx


def functional_eq(F: Functional, G: Functional) -> bool:
    """True iff F and G agree as functionals (densities differ by a divergence)."""
    _shared_ctx(F, G)
    return is_exact(F.density - G.density)


def scale_add(c1: Rat, F: Functional, c2: Rat, G: Functional) -> Functional:
    """The functional with density c1*F.density + c2*G.density."""
    _shared_ctx(F, G)
    return Functional(F.density.scale(c1) + G.density.scale(c2))
