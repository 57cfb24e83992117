"""Local integral functionals: densities considered modulo total divergences."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .calculus import _blocks, _euler, is_exact
from .core import Expression, FieldContext, Rat, _along, _check_side, _right, _sweep


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
        left = self._keep(
            ("euler", owner), lambda: _euler(ctx, _along(ctx, self.sweep, owner, "left"))
        )
        return left if side == "left" else Expression(ctx, _right(ctx, owner, left.terms))

    def blocks(self, ref: Union[int, str], side: str = "left") -> list:
        """The Euler blocks along an owner: calculus.euler_blocks of the density."""
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
