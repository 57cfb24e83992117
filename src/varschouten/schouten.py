"""The variational Schouten bracket and the shifted-graded Jacobi defect.

The bracket pairs right Euler derivatives of the first argument with left
Euler derivatives of the second over every field/antifield pair, with
coupling +1 on the (field, antifield) face and -1 on the (antifield, field)
face; _faces is the one statement of these couplings.  It reads them from
each functional's store (Functional.euler), so a functional in several
brackets is differentiated once.  A bracket, the Jacobi defect and the
graded-symmetry defect are each one signed sum of face products
(_face_products), built in one term dict by core._products, which reads
overflow once for the whole sum.  Its grading is shifted:
|[[F,G]]| = |F| + |G| + 1 mod 2.
"""

from __future__ import annotations

from .calculus import euler  # noqa: F401  (kept bound here: bench/tracer.py wraps it)
from .core import Expression, _products
from .functional import Functional, _shared_ctx, functional_parity


def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


def _faces(ctx):
    """The bracket's couplings, per conjugate pair i and face f in order.

    Yields (i, f, (owner, side) struck in the first argument, (owner, side)
    struck in the second, coupling sign).
    """
    for i, (field, anti) in enumerate(ctx.pairs):
        yield i, 0, (field, "right"), (anti, "left"), 1
        yield i, 1, (anti, "right"), (field, "left"), -1


def _face_products(*brackets):
    """The triples (sign * coupling, Euler derivative of F, of G) whose
    products sum to sign * [[F, G]] (core._products), one per face of _faces,
    for each (F, G, sign) of brackets.  Both parities of a bracket are
    checked first, and one with a zero argument yields no triple."""
    for F, G, sign in brackets:
        ctx = _shared_ctx(F, G)
        functional_parity(F)
        functional_parity(G)
        if F.density.is_zero() or G.density.is_zero():
            continue
        for _, _, first, second, coupling in _faces(ctx):
            yield sign * coupling, F.euler(*first), G.euler(*second)


def schouten_bracket(F: Functional, G: Functional) -> Functional:
    """The variational Schouten bracket [[F, G]] of homogeneous functionals."""
    return Functional(_products(F.ctx, _face_products((F, G, 1))))


def eq1_sign(pF: int, pG: int) -> int:
    """The prefactor (-1)^((|F|-1)(|G|-1)) of the second right-hand bracket."""
    return _sign((pF + 1) * (pG + 1))


def _jacobi_density(F, G, H, fg, fh, gh) -> Expression:
    """The Jacobi defect density given the inner brackets fg=[[F,G]], fh, gh."""
    sign = eq1_sign(functional_parity(F), functional_parity(G))
    return _products(F.ctx, _face_products((F, gh, 1), (fg, H, -1), (G, fh, -sign)))


def _symmetry_density(F, G, fg) -> Expression:
    """The graded-symmetry defect density given the bracket fg=[[F,G]]."""
    sign = eq1_sign(functional_parity(F), functional_parity(G))
    return _products(F.ctx, _face_products((G, F, sign)), dict(fg.density.terms))


def jacobi_defect(F: Functional, G: Functional, H: Functional) -> Functional:
    """Left side minus right side of the shifted-graded Jacobi identity.

    Assembles [[F,[[G,H]]]] - [[[[F,G]],H]] - (-1)^((|F|-1)(|G|-1)) [[G,[[F,H]]]]
    at density level; callers test the result against zero with .is_zero().
    """
    fg = schouten_bracket(F, G)
    fh = schouten_bracket(F, H)
    gh = schouten_bracket(G, H)
    return Functional(_jacobi_density(F, G, H, fg, fh, gh))


def graded_symmetry_defect(F: Functional, G: Functional) -> Functional:
    """[[F,G]] + (-1)^((|F|-1)(|G|-1)) [[G,F]]; zero for a shifted-graded bracket.

    The assembled density is returned without any claim that it vanishes
    (for even F the (F,F) case reduces to 2[[F,F]], which need not be zero).
    """
    return Functional(_symmetry_density(F, G, schouten_bracket(F, G)))


def reorder_sign_ledger(pF: int, pG: int) -> dict[int, int]:
    """The paper's composite signs {1}..{8} for reordering the second right-hand bracket.

    Each entry is the product of the face sign, the graded transposition sign
    for moving the front factor across the struck part, and the global
    prefactor of that bracket; all exponents are reduced mod 2.  The trace
    applies trace._group_specs' scalars instead, and on the default context
    those differ from this table in 2 of the 8 entries.
    """
    for p in (pF, pG):
        if p not in (0, 1):
            raise ValueError("parities must be 0 or 1")
    return {
        1: _sign(pF - 1),
        2: _sign(pG - 1),
        3: _sign(pF + pG),
        4: -1,
        5: _sign(pG),
        6: _sign(pG),
        7: 1,
        8: 1,
    }
