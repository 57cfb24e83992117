"""Seeded randomized stress-testing of the bracket laws.

Each trial derives its own RNG stream from the master seed, draws three
random homogeneous functionals, and checks that the Jacobi defect and the
graded-symmetry defect both integrate to zero.  Trials whose pairwise
brackets all vanish as functionals (each bracket density is a total
divergence) prove nothing and are counted separately as degenerate (they
still pass).  Reports are plain dicts whose compact JSON dump is
byte-identical across runs with the same parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .calculus import Functional, is_exact
from .core import FUNC_DERIVATIVE, Expression, FieldContext, _func, jet
from .schouten import _jacobi_density, _symmetry_density, schouten_bracket
from .textio import MAX_JET_ORDER, format_density

_MIX = 0x9E3779B97F4A7C15
_U64 = 0xFFFFFFFFFFFFFFFF
_FUNC_KINDS = tuple(FUNC_DERIVATIVE)  # exp, sin, cos: the order fixes the draws

#: largest FuzzParams.max_degree.  A trial's work grows fast with the degree:
#: seeds 0-7 took 0.001-0.16 s a trial at degree 8 with 4 monomials, and
#: 0.03-4.7 s with 8 (Python 3.11, 2-core host)
MAX_DEGREE = 8

#: largest FuzzParams.max_monomials: seeds 0-7 took 0.003-0.14 s a trial at 8
#: monomials of degree 3, and 0.03-4.7 s at degree 8; at 16 monomials of
#: degree 8, seed 3 took 32 s and 1 GB (Python 3.11, 2-core host)
MAX_MONOMIALS = 8


@dataclass(frozen=True)
class FuzzParams:
    """Knobs for the random-functional generator and the trial loop."""

    seed: int = 0
    count: int = 100
    max_jet_order: int = 2
    max_degree: int = 3
    max_monomials: int = 4
    allow_funcs: bool = True
    parity: str = "any"  # "even" | "odd" | "any"

    def __post_init__(self) -> None:
        if type(self.allow_funcs) is not bool:
            raise ValueError(f"allow_funcs must be a bool, got {self.allow_funcs!r}")
        for name, least, most in (
            ("seed", None, None), ("count", 0, None), ("max_jet_order", 0, MAX_JET_ORDER),
            ("max_degree", 1, MAX_DEGREE), ("max_monomials", 1, MAX_MONOMIALS),
        ):
            value = getattr(self, name)
            if type(value) is not int:  # so never a bool, nor a float
                raise ValueError(f"{name} must be an int, got {value!r}")
            if least is not None and value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
            if most is not None and value > most:
                raise ValueError(f"{name} must be at most {most}, got {value}")
        if self.parity not in ("even", "odd", "any"):
            raise ValueError(f"unknown parity choice {self.parity!r}")


def trial_seed(seed: int, index: int) -> int:
    """The per-trial RNG seed: decorrelated from neighbours, reproducible alone."""
    return (seed ^ (_MIX * (index + 1))) & _U64


def _random_order(ctx: FieldContext, rng: random.Random, max_total: int) -> tuple:
    order = [0] * ctx.n_indep
    for _ in range(rng.randint(0, max_total)):
        order[rng.randrange(ctx.n_indep)] += 1
    return tuple(order)


def _random_func_factor(ctx, rng, params) -> Expression:
    """One exp/sin/cos factor applied to a single even jet variable."""
    even_owners = [i for i, p in enumerate(ctx.parities) if p == 0]
    kind = rng.choice(_FUNC_KINDS)
    arg = jet(ctx, rng.choice(even_owners), _random_order(ctx, rng, params.max_jet_order))
    return _func(kind, arg)


def _random_monomial(ctx, rng, params, parity: int) -> Expression | None:
    odd_owners = [i for i, p in enumerate(ctx.parities) if p == 1]
    even_owners = [i for i, p in enumerate(ctx.parities) if p == 0]
    degree = rng.randint(max(1, parity), params.max_degree)
    for _ in range(8):
        k_odd = rng.choice(range(parity, degree + 1, 2))
        e = Expression.const(
            ctx, Fraction(rng.choice((1, -1)) * rng.randint(1, 4), rng.randint(1, 3))
        )
        for _ in range(k_odd):
            e = e * jet(ctx, rng.choice(odd_owners), _random_order(ctx, rng, params.max_jet_order))
        if e.is_zero():
            continue  # an odd jet repeated; redraw the monomial
        for _ in range(degree - k_odd):
            e = e * jet(ctx, rng.choice(even_owners), _random_order(ctx, rng, params.max_jet_order))
        if params.allow_funcs and rng.random() < 0.3:
            e = e * _random_func_factor(ctx, rng, params)
        return e
    return None


def random_expression(ctx, rng, params, parity: int) -> Expression:
    """A random density, homogeneous of the given parity (possibly zero)."""
    total = Expression.zero(ctx)
    for _ in range(rng.randint(1, params.max_monomials)):
        m = _random_monomial(ctx, rng, params, parity)
        if m is not None:
            total = total + m
    return total


def random_functional(ctx, rng, params, label: str = "") -> Functional:
    if params.parity == "even":
        parity = 0
    elif params.parity == "odd":
        parity = 1
    else:
        parity = rng.randint(0, 1)
    return Functional(random_expression(ctx, rng, params, parity), label)


def run_fuzz(ctx: FieldContext, params: FuzzParams) -> dict:
    """Run the trial loop; returns the report dict (JSON-stable)."""
    verified = 0
    degenerate = 0
    failures = []
    for index in range(params.count):
        seed = trial_seed(params.seed, index)
        rng = random.Random(seed)
        F = random_functional(ctx, rng, params, "F")
        G = random_functional(ctx, rng, params, "G")
        H = random_functional(ctx, rng, params, "H")
        # positive scaling changes no parity, no zero bracket and no verdict,
        # so the trial runs on the primitive parts (integer coefficients)
        (cF, dF), (cG, dG), (cH, dH) = (X.density.content_and_primitive() for X in (F, G, H))
        pF, pG, pH = map(Functional, (dF, dG, dH))
        fg = schouten_bracket(pF, pG)
        fh = schouten_bracket(pF, pH)
        gh = schouten_bracket(pG, pH)
        jacobi = _jacobi_density(pF, pG, pH, fg, fh, gh)
        symmetry = _symmetry_density(pF, pG, fg)
        jacobi_ok = is_exact(jacobi)
        if jacobi_ok and is_exact(symmetry):
            verified += 1
            if fg.is_zero() and fh.is_zero() and gh.is_zero():
                degenerate += 1
        else:
            # both defects are multilinear, so the contents turn each primitive
            # defect into the defect of the densities as drawn
            residue = symmetry.scale(cF * cG) if jacobi_ok else jacobi.scale(cF * cG * cH)
            failures.append(
                {
                    "index": index,
                    "seed": seed,
                    "densities": {
                        "F": format_density(F.density),
                        "G": format_density(G.density),
                        "H": format_density(H.density),
                    },
                    "residue": format_density(residue),
                }
            )
    return {
        "trials": params.count,
        "verified": verified,
        "degenerate": degenerate,
        "failures": failures,
    }
