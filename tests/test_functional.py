"""Local functionals: parity, divergence-aware equality, linear combinations."""

from fractions import Fraction

import pytest

from varschouten import (
    Functional,
    functional_eq,
    functional_parity,
    jet,
    parse_density,
    scale_add,
    total_derivative,
    zero_functional,
)


def test_parity_of_homogeneous_densities(ctx):
    even = Functional(parse_density("p * p[1]", ctx))
    odd = Functional(parse_density("p * q * q[2]", ctx))
    assert functional_parity(even) == 0
    assert functional_parity(odd) == 1


def test_zero_functional(ctx):
    z = zero_functional(ctx)
    assert z.density.is_zero()
    assert functional_parity(z) == 0


def test_mixed_density_rejected(ctx):
    mixed = Functional(jet(ctx, "q") + jet(ctx, "p"), "M")
    with pytest.raises(ValueError, match="parity-mixed"):
        functional_parity(mixed)


def test_equality_ignores_divergences(ctx):
    a = Functional(parse_density("p * q[2]", ctx))
    b = Functional(parse_density("p[2] * q", ctx))
    assert functional_eq(a, b)
    assert not functional_eq(a, Functional(parse_density("q * q[2]", ctx)))


def test_adding_a_divergence_changes_nothing(ctx):
    base = parse_density("p * q * q[1]", ctx)
    shifted = base + total_derivative(parse_density("p * q[1]^2", ctx))
    assert functional_eq(Functional(base), Functional(shifted))


def test_scale_add(ctx):
    F = Functional(parse_density("q * q[2]", ctx), "F")
    G = Functional(parse_density("q[1]^2", ctx), "G")
    combo = scale_add(Fraction(1, 2), F, Fraction(-3), G)
    want = F.density.scale(Fraction(1, 2)) - G.density.scale(3)
    assert combo.density == want
    assert combo.ctx is ctx


def test_label_and_context(ctx):
    F = Functional(parse_density("q", ctx), "name")
    assert F.label == "name"
    assert Functional(parse_density("q", ctx)).label == ""
    assert F.ctx is ctx


def test_repr_counts_monomials(ctx):
    assert repr(Functional(parse_density("q", ctx), "F")) == "<F: 1 monomial>"
    assert repr(Functional(parse_density("q + p", ctx))) == "<functional: 2 monomials>"
    assert repr(zero_functional(ctx)) == "<0: 0 monomials>"


def test_a_second_read_of_the_store_sweeps_nothing(sweeps, ctx):
    # the first read of blocks sweeps the density, the first read of a cell
    # strike sweeps each first partial along it, and a second read of either,
    # by name or by index, is read off the store
    F = Functional(parse_density("p * q * q[2] + p[1] * exp(q[1])", ctx))
    blocks = F.blocks("q", "right")
    assert len(sweeps) == 1
    cells = F.cells("q", "left", "p", "right")
    assert len(sweeps) == 1 + 3  # q, q[1], q[2]
    assert F.blocks(0, "right") is blocks
    assert F.cells(0, "left", 1, "right") is cells
    F.cells("q", "left", "q", "left")  # the same first strike
    assert len(sweeps) == 1 + 3
