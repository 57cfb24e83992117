from contextlib import contextmanager

import pytest

from varschouten import Functional, core, parse_context, parse_density

DEFAULT_CONTEXT = "indep x\nfield q even antifield p\n"


@pytest.fixture
def ctx():
    return parse_context(DEFAULT_CONTEXT)


@pytest.fixture
def golden(ctx):
    """The worked verification triple used throughout the docs and CLI help."""
    F = Functional(parse_density("p * q * q[2]", ctx), "F")
    G = Functional(parse_density("p[1] * exp(q[1])", ctx), "G")
    H = Functional(parse_density("p[2] * cos(q)", ctx), "H")
    return F, G, H


class _Sweeps(list):
    """The term count of each top-level sweep of core._derive; a sweep of a
    function argument runs inside another and is not counted."""

    def __init__(self) -> None:
        super().__init__()
        self.depth = 0
        self.counting = True

    @contextmanager
    def paused(self):
        self.counting = False
        try:
            yield
        finally:
            self.counting = True


@pytest.fixture
def sweeps(monkeypatch):
    """Records every top-level sweep of partials while the test runs."""
    real, seen = core._derive, _Sweeps()

    def derive(e, op, minuend=None):
        if seen.counting and not seen.depth and op == core._SWEEP:
            seen.append(len(e.terms))
        seen.depth += 1
        try:
            return real(e, op, minuend)
        finally:
            seen.depth -= 1

    monkeypatch.setattr(core, "_derive", derive)
    return seen
