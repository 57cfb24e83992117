"""Acceptance checklist: every required property, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the checklist lines.
Every check is exact — canonical equality of expressions or functionals —
and the two timed checks assert their wall-clock budgets.
"""

import json
import random
import time
from contextlib import contextmanager

from varschouten import (
    Functional,
    FuzzParams,
    JetVar,
    eq1_sign,
    expand_trace,
    euler,
    functional_eq,
    functional_parity,
    graded_symmetry_defect,
    is_exact,
    jacobi_defect,
    jet_orders,
    parse_density,
    partial,
    reorder_sign_ledger,
    run_fuzz,
    schouten_bracket,
    total_derivative,
    zero_functional,
)
from varschouten.fuzz import random_expression

GEN_PARAMS = FuzzParams(seed=0, count=0, max_jet_order=2, max_degree=3)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


def sign(k):
    return -1 if k % 2 else 1


def nonzero_samples(ctx, rng, count, parity=None):
    out = []
    while len(out) < count:
        p = rng.randrange(2) if parity is None else parity
        e = random_expression(ctx, rng, GEN_PARAMS, p)
        if not e.is_zero():
            out.append(e)
    return out


def test_criterion_1_golden_triple_defect_vanishes(ctx, golden):
    with criterion(1, "golden triple: parities 1/1/1, eq-sign +1, exact zero "
                      "jacobi defect, under 5 s"):
        start = time.perf_counter()
        F, G, H = golden
        assert functional_parity(F) == functional_parity(G) == functional_parity(H) == 1
        assert eq1_sign(1, 1) == 1
        defect = jacobi_defect(F, G, H)
        assert is_exact(defect.density)
        assert functional_eq(defect, zero_functional(ctx))
        assert time.perf_counter() - start < 5.0


def test_criterion_2_golden_inner_bracket_value(ctx, golden):
    with criterion(2, "[[G,H]] equals -D(p[1]e^{q[1]})*D^2(cos q) "
                      "- D(e^{q[1]})*p[2]*sin q exactly"):
        _, G, H = golden
        got = schouten_bracket(G, H).density

        def d(s):
            return total_derivative(parse_density(s, ctx), 0)

        want = -d("p[1] * exp(q[1])") * total_derivative(d("cos(q)"), 0) - d(
            "exp(q[1])"
        ) * parse_density("p[2] * sin(q)", ctx)
        assert (got - want).is_zero()


def test_criterion_3_trace_bookkeeping(golden):
    with criterion(3, "trace: 8 lhs pieces, <1>-<8> matched across sides, "
                      "<9>-<14> cancel in opposite-sign pairs, verdict "
                      "verified, no second variation of F on the lhs"):
        rep = expand_trace(*golden)
        assert [t.label for t in rep.lhs_terms] == [1, 2, 3, 4, 5, 6, 7, 8]
        assert sorted(label for label, _, _ in rep.matches) == list(range(1, 9))
        assert all(level == "canonical" for _, _, level in rep.matches)
        assert rep.cancellation_pairs == [
            (9, 9), (10, 10), (11, 11), (12, 12), (13, 13), (14, 14),
        ]
        rhs1 = {t.label: t for t in rep.rhs1_terms}
        rhs2 = {t.label: t for t in rep.rhs2_terms}
        for a, b in rep.cancellation_pairs:
            assert (rhs1[a].density + rhs2[b].density).is_zero()
        assert rep.verdict == "verified"
        assert rep.lhs_struck_roles == {"G", "H"}


def test_criterion_4_reorder_sign_ledger():
    with criterion(4, "reorder signs: frozen (1,1) table and all 8 entries "
                      "against direct three-factor substitution"):
        assert reorder_sign_ledger(1, 1) == {
            1: 1, 2: 1, 3: 1, 4: -1, 5: -1, 6: -1, 7: 1, 8: 1,
        }
        for pF in (0, 1):
            for pG in (0, 1):
                g = sign((pF - 1) * (pG - 1))
                direct = {
                    1: sign((pF - 1) * pG) * g,
                    2: sign(pF) * sign(pF * pG) * g,
                    3: -sign((pF - 2) * pG) * g,
                    4: -sign(pF - 1) * sign((pF - 1) * pG) * g,
                    5: -sign(pF * (pG - 1)) * g,
                    6: -sign(pF * (pG - 1)) * g,
                    7: sign((pF - 1) * (pG - 1)) * g,
                    8: sign((pF - 1) * (pG - 1)) * g,
                }
                assert reorder_sign_ledger(pF, pG) == direct


def test_criterion_5_fuzzed_triples(ctx):
    with criterion(5, "100 seeded homogeneous triples: exact Jacobi defect "
                      "zero and graded antisymmetry, under 60 s"):
        start = time.perf_counter()
        report = run_fuzz(ctx, FuzzParams(seed=2026, count=100))
        assert report["trials"] == 100
        assert report["verified"] == 100
        assert report["failures"] == []
        assert report["degenerate"] == 6
        assert time.perf_counter() - start < 60.0


def test_criterion_6_calculus_property_suite(ctx):
    with criterion(6, "E after D vanishes on 200 densities; left/right odd "
                      "partials differ by (-1)^(|f|-1); D is a derivation "
                      "and commutes with jet partials"):
        rng = random.Random(616)
        for e in nonzero_samples(ctx, rng, 200):
            div = total_derivative(e, 0)
            owner = rng.choice(["q", "p"])
            side = rng.choice(["left", "right"])
            assert euler(div, owner, side).is_zero()
        p_idx = ctx.owner("p")
        for parity in (0, 1):
            for e in nonzero_samples(ctx, rng, 100, parity):
                rel = sign(parity - 1)
                for var in jet_orders(e, "p"):
                    left = partial(e, JetVar(p_idx, var), "left")
                    right = partial(e, JetVar(p_idx, var), "right")
                    assert left == right.scale(rel)
        pairs = zip(nonzero_samples(ctx, rng, 25), nonzero_samples(ctx, rng, 25))
        for a, b in pairs:
            got = total_derivative(a * b, 0)
            assert got == total_derivative(a, 0) * b + a * total_derivative(b, 0)
        q_idx = ctx.owner("q")
        for e in nonzero_samples(ctx, rng, 25):
            lhs = partial(total_derivative(e, 0), JetVar(q_idx, (1,)), "left")
            rhs = total_derivative(
                partial(e, JetVar(q_idx, (1,)), "left"), 0
            ) + partial(e, JetVar(q_idx, (0,)), "left")
            assert lhs == rhs


def test_criterion_7_representative_independence(ctx):
    with criterion(7, "adding an exact term D(h) to F leaves [[F,G]] "
                      "unchanged as a functional, 50 pairs"):
        rng = random.Random(50)
        done = 0
        while done < 50:
            pF = rng.randrange(2)
            f = random_expression(ctx, rng, GEN_PARAMS, pF)
            g = random_expression(ctx, rng, GEN_PARAMS, rng.randrange(2))
            h = random_expression(ctx, rng, GEN_PARAMS, pF)
            if f.is_zero() or g.is_zero() or h.is_zero():
                continue
            F = Functional(f, "F")
            G = Functional(g, "G")
            shifted = Functional(f + total_derivative(h, 0), "F'")
            assert functional_eq(schouten_bracket(shifted, G), schouten_bracket(F, G))
            done += 1


def test_criterion_8_roundtrip_and_determinism(ctx):
    with criterion(8, "parse-format identity on 500 fuzzed expressions and "
                      "byte-identical fuzz reports for a fixed seed"):
        from varschouten import format_density, parse_density

        rng = random.Random(88)
        for _ in range(500):
            e = random_expression(ctx, rng, GEN_PARAMS, rng.randrange(2))
            assert parse_density(format_density(e), ctx) == e
        params = FuzzParams(seed=77, count=30)
        first = json.dumps(run_fuzz(ctx, params), sort_keys=True,
                           separators=(",", ":"))
        second = json.dumps(run_fuzz(ctx, params), sort_keys=True,
                            separators=(",", ":"))
        assert first == second
