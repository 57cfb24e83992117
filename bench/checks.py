"""Output checks of the benchmark.

Each check tests a property the method must have (the Jacobi identity and
graded symmetry are theorems in every context; a claimed match or
cancellation must hold as stated) or a value derived by hand (the golden
triple's bookkeeping, the CLI's small results), never a stored copy of the
program's own output.  A failed check raises `CheckFailed`.
"""

from __future__ import annotations

import contextlib
import json

SECTIONS = ("lhs", "rhs1", "rhs2")

# PAPER.md / criterion 3: the golden triple's lhs pieces <1>-<8> all match
# exactly, and the auxiliary pieces <9>-<14> cancel in opposite-sign pairs.
GOLDEN_LHS_LABELS = list(range(1, 9))
GOLDEN_CANCELLATIONS = [(k, k) for k in range(9, 15)]


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@contextlib.contextmanager
def readable(what: str):
    """Output that cannot be read back (bad JSON, a missing key, an
    unparsable density) is a wrong output."""
    try:
        yield
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise CheckFailed(f"{what} cannot be read: {type(exc).__name__}: {exc}") from None


# -- fuzz -------------------------------------------------------------------


def check_fuzz_report(report: dict, count: int) -> None:
    """Every trial verifies: Jacobi and graded symmetry hold in any context."""
    require(report["trials"] == count, f"fuzz ran {report['trials']} of {count} trials")
    require(
        report["verified"] == count and report["failures"] == [],
        f"fuzz verified {report['verified']}/{count}: {report['failures'][:1]}",
    )
    require(0 <= report["degenerate"] <= count, "degenerate count out of range")


def check_negative_control(vs, defect, field: str, antifield: str) -> None:
    """A verified defect plus field*antifield is refuted: E_field of it is the
    antifield, which is not zero."""
    ctx = defect.ctx
    spoiled = defect + vs.jet(ctx, field) * vs.jet(ctx, antifield)
    require(not vs.is_exact(spoiled), "is_exact accepted defect + field*antifield")


# -- trace --------------------------------------------------------------------


def _pieces_by_label(report) -> dict:
    out = {}
    for name in SECTIONS:
        table = {}
        for piece in getattr(report, f"{name}_terms"):
            require(piece.label not in table, f"duplicate label <{piece.label}> in {name}")
            table[piece.label] = piece
        out[name] = table
    return out


def _sum(vs, ctx, densities):
    total = vs.Expression.zero(ctx)
    for d in densities:
        total = total + d
    return total


def check_trace_report(vs, report, golden: bool = False) -> None:
    """Re-check every claim of a trace report against its own pieces."""
    require(report.verdict == "verified", f"trace verdict {report.verdict!r}")
    ctx = report.residue.ctx
    by_label = _pieces_by_label(report)
    group_sums: dict = {}
    for name in SECTIONS:
        for piece in by_label[name].values():
            require(
                piece.status in ("matched", "cancelled"),
                f"{name} piece <{piece.label}> is {piece.status}",
            )
            require(piece.partner is not None, f"{name} piece <{piece.label}> has no partner")
            other_sec, other_label = piece.partner
            if other_sec == "group":
                sign = -1 if piece.status == "matched" and name != "lhs" else 1
                key = (piece.status, other_label)
                group_sums.setdefault(key, []).append((sign, piece.density, piece.level))
                continue
            require(piece.level == "canonical", f"piece <{piece.label}> level {piece.level}")
            other = by_label[other_sec].get(other_label)
            require(other is not None, f"{name} <{piece.label}> partner {piece.partner} missing")
            require(other.partner == (name, piece.label), f"partner of <{piece.label}> disagrees")
            if piece.status == "matched":
                require(piece.density == other.density,
                        f"matched pieces {name}<{piece.label}> and {other_sec}<{other_label}> differ")
            else:
                require((piece.density + other.density).is_zero(),
                        f"cancelled pieces {name}<{piece.label}> and {other_sec}<{other_label}> "
                        "do not sum to zero")
    for (status, label), rows in group_sums.items():
        diff = _sum(vs, ctx, [d if s > 0 else -d for s, d, _ in rows])
        levels = {lvl for _, _, lvl in rows}
        if levels == {"canonical"}:
            require(diff.is_zero(), f"group-level {status} <{label}> is not canonically zero")
        else:
            require(vs.is_exact(diff), f"group-level {status} <{label}> is not a divergence")

    # every piece-level match and cancellation appears in the report's lists
    matches = set(report.matches)
    for piece in by_label["lhs"].values():
        if piece.partner[0] in ("rhs1", "rhs2"):
            require((piece.label, piece.partner[0], "canonical") in matches,
                    f"match of lhs <{piece.label}> missing from the match list")
    pairs = set(report.cancellation_pairs)
    for piece in by_label["rhs1"].values():
        if piece.status == "cancelled" and piece.partner[0] == "rhs2":
            require((piece.label, piece.partner[1]) in pairs,
                    f"cancellation of rhs1 <{piece.label}> missing from the pair list")

    # section totals are the sums of their pieces, and the residue their combination
    for name in SECTIONS:
        total = _sum(vs, ctx, [p.density for p in by_label[name].values()])
        require(total == getattr(report, f"{name}_total"), f"{name} pieces do not sum to the total")
    require(
        report.residue == report.lhs_total - report.rhs1_total - report.rhs2_total,
        "residue is not lhs - rhs1 - rhs2",
    )
    if golden:
        check_golden_bookkeeping(
            [p.label for p in report.lhs_terms],
            [(label, level) for label, _, level in report.matches],
            [tuple(pair) for pair in report.cancellation_pairs],
        )


def check_golden_bookkeeping(lhs_labels, matches, cancellation_pairs) -> None:
    """The golden triple's hand-derived bookkeeping (PAPER.md, criterion 3)."""
    require(lhs_labels == GOLDEN_LHS_LABELS, f"golden lhs labels {lhs_labels}")
    require(sorted(matches) == [(k, "canonical") for k in GOLDEN_LHS_LABELS],
            f"golden matches {sorted(matches)}")
    require(sorted(cancellation_pairs) == GOLDEN_CANCELLATIONS,
            f"golden cancellations {sorted(cancellation_pairs)}")


def check_trace_json(text: str, report) -> None:
    """The JSON rendering carries the same verdict, pieces and pairings."""
    with readable("JSON trace report"):
        data = json.loads(text)
        require(data["verdict"] == report.verdict, "JSON verdict differs from the report")
        for name in SECTIONS:
            labels = [row["label"] for row in data["sections"][name]["terms"]]
            want = [p.label for p in getattr(report, f"{name}_terms")]
            require(labels == want, f"JSON {name} labels differ from the report")
        require([tuple(m) for m in data["matches"]] == list(report.matches),
                "JSON matches differ")
        require([tuple(p) for p in data["cancellation_pairs"]]
                == list(report.cancellation_pairs), "JSON cancellation pairs differ")


def check_trace_json_golden(vs, ctx, text: str) -> None:
    """A `trace --format json` of the golden triple, re-checked from the text:
    matched densities are equal and cancelling densities sum to zero."""
    with readable("JSON trace report"):
        data = json.loads(text)
        require(data["verdict"] == "verified", f"trace verdict {data['verdict']!r}")
        terms = {name: {row["label"]: row for row in data["sections"][name]["terms"]}
                 for name in SECTIONS}
        for label, sec, _ in data["matches"]:
            lhs = vs.parse_density(terms["lhs"][label]["density"], ctx)
            rhs = vs.parse_density(terms[sec][label]["density"], ctx)
            require(lhs == rhs, f"JSON match <{label}> densities differ")
        for a, b in data["cancellation_pairs"]:
            s = vs.parse_density(terms["rhs1"][a]["density"], ctx) + vs.parse_density(
                terms["rhs2"][b]["density"], ctx)
            require(s.is_zero(), f"JSON cancellation ({a},{b}) does not sum to zero")
        check_golden_bookkeeping(
            [row["label"] for row in data["sections"]["lhs"]["terms"]],
            [(m[0], m[2]) for m in data["matches"]],
            [tuple(p) for p in data["cancellation_pairs"]],
        )


# -- CLI ----------------------------------------------------------------------


def has_traceback(stderr: str) -> bool:
    return "Traceback (most recent call last)" in stderr


def check_cli_density(vs, ctx, code: int, stdout: str, want) -> None:
    """Exit 0 and a printed density equal to the expected one."""
    require(code == 0, f"exit code {code}")
    with readable("printed density"):
        got = vs.parse_density(stdout.strip(), ctx)
    require(got == want, f"printed {stdout.strip()!r}")


def check_cli_jacobi(code: int, stdout: str) -> None:
    require(code == 0, f"jacobi exit code {code}")
    lines = stdout.strip().splitlines()
    require(bool(lines) and lines[-1] == "ZERO", "jacobi did not print ZERO")


def check_cli_trace_plain(code: int, stdout: str) -> None:
    require(code == 0, f"trace exit code {code}")
    require("verdict: verified" in stdout.splitlines(), "trace did not report 'verdict: verified'")


def deep_input_passes(code: int, stdout: str, stderr: str) -> bool:
    """The deeply nested input is handled when it normalizes to `q` (exit 0)
    or is refused with a one-line `error:` message (exit 2)."""
    if code == 0:
        return stdout.strip() == "q"
    if code == 2:
        lines = stderr.strip().splitlines()
        return len(lines) == 1 and lines[0].startswith("error:")
    return False
