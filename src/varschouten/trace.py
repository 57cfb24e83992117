"""Labeled term-by-term expansion of the shifted-graded Jacobi identity.

Each side of the identity is written as a sum of *pieces*: the product of one
first-variation block per unstruck factor and one (sigma, tau) cell of the
mixed second variation of the struck factor, with all coupling constants,
graded transport signs, and the reordering prefactor of the second right-hand
bracket folded into the piece.  Left-side pieces are labeled <1>, <2>, ... in
display order; a right-side piece that equals a left piece inherits its
label, while second variations of the first functional (which never appear on
the left) receive fresh labels and must cancel in opposite-sign pairs between
the two right-hand brackets.  The report records every match, every
cancellation pair, the level at which each closed (canonical identity of
densities, or equality modulo divergences), and a final verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Optional, Union

from .calculus import _partials, euler_blocks, is_exact, iterated_derivative
from .core import Expression, _add_term
from .functional import Functional, functional_parity
from .schouten import _sign, eq1_sign, jacobi_defect, reorder_sign_ledger

ROLES = ("F", "G", "H")


def second_variation_cells(
    e: Expression,
    w1: Union[int, str],
    side1: str,
    w2: Union[int, str],
    side2: str,
) -> list[tuple[tuple, Expression]]:
    """Block form of a mixed second variation of a density.

    Cell (sigma, tau) holds (-1)^(|sigma|+|tau|) D^(sigma+tau) applied to the
    kernel d_side2/d(w2_tau) of d_side1/d(w1_sigma) of e, the w1 strike acting
    first.  The derivative chains stay on the struck kernel; cofactors of the
    enclosing expansion are never differentiated by them.  Returns nonzero
    cells with (sigma, tau) ascending in graded-lexicographic order.
    """
    ctx = e.ctx
    o2 = ctx.owner(w2)
    cells = []
    for v1, first in _partials(e, ctx.owner(w1), side1).items():
        for v2, kernel in _partials(first, o2, side2).items():
            value = iterated_derivative(kernel, tuple(map(add, v1.order, v2.order)))
            if (v1.degree + v2.degree) % 2:
                value = -value
            if not value.is_zero():
                cells.append(((v1.order, v2.order), value))
    return cells


@dataclass
class TraceTerm:
    """One labeled summand of a trace section, at the finest display granularity."""

    section: str  # "lhs" | "rhs1" | "rhs2"
    position: int  # 1-based position in the section's display order
    group: int  # enumeration index of the owning proof-level group
    coords: tuple  # (pair_i, outer_face, pair_j, inner_face, target)
    struck: str  # role name of the functional whose second variation appears
    role: str  # "match" | "cancel"
    sign: int  # scalar prefactor (couplings x transport x global), +-1
    cell: tuple  # (sigma, tau) of the struck factor's cell
    blocks: dict  # role -> first-variation block multi-index (None for struck)
    density: Expression  # the full signed summand
    label: Optional[int] = None
    status: str = "pending"  # "matched" | "cancelled" | "unresolved" | "pending"
    level: Optional[str] = None  # "canonical" | "divergence"
    partner: Optional[tuple] = None  # (section, label) or ("group", label)
    composite_sign: Optional[int] = None  # reorder-ledger sign (rhs2 only)


@dataclass
class TraceGroup:
    """A proof-level group: all pieces sharing (faces, target) coordinates."""

    section: str
    index: int  # 1-based enumeration position
    coords: tuple
    struck: str
    role: str
    sign: int
    density: Expression
    pieces: list
    label: Optional[int] = None
    raw_index: Optional[int] = None  # {j} pattern index, rhs2 only
    composite_sign: Optional[int] = None  # ledger sign for that {j}, rhs2 only


@dataclass
class TraceReport:
    """The complete bookkeeping of one Jacobi-identity expansion."""

    labels: tuple
    parities: dict
    eq_sign: int
    lhs_terms: list
    rhs1_terms: list
    rhs2_terms: list
    lhs_groups: list
    rhs1_groups: list
    rhs2_groups: list
    matches: list  # (label, rhs section, level), sorted by label
    cancellation_pairs: list  # (label, label), sorted
    ledger: dict
    rhs2_relabel: dict
    verdict: str
    residue: Expression
    lhs_total: Expression
    rhs1_total: Expression
    rhs2_total: Expression
    bracket_check: dict  # section -> "canonical" | "divergence" | "mismatch"

    @property
    def lhs_struck_roles(self) -> set:
        return {t.struck for t in self.lhs_terms}


@dataclass(frozen=True)
class _Section:
    name: str
    P: str  # role multiplied outside the struck composite bracket
    X: str  # first argument of the inner bracket
    Y: str  # second argument of the inner bracket
    composite_second: bool  # inner bracket sits as second argument (struck left)
    global_sign: int


def expand_trace(F: Functional, G: Functional, H: Functional) -> TraceReport:
    """Expand both sides of the Jacobi identity into labeled pieces and verify.

    Matching is attempted piece-by-piece as canonical equality first; whatever
    remains is compared group-by-group, canonically and then modulo
    divergences.  The verdict is "verified" when every piece is accounted
    for, otherwise "unresolved" with the surviving residue reported.
    """
    if not (F.ctx is G.ctx is H.ctx):
        raise ValueError("functionals belong to different field contexts")
    ctx = F.ctx
    roles = {"F": F, "G": G, "H": H}
    parities = {r: functional_parity(roles[r]) for r in ROLES}
    eq = eq1_sign(parities["F"], parities["G"])
    ledger = reorder_sign_ledger(parities["F"], parities["G"])

    blocks_cache: dict = {}

    def first_variation_blocks(role, owner, side):
        key = (role, owner, side)
        if key not in blocks_cache:
            blocks_cache[key] = euler_blocks(roles[role].density, owner, side)
        return blocks_cache[key]

    sections = (
        _Section("lhs", "F", "G", "H", True, 1),
        _Section("rhs1", "H", "F", "G", False, 1),
        _Section("rhs2", "G", "F", "H", True, eq),
    )

    groups: dict[str, list[TraceGroup]] = {}
    pieces: dict[str, list[TraceTerm]] = {}
    group_by_coords: dict[tuple, TraceGroup] = {}
    piece_by_key: dict[tuple, TraceTerm] = {}

    for sect in sections:
        sec_groups: list[TraceGroup] = []
        sec_pieces: list[TraceTerm] = []
        idx = 0
        for i, (fld_i, anti_i) in enumerate(ctx.pairs):
            for f_o in (0, 1):
                if sect.composite_second:
                    p_owner, w2 = (fld_i, anti_i) if f_o == 0 else (anti_i, fld_i)
                    p_side, s2 = "right", "left"
                else:
                    w2, p_owner = (fld_i, anti_i) if f_o == 0 else (anti_i, fld_i)
                    p_side, s2 = "left", "right"
                k_o = 1 if f_o == 0 else -1
                for j, (fld_j, anti_j) in enumerate(ctx.pairs):
                    for f_i in (0, 1):
                        if f_i == 0:
                            w1x, s1x, w1y, s1y = fld_j, "right", anti_j, "left"
                        else:
                            w1x, s1x, w1y, s1y = anti_j, "right", fld_j, "left"
                        k_i = 1 if f_i == 0 else -1
                        for target in (0, 1):
                            idx += 1
                            if target == 0:
                                struck, w1, s1 = sect.X, w1x, s1x
                                cof_role, cof_owner, cof_side = sect.Y, w1y, s1y
                            else:
                                struck, w1, s1 = sect.Y, w1y, s1y
                                cof_role, cof_owner, cof_side = sect.X, w1x, s1x
                            if sect.composite_second:
                                transport = (
                                    1
                                    if target == 0
                                    else _sign(
                                        ctx.parities[w2]
                                        * (parities[sect.X] + ctx.parities[w1x])
                                    )
                                )
                            else:
                                transport = (
                                    1
                                    if target == 1
                                    else _sign(
                                        ctx.parities[w2]
                                        * (parities[sect.Y] + ctx.parities[w1y])
                                    )
                                )
                            scalar = k_o * k_i * transport * sect.global_sign
                            coords = (i, f_o, j, f_i, target)
                            role = (
                                "cancel"
                                if sect.name != "lhs" and struck == "F"
                                else "match"
                            )
                            group_pieces: list[TraceTerm] = []
                            cells = second_variation_cells(
                                roles[struck].density, w1, s1, w2, s2
                            )
                            for sig_p, val_p in first_variation_blocks(
                                sect.P, p_owner, p_side
                            ):
                                for sig_c, val_c in first_variation_blocks(
                                    cof_role, cof_owner, cof_side
                                ):
                                    for cell, val_cell in cells:
                                        if target == 0:
                                            inner1, inner2 = val_cell, val_c
                                        else:
                                            inner1, inner2 = val_c, val_cell
                                        if sect.composite_second:
                                            dens = val_p * inner1 * inner2
                                        else:
                                            dens = inner1 * inner2 * val_p
                                        dens = dens.scale(scalar)
                                        if dens.is_zero():
                                            continue
                                        piece = TraceTerm(
                                            section=sect.name,
                                            position=len(sec_pieces) + 1,
                                            group=idx,
                                            coords=coords,
                                            struck=struck,
                                            role=role,
                                            sign=scalar,
                                            cell=cell,
                                            blocks={
                                                sect.P: sig_p,
                                                cof_role: sig_c,
                                                struck: None,
                                            },
                                            density=dens,
                                        )
                                        sec_pieces.append(piece)
                                        group_pieces.append(piece)
                                        piece_by_key[_piece_key(piece)] = piece
                            group = TraceGroup(
                                section=sect.name,
                                index=idx,
                                coords=coords,
                                struck=struck,
                                role=role,
                                sign=scalar,
                                density=_total(group_pieces, ctx),
                                pieces=group_pieces,
                            )
                            sec_groups.append(group)
                            group_by_coords[(sect.name,) + coords] = group
        groups[sect.name] = sec_groups
        pieces[sect.name] = sec_pieces

    _assign_group_labels(groups, group_by_coords, ledger, ctx)

    # ---- piece labels, matching, cancellation --------------------------------

    counter = 1
    for piece in pieces["lhs"]:
        piece.label = counter
        counter += 1

    matches: list[tuple] = []
    cancellation_pairs: list[tuple] = []

    for piece in pieces["rhs1"]:
        if piece.role == "cancel":
            piece.label = counter
            counter += 1
        else:
            partner = _find_partner(piece, piece_by_key)
            if partner is not None:
                _bind_match(partner, piece, matches)

    for piece in pieces["rhs2"]:
        partner = _find_partner(piece, piece_by_key)
        if partner is None:
            continue
        if piece.role == "match":
            _bind_match(partner, piece, matches)
        else:
            piece.label = partner.label
            piece.status = partner.status = "cancelled"
            piece.level = partner.level = "canonical"
            piece.partner = ("rhs1", partner.label)
            partner.partner = ("rhs2", piece.label)
            cancellation_pairs.append((partner.label, piece.label))

    # fresh labels for anything that could not be paired piece-by-piece
    for name in ("rhs1", "rhs2"):
        for piece in pieces[name]:
            if piece.label is None:
                piece.label = counter
                counter += 1

    _close_groups_modulo_divergence(groups, group_by_coords, matches, cancellation_pairs)

    for sec in pieces.values():
        for piece in sec:
            if piece.status == "pending":
                piece.status = "unresolved"

    for group in groups["rhs2"]:
        for piece in group.pieces:
            piece.composite_sign = group.composite_sign

    unresolved = any(
        piece.status == "unresolved" for sec in pieces.values() for piece in sec
    )
    totals = {
        name: _total(pieces[name], ctx) for name in ("lhs", "rhs1", "rhs2")
    }
    residue = totals["lhs"] - totals["rhs1"] - totals["rhs2"]

    report = TraceReport(
        labels=(F.label or "F", G.label or "G", H.label or "H"),
        parities=parities,
        eq_sign=eq,
        lhs_terms=pieces["lhs"],
        rhs1_terms=pieces["rhs1"],
        rhs2_terms=pieces["rhs2"],
        lhs_groups=groups["lhs"],
        rhs1_groups=groups["rhs1"],
        rhs2_groups=groups["rhs2"],
        matches=sorted(matches),
        cancellation_pairs=sorted(cancellation_pairs),
        ledger=ledger,
        rhs2_relabel=_relabel_map(groups["rhs2"], ctx),
        verdict="unresolved" if unresolved else "verified",
        residue=residue,
        lhs_total=totals["lhs"],
        rhs1_total=totals["rhs1"],
        rhs2_total=totals["rhs2"],
        bracket_check=_bracket_check(F, G, H, residue),
    )
    return report


def _piece_key(piece: TraceTerm) -> tuple:
    blocks = tuple(piece.blocks.get(r) for r in ROLES)
    return (piece.section,) + piece.coords + (blocks, piece.cell)


def _partner_coords(section: str, struck: str, coords: tuple) -> tuple:
    """Section and coordinates of a group's partner under the role swap.

    Swapping the two strikes on the struck factor exchanges the outer and
    inner faces and conjugate-pair indices.  A left-side group pairs with the
    right-side group striking the same functional; a right-side match pairs
    with the left-side group striking it; the two right-hand brackets' second
    variations of F pair with each other, one face flipped.
    """
    i, f_o, j, f_i, target = coords
    if section == "lhs":
        return ("rhs1" if target == 0 else "rhs2", j, f_i, i, f_o, 1)
    if struck != "F":
        return ("lhs", j, f_i, i, f_o, 0 if struck == "G" else 1)
    if section == "rhs1":
        return ("rhs2", j, 1 - f_i, i, f_o, 0)
    return ("rhs1", j, f_i, i, 1 - f_o, 0)


def _find_partner(piece, piece_by_key):
    """The pending piece predicted to match (or cancel) this right-side piece.

    The partner sits at the swapped coordinates with the unstruck blocks
    carried over and the cell transposed.  Pieces the prediction misses stay
    pending and are closed per group by _close_groups_modulo_divergence.
    """
    sigma, tau = piece.cell
    blocks = tuple(piece.blocks.get(r) for r in ROLES)
    key = _partner_coords(piece.section, piece.struck, piece.coords) + (blocks, (tau, sigma))
    cand = piece_by_key.get(key)
    if cand is None or cand.status != "pending":
        return None
    if piece.role == "match":
        return cand if cand.density == piece.density else None
    return cand if (cand.density + piece.density).is_zero() else None


def _bind_match(lhs_piece, rhs_piece, matches):
    rhs_piece.label = lhs_piece.label
    lhs_piece.status = rhs_piece.status = "matched"
    lhs_piece.level = rhs_piece.level = "canonical"
    lhs_piece.partner = (rhs_piece.section, rhs_piece.label)
    rhs_piece.partner = ("lhs", lhs_piece.label)
    matches.append((lhs_piece.label, rhs_piece.section, "canonical"))


def _assign_group_labels(groups, group_by_coords, ledger, ctx):
    for g in groups["lhs"]:
        g.label = g.index
    cancel_label = len(groups["lhs"]) + 1
    for g in groups["rhs1"]:
        if g.role == "match":
            g.label = _partner_group(g, group_by_coords).label
        else:
            g.label = cancel_label
            cancel_label += 1
    for g in groups["rhs2"]:
        _, f_o, _, f_i, target = g.coords
        g.raw_index = 4 * f_o + 2 * f_i + target + 1
        g.composite_sign = ledger[g.raw_index]
        g.label = _partner_group(g, group_by_coords).label


def _partner_group(group, group_by_coords):
    return group_by_coords[_partner_coords(group.section, group.struck, group.coords)]


def _close_groups_modulo_divergence(groups, group_by_coords, matches, cancellation_pairs):
    """Second stage: compare what piece-level pairing left over, per group."""
    for g in groups["lhs"]:
        _settle(g, _partner_group(g, group_by_coords), matches, None)
    for g in groups["rhs1"]:
        if g.role == "cancel":
            _settle(g, _partner_group(g, group_by_coords), None, cancellation_pairs)


def _settle(group, partner, matches, cancellation_pairs):
    mine = [p for p in group.pieces if p.status == "pending"]
    theirs = [p for p in partner.pieces if p.status == "pending"]
    if not mine and not theirs:
        return
    ctx = group.density.ctx
    mine_sum = _total(mine, ctx)
    theirs_sum = _total(theirs, ctx)
    if cancellation_pairs is None:
        diff = mine_sum - theirs_sum
        outcome = "matched"
    else:
        diff = mine_sum + theirs_sum
        outcome = "cancelled"
    if diff.is_zero():
        level = "canonical"
    elif is_exact(diff):
        level = "divergence"
    else:
        return
    for piece in mine:
        piece.status = outcome
        piece.level = level
        piece.partner = ("group", partner.label)
    for piece in theirs:
        piece.status = outcome
        piece.level = level
        piece.partner = ("group", group.label)
    if cancellation_pairs is None:
        if mine or theirs:
            matches.append((group.label, partner.section, level))
    else:
        cancellation_pairs.append((group.label, partner.label))


def _total(items, ctx) -> Expression:
    out: dict = {}
    for piece in items:
        for key, c in piece.density.terms.items():
            _add_term(out, key, c)
    return Expression(ctx, out)


def _relabel_map(rhs2_groups, ctx) -> dict:
    if len(ctx.pairs) != 1:
        return {}
    return {g.raw_index: g.label for g in rhs2_groups}


def _level(e: Expression) -> str:
    if e.is_zero():
        return "canonical"
    if is_exact(e):
        return "divergence"
    return "mismatch"


def _bracket_check(F, G, H, residue) -> dict:
    """Consistency of the trace with the plain iterated brackets.

    Block-form expansion redistributes terms across the three sections, so a
    single section's total need not agree with its plain composed bracket even
    modulo divergences; the meaningful statements are joint.  Reported levels:
    "residue" for the trace combination lhs - rhs1 - rhs2, "plain_defect" for
    the same combination of plain iterated brackets, and "joint" for the
    difference of the two combinations.  When either combination is zero the
    difference is the other one up to sign, whose level is already known.
    """
    plain_defect = jacobi_defect(F, G, H).density
    levels = {"residue": _level(residue), "plain_defect": _level(plain_defect)}
    if residue.is_zero():
        levels["joint"] = levels["plain_defect"]
    elif plain_defect.is_zero():
        levels["joint"] = levels["residue"]
    else:
        levels["joint"] = _level(residue - plain_defect)
    return levels
