"""Labeled term-by-term expansion of the shifted-graded Jacobi identity.

Each side of the identity is written as a sum of *pieces*: the product of one
first-variation block per unstruck factor and one (sigma, tau) cell of the
mixed second variation of the struck factor, with all coupling constants,
graded transport signs, and the reordering prefactor of the second right-hand
bracket folded into the piece.  Left-side pieces are labeled <1>, <2>, ... in
display order; a right-side piece that equals a left piece inherits its
label, while second variations of the first functional (which never appear on
the left) receive fresh labels and must cancel in opposite-sign pairs between
the two right-hand brackets.  Every pairing is a canonical identity of
densities between the pieces the role swap predicts; no piece is closed
modulo divergences.  The report records every match, every cancellation
pair, and a final verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Optional, Union

from .calculus import is_exact
from .core import Expression, _accumulate
from .functional import Functional, functional_parity
from .schouten import _faces, _sign, eq1_sign, jacobi_defect

ROLES = ("F", "G", "H")


def second_variation_cells(
    e: Expression, w1: Union[int, str], side1: str, w2: Union[int, str], side2: str
) -> list[tuple[tuple, Expression]]:
    """Block form of a mixed second variation of a density.

    Cell (sigma, tau) holds (-1)^(|sigma|+|tau|) D^(sigma+tau) applied to the
    kernel d_side2/d(w2_tau) of d_side1/d(w1_sigma) of e, the w1 strike acting
    first: D^sigma of the tau Euler block of each first partial, with the sign
    of sigma.  The derivative chains stay on the struck kernel; cofactors of
    the enclosing expansion are never differentiated by them.  Returns nonzero
    cells with (sigma, tau) ascending in graded-lexicographic order.
    """
    return Functional(e).cells(w1, side1, w2, side2)


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
    level: Optional[str] = None  # "canonical" once paired
    partner: Optional[tuple] = None  # (section, label) of the paired piece


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
    # (rhs1 label, rhs2 label), sorted; the two are equal, as a cancel
    # piece takes its partner's label
    cancellation_pairs: list
    verdict: str
    residue: Expression
    lhs_total: Expression
    rhs1_total: Expression
    rhs2_total: Expression
    bracket_check: dict  # residue/plain_defect/joint -> "canonical" | "divergence" | "mismatch"

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


SECTIONS = (
    _Section("lhs", "F", "G", "H", True),
    _Section("rhs1", "H", "F", "G", False),
    _Section("rhs2", "G", "F", "H", True),
)


@dataclass(frozen=True)
class _GroupSpec:
    """Where one proof-level group's pieces come from, and their common scalar."""

    coords: tuple  # (pair_i, outer_face, pair_j, inner_face, target)
    struck: tuple  # (role, w1, side1, w2, side2): the second variation's strikes
    outer: tuple  # (role, owner, side) of the factor outside the inner bracket
    cofactor: tuple  # (role, owner, side) of the unstruck factor inside it
    scalar: int  # couplings x transport x global sign, +-1


def _group_specs(sect: _Section, ctx, parities: dict):
    """The section's group specs, in enumeration order.

    The outer bracket couples the outer factor to the inner bracket through
    conjugate pair i and face f_o, and the inner bracket X to Y through pair j
    and face f_i, each as schouten._faces states it.  The target is the inner
    factor the outer coupling's w2 strike lands on; when that strike passes
    the cofactor it picks up the graded transport sign.
    """
    eq = eq1_sign(parities["F"], parities["G"]) if sect.name == "rhs2" else 1
    for i, f_o, first, second, sign_o in _faces(ctx):
        # [[P, inner]] strikes P as the first argument, [[inner, P]] as the second
        outer = (sect.P, *(first if sect.composite_second else second))
        w2, s2 = second if sect.composite_second else first
        for j, f_i, x, y, sign_i in _faces(ctx):
            inner = ((sect.X, *x), (sect.Y, *y))
            for target in (0, 1):
                (role, w1, s1), cof = inner[target], inner[1 - target]
                scalar = eq * sign_o * sign_i
                if (target == 1) == sect.composite_second:
                    scalar *= _sign(ctx.parities[w2] * (parities[cof[0]] + ctx.parities[cof[1]]))
                yield _GroupSpec(
                    (i, f_o, j, f_i, target), (role, w1, s1, w2, s2), outer, cof, scalar
                )


def expand_trace(F: Functional, G: Functional, H: Functional) -> TraceReport:
    """Expand both sides of the Jacobi identity into labeled pieces and verify.

    Every right-side piece is paired canonically with the piece its role swap
    predicts: a left piece it equals, or a right piece it cancels.  Pieces and
    groups pair and take their labels as they are built: the sections are
    built in the order lhs, rhs1, rhs2, and a right-side piece's partner lies
    in an earlier section, so it already carries its final label.  The
    verdict is "verified" when every piece pairs, otherwise "unresolved" with
    the surviving residue reported.
    """
    if not (F.ctx is G.ctx is H.ctx):
        raise ValueError("functionals belong to different field contexts")
    ctx = F.ctx
    parities = {r: functional_parity(X) for r, X in zip(ROLES, (F, G, H))}
    # Every piece is trilinear in (F, G, H), one factor from each role, so the
    # expansion runs on the primitive parts (int coefficients): a piece's
    # signed primitive density is its group's scalar times that product, and
    # its reported density is that times the three contents.  The content is
    # positive, so pieces and groups pair on their signed primitive densities,
    # and a paired one shares its partner's reported density or its negation;
    # only the others are scaled.
    split = [X.density.content_and_primitive() for X in (F, G, H)]
    prims = {r: Functional(p, X.label) for r, (_, p), X in zip(ROLES, split, (F, G, H))}
    content = split[0][0] * split[1][0] * split[2][0]

    groups: dict[str, list[TraceGroup]] = {}
    pieces: dict[str, list[TraceTerm]] = {}
    # every group by (section, coords) and every piece by (section, coords,
    # blocks, cell), each with its signed primitive density
    partners: dict[tuple, tuple] = {}
    group_labels, piece_labels = count(1), count(1)
    primitive_totals: dict[str, Expression] = {}

    for sect in SECTIONS:
        groups[sect.name] = sec_groups = []
        pieces[sect.name] = sec_pieces = []
        sec_total: dict = {}
        for index, spec in enumerate(_group_specs(sect, ctx, parities), 1):
            struck, cof_role = spec.struck[0], spec.cofactor[0]
            target = spec.coords[4]
            role = "cancel" if sect.name != "lhs" and struck == "F" else "match"
            where = _partner_coords(sect.name, struck, spec.coords)
            # a partner in a section already built carries its final label;
            # groups and pieces whose partners come later take fresh labels
            fresh = where[0] not in groups
            group_pieces = []
            group_total: dict = {}
            # A piece is the product of three factors in a fixed order, the
            # outer block P and the inner bracket's x and y: P * x * y when the
            # inner bracket is the second argument, x * y * P when it is the
            # first.  One adjacent pair is multiplied first and memoized per
            # group.  (ab)c multiplies about A*B term pairs before the last
            # product and a(bc) B*C, so the pair away from the longer end
            # factor goes first.  The cells are built only for a group that
            # has pieces.
            outer, cofactor = (prims[r].blocks(w, s) for r, w, s in (spec.outer, spec.cofactor))
            factors = outer, cofactor, outer and cofactor and prims[struck].cells(*spec.struck[1:])
            xy = (2, 1) if target == 0 else (1, 2)  # factors[2] holds the cells
            order = (0, *xy) if sect.composite_second else (*xy, 0)
            ends = [sum(len(v.terms) for _, v in factors[f]) for f in (order[0], order[2])]
            left = ends[0] <= ends[1]
            heads: dict = {}
            for ip, (sig_p, val_p) in enumerate(factors[0]):
                for ic, (sig_c, val_c) in enumerate(factors[1]):
                    for ix, (cell, val_cell) in enumerate(factors[2]):
                        at, val = (ip, ic, ix), (val_p, val_c, val_cell)
                        (i, a), (j, b), (k, c) = ((at[f], val[f]) for f in order)
                        pair = (i, j) if left else (j, k)
                        head = heads.get(pair)
                        if head is None:
                            head = heads[pair] = a * b if left else b * c
                        raw = head * c if left else a * head
                        if raw.is_zero():
                            continue
                        signed = raw if spec.scalar > 0 else -raw
                        _accumulate(group_total, signed, 1)
                        by_role = {sect.P: sig_p, cof_role: sig_c, struck: None}
                        unstruck = tuple(by_role[r] for r in ROLES)
                        # a partner the prediction misses, or one that differs,
                        # leaves the piece pending, to end unresolved
                        key = where + (unstruck, cell[::-1])
                        density = _paired(partners, key, role, signed)
                        piece = TraceTerm(
                            section=sect.name,
                            position=len(sec_pieces) + 1,
                            group=index,
                            coords=spec.coords,
                            struck=struck,
                            role=role,
                            sign=spec.scalar,
                            cell=cell,
                            blocks=by_role,
                            density=signed.scale(content) if density is None else density,
                        )
                        sec_pieces.append(piece)
                        group_pieces.append(piece)
                        partners[(sect.name,) + spec.coords + (unstruck, cell)] = (piece, signed)
                        if fresh:
                            piece.label = next(piece_labels)
                        elif density is not None:
                            twin = partners[key][0]
                            piece.status = twin.status = "matched" if role == "match" else "cancelled"
                            piece.label = twin.label
                            piece.level = twin.level = "canonical"
                            piece.partner = (twin.section, twin.label)
                            twin.partner = (sect.name, piece.label)
            group_signed = Expression(ctx, group_total)
            _accumulate(sec_total, group_signed, 1)
            density = _paired(partners, where, role, group_signed)
            group = TraceGroup(
                section=sect.name,
                index=index,
                coords=spec.coords,
                struck=struck,
                role=role,
                sign=spec.scalar,
                density=group_signed.scale(content) if density is None else density,
                pieces=group_pieces,
                label=next(group_labels) if fresh else partners[where][0].label,
            )
            sec_groups.append(group)
            partners[(sect.name,) + spec.coords] = (group, group_signed)
        primitive_totals[sect.name] = Expression(ctx, sec_total)

    # whatever the prediction left unpaired is unresolved, with a fresh label;
    # this walk comes last, as a later rhs2 piece may pair an rhs1 cancel piece
    unresolved = False
    rhs = pieces["rhs1"] + pieces["rhs2"]
    for piece in pieces["lhs"] + rhs:
        if piece.status == "pending":
            piece.status = "unresolved"
            unresolved = True
            if piece.label is None:
                piece.label = next(piece_labels)

    primitive_residue = (
        primitive_totals["lhs"] - primitive_totals["rhs1"] - primitive_totals["rhs2"]
    )
    totals = {name: t.scale(content) for name, t in primitive_totals.items()}

    return TraceReport(
        labels=(F.label or "F", G.label or "G", H.label or "H"),
        parities=parities,
        eq_sign=eq1_sign(parities["F"], parities["G"]),
        lhs_terms=pieces["lhs"],
        rhs1_terms=pieces["rhs1"],
        rhs2_terms=pieces["rhs2"],
        lhs_groups=groups["lhs"],
        rhs1_groups=groups["rhs1"],
        rhs2_groups=groups["rhs2"],
        matches=sorted((t.label, t.section, t.level) for t in rhs if t.status == "matched"),
        # one pair per cancelled rhs2 piece, which took its rhs1 partner's label
        cancellation_pairs=sorted(
            (t.label, t.label) for t in pieces["rhs2"] if t.status == "cancelled"
        ),
        verdict="unresolved" if unresolved else "verified",
        residue=primitive_residue.scale(content),
        lhs_total=totals["lhs"],
        rhs1_total=totals["rhs1"],
        rhs2_total=totals["rhs2"],
        bracket_check=_bracket_check(*prims.values(), primitive_residue),
    )


def _partner_coords(section: str, struck: str, coords: tuple) -> tuple:
    """Section and coordinates of a group's partner under the role swap.

    Swapping the two strikes on the struck factor exchanges the outer and
    inner faces and conjugate-pair indices.  A left-side group pairs with the
    right-side group striking the same functional; a right-side match pairs
    with the left-side group striking it; the two right-hand brackets' second
    variations of F pair with each other, one face flipped.  A piece's
    partner is the piece of the partner group with the same blocks of the
    two unstruck factors and the transposed cell (tau, sigma).
    """
    i, f_o, j, f_i, target = coords
    if section == "lhs":
        return ("rhs1" if target == 0 else "rhs2", j, f_i, i, f_o, 1)
    if struck != "F":
        return ("lhs", j, f_i, i, f_o, 0 if struck == "G" else 1)
    if section == "rhs1":
        return ("rhs2", j, 1 - f_i, i, f_o, 0)
    return ("rhs1", j, f_i, i, 1 - f_o, 0)


def _paired(partners: dict, key: tuple, role: str, signed: Expression):
    """What a piece or group reports when it pairs with the one stored at key.

    Pairing compares signed primitive densities: a match pairs when it equals
    its partner and reports the partner's density, a cancel when it is the
    opposite and reports the negation.  None when nothing at key pairs."""
    found = partners.get(key)
    if found is not None:
        twin, twin_signed = found
        if role == "match" and twin_signed == signed:
            return twin.density
        if role == "cancel" and (twin_signed + signed).is_zero():
            return -twin.density
    return None


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
    difference of the two combinations.  When the residue is zero the
    difference is the plain defect up to sign, whose level is already known.
    Scaling F, G and H by a, b and c scales both combinations by abc and
    changes no level, so the trace passes its primitive triple and the
    residue of their expansion.
    """
    plain_defect = jacobi_defect(F, G, H).density
    levels = {"residue": _level(residue), "plain_defect": _level(plain_defect)}
    if residue.is_zero():
        levels["joint"] = levels["plain_defect"]
    else:
        levels["joint"] = _level(residue - plain_defect)
    return levels
