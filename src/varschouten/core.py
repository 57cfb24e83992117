"""Exact Z2-graded differential-polynomial algebra over jet variables.

A density is a finite sum of monomials

    coeff * (even jets with powers) * (exp/sin/cos factors) * (odd jets)

with exact rational coefficients, stored as an int while integral and as a
Fraction otherwise.  Odd jet variables anticommute and square to zero; every
transposition sign is absorbed into the coefficient, so each abstract element
has a unique canonical form.  exp/sin/cos factors are kept
structurally -- no functional identities are ever applied -- and their
arguments (always parity-even) are interned per context so that equal
arguments share one id and powers of equal factors merge.

A monomial is keyed by two ints (see "packed monomial keys" below): a
product of monomials is one integer addition and a popcount sign, and only
rendering and identity decode a key, through unpack, which returns every part
of a monomial in its display order.  The Leibniz engine that differentiates
keys (_derive) lives beside them, so this module is the key format's one owner.
"""

from __future__ import annotations

import re
from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence, Union

Order = tuple[int, ...]
Rat = Union[int, Fraction]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

#: derivative table for function factors: kind -> (kind of derivative, sign);
#: its keys are the function kinds, in the order every other list of them takes
FUNC_DERIVATIVE = {"exp": ("exp", 1), "sin": ("cos", 1), "cos": ("sin", -1)}

#: names reserved for function factors; never valid as field or coordinate names
RESERVED_NAMES = frozenset(FUNC_DERIVATIVE)

#: value of each function kind at argument 0 (used by eval_zero_section)
FUNC_AT_ZERO = {"exp": 1, "sin": 0, "cos": 1}

#: width of one power slot of a packed key; the slot's top bit is a guard
SLOT_BITS = 16

#: largest power of one even jet or function factor in a monomial
MAX_POWER = (1 << (SLOT_BITS - 1)) - 1


class _JetFields(NamedTuple):
    owner: int
    degree: int
    order: Order


class JetVar(_JetFields):
    """One jet coordinate: the `order` multi-index derivative of owner field.

    Built as JetVar(owner, order); `degree` is sum(order), stored between the
    two so that plain tuple comparison is the canonical order of jet
    variables: owner, then graded-lex multi-index.
    """

    __slots__ = ()

    def __new__(cls, owner: int, order: Order) -> "JetVar":
        return tuple.__new__(cls, (owner, sum(order), order))

    def __getnewargs__(self) -> tuple:
        return (self.owner, self.order)


class FieldContext:
    """Independent coordinates plus field/antifield pairs with Z2 parities.

    Owners are numbered in declaration order: the k-th field is 2k and its
    antifield 2k+1, whose parity is the field parity flipped.  The
    context also owns the hash-cons table for function-factor arguments
    (with _arg_orders, aligned with _args: each argument's top jet order
    along each axis, fixed when it is interned, after the arguments inside
    it), the numbering of packed monomial keys (a slot per even jet or
    function unit, a bit per odd jet), and _derivs, the derivation table of
    the Leibniz engine: per derivation op (a direction d for the total
    derivative D_d, or _SWEEP for the one sweep of every owner's left
    partials) three dicts, slot shift -> image, odd bit -> image and
    function part -> chain-rule summands, each filled once per context when
    _derive first meets its key.
    """

    def __init__(
        self,
        indep: Sequence[str],
        pairs: Iterable[tuple[str, str, int]],
    ) -> None:
        self.indep = tuple(indep)
        if not self.indep:
            raise ValueError("at least one independent coordinate is required")
        self.names: list[str] = []
        self.parities: list[int] = []
        self.pairs: list[tuple[int, int]] = []
        self._by_name: dict[str, int] = {}
        seen = set(self.indep)
        for name in self.indep:
            _check_name(name)
        if len(seen) != len(self.indep):
            raise ValueError("independent coordinate names must be distinct")
        for fname, aname, fparity in pairs:
            if type(fparity) is not int:
                raise ValueError(f"parity of field {fname!r} must be an int, not {fparity!r}")
            for name in (fname, aname):
                _check_name(name)
                if name in seen:
                    raise ValueError(f"duplicate name {name!r} in context")
                seen.add(name)
            fi = self._add_owner(fname, fparity % 2)
            ai = self._add_owner(aname, (fparity + 1) % 2)
            self.pairs.append((fi, ai))
        if not self.pairs:
            raise ValueError("at least one field/antifield pair is required")
        # hash-cons storage for function-factor arguments
        self._args: list[Expression] = []
        self._arg_keys: list[tuple] = []
        self._arg_orders: list[Order] = []
        self._arg_index: dict[tuple, int] = {}
        # Packed keys (see _one): the unit of each slot, the odd jet of each
        # bit, one power of each unit as a key part, the mask of the function
        # units' slots, and every slot's guard bit.
        self._units: list = []
        self._odd_jets: list[JetVar] = []
        self._ones: dict = {}
        self._funcs = 0
        self._guard = 0
        # The derivation table of _derive: op -> (slot shift -> (tag, delta),
        # odd bit -> _image, function part -> _func_summands).
        self._derivs: dict = {}

    def _add_owner(self, name: str, parity: int) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parities.append(parity)
        self._by_name[name] = idx
        return idx

    # -- owners ---------------------------------------------------------

    @property
    def n_indep(self) -> int:
        return len(self.indep)

    @property
    def zero_order(self) -> Order:
        return (0,) * len(self.indep)

    def owner(self, ref: Union[int, str]) -> int:
        """Resolve a field/antifield reference (name or int index) to its index."""
        if isinstance(ref, str):
            try:
                return self._by_name[ref]
            except KeyError:
                raise ValueError(f"unknown field or antifield {ref!r}") from None
        if type(ref) is not int:  # a bool or a float is no index
            raise ValueError(f"an owner is a name or an int index, not {ref!r}")
        if not 0 <= ref < len(self.names):
            raise ValueError(f"owner index {ref} out of range")
        return ref

    def is_antifield(self, ref: Union[int, str]) -> bool:
        return self.owner(ref) % 2 == 1

    def antifield(self, ref: Union[int, str]) -> int:
        """The antifield partner of a field (or the field of an antifield)."""
        return self.owner(ref) ^ 1

    # -- function-argument interning -------------------------------------

    def intern_arg(self, arg: "Expression") -> int:
        key = arg.structural_key()
        idx = self._arg_index.get(key)
        if idx is None:
            idx = len(self._args)
            self._args.append(arg)
            self._arg_keys.append(key)
            self._arg_orders.append(_top_orders(self, _held(self, arg.terms)))
            self._arg_index[key] = idx
        return idx

    def arg(self, arg_id: int) -> "Expression":
        return self._args[arg_id]

    def arg_key(self, arg_id: int) -> tuple:
        return self._arg_keys[arg_id]

    # -- packed keys --------------------------------------------------------

    def _one(self, unit) -> int:
        """One power of a unit as a key part, numbered when first met: a bit
        of odd for an odd JetVar, else a slot of packed."""
        one = self._ones.get(unit)
        if one is None:
            if isinstance(unit, JetVar) and self.parities[unit.owner]:
                one = self._ones[unit] = 1 << len(self._odd_jets)
                self._odd_jets.append(unit)
                return one
            one = self._ones[unit] = 1 << (SLOT_BITS * len(self._units))
            self._units.append(unit)
            self._guard |= one << (SLOT_BITS - 1)
            if not isinstance(unit, JetVar):
                self._funcs |= one * ((1 << SLOT_BITS) - 1)
        return one


def _check_name(name: str) -> None:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid name {name!r}: expected an ASCII identifier")
    if name in RESERVED_NAMES:
        raise ValueError(f"name {name!r} is reserved for function factors")


# ---------------------------------------------------------------------------
# packed monomial keys
#
# A term key is (packed, odd), two ints numbered per context in first-use
# order (FieldContext._one).  packed has a SLOT_BITS-wide slot per even jet or
# function unit (kind, arg_id), holding its power: powers commute, so a
# product of even parts is their sum, and every slot's top bit stays clear,
# so that a sum cannot carry into the next slot (_overflows).  odd is a
# bitmask of the odd jets; the coefficient is that of their product in bit
# order, a product of odd parts a, b is zero when a & b and otherwise has the
# sign (-1)^_crossings(a, b).  No fixed numbering follows the canonical
# JetVar order once D raises jet orders, so unpack returns the sign that
# turns a stored coefficient into that of the canonical product, and orders
# function units by argument structure, not by history-dependent arg ids.
# _derive, the Leibniz engine, edits keys in one pass for D_d and for the
# sweep of every owner's directed partials; calculus builds the Euler operators
# on it.
# ---------------------------------------------------------------------------

_EMPTY_KEY = (0, 0)

#: the derivation op of the sweep of every owner's left partials (_derive)
_SWEEP = "sweep"

_TOO_LARGE = f"a power in a monomial is larger than {MAX_POWER}"


def _crossings(a: int, b: int) -> int:
    """The transpositions that sort the odd product a*b (a & b == 0) into bit order."""
    n = 0
    while a:
        low = a & -a
        n += (b & (low - 1)).bit_count()
        a ^= low
    return n


def _overflows(ctx: FieldContext, keys) -> bool:
    """True when a key of keys has a power past MAX_POWER.  Two powers below
    half a slot sum below its guard bit, so callers pass keys only when the
    OR of the packed parts they add up, folded into the loops that read
    them, meets the guard or half-slot bits."""
    top = ctx._guard
    return any(packed & top for packed, _ in keys)


def unpack(ctx: FieldContext, key: tuple) -> tuple:
    """Decode a term key into (even, funcs, odd, sign), each part in display order.

    even holds (JetVar, power) units sorted by JetVar, funcs ((kind, arg_id),
    power) units sorted by kind, then argument structure (ctx.arg_key), odd
    the odd jets in JetVar order; sign (+-1) turns the stored coefficient into
    that of even * funcs * odd.  Within one context arg ids and argument
    structures correspond one to one, so equal factors come in the same order
    whatever the interning history.
    """
    packed, odd = key
    even, funcs = [], []
    while packed:  # the slots, highest first
        shift = (packed.bit_length() - 1) & -SLOT_BITS
        power = packed >> shift
        packed ^= power << shift
        unit = ctx._units[shift // SLOT_BITS]
        (even if isinstance(unit, JetVar) else funcs).append((unit, power))
    if len(funcs) > 1:
        funcs.sort(key=lambda u: (u[0][0], ctx._arg_keys[u[0][1]]))
    jets = []
    while odd:
        low = odd & -odd
        jets.append(ctx._odd_jets[low.bit_length() - 1])
        odd ^= low
    swaps = sum(v > w for i, v in enumerate(jets) for w in jets[i + 1 :])
    return tuple(sorted(even)), tuple(funcs), tuple(sorted(jets)), -1 if swaps % 2 else 1


def _image(ctx, jv: JetVar, op):
    """The image of one jet under the derivation op, as (tag, key part or 0).

    D along direction op raises the jet: (None, raised jet).  The sweep
    strikes it and tags the summand by the struck jet: (jv, 0).
    """
    if op == _SWEEP:
        return jv, 0
    order = jv.order
    return None, ctx._one(JetVar(jv.owner, order[:op] + (order[op] + 1,) + order[op + 1 :]))


def _func_summands(ctx, funcs: int, op) -> list:
    """[(tag, delta, odd', c)]: the chain-rule summands of op on one function part.

    A unit f(arg)^p gives p f'(arg) f(arg)^(p-1) times each monomial k2 of the
    derivative of arg, placed in front of the rest of the monomial: for a
    monomial (packed, odd) with this function part the summand's key is
    (packed + delta, odd' * odd), and its coefficient is c times the
    monomial's.  A tag whose partial of arg has a power past MAX_POWER gets
    one summand of c 1 whose delta is slot 0's guard bit, so that its key
    overflows in the tag's terms, where _derive's one test finds it.
    """
    out = []
    for (kind, aid), p in unpack(ctx, (funcs, 0))[1]:
        dkind, sgn = FUNC_DERIVATIVE[kind]
        lift = ctx._one((dkind, aid)) - ctx._one((kind, aid))
        for tag, terms in _derive(ctx.arg(aid), op).items():
            if terms is None:
                out.append((tag, 1 << (SLOT_BITS - 1), 0, 1))
                continue
            for (k_packed, k_odd), c in terms.items():
                out.append((tag, lift + k_packed, k_odd, p * sgn * c))
    return out


def _derive(e: Expression, op, minuend: dict | None = None) -> dict:
    """The derivation op of e by the graded Leibniz rule, as {tag: terms}.

    op is a direction d for the total derivative D_d, whose one tag is None,
    or _SWEEP for the sweep of every owner's left partials in one pass,
    tagged by the struck jet.  The loop does not tell them apart: per
    monomial (packed, odd), each even jet adds its slot's delta to packed,
    one power lowered and its image (see _image) raised.  Each odd jet moves
    to the left end, (-1)^(odd bits below it), and its image moves back into
    place, (-1)^(odd bits below that).  The images and the function part's
    summands come from the context's table for op (ctx._derivs): jets and
    parts repeat across nearly every monomial and call.  Both derivations
    act from the left, so the function part, which is even and stands left
    of the odd part, is crossed without a sign.

    Overflow is one test of the output (_overflows): a tag whose terms hold
    a power past MAX_POWER raises ValueError under D_d and maps to None
    under the sweep, leaving every other owner's partials readable (see
    _along).  Summands past MAX_POWER that cancel are no overflow.

    Given a minuend (a term dict the call takes over), the tag None holds
    minuend - D_d e, built in the same pass.
    """
    ctx = e.ctx
    slot_images, bit_images, func_derivs = ctx._derivs.setdefault(op, ({}, {}, {}))
    fmask = ctx._funcs
    outs: defaultdict = defaultdict(dict)
    negate = minuend is not None
    if negate:
        outs[None] = minuend
    held = 0  # the OR of the packed parts that summands add up (see _overflows)
    for (packed, odd), coeff in e.terms.items():
        held |= packed
        if negate:
            coeff = -coeff
        funcs = packed & fmask
        x = packed ^ funcs
        while x:  # the jets' slots, highest first, as in unpack
            shift = (x.bit_length() - 1) & -SLOT_BITS
            p = x >> shift
            x ^= p << shift
            image = slot_images.get(shift)
            if image is None:
                tag, up = _image(ctx, ctx._units[shift // SLOT_BITS], op)
                image = slot_images[shift] = (tag, up - (1 << shift))
            _add_term(outs[image[0]], (packed + image[1], odd), coeff * p)
        if funcs:
            got = func_derivs.get(funcs)
            if got is None:
                got = func_derivs[funcs] = _func_summands(ctx, funcs, op)
            for tag, delta, k_odd, c2 in got:
                if k_odd & odd:
                    continue
                q = packed + delta
                held |= q
                c = coeff * c2
                if k_odd and odd and _crossings(k_odd, odd) % 2:
                    c = -c
                _add_term(outs[tag], (q, k_odd | odd), c)
        x = odd
        while x:
            bit = x & -x
            x ^= bit
            image = bit_images.get(bit)
            if image is None:
                image = bit_images[bit] = _image(ctx, ctx._odd_jets[bit.bit_length() - 1], op)
            tag, up = image
            swaps = (odd & (bit - 1)).bit_count()
            rest = odd ^ bit
            if up:
                if rest & up:
                    continue
                swaps += (rest & (up - 1)).bit_count()
                rest |= up
            _add_term(outs[tag], (packed, rest), -coeff if swaps % 2 else coeff)
    if held & (ctx._guard | ctx._guard >> 1):
        over = [tag for tag, terms in outs.items() if _overflows(ctx, terms)]
        if over and op != _SWEEP:
            raise ValueError(_TOO_LARGE)
        outs.update(dict.fromkeys(over))
    return outs


def _held(ctx, terms: dict) -> list:
    """Every unit that the keys of terms hold, as (slot mask, odd mask, order,
    owner): an even jet or function unit has its slot's mask in packed and odd
    mask 0, an odd jet slot mask 0 and its bit.  A jet's order is its
    multi-index; a function unit has owner None and, as its order, its
    argument's top jet order along each axis (FieldContext._arg_orders)."""
    packed = odd = 0
    for p, o in terms:
        packed |= p
        odd |= o
    even, funcs, odds, _ = unpack(ctx, (packed, odd))
    full, ones = (1 << SLOT_BITS) - 1, ctx._ones
    return [
        *((ones[v] * full, 0, v.order, v.owner) for v, _ in even),
        *((ones[f] * full, 0, ctx._arg_orders[f[1]], None) for f, _ in funcs),
        *((0, ones[v], v.order, v.owner) for v in odds),
    ]


def _top_orders(ctx, units: list) -> Order:
    """The top jet order along each axis of what _held returns, function
    arguments included."""
    return tuple(max((o[a] for _, _, o, _ in units), default=0) for a in range(ctx.n_indep))


def _lower(e: Expression) -> tuple[tuple[Expression, ...], Expression]:
    """Integrate a density by parts, axis by axis: (fluxes, remainder).

    e == sum_a D_a(fluxes[a]) + remainder canonically, so the remainder has
    e's Euler operators (E o D_a = 0) and e's zero-section value (every
    monomial of D_a(h) has a jet outside any function factor).  D_a raises
    only entry a of a multi-index, so along axis a a jet u_sigma is read as
    the jet of order sigma_a of its virtual owner (u, sigma without entry a),
    and the rules below are those of one coordinate.  Axis 0 is lowered
    first, then axis 1 on what is left, and so on: D_b raises no entry but
    b, so a later axis undoes nothing of an earlier one, nor raises the top
    order along another axis.

    Along axis a, from the top order down to 1, and per virtual owner u in
    sorted order, every monomial m = c*B*u_{n-1}^k*u_n of the remainder is
    picked in which u_n stands once outside any function factor and
      - no other jet has order n or more along a, inside function
        arguments or not;
      - no function argument reaches order n-1 along a, so D_a of B raises
        no jet inside a function factor to order n;
      - no virtual owner before u has an (n-1)-jet, so D_a of the flux
        raises no order-n jet of one lowered before u at this order;
      - for an odd u, u_{n-1} does not appear;
      - no power reaches half a slot, so k < MAX_POWER.
    A pick adds c/(k+1)*B*u_{n-1}^(k+1) to fluxes[a], for an odd u
    B*u_{n-1} with the sign that D_a turns back into m.  Every other
    monomial of D_a of u's picks holds u_{n-1}, which the virtual owners
    after u may not pick, so all of them pick from the remainder as the
    order began, and the remainder loses D_a of the order's picks in one
    _derive pass, into a copy of it.  Every order is lowered, whatever the
    one before it left; a pass that raises ValueError (a power past
    MAX_POWER) ends the lowering, keeping the passes before it.
    """
    ctx = e.ctx
    full = (1 << SLOT_BITS) - 1
    fluxes = [{} for _ in ctx.indep]
    rest = e.terms
    units = _held(ctx, rest)
    steps = [(a, n) for a, top in enumerate(_top_orders(ctx, units)) for n in range(top, 0, -1)]
    for a, n in steps:
        # high: what no pick may hold beyond its u_n (any power past half a
        # slot included); low: the (n-1)-jets per virtual owner; tops: the
        # virtual owner of each held u_n by its key part, one power of it
        high_p, high_o = ctx._guard >> 1, 0
        low_p, low_o = defaultdict(int), defaultdict(int)
        tops = {}
        for mp, mo, order, w in units:
            o, u = order[a], (w, order[:a] + order[a + 1 :])
            if o >= n or (w is None and o >= n - 1):
                high_p |= mp
                high_o |= mo
                if o == n and w is not None:
                    tops[(mp & -mp, mo)] = u
            elif o == n - 1:
                low_p[u] |= mp
                low_o[u] |= mo
        # a pick of u may hold no (n-1)-jet of a virtual owner before u, nor
        # u_{n-1} when u is odd (an odd u's (n-1)-jet is an odd bit)
        guards, guard_p, guard_o = {}, 0, 0
        for u in sorted(low_p.keys() | tops.values()):
            guard_o |= low_o[u]
            guards[u] = (guard_p, guard_o)
            guard_p |= low_p[u]
        lows: dict = {}
        picks: dict = {}
        for (packed, odd), c in rest.items():
            top_p, top_o = packed & high_p, odd & high_o
            u = tops.get((top_p, top_o))
            if u is None:
                continue
            guard_p, guard_o = guards[u]
            if packed & guard_p or odd & guard_o:
                continue
            low = lows.get(u)
            if low is None:
                w, rim = u
                low = lows[u] = ctx._one(JetVar(w, rim[:a] + (n - 1,) + rim[a:]))
            if top_o:
                kept = odd ^ top_o
                swaps = (kept & (low - 1)).bit_count() + (kept & (top_o - 1)).bit_count()
                picks[(packed, kept | low)] = -c if swaps % 2 else c
            else:
                k = (packed >> (low.bit_length() - 1)) & full
                picks[(packed - top_p + low, odd)] = _demote(Fraction(c, k + 1)) if k else c
        if not picks:
            continue
        try:
            rest = _derive(Expression(ctx, picks), a, dict(rest))[None]
        except ValueError:  # a power past MAX_POWER: keep the passes before this one
            break
        fluxes[a].update(picks)  # a pick of order n holds an (n-1)-jet, no later pick does
        units = _held(ctx, rest)
    flux = tuple(Expression(ctx, f) for f in fluxes)
    return flux, e if rest is e.terms else Expression(ctx, rest)


def _sweep(e: Expression) -> dict:
    """Every left partial of e, all owners in one _derive pass: {v: terms},
    None for a v whose partial has a power past MAX_POWER.  _along reads
    one owner's, on either side."""
    return _derive(e, _SWEEP)


def _right(ctx, owner: int, terms: dict) -> dict:
    """The terms of a right partial along owner, given the left one's.

    The right partial is the left one times (-1)^(|v||m'|) on each output
    monomial m': along an odd owner, the monomials with an odd number of odd
    jets change sign, and along an even one the terms come back as they are.
    D keeps every monomial's number of odd jets, so the same holds for the
    Euler derivative and its blocks.
    """
    if not ctx.parities[owner]:
        return terms
    return {key: -c if key[1].bit_count() % 2 else c for key, c in terms.items()}


def _check_side(side: str) -> None:
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def _along(ctx, swept: dict, owner: int, side: str) -> dict:
    """One owner's directed partials from a sweep (_sweep): {v: d e / dv}
    over the nonzero ones, v ascending.  Raises ValueError when one of them
    has a power past MAX_POWER, whatever the other owners' partials hold."""
    _check_side(side)
    out = {}
    for v in sorted(v for v in swept if v.owner == owner):
        terms = swept[v]
        if terms is None:
            raise ValueError(_TOO_LARGE)
        if terms:
            out[v] = Expression(ctx, _right(ctx, owner, terms) if side == "right" else terms)
    return out


def _structural_funcs(ctx: FieldContext, funcs: tuple) -> tuple:
    """Decoded function units, each arg id replaced by its structural key."""
    return tuple((kind, ctx.arg_key(aid), p) for (kind, aid), p in funcs)


def _demote(c: Rat) -> Rat:
    """c as an int when it is integral, so that coefficients stay ints."""
    if type(c) is not int and c.denominator == 1:
        return c.numerator
    return c


def _rational(value) -> Rat:
    """value as a coefficient: an int or a Fraction, never a rounded float or a
    bool (TypeError)."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"a coefficient must be an int or a Fraction, not {type(value).__name__}")
    return _demote(Fraction(value))


def _add_term(out: dict, key, c) -> None:
    """Accumulate c into out[key], dropping the key when the sum vanishes."""
    s = out.get(key, 0) + c
    if s:
        out[key] = s if type(s) is int else _demote(s)
    else:
        del out[key]


def _accumulate(out: dict, e: "Expression", sign: int) -> None:
    """Add sign * e (sign +-1) into the term dict out."""
    for key, c in e.terms.items():
        _add_term(out, key, c if sign > 0 else -c)


class Expression:
    """A density in canonical form: dict of term keys to rational coefficients.

    A coefficient is an int when it is integral and a Fraction otherwise.
    """

    __slots__ = ("ctx", "terms")
    __hash__ = None

    def __init__(self, ctx: FieldContext, terms: dict | None = None) -> None:
        self.ctx = ctx
        self.terms = terms if terms is not None else {}

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(ctx: FieldContext) -> "Expression":
        return Expression(ctx)

    @staticmethod
    def const(ctx: FieldContext, value: Rat) -> "Expression":
        value = _rational(value)
        if not value:
            return Expression(ctx)
        return Expression(ctx, {_EMPTY_KEY: value})

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def parity(self) -> int | None:
        """0 or 1 for homogeneous expressions, None for mixed; zero is even."""
        seen = {odd.bit_count() % 2 for _, odd in self.terms}
        if not seen:
            return 0
        if len(seen) > 1:
            return None
        return seen.pop()

    def max_jet_order(self) -> int:
        """The top total order of the jets of the density, function arguments included."""
        return max((v.degree for v in _jets(self)), default=0)

    # -- ring operations ----------------------------------------------------

    def _require_same_ctx(self, other: "Expression") -> None:
        if self.ctx is not other.ctx:
            raise ValueError("expressions belong to different field contexts")

    def _sum(self, other, sign: int):
        if not isinstance(other, Expression):
            return NotImplemented
        self._require_same_ctx(other)
        out = dict(self.terms)
        _accumulate(out, other, sign)
        return Expression(self.ctx, out)

    def __add__(self, other: "Expression") -> "Expression":
        return self._sum(other, 1)

    def __sub__(self, other: "Expression") -> "Expression":
        return self._sum(other, -1)

    def __neg__(self) -> "Expression":
        return Expression(self.ctx, {k: -c for k, c in self.terms.items()})

    def scale(self, factor: Rat) -> "Expression":
        """factor * self; self itself when factor is 1 (terms are never edited).

        An int coefficient c times n/d is c/g * n over d/g, g = gcd(c, d), in
        int arithmetic: already reduced, and an int when g is d.
        """
        factor = _rational(factor)
        if factor == 1:
            return self
        if not factor:
            return Expression(self.ctx)
        n, d = factor.numerator, factor.denominator
        out = {}
        for k, c in self.terms.items():
            if type(c) is int:
                g = gcd(c, d)
                out[k] = c // g * n if g == d else Fraction(c // g * n, d // g)
            else:
                out[k] = _demote(c * factor)
        return Expression(self.ctx, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Expression):
            return NotImplemented
        self._require_same_ctx(other)
        out: dict = {}
        held = 0  # the OR of the packed parts of both operands (see _overflows)
        for (p1, o1), c1 in self.terms.items():
            held |= p1
            for (p2, o2), c2 in other.terms.items():
                if o1 & o2:
                    continue
                c = c1 * c2
                if o1 and o2 and _crossings(o1, o2) % 2:
                    c = -c
                _add_term(out, (p1 + p2, o1 | o2), c)
        for p2, _ in other.terms:
            held |= p2
        if held & self.ctx._guard >> 1 and _overflows(self.ctx, out):
            raise ValueError(_TOO_LARGE)
        return Expression(self.ctx, out)

    __rmul__ = __mul__  # int * e or Fraction * e: a rational scalar commutes

    def __pow__(self, exponent: int) -> "Expression":
        if type(exponent) is not int or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result, base = Expression.const(self.ctx, 1), self
        if len(self.terms) > 2 and exponent <= MAX_POWER:
            # one product per power: squaring a base of three or more terms
            # multiplies far more term pairs (Fateman, for sparse polynomials);
            # two terms square faster.  Past MAX_POWER only a base without an
            # even unit, such as 1+psi+psi[1], is left to raise, by squaring.
            for _ in range(exponent):
                result = result * base
                if not result.terms:
                    break
            return result
        # square and multiply, never squaring past the exponent's top bit, so
        # no power in between is larger than the result's
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expression):
            return NotImplemented
        return self.ctx is other.ctx and self.terms == other.terms

    def __repr__(self) -> str:
        n = len(self.terms)
        return f"<Expression: {n} monomial{'s' if n != 1 else ''}>"

    def content_and_primitive(self) -> tuple[Rat, "Expression"]:
        """The content/primitive-part split: (c, P) with self == P.scale(c).

        P is self times the lcm of the coefficient denominators, divided by the
        gcd of the numerators, so its coefficients are coprime ints; the content
        c is the positive rational that undoes that scaling.  Returns (1, self)
        when self is already primitive (zero included).
        """
        den = lcm(*(c.denominator for c in self.terms.values()))
        ints = {k: c.numerator * (den // c.denominator) for k, c in self.terms.items()}
        num = gcd(*ints.values())
        if den == 1 and num <= 1:
            return 1, self
        return _demote(Fraction(num, den)), Expression(
            self.ctx, {k: c // num for k, c in ints.items()}
        )

    # -- canonical identity ---------------------------------------------------

    def structural_key(self) -> tuple:
        """A history-independent identity for interning and stable ordering."""
        ctx = self.ctx
        rows = []
        for key, coeff in self.terms.items():
            even, funcs, odd, sign = unpack(ctx, key)
            if sign < 0:
                coeff = -coeff
            rows.append(
                (
                    tuple((v.owner, v.order, p) for v, p in even),
                    _structural_funcs(ctx, funcs),
                    tuple((v.owner, v.order) for v in odd),
                    (coeff.numerator, coeff.denominator),
                )
            )
        return tuple(sorted(rows))


# ---------------------------------------------------------------------------
# public builders
# ---------------------------------------------------------------------------


def normalize_order(ctx: FieldContext, order) -> Order:
    """Coerce an int (one direction or 0) or a sequence of ints to a multi-index."""
    if type(order) is int:
        if order < 0:
            raise ValueError("jet order must be nonnegative")
        if ctx.n_indep == 1:
            return (order,)
        if order == 0:
            return ctx.zero_order
        raise ValueError("an integer jet order needs a single independent coordinate")
    order = tuple(order) if hasattr(order, "__iter__") else (order,)
    if any(type(k) is not int for k in order):  # bools and floats included
        raise ValueError(f"jet order entries must be ints, got {order!r}")
    if len(order) != ctx.n_indep:
        raise ValueError(
            f"multi-index length {len(order)} does not match {ctx.n_indep} coordinates"
        )
    if min(order) < 0:
        raise ValueError("jet order must be nonnegative")
    return order


def jet(ctx: FieldContext, ref: Union[int, str], order=0) -> Expression:
    """The jet variable of `ref` (field/antifield name or index) at `order`."""
    owner = ctx.owner(ref)
    v = JetVar(owner, normalize_order(ctx, order))
    key = (0, ctx._one(v)) if ctx.parities[owner] else (ctx._one(v), 0)
    return Expression(ctx, {key: 1})


def _func(kind: str, arg: Expression) -> Expression:
    if arg.parity != 0:
        raise ValueError(f"{kind} argument must be parity-even")
    aid = arg.ctx.intern_arg(arg)
    return Expression(arg.ctx, {(arg.ctx._one((kind, aid)), 0): 1})


def exp(arg: Expression) -> Expression:
    return _func("exp", arg)


def sin(arg: Expression) -> Expression:
    return _func("sin", arg)


def cos(arg: Expression) -> Expression:
    return _func("cos", arg)


def eval_zero_section(e: Expression) -> Rat:
    """Value of the density with every jet variable set to zero.

    Any jet factor kills its monomial; function factors evaluate through
    their (recursively zeroed) arguments via exp(0)=1, sin(0)=0, cos(0)=1.
    A function factor surviving at a nonzero rational argument has no exact
    rational value and raises ValueError.
    """
    total = 0
    for (packed, odd), coeff in e.terms.items():
        if packed & ~e.ctx._funcs or odd:
            continue
        value = coeff
        for (kind, aid), power in unpack(e.ctx, (packed, odd))[1]:
            at0 = eval_zero_section(e.ctx.arg(aid))
            if at0 == 0:
                fval = FUNC_AT_ZERO[kind]
            else:
                raise ValueError(
                    f"{kind}({at0}) has no exact rational value at the zero section"
                )
            value *= fval**power
            if not value:
                break
        total += value
    return total


def _jets(e: Expression):
    """Every JetVar occurrence in e, function arguments included."""
    for key in e.terms:
        even, funcs, odd, _ = unpack(e.ctx, key)
        for v, _ in even:
            yield v
        yield from odd
        for (_, aid), _ in funcs:
            yield from _jets(e.ctx.arg(aid))


def jet_orders(e: Expression, ref: Union[int, str]) -> set:
    """All multi-indices with which the given owner occurs in e (args included)."""
    owner = e.ctx.owner(ref)
    return {v.order for v in _jets(e) if v.owner == owner}

