"""Graded attribute sets over a fixed finite universe.

An LSet assigns each attribute a degree from a chain; ``LSet.idx``, the
tuple of chain indices in universe order, is its public form.  The literal
grammar is ``0.75/a, e`` — comma-separated items, ``degree/name`` with the
degree omitted when it is 1 and the whole item omitted when it is 0.

An LSet is its ``LSet.mask``, its ordinal scale (Ganter & Wille, *Formal
Concept Analysis*, 1999, section 1.3): over a chain of n degrees, a set A
is the int with bit (y, k) set for every 1 <= k <= A(y), n - 1 bits per
attribute, laid out attribute by attribute with the first attribute in the
most significant bits.  Then A <= B is ``a & b == a``, union is ``|`` and
intersection is ``&``, all exact, and comparing two masks as ints compares
the sets lectically.  A ``Scale`` per (|Y|, n) encodes and decodes by
table, composes connections' lower mask tables through the inner table's
decoded picks (``Scale.picks``) and bit-slices many of them
into one (``Scale.slices``), so that one ``lower_mask`` gives the images of
a set under all of them.  The context closure (``meet_above``), rule images
(``lower_mask``), an attribute permutation's images by block moves
(``Scale.moves``, ``move_blocks``), NextClosure (``next_closures``),
forward chaining (``forward_chain``) and the degree-by-degree lowering of
side minimization (``step_down``) take and return masks, and
``LSet._from_mask`` hands a result out as an LSet holding the mask only;
``LSet.idx`` decodes on first read and keeps the vector.  A connection is
its lower mask table: ``lower_mask`` applies it, and ``upper_mask`` reads
its residual, the upper map, off the same masks.

Only this module compares, joins or meets index vectors, encodes or
decodes masks, or checks that operands share a universe and chain; the rest
of fai reads ``LSet.mask``, calls the kernels and tests masks inline.

``Record`` is the slotted base of fai's other immutable values built from
named fields: connection terms, rules and proof steps.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import getitem

from .errors import CapExceeded, DegreeNotInChain, InvariantError, ParseError, UniverseMismatch
from .lattice import Chain, render_degree

# "#" starts a comment in theory files, and parsing strips whitespace and
# splits lines at any line boundary, so a name holding these would not parse back
_FORBIDDEN = set("/,#")


class Universe:
    """An ordered tuple of distinct attribute names."""

    def __init__(self, attributes):
        attrs = tuple(attributes)
        if not attrs:
            raise ValueError("universe must contain at least one attribute")
        if len(set(attrs)) != len(attrs):
            raise ValueError("attribute names must be distinct")
        for name in attrs:
            if not name or any(ch in _FORBIDDEN or ch.isspace() for ch in name) or "->" in name:
                raise ValueError(f"bad attribute name {name!r}")
        self.attributes = attrs
        self.position = {name: i for i, name in enumerate(attrs)}

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self):
        return iter(self.attributes)

    def __contains__(self, name) -> bool:
        return name in self.position

    def __eq__(self, other) -> bool:
        return isinstance(other, Universe) and self.attributes == other.attributes

    def __hash__(self) -> int:
        return hash(self.attributes)

    def __repr__(self) -> str:
        return f"Universe({list(self.attributes)!r})"


class LSet:
    """An immutable graded set: one chain degree per attribute."""

    __slots__ = ("universe", "chain", "mask", "_idx")

    def __init__(self, universe: Universe, chain: Chain, idx):
        idx = tuple(idx)
        if len(idx) != len(universe):
            raise UniverseMismatch("degree vector length differs from universe size")
        for i in idx:
            if type(i) is not int or not 0 <= i < chain.n:
                raise DegreeNotInChain(f"index {i!r} is not a position in the chain")
        _set_universe(self, universe)
        _set_chain(self, chain)
        _set_mask(self, scale(len(universe), chain.n).encode(idx))
        _set_idx(self, idx)

    @classmethod
    def _from_mask(cls, universe: Universe, chain: Chain, mask: int) -> "LSet":
        """The set a kernel returns as a mask, trusted as it is; its index
        vector is decoded when first read."""
        out = object.__new__(cls)
        _set_universe(out, universe)
        _set_chain(out, chain)
        _set_mask(out, mask)
        _set_idx(out, None)
        return out

    @property
    def idx(self) -> tuple:
        """The chain index of each attribute's degree, in universe order."""
        idx = self._idx
        if idx is None:
            idx = scale(len(self.universe), self.chain.n).decode(self.mask)
            _set_idx(self, idx)
        return idx

    def __setattr__(self, name, value):
        raise AttributeError("LSet is immutable")

    def __delattr__(self, name):
        raise AttributeError("LSet is immutable")

    def __reduce__(self):
        # copies and pickles rebuild through the checked constructor
        return LSet, (self.universe, self.chain, self.idx)

    @classmethod
    def bottom(cls, universe: Universe, chain: Chain) -> "LSet":
        return cls(universe, chain, (0,) * len(universe))

    @classmethod
    def top(cls, universe: Universe, chain: Chain) -> "LSet":
        return cls(universe, chain, (chain.n - 1,) * len(universe))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LSet)
            and self.mask == other.mask
            and self.universe == other.universe
            and self.chain == other.chain
        )

    def __hash__(self) -> int:
        # equal sets have equal idx; __eq__ still tells universes and chains apart
        return hash(self.idx)

    def __le__(self, other: "LSet") -> bool:
        return leq(self, other)

    def __lt__(self, other: "LSet") -> bool:
        return leq(self, other) and self.mask != other.mask

    def __or__(self, other: "LSet") -> "LSet":
        return union(self, other)

    def __and__(self, other: "LSet") -> "LSet":
        return intersection(self, other)

    def __repr__(self) -> str:
        return f"LSet({render_lset(self)!r})"


# each slot's member descriptor sets it past LSet.__setattr__, as Record's do
_set_universe, _set_chain, _set_mask, _set_idx = (
    LSet.__dict__[name].__set__ for name in ("universe", "chain", "mask", "_idx")
)


class Record:
    """An immutable value made of named fields, frozen as LSet is.

    A subclass lists its fields as its ``__slots__``; a slot whose name
    starts with an underscore is private state, outside the record's
    value.  The constructor takes the fields positionally.  Two records are
    equal when they have the same type and equal fields, a record hashes as
    the tuple of its fields, and it shows as ``Name(field=value, ...)``.
    Copies and pickles rebuild through the constructor.
    """

    __slots__ = ()
    _fields = ()
    _setters = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        # each field's slot member descriptor sets it past __setattr__
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls._fields)

    def __init__(self, *values):
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError(
                f"{type(self).__name__} takes {len(setters)} fields, not {len(values)}"
            )
        for set_field, value in zip(setters, values):
            set_field(self, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"


def same_space(x, universe: Universe, chain: Chain) -> None:
    """UniverseMismatch unless x (set, connection, S or context) lives over them."""
    if (x.universe is not universe or x.chain is not chain) and (
        x.universe != universe or x.chain != chain
    ):
        raise UniverseMismatch("operands live over different universes or chains")


class Scale:
    """The ordinal scale of graded sets over ``size`` attributes and a chain
    of ``n`` degrees: the tables that encode an index vector as a mask and
    decode it back.  ``top`` is the mask of the top set."""

    __slots__ = ("shifts", "codes", "block", "top")

    def __init__(self, size: int, n: int):
        width = n - 1
        self.shifts = tuple((size - 1 - y) * width for y in range(size))
        # codes[y][k]: the bits (y, 1) .. (y, k), the mask of {k/y}; a mask is
        # a sum of codes, and the codes are the identity's lower mask table
        self.codes = tuple(tuple(((1 << k) - 1) << sh for k in range(n)) for sh in self.shifts)
        self.block = (1 << width) - 1
        self.top = (1 << (size * width)) - 1

    def encode(self, idx) -> int:
        return sum(map(getitem, self.codes, idx))

    def decode(self, mask: int) -> tuple:
        block, out = self.block, []
        for sh in self.shifts:
            out.append(((mask >> sh) & block).bit_length())
        return tuple(out)

    def lower_table(self, masks) -> tuple:
        """The index-vector form of a lower mask table: per attribute y and
        degree index k >= 1, the index vector of f({k/y})."""
        return tuple(tuple(map(self.decode, row[1:])) for row in masks)

    def picks(self, inner) -> tuple:
        """Each image of a lower mask table decoded once: per attribute y
        and degree k >= 1, the (attribute z, degree d) pairs with
        h({k/y})(z) = d > 0, in universe order.  ``compose`` reads them, so
        an image held at one attribute (a rotation's, a difference's) is one
        pick."""
        block, at = self.block, tuple(enumerate(self.shifts))
        return tuple(
            tuple(
                tuple((z, d) for z, sh in at if (d := ((m >> sh) & block).bit_length()))
                for m in row[1:]
            )
            for row in inner
        )

    def compose(self, outer, picks) -> tuple:
        """The mask table of f . h from f's (outer) and the picks of h's
        (``picks``): f's image of h({k/y}) is the join of the images
        f({d/z}) over the image's picks."""
        table = []
        for row in picks:
            images = [0]  # h({0/y}) is empty, and so is its image
            for image_picks in row:
                image = 0
                for z, d in image_picks:
                    image |= outer[z][d]
                images.append(image)
            table.append(tuple(images))
        return tuple(table)

    def slices(self, tables) -> tuple:
        """Many lower mask tables as one bit-sliced table: per attribute y
        and degree k, the int whose field j, the j-th run of ``top``'s
        width of bits from the least significant end, is ``tables[j][y][k]``.
        ``lower_mask`` applies it to all the tables at once, and ``fields``
        splits the result."""
        width = self.top.bit_length()
        out = []
        for rows in zip(*tables):
            row = []
            for images in zip(*rows):
                wide = 0
                for m in reversed(images):
                    wide = (wide << width) | m
                row.append(wide)
            out.append(tuple(row))
        return tuple(out)

    def moves(self, masks) -> tuple:
        """The block moves of an attribute permutation's lower mask table,
        whose row y is ``codes[z]`` for the attribute z that y goes to, as
        (source bits, shift) pairs: y's block moves by the distance from
        y's shift to z's, z's shift being the one bit of the row's {1/z},
        and the blocks that move the same distance move together, so a
        rotation's moves are two.  ``move_blocks`` applies them."""
        moves = {}
        for sh, row in zip(self.shifts, masks):
            shift = row[1].bit_length() - 1 - sh
            moves[shift] = moves.get(shift, 0) | (self.block << sh)
        return tuple((bits, shift) for shift, bits in moves.items())

    def fields(self, wide: int, count: int) -> list:
        """The first ``count`` fields of a bit-sliced mask (``slices``), in
        table order."""
        top, width = self.top, self.top.bit_length()
        return [(wide >> sh) & top for sh in range(0, count * width, width)]


@lru_cache(maxsize=None)
def scale(size: int, n: int) -> Scale:
    """The one Scale per attribute count and chain length."""
    return Scale(size, n)


def meet_above(g: int, rows, top: int) -> int:
    """The meet of the row masks that contain the mask g; top if none does."""
    meet = top
    for r in rows:
        if g & r == g:
            meet &= r
    return meet


def lower_mask(masks, idx) -> int:
    """f(A) as a mask: the join of the images f({A(y)/y}) that the index
    vector A picks from a connection's lower mask table."""
    image = 0
    for row, k in zip(masks, idx):
        image |= row[k]
    return image


def move_blocks(moves, m: int) -> int:
    """u(A) as a mask for an attribute permutation u, given by its block
    moves (``Scale.moves``): the bits of the mask m under each move's
    source bits, shifted by its shift.  It equals ``lower_mask`` on u's
    table and decodes nothing."""
    image = 0
    for bits, shift in moves:
        image |= (m & bits) << shift if shift >= 0 else (m & bits) >> -shift
    return image


def upper_mask(masks, b: int, codes) -> int:
    """g(B) as a mask, the residual of the lower map a mask table gives:
    at each attribute y the largest degree k with f({k/y}) inside the mask
    b, emitted as ``codes[y][k]`` (``Scale.codes``)."""
    image = 0
    for row, code in zip(masks, codes):
        k = len(row) - 1
        while k and row[k] & b != row[k]:
            k -= 1
        image |= code[k]
    return image


def leq(a: LSet, b: LSet) -> bool:
    """Full containment: a(y) <= b(y) for every attribute."""
    same_space(b, a.universe, a.chain)
    return a.mask & b.mask == a.mask


def union(a: LSet, b: LSet) -> LSet:
    same_space(b, a.universe, a.chain)
    return LSet._from_mask(a.universe, a.chain, a.mask | b.mask)


def intersection(a: LSet, b: LSet) -> LSet:
    same_space(b, a.universe, a.chain)
    return LSet._from_mask(a.universe, a.chain, a.mask & b.mask)


def subsethood(a: LSet, b: LSet) -> Fraction:
    """Degree to which a is contained in b: min over y of a(y) -> b(y)."""
    same_space(b, a.universe, a.chain)
    chain = a.chain
    s = chain.n - 1
    for x, y in zip(a.idx, b.idx):
        r = chain.residuum_i(x, y)
        if r < s:
            s = r
    return chain.degrees[s]


def c_mult(c: Fraction, a: LSet) -> LSet:
    """The c-multiple: (c (*) a)(y) = c * a(y)."""
    chain = a.chain
    row = [chain.tnorm_i(chain.index_of(c), i) for i in a.idx]
    return LSet(a.universe, chain, row)


def c_shift(c: Fraction, a: LSet) -> LSet:
    """The c-shift: (c -> a)(y) = c -> a(y)."""
    chain = a.chain
    row = [chain.residuum_i(chain.index_of(c), i) for i in a.idx]
    return LSet(a.universe, chain, row)


def parse_lset(text: str, universe: Universe, chain: Chain) -> LSet:
    """Parse a literal like ``0.75/a, e``; an empty string is the empty set.

    Degrees must be chain members, exactly — no rounding.  A bare name means
    degree 1.  Degrees may be decimals or p/q (split at the last slash).
    """
    idx = [0] * len(universe)
    if text.strip() == "":
        return LSet(universe, chain, idx)
    seen = set()
    for item in text.split(","):
        item = item.strip()
        if not item:
            raise ParseError(f"empty item in literal {text!r}")
        if "/" in item:
            deg_text, name = item.rsplit("/", 1)
            name = name.strip()
            i = chain.index_of(deg_text)
        else:
            name, i = item, chain.n - 1
        if name not in universe:
            raise ParseError(f"unknown attribute {name!r} in literal {text!r}")
        if name in seen:
            raise ParseError(f"attribute {name!r} repeated in literal {text!r}")
        seen.add(name)
        idx[universe.position[name]] = i
    return LSet(universe, chain, idx)


def next_closures(universe: Universe, chain: Chain, close, cap: int):
    """The fixed points of the closure operator ``close`` on masks, in
    ascending lectic order (Ganter's NextClosure on graded sets).

    From the current closed mask A, for attribute positions i from last to
    first, close A's part before i plus the next degree above A(i) at i,
    and accept the first closure agreeing with A before i.  With s the
    offset of the first bit above i's block, A's part before i is
    ``a >> s << s`` and agreement is ``cand >> s == a >> s``; a block b one
    degree up is ``(b << 1) | 1``.  Int order is lectic order, so the masks
    come out in the order the sets would.  ``close`` is called afresh at
    each step, so it may depend on what the caller did with earlier fixed
    points, and each set yielded is the result of the last ``close`` call
    made before it.  CapExceeded once more than ``cap`` sets would be
    emitted.
    """
    sc = scale(len(universe), chain.n)
    block, width = sc.block, chain.n - 1
    positions = [(sh, sh + width) for sh in reversed(sc.shifts)]
    cur = close(0)
    emitted = 0
    while cur is not None:
        emitted += 1
        if emitted > cap:
            raise CapExceeded(f"more than {cap} closed sets")
        yield cur
        a, cur = cur, None
        for sh, s in positions:
            blk = (a >> sh) & block
            if blk == block:
                continue
            prefix = a >> s
            cand = close((prefix << s) | (((blk << 1) | 1) << sh))
            if cand >> s == prefix:
                cur = cand
                break


def forward_chain(pairs, start: int, sc: Scale, until: int | None = None, fired=None) -> int:
    """Saturate the mask ``start`` under (lhs, rhs) mask pairs on scale ``sc``
    and return the final mask.

    Each pass walks the pairs in order and fires every pair whose lhs lies
    inside the current mask and whose rhs does not: the mask becomes its
    union with rhs, at once, so later pairs of the same pass see it.  Passes
    repeat until one fires nothing, or until ``until`` lies inside the mask
    at the start of a pass.  Given a list ``fired``, each firing is appended
    to it as (pair index, before, after) masks, in firing order.  Every pass
    that fires sets a bit of the scale, so past one pass per bit and one
    more the pairs are malformed: InvariantError.
    """
    cur = start
    for _ in range(sc.top.bit_length() + 1):
        if until is not None and until & cur == until:
            return cur
        before = cur
        if fired is None:
            # a pair whose rhs is inside already adds nothing: no test for it
            for lhs, rhs in pairs:
                if lhs & cur == lhs:
                    cur |= rhs
        else:
            for k, (lhs, rhs) in enumerate(pairs):
                if lhs & cur == lhs and rhs & cur != rhs:
                    fired.append((k, cur, cur | rhs))
                    cur |= rhs
        if cur == before:
            return cur
    raise InvariantError("forward chaining failed to stabilize within one pass per scale bit")


def step_down(m: int, keep, sc: Scale, floor: int = 0) -> int:
    """Lower the degrees of the mask ``m`` on scale ``sc``, attribute by
    attribute in universe order, one degree at a time: a degree above its
    degree in the mask ``floor`` steps down while ``keep(lowered, m)`` holds
    for the mask one step lower, and one that ends at or below its floor
    degree, but above 0, drops to 0 untried.  A step clears the top set bit
    of the attribute's block; ``keep`` is called once per step tried."""
    for sh in sc.shifts:
        blk, low = (m >> sh) & sc.block, (floor >> sh) & sc.block
        while blk > low:
            lowered = m ^ (1 << (sh + blk.bit_length() - 1))
            if not keep(lowered, m):
                break
            m, blk = lowered, blk >> 1
        if 0 < blk <= low:
            m ^= blk << sh
    return m


def render_lset(a: LSet) -> str:
    """Inverse of parse_lset: omit zeros, drop the degree when it is 1."""
    top = a.chain.n - 1
    items = []
    for name, i in zip(a.universe.attributes, a.idx):
        if i == 0:
            continue
        if i == top:
            items.append(name)
        else:
            items.append(f"{render_degree(a.chain.degrees[i])}/{name}")
    return ", ".join(items)
