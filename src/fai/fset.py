"""Graded attribute sets over a fixed finite universe.

An LSet assigns each attribute a degree from a chain; it is stored as a tuple
of chain indices in universe order.  The literal grammar is
``0.75/a, e`` — comma-separated items, ``degree/name`` with the degree omitted
when it is 1 and the whole item omitted when it is 0.
"""

from __future__ import annotations

from fractions import Fraction
from operator import le

from .errors import CapExceeded, DegreeNotInChain, InvariantError, ParseError, UniverseMismatch
from .lattice import Chain, parse_degree, render_degree

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

    __slots__ = ("universe", "chain", "idx")

    def __init__(self, universe: Universe, chain: Chain, idx):
        idx = tuple(idx)
        if len(idx) != len(universe):
            raise UniverseMismatch("degree vector length differs from universe size")
        for i in idx:
            if not 0 <= i < chain.n:
                raise DegreeNotInChain(f"index {i} outside the chain")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "idx", idx)

    def __setattr__(self, name, value):
        raise AttributeError("LSet is immutable")

    @classmethod
    def bottom(cls, universe: Universe, chain: Chain) -> "LSet":
        return cls(universe, chain, (0,) * len(universe))

    @classmethod
    def top(cls, universe: Universe, chain: Chain) -> "LSet":
        return cls(universe, chain, (chain.n - 1,) * len(universe))

    @classmethod
    def from_degrees(cls, universe: Universe, chain: Chain, mapping) -> "LSet":
        """Build from a {name: degree} mapping; absent attributes get 0."""
        idx = [0] * len(universe)
        for name, d in mapping.items():
            if name not in universe:
                raise UniverseMismatch(f"unknown attribute {name!r}")
            idx[universe.position[name]] = chain.index_of(Fraction(d))
        return cls(universe, chain, idx)

    def degree(self, name: str) -> Fraction:
        return self.chain.degrees[self.idx[self.universe.position[name]]]

    def degrees(self) -> tuple:
        return tuple(self.chain.degrees[i] for i in self.idx)

    def with_index(self, pos: int, i: int) -> "LSet":
        idx = list(self.idx)
        idx[pos] = i
        return LSet(self.universe, self.chain, idx)

    def is_bottom(self) -> bool:
        return all(i == 0 for i in self.idx)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LSet)
            and self.idx == other.idx
            and self.universe == other.universe
            and self.chain == other.chain
        )

    def __hash__(self) -> int:
        # equal sets have equal idx; __eq__ still tells universes and chains apart
        return hash(self.idx)

    def __le__(self, other: "LSet") -> bool:
        return leq(self, other)

    def __lt__(self, other: "LSet") -> bool:
        return leq(self, other) and self.idx != other.idx

    def __or__(self, other: "LSet") -> "LSet":
        return union(self, other)

    def __and__(self, other: "LSet") -> "LSet":
        return intersection(self, other)

    def __repr__(self) -> str:
        return f"LSet({render_lset(self)!r})"


def _check_compatible(a: LSet, b: LSet) -> None:
    if a.universe != b.universe or a.chain != b.chain:
        raise UniverseMismatch("operands live over different universes or chains")


def leq(a: LSet, b: LSet) -> bool:
    """Full containment: a(y) <= b(y) for every attribute."""
    _check_compatible(a, b)
    return all(x <= y for x, y in zip(a.idx, b.idx))


def union(a: LSet, b: LSet) -> LSet:
    _check_compatible(a, b)
    return LSet(a.universe, a.chain, tuple(map(max, a.idx, b.idx)))


def intersection(a: LSet, b: LSet) -> LSet:
    _check_compatible(a, b)
    return LSet(a.universe, a.chain, tuple(map(min, a.idx, b.idx)))


def subsethood(a: LSet, b: LSet) -> Fraction:
    """Degree to which a is contained in b: min over y of a(y) -> b(y)."""
    _check_compatible(a, b)
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
    row = [chain.tnorm_i(chain.index_of(Fraction(c)), i) for i in a.idx]
    return LSet(a.universe, chain, row)


def c_shift(c: Fraction, a: LSet) -> LSet:
    """The c-shift: (c -> a)(y) = c -> a(y)."""
    chain = a.chain
    row = [chain.residuum_i(chain.index_of(Fraction(c)), i) for i in a.idx]
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
            d = parse_degree(deg_text)
        else:
            name, d = item, Fraction(1)
        if name not in universe:
            raise ParseError(f"unknown attribute {name!r} in literal {text!r}")
        if name in seen:
            raise ParseError(f"attribute {name!r} repeated in literal {text!r}")
        seen.add(name)
        idx[universe.position[name]] = chain.index_of(d)
    return LSet(universe, chain, idx)


def next_closures(universe: Universe, chain: Chain, close, cap: int):
    """The fixed points of the closure operator ``close``, in ascending
    lectic order (Ganter's NextClosure on graded sets).

    From the current closed set A, for attribute positions i from last to
    first, close (A before i) + {next degree above A at i} and accept the
    first closure agreeing with A before i.  ``close`` is called afresh at
    each step, so it may depend on what the caller did with earlier
    fixed points.  CapExceeded once more than ``cap`` sets would be emitted.
    """
    size, top = len(universe), chain.n - 1
    cur = close(LSet.bottom(universe, chain))
    emitted = 0
    while cur is not None:
        emitted += 1
        if emitted > cap:
            raise CapExceeded(f"more than {cap} closed sets")
        yield cur
        a, cur = cur.idx, None
        for i in range(size - 1, -1, -1):
            if a[i] == top:
                continue
            cand = close(LSet(universe, chain, a[:i] + (a[i] + 1,) + (0,) * (size - i - 1)))
            if cand.idx[:i] == a[:i]:
                cur = cand
                break


def forward_chain(pairs, start: LSet, until: LSet | None = None):
    """Saturate ``start`` under (lhs, rhs) index-vector pairs.

    Each pass walks the pairs in order and fires every pair whose lhs lies
    inside the current vector and whose rhs does not: the vector becomes its
    union with rhs, at once, so later pairs of the same pass see it.  Passes
    repeat until one fires nothing, or until ``until`` lies inside the
    vector at the start of a pass.  Returns the final set and the firings as
    (pair index, before, after) index vectors, in firing order.  Every pass
    that fires raises a degree, so past chain.n * |Y| + 1 passes the pairs
    are malformed: InvariantError.
    """
    cur = start.idx
    stop = None if until is None else until.idx
    fired = []
    for _ in range(start.chain.n * len(start.universe) + 1):
        if stop is not None and all(map(le, stop, cur)):
            break
        n_fired = len(fired)
        for k, (lhs, rhs) in enumerate(pairs):
            if all(map(le, lhs, cur)) and not all(map(le, rhs, cur)):
                nxt = tuple(map(max, cur, rhs))
                fired.append((k, cur, nxt))
                cur = nxt
        if len(fired) == n_fired:
            break
    else:
        raise InvariantError("forward chaining failed to stabilize within the |L|*|Y| bound")
    return LSet(start.universe, start.chain, cur), fired


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
