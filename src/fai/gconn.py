"""Isotone Galois connections on graded sets and finite monoids of them.

A connection is a pair <f, g> with f(A) <= B iff A <= g(B).  The lower map
preserves unions, so it is determined by its images of the singletons
{a/y}; that table is the connection's fingerprint and two connections are
equal exactly when their fingerprints agree.  Dually the upper map preserves
intersections, so it is determined by its images of the sets that are 1 at
every attribute but one.  A connection carries both tables and evaluates
both maps from them; its term is kept for descriptors and display only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import hashlib

from .errors import (
    CapExceeded,
    InvariantError,
    NotAdjoint,
    NotAMonoid,
    ParseError,
    UniverseMismatch,
)
from .fset import LSet, Universe, parse_lset, render_lset
from .lattice import Chain, DualPair, Hedge, parse_degree, render_degree


# ---------------------------------------------------------------- terms


@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class ConstMult:
    """Lower c*A (componentwise t-norm), upper c->B (componentwise shift)."""

    c: Fraction


@dataclass(frozen=True)
class ConstMultSet:
    """Componentwise multiple by a fixed set: (f A)(y) = C(y)*A(y)."""

    C: LSet


@dataclass(frozen=True)
class DiffSet:
    """Lower (f A)(y) = A(y) (-) C(y), upper (g B)(y) = C(y) (+) B(y)."""

    C: LSet


@dataclass(frozen=True)
class Rotate:
    """Index rotation: (f A)(y_j) = A(y_{(j+shift) mod n})."""

    shift: int


@dataclass(frozen=True)
class Compose:
    """<f1,g1> o <f2,g2> = <f1.f2, g2.g1>: outer's lower runs last."""

    outer: object
    inner: object


# ---------------------------------------------------------------- tables
#
# A lower table holds, per attribute position y and degree index a >= 1, the
# index vector of f({a/y}); f(A) is the union of the rows picked by A.  An
# upper table holds, per y and degree index b below the top, the index
# vector of g(top with b at y); g(B) is the intersection of the rows picked
# by B, and g(top) is the top set.


def _fp_apply(fp, idx):
    """Image of the set with index vector idx under the lower map given by fp."""
    rows = [fp[y][a - 1] for y, a in enumerate(idx) if a]
    if len(rows) > 1:
        return tuple(map(max, *rows))
    return rows[0] if rows else (0,) * len(idx)


def _upper_apply(table, idx):
    """Image of the set with index vector idx under the upper map given by table."""
    top = len(table[0])  # one row per degree below the top
    rows = [table[y][b] for y, b in enumerate(idx) if b != top]
    if len(rows) > 1:
        return tuple(map(min, *rows))
    return rows[0] if rows else (top,) * len(idx)


def _compose_lower(outer, inner):
    """Lower table of outer o inner: outer's lower map on inner's rows."""
    return tuple(tuple(_fp_apply(outer, row) for row in rows) for rows in inner)


def _compose_upper(outer, inner):
    """Upper table of outer o inner: inner's upper map on outer's rows."""
    return tuple(tuple(_upper_apply(inner, row) for row in rows) for rows in outer)


def _generator_maps(term, universe: Universe, chain: Chain):
    """The lower and upper map of a non-composite term, on index vectors."""
    if isinstance(term, Identity):
        return (lambda idx: idx), (lambda idx: idx)
    if isinstance(term, ConstMult):
        c = chain.index_of(term.c)
        return (
            lambda idx: tuple(chain.tnorm_i(c, i) for i in idx),
            lambda idx: tuple(chain.residuum_i(c, i) for i in idx),
        )
    if isinstance(term, (ConstMultSet, DiffSet)):
        if term.C.universe != universe or term.C.chain != chain:
            raise UniverseMismatch("generator constant set over a different universe/chain")
        cs = term.C.idx
        if isinstance(term, ConstMultSet):
            return (
                lambda idx: tuple(chain.tnorm_i(c, i) for c, i in zip(cs, idx)),
                lambda idx: tuple(chain.residuum_i(c, i) for c, i in zip(cs, idx)),
            )
        dual = DualPair(chain)
        return (
            lambda idx: tuple(dual.ominus_i(i, c) for i, c in zip(idx, cs)),
            lambda idx: tuple(dual.oplus_i(c, i) for c, i in zip(cs, idx)),
        )
    if isinstance(term, Rotate):
        n, shift = len(universe), term.shift
        return (
            lambda idx: tuple(idx[(j + shift) % n] for j in range(n)),
            lambda idx: tuple(idx[(j - shift) % n] for j in range(n)),
        )
    raise TypeError(f"unknown term {term!r}")


def _term_tables(term, universe: Universe, chain: Chain):
    """(lower table, upper table) of a term; a composite composes its factors'."""
    if isinstance(term, Compose):
        outer = _term_tables(term.outer, universe, chain)
        inner = _term_tables(term.inner, universe, chain)
        return _compose_lower(outer[0], inner[0]), _compose_upper(outer[1], inner[1])
    lower, upper = _generator_maps(term, universe, chain)
    size, top = len(universe), chain.n - 1

    def point(y, v, rest):
        return (rest,) * y + (v,) + (rest,) * (size - y - 1)

    lower_table = tuple(
        tuple(lower(point(y, a, 0)) for a in range(1, top + 1)) for y in range(size)
    )
    upper_table = tuple(
        tuple(upper(point(y, b, top)) for b in range(top)) for y in range(size)
    )
    return lower_table, upper_table


class Connection:
    """A term bound to a universe and chain, with the tables of its two maps.

    lower/upper evaluate the two adjoint maps from lower_table and
    upper_table, which are built independently, each from its own map's
    formula.  The fingerprint is the lower table; equality and hashing use
    it.
    """

    __slots__ = ("term", "universe", "chain", "lower_table", "upper_table", "_hash")

    def __init__(self, term, universe: Universe, chain: Chain, _tables=None):
        self.term = term
        self.universe = universe
        self.chain = chain
        if _tables is None:
            _tables = _term_tables(term, universe, chain)
        self.lower_table, self.upper_table = _tables
        self._hash = None

    # -- evaluation --

    def _check(self, a: LSet) -> None:
        if a.universe != self.universe or a.chain != self.chain:
            raise UniverseMismatch("argument over a different universe/chain")

    def lower(self, a: LSet) -> LSet:
        if a.universe is not self.universe or a.chain is not self.chain:
            self._check(a)
        return LSet(self.universe, self.chain, _fp_apply(self.lower_table, a.idx))

    def upper(self, b: LSet) -> LSet:
        if b.universe is not self.universe or b.chain is not self.chain:
            self._check(b)
        return LSet(self.universe, self.chain, _upper_apply(self.upper_table, b.idx))

    # -- extensional identity --

    @property
    def fingerprint(self):
        return self.lower_table

    def fingerprint_hash(self) -> str:
        payload = repr((self.fingerprint, self.chain.degrees, self.universe.attributes))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Connection)
            and self.universe == other.universe
            and self.chain == other.chain
            and self.fingerprint == other.fingerprint
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.fingerprint, self.universe.attributes))
        return self._hash

    def __repr__(self) -> str:
        return f"Connection({self.term!r})"


def identity(universe: Universe, chain: Chain) -> Connection:
    return Connection(Identity(), universe, chain)


def compose(outer: Connection, inner: Connection) -> Connection:
    """<f1,g1> o <f2,g2>: lower A |-> f1(f2(A)), upper B |-> g2(g1(B))."""
    if outer.universe != inner.universe or outer.chain != inner.chain:
        raise UniverseMismatch("cannot compose connections over different universes")
    tables = (
        _compose_lower(outer.lower_table, inner.lower_table),
        _compose_upper(outer.upper_table, inner.upper_table),
    )
    return Connection(Compose(outer.term, inner.term), outer.universe, outer.chain, _tables=tables)


def verify_adjoint(conn: Connection) -> bool:
    """Check that a connection's two tables give an isotone Galois connection.

    f(A) is the union of the singletons' images f({A(y)/y}) and g(B) the
    intersection of the co-singletons' images g(top but B(z) at z), so
    f(A) <= B iff A <= g(B) holds for all A and B exactly when

        f({a/y})(z) <= b  iff  a <= g(top but b at z)(y)

    for every attribute y, degree a > 0, attribute z and degree b below the
    top.  (It forces each lower row to rise with a.)  Raises NotAdjoint
    naming the first (y, a, z, b) where the two sides differ.
    """
    names, degrees = conn.universe.attributes, conn.chain.degrees
    for y, images in enumerate(conn.lower_table):
        for a, image in enumerate(images, start=1):
            for z, preimages in enumerate(conn.upper_table):
                for b, preimage in enumerate(preimages):
                    if (image[z] <= b) != (a <= preimage[y]):
                        raise NotAdjoint(
                            f"f({{{render_degree(degrees[a])}/{names[y]}}}) <= B and "
                            f"{{{render_degree(degrees[a])}/{names[y]}}} <= g(B) differ "
                            f"for B = 1 but {render_degree(degrees[b])} at {names[z]}"
                        )
    return True


# ---------------------------------------------------------------- monoids


class Parameterization:
    """A finite monoid S of connections over one universe and chain.

    Construction checks that the identity belongs to S and that S is closed
    under composition (up to extensional equality).
    """

    def __init__(self, connections, check: bool = True):
        conns = tuple(connections)
        if not conns:
            raise NotAMonoid("a parameterization cannot be empty")
        self.universe = conns[0].universe
        self.chain = conns[0].chain
        for c in conns:
            if c.universe != self.universe or c.chain != self.chain:
                raise UniverseMismatch("connections over different universes/chains")
        deduped = []
        fps = {}
        for c in conns:
            if c.fingerprint not in fps:
                fps[c.fingerprint] = c
                deduped.append(c)
        self.connections = tuple(deduped)
        self._by_fp = fps
        self._hash = None
        self._pairs = {}
        if check:
            ident = identity(self.universe, self.chain)
            if ident.fingerprint not in fps:
                raise NotAMonoid("the identity connection is missing")
            for a in self.connections:
                for b in self.connections:
                    if _compose_lower(a.lower_table, b.lower_table) not in fps:
                        raise NotAMonoid(
                            f"not closed under composition: {a!r} o {b!r} escapes S"
                        )

    def __len__(self) -> int:
        return len(self.connections)

    def __iter__(self):
        return iter(self.connections)

    def __contains__(self, conn: Connection) -> bool:
        return conn.fingerprint in self._by_fp

    def resolve(self, conn: Connection) -> Connection:
        """The member of S extensionally equal to conn, or None."""
        return self._by_fp.get(conn.fingerprint)

    def compose_in(self, a: Connection, b: Connection) -> Connection:
        """Composition resolved to the stored member of S, composing lower
        tables only; InvariantError if S lacks it."""
        member = self._by_fp.get(_compose_lower(a.lower_table, b.lower_table))
        if member is None:
            raise InvariantError("S is not closed under composition")
        return member

    def lower_pairs(self, a: LSet, b: LSet):
        """The distinct (f(A).idx, f(B).idx) over <f, g> in S, in S's order,
        leaving out those with f(B) <= f(A); memoized per (A, B)."""
        key = (a, b)
        pairs = self._pairs.get(key)
        if pairs is None:
            seen = {}
            for conn in self.connections:
                fa, fb = conn.lower(a).idx, conn.lower(b).idx
                if not all(x <= y for x, y in zip(fb, fa)):
                    seen[fa, fb] = None
            pairs = self._pairs[key] = tuple(seen)
        return pairs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Parameterization)
            and self.universe == other.universe
            and self.chain == other.chain
            and set(self._by_fp) == set(other._by_fp)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.universe, self.chain, frozenset(self._by_fp)))
        return self._hash

    def __repr__(self) -> str:
        return f"Parameterization({len(self.connections)} connections)"


def _monoid_size(identity_table, generator_tables, cap: int) -> int:
    """|S| for the monoid the generators span: breadth first from the
    identity, composing each member with the generators only (every member
    is a word in them).  Raises CapExceeded past cap members."""
    seen = {identity_table}
    frontier = [identity_table]
    while frontier:
        found = []
        for fp in frontier:
            for gen in generator_tables:
                img = _compose_lower(fp, gen)
                if img not in seen:
                    seen.add(img)
                    if len(seen) > cap:
                        raise CapExceeded(f"monoid exceeds {cap} connections")
                    found.append(img)
        frontier = found
    return len(seen)


def generate_monoid(generators, universe: Universe, chain: Chain, cap: int = 4096) -> Parameterization:
    """Close the generators under composition; the identity is always added.

    Deterministic: members appear in discovery order, identity first, where
    discovery composes every pair of members found so far, round by round.
    The size of S is known beforehand from a breadth-first search, so the
    discovery stops at S's last member instead of running a final round
    that only confirms closure.  Raises CapExceeded when the monoid grows
    past cap members; the identity alone exceeds a cap below 1.
    """
    if cap < 1:
        raise CapExceeded(f"monoid exceeds {cap} connections")
    elems = [identity(universe, chain)]
    fps = {elems[0].fingerprint}
    for g in generators:
        if g.universe != universe or g.chain != chain:
            raise UniverseMismatch("generator over a different universe/chain")
        if g.fingerprint not in fps:
            fps.add(g.fingerprint)
            elems.append(g)
    size = _monoid_size(elems[0].fingerprint, [g.fingerprint for g in elems[1:]], cap)
    while len(elems) < size:
        found = len(elems)
        for a in list(elems):
            for b in list(elems):
                fp = _compose_lower(a.lower_table, b.lower_table)
                if fp in fps:
                    continue
                fps.add(fp)
                upper = _compose_upper(a.upper_table, b.upper_table)
                elems.append(Connection(Compose(a.term, b.term), universe, chain, _tables=(fp, upper)))
                if len(elems) == size:
                    return Parameterization(elems, check=False)
        if len(elems) == found:
            raise InvariantError(f"discovery closed at {found} of {size} members")
    return Parameterization(elems, check=False)


def from_hedge(hedge: Hedge, universe: Universe, drop_vacuous: bool = False) -> Parameterization:
    """The monoid of constant multiples/shifts by c* for c in L.

    Its members are the constant multiples by the hedge's fixed points; the
    c* = 0 member maps everything to the empty set and is semantically
    vacuous, so drop_vacuous removes it.
    """
    chain = hedge.chain
    conns = []
    for f in reversed(hedge.fixed_points):
        if f == chain.n - 1:
            conns.append(identity(universe, chain))
        elif f == 0 and drop_vacuous:
            continue
        else:
            conns.append(Connection(ConstMult(chain.degrees[f]), universe, chain))
    return Parameterization(conns)


# ---------------------------------------------------------------- descriptors


def term_to_descriptor(term) -> dict:
    if isinstance(term, Identity):
        return {"kind": "identity"}
    if isinstance(term, ConstMult):
        return {"kind": "const-mult", "c": render_degree(term.c)}
    if isinstance(term, ConstMultSet):
        return {"kind": "const-mult-set", "C": render_lset(term.C)}
    if isinstance(term, DiffSet):
        return {"kind": "diff-set", "C": render_lset(term.C)}
    if isinstance(term, Rotate):
        return {"kind": "rotate", "shift": term.shift}
    if isinstance(term, Compose):
        return {
            "kind": "compose",
            "terms": [term_to_descriptor(term.outer), term_to_descriptor(term.inner)],
        }
    raise TypeError(f"unknown term {term!r}")


def _degree_from(value) -> Fraction:
    if isinstance(value, str):
        return parse_degree(value)
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, float):
        # exact only for representable decimals written in JSON; callers that
        # care parse their JSON with parse_float=Fraction
        return Fraction(str(value))
    raise ParseError(f"cannot read degree {value!r}")


# The keys each descriptor kind requires, with the JSON types each may take.
_DESCRIPTOR_FIELDS = {
    "identity": {},
    "const-mult": {"c": (str, int, float, Fraction)},
    "const-mult-set": {"C": (str,)},
    "diff-set": {"C": (str,)},
    "rotate": {"shift": (int,)},
    "compose": {"terms": (list,)},
    "hedge": {"fixed_points": (list,)},
}


def _checked_descriptor(desc, allow_hedge: bool) -> str:
    """The kind of a well-formed descriptor; ParseError for any other."""
    if not isinstance(desc, dict):
        raise ParseError(f"a connection descriptor must be an object, not {desc!r}")
    kind = desc.get("kind")
    fields = _DESCRIPTOR_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None or (kind == "hedge" and not allow_hedge):
        raise ParseError(f"unknown generator kind {kind!r}")
    for key, types in fields.items():
        if key not in desc:
            raise ParseError(f"{kind} descriptor lacks {key!r}")
        value = desc[key]
        if not isinstance(value, types) or isinstance(value, bool):
            raise ParseError(f"{kind} descriptor has a malformed {key!r}: {value!r}")
    if kind == "compose" and len(desc["terms"]) != 2:
        raise ParseError("compose descriptor needs exactly two terms")
    if kind == "hedge" and not isinstance(desc.get("drop_vacuous", False), bool):
        value = desc["drop_vacuous"]
        raise ParseError(f"hedge descriptor has a malformed 'drop_vacuous': {value!r}")
    return kind


def connection_from_descriptor(desc: dict, universe: Universe, chain: Chain) -> Connection:
    """Build a single connection from a JSON descriptor (no hedge expansion)."""
    kind = _checked_descriptor(desc, allow_hedge=False)
    if kind == "identity":
        term = Identity()
    elif kind == "const-mult":
        term = ConstMult(_degree_from(desc["c"]))
    elif kind == "const-mult-set":
        term = ConstMultSet(parse_lset(desc["C"], universe, chain))
    elif kind == "diff-set":
        term = DiffSet(parse_lset(desc["C"], universe, chain))
    elif kind == "rotate":
        term = Rotate(desc["shift"] % len(universe))
    else:
        outer = connection_from_descriptor(desc["terms"][0], universe, chain)
        inner = connection_from_descriptor(desc["terms"][1], universe, chain)
        return compose(outer, inner)
    return Connection(term, universe, chain)


def generators_from_descriptors(descriptors, universe: Universe, chain: Chain):
    """Expand a descriptor list into connections; hedge descriptors expand to
    one constant multiple per fixed point."""
    if not isinstance(descriptors, list):
        raise ParseError(f"generators must be a list of descriptors, not {descriptors!r}")
    conns = []
    for desc in descriptors:
        if _checked_descriptor(desc, allow_hedge=True) == "hedge":
            fps = [_degree_from(v) for v in desc["fixed_points"]]
            hedge = Hedge(chain, fps)
            conns.extend(from_hedge(hedge, universe, drop_vacuous=desc.get("drop_vacuous", False)))
        else:
            conns.append(connection_from_descriptor(desc, universe, chain))
    return conns
