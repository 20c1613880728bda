"""Isotone Galois connections on graded sets and finite monoids of them.

A connection is a pair <f, g> with f(A) <= B iff A <= g(B).  The lower map
preserves unions, so it is determined by its images of the singletons
{a/y}; that table is the connection's fingerprint and two connections are
equal exactly when their fingerprints agree.  The upper map is then fixed
too: it is the residual g(B)(y) = max {a : f({a/y}) <= B}.  So a connection
is its lower table, held in mask form only, and both maps evaluate from it.
A generator's table is read off the scale's codes, the identity's being the
codes themselves; the index-vector table is decoded only for the
fingerprint, and the term is kept for descriptors and display only.  Tables
compose in mask form (``Scale.picks``, ``Scale.compose``), and a monoid keys
its members by them.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    CapExceeded,
    InvariantError,
    NotAdjoint,
    NotAMonoid,
    ParseError,
)
from .fset import (
    LSet,
    Record,
    Universe,
    lower_mask,
    parse_lset,
    render_lset,
    same_space,
    scale,
    upper_mask,
)
from .lattice import Chain, Hedge, brief_degree, brief_value, parse_degree, render_degree


# ---------------------------------------------------------------- terms


class Identity(Record):
    __slots__ = ()


class ConstMult(Record):
    """Lower c*A (componentwise t-norm), upper c->B (componentwise shift)."""

    __slots__ = ("c",)
    c: Fraction


class ConstMultSet(Record):
    """Componentwise multiple by a fixed set: (f A)(y) = C(y)*A(y)."""

    __slots__ = ("C",)
    C: LSet


class DiffSet(Record):
    """Lower (f A)(y) = A(y) (-) C(y), upper (g B)(y) = C(y) (+) B(y)."""

    __slots__ = ("C",)
    C: LSet


class Rotate(Record):
    """Index rotation: (f A)(y_j) = A(y_{(j+shift) mod n})."""

    __slots__ = ("shift",)
    shift: int


class Compose(Record):
    """<f1,g1> o <f2,g2> = <f1.f2, g2.g1>: outer's lower runs last."""

    __slots__ = ("outer", "inner")
    outer: object
    inner: object


# ---------------------------------------------------------------- tables
#
# A lower mask table holds, per attribute y and degree index k, the mask of
# f({k/y}), 0 at k = 0; fset's lower_mask joins the images A picks.  Every
# generator sends each {k/y} to one singleton {d/z}, so row y of its table
# is the scale's codes[z] read through a degree map k |-> d; the identity's
# table is the codes.  The upper map needs no table: g(B) at y is the
# largest k with f({k/y}) inside B, which fset's upper_mask reads off.


def _term_masks(term, universe: Universe, chain: Chain):
    """The lower mask table of a term: a generator's read off the scale's
    codes through its degree maps, a composite's composed from its factors'."""
    sc = scale(len(universe), chain.n)
    if isinstance(term, Compose):
        outer = _term_masks(term.outer, universe, chain)
        inner = _term_masks(term.inner, universe, chain)
        return sc.compose(outer, sc.picks(inner))
    codes, size, ks = sc.codes, len(universe), range(chain.n)
    if isinstance(term, Identity):
        return codes
    if isinstance(term, Rotate):
        return tuple(codes[(y - term.shift) % size] for y in range(size))
    if isinstance(term, ConstMult):
        c = chain.index_of(term.c)
        return tuple(tuple(code[chain.tnorm_i(c, k)] for k in ks) for code in codes)
    if isinstance(term, (ConstMultSet, DiffSet)):
        same_space(term.C, universe, chain)
        pairs = zip(codes, term.C.idx)
        if isinstance(term, ConstMultSet):
            return tuple(tuple(code[chain.tnorm_i(c, k)] for k in ks) for code, c in pairs)
        dual = chain.dual
        return tuple(tuple(code[dual.ominus_i(k, c)] for k in ks) for code, c in pairs)
    raise TypeError(f"unknown term {term!r}")


class Connection:
    """A term bound to a universe and chain, with its lower mask table.

    ``lower_masks`` (one image mask per scale bit) is the whole connection:
    lower applies it, upper reads its residual off it, and equality and
    hashing use it.  The fingerprint is its index-vector form, decoded when
    asked for.  ``_masks`` gives the mask table outright; by default it is
    read off the scale through the term (``_term_masks``).
    """

    __slots__ = ("term", "universe", "chain", "lower_masks", "_scale", "_hash")

    def __init__(self, term, universe: Universe, chain: Chain, _masks=None):
        self.term = term
        self.universe = universe
        self.chain = chain
        self._scale = scale(len(universe), chain.n)
        self.lower_masks = _term_masks(term, universe, chain) if _masks is None else _masks
        self._hash = None

    # -- evaluation --

    def lower(self, a: LSet) -> LSet:
        if a.universe is not self.universe or a.chain is not self.chain:
            same_space(a, self.universe, self.chain)
        return LSet._from_mask(self.universe, self.chain, lower_mask(self.lower_masks, a.idx))

    def upper(self, b: LSet) -> LSet:
        if b.universe is not self.universe or b.chain is not self.chain:
            same_space(b, self.universe, self.chain)
        image = upper_mask(self.lower_masks, b.mask, self._scale.codes)
        return LSet._from_mask(self.universe, self.chain, image)

    # -- extensional identity --

    @property
    def fingerprint(self):
        """The lower table: per attribute y and degree index a >= 1, the
        index vector of f({a/y})."""
        return self._scale.lower_table(self.lower_masks)

    def fingerprint_hash(self) -> str:
        import hashlib  # loads OpenSSL; only proofs and `fai validate` hash

        payload = repr((self.fingerprint, self.chain.degrees, self.universe.attributes))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Connection)
            and self.universe == other.universe
            and self.chain == other.chain
            and self.lower_masks == other.lower_masks
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.lower_masks, self.universe.attributes))
        return self._hash

    def __repr__(self) -> str:
        return f"Connection({self.term!r})"


def identity(universe: Universe, chain: Chain) -> Connection:
    return Connection(Identity(), universe, chain)


def compose(outer: Connection, inner: Connection) -> Connection:
    """<f1,g1> o <f2,g2>: lower A |-> f1(f2(A)), upper B |-> g2(g1(B))."""
    same_space(inner, outer.universe, outer.chain)
    masks = outer._scale.compose(outer.lower_masks, outer._scale.picks(inner.lower_masks))
    return Connection(Compose(outer.term, inner.term), outer.universe, outer.chain, _masks=masks)


def verify_adjoint(conn: Connection) -> bool:
    """Check that a connection's table gives an isotone Galois connection.

    f(A) is the union of the singletons' images f({A(y)/y}), so f preserves
    unions, and so has a residual g with f(A) <= B iff A <= g(B), exactly
    when each row rises with the degree: f({a/y}) <= f({a+1/y}) for every
    attribute y and degree a.  That residual is what ``upper`` evaluates.
    Raises NotAdjoint naming the first (y, a) where a row falls.
    """
    names, degrees = conn.universe.attributes, conn.chain.degrees
    for y, row in enumerate(conn.lower_masks):
        for a in range(1, len(row) - 1):
            if row[a] & row[a + 1] != row[a]:
                low, high = (f"{{{brief_degree(degrees[k])}/{names[y]}}}" for k in (a, a + 1))
                raise NotAdjoint(
                    f"f({low}) is not inside f({high}), so f does not preserve unions "
                    "and has no upper adjoint"
                )
    return True


# ---------------------------------------------------------------- monoids


class Parameterization:
    """A finite monoid S of connections over one universe and chain.

    Construction checks that the identity belongs to S and that S is closed
    under composition (up to extensional equality).  Members are keyed by
    their lower mask tables, which composition produces.
    """

    def __init__(self, connections, check: bool = True):
        conns = tuple(connections)
        if not conns:
            raise NotAMonoid("a parameterization cannot be empty")
        self.universe = conns[0].universe
        self.chain = conns[0].chain
        for c in conns:
            same_space(c, self.universe, self.chain)
        members = {}
        for c in conns:
            members.setdefault(c.lower_masks, c)
        self.connections = tuple(members.values())
        self._members = members
        self._scale = scale(len(self.universe), self.chain.n)
        self._hash = None
        self._slices = None
        if check:
            if identity(self.universe, self.chain).lower_masks not in members:
                raise NotAMonoid("the identity connection is missing")
            picks = [self._scale.picks(b.lower_masks) for b in self.connections]
            for a in self.connections:
                for b, b_picks in zip(self.connections, picks):
                    if self._scale.compose(a.lower_masks, b_picks) not in members:
                        raise NotAMonoid(
                            f"not closed under composition: {a!r} o {b!r} escapes S"
                        )

    def __len__(self) -> int:
        return len(self.connections)

    def __iter__(self):
        return iter(self.connections)

    def __contains__(self, conn: Connection) -> bool:
        return self.resolve(conn) is not None

    def lower_images(self, idx) -> list:
        """f(A) as a mask for every member <f, g>, in S's order, A given by
        its index vector: field j of the join A picks from one bit-sliced
        table of the members' lower mask tables (``Scale.slices``), built on
        first use and kept on this S, outside its equality and hash."""
        if self._slices is None:
            self._slices = self._scale.slices([c.lower_masks for c in self.connections])
        return self._scale.fields(lower_mask(self._slices, idx), len(self.connections))

    def units(self) -> list:
        """The members other than the identity whose inverse is a member,
        in S's order; computed on each call.

        A member with an inverse in S is an order automorphism of L^Y, so it
        sends each {k/y} to some {k/z}: its mask table is the rows of
        ``Scale.codes`` in another order, an attribute permutation.  Such a
        member counts only when the table of the inverse permutation is a
        member too, so an S built unchecked that is not a monoid yields no
        unit without its inverse."""
        codes = self._scale.codes
        where = {row: z for z, row in enumerate(codes)}
        units = []
        for conn in self.connections:
            perm = []
            for row in conn.lower_masks:
                z = where.get(row)
                if z is None:
                    break
                perm.append(z)
            else:
                if conn.lower_masks == codes or len(set(perm)) != len(perm):
                    continue
                inverse = [codes[0]] * len(perm)
                for y, z in enumerate(perm):
                    inverse[z] = codes[y]
                if tuple(inverse) in self._members:
                    units.append(conn)
        return units

    def resolve(self, conn: Connection) -> Connection:
        """The member of S equal to conn, or None; one over another
        universe or chain is no member, though its mask table may be one's."""
        member = self._members.get(conn.lower_masks)
        return member if member == conn else None

    def compose_in(self, a: Connection, b: Connection) -> Connection:
        """Composition resolved to the stored member of S, composing lower
        mask tables only; InvariantError if S lacks it."""
        sc = self._scale
        member = self._members.get(sc.compose(a.lower_masks, sc.picks(b.lower_masks)))
        if member is None:
            raise InvariantError("S is not closed under composition")
        return member

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Parameterization)
            and self.universe == other.universe
            and self.chain == other.chain
            and set(self._members) == set(other._members)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.universe, self.chain, frozenset(self._members)))
        return self._hash

    def __repr__(self) -> str:
        return f"Parameterization({len(self.connections)} connections)"


def _right_cayley(identity_masks, generator_masks, sc, cap: int):
    """The monoid the generators span, from lower mask tables on scale
    ``sc``, found breadth first from the identity by composing each member
    with the generators only (every member is a word in them).

    Returns the members' mask tables in the order found, identity first;
    the right Cayley table, ``right[j][m]`` being the position of member m
    composed with generator j; and each member's word as the position of
    the member it was first reached from and that generator, None for the
    identity.  A member's source comes before it.  These are the only
    compositions monoid generation makes: |S| per generator, each reading
    the generator's picks (``Scale.picks``), decoded once.  CapExceeded past
    cap members (Froidure & Pin, "Algorithms for computing finite semigroups", 1997)."""
    compose_masks, generator_picks = sc.compose, [sc.picks(g) for g in generator_masks]
    tables = [identity_masks]
    position = {identity_masks: 0}
    right = [[] for _ in generator_masks]
    words = [None]
    for m, masks in enumerate(tables):  # the list grows as members are found
        for j, gen in enumerate(generator_picks):
            img = compose_masks(masks, gen)
            k = position.get(img)
            if k is None:
                if len(tables) == cap:
                    raise CapExceeded(f"monoid exceeds {cap} connections")
                k = position[img] = len(tables)
                tables.append(img)
                words.append((m, j))
            right[j].append(k)
    return tables, right, words


def generate_monoid(generators, universe: Universe, chain: Chain, cap: int = 4096) -> Parameterization:
    """Close the generators under composition; the identity is always added.

    Deterministic: members appear in discovery order, identity first, where
    discovery composes every pair of members found so far, round by round.
    A breadth-first search (``_right_cayley``) finds S first, with its right
    Cayley table and each member's word b = b' o g; the discovery then reads
    every product off that table, as a o b = (a o b') o g, one row of |S|
    lookups per left factor and round, and stops at S's last member.  Only
    the search composes mask tables, and no member's table is decoded.
    Raises CapExceeded when the monoid grows past cap members; the identity
    alone exceeds a cap below 1.
    """
    if cap < 1:
        raise CapExceeded(f"monoid exceeds {cap} connections")
    sc = scale(len(universe), chain.n)
    elems = [identity(universe, chain)]
    seen = {elems[0].lower_masks}
    for g in generators:
        same_space(g, universe, chain)
        if g.lower_masks not in seen:
            seen.add(g.lower_masks)
            elems.append(g)
    generator_masks = [g.lower_masks for g in elems[1:]]
    tables, right, words = _right_cayley(elems[0].lower_masks, generator_masks, sc, cap)
    size = len(tables)
    # where[i]: the search position of elems[i]; generator j is 1 o g_j
    where = [0] + [column[0] for column in right]
    found = set(where)
    while len(elems) < size:
        before = len(elems)
        for a, pa in list(zip(elems, where)):
            row = [pa]  # row[b]: the position of a o b, for b in search order
            for b_source, j in words[1:]:
                row.append(right[j][row[b_source]])
            for b, pb in list(zip(elems, where)):
                p = row[pb]
                if p in found:
                    continue
                found.add(p)
                where.append(p)
                elems.append(Connection(Compose(a.term, b.term), universe, chain, _masks=tables[p]))
                if len(elems) == size:
                    return Parameterization(elems, check=False)
        if len(elems) == before:
            raise InvariantError(f"discovery closed at {before} of {size} members")
    return Parameterization(elems, check=False)


def _hedge_multiples(hedge: Hedge, universe: Universe, drop_vacuous: bool):
    """The constant multiples by the hedge's fixed points, top first; the
    multiple by 0 maps everything to the empty set and is semantically
    vacuous, so drop_vacuous leaves it out."""
    chain = hedge.chain
    conns = []
    for f in reversed(hedge.fixed_points):
        if f == chain.n - 1:
            conns.append(identity(universe, chain))
        elif f != 0 or not drop_vacuous:
            conns.append(Connection(ConstMult(chain.degrees[f]), universe, chain))
    return conns


def from_hedge(hedge: Hedge, universe: Universe, drop_vacuous: bool = False) -> Parameterization:
    """The monoid of constant multiples/shifts by c* for c in L: the
    multiples by the hedge's fixed points, checked to form a monoid."""
    return Parameterization(_hedge_multiples(hedge, universe, drop_vacuous))


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
        # care parse their JSON with parse_float=Fraction.  NaN and infinities
        # (JSON's bare NaN and Infinity) do not parse: DegreeNotInChain
        return parse_degree(str(value))
    raise ParseError(f"cannot read degree {brief_value(value)}")


def _chain_degree(value, chain: Chain) -> Fraction:
    """A descriptor's degree, which must be in the chain; DegreeNotInChain
    quotes a literal as typed (``Chain.index_of``)."""
    return chain.degrees[chain.index_of(value if isinstance(value, str) else _degree_from(value))]


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
        raise ParseError(f"a connection descriptor must be an object, not {brief_value(desc)}")
    kind = desc.get("kind")
    fields = _DESCRIPTOR_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None or (kind == "hedge" and not allow_hedge):
        raise ParseError(f"unknown generator kind {brief_value(kind)}")
    for key, types in fields.items():
        if key not in desc:
            raise ParseError(f"{kind} descriptor lacks {key!r}")
        value = desc[key]
        if not isinstance(value, types) or isinstance(value, bool):
            raise ParseError(f"{kind} descriptor has a malformed {key!r}: {brief_value(value)}")
    if kind == "compose" and len(desc["terms"]) != 2:
        raise ParseError("compose descriptor needs exactly two terms")
    if kind == "hedge" and not isinstance(desc.get("drop_vacuous", False), bool):
        value = desc["drop_vacuous"]
        raise ParseError(f"hedge descriptor has a malformed 'drop_vacuous': {brief_value(value)}")
    return kind


def connection_from_descriptor(desc: dict, universe: Universe, chain: Chain) -> Connection:
    """Build a single connection from a JSON descriptor (no hedge expansion)."""
    kind = _checked_descriptor(desc, allow_hedge=False)
    if kind == "identity":
        term = Identity()
    elif kind == "const-mult":
        term = ConstMult(_chain_degree(desc["c"], chain))
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
    one constant multiple per fixed point.  These are generators only, so a
    hedge's multiples need not form a monoid by themselves."""
    if not isinstance(descriptors, list):
        raise ParseError(
            f"generators must be a list of descriptors, not {brief_value(descriptors)}"
        )
    conns = []
    for desc in descriptors:
        if _checked_descriptor(desc, allow_hedge=True) == "hedge":
            hedge = Hedge(chain, [_chain_degree(v, chain) for v in desc["fixed_points"]])
            conns.extend(_hedge_multiples(hedge, universe, desc.get("drop_vacuous", False)))
        else:
            conns.append(connection_from_descriptor(desc, universe, chain))
    return conns
