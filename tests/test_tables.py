"""Connections evaluated from their tables against the term interpreter,
monoid generation against plain pairwise discovery, and the adjointness
check on the tables against a sweep over every graded set.  The upper map is
the residual of the lower table; each term's own upper formula
(``term_oracle.upper_idx``) checks it."""

from fractions import Fraction
import itertools
import random
import re

import pytest

from fai import (
    CapExceeded,
    Chain,
    Connection,
    ConstMult,
    ConstMultSet,
    LSet,
    NotAdjoint,
    NotAMonoid,
    Parameterization,
    Universe,
    compose,
    generate_monoid,
    identity,
    render_degree,
    verify_adjoint,
)
from fai.fset import Record, Scale, scale
from fai.gconn import DiffSet, Rotate, connection_from_descriptor

from ladder import rotate_diff_generators
from term_oracle import (
    compose_lower,
    lower_idx,
    lower_image,
    lower_masks,
    pairwise_monoid,
    upper_idx,
    verify_adjoint_by_sweep,
)

F = Fraction


def _assert_tables_match_interpreter(s, universe, chain):
    for conn in s:
        # a composite term builds the same table from its factors
        rebuilt = Connection(conn.term, universe, chain)
        assert rebuilt.fingerprint == conn.fingerprint
    for idx in itertools.product(range(chain.n), repeat=len(universe)):
        memo = {}
        b = LSet(universe, chain, idx)
        for conn in s:
            assert lower_image(conn.fingerprint, idx) == lower_idx(conn.term, idx, chain, memo)
            # the residual of the lower table is the term's own upper map
            assert conn.upper(b).idx == upper_idx(conn.term, idx, chain, memo)


def test_tables_match_interpreter_on_the_worked_example(settings, chain5, universe):
    for s in settings.values():
        _assert_tables_match_interpreter(s, universe, chain5)
        for conn in s:
            m = LSet(universe, chain5, (1, 4, 2, 0))
            assert conn.lower(m).idx == lower_idx(conn.term, m.idx, chain5)
            assert conn.upper(m).idx == upper_idx(conn.term, m.idx, chain5)


# Godel at |L| = 5 gives |S| = 85; Lukasiewicz at |L| = 5 exceeds the default
# cap, so it runs at |L| = 3 (|S| = 456); {0, 1} is the only finite chain
# closed under the Goguen product (|S| = 81).
ROTATE_DIFF_MONOIDS = [
    ("godel", 5, 85),
    ("lukasiewicz", 3, 456),
    ("goguen", 2, 81),
]


def _multiple_generators(logic, degrees):
    """const-mult and const-mult-set beside rotate(1) over three attributes."""
    chain = Chain([F(i, degrees - 1) for i in range(degrees)], logic)
    universe = Universe(["x", "y", "z"])
    const = LSet(universe, chain, [degrees - 1, degrees - 2, (degrees - 1) // 2])
    gens = [
        Connection(ConstMult(chain.degrees[degrees - 2]), universe, chain),
        Connection(ConstMultSet(const), universe, chain),
        Connection(Rotate(1), universe, chain),
    ]
    return gens, universe, chain


# Each rotate + diff-set monoid, then const-mult and const-mult-set beyond the
# Godel chain of S1-S3: (generators, logic, |L|, |S|)
GENERATED_MONOIDS = [(rotate_diff_generators, *case) for case in ROTATE_DIFF_MONOIDS] + [
    (_multiple_generators, "lukasiewicz", 3, 43),
    (_multiple_generators, "lukasiewicz", 5, 139),
    (_multiple_generators, "goguen", 2, 13),
]


@pytest.mark.parametrize(
    "generators,logic,degrees,size",
    GENERATED_MONOIDS,
    ids=lambda value: value.__name__.strip("_") if callable(value) else None,
)
def test_tables_match_interpreter_on_generated_monoids(generators, logic, degrees, size):
    gens, universe, chain = generators(logic, degrees)
    s = generate_monoid(gens, universe, chain)
    assert len(s) == size
    _assert_tables_match_interpreter(s, universe, chain)


# One generator of each kind over Lukasiewicz 0 < 1/4 < ... < 1 and (a, b, c),
# with the fingerprint hash it must keep: saved proofs and `fai validate`
# carry these bytes.
PINNED_HASHES = [
    ({"kind": "identity"}, "1bf81367437c2a3f"),
    ({"kind": "const-mult", "c": "0.75"}, "55d809d1dd74221f"),
    ({"kind": "const-mult-set", "C": "0.5/a, b, 0.25/c"}, "2d71836afa7eb33e"),
    ({"kind": "diff-set", "C": "0.25/a, 0.75/c"}, "7703806482eba639"),
    ({"kind": "rotate", "shift": 1}, "00f39661a1699642"),
    ({"kind": "compose", "terms": [
        {"kind": "rotate", "shift": 2}, {"kind": "diff-set", "C": "0.5/b"},
    ]}, "3c6cd8dff2522def"),
]


def test_generator_fingerprint_hashes_are_pinned():
    chain = Chain([F(i, 4) for i in range(5)], "lukasiewicz")
    universe = Universe(["a", "b", "c"])
    for desc, expected in PINNED_HASHES:
        assert connection_from_descriptor(desc, universe, chain).fingerprint_hash() == expected


def test_identity_and_rotation_tables_are_read_off_the_codes(monkeypatch):
    """The identity's table is the scale's codes, and building it or a
    rotation encodes and composes nothing."""
    calls = []
    for name in ("encode", "compose"):
        real = getattr(Scale, name)
        monkeypatch.setattr(
            Scale, name, lambda sc, *args, real=real, name=name: calls.append(name) or real(sc, *args)
        )
    for logic, degrees in (("godel", 5), ("lukasiewicz", 3), ("goguen", 2)):
        chain = Chain([F(i, degrees - 1) for i in range(degrees)], logic)
        for size in (1, 3, 5):
            universe = Universe([f"y{k}" for k in range(size)])
            sc = scale(size, chain.n)
            assert identity(universe, chain).lower_masks == sc.codes
            for shift in (-1, 0, 2):
                rot = Connection(Rotate(shift), universe, chain)
                # row y, read at degree k, is the interpreter's image of {k/y}
                assert rot.fingerprint == tuple(
                    tuple(
                        lower_idx(rot.term, tuple(k if z == y else 0 for z in range(size)), chain)
                        for k in range(1, chain.n)
                    )
                    for y in range(size)
                )
    assert calls == []
    # the counters count
    sc.compose(sc.codes, sc.picks(sc.codes))
    sc.encode((1,) * size)
    assert calls == ["compose", "encode"]


def test_member_order_equals_pairwise_discovery(settings, chain5, universe):
    gens6 = list(settings[6].connections[1:3])
    cases = [(gens6, universe, chain5)]
    cases += [rotate_diff_generators(logic, degrees) for logic, degrees, _ in ROTATE_DIFF_MONOIDS[:2]]
    for gens, u, ch in cases:
        expected = pairwise_monoid(gens, u, ch)
        found = generate_monoid(gens, u, ch).connections
        assert [c.fingerprint for c in found] == [c.fingerprint for c in expected]
        assert [c.term for c in found] == [c.term for c in expected]
        assert [c.fingerprint_hash() for c in found] == [c.fingerprint_hash() for c in expected]


def _monoid_cases(settings, chain5, universe):
    """(generators, universe, chain, |S|) for S6 and each rotate + diff-set
    monoid."""
    cases = [(list(settings[6].connections[1:3]), universe, chain5, 8)]
    for logic, degrees, size in ROTATE_DIFF_MONOIDS:
        cases.append((*rotate_diff_generators(logic, degrees), size))
    return cases


def test_only_the_search_composes(settings, chain5, universe, monkeypatch):
    """Generation composes each member once with each distinct non-identity
    generator, in the breadth-first search, reading the generator's picks;
    discovery reads every other product off the search's right Cayley
    table."""
    calls, real = [], Scale.compose

    def counting(sc, outer, picks):
        calls.append(picks)
        return real(sc, outer, picks)

    counts = []
    for gens, u, ch, size in _monoid_cases(settings, chain5, universe):
        # the identity and a repeated generator add no compositions
        given = [identity(u, ch), *gens, gens[0]]
        monkeypatch.setattr(Scale, "compose", counting)
        calls.clear()
        s = generate_monoid(given, u, ch)
        monkeypatch.undo()
        assert len(s) == size
        picks = [scale(len(u), ch.n).picks(g.lower_masks) for g in gens]
        assert [calls.count(p) for p in picks] == [size] * len(gens)
        counts.append(len(calls))
    # |S| x 2 generators: S6, the query-shaped 85, Lukasiewicz 456, Goguen 81
    assert counts == [16, 170, 912, 162]


def _random_generators(rng):
    """A rotation and one random const-mult, const-mult-set or diff-set over
    three or four attributes and a uniform chain of two to five degrees."""
    logic, n = rng.choice((("godel", 5), ("godel", 3), ("lukasiewicz", 4), ("goguen", 2)))
    chain = Chain([F(i, n - 1) for i in range(n)], logic)
    universe = Universe([f"y{k}" for k in range(rng.choice((3, 4)))])
    const = LSet(universe, chain, [rng.randrange(n) for _ in universe])
    term = rng.choice(
        (ConstMult(chain.degrees[rng.randrange(n)]), ConstMultSet(const), DiffSet(const))
    )
    shift = rng.randrange(1, len(universe))
    gens = [Connection(Rotate(shift), universe, chain), Connection(term, universe, chain)]
    return gens, universe, chain


def _query_shaped_generators(rng):
    """rotate(2) and a diff-set with one step at exactly two of five
    attributes, over the five-degree Godel chain: |S| = 85."""
    chain = Chain([F(i, 4) for i in range(5)], "godel")
    universe = Universe([f"y{k}" for k in range(5)])
    steps = rng.sample(range(5), 2)
    const = LSet(universe, chain, [1 if k in steps else 0 for k in range(5)])
    gens = [Connection(Rotate(2), universe, chain), Connection(DiffSet(const), universe, chain)]
    return gens, universe, chain


def test_mask_composer_matches_index_vectors():
    rng = random.Random(3306)
    cases = [_random_generators(rng) for _ in range(12)]
    cases += [_query_shaped_generators(rng) for _ in range(2)]
    for k, (gens, universe, chain) in enumerate(cases):
        s = generate_monoid(gens, universe, chain)
        expected = pairwise_monoid(gens, universe, chain)
        if k >= 12:
            assert len(s) == 85
        assert [c.fingerprint for c in s] == [c.fingerprint for c in expected]
        assert [c.term for c in s] == [c.term for c in expected]
        assert [c.fingerprint_hash() for c in s] == [c.fingerprint_hash() for c in expected]
        sc = scale(len(universe), chain.n)
        for _ in range(40):
            a, b = rng.choice(s.connections), rng.choice(s.connections)
            table = compose_lower(a.fingerprint, b.fingerprint)
            assert sc.lower_table(sc.compose(a.lower_masks, sc.picks(b.lower_masks))) == table
            assert compose(a, b).fingerprint == table
            assert s.compose_in(a, b).fingerprint == table
        # the closure check composes on masks too
        assert len(Parameterization(s.connections)) == len(s)
        if len(s) > 2:
            with pytest.raises(NotAMonoid):
                Parameterization(s.connections[:-1])


def test_cap_exceeded_at_the_same_size(settings, chain5, universe):
    gens6 = list(settings[6].connections[1:3])
    gens85, universe85, chain85 = rotate_diff_generators("godel", 5)
    for gens, u, ch, size in ((gens6, universe, chain5, 8), (gens85, universe85, chain85, 85)):
        for cap in (size - 1, 1):
            with pytest.raises(CapExceeded):
                pairwise_monoid(gens, u, ch, cap=cap)
            with pytest.raises(CapExceeded):
                generate_monoid(gens, u, ch, cap=cap)
        assert len(pairwise_monoid(gens, u, ch, cap=size)) == size
        assert len(generate_monoid(gens, u, ch, cap=size)) == size
    # every cap below |S| is exceeded, and no cap from |S| on
    for gens, u, ch, size in _monoid_cases(settings, chain5, universe):
        caps = range(-1, size + 2) if size < 100 else (-1, 0, 1, 2, 3, size - 1, size, size + 1)
        for cap in caps:
            if cap < size:
                with pytest.raises(CapExceeded, match=f"^monoid exceeds {cap} connections$"):
                    generate_monoid(gens, u, ch, cap=cap)
            else:
                assert len(generate_monoid(gens, u, ch, cap=cap)) == size


class Spread(Record):
    """f(A) = A u rotate(A): each singleton's image spans two attributes.
    Every descriptor kind acts attribute by attribute up to a rotation, so
    this generator is built from its mask table."""

    __slots__ = ("shift",)
    shift: int


def _spread(shift, universe, chain):
    ident, rot = identity(universe, chain), Connection(Rotate(shift), universe, chain)
    masks = tuple(
        tuple(a | b for a, b in zip(own, moved))
        for own, moved in zip(ident.lower_masks, rot.lower_masks)
    )
    return Connection(Spread(shift), universe, chain, _masks=masks)


@pytest.mark.parametrize("logic,degrees,size", [("godel", 4, 52), ("lukasiewicz", 3, 140)])
def test_generators_whose_images_have_several_picks(logic, degrees, size):
    """A compose-descriptor generator beside one whose images span two
    attributes: member order, terms and fingerprint hashes are the pairwise
    oracle's, each image decodes into its picks, and the cap is exceeded at
    the same size with the same message."""
    chain = Chain([F(i, degrees - 1) for i in range(degrees)], logic)
    universe = Universe(["x", "y", "z"])
    desc = {"kind": "compose", "terms": [
        {"kind": "rotate", "shift": 1},
        {"kind": "diff-set", "C": f"{render_degree(chain.degrees[1])}/x"},
    ]}
    gens = [connection_from_descriptor(desc, universe, chain), _spread(1, universe, chain)]
    assert verify_adjoint(gens[1])
    s, expected = generate_monoid(gens, universe, chain), pairwise_monoid(gens, universe, chain)
    assert len(s) == len(expected) == size
    assert [c.fingerprint for c in s] == [c.fingerprint for c in expected]
    assert [c.term for c in s] == [c.term for c in expected]
    assert [c.fingerprint_hash() for c in s] == [c.fingerprint_hash() for c in expected]
    sc = scale(len(universe), chain.n)
    several = 0
    for conn in s:
        picks = sc.picks(conn.lower_masks)
        # the nonzero entries of each image's index vector, in universe order
        assert picks == tuple(
            tuple(tuple((z, d) for z, d in enumerate(image) if d) for image in row)
            for row in conn.fingerprint
        )
        several += sum(len(image) > 1 for row in picks for image in row)
    assert several
    rng = random.Random(19)
    for _ in range(40):
        a, b = rng.choice(s.connections), rng.choice(s.connections)
        table = compose_lower(a.fingerprint, b.fingerprint)
        assert sc.lower_table(sc.compose(a.lower_masks, sc.picks(b.lower_masks))) == table
        assert s.compose_in(a, b).fingerprint == table
    assert len(Parameterization(s.connections)) == size
    for cap in (size - 1, 2):
        message = f"monoid exceeds {cap} connections"
        with pytest.raises(CapExceeded) as oracle:
            pairwise_monoid(gens, universe, chain, cap=cap)
        assert str(oracle.value) == message
        with pytest.raises(CapExceeded, match=f"^{message}$"):
            generate_monoid(gens, universe, chain, cap=cap)
    assert len(generate_monoid(gens, universe, chain, cap=size)) == size


def test_verify_adjoint_names_the_row_that_falls(settings, chain5, universe):
    """Every member of S6, with its row f({a/y}) made to fall to the empty
    set at a + 1, is rejected, and NotAdjoint names that y and a."""
    def singleton(k, y):
        return f"{{{render_degree(chain5.degrees[k])}/{universe.attributes[y]}}}"

    checked = 0
    for conn in settings[6]:
        assert verify_adjoint(conn)
        for y, row in enumerate(conn.lower_masks):
            for a in range(1, chain5.n - 1):
                if row[a] == 0:
                    continue
                rows = list(conn.lower_masks)
                rows[y] = row[: a + 1] + (0,) + row[a + 2 :]
                bad = Connection(conn.term, universe, chain5, _masks=tuple(rows))
                expected = f"f({singleton(a, y)}) is not inside f({singleton(a + 1, y)})"
                with pytest.raises(NotAdjoint, match=re.escape(expected)):
                    verify_adjoint(bad)
                checked += 1
    assert checked >= 20


def _corrupted(conn, rng):
    """conn with one entry of its lower table moved to another degree."""
    rows = [list(column) for column in conn.fingerprint]
    y = rng.randrange(len(rows))
    k = rng.randrange(len(rows[y]))
    vector = list(rows[y][k])
    z = rng.randrange(len(vector))
    vector[z] = rng.choice([v for v in range(conn.chain.n) if v != vector[z]])
    rows[y][k] = tuple(vector)
    masks = lower_masks(scale(len(conn.universe), conn.chain.n), rows)
    return Connection(conn.term, conn.universe, conn.chain, _masks=masks)


def _verdict(check, *args):
    try:
        return check(*args)
    except NotAdjoint:
        return False


# members sampled from each rotate + diff-set monoid; a sweep over the 3125
# sets of the Godel one takes about 0.3 s
SAMPLED = {"godel": 3, "lukasiewicz": 12, "goguen": 20}


def test_table_check_agrees_with_the_sweep(settings):
    rng = random.Random(20141)
    conns = [conn for s in settings.values() for conn in s]
    for logic, degrees, _ in ROTATE_DIFF_MONOIDS:
        s = generate_monoid(*rotate_diff_generators(logic, degrees))
        conns += rng.sample(s.connections, SAMPLED[logic])
    corrupted = [_corrupted(conn, rng) for conn in conns]
    for c in conns + corrupted:
        expected = _verdict(verify_adjoint_by_sweep, c.lower, c.upper, c.universe, c.chain)
        assert _verdict(verify_adjoint, c) == expected, (c.term, c.fingerprint)
    # every member passes; a corrupted table whose rows still rise is another
    # connection, with its own residual, so only some corruptions fail
    assert all(verify_adjoint(c) for c in conns)
    assert any(not _verdict(verify_adjoint, c) for c in corrupted)
