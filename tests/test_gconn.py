from fractions import Fraction

import pytest

from fai import (
    CapExceeded,
    Chain,
    Connection,
    ConstMult,
    ConstMultSet,
    DegreeNotInChain,
    DiffSet,
    Identity,
    NotAMonoid,
    NotAdjoint,
    Parameterization,
    ParseError,
    Rotate,
    Universe,
    compose,
    connection_from_descriptor,
    from_hedge,
    generate_monoid,
    generators_from_descriptors,
    globalization,
    identity,
    parse_lset,
    term_to_descriptor,
    verify_adjoint,
    Hedge,
    LContext,
    UniverseMismatch,
    up,
)

from scan_oracle import iter_lsets
from term_oracle import derive_upper, lower_image

F = Fraction


@pytest.fixture(scope="module")
def small():
    """3-chain over two attributes: exhaustive sweeps stay cheap."""
    ch = Chain([F(0), F(1, 2), F(1)], "godel")
    return Universe(("x", "y")), ch


def _generator_zoo(universe, chain):
    c = parse_lset("x, 0.5/y", universe, chain)
    return [
        identity(universe, chain),
        Connection(ConstMult(F(1, 2)), universe, chain),
        Connection(ConstMultSet(c), universe, chain),
        Connection(DiffSet(c), universe, chain),
        Connection(Rotate(1), universe, chain),
        compose(Connection(Rotate(1), universe, chain), Connection(ConstMult(F(1, 2)), universe, chain)),
    ]


def test_rotate_convention(chain5, universe):
    r1 = Connection(Rotate(1), universe, chain5)
    m = parse_lset("k, 0.5/l", universe, chain5)
    assert r1.lower(m) == parse_lset("0.5/k, e", universe, chain5)
    # upper is the inverse rotation: a true adjoint, not just an involution
    assert r1.upper(r1.lower(m)) == m
    r2 = Connection(Rotate(2), universe, chain5)
    assert compose(r2, r2) == identity(universe, chain5)
    assert compose(r1, Connection(Rotate(3), universe, chain5)) == identity(universe, chain5)


def test_const_mult_composition_multiplies_constants(chain5, universe):
    a = Connection(ConstMult(F(1, 2)), universe, chain5)
    b = Connection(ConstMult(F(3, 4)), universe, chain5)
    product = chain5.degrees[chain5.tnorm_i(chain5.index_of(F(1, 2)), chain5.index_of(F(3, 4)))]
    assert compose(a, b) == Connection(ConstMult(product), universe, chain5)


def test_extensional_equality(chain5, universe):
    r1 = Connection(Rotate(1), universe, chain5)
    assert compose(identity(universe, chain5), r1) == r1
    top = parse_lset("k, l, a, e", universe, chain5)
    assert Connection(ConstMultSet(top), universe, chain5) == identity(universe, chain5)
    assert hash(compose(identity(universe, chain5), r1)) == hash(r1)


def test_composition_order(chain5, universe):
    # lower of compose(outer, inner) applies inner's lower first
    r1 = Connection(Rotate(1), universe, chain5)
    half = Connection(ConstMult(F(1, 2)), universe, chain5)
    m = parse_lset("k", universe, chain5)
    both = compose(half, r1)
    assert both.lower(m) == half.lower(r1.lower(m))
    assert both.upper(m) == r1.upper(half.upper(m))


def test_lower_determined_by_fingerprint(small):
    universe, chain = small
    for conn in _generator_zoo(universe, chain):
        fp = conn.fingerprint
        for m in iter_lsets(universe, chain):
            assert lower_image(fp, m.idx) == conn.lower(m).idx


def test_derive_upper_recovers_the_adjoint(small):
    universe, chain = small
    for conn in _generator_zoo(universe, chain):
        for b in iter_lsets(universe, chain):
            assert derive_upper(conn, b) == conn.upper(b)


def test_every_generator_is_adjoint(small):
    universe, chain = small
    for conn in _generator_zoo(universe, chain):
        assert verify_adjoint(conn)


def test_verify_adjoint_matches_brute_force(small):
    universe, chain = small

    def brute(lower, upper):
        for a in iter_lsets(universe, chain):
            for b in iter_lsets(universe, chain):
                if (lower(a) <= b) != (a <= upper(b)):
                    return False
        return True

    half = Connection(ConstMult(F(1, 2)), universe, chain)
    ident = identity(universe, chain)
    # the identity with f({1/x}) made empty: its row at x falls
    rows = list(ident.lower_masks)
    rows[0] = (0, rows[0][1], 0)
    cases = [
        (half, True),
        (ident, True),
        (Connection(ident.term, universe, chain, _masks=tuple(rows)), False),
    ]
    for conn, expected in cases:
        assert brute(conn.lower, conn.upper) == expected
        if expected:
            assert verify_adjoint(conn)
        else:
            with pytest.raises(NotAdjoint):
                verify_adjoint(conn)


def test_parameterization_checks_monoid_axioms(chain5, universe):
    r1 = Connection(Rotate(1), universe, chain5)
    r2 = Connection(Rotate(2), universe, chain5)
    ident = identity(universe, chain5)
    with pytest.raises(NotAMonoid):
        Parameterization([r2])  # identity missing
    with pytest.raises(NotAMonoid):
        Parameterization([ident, r1])  # r1 o r1 = r2 escapes
    s = Parameterization([ident, r2])
    assert len(s) == 2
    assert r2 in s and r1 not in s
    assert s.resolve(compose(r2, ident)) is r2
    assert s.compose_in(r2, r2) is s.connections[0]
    with pytest.raises(NotAMonoid):
        Parameterization([])


def test_membership_needs_the_same_universe_and_chain(small):
    """A connection over another universe, or over a chain of the same
    length with another logic, has a member's mask table but is not in S,
    and ``up`` refuses it; one over equal spaces built apart is a member."""
    universe, chain = small
    s = generate_monoid([Connection(Rotate(1), universe, chain)], universe, chain)
    strangers = [
        Connection(Rotate(1), Universe(("a", "b")), chain),
        identity(universe, Chain(chain.degrees, "lukasiewicz")),
    ]
    ctx = LContext(universe, chain, ["o"], [parse_lset("x, 0.5/y", universe, chain)])
    for conn in strangers:
        assert conn.lower_masks in {member.lower_masks for member in s}
        assert all(member != conn for member in s)
        assert conn not in s and s.resolve(conn) is None
        with pytest.raises(UniverseMismatch):
            up(ctx, [("o", conn)], s)
    twin = Connection(Rotate(1), Universe(("x", "y")), Chain(chain.degrees, "godel"))
    assert twin in s and s.resolve(twin) is s.connections[1]
    assert up(ctx, [("o", twin)], s) == s.connections[1].upper(ctx.rows[0])


def test_up_names_an_unknown_object(small):
    """An object outside the context is refused as a connection outside S
    is, naming it."""
    universe, chain = small
    s = generate_monoid([Connection(Rotate(1), universe, chain)], universe, chain)
    ctx = LContext(universe, chain, ["o"], [parse_lset("x, 0.5/y", universe, chain)])
    with pytest.raises(UniverseMismatch) as err:
        up(ctx, [("nope", s.connections[0])], s)
    assert str(err.value) == "unknown object 'nope'"


def test_generate_monoid(chain5, universe, settings):
    assert len(settings[4]) == 2
    assert len(settings[6]) == 8
    # generation is idempotent and order-insensitive
    again = generate_monoid(list(settings[6]), universe, chain5)
    assert again == settings[6]
    rev = generate_monoid(list(settings[6])[::-1], universe, chain5)
    assert rev == settings[6]
    with pytest.raises(CapExceeded):
        generate_monoid(list(settings[6]), universe, chain5, cap=3)


def test_generate_monoid_decodes_no_table(chain5, universe, settings, monkeypatch):
    from fai.fset import Scale

    calls, real = [], Scale.lower_table

    def counting(sc, masks):
        calls.append(masks)
        return real(sc, masks)

    monkeypatch.setattr(Scale, "lower_table", counting)
    s = generate_monoid(list(settings[6]), universe, chain5)
    assert len(s) == 8 and calls == []
    # the fingerprint, and so its hash, is decoded when asked for
    s.connections[1].fingerprint_hash()
    assert calls == [s.connections[1].lower_masks]


def test_from_hedge(chain5, universe):
    s = from_hedge(globalization(chain5), universe)
    assert len(s) == 2  # identity and the constant-0 multiple
    assert len(from_hedge(globalization(chain5), universe, drop_vacuous=True)) == 1
    h = Hedge(chain5, [F(1, 2), F(1)])
    assert len(from_hedge(h, universe)) == 3
    assert len(from_hedge(h, universe, drop_vacuous=True)) == 2


def test_descriptor_round_trip(chain5, universe):
    c = parse_lset("k, 0.5/a, 0.5/e", universe, chain5)
    terms = [
        Identity(),
        ConstMult(F(1, 2)),
        ConstMultSet(c),
        DiffSet(c),
        Rotate(2),
    ]
    for term in terms:
        conn = Connection(term, universe, chain5)
        back = connection_from_descriptor(term_to_descriptor(term), universe, chain5)
        assert back == conn
    composed = compose(Connection(Rotate(2), universe, chain5), Connection(DiffSet(c), universe, chain5))
    back = connection_from_descriptor(term_to_descriptor(composed.term), universe, chain5)
    assert back == composed


def test_descriptor_rejections(chain5, universe):
    with pytest.raises(ParseError):
        connection_from_descriptor({"kind": "squash"}, universe, chain5)
    with pytest.raises(ParseError):
        connection_from_descriptor({"kind": "compose", "terms": [{"kind": "identity"}]}, universe, chain5)
    # rotation shifts reduce modulo the universe size
    r = connection_from_descriptor({"kind": "rotate", "shift": 6}, universe, chain5)
    assert r == Connection(Rotate(2), universe, chain5)


@pytest.mark.parametrize("c", [float("nan"), float("inf"), float("-inf")])
def test_a_float_degree_that_is_no_number_is_not_in_the_chain(c, chain5, universe):
    # JSON's bare NaN, Infinity and -Infinity read as these floats
    with pytest.raises(DegreeNotInChain):
        connection_from_descriptor({"kind": "const-mult", "c": c}, universe, chain5)
    half = connection_from_descriptor({"kind": "const-mult", "c": 0.5}, universe, chain5)
    assert half == Connection(ConstMult(Fraction(1, 2)), universe, chain5)


@pytest.mark.parametrize(
    "desc, shown",
    [
        ({"kind": "rotate", "shift": Fraction(10**400)}, "1e+400"),
        ({"kind": "rotate", "shift": "x" * 500}, "'xxxxxxxxxxxxxxxxx...xxxxxxxxxxxxxxxxx'"),
        ({"kind": "diff-set", "C": 7 * (10**4000 - 1) // 9}, "777777777777777777...777777777777777777"),
        ({"kind": "const-mult", "c": [0] * 500}, "[0, 0, 0, 0, 0, 0,... 0, 0, 0, 0, 0, 0]"),
    ],
)
def test_a_malformed_field_is_shown_in_one_short_line(desc, shown, chain5, universe):
    kind, key = desc["kind"], next(k for k in desc if k != "kind")
    with pytest.raises(ParseError) as err:
        connection_from_descriptor(desc, universe, chain5)
    assert str(err.value) == f"{kind} descriptor has a malformed {key!r}: {shown}"


@pytest.mark.parametrize(
    "descriptors, reason",
    [
        ("x" * 500, "generators must be a list of descriptors, not"),
        ([{"kind": "x" * 500}], "unknown generator kind"),
        (["x" * 500], "a connection descriptor must be an object, not"),
    ],
)
def test_a_malformed_generator_list_is_shown_in_one_short_line(descriptors, reason, chain5, universe):
    with pytest.raises(ParseError) as err:
        generators_from_descriptors(descriptors, universe, chain5)
    assert str(err.value) == f"{reason} 'xxxxxxxxxxxxxxxxx...xxxxxxxxxxxxxxxxx'"


def test_hedge_descriptor_expansion(chain5, universe):
    gens = generators_from_descriptors(
        [{"kind": "hedge", "fixed_points": ["0.5", "1"]}], universe, chain5
    )
    assert len(gens) == 3
    gens = generators_from_descriptors(
        [{"kind": "hedge", "fixed_points": ["0.5", "1"], "drop_vacuous": True}],
        universe,
        chain5,
    )
    assert len(gens) == 2


def test_constant_set_universe_mismatch(chain5, universe):
    other = Universe(("p", "q"))
    c = parse_lset("p", other, chain5)
    with pytest.raises(Exception):
        Connection(ConstMultSet(c), universe, chain5)


def test_diff_sets_over_one_chain_share_one_dual_pair(monkeypatch):
    import fai.lattice

    chain = Chain([F(0), F(1, 2), F(1)], "lukasiewicz")
    universe = Universe(("x", "y"))
    built, real = [], fai.lattice.DualPair

    def counting(c):
        built.append(real(c))
        return built[-1]

    monkeypatch.setattr(fai.lattice, "DualPair", counting)
    for text in ("x", "0.5/y"):
        Connection(DiffSet(parse_lset(text, universe, chain)), universe, chain)
    assert len(built) == 1 and chain.dual is built[0]
