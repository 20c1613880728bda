import itertools
from fractions import Fraction

import pytest

from fai import (
    Chain,
    FaiError,
    InvariantError,
    LSet,
    Universe,
    c_mult,
    c_shift,
    intersection,
    leq,
    parse_lset,
    render_lset,
    subsethood,
    union,
)

from fai.fset import forward_chain
from scan_oracle import iter_lsets, lset_count

F = Fraction


@pytest.fixture(scope="module")
def chain3():
    return Chain([F(0), F(1, 2), F(1)], "godel")


def test_universe_validation():
    u = Universe(("k", "l", "a", "e"))
    assert len(u) == 4 and "a" in u and u.position["e"] == 3
    with pytest.raises(ValueError):
        Universe(())
    with pytest.raises(ValueError):
        Universe(("x", "x"))
    for bad in ("a/b", "x,y", "p q", "a->b", "c\td", "e#x", "f\x0b", "\x85g", "h\u2028i"):
        with pytest.raises(ValueError):
            Universe(("ok", bad))


def test_constructors_and_accessors(chain5, universe):
    bot = LSet.bottom(universe, chain5)
    top = LSet.top(universe, chain5)
    assert bot.is_bottom() and not top.is_bottom()
    assert bot <= top and bot < top
    m = LSet.from_degrees(universe, chain5, {"k": F(1, 2), "e": F(1)})
    assert m.degree("k") == F(1, 2)
    assert m.degree("l") == F(0)
    assert m.degrees() == (F(1, 2), F(0), F(0), F(1))
    assert m.with_index(1, 4).degree("l") == F(1)
    assert m.degree("l") == F(0)  # with_index does not mutate


def test_lsets_are_immutable(chain5, universe):
    m = LSet.bottom(universe, chain5)
    with pytest.raises(AttributeError):
        m.idx = (4, 4, 4, 4)


def test_parse_and_render(chain5, universe):
    m = parse_lset("0.75/a, e", universe, chain5)
    assert m.degrees() == (F(0), F(0), F(3, 4), F(1))
    assert render_lset(m) == "0.75/a, e"
    assert parse_lset("", universe, chain5).is_bottom()
    assert render_lset(LSet.bottom(universe, chain5)) == ""
    assert render_lset(LSet.top(universe, chain5)) == "k, l, a, e"
    # p/q degrees split at the last slash
    ch3 = Chain([F(0), F(1, 3), F(1)], "godel")
    m = parse_lset("1/3/k", Universe(("k",)), ch3)
    assert m.degrees() == (F(1, 3),)
    assert render_lset(m) == "1/3/k"


@pytest.mark.parametrize("bad", ["z", "0.5/z", "k, k", "k,,e", "0.3/a"])
def test_parse_rejections(bad, chain5, universe):
    # unknown name, duplicate, empty item, and an off-chain degree
    with pytest.raises(FaiError):
        parse_lset(bad, universe, chain5)


def test_order_and_lattice_ops(chain5, universe):
    a = parse_lset("k, 0.5/l", universe, chain5)
    b = parse_lset("0.5/k, l, 0.25/a", universe, chain5)
    assert not a <= b and not b <= a
    assert leq(a, a | b) and leq(b, a | b)
    assert (a | b).degrees() == (F(1), F(1), F(1, 4), F(0))
    assert (a & b).degrees() == (F(1, 2), F(1, 2), F(0), F(0))
    assert union(a, b) == a | b
    assert intersection(a, b) == a & b
    assert a < a | b


def test_subsethood_values(chain5, universe):
    a = parse_lset("0.5/k, l", universe, chain5)
    b = parse_lset("k, 0.5/l", universe, chain5)
    assert subsethood(a, b) == F(1, 2)  # min(0.5 -> 1, 1 -> 0.5)
    assert subsethood(b, a) == F(1, 2)
    assert subsethood(a, a) == F(1)


def test_subsethood_one_iff_contained(chain3):
    u = Universe(("x", "y"))
    for a in iter_lsets(u, chain3):
        for b in iter_lsets(u, chain3):
            assert (subsethood(a, b) == 1) == (a <= b)


def test_graded_constants(chain5, universe):
    m = parse_lset("k, 0.25/l", universe, chain5)
    assert c_mult(F(1, 2), m) == parse_lset("0.5/k, 0.25/l", universe, chain5)
    assert c_shift(F(1, 2), m) == parse_lset("k, 0.25/l", universe, chain5)
    assert c_shift(F(1, 4), m) == parse_lset("k, l", universe, chain5)
    luk = Chain([F(0), F(1, 4), F(1, 2), F(3, 4), F(1)], "lukasiewicz")
    lm = parse_lset("k, 0.25/l", universe, luk)
    assert c_mult(F(1, 2), lm) == parse_lset("0.5/k", universe, luk)


def test_iteration_is_lectic(chain3):
    u = Universe(("x", "y"))
    sets = list(iter_lsets(u, chain3))
    assert len(sets) == lset_count(u, chain3) == 9
    assert all(a.idx < b.idx for a, b in zip(sets, sets[1:]))
    # containment is a suborder of the enumeration order
    pos = {m: i for i, m in enumerate(sets)}
    for a, b in itertools.combinations(sets, 2):
        if a < b:
            assert pos[a] < pos[b]
        if b < a:
            assert pos[b] < pos[a]


def test_mixed_universe_operations_are_rejected(chain5, universe):
    other = Universe(("x", "y", "z", "w"))
    a = LSet.bottom(universe, chain5)
    b = LSet.bottom(other, chain5)
    with pytest.raises(Exception):
        union(a, b)


def test_forward_chain_fires_in_order_and_stops(chain3):
    u = Universe(("x", "y", "z"))
    x = LSet(u, chain3, (2, 0, 0))
    # y => z is listed before x => y, so it fires only in the second pass;
    # x => x never fires, its right side being inside already
    pairs = [((0, 2, 0), (0, 0, 2)), ((2, 0, 0), (0, 2, 0)), ((2, 0, 0), (2, 0, 0))]
    closed, fired = forward_chain(pairs, x)
    assert closed == LSet(u, chain3, (2, 2, 2))
    assert fired == [(1, (2, 0, 0), (2, 2, 0)), (0, (2, 2, 0), (2, 2, 2))]
    # listed the other way round, both fire in one pass
    _, fired = forward_chain(pairs[1::-1], x)
    assert fired == [(0, (2, 0, 0), (2, 2, 0)), (1, (2, 2, 0), (2, 2, 2))]
    # until is checked before each pass
    stopped, fired = forward_chain(pairs, x, until=LSet(u, chain3, (0, 2, 0)))
    assert stopped == LSet(u, chain3, (2, 2, 0)) and len(fired) == 1
    assert forward_chain(pairs, x, until=x) == (x, [])


def test_forward_chain_bounds_its_passes(chain3):
    u = Universe(("x",))
    # malformed pairs climbing past the chain, one firing per pass: more
    # than chain.n * |Y| + 1 = 4 passes
    pairs = [((k,), (k + 1,)) for k in reversed(range(6))]
    with pytest.raises(InvariantError):
        forward_chain(pairs, LSet.bottom(u, chain3))
