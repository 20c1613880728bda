import itertools
import random
from fractions import Fraction
from functools import reduce
from operator import and_, le, or_

import pytest

from fai import (
    Chain,
    DegreeNotInChain,
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

from fai.fset import forward_chain, lower_mask, meet_above, scale, step_down, upper_mask
from scan_oracle import idx_meet_above, iter_lsets, lset_count
from term_oracle import idx_join, idx_meet, lower_image, lower_masks

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
    assert bot.idx == (0, 0, 0, 0) and top.idx == (4, 4, 4, 4)
    assert bot.mask == 0 and top.mask != 0
    assert bot <= top and bot < top
    idx = [2, 0, 0, 4]
    m = LSet(universe, chain5, idx)
    idx[1] = 4  # the set keeps its own copy of the vector
    assert m.idx == (2, 0, 0, 4)
    assert [chain5.degrees[i] for i in m.idx] == [F(1, 2), F(0), F(0), F(1)]
    assert m == parse_lset("0.5/k, e", universe, chain5)


def test_lsets_are_immutable(chain5, universe):
    m = LSet.bottom(universe, chain5)
    with pytest.raises(AttributeError):
        m.idx = (4, 4, 4, 4)


@pytest.mark.parametrize("bad", [1.0, F(1), True, "1", None, -1, 5])
def test_indices_must_be_ints_in_the_chain(bad, chain5, universe):
    with pytest.raises(DegreeNotInChain):
        LSet(universe, chain5, [bad, 0, 0, 0])


@pytest.mark.parametrize(
    "degree, shown",
    [("1e-4300", "'1e-4300'"), ("1e4300", "'1e4300'"), (F(1, 10**4300), "1e-4300")],
)
def test_a_long_degree_outside_the_chain_is_named_in_one_short_line(
    degree, shown, chain5, universe
):
    """A literal is quoted as typed and a value cut short, never written in
    full: 10**4300 has more digits than an int may turn into a string."""
    a = parse_lset("k, 0.5/a", universe, chain5)
    for build in (lambda: chain5.index_of(degree), lambda: c_mult(degree, a)):
        with pytest.raises(DegreeNotInChain) as err:
            build()
        assert str(err.value) == f"degree {shown} is not in the chain"


def test_a_set_from_a_mask_keeps_it_and_decodes_the_vector():
    rng = random.Random(1)
    for _ in range(200):
        n, size = rng.randint(2, 6), rng.randint(1, 6)
        chain = Chain([F(i, n - 1) for i in range(n)], "godel")
        u = Universe([f"y{k}" for k in range(size)])
        sc = scale(size, n)
        m = sc.encode([rng.randrange(n) for _ in range(size)])
        a = LSet._from_mask(u, chain, m)
        assert a.mask == m and a.idx == sc.decode(m)
        assert a == LSet(u, chain, a.idx) and hash(a) == hash(LSet(u, chain, a.idx))


def test_parse_and_render(chain5, universe):
    m = parse_lset("0.75/a, e", universe, chain5)
    assert m.idx == (0, 0, 3, 4)
    assert render_lset(m) == "0.75/a, e"
    assert parse_lset("", universe, chain5).mask == 0
    assert render_lset(LSet.bottom(universe, chain5)) == ""
    assert render_lset(LSet.top(universe, chain5)) == "k, l, a, e"
    # p/q degrees split at the last slash
    ch3 = Chain([F(0), F(1, 3), F(1)], "godel")
    m = parse_lset("1/3/k", Universe(("k",)), ch3)
    assert m.idx == (1,)
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
    assert (a | b).idx == (4, 4, 1, 0)
    assert (a & b).idx == (2, 2, 0, 0)
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


def test_forward_chain_fires_in_order_and_stops():
    sc = scale(3, 3)
    enc = sc.encode
    x = enc((2, 0, 0))
    # y => z is listed before x => y, so it fires only in the second pass;
    # x => x never fires, its right side being inside already
    pairs = [
        (enc((0, 2, 0)), enc((0, 0, 2))),
        (enc((2, 0, 0)), enc((0, 2, 0))),
        (enc((2, 0, 0)), enc((2, 0, 0))),
    ]
    fired = []
    closed = forward_chain(pairs, x, sc, fired=fired)
    assert closed == enc((2, 2, 2))
    assert fired == [(1, enc((2, 0, 0)), enc((2, 2, 0))), (0, enc((2, 2, 0)), enc((2, 2, 2)))]
    # listed the other way round, both fire in one pass
    fired = []
    forward_chain(pairs[1::-1], x, sc, fired=fired)
    assert fired == [(0, enc((2, 0, 0)), enc((2, 2, 0))), (1, enc((2, 2, 0)), enc((2, 2, 2)))]
    # until is checked before each pass
    fired = []
    stopped = forward_chain(pairs, x, sc, until=enc((0, 2, 0)), fired=fired)
    assert stopped == enc((2, 2, 0)) and len(fired) == 1
    fired = []
    assert forward_chain(pairs, x, sc, until=x, fired=fired) == x and fired == []


def test_forward_chain_bounds_its_passes():
    sc = scale(1, 3)
    # malformed pairs climbing past the chain's two bits (k bits to k + 1),
    # one firing per pass: more than one pass per scale bit and one more (3)
    pairs = [((1 << k) - 1, (1 << (k + 1)) - 1) for k in reversed(range(6))]
    for fired in (None, []):
        with pytest.raises(InvariantError):
            forward_chain(pairs, 0, sc, fired=fired)
    # the same climb within the scale's two bits stabilizes inside the bound,
    # one firing per pass
    fired = []
    assert forward_chain(pairs[-2:], 0, sc, fired=fired) == sc.top
    assert [k for k, _, _ in fired] == [1, 0]
    assert forward_chain(pairs[-2:], 0, sc) == sc.top


def test_forward_chain_returns_the_same_mask_with_and_without_a_record():
    """Recording firings changes nothing about the mask returned, with or
    without ``until``, over random pairs on random scales."""
    rng = random.Random(7)
    for _ in range(300):
        sc = scale(rng.randint(1, 5), rng.randint(2, 5))
        bits = sc.top.bit_length()

        def draw():
            return rng.getrandbits(bits) & rng.getrandbits(bits)

        pairs = [(draw(), draw()) for _ in range(rng.randint(0, 12))]
        start = draw()
        for until in (None, draw()):
            fired = []
            closed = forward_chain(pairs, start, sc, until=until, fired=fired)
            assert forward_chain(pairs, start, sc, until=until) == closed
            # the record replays: each firing starts where the last ended
            cur = start
            for k, before, after in fired:
                lhs, rhs = pairs[k]
                assert before == cur and lhs & cur == lhs and rhs & cur != rhs
                assert after == before | rhs
                cur = after
            assert cur == closed


def _step_down_on_vectors(idx, keep, floor):
    """The degree-by-degree lowering of ``fset.step_down`` on index vectors."""
    idx = list(idx)
    for y in range(len(idx)):
        while idx[y] > floor[y]:
            lowered = idx[:y] + [idx[y] - 1] + idx[y + 1 :]
            if not keep(tuple(lowered), tuple(idx)):
                break
            idx = lowered
        if 0 < idx[y] <= floor[y]:
            idx[y] = 0
    return tuple(idx)


def test_step_down_walks_as_the_index_vector_walk():
    """Same result and the same trials, in the same order, as the walk on
    index vectors; a degree at or below its floor drops to 0 untried."""
    rng = random.Random(1904)
    for _ in range(300):
        n, size = rng.randint(2, 6), rng.randint(1, 5)
        sc = scale(size, n)
        idx = tuple(rng.randrange(n) for _ in range(size))
        floor = tuple(rng.randrange(n) for _ in range(size)) if rng.random() < 0.7 else (0,) * size
        salt = rng.randrange(1000)
        on_vectors, on_masks = [], []

        def keep(lowered, current, record):
            record.append((lowered, current))
            return hash((lowered, current, salt)) % 4 != 0

        expected = _step_down_on_vectors(idx, lambda lo, cur: keep(lo, cur, on_vectors), floor)
        found = step_down(
            sc.encode(idx),
            lambda lo, cur: keep(sc.decode(lo), sc.decode(cur), on_masks),
            sc,
            sc.encode(floor),
        )
        assert sc.decode(found) == expected
        assert on_masks == on_vectors


def test_vector_kernels_agree_with_the_lset_operators():
    rng = random.Random(0)
    for _ in range(300):
        n, size = rng.randint(2, 6), rng.randint(1, 6)
        chain = Chain([F(i, n - 1) for i in range(n)], "godel")
        u = Universe([f"y{k}" for k in range(size)])
        bottom, top = LSet.bottom(u, chain), LSet.top(u, chain)
        sc = scale(size, n)

        def draw():
            return LSet(u, chain, [rng.randrange(n) for _ in range(size)])

        a, b = draw(), draw()
        ma, mb = sc.encode(a.idx), sc.encode(b.idx)
        # masks: a round trip, and the mask each set carries
        assert sc.decode(ma) == a.idx and sc.decode(mb) == b.idx
        assert (a.mask, b.mask, bottom.mask, top.mask) == (ma, mb, 0, sc.top)
        # containment by ``&``, union by ``|`` and meet by ``&``, on the
        # masks and in the LSet operators built on them, against vectors
        contained = all(map(le, a.idx, b.idx))
        assert (ma & mb == ma) == (a <= b) == contained
        assert (a < b) == (contained and a.idx != b.idx)
        assert sc.decode(ma | mb) == (a | b).idx == idx_join([a.idx, b.idx], size)
        assert sc.decode(ma & mb) == (a & b).idx == idx_meet([a.idx, b.idx], size, n - 1)
        assert (a == b) == (a.idx == b.idx) and (a.mask == 0) == (a.idx == bottom.idx)
        # the masks' int order is the lectic order of the vectors
        assert (ma < mb) == (a.idx < b.idx)
        # families of every size from empty to four, the single row included
        for family in ([], [a], [a, b], [draw() for _ in range(rng.randint(3, 4))]):
            rows = [m.idx for m in family]
            assert idx_join(rows, size) == reduce(or_, family, bottom).idx
            assert idx_meet(rows, size, n - 1) == reduce(and_, family, top).idx
            above = [m for m in family if a <= m]
            assert idx_meet_above(a.idx, rows, n - 1) == reduce(and_, above, top).idx
            masks = [sc.encode(r) for r in rows]
            assert sc.decode(meet_above(ma, masks, sc.top)) == idx_meet_above(a.idx, rows, n - 1)
        # a singleton table, one row per attribute and degree, for lower_image
        # and lower_mask, which pick rows by the vector's entries, and for
        # upper_mask, which at each attribute picks the largest degree whose
        # row lies inside the set (rows drawn at random need not rise)
        table = [[draw() for _ in range(n - 1)] for _ in range(size)]
        flat = tuple(tuple(m.idx for m in row) for row in table)
        picked = [table[y][i - 1] for y, i in enumerate(a.idx) if i]
        assert lower_image(flat, a.idx) == reduce(or_, picked, bottom).idx
        masks = lower_masks(sc, flat)
        assert sc.decode(lower_mask(masks, a.idx)) == lower_image(flat, a.idx)
        residual = tuple(
            max((k for k in range(1, n) if table[y][k - 1] <= a), default=0) for y in range(size)
        )
        assert sc.decode(upper_mask(masks, ma, sc.codes)) == residual
