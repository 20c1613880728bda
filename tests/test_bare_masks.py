"""The miner on bare masks against oracles that decode.

A rule's images over S are read off one bit-sliced table per S and
pruned to the undominated ones; the per-member oracle applies each
member's own mask table and prunes by an all-pairs scan, and every image
read, pruned or not, must match it.  The Ganter pass
keeps int pairs; its views are checked against scans over every graded
set.  A set made from a mask decodes its index vector on first read and
must behave like a constructed one.  No output here may depend on hash
order, so CI runs this file under two hash seeds.
"""

import copy
import pickle
import random
from fractions import Fraction as F

import pytest

from fai import (
    FAI,
    Chain,
    LSet,
    Parameterization,
    Universe,
    complete_set,
    downup,
    generate_monoid,
    intents_enum,
    pseudo_intents,
)
from fai.context import _ganter_pass
from fai.fset import scale
from fai.semantics import rule_pairs

from ladder import MINE_RUNGS, rotate_diff_generators, rung_context
from scan_oracle import iter_lsets, pseudo_intents_by_scan
from term_oracle import images_by_member, rule_pairs_by_member


def _random_rules(rng, universe, chain, count):
    """Fresh rules, so no pairs are kept on them yet."""

    def draw():
        return LSet(universe, chain, [rng.randrange(chain.n) for _ in range(len(universe))])

    return [FAI(draw(), draw()) for _ in range(count)]


def _assert_pairs_match_oracle(rules, s):
    for rule in rules:
        # every image read off S's table, then the ones the rule keeps
        a, b = rule.antecedent.idx, rule.consequent.idx
        read = tuple(zip(s.lower_images(a), s.lower_images(b)))
        assert read == images_by_member(rule, s), rule
        assert rule_pairs(rule, s) == rule_pairs_by_member(rule, s), rule


def test_rule_pairs_match_the_per_member_oracle_on_the_worked_example(
    chain5, universe, settings, holidays
):
    rng = random.Random(18)
    for s in settings.values():
        # the worked example's complete set and random rules, built anew
        mined = [FAI(r.antecedent, r.consequent) for r in complete_set(holidays, s)]
        _assert_pairs_match_oracle(mined + _random_rules(rng, universe, chain5, 40), s)


def test_rule_pairs_match_the_per_member_oracle_on_the_456_member_monoid():
    gens, universe, chain = rotate_diff_generators("lukasiewicz", 3)
    s = generate_monoid(gens, universe, chain)
    assert len(s) == 456
    rng = random.Random(456)
    rules = _random_rules(rng, universe, chain, 30)
    rules += [FAI(LSet.bottom(universe, chain), LSet.top(universe, chain))]
    rules += [FAI(LSet.top(universe, chain), LSet.top(universe, chain))]  # no pair can fire
    _assert_pairs_match_oracle(rules, s)
    assert rule_pairs(rules[-1], s) == ()


@pytest.mark.parametrize("rung", MINE_RUNGS, ids=lambda r: f"{r[0]}x{r[1]}-{r[2]}-{r[3].__name__}")
def test_rule_pairs_match_the_per_member_oracle_on_the_ladder_rungs(rung):
    rng = random.Random(1800)
    for _ in range(2):
        ctx, s = rung_context(rng, *rung)
        comp = complete_set(ctx, s)
        mined = [FAI(r.antecedent, r.consequent) for r in comp]
        _assert_pairs_match_oracle(mined + _random_rules(rng, ctx.universe, ctx.chain, 20), s)


def test_equal_monoids_listing_members_in_another_order_keep_their_own_tables():
    gens, universe, chain = rotate_diff_generators("godel", 5)
    s = generate_monoid(gens, universe, chain)
    t = Parameterization(reversed(s.connections))
    assert s == t and hash(s) == hash(t) and s.connections != t.connections
    rng = random.Random(5)
    a = LSet(universe, chain, [rng.randrange(chain.n) for _ in range(len(universe))])
    assert t.lower_images(a.idx) == s.lower_images(a.idx)[::-1]
    assert s._slices is not t._slices and s._slices != t._slices
    # each S reads its pairs in its own member order
    differ = 0
    for rule in _random_rules(rng, universe, chain, 20):
        again = FAI(rule.antecedent, rule.consequent)
        in_s, in_t = rule_pairs(rule, s), rule_pairs(again, t)
        assert in_s == rule_pairs_by_member(rule, s)
        assert in_t == rule_pairs_by_member(again, t)
        assert set(in_s) == set(in_t)
        differ += in_s != in_t
    assert differ


def test_one_rule_read_on_equal_monoids_in_two_orders_gives_each_its_own_order():
    """A rule keeps its pairs beside the member tuple they were read in:
    the same rule object read on an equal S that lists the members in
    another order is read again in that order, and an S listing them in
    the same order reuses the kept pairs."""
    gens, universe, chain = rotate_diff_generators("godel", 5)
    s = generate_monoid(gens, universe, chain)
    t = Parameterization(reversed(s.connections), check=False)
    same = Parameterization(s.connections, check=False)
    assert len(s) == 85 and s == t == same and s.connections is not same.connections
    rng = random.Random(19)
    differ = 0
    for rule in _random_rules(rng, universe, chain, 20):
        for over in (s, t, s, t):
            assert rule_pairs(rule, over) == rule_pairs_by_member(rule, over)
        differ += rule_pairs(rule, s) != rule_pairs(rule, t)
        kept = rule_pairs(rule, s)
        assert rule_pairs(rule, s) is kept and rule_pairs(rule, same) is kept
    assert differ


def test_a_set_from_a_mask_behaves_like_a_constructed_one():
    rng = random.Random(2)
    for _ in range(100):
        n, size = rng.randint(2, 6), rng.randint(1, 6)
        chain = Chain([F(i, n - 1) for i in range(n)], "godel")
        u = Universe([f"y{k}" for k in range(size)])
        built = LSet(u, chain, [rng.randrange(n) for _ in range(size)])
        lazy = LSet._from_mask(u, chain, built.mask)
        assert lazy._idx is None  # nothing decoded before the first read
        assert lazy == built and built == lazy and hash(lazy) == hash(built)
        assert lazy.idx == built.idx and lazy.idx is lazy.idx
        for again in (
            copy.copy(LSet._from_mask(u, chain, built.mask)),
            copy.deepcopy(LSet._from_mask(u, chain, built.mask)),
            pickle.loads(pickle.dumps(LSet._from_mask(u, chain, built.mask))),
        ):
            assert type(again) is LSet and again == built and hash(again) == hash(built)
            assert again.mask == built.mask and again.idx == built.idx
        with pytest.raises(AttributeError):
            lazy.idx = built.idx
        with pytest.raises(AttributeError):
            lazy.mask = 0
        assert lazy.idx == built.idx and lazy.mask == built.mask


@pytest.mark.parametrize("rung", MINE_RUNGS, ids=lambda r: f"{r[0]}x{r[1]}-{r[2]}-{r[3].__name__}")
def test_the_pass_keeps_ints_and_its_views_match_the_scans(rung):
    rng = random.Random(1801)
    ctx, s = rung_context(rng, *rung)
    visited = _ganter_pass(ctx, s, 10**6)
    assert all(type(q) is int and type(cl) is int for q, cl in visited)
    # lectic order is int order, and every closure lies above its set
    assert [q for q, _ in visited] == sorted({q for q, _ in visited})
    assert all(q & cl == q and cl == downup(ctx, LSet._from_mask(ctx.universe, ctx.chain, q), s).mask
               for q, cl in visited)
    sets = list(iter_lsets(ctx.universe, ctx.chain))
    assert intents_enum(ctx, s) == [m for m in sets if downup(ctx, m, s) == m]
    by_scan = pseudo_intents_by_scan(ctx, s)
    assert pseudo_intents(ctx, s) == by_scan
    comp = complete_set(ctx, s)
    assert [(r.antecedent, r.consequent) for r in comp] == by_scan
    # the views hand out sets as they are constructed, indices included
    sc = scale(len(ctx.universe), ctx.chain.n)
    assert all(sc.encode(p.idx) == p.mask for p, _ in pseudo_intents(ctx, s))
