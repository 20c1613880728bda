"""Base reduction drops, before compiling them, the rules a unit of S maps
to a rule further on.

A unit of S is a member with an inverse in S; ``Parameterization.units``
finds the ones other than the identity as the members whose mask tables
permute the rows of ``Scale.codes`` and whose inverse tables are members.
``reduce_to_base`` applies each to every rule's masks by block moves
(``fset.move_blocks``) and drops rule i when some image is a rule with a
last index past i.  The bases must be those of the walk that re-runs
``least_model`` on whole theories (``scan_oracle``), and the units those a
brute-force search for inverses over ``compose_in`` finds.  No answer may
rest on hash order, so CI runs this file under two hash seeds.
"""

import functools
import math
import random

import pytest

from fai import (
    FAI,
    Connection,
    LContext,
    LSet,
    Parameterization,
    Rotate,
    Theory,
    Universe,
    UniverseMismatch,
    complete_set,
    generate_monoid,
    identity,
    pseudo_intents,
    reduce_to_base,
)
from fai.fset import lower_mask, move_blocks, scale

from ladder import MINE_RUNGS, ladder_case, query_case, rotate_diff_generators, rung_context
from scan_oracle import reduce_to_base_by_entailment


def _fresh(rules):
    """The rules built anew, so no pairs are kept on them yet."""
    return Theory(FAI(r.antecedent, r.consequent) for r in rules)


def _rung_id(rung):
    return f"{rung[0]}x{rung[1]}-{rung[2]}-{rung[3].__name__}"


@functools.lru_cache(maxsize=None)
def _units_by_search(s):
    """The members other than the identity with a two-sided inverse in S,
    found by composing every pair of members."""
    one = s.resolve(identity(s.universe, s.chain))
    return [
        u
        for u in s
        if u is not one and any(s.compose_in(u, v) is one and s.compose_in(v, u) is one for v in s)
    ]


def _later_unit_image(theory, s):
    """Per rule, whether some unit found by search maps it, side for side,
    to a rule further on; images read through ``Connection.lower``."""
    units, rules = _units_by_search(s), list(theory)
    return [
        any(
            FAI(u.lower(r.antecedent), u.lower(r.consequent)) in rules[i + 1 :]
            for u in units
        )
        for i, r in enumerate(rules)
    ]


def _assert_base_is_the_oracle(theory, ctx, s):
    """reduce_to_base on fresh rules answers as the oracle, and the rules
    the prefilter drops are never compiled while every other rule is; per
    rule, whether it was dropped."""
    fresh = _fresh(theory)
    base = reduce_to_base(fresh, ctx, s)
    assert base == reduce_to_base_by_entailment(_fresh(theory), ctx, s)
    dropped = _later_unit_image(fresh, s)
    for rule, drop in zip(fresh, dropped):
        assert (rule._pairs == {}) is drop
    return dropped


@functools.lru_cache(maxsize=None)
def _monoid_456():
    return generate_monoid(*rotate_diff_generators("lukasiewicz", 3))


def _random_rules(rng, s, count):
    """Random rules A => B over S's universe with A inside B."""
    n, rules = s.chain.n, []
    for _ in range(count):
        a = [rng.randrange(n) for _ in s.universe]
        b = [max(k, rng.randrange(n)) for k in a]
        rules.append(FAI(LSet(s.universe, s.chain, a), LSet(s.universe, s.chain, b)))
    return rules


def test_units_are_the_brute_force_inverses_on_the_worked_example(settings):
    for i, s in settings.items():
        assert s.units() == _units_by_search(s)
        assert len(s.units()) == (1 if i in (4, 6) else 0)


@pytest.mark.parametrize("rung", MINE_RUNGS, ids=_rung_id)
def test_units_are_the_brute_force_inverses_on_the_ladder_rungs(rung):
    _, s = rung_context(random.Random(2800), *rung)
    assert s.units() == _units_by_search(s)
    # rotate(shift) and its powers other than the identity
    ny, shift = rung[0], rung[4]
    assert len(s.units()) == ny // math.gcd(ny, shift) - 1


def test_units_are_the_brute_force_inverses_on_the_query_monoid():
    _, s, _ = query_case(random.Random(0))
    assert len(s) == 85
    assert s.units() == _units_by_search(s)
    assert len(s.units()) == 4


def test_units_are_the_brute_force_inverses_on_the_456_member_monoid():
    s = _monoid_456()
    assert len(s) == 456
    assert s.units() == _units_by_search(s)
    assert len(s.units()) == 4


def test_an_unchecked_s_without_the_inverse_has_no_unit(chain5):
    universe = Universe(("a", "b", "c"))
    one, r1, r2 = (Connection(Rotate(k), universe, chain5) for k in (0, 1, 2))
    assert Parameterization([identity(universe, chain5), r1], check=False).units() == []
    assert Parameterization([one, r1, r2], check=False).units() == [r1, r2]


def test_block_moves_are_the_lower_masks_of_the_units():
    rng = random.Random(2801)
    cases = [query_case(random.Random(1))[1], _monoid_456()]
    cases += [rung_context(rng, *rung)[1] for rung in MINE_RUNGS]
    for s in cases:
        sc, n = scale(len(s.universe), s.chain.n), s.chain.n
        for u in s.units():
            moves = sc.moves(u.lower_masks)
            for _ in range(30):
                idx = [rng.randrange(n) for _ in s.universe]
                assert move_blocks(moves, sc.encode(idx)) == lower_mask(u.lower_masks, idx)


def test_reduction_of_the_worked_example_is_the_oracle(holidays, settings):
    rng = random.Random(2802)
    dropped = 0
    for s in settings.values():
        rules = list(complete_set(holidays, s))
        dropped += sum(_assert_base_is_the_oracle(rules, holidays, s))
        # duplicates, shuffled in
        twice = rules + rng.sample(rules, len(rules) // 2)
        rng.shuffle(twice)
        dropped += sum(_assert_base_is_the_oracle(twice, holidays, s))
    assert dropped > 0


@pytest.mark.parametrize("rung", MINE_RUNGS, ids=_rung_id)
def test_reduction_of_mined_theories_is_the_oracle(rung):
    rng = random.Random(2803)
    dropped = 0
    for _ in range(3):
        ctx, s = rung_context(rng, *rung)
        rules = list(complete_set(ctx, s))
        shuffled = rules + rng.sample(rules, len(rules) // 3)
        rng.shuffle(shuffled)
        half = rng.sample(rules, len(rules) // 2)
        for theory in (rules, shuffled, half):
            dropped += sum(_assert_base_is_the_oracle(theory, ctx, s))
    assert dropped > 0


def test_order_three_orbits_reduce_as_the_oracle():
    # rotate(2) on six attributes has order 3: rotate(2) and rotate(4) are the units
    rng = random.Random(2804)
    ctx, s = rung_context(rng, *MINE_RUNGS[4])
    assert (len(ctx.universe), ctx.chain.n) == (6, 3)
    assert [u.lower_masks for u in s.units()] == [
        Connection(Rotate(k), ctx.universe, ctx.chain).lower_masks for k in (2, 4)
    ]
    rules = list(complete_set(ctx, s))
    assert any(_assert_base_is_the_oracle(rules, ctx, s))
    # each rule with both its images, in a random order
    u2, u4 = s.units()
    orbits = [FAI(u.lower(r.antecedent), u.lower(r.consequent)) for r in rules for u in (u2, u4)]
    mixed = rules + orbits
    rng.shuffle(mixed)
    assert any(_assert_base_is_the_oracle(mixed, ctx, s))


def test_a_rule_fixed_by_its_units_is_kept_until_a_copy_follows():
    s = _monoid_456()
    ctx = LContext(s.universe, s.chain, (), ())
    fixed = FAI(LSet(s.universe, s.chain, [1] * 5), LSet(s.universe, s.chain, [2] * 5))
    for u in s.units():
        assert FAI(u.lower(fixed.antecedent), u.lower(fixed.consequent)) == fixed
    others = _random_rules(random.Random(2806), s, 12)
    # alone it is its own last image, so it is compiled; a copy further on
    # is every unit's image of it
    assert _assert_base_is_the_oracle([fixed, *others], ctx, s)[0] is False
    dropped = _assert_base_is_the_oracle([fixed, *others, fixed], ctx, s)
    assert dropped[0] is True and dropped[-1] is False


def test_the_456_member_monoid_reduces_as_the_oracle():
    s = _monoid_456()
    ctx, rng = LContext(s.universe, s.chain, (), ()), random.Random(2808)
    rules = _random_rules(rng, s, 16)
    images = [FAI(u.lower(r.antecedent), u.lower(r.consequent)) for r in rules[:8] for u in s.units()]
    mixed = rules + images + rng.sample(rules, 4)
    rng.shuffle(mixed)
    assert any(_assert_base_is_the_oracle(mixed, ctx, s))


def test_a_foreign_rule_raises_even_where_the_prefilter_would_drop_it(settings, holidays):
    s = settings[6]
    (u,) = s.units()
    rule = next(iter(complete_set(holidays, s)))
    image = FAI(u.lower(rule.antecedent), u.lower(rule.consequent))
    foreign = Universe(("k2", "l2", "a2", "e2"))
    alien = FAI(*(LSet(foreign, s.chain, side.idx) for side in (rule.antecedent, rule.consequent)))
    with pytest.raises(UniverseMismatch):
        reduce_to_base(Theory([alien, image]), holidays, s)


@pytest.mark.parametrize(
    "ny, seed, size, pseudo, base", [(7, 0, 259, 196, 28), (8, 2, 48, 388, 100)]
)
def test_ladder_cases_keep_their_counts(ny, seed, size, pseudo, base, monkeypatch):
    ctx, s = ladder_case(ny, seed)
    assert len(s) == size
    assert len(pseudo_intents(ctx, s)) == pseudo
    comp = complete_set(ctx, s)
    reduced = reduce_to_base(_fresh(comp), ctx, s)
    assert len(reduced) == base
    # the same base as the walk over every rule, with no unit to prefilter by
    monkeypatch.setattr(Parameterization, "units", lambda self: [])
    assert reduce_to_base(_fresh(comp), ctx, s) == reduced
