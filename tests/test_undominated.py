"""A rule's kept pairs are its undominated images, and chaining over them
is chaining over every image.

``semantics.rule_pairs`` keeps, per rule and per S, only the images
(f(A), f(B)) that no other image of the same rule dominates.  The oracle
pairs (``term_oracle.image_pairs_by_member``) are every distinct firing
image; each closure, entailment, base and minimization, the trial edits
of side minimization among them, must come out the same on them.  The
kept pairs and their order must not depend on hash order, so CI runs
this file under two hash seeds.
"""

import itertools
import random

import fai.context
import fai.semantics
from fai import (
    FAI,
    LContext,
    LSet,
    Theory,
    complete_set,
    entails,
    generate_monoid,
    is_complete,
    least_model,
    minimize_sides,
    models_enum,
    reduce_to_base,
    t_step,
)
from fai.semantics import rule_pairs, undominated

from ladder import MINE_RUNGS, rotate_diff_generators, rung_context
from term_oracle import dominates, firing_pairs, image_pairs_by_member


def _random_set(rng, universe, chain):
    return LSet(universe, chain, [rng.randrange(chain.n) for _ in range(len(universe))])


def _random_rules(rng, universe, chain, count):
    return [FAI(_random_set(rng, universe, chain), _random_set(rng, universe, chain)) for _ in range(count)]


def _cases(holidays, settings):
    """(context, S): the worked example under S1-S6, a context per ladder
    rung, and random contexts over the |S| = 85 and 456-member monoids."""
    for s in settings.values():
        yield holidays, s
    rng = random.Random(2300)
    for rung in MINE_RUNGS:
        yield rung_context(rng, *rung)
    for (logic, degrees), size in ((("godel", 5), 85), (("lukasiewicz", 3), 456)):
        gens, universe, chain = rotate_diff_generators(logic, degrees)
        s = generate_monoid(gens, universe, chain)
        assert len(s) == size
        rows = [_random_set(rng, universe, chain) for _ in range(6)]
        yield LContext(universe, chain, [f"o{k}" for k in range(6)], rows), s


def test_kept_pairs_are_the_undominated_images(holidays, settings):
    rng = random.Random(23)
    every_total = kept_total = 0
    for ctx, s in _cases(holidays, settings):
        mined = [FAI(r.antecedent, r.consequent) for r in complete_set(ctx, s)]
        for rule in mined + _random_rules(rng, ctx.universe, ctx.chain, 20):
            every, kept = image_pairs_by_member(rule, s), rule_pairs(rule, s)
            every_total, kept_total = every_total + len(every), kept_total + len(kept)
            # each kept pair is an image, b joined to a, and none dominates another
            assert set(kept) <= {(a, a | b) for a, b in every}, rule
            assert not any(dominates(p, q) for p, q in itertools.permutations(kept, 2)), rule
            # every image left out is dominated by a kept pair
            for a, b in every:
                if (a, a | b) not in kept:
                    assert any(dominates(k, (a, b)) for k in kept), rule
            # in any order the images come, the same pairs are kept
            assert set(undominated(every[::-1])) == set(kept), rule
    assert kept_total < every_total


def test_mutually_dominating_pairs_keep_one_pair_whatever_their_order():
    # (0b001, 0b110) and (0b001, 0b111) add the same to a set holding 0b001
    first, second = (0b001, 0b110), (0b001, 0b111)
    assert dominates(first, second) and dominates(second, first)
    assert undominated((first, second)) == undominated((second, first)) == ((0b001, 0b111),)
    # a pair with a smaller lhs and as much beyond it drops a later one ...
    assert undominated(((0b001, 0b110), (0b011, 0b110))) == ((0b001, 0b111),)
    # ... and an earlier one, which leaves the kept list
    assert undominated(((0b011, 0b100), (0b101, 0b010), (0b001, 0b110))) == ((0b001, 0b111),)
    # neither dominates: both stay, in order
    assert undominated(((0b001, 0b010), (0b010, 0b100))) == ((0b001, 0b011), (0b010, 0b110))
    assert undominated(()) == () and undominated(((0b01, 0b10),)) == ((0b01, 0b11),)
    # pairs that cannot fire and repeats go
    assert undominated(((0b01, 0b01), (0b01, 0b10), (0b11, 0b01), (0b01, 0b10))) == ((0b01, 0b11),)


def _results(ctx, s, theories, sets, goals):
    """Every answer that chains over the rules' pairs, for each theory."""
    out = []
    for theory in theories:
        out.append([least_model(theory, s, m) for m in sets])
        out.append([t_step(m, theory, s) for m in sets])
        out.append([entails(theory, g, s) for g in goals])
        out.append(models_enum(theory, s))
        out.append(reduce_to_base(theory, ctx, s))
        out.append(is_complete(theory, ctx, s))
    return out


def test_chaining_over_kept_pairs_matches_the_unpruned_oracle_pairs(holidays, settings, monkeypatch):
    rng = random.Random(2301)
    for ctx, s in _cases(holidays, settings):
        universe, chain = ctx.universe, ctx.chain
        comp = complete_set(ctx, s)
        shuffled = list(comp)
        rng.shuffle(shuffled)
        theories = [comp, Theory(shuffled), Theory(_random_rules(rng, universe, chain, 8))]
        sets = [LSet.bottom(universe, chain), LSet.top(universe, chain), *ctx.rows]
        sets += [_random_set(rng, universe, chain) for _ in range(20)]
        goals = _random_rules(rng, universe, chain, 20) + [FAI(m, least_model(comp, s, m)) for m in sets]

        def answers():
            # fresh rules each time, so no pairs kept on them are shared
            fresh = [Theory(FAI(r.antecedent, r.consequent) for r in t) for t in theories]
            base = reduce_to_base(fresh[0], ctx, s)
            return _results(ctx, s, fresh, sets, goals), minimize_sides(base, ctx, s)

        pruned = answers()
        with monkeypatch.context() as patch:
            patch.setattr(fai.semantics, "rule_pairs", image_pairs_by_member)
            patch.setattr(fai.context, "rule_pairs", image_pairs_by_member)
            patch.setattr(fai.context, "undominated", firing_pairs)
            unpruned = answers()
        assert pruned == unpruned

