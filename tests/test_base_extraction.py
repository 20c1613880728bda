"""Base extraction on compiled masks against the oracles that re-derive.

``reduce_to_base`` tests each rule against one flat list of the other
rules' pairs, ``minimize_sides`` edits masks and chains over kept pairs
plus the candidate's, and full-mode ``is_complete`` reads the
pseudo-intents off the Ganter pass.  Each must answer as the walks that
re-run ``least_model`` on whole theories, scan every graded set, or build
the complete set.
"""

import random

import pytest

from fai import (
    FAI,
    CapExceeded,
    LSet,
    Theory,
    complete_set,
    downup,
    is_complete,
    minimize_sides,
    reduce_to_base,
)

from ladder import MINE_RUNGS, rung_context
from scan_oracle import (
    complete_by_complete_set,
    complete_by_scan,
    drop_rule,
    minimize_sides_by_entailment,
    minimize_sides_by_scan,
    reduce_to_base_by_entailment,
)

SEEDS = (1901, 1902, 1903)


def _random_set(rng, ctx):
    return LSet(ctx.universe, ctx.chain, [rng.randrange(ctx.chain.n) for _ in ctx.universe])


def _random_theory(rng, ctx, s, comp):
    """Some rules of the complete set, some rules A => downup(A) (true in
    the context) and some arbitrary rules, shuffled: rarely complete."""
    rules = [r for r in comp if rng.random() < 0.5]
    for _ in range(rng.randrange(1, 4)):
        a = _random_set(rng, ctx)
        rules.append(FAI(a, downup(ctx, a, s)))
    rules += [FAI(_random_set(rng, ctx), _random_set(rng, ctx)) for _ in range(rng.randrange(3))]
    rng.shuffle(rules)
    return Theory(rules)


def _ladder_cases(seed):
    rng = random.Random(seed)
    for rung in MINE_RUNGS:
        ctx, s = rung_context(rng, *rung)
        yield rng, ctx, s


@pytest.mark.parametrize("seed", SEEDS)
def test_reduce_to_base_matches_the_entailment_oracle_on_the_ladder(seed):
    incomplete = 0
    for rng, ctx, s in _ladder_cases(seed):
        comp = complete_set(ctx, s)
        shuffled = Theory(rng.sample(comp.rules, len(comp)))
        randoms = [_random_theory(rng, ctx, s, comp) for _ in range(3)]
        for theory in (comp, shuffled, *randoms):
            base = reduce_to_base(theory, ctx, s)
            assert base.rules == reduce_to_base_by_entailment(theory, ctx, s).rules
        incomplete += sum(not is_complete(t, ctx, s) for t in randoms)
    assert incomplete


def test_minimize_sides_matches_the_scan_oracle_on_the_ladder():
    """Each edit decided by comparing least model and downup on every
    graded set of the edited theory."""
    for _, ctx, s in _ladder_cases(SEEDS[0]):
        base = reduce_to_base(complete_set(ctx, s), ctx, s)
        assert minimize_sides(base, ctx, s).rules == minimize_sides_by_scan(base, ctx, s).rules


def test_minimize_sides_matches_both_oracles_on_the_worked_example(holidays, settings):
    for s in settings.values():
        base = reduce_to_base(complete_set(holidays, s), holidays, s)
        mini = minimize_sides(base, holidays, s)
        assert mini.rules == minimize_sides_by_entailment(base, holidays, s).rules
        assert mini.rules == minimize_sides_by_scan(base, holidays, s).rules


@pytest.mark.parametrize("seed", SEEDS)
def test_full_completeness_matches_the_complete_set_route(seed, holidays, settings):
    """Complete theories, theories with a rule false in the context, and
    theories whose rules hold but miss a model: the pass-read check
    answers as the complete-set route, and as the scan where |Y| = 4."""
    rng = random.Random(seed)
    cases = [(rng, holidays, s) for s in settings.values()]
    kinds = {"complete": 0, "false in the context": 0, "not complete": 0}
    for rng, ctx, s in [*cases, *_ladder_cases(seed)]:
        comp = complete_set(ctx, s)
        a = _random_set(rng, ctx)
        false_rule = FAI(a, LSet.top(ctx.universe, ctx.chain))
        theories = [comp, reduce_to_base(comp, ctx, s), _random_theory(rng, ctx, s, comp)]
        theories += [drop_rule(comp, i) for i in range(min(len(comp), 3))]
        if downup(ctx, a, s) != false_rule.consequent:
            theories.append(Theory([*comp, false_rule]))
        for theory in theories:
            full = is_complete(theory, ctx, s)
            assert full == complete_by_complete_set(theory, ctx, s)
            if len(ctx.universe) == 4:  # small enough to scan
                assert full == complete_by_scan(theory, ctx, s)
            if full:
                kinds["complete"] += 1
            elif not all(r.consequent <= downup(ctx, r.antecedent, s) for r in theory):
                kinds["false in the context"] += 1
            else:
                kinds["not complete"] += 1
    assert all(kinds.values()), kinds


def test_full_completeness_is_held_to_the_cap_as_the_complete_set_is(fresh_holidays, settings):
    """Past ``cap`` visited sets both routes raise the same CapExceeded,
    whether the pass runs under the cap or was kept from an uncapped run."""
    s = settings[6]
    kept = fresh_holidays()
    comp = complete_set(kept, s)
    for make in (fresh_holidays, lambda: kept):
        with pytest.raises(CapExceeded) as route:
            complete_by_complete_set(comp, make(), s, cap=5)
        with pytest.raises(CapExceeded) as full:
            is_complete(comp, make(), s, cap=5)
        assert str(full.value) == str(route.value)
    assert is_complete(comp, kept, s)
