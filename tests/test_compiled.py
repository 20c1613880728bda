"""A theory's compiled form is the undominated images of all its rules.

``semantics.compiled_pairs`` keeps, per theory and per S, the pairs of
all the theory's rules less every pair another one dominates, whichever
rule either came from.  The oracle takes every firing image of every rule
(``term_oracle.image_pairs_by_member``) and keeps those no other image
dominates by an all-pairs scan (``term_oracle.undominated_by_scan``).
The kept pairs and their order must not depend on the order of the rules,
on S's member order or on hash order, so CI runs this file under two
hash seeds.  Nor may any answer that rests on them: an equal S listing
its members in another order must give the same answers.
"""

import random

import pytest

from fai import (
    FAI,
    LContext,
    LSet,
    Parameterization,
    Theory,
    complete_set,
    entail_degree,
    is_complete,
    least_model,
    minimize_sides,
    reduce_to_base,
)
from fai.semantics import compiled_pairs, rule_pairs

from ladder import MINE_RUNGS, query_case, rung_context
from term_oracle import image_pairs_by_member, undominated_by_scan


def _fresh(rules):
    """The rules built anew, so no pairs are kept on them yet."""
    return Theory(FAI(r.antecedent, r.consequent) for r in rules)


def _oracle(theory, s):
    images = dict.fromkeys(p for rule in theory for p in image_pairs_by_member(rule, s))
    return set(undominated_by_scan(list(images)))


def _assert_compiled_is_the_scan(theory, s, rng):
    kept = compiled_pairs(theory, s)
    assert set(kept) == _oracle(theory, s)
    assert len(set(kept)) == len(kept)
    # kept on the theory, and the same tuple whatever order the rules come in
    assert compiled_pairs(theory, s) is kept
    shuffled = list(_fresh(theory))
    rng.shuffle(shuffled)
    assert compiled_pairs(Theory(shuffled), s) == kept
    return len(kept), sum(len(rule_pairs(rule, s)) for rule in theory)


def test_compiled_holidays_theories_are_the_scan(holidays, settings):
    rng = random.Random(2500)
    kept_total = per_rule_total = 0
    for s in settings.values():
        comp = _fresh(complete_set(holidays, s))
        for theory in (comp, reduce_to_base(comp, holidays, s)):
            kept, per_rule = _assert_compiled_is_the_scan(_fresh(theory), s, rng)
            kept_total, per_rule_total = kept_total + kept, per_rule_total + per_rule
    # across rules, the pass drops pairs that each rule alone keeps
    assert kept_total < per_rule_total


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_compiled_query_theories_are_the_scan(seed):
    _, s, theory = query_case(random.Random(seed))
    assert len(s) == 85 and len(theory) == 16
    kept, per_rule = _assert_compiled_is_the_scan(theory, s, random.Random(seed))
    assert kept < per_rule


@pytest.mark.parametrize("rung", MINE_RUNGS, ids=lambda r: f"{r[0]}x{r[1]}-{r[2]}-{r[3].__name__}")
def test_compiled_mined_theories_are_the_scan(rung):
    rng = random.Random(2501)
    ctx, s = rung_context(rng, *rung)
    comp = _fresh(complete_set(ctx, s))
    for theory in (comp, reduce_to_base(comp, ctx, s)):
        _assert_compiled_is_the_scan(_fresh(theory), s, rng)


def test_a_one_rule_theory_is_its_rules_pairs_and_the_empty_one_has_none(holidays, settings):
    s = settings[6]
    (rule,) = _fresh(complete_set(holidays, s)[:1])
    assert compiled_pairs(Theory([rule]), s) is rule_pairs(rule, s)
    empty = Theory([])
    assert compiled_pairs(empty, s) == ()
    m = holidays.rows[0]
    assert least_model(empty, s, m) == m


def test_equal_monoids_in_another_member_order_reuse_the_compiled_form(holidays, settings):
    """The compiled form depends on S as a set, as a rule's pairs do: an
    equal S listing its members in another order reuses the kept pairs,
    and a theory compiled afresh on it comes out the same."""
    s = settings[6]
    t = Parameterization(reversed(s.connections), check=False)
    same = Parameterization(s.connections, check=False)
    assert s == t == same and s.connections != t.connections
    theory = _fresh(complete_set(holidays, s))
    kept = compiled_pairs(theory, s)
    assert compiled_pairs(theory, same) is kept and compiled_pairs(theory, t) is kept
    assert theory._pairs == {s: kept}
    assert compiled_pairs(_fresh(theory), t) == kept


def _shuffled(s, rng):
    """An S equal to s that lists its members in another order."""
    members = list(s.connections)
    while members == list(s.connections):
        rng.shuffle(members)
    return Parameterization(members, check=False)


def _answers(ctx, s, seed):
    """Every answer that rests on compiled forms, from a fresh context and
    fresh rules, so that nothing compiled on an equal S is reused."""
    ctx = LContext(ctx.universe, ctx.chain, ctx.objects, ctx.rows)
    universe, chain = ctx.universe, ctx.chain
    rng = random.Random(seed)

    def draw():
        return LSet(universe, chain, [rng.randrange(chain.n) for _ in range(len(universe))])

    comp = complete_set(ctx, s)
    base = reduce_to_base(_fresh(comp), ctx, s)
    sets = [LSet.bottom(universe, chain), LSet.top(universe, chain), *ctx.rows]
    sets += [draw() for _ in range(10)]
    goals = [FAI(draw(), draw()) for _ in range(10)]
    theories = (_fresh(comp), _fresh(base))
    return (
        comp,
        base,
        minimize_sides(_fresh(base), ctx, s),
        is_complete(_fresh(base), ctx, s),
        is_complete(Theory(_fresh(base).rules[:-1]), ctx, s),
        [least_model(theory, s, m) for theory in theories for m in sets],
        [entail_degree(theory, g, s) for theory in theories for g in goals],
    )


def _assert_order_free(ctx, s, rng):
    t = _shuffled(s, rng)
    assert t == s and t.connections != s.connections
    seed = rng.random()
    assert _answers(ctx, t, seed) == _answers(ctx, s, seed)


def test_holidays_answers_do_not_depend_on_member_order(holidays, settings):
    rng = random.Random(2600)
    for s in settings.values():
        _assert_order_free(holidays, s, rng)


@pytest.mark.parametrize("rung", MINE_RUNGS, ids=lambda r: f"{r[0]}x{r[1]}-{r[2]}-{r[3].__name__}")
def test_mined_answers_do_not_depend_on_member_order(rung):
    rng = random.Random(2601)
    ctx, s = rung_context(rng, *rung)
    _assert_order_free(ctx, s, rng)
