"""A theory's compiled form is the undominated images of all its rules.

``semantics.compiled_pairs`` keeps, per theory and per S, the pairs of
all the theory's rules less every pair another one dominates, whichever
rule either came from.  The oracle takes every firing image of every rule
(``term_oracle.image_pairs_by_member``) and keeps those no other image
dominates by an all-pairs scan (``term_oracle.undominated_by_scan``).
The kept pairs and their order must not depend on the order of the rules
or on hash order, so CI runs this file under two hash seeds.
"""

import random

import pytest

from fai import FAI, Parameterization, Theory, complete_set, least_model, reduce_to_base
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


def test_equal_monoids_in_another_member_order_compile_again(holidays, settings):
    """The compiled form is kept beside the member tuple it was read in,
    as a rule's pairs are: an equal S listing its members in another order
    compiles the theory again, to the same pairs."""
    s = settings[6]
    t = Parameterization(reversed(s.connections), check=False)
    same = Parameterization(s.connections, check=False)
    theory = _fresh(complete_set(holidays, s))
    kept = compiled_pairs(theory, s)
    assert compiled_pairs(theory, same) is kept
    again = compiled_pairs(theory, t)
    assert again == kept and again is not kept
    assert theory._pairs[t][0] is t.connections
