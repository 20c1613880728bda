"""The one-way domination pass keeps exactly what the two-way pass kept.

``semantics.undominated`` sorts its feed once, dominators first, and never
drops a pair it has kept.  The oracle is the pass as it was before
(``scan_oracle.undominated_by_eviction``): the pairs in the order they come,
a newcomer evicting the kept pairs it dominates.  A rule's pairs
(``rule_pairs``) and a theory's compiled form (``compiled_pairs``) must be
the very tuples the two-way pass built: the rule's images in S's order,
kept pairs sorted; the theory's rules' pairs sorted, then kept.  CI runs
this file under two hash seeds.
"""

import random

import pytest
from hypothesis import given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from fai import FAI, LContext, LSet, Theory, complete_set, generate_monoid, reduce_to_base
from fai.semantics import compiled_pairs, rule_pairs, undominated

from ladder import MINE_RUNGS, query_case, rotate_diff_generators, rung_context
from scan_oracle import undominated_by_eviction


def _fresh(rules):
    """The rules built anew, so no pairs are kept on them yet."""
    return Theory(FAI(r.antecedent, r.consequent) for r in rules)


def _rule_oracle(rule, s):
    a, b = rule.antecedent.idx, rule.consequent.idx
    return tuple(sorted(undominated_by_eviction(zip(s.lower_images(a), s.lower_images(b)))))


def _theory_oracle(theory, s):
    if len(theory) == 1:
        return _rule_oracle(theory[0], s)
    return undominated_by_eviction(sorted(p for rule in theory for p in _rule_oracle(rule, s)))


def _assert_oracle_tuples(theories, s):
    for theory in theories:
        theory = _fresh(theory)
        for rule in theory:
            assert rule_pairs(rule, s) == _rule_oracle(rule, s), rule
        assert compiled_pairs(theory, s) == _theory_oracle(theory, s)


def _mined(ctx, s):
    """The context's complete set and the base reduced from it."""
    comp = complete_set(ctx, s)
    return comp, reduce_to_base(_fresh(comp), ctx, s)


def test_holidays_complete_sets_and_bases_keep_the_oracle_tuples(holidays, settings):
    for s in settings.values():
        _assert_oracle_tuples(_mined(holidays, s), s)


@pytest.mark.parametrize("rung", MINE_RUNGS, ids=lambda r: f"{r[0]}x{r[1]}-{r[2]}-{r[3].__name__}")
def test_mined_theories_keep_the_oracle_tuples(rung):
    rng = random.Random(2700)
    for _ in range(3):
        ctx, s = rung_context(rng, *rung)
        _assert_oracle_tuples(_mined(ctx, s), s)


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_query_theories_keep_the_oracle_tuples(seed):
    _, s, theory = query_case(random.Random(seed))
    _assert_oracle_tuples([theory], s)


def test_the_456_member_monoid_keeps_the_oracle_tuples():
    gens, universe, chain = rotate_diff_generators("lukasiewicz", 3)
    s = generate_monoid(gens, universe, chain)
    assert len(s) == 456
    rng = random.Random(2701)

    def draw():
        return LSet(universe, chain, [rng.randrange(chain.n) for _ in range(len(universe))])

    ctx = LContext(universe, chain, [f"o{k}" for k in range(6)], [draw() for _ in range(6)])
    drawn = Theory(FAI(draw(), draw()) for _ in range(30))
    _assert_oracle_tuples([*_mined(ctx, s), drawn], s)


masks = st.integers(min_value=0, max_value=(1 << 8) - 1)
pair_lists = st.lists(st.tuples(masks, masks), max_size=40)


@given(st.data(), pair_lists)
@hypothesis_settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_drawn_pairs_in_any_order_keep_the_oracle_tuple(data, pairs):
    shuffled = data.draw(st.permutations(pairs))
    expected = tuple(sorted(undominated_by_eviction(pairs)))
    assert undominated(shuffled) == undominated(pairs) == expected
    # the two-way pass over the joined pairs sorted, as compiled_pairs fed it
    assert undominated_by_eviction(sorted((a, a | b) for a, b in pairs)) == expected
