"""Property tests: rendered sets and theories parse back to themselves for
any legal attribute names and any chain degrees."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fai import (
    FAI,
    Chain,
    LSet,
    Theory,
    Universe,
    parse_lset,
    parse_theory,
    render_lset,
    render_theory,
)

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _legal(names) -> bool:
    try:
        Universe(names)
    except ValueError:
        return False
    return True


universes = (
    st.lists(st.text(min_size=1, max_size=5), min_size=1, max_size=4, unique=True)
    .filter(_legal)
    .map(Universe)
)

# Godel operations keep any finite set of degrees closed
chains = st.sets(
    st.fractions(min_value=0, max_value=1, max_denominator=12), max_size=4
).map(lambda inner: Chain(sorted(inner | {Fraction(0), Fraction(1)}), "godel"))


@st.composite
def lsets(draw, universe, chain):
    size = len(universe)
    idx = draw(st.lists(st.integers(0, chain.n - 1), min_size=size, max_size=size))
    return LSet(universe, chain, idx)


@given(st.data(), universes, chains)
@PROPERTY
def test_lset_round_trip(data, universe, chain):
    a = data.draw(lsets(universe, chain))
    assert parse_lset(render_lset(a), universe, chain) == a


@given(st.data(), universes, chains)
@PROPERTY
def test_theory_round_trip(data, universe, chain):
    sets = lsets(universe, chain)
    rules = data.draw(st.lists(st.builds(FAI, sets, sets), max_size=4))
    assert list(parse_theory(render_theory(Theory(rules)), universe, chain)) == rules
