"""Property tests: rendered sets and theories parse back to themselves for
any legal attribute names and any chain degrees; every connection term is
adjoint over all three logics, with the residual of its lower table equal to
its own upper formula; connection descriptors and proof files parse
back to what was written; synthesized proofs check and normalize to a fixed
point."""

from fractions import Fraction
import json

from hypothesis import given, settings as hypothesis_settings
from hypothesis import strategies as st
import pytest

from fai import (
    FAI,
    Chain,
    Compose,
    Connection,
    ConstMult,
    ConstMultSet,
    DiffSet,
    Identity,
    LSet,
    Rotate,
    Theory,
    Universe,
    check_proof,
    complete_set,
    connection_from_descriptor,
    generate_monoid,
    least_model,
    normalize_proof,
    parse_lset,
    parse_theory,
    proof_from_json,
    proof_to_json,
    prove,
    reduce_to_base,
    render_lset,
    render_theory,
    term_to_descriptor,
    verify_adjoint,
)

from term_oracle import upper_idx

PROPERTY = hypothesis_settings(max_examples=200, deadline=None, derandomize=True, database=None)


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


# Chains closed under each logic's operations and under x -> 1 - x, which the
# diff-set terms need: any symmetric Godel chain, the equidistant Lukasiewicz
# chains, and {0, 1}, the only finite Goguen chain.
godel_chains = st.sets(
    st.fractions(min_value=0, max_value=1, max_denominator=12), max_size=3
).map(lambda inner: Chain(sorted(inner | {1 - d for d in inner} | {Fraction(0), Fraction(1)}), "godel"))
lukasiewicz_chains = st.integers(1, 5).map(
    lambda n: Chain([Fraction(i, n) for i in range(n + 1)], "lukasiewicz")
)
goguen_chains = st.just(Chain([Fraction(0), Fraction(1)], "goguen"))
logic_chains = st.one_of(godel_chains, lukasiewicz_chains, goguen_chains)
small_universes = st.integers(1, 4).map(lambda n: Universe([f"y{i}" for i in range(n)]))


def terms(universe, chain):
    generators = st.one_of(
        st.just(Identity()),
        st.sampled_from(chain.degrees).map(ConstMult),
        lsets(universe, chain).map(ConstMultSet),
        lsets(universe, chain).map(DiffSet),
        st.integers(0, len(universe) - 1).map(Rotate),
    )
    return st.recursive(generators, lambda inner: st.builds(Compose, inner, inner), max_leaves=3)


@given(st.data(), small_universes, logic_chains)
@PROPERTY
def test_every_term_is_adjoint(data, universe, chain):
    term = data.draw(terms(universe, chain))
    conn = Connection(term, universe, chain)
    assert verify_adjoint(conn)
    # the residual of the lower table is the term's own upper map
    b = data.draw(lsets(universe, chain))
    assert conn.upper(b).idx == upper_idx(term, b.idx, chain)


@given(st.data(), universes, logic_chains)
@PROPERTY
def test_descriptor_round_trip(data, universe, chain):
    term = data.draw(terms(universe, chain))
    desc = json.loads(json.dumps(term_to_descriptor(term)))
    back = connection_from_descriptor(desc, universe, chain)
    assert back == Connection(term, universe, chain) and back.term == term


@given(st.data(), universes, logic_chains)
@PROPERTY
def test_proof_file_round_trip(data, universe, chain):
    term = data.draw(terms(universe, chain))
    gens = [Connection(Rotate(1), universe, chain), Connection(term, universe, chain)]
    s = generate_monoid(gens, universe, chain)
    sets = lsets(universe, chain)
    a = data.draw(sets)
    # antecedents below A fire at least under the identity, so proofs of
    # A => least model take hypothesis, F and Cut steps
    rules = st.builds(lambda x, b: FAI(a & x, b), sets, sets)
    theory = Theory(data.draw(st.lists(rules, min_size=1, max_size=3)))
    proof = prove(theory, s, FAI(a, least_model(theory, s, a)))
    back = proof_from_json(json.loads(json.dumps(proof_to_json(proof))), universe, chain)
    assert back.steps == proof.steps and back.goal == proof.goal


@pytest.fixture(scope="module")
def worked_bases(holidays, settings):
    """(S, base of the holidays context under S) for S1..S6."""
    return [(s, reduce_to_base(complete_set(holidays, s), holidays, s)) for s in settings.values()]


@pytest.mark.parametrize("which", range(6))
@given(st.data())
@hypothesis_settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_proofs_of_least_models_check_and_normalize_idempotently(worked_bases, which, data):
    s, base = worked_bases[which]
    a = data.draw(lsets(s.universe, s.chain))
    goal = FAI(a, least_model(base, s, a))
    proof = prove(base, s, goal)
    assert check_proof(proof, base, s, goal=goal)
    normal = normalize_proof(proof, base, s)
    assert check_proof(normal, base, s, goal=goal)
    assert normalize_proof(normal, base, s).steps == normal.steps
