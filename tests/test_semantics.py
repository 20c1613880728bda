import random
from fractions import Fraction

import pytest

from fai import (
    Chain,
    Connection,
    ConstMult,
    FAI,
    Hedge,
    LSet,
    NotClosureSystem,
    Parameterization,
    ParseError,
    Theory,
    Universe,
    UniverseMismatch,
    entail_degree,
    entails,
    from_hedge,
    hedge_truth_degree,
    holds_in,
    identity,
    identity_hedge,
    is_model,
    least_model,
    models_enum,
    parse_fai,
    parse_lset,
    parse_theory,
    render_fai,
    render_theory,
    t_step,
    theory_of_system,
    truth_degree,
)

from scan_oracle import iter_lsets

F = Fraction


def _ident_only(universe, chain):
    return Parameterization([identity(universe, chain)])


@pytest.fixture(scope="module")
def small():
    ch = Chain([F(0), F(1, 2), F(1)], "godel")
    return Universe(("x", "y", "z")), ch


def test_fai_parsing(chain5, universe):
    fai = parse_fai("0.75/a, e -> 0.5/k, l, a", universe, chain5)
    assert fai.antecedent == parse_lset("0.75/a, e", universe, chain5)
    assert render_fai(fai) == "0.75/a, e -> 0.5/k, l, a"
    assert parse_fai(" -> k", universe, chain5).antecedent.is_bottom()
    with pytest.raises(ParseError):
        parse_fai("k l", universe, chain5)
    with pytest.raises(ParseError):
        parse_fai("k -> l -> a", universe, chain5)


def test_theory_parsing(chain5, universe):
    text = "# comment\n\nk -> l\n0.5/a -> e # trailing note\n"
    th = parse_theory(text, universe, chain5)
    assert len(th) == 2
    assert th.labels == ("line 3", "line 4")
    assert th[1] == parse_fai("0.5/a -> e", universe, chain5)
    with pytest.raises(ParseError) as err:
        parse_theory("k -> l\n\nk -> q\n", universe, chain5)
    assert "line 3" in str(err.value)
    assert parse_theory(render_theory(th), universe, chain5) == th


def test_theory_edits(chain5, universe):
    th = parse_theory("k -> l\na -> e\n", universe, chain5)
    assert len(th.without(0)) == 1
    assert th.without(0)[0] == th[1]
    swapped = th.replaced(1, th[0])
    assert swapped[1] == th[0]
    assert th.as_set() == {th[0], th[1]}


def test_truth_in_a_model(chain5, universe, settings):
    beach = parse_lset("0.75/k, 0.25/l, 0.75/a, 0.25/e", universe, chain5)
    s_id = _ident_only(universe, chain5)
    vacuous = parse_fai("k -> a", universe, chain5)
    assert holds_in(beach, vacuous, s_id)  # antecedent not contained, so true
    rule = parse_fai("0.5/k -> a", universe, chain5)
    assert not holds_in(beach, rule, s_id)
    assert truth_degree(beach, rule, s_id) == F(3, 4)
    assert hedge_truth_degree(beach, rule, identity_hedge(chain5)) == F(3, 4)
    # under S1 the 0.5-multiple also has to fit
    rule2 = parse_fai("k -> a", universe, chain5)
    assert holds_in(beach, rule2, settings[1])
    assert truth_degree(beach, rule2, settings[1]) == F(1)


def test_truth_degree_is_the_largest_true_weakening(small):
    universe, chain = small
    s = Parameterization(
        [identity(universe, chain), Connection(ConstMult(F(1, 2)), universe, chain)]
    )
    rng = random.Random(7)
    sets = list(iter_lsets(universe, chain))
    for _ in range(150):
        m, a, b = rng.choice(sets), rng.choice(sets), rng.choice(sets)
        fai = FAI(a, b)
        d = truth_degree(m, fai, s)
        for c in chain.degrees:
            weakened = FAI(a, LSet(universe, chain, tuple(
                chain.tnorm_i(chain.index_of(c), i) for i in b.idx)))
            assert holds_in(m, weakened, s) == (c <= d)


def test_hedge_truth_equals_monoid_truth(small):
    universe, chain = small
    from fai import globalization

    rng = random.Random(11)
    sets = list(iter_lsets(universe, chain))
    for hedge in (Hedge(chain, [F(1, 2), F(1)]), globalization(chain)):
        s = from_hedge(hedge, universe)
        for _ in range(150):
            m, a, b = rng.choice(sets), rng.choice(sets), rng.choice(sets)
            fai = FAI(a, b)
            assert truth_degree(m, fai, s) == hedge_truth_degree(m, fai, hedge)
            assert holds_in(m, fai, s) == (hedge_truth_degree(m, fai, hedge) == 1)


def test_t_step_and_least_model(small):
    universe, chain = small
    s = _ident_only(universe, chain)
    th = parse_theory("x -> y\ny -> 0.5/z\n", universe, chain)
    m = parse_lset("x", universe, chain)
    once = t_step(m, th, s)
    assert once == parse_lset("x, y", universe, chain)
    closed = least_model(th, s, m)
    assert closed == parse_lset("x, y, 0.5/z", universe, chain)
    assert t_step(closed, th, s) == closed
    assert is_model(closed, th, s)
    assert m <= closed


def test_model_checks_reject_a_set_over_another_universe(small):
    universe, chain = small
    s = _ident_only(universe, chain)
    th = parse_theory("x -> y\n", universe, chain)
    for other in (Universe(("p", "q", "r")), Universe(("x", "y"))):
        m = LSet.top(other, chain)
        with pytest.raises(UniverseMismatch):
            holds_in(m, th[0], s)
        with pytest.raises(UniverseMismatch):
            is_model(m, th, s)
        with pytest.raises(UniverseMismatch):
            least_model(th, s, m)


def test_least_model_is_least(small):
    universe, chain = small
    s = _ident_only(universe, chain)
    th = parse_theory("x -> y\n0.5/y -> 0.5/x\n", universe, chain)
    models = models_enum(th, s)
    for m in iter_lsets(universe, chain):
        lm = least_model(th, s, m)
        below = [n for n in models if m <= n]
        assert lm in models
        assert all(lm <= n for n in below)


def test_entailment(chain5, universe, settings):
    th = parse_theory(" -> 0.25/a, 0.25/e\n0.75/l -> 0.75/e\nl, 0.75/a -> 0.5/k, e\n0.75/k, 0.5/e -> k\n", universe, chain5)
    goal = parse_fai("0.75/a, e -> 0.5/k, l, a", universe, chain5)
    assert entails(th, goal, settings[6])
    assert entail_degree(th, goal, settings[6]) == F(1)
    assert entail_degree(th, parse_fai("e -> k", universe, chain5), settings[6]) == F(1, 4)
    assert not entails(th, parse_fai("e -> k", universe, chain5), settings[6])


def test_entail_degree_via_models(small):
    universe, chain = small
    s = Parameterization(
        [identity(universe, chain), Connection(ConstMult(F(1, 2)), universe, chain)]
    )
    th = parse_theory("x -> 0.5/y\n0.5/y, 0.5/z -> x\n", universe, chain)
    models = models_enum(th, s)
    for a in iter_lsets(universe, chain):
        for b in iter_lsets(universe, chain):
            fai = FAI(a, b)
            semantic = min(truth_degree(m, fai, s) for m in models)
            assert entail_degree(th, fai, s) == semantic


def test_models_enum_matches_is_model(small):
    universe, chain = small
    s = _ident_only(universe, chain)
    th = parse_theory("x -> y\n", universe, chain)
    models = models_enum(th, s)
    assert models == [m for m in iter_lsets(universe, chain) if is_model(m, th, s)]


def test_model_systems_round_trip(small):
    universe, chain = small
    s = Parameterization(
        [identity(universe, chain), Connection(ConstMult(F(1, 2)), universe, chain)]
    )
    rng = random.Random(3)
    sets = list(iter_lsets(universe, chain))
    for _ in range(25):
        rules = [FAI(rng.choice(sets), rng.choice(sets)) for _ in range(rng.randrange(1, 4))]
        th = Theory(rules)
        models = models_enum(th, s)
        mset = set(models)
        # model sets are closed under intersection and the upper maps
        for m1 in models:
            for m2 in models:
                assert (m1 & m2) in mset
            for conn in s:
                assert conn.upper(m1) in mset
        recovered = theory_of_system(models, s)
        assert models_enum(recovered, s) == models


def test_theory_of_system_rejections(small):
    universe, chain = small
    s = _ident_only(universe, chain)
    top = LSet.top(universe, chain)
    a = parse_lset("x", universe, chain)
    b = parse_lset("y", universe, chain)
    with pytest.raises(NotClosureSystem):
        theory_of_system([a, b], s)  # top missing
    with pytest.raises(NotClosureSystem):
        theory_of_system([top, a, b], s)  # meet x & y missing
    half = Parameterization(
        [identity(universe, chain), Connection(ConstMult(F(1, 2)), universe, chain)]
    )
    with pytest.raises(NotClosureSystem):
        # closed under meets but not under the 0.5-shift upper map,
        # which sends {0.5/x} to {x}
        theory_of_system([top, parse_lset("0.5/x", universe, chain)], half)
    theory_of_system([top], half)
