import random
from fractions import Fraction

import pytest

from fai import (
    Chain,
    Connection,
    ConstMult,
    ConstMultSet,
    DiffSet,
    FAI,
    Hedge,
    LSet,
    NotClosureSystem,
    Parameterization,
    ParseError,
    Rotate,
    Theory,
    Universe,
    UniverseMismatch,
    entail_degree,
    entails,
    from_hedge,
    generate_monoid,
    globalization,
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
from fai.fset import Scale

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
    assert parse_fai(" -> k", universe, chain5).antecedent.mask == 0
    with pytest.raises(ParseError):
        parse_fai("k l", universe, chain5)
    with pytest.raises(ParseError):
        parse_fai("k -> l -> a", universe, chain5)


def test_theory_parsing(chain5, universe):
    text = "# comment\n\nk -> l\n0.5/a -> e # trailing note\n"
    th = parse_theory(text, universe, chain5)
    assert len(th) == 2
    assert th[1] == parse_fai("0.5/a -> e", universe, chain5)
    with pytest.raises(ParseError) as err:
        parse_theory("k -> l\n\nk -> q\n", universe, chain5)
    assert "line 3" in str(err.value)
    assert parse_theory(render_theory(th), universe, chain5) == th


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
    # a hedge over another chain, shorter or of the same length
    m = LSet.top(universe, chain)
    for other in (Chain([F(0), F(1)], "godel"), Chain([F(0), F(1, 3), F(1)], "godel")):
        with pytest.raises(UniverseMismatch):
            hedge_truth_degree(m, th[0], globalization(other))


def test_t_step_rejects_a_set_over_another_universe(small):
    universe, chain = small
    pair = Universe(("x", "y"))
    s2, th2 = _ident_only(pair, chain), parse_theory("x -> y\n", pair, chain)
    s3, th3 = _ident_only(universe, chain), parse_theory("x -> y\n", universe, chain)
    other_chain = Chain([F(0), F(1)], "godel")
    for m, th, s in (
        (parse_lset("x", universe, chain), th2, s2),  # a longer set: zip used to cut it short
        (LSet.top(Universe(("p", "q", "r")), chain), th3, s3),
        (LSet.top(universe, other_chain), th3, s3),
    ):
        with pytest.raises(UniverseMismatch):
            t_step(m, th, s)


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


def test_early_stopping_entailment_equals_least_model_containment():
    rng = random.Random(3305)
    outcomes = {True: 0, False: 0}
    for logic, n in (("godel", 3), ("lukasiewicz", 4), ("godel", 5)):
        chain = Chain([F(i, n - 1) for i in range(n)], logic)
        universe = Universe(("x", "y", "z", "w"))

        def random_set():
            return LSet(universe, chain, [rng.randrange(n) for _ in universe])

        const = rng.choice((DiffSet, ConstMultSet))(random_set())
        gens = [Connection(Rotate(1), universe, chain), Connection(const, universe, chain)]
        s = generate_monoid(gens, universe, chain)
        for _ in range(40):
            theory = Theory([FAI(random_set(), random_set()) for _ in range(rng.randrange(4))])
            a = random_set()
            closed = least_model(theory, s, a)
            # one consequent drawn inside the least model, one drawn anywhere
            inside = LSet(universe, chain, [rng.randrange(v + 1) for v in closed.idx])
            for b in (inside, random_set()):
                expected = b <= closed
                assert entails(theory, FAI(a, b), s) == expected
                outcomes[expected] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_each_rule_computes_its_pairs_once_per_s(chain5, universe, settings, monkeypatch):
    """Repeated least models and entailments on one theory and S read each
    rule's images off S's bit-sliced table once, and S builds that table
    once; another S builds and reads its own."""
    reads, builds = [], []
    real_read, real_build = Parameterization.lower_images, Scale.slices

    def reading(s, a):
        reads.append((s, a))
        return real_read(s, a)

    def building(sc, tables):
        builds.append(tables)
        return real_build(sc, tables)

    monkeypatch.setattr(Parameterization, "lower_images", reading)
    monkeypatch.setattr(Scale, "slices", building)
    th = parse_theory(" -> 0.25/a, 0.25/e\n0.75/l -> 0.75/e\nl, 0.75/a -> 0.5/k, e\n", universe, chain5)
    goal = parse_fai("0.75/a, e -> 0.5/k, l, a", universe, chain5)
    a = parse_lset("0.5/l, e", universe, chain5)
    # fresh copies: the session's settings may have built their tables already
    for s in (Parameterization(settings[6]), Parameterization(settings[1])):
        reads.clear()
        builds.clear()
        for _ in range(3):
            least_model(th, s, a)
            entails(th, goal, s)
        # two reads, f(A) and f(B) for every member at once, per rule
        read = [r for _, r in reads]
        assert read == [x.idx for rule in th for x in (rule.antecedent, rule.consequent)]
        assert all(on is s for on, _ in reads)
        # one table per S, over every member's mask table in S's order
        assert builds == [[conn.lower_masks for conn in s]]


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
