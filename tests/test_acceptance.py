"""End-to-end checks over the five-object data set and small random systems.

One test per criterion; every equality is exact (Fraction arithmetic).
"""

import itertools
import json
import random
from fractions import Fraction

from fai import (
    Chain,
    Connection,
    ConstMult,
    ConstMultSet,
    DiffSet,
    DualPair,
    FAI,
    Hedge,
    Identity,
    LSet,
    Parameterization,
    Rotate,
    Theory,
    Universe,
    check_proof,
    complete_set,
    downup,
    entail_degree,
    entails,
    generate_monoid,
    holds_in,
    identity,
    intents_enum,
    intersection,
    is_complete,
    least_model,
    models_enum,
    parse_fai,
    parse_theory,
    proof_from_json,
    prove,
    pseudo_intents,
    reduce_to_base,
    truth_degree,
    union,
)
from fai.cli import main
from fai.errors import InvalidHedge, NotProvable
from fai.proof import Axiom

from conftest import DATA
from scan_oracle import expand_theory, iter_lsets, pseudo_intents_by_scan

F = Fraction


def _base(ctx, s):
    return reduce_to_base(complete_set(ctx, s), ctx, s)


def test_c1_const_mult_half(holidays, settings, chain5, universe):
    s = settings[1]
    cs = complete_set(holidays, s)
    expected = parse_theory((DATA / "s1_complete.txt").read_text(), universe, chain5)
    assert set(cs.rules) == set(expected.rules)
    assert len(cs) == 11
    assert set(reduce_to_base(cs, holidays, s).rules) == set(cs.rules)
    assert len(intents_enum(holidays, s)) == 22


def test_c2_const_mult_set(holidays, settings):
    s = settings[2]
    base = _base(holidays, s)
    assert len(base) == 15
    assert len(intents_enum(holidays, s)) == 28


def test_c3_const_mult_set_mixed(holidays, settings):
    s = settings[3]
    base = _base(holidays, s)
    assert len(base) == 12
    assert len(intents_enum(holidays, s)) == 24


def test_c4_rotation(holidays, settings):
    s = settings[4]
    cs = complete_set(holidays, s)
    assert len(cs) == 17
    base = reduce_to_base(cs, holidays, s)
    assert len(base) == 10
    assert len(set(cs.rules) - set(base.rules)) == 7
    assert len(intents_enum(holidays, s)) == 26


def test_c5_difference(holidays, settings):
    s = settings[5]
    base = _base(holidays, s)
    assert len(base) == 13
    assert len(intents_enum(holidays, s)) == 21


def test_c6_combined_monoid(holidays, settings, chain5, universe, capsys):
    s = settings[6]
    assert len(s) == 8
    assert len(intents_enum(holidays, s)) == 65

    base = parse_theory((DATA / "s6_base.txt").read_text(), universe, chain5)
    expected = parse_theory(
        " -> 0.25/a, 0.25/e\n"
        "0.75/l -> 0.75/e\n"
        "l, 0.75/a -> 0.5/k, e\n"
        "0.75/k, 0.5/e -> k\n",
        universe,
        chain5,
    )
    assert set(base.rules) == set(expected.rules) and len(base) == 4
    assert is_complete(base, holidays, s)
    assert set(reduce_to_base(base, holidays, s).rules) == set(base.rules)

    rc = main(["entail", "--params", str(DATA / "params_s6.json"),
               "--theory", str(DATA / "s6_base.txt"),
               "--query", "0.75/a, e -> 0.5/k, l, a"])
    assert rc == 0
    assert capsys.readouterr().out == "1\n"

    goal = parse_fai("0.75/a, e -> 0.5/k, l, a", universe, chain5)
    data = json.loads((DATA / "s6_proof.json").read_text())
    proof = proof_from_json(data, universe, chain5)
    assert check_proof(proof, base, s, goal=goal)
    # 12 inference steps plus the 4 reflexive premises their cuts cite
    assert len(proof) == 16
    assert sum(1 for st in proof if not isinstance(st.by, Axiom)) == 12


def _random_settings(rng):
    """Small chains, universes and monoids for the oracle sweep."""
    chains = [
        Chain([F(0), F(1)], "godel"),
        Chain([F(0), F(1, 2), F(1)], "godel"),
        Chain([F(0), F(1, 2), F(1)], "lukasiewicz"),
    ]
    chain = rng.choice(chains)
    universe = Universe(rng.choice([("x", "y"), ("x", "y", "z")]))
    def random_set():
        return LSet(universe, chain, [rng.choice(range(chain.n)) for _ in universe])

    pool = [
        Identity(),
        ConstMult(rng.choice(chain.degrees)),
        ConstMultSet(random_set()),
        DiffSet(random_set()),
        Rotate(1),
    ]
    gens = [Connection(t, universe, chain)
            for t in rng.sample(pool, rng.randrange(1, 3))]
    s = generate_monoid(gens, universe, chain, cap=512)
    return chain, universe, s


def test_c7_oracle_sweep():
    rng = random.Random(4117)
    cases = 0
    while cases < 200:
        chain, universe, s = _random_settings(rng)
        sets = list(iter_lsets(universe, chain))
        theory = Theory([FAI(rng.choice(sets), rng.choice(sets))
                         for _ in range(rng.randrange(1, 5))])
        goal = FAI(rng.choice(sets), rng.choice(sets))
        cases += 1

        models = models_enum(theory, s)
        by_enumeration = all(holds_in(m, goal, s) for m in models)
        assert entails(theory, goal, s) == by_enumeration

        degree = entail_degree(theory, goal, s)
        assert degree == min(truth_degree(m, goal, s) for m in models)

        try:
            proof = prove(theory, s, goal)
        except NotProvable:
            assert not by_enumeration
        else:
            assert by_enumeration
            assert check_proof(proof, theory, s, goal=goal)

        ident = Parameterization([identity(universe, chain)])
        cut_only = goal.consequent <= least_model(
            expand_theory(theory, s), ident, goal.antecedent
        )
        assert cut_only == by_enumeration
    assert cases == 200


def _builtin_connections(universe, chain):
    half = chain.n // 2
    c_set = LSet(universe, chain, (chain.n - 1, half))  # {1/x, half/y}
    return [
        Connection(Identity(), universe, chain),
        Connection(ConstMult(chain.degrees[half]), universe, chain),
        Connection(ConstMultSet(c_set), universe, chain),
        Connection(DiffSet(c_set), universe, chain),
        Connection(Rotate(1), universe, chain),
    ]


def test_c8_algebraic_laws():
    degrees = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    for logic in ("godel", "lukasiewicz"):
        chain = Chain(degrees, logic)
        # degrees as chain indices: index order is degree order
        idx, top = range(chain.n), chain.n - 1
        for a, b, c in itertools.product(idx, repeat=3):
            assert (chain.tnorm_i(a, b) <= c) == (a <= chain.residuum_i(b, c))

        # every candidate fixed point set over the inner degrees
        for keep in itertools.chain.from_iterable(
            itertools.combinations(idx[1:-1], r) for r in range(4)
        ):
            fixed = (0, *keep, top)

            def star(x):
                return max(f for f in fixed if f <= x)

            law_holds = all(
                star(chain.residuum_i(a, b)) <= chain.residuum_i(star(a), star(b))
                for a in idx
                for b in idx
            )
            try:
                hedge = Hedge(chain, [degrees[f] for f in fixed])
            except InvalidHedge:
                accepted = False
            else:
                accepted = True
                for a, b in itertools.product(idx, repeat=2):
                    sa, sb = hedge.apply_i(a), hedge.apply_i(b)
                    assert sa <= a and hedge.apply_i(sa) == sa
                    assert hedge.apply_i(chain.residuum_i(a, b)) <= chain.residuum_i(sa, sb)
                assert hedge.apply_i(top) == top
            assert accepted == law_holds

        # b (+) c = 1 - ((1 - b) * (1 - c)), computed here rather than by DualPair
        neg = [chain.index_of(1 - d) for d in degrees]
        dual = DualPair(chain)
        for a, b, c in itertools.product(idx, repeat=3):
            oplus = neg[chain.tnorm_i(neg[b], neg[c])]
            assert (dual.ominus_i(a, b) <= c) == (a <= oplus)

    chain = Chain(degrees, "godel")
    universe = Universe(("x", "y"))
    sets = list(iter_lsets(universe, chain))
    bottom = LSet.bottom(universe, chain)
    top = LSet.top(universe, chain)
    for conn in _builtin_connections(universe, chain):
        f, g = conn.lower, conn.upper
        assert f(bottom) == bottom and g(top) == top
        for a in sets:
            assert a <= g(f(a))
            assert f(g(a)) <= a
        for a, b in itertools.product(sets, repeat=2):
            assert (f(a) <= b) == (a <= g(b))
            if a <= b:
                assert f(a) <= f(b) and g(a) <= g(b)
            assert f(union(a, b)) == union(f(a), f(b))
            assert g(intersection(a, b)) == intersection(g(a), g(b))

    # deduction property needs every lower operator to shrink its argument
    for chain, term in (
        (Chain(degrees, "godel"), ConstMultSet),
        (Chain([F(0), F(1, 2), F(1)], "lukasiewicz"), DiffSet),
    ):
        universe = Universe(("x", "y"))
        c_set = LSet(universe, chain, (chain.n - 1, 1))  # {1/x, d_1/y}
        s = generate_monoid(
            [Connection(term(c_set), universe, chain),
             Connection(ConstMult(chain.degrees[1]), universe, chain)],
            universe, chain, cap=64,
        )
        assert all(conn.lower(m) <= m for conn in s for m in iter_lsets(universe, chain))
        bottom = LSet.bottom(universe, chain)
        theory = parse_theory("x -> 0.5/y\n0.5/y -> y\n", universe, chain)
        for a, b in itertools.product(iter_lsets(universe, chain), repeat=2):
            direct = entails(theory, FAI(a, b), s)
            extended = Theory(list(theory.rules) + [FAI(bottom, a)])
            assert direct == entails(extended, FAI(bottom, b), s)


def test_c9_structural(holidays, settings, chain5, universe):
    every = list(iter_lsets(universe, chain5))
    for i in range(1, 7):
        s = settings[i]
        base = _base(holidays, s)
        intents = intents_enum(holidays, s)
        assert set(models_enum(base, s)) == set(intents)
        assert list(intents) == [m for m in every if downup(holidays, m, s) == m]
        found = pseudo_intents(holidays, s)
        assert found == pseudo_intents_by_scan(holidays, s, order="sum-lectic")
        assert set(found) == set(pseudo_intents_by_scan(holidays, s, order="lectic"))
