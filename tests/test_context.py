import random
import re
from fractions import Fraction

import pytest

from fai import (
    Chain,
    Connection,
    ConstMultSet,
    DiffSet,
    FAI,
    LContext,
    LSet,
    NotClosureSystem,
    NotComplete,
    Rotate,
    Theory,
    Universe,
    UniverseMismatch,
    complete_set,
    down,
    downup,
    generate_monoid,
    hasse_dot,
    holds_in,
    holds_in_context,
    intents_enum,
    is_complete,
    minimize_sides,
    models_enum,
    parse_lset,
    parse_theory,
    pseudo_intents,
    reduce_to_base,
    render_lset,
    theory_of_system,
    up,
)
from fai.errors import DegreeNotInChain, ParseError

from scan_oracle import (
    complete_by_scan,
    iter_lsets,
    minimize_sides_by_scan,
    models_by_sweep,
    pseudo_intents_by_scan,
    theory_of_system_by_sweep,
)

F = Fraction


def test_csv_parsing(chain5, universe, holidays):
    assert holidays.objects == ("walking", "cruise", "beach", "stay at home", "holiday camp")
    assert holidays.row("beach") == parse_lset(
        "0.75/k, 0.25/l, 0.75/a, 0.25/e", universe, chain5
    )
    assert holidays.row("walking").degree("a") == F(1)


def test_csv_rejections(chain5, universe):
    with pytest.raises(UniverseMismatch):
        LContext.from_csv("object,k,l\nrow,1,0\n", chain5, universe)
    with pytest.raises(ParseError):
        LContext.from_csv("object,k,l,a,e\nrow,1,0\n", chain5, universe)
    with pytest.raises(DegreeNotInChain):
        LContext.from_csv("object,k,l,a,e\nrow,0.3,0,0,0\n", chain5, universe)
    with pytest.raises(ParseError):
        LContext.from_csv("", chain5, universe)
    # without a declared universe the header defines one
    ctx = LContext.from_csv("object,p,q\nr1,0.5,1\n", chain5)
    assert ctx.universe.attributes == ("p", "q")


def test_downup_of_bottom(chain5, universe, holidays, settings):
    bottom = LSet.bottom(universe, chain5)
    closed = downup(holidays, bottom, settings[1])
    assert closed == parse_lset("0.25/k, 0.25/l, 0.25/a, 0.25/e", universe, chain5)


def test_rows_are_closed(holidays, settings):
    for s in settings.values():
        for r in holidays.rows:
            assert downup(holidays, r, s) == r


def test_derivation_adjunction(chain5, universe, holidays, settings):
    rng = random.Random(5)
    s = settings[6]
    for _ in range(40):
        g = LSet(universe, chain5, tuple(rng.randrange(5) for _ in range(4)))
        pairs = down(holidays, g, s)
        assert up(holidays, pairs, s) == downup(holidays, g, s)
        for name, conn in pairs:
            assert g <= conn.upper(holidays.row(name))


def test_context_truth_equals_truth_in_every_row(chain5, universe, holidays, settings):
    rng = random.Random(9)
    for s in (settings[1], settings[4], settings[6]):
        for _ in range(60):
            a = LSet(universe, chain5, tuple(rng.randrange(5) for _ in range(4)))
            b = LSet(universe, chain5, tuple(rng.randrange(5) for _ in range(4)))
            fai = FAI(a, b)
            per_row = all(holds_in(r, fai, s) for r in holidays.rows)
            assert holds_in_context(holidays, fai, s) == per_row


def test_intents_against_brute_force(holidays, settings, chain5, universe):
    for i in (1, 5):
        s = settings[i]
        intents = intents_enum(holidays, s)
        brute = [m for m in iter_lsets(universe, chain5) if downup(holidays, m, s) == m]
        assert intents == brute
    assert len(intents_enum(holidays, settings[1])) == 22
    assert len(intents_enum(holidays, settings[6])) == 65


def test_pseudo_intents_scan_orders_agree(holidays, settings):
    found = pseudo_intents(holidays, settings[1])
    assert found == pseudo_intents_by_scan(holidays, settings[1], order="sum-lectic")
    lectic = pseudo_intents_by_scan(holidays, settings[1], order="lectic")
    assert sorted(p.idx for p, _ in found) == sorted(p.idx for p, _ in lectic)
    assert dict(found) == dict(lectic)
    assert len(found) == 11


def test_complete_set_is_complete_and_minimal(holidays, settings, chain5, universe):
    th = complete_set(holidays, settings[1])
    assert is_complete(th, holidays, settings[1])
    assert is_complete(th, holidays, settings[1], mode="sampled", samples=60)
    # the set is a base here: dropping any rule loses completeness
    for i in range(len(th)):
        assert not is_complete(th.without(i), holidays, settings[1])


def test_incomplete_theory_detected(holidays, settings, chain5, universe):
    trivial = parse_theory("k -> k\n", universe, chain5)
    assert not is_complete(trivial, holidays, settings[1])
    assert not is_complete(trivial, holidays, settings[1], mode="sampled", samples=40)


def test_reduction(holidays, settings):
    comp = complete_set(holidays, settings[4])
    assert len(comp) == 17
    base = reduce_to_base(comp, holidays, settings[4])
    assert len(base) == 10
    assert is_complete(base, holidays, settings[4])
    from fai import entails

    for i in range(len(base)):
        assert not entails(base.without(i), base[i], settings[4])


def test_minimize_sides(holidays, settings, chain5, universe):
    base = reduce_to_base(complete_set(holidays, settings[6]), holidays, settings[6])
    mini = minimize_sides(base, holidays, settings[6])
    expected = parse_theory(
        " -> 0.25/a, 0.25/e\n"
        "0.75/l -> 0.75/e\n"
        "0.75/k, 0.5/e -> k\n"
        "l -> e\n"
        "0.75/k, e -> 0.5/a\n",
        universe,
        chain5,
    )
    assert mini.as_set() == expected.as_set()
    assert is_complete(mini, holidays, settings[6])
    # degrees only ever move down
    for before, after in zip(base, mini):
        assert after.antecedent <= before.antecedent
        assert after.consequent <= before.consequent
    with pytest.raises(NotComplete):
        minimize_sides(parse_theory("k -> k\n", universe, chain5), holidays, settings[6])
    # on every S1-S6 base the walk equals the one deciding each edit by the
    # full completeness check of the whole edited theory
    for s in settings.values():
        base = reduce_to_base(complete_set(holidays, s), holidays, s)
        assert minimize_sides(base, holidays, s) == minimize_sides_by_scan(
            base, holidays, s, complete=is_complete
        )


def test_completeness_oracle_agrees_with_public_check(holidays, settings, chain5, universe):
    s = settings[1]
    comp = complete_set(holidays, s)
    for theory, complete in (
        (comp, True),
        (comp.without(3), False),
        (parse_theory("k -> k\n", universe, chain5), False),
        # context-false rules are rejected outright
        (parse_theory(" -> k\n", universe, chain5), False),
    ):
        assert complete_by_scan(theory, holidays, s) == complete
        assert is_complete(theory, holidays, s) == complete


def _random_context_setting(rng, logic, n):
    """A uniform n-degree chain, three attributes, two to four random rows,
    and S generated by rotate(1) and a random diff-set or const-mult-set."""
    chain = Chain([F(i, n - 1) for i in range(n)], logic)
    universe = Universe(("x", "y", "z"))

    def random_set():
        return LSet(universe, chain, [rng.randrange(n) for _ in universe])

    rows = [random_set() for _ in range(rng.randrange(2, 5))]
    ctx = LContext(universe, chain, [f"o{i}" for i in range(len(rows))], rows)
    const = rng.choice((DiffSet, ConstMultSet))(random_set())
    gens = [Connection(Rotate(1), universe, chain), Connection(const, universe, chain)]
    return ctx, generate_monoid(gens, universe, chain), random_set


def test_nextclosure_matches_scan_oracle():
    rng = random.Random(3301)
    for logic in ("godel", "lukasiewicz"):
        for n in (3, 4, 5):
            for _ in range(6):
                ctx, s, random_set = _random_context_setting(rng, logic, n)
                comp = complete_set(ctx, s)
                assert [(r.antecedent, r.consequent) for r in comp] == pseudo_intents_by_scan(
                    ctx, s
                )
                base = reduce_to_base(comp, ctx, s)
                assert models_enum(base, s) == models_by_sweep(base, s) == intents_enum(ctx, s)
                other = Theory([FAI(random_set(), random_set()) for _ in range(3)])
                assert models_enum(other, s) == models_by_sweep(other, s)
                assert is_complete(base, ctx, s) and complete_by_scan(base, ctx, s)
                for i in range(len(base)):
                    dropped = base.without(i)
                    assert is_complete(dropped, ctx, s) == complete_by_scan(dropped, ctx, s)
                assert minimize_sides(base, ctx, s) == minimize_sides_by_scan(base, ctx, s)


def test_theory_of_system_is_the_complete_set_of_its_intents(holidays, settings):
    for s in settings.values():
        intents = intents_enum(holidays, s)
        theory = theory_of_system(intents, s)
        assert list(theory) == list(complete_set(holidays, s))
        assert models_enum(theory, s) == intents


def test_theory_of_system_names_the_first_missing_intent():
    ch = Chain([F(0), F(1, 2), F(1)], "godel")
    u = Universe(("x", "y", "z"))
    s = generate_monoid([], u, ch)
    members = [LSet.top(u, ch), parse_lset("x, y", u, ch), parse_lset("x, z", u, ch)]
    with pytest.raises(NotClosureSystem, match="'x' is missing"):
        theory_of_system(members, s)  # their meet
    with pytest.raises(NotClosureSystem, match="'x, y, z' is missing"):
        theory_of_system([], s)  # the top set, the empty meet


def test_theory_of_system_matches_sweep_oracle():
    rng = random.Random(3302)
    for logic in ("godel", "lukasiewicz"):
        for n in (3, 4, 5):
            for _ in range(3):
                ctx, s, random_set = _random_context_setting(rng, logic, n)
                # one random rule: three mostly leave only the top set as model
                rule = Theory([FAI(random_set(), random_set())])
                for system in (intents_enum(ctx, s), models_enum(rule, s)):
                    recovered = models_enum(theory_of_system(system, s), s)
                    swept = models_enum(theory_of_system_by_sweep(system, s), s)
                    assert recovered == system == swept


def test_hasse_dot_matches_transitive_reduction(holidays, settings):
    networkx = pytest.importorskip("networkx")
    for k, count in ((5, 21), (6, 65)):
        intents = intents_enum(holidays, settings[k])
        dot = hasse_dot(intents, name="intents")
        nodes = re.findall(r'^  n(\d+) \[label="(.*)"\];$', dot, re.M)
        edges = re.findall(r"^  n(\d+) -> n(\d+);$", dot, re.M)
        assert len(nodes) == len(intents) == count

        g = networkx.DiGraph()
        g.add_nodes_from(range(len(intents)))
        ordered = sorted(intents, key=lambda m: m.idx)
        for i, a in enumerate(ordered):
            for j, b in enumerate(ordered):
                if a < b:
                    g.add_edge(i, j)
        reduced = networkx.transitive_reduction(g)
        # edges come out by source, then target, so the DOT bytes are stable
        assert [(int(a), int(b)) for a, b in edges] == sorted(reduced.edges())


def test_hasse_dot_escapes_quotes_and_backslashes(chain5):
    universe = Universe(('a"b', "c\\d"))
    top = LSet.top(universe, chain5)
    dot = hasse_dot([LSet.bottom(universe, chain5), top])
    # a DOT string holds no bare quote: each label must match as one string
    labels = re.findall(r'label="((?:[^"\\]|\\.)*)"\];$', dot, re.M)
    assert labels == ["{}", '{a\\"b, c\\\\d}']
    assert re.sub(r"\\(.)", r"\1", labels[1]) == "{" + render_lset(top) + "}"
