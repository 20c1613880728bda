import random
import re
from fractions import Fraction

import pytest

import fai.context
import fai.semantics
from fai import (
    CapExceeded,
    Chain,
    Connection,
    ConstMultSet,
    DiffSet,
    FAI,
    LContext,
    LSet,
    NotClosureSystem,
    NotAMonoid,
    NotComplete,
    Parameterization,
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
    least_model,
    minimize_sides,
    models_enum,
    next_closures,
    parse_lset,
    parse_theory,
    pseudo_intents,
    reduce_to_base,
    render_lset,
    theory_of_system,
    up,
)
from fai.errors import DegreeNotInChain, ParseError
from fai.fset import scale

from ladder import MINE_RUNGS, rung_context
from scan_oracle import (
    complete_by_scan,
    drop_rule,
    iter_lsets,
    minimize_sides_by_entailment,
    minimize_sides_by_scan,
    models_by_sweep,
    next_closures_on_lsets,
    pseudo_intents_by_scan,
    reduce_to_base_by_entailment,
    theory_of_system_by_sweep,
)

F = Fraction


def test_csv_parsing(chain5, universe, holidays):
    assert holidays.objects == ("walking", "cruise", "beach", "stay at home", "holiday camp")
    assert holidays.row("beach") == parse_lset(
        "0.75/k, 0.25/l, 0.75/a, 0.25/e", universe, chain5
    )
    assert chain5.degrees[holidays.row("walking").idx[universe.position["a"]]] == F(1)


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


def test_downup_rejects_a_set_over_another_universe(chain5, universe, holidays, settings):
    other_chain = Chain([F(0), F(1, 3), F(1, 2), F(2, 3), F(1)], "godel")
    for g in (
        parse_lset("0.5/k, 0.5/l", Universe(("k", "l")), chain5),  # zip used to cut it short
        LSet.top(Universe(("p", "q", "r", "s")), chain5),
        LSet.top(universe, other_chain),
    ):
        with pytest.raises(UniverseMismatch):
            downup(holidays, g, settings[6])


def test_rows_are_closed(holidays, settings):
    for s in settings.values():
        for r in holidays.rows:
            assert downup(holidays, r, s) == r


def _ladder_context(seed: int):
    """A seeded context shaped like a rung of the synthetic ladder: |Y| = 6,
    |L| = 3, six random rows, S spanned by rotate(2) and a diff-set."""
    rng = random.Random(seed)
    chain = Chain([F(0), F(1, 2), F(1)], "godel")
    universe = Universe([f"y{k}" for k in range(6)])
    const = LSet(universe, chain, [2, 1, 0, 1, 0, 0])
    gens = [Connection(Rotate(2), universe, chain), Connection(DiffSet(const), universe, chain)]
    rows = [LSet(universe, chain, [rng.randrange(3) for _ in range(6)]) for _ in range(6)]
    ctx = LContext(universe, chain, [f"o{k}" for k in range(6)], rows)
    return ctx, generate_monoid(gens, universe, chain)


def test_derivation_adjunction(holidays, settings):
    rng = random.Random(5)
    for ctx, s in ((holidays, settings[6]), _ladder_context(0)):
        n, size = ctx.chain.n, len(ctx.universe)
        for _ in range(40):
            g = LSet(ctx.universe, ctx.chain, tuple(rng.randrange(n) for _ in range(size)))
            pairs = down(ctx, g, s)
            assert up(ctx, pairs, s) == downup(ctx, g, s)
            for name, conn in pairs:
                assert g <= conn.upper(ctx.row(name))


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
        assert not is_complete(drop_rule(th, i), holidays, settings[1])


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
        assert not entails(drop_rule(base, i), base[i], settings[4])


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
    assert set(mini) == set(expected)
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
        (drop_rule(comp, 3), False),
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
                    dropped = drop_rule(base, i)
                    assert is_complete(dropped, ctx, s) == complete_by_scan(dropped, ctx, s)
                assert minimize_sides(base, ctx, s) == minimize_sides_by_scan(base, ctx, s)


def _closed_on_masks(universe, chain, close, cap):
    """NextClosure on masks under an LSet closure, its sets decoded."""
    sc = scale(len(universe), chain.n)

    def close_mask(q):
        return sc.encode(close(LSet(universe, chain, sc.decode(q))).idx)

    closed = next_closures(universe, chain, close_mask, cap)
    return [LSet(universe, chain, sc.decode(m)) for m in closed]


def test_mask_next_closures_match_the_lset_stepper():
    rng = random.Random(3303)
    cases = []
    for logic in ("godel", "lukasiewicz"):
        for n in (2, 3, 4, 5):
            for _ in range(4):
                ctx, s, random_set = _random_context_setting(rng, logic, n)
                rules = [FAI(random_set(), random_set()) for _ in range(rng.randrange(1, 4))]
                cases.append((ctx, s, Theory(rules)))
    for seed in range(2):
        ctx, s = _ladder_context(seed)
        cases.append((ctx, s, reduce_to_base(complete_set(ctx, s), ctx, s)))
    for ctx, s, theory in cases:
        universe, chain = ctx.universe, ctx.chain
        closers = (lambda m: downup(ctx, m, s), lambda m: least_model(theory, s, m))
        for close in closers:
            expected = list(next_closures_on_lsets(universe, chain, close, 10**6))
            assert _closed_on_masks(universe, chain, close, 10**6) == expected
            with pytest.raises(CapExceeded):
                _closed_on_masks(universe, chain, close, len(expected) - 1)


def test_compiled_reduce_and_minimize_match_re_entailment(holidays, settings):
    rng = random.Random(3304)
    cases = [(holidays, s) for s in settings.values()]
    for logic in ("godel", "lukasiewicz"):
        for n in (3, 4, 5):
            for _ in range(3):
                cases.append(_random_context_setting(rng, logic, n)[:2])
    cases += [_ladder_context(seed) for seed in range(2)]
    for ctx, s in cases:
        comp = complete_set(ctx, s)
        order = list(range(len(comp)))
        rng.shuffle(order)
        shuffled = Theory([comp[i] for i in order])
        for theory in (comp, shuffled):
            base = reduce_to_base(theory, ctx, s)
            expected = reduce_to_base_by_entailment(theory, ctx, s)
            assert base.rules == expected.rules
            mini = minimize_sides(base, ctx, s)
            expected = minimize_sides_by_entailment(base, ctx, s)
            assert mini.rules == expected.rules


def _outside_completeness_check(monkeypatch):
    """A list that is non-empty while ``fai.context.is_complete`` runs: the
    input check's closures and chains are not trials of an edit."""
    checking, real = [], fai.context.is_complete

    def is_complete(*args, **kwargs):
        checking.append(True)
        try:
            return real(*args, **kwargs)
        finally:
            checking.pop()

    monkeypatch.setattr(fai.context, "is_complete", is_complete)
    return checking


def test_minimizing_leaves_s_exactly_as_it_found_it(monkeypatch):
    """One S reused across several minings: a trial edit's images are read
    off S's table and kept nowhere, so every attribute of S but its cached
    hash is as it was before each minimization."""
    rng = random.Random(3312)
    chain = Chain([F(0), F(1, 2), F(1)], "godel")
    universe = Universe([f"y{k}" for k in range(6)])
    const = LSet(universe, chain, [2, 1, 0, 1, 0, 0])
    gens = [Connection(Rotate(2), universe, chain), Connection(DiffSet(const), universe, chain)]
    s = generate_monoid(gens, universe, chain)
    checking = _outside_completeness_check(monkeypatch)
    trials, outcomes, real = [], [], fai.context.forward_chain

    def chained(pairs, start, sc, until=None, fired=None):
        out = real(pairs, start, sc, until=until, fired=fired)
        if not checking:
            trials.append((until, out))
        return out

    monkeypatch.setattr(fai.context, "forward_chain", chained)

    def state():
        return {
            k: v.copy() if isinstance(v, (dict, list, set)) else v
            for k, v in vars(s).items()
            if k != "_hash"
        }

    kept = 0
    for _ in range(5):
        rows = [LSet(universe, chain, [rng.randrange(3) for _ in range(6)]) for _ in range(6)]
        ctx = LContext(universe, chain, [f"o{i}" for i in range(6)], rows)
        base = reduce_to_base(complete_set(ctx, s), ctx, s)
        before = state()
        trials.clear()
        mini = minimize_sides(base, ctx, s)
        assert state() == before
        # each chain of the walk is a consequent trial, kept iff it reaches its goal
        outcomes += [until & out == until for until, out in trials]
        # each kept edit lowers one degree by one step
        kept += sum(
            sum(b.antecedent.idx) + sum(b.consequent.idx)
            - sum(m.antecedent.idx) - sum(m.consequent.idx)
            for b, m in zip(base, mini)
        )
    # some consequent edits were tested and rejected, and some kept
    assert 0 < outcomes.count(False) < len(outcomes), outcomes
    assert kept > 0


def test_minimizing_matches_re_entailment_on_the_ladder_rungs():
    """On bases, and on complete sets as listed and shuffled."""
    rng = random.Random(3317)
    for rung in MINE_RUNGS:
        for _ in range(3):
            ctx, s = rung_context(rng, *rung)
            comp = complete_set(ctx, s)
            shuffled = Theory(rng.sample(comp.rules, len(comp)))
            for theory in (reduce_to_base(comp, ctx, s), comp, shuffled):
                mini = minimize_sides(theory, ctx, s)
                assert mini.rules == minimize_sides_by_entailment(theory, ctx, s).rules


def test_each_side_edit_runs_one_test(monkeypatch):
    """A trial on the antecedent only closes the lowered antecedent in the
    context (``meet_above``) to see whether the rule still holds there; a
    trial on the consequent only forward-chains once for entailment, from
    the rule's final antecedent to its consequent before the edit.  The
    events of one rule are its antecedent trials, then its consequent
    trials, so each event is matched to the rule the walk is on."""
    rng = random.Random(3318)
    events, chains = [], []
    checking = _outside_completeness_check(monkeypatch)

    def recorder(name, module, record):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            if not checking:
                record(*args, **kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    recorder("meet_above", fai.context, lambda g, rows, top: events.append(("holds", g)))
    recorder(
        "forward_chain",
        fai.context,
        lambda pairs, start, sc, until=None: events.append(("entail", (start, until))),
    )
    recorder("forward_chain", fai.semantics, lambda *args, **kwargs: chains.append(args))
    counted = {"holds": 0, "entail": 0}
    for rung in MINE_RUNGS:
        ctx, s = rung_context(rng, *rung)
        base = reduce_to_base(complete_set(ctx, s), ctx, s)
        events.clear()
        chains.clear()
        mini = minimize_sides(base, ctx, s)
        i, phase = 0, "holds"
        for kind, masks in events:
            # an antecedent trial lowers the rule's antecedent; a consequent
            # trial chains from the final antecedent to a consequent no
            # higher than the rule's
            ante, cons = base[i].antecedent.mask, base[i].consequent.mask
            while not (
                kind == "holds" == phase
                and masks & ante == masks != ante
                or kind == "entail"
                and masks[0] == mini[i].antecedent.mask
                and masks[1] & cons == masks[1]
            ):
                i, phase = i + 1, "holds"
                assert i < len(base), (kind, masks)
                ante, cons = base[i].antecedent.mask, base[i].consequent.mask
            phase = kind
            counted[kind] += 1
        # nothing but the consequent trials forward-chains
        assert chains == []
        # a degree steps down one trial at a time until a trial is refused,
        # but a consequent degree at or below the antecedent's drops to 0
        # with no trial
        expected = {"holds": 0, "entail": 0}
        for b, m in zip(base, mini):
            for y in range(len(ctx.universe)):
                a_from, a_to = b.antecedent.idx[y], m.antecedent.idx[y]
                expected["holds"] += a_from - a_to + (a_to > 0)
                b_from, b_to, floor = b.consequent.idx[y], m.consequent.idx[y], a_to
                if b_from > floor:
                    expected["entail"] += b_from - max(b_to, floor) + (b_to > floor)
                assert b_to == 0 or b_to > floor
        assert expected == {k: sum(kind == k for kind, _ in events) for k in expected}
    assert counted["holds"] > 0 and counted["entail"] > 0


def test_a_consequent_degree_under_the_antecedent_drops_to_0(holidays, settings):
    """A rule A => downup(A) added to a complete theory keeps it complete;
    where its consequent is at or below the antecedent, the walk drops the
    consequent's degree to 0, as the step-by-step walk does."""
    ctx, s = holidays, settings[6]
    universe, chain = ctx.universe, ctx.chain
    base = reduce_to_base(complete_set(ctx, s), ctx, s)
    a = parse_lset("0.5/k, 0.75/a, e", universe, chain)
    extra = FAI(a, downup(ctx, a, s))
    assert extra.consequent != a and a <= extra.consequent
    theory = Theory([*base, extra])
    mini = minimize_sides(theory, ctx, s)
    assert mini.rules == minimize_sides_by_entailment(theory, ctx, s).rules
    last = mini[-1]
    dropped = [
        y for y in range(len(universe))
        if 0 < extra.consequent.idx[y] <= last.antecedent.idx[y]
    ]
    assert dropped and all(last.consequent.idx[y] == 0 for y in dropped)


def test_minimizing_needs_the_identity_in_s(holidays, settings):
    s = settings[6]
    base = reduce_to_base(complete_set(holidays, s), holidays, s)
    without = Parameterization(s.connections[1:], check=False)
    with pytest.raises(NotAMonoid, match="identity"):
        minimize_sides(base, holidays, without)


def test_one_pass_serves_the_mine_pipeline(pass_calls, fresh_holidays, settings):
    ctx, s = fresh_holidays(), settings[6]
    intents = intents_enum(ctx, s)
    complete = complete_set(ctx, s)
    base = reduce_to_base(complete, ctx, s)
    assert is_complete(base, ctx, s)
    minimize_sides(base, ctx, s)
    assert (len(intents), len(complete), len(pass_calls)) == (65, 9, 1)
    # the pass is kept per S: another S runs its own
    intents_enum(ctx, settings[1])
    assert len(pass_calls) == 2


def test_one_pass_serves_theory_of_system(pass_calls, holidays, settings):
    intents = intents_enum(holidays, settings[6])
    pass_calls.clear()
    theory_of_system(intents, settings[6])
    assert len(pass_calls) == 1


def test_a_kept_pass_is_held_to_a_smaller_cap(fresh_holidays, settings):
    s = settings[1]
    fresh = fresh_holidays()
    with pytest.raises(CapExceeded) as first:
        intents_enum(fresh, s, cap=5)
    kept = fresh_holidays()
    assert len(complete_set(kept, s)) == 11
    for enumerate_ in (intents_enum, pseudo_intents, complete_set):
        with pytest.raises(CapExceeded) as again:
            enumerate_(kept, s, cap=5)
        # the same answer as a pass that stops at the cap
        assert str(again.value) == str(first.value)
    assert str(first.value) == "more than 5 closed sets: 3 intents and 2 pseudo-intents visited"
    # 22 intents plus 11 pseudo-intents: a cap of 33 holds them all
    assert len(intents_enum(kept, s, cap=33)) == 22
    with pytest.raises(CapExceeded, match="21 intents and 11 pseudo-intents visited"):
        intents_enum(kept, s, cap=32)


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
