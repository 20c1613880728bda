import json
import random
from fractions import Fraction

import pytest

from fai import (
    ApplyF,
    Axiom,
    Chain,
    Connection,
    ConstMult,
    Cut,
    CutF,
    DiffSet,
    FAI,
    GoalMismatch,
    Hyp,
    InvalidStep,
    InvariantError,
    LContext,
    LSet,
    NotProvable,
    Parameterization,
    Proof,
    ProofStep,
    Rotate,
    Theory,
    Universe,
    c_mult,
    check_proof,
    complete_set,
    downup,
    entail_degree,
    entails,
    generate_monoid,
    identity,
    least_model,
    minimize_sides,
    normalize_proof,
    parse_fai,
    parse_lset,
    parse_theory,
    proof_from_json,
    proof_to_json,
    provability_degree,
    prove,
    reduce_to_base,
)
from fai.errors import ParseError

from conftest import DATA
from scan_oracle import expand_theory, iter_lsets, normalize_by_tree, prove_by_replay

F = Fraction


@pytest.fixture(scope="module")
def base6(chain5, universe):
    return parse_theory((DATA / "s6_base.txt").read_text(), universe, chain5)


@pytest.fixture(scope="module")
def shipped_proof(chain5, universe):
    data = json.loads((DATA / "s6_proof.json").read_text())
    return proof_from_json(data, universe, chain5)


GOAL = "0.75/a, e -> 0.5/k, l, a"


def test_shipped_proof_checks(shipped_proof, base6, settings, chain5, universe):
    goal = parse_fai(GOAL, universe, chain5)
    assert check_proof(shipped_proof, base6, settings[6], goal=goal)
    assert len(shipped_proof) == 16
    assert shipped_proof.goal == goal


def test_axiom_steps(base6, settings, chain5, universe):
    ok = Proof([ProofStep(parse_fai("k, 0.5/l -> 0.5/l", universe, chain5), Axiom())])
    assert check_proof(ok, base6, settings[6])
    bad = Proof([ProofStep(parse_fai("k -> l", universe, chain5), Axiom())])
    with pytest.raises(InvalidStep) as err:
        check_proof(bad, base6, settings[6])
    assert err.value.index == 0


def test_hypothesis_steps(base6, settings, chain5, universe):
    ok = Proof([ProofStep(base6[1], Hyp(1))])
    assert check_proof(ok, base6, settings[6])
    with pytest.raises(InvalidStep):
        check_proof(Proof([ProofStep(base6[1], Hyp(2))]), base6, settings[6])
    with pytest.raises(InvalidStep):
        check_proof(Proof([ProofStep(base6[1], Hyp(7))]), base6, settings[6])


def test_cut_steps(base6, settings, chain5, universe):
    s = settings[6]
    # default C: the second premise's antecedent must contain the first's consequent
    bad_default = Proof([
        ProofStep(base6[2], Hyp(2)),
        ProofStep(parse_fai("l, 0.75/a, e -> l, 0.75/a, e", universe, chain5), Axiom()),
        ProofStep(parse_fai("l, 0.75/a, e -> 0.5/k, e", universe, chain5), Cut(0, 1, None)),
    ])
    with pytest.raises(InvalidStep):  # {0.5/k, e} not inside {l, 0.75/a, e}
        check_proof(bad_default, base6, s)
    explicit = parse_lset("l, 0.75/a, e", universe, chain5)
    good = Proof([
        ProofStep(base6[2], Hyp(2)),
        ProofStep(
            parse_fai("0.5/k, l, 0.75/a, e -> 0.5/k, l, 0.75/a, e", universe, chain5), Axiom()
        ),
        ProofStep(
            parse_fai("l, 0.75/a, e -> 0.5/k, l, 0.75/a, e", universe, chain5),
            Cut(0, 1, explicit),
        ),
    ])
    assert check_proof(good, base6, s)
    # explicit C must reconstruct the second premise's antecedent
    wrong_c = parse_lset("k", universe, chain5)
    bad = Proof([
        good.steps[0],
        good.steps[1],
        ProofStep(good.steps[2].formula, Cut(0, 1, wrong_c)),
    ])
    with pytest.raises(InvalidStep):
        check_proof(bad, base6, s)
    # premises must point backwards
    with pytest.raises(InvalidStep):
        check_proof(
            Proof([ProofStep(good.steps[2].formula, Cut(0, 1, explicit))]), base6, s
        )


def test_applyf_steps(base6, settings, chain5, universe):
    s = settings[6]
    r2 = Connection(Rotate(2), universe, chain5)
    image = FAI(r2.lower(base6[2].antecedent), r2.lower(base6[2].consequent))
    good = Proof([ProofStep(base6[2], Hyp(2)), ProofStep(image, ApplyF(0, r2))])
    assert check_proof(good, base6, s)
    r1 = Connection(Rotate(1), universe, chain5)
    outside = Proof([
        ProofStep(base6[2], Hyp(2)),
        ProofStep(FAI(r1.lower(base6[2].antecedent), r1.lower(base6[2].consequent)), ApplyF(0, r1)),
    ])
    with pytest.raises(InvalidStep) as err:
        check_proof(outside, base6, s)
    assert "not a member" in err.value.reason
    mangled = Proof([ProofStep(base6[2], Hyp(2)), ProofStep(base6[2], ApplyF(0, r2))])
    with pytest.raises(InvalidStep):
        check_proof(mangled, base6, s)


def _cutf_example(base6, chain5, universe):
    r2 = Connection(Rotate(2), universe, chain5)
    b = parse_lset("l, 0.5/a", universe, chain5)  # r2.lower(b) = {0.5/k, e}
    c = parse_lset("k", universe, chain5)
    second = FAI(parse_lset("k, l, 0.5/a", universe, chain5), parse_lset("k", universe, chain5))
    conclusion = FAI(parse_lset("l, a", universe, chain5), parse_lset("a", universe, chain5))
    steps = [
        ProofStep(base6[2], Hyp(2)),
        ProofStep(second, Axiom()),
        ProofStep(conclusion, CutF(0, 1, r2, b, c)),
    ]
    return Proof(steps)


def test_cutf_gating_and_shape(base6, settings, chain5, universe):
    s = settings[6]
    proof = _cutf_example(base6, chain5, universe)
    with pytest.raises(InvalidStep) as err:
        check_proof(proof, base6, s)
    assert "disabled" in err.value.reason
    assert check_proof(proof, base6, s, allow_cutf=True)
    r2 = Connection(Rotate(2), universe, chain5)
    wrong_b = Proof([
        proof.steps[0],
        proof.steps[1],
        ProofStep(proof.steps[2].formula, CutF(0, 1, r2, parse_lset("l", universe, chain5),
                                                parse_lset("k", universe, chain5))),
    ])
    with pytest.raises(InvalidStep):
        check_proof(wrong_b, base6, s, allow_cutf=True)


def test_cutf_equals_cut_plus_applyf(base6, settings, chain5, universe):
    s = settings[6]
    proof = _cutf_example(base6, chain5, universe)
    r2 = Connection(Rotate(2), universe, chain5)
    second = proof.steps[1].formula
    image = FAI(r2.lower(second.antecedent), r2.lower(second.consequent))
    rewritten = Proof([
        proof.steps[0],
        proof.steps[1],
        ProofStep(image, ApplyF(1, r2)),
        ProofStep(proof.steps[2].formula, Cut(0, 2, r2.lower(parse_lset("k", universe, chain5)))),
    ])
    assert check_proof(rewritten, base6, s)
    assert rewritten.goal == proof.goal


def test_cut_is_cutf_with_identity(base6, settings, chain5, universe):
    s = settings[6]
    ident = identity(universe, chain5)
    explicit = parse_lset("l, 0.75/a, e", universe, chain5)
    second = parse_fai("0.5/k, l, 0.75/a, e -> 0.5/k, l, 0.75/a, e", universe, chain5)
    conclusion = parse_fai("l, 0.75/a, e -> 0.5/k, l, 0.75/a, e", universe, chain5)
    as_cutf = Proof([
        ProofStep(base6[2], Hyp(2)),
        ProofStep(second, Axiom()),
        ProofStep(conclusion, CutF(0, 1, ident, base6[2].consequent, explicit)),
    ])
    assert check_proof(as_cutf, base6, s, allow_cutf=True)


def test_goal_mismatch(shipped_proof, base6, settings, chain5, universe):
    other = parse_fai("k -> k", universe, chain5)
    with pytest.raises(GoalMismatch):
        check_proof(shipped_proof, base6, settings[6], goal=other)


def test_prove_one_step_cases(base6, settings, chain5, universe):
    s = settings[6]
    p = prove(base6, s, base6[1])
    assert len(p) == 1 and isinstance(p.steps[0].by, Hyp)
    reflexive = parse_fai("k, 0.5/l -> 0.5/l", universe, chain5)
    p = prove(base6, s, reflexive)
    assert len(p) == 1 and isinstance(p.steps[0].by, Axiom)
    with pytest.raises(NotProvable):
        prove(base6, s, parse_fai("e -> k", universe, chain5))


def test_synthesized_proofs_check(base6, holidays, settings, chain5, universe):
    s = settings[6]
    goals = [parse_fai(GOAL, universe, chain5)]
    goals.extend(complete_set(holidays, s))
    for goal in goals:
        proof = prove(base6, s, goal)
        assert check_proof(proof, base6, s, goal=goal)


def _same_proof_as_replay(theory, s, goal):
    """prove and the replay oracle give the same steps, byte for byte in
    their JSON form, or both refuse; returns the proof's length (0 when
    refused)."""
    try:
        expected = prove_by_replay(theory, s, goal)
    except NotProvable:
        with pytest.raises(NotProvable):
            prove(theory, s, goal)
        return 0
    found = prove(theory, s, goal)
    assert found.steps == expected.steps
    assert json.dumps(proof_to_json(found)) == json.dumps(proof_to_json(expected))
    return len(expected)


def test_prove_matches_replay_oracle_on_the_worked_example(
    base6, holidays, settings, chain5, universe
):
    # goals: the worked one and every complete-set rule, from the S6 base
    # and from each setting's minimized base
    lengths = []
    for s in settings.values():
        comp = complete_set(holidays, s)
        minimized = minimize_sides(reduce_to_base(comp, holidays, s), holidays, s)
        for theory in (base6, minimized):
            for goal in (parse_fai(GOAL, universe, chain5), *comp):
                lengths.append(_same_proof_as_replay(theory, s, goal))
    assert 26 in lengths and max(lengths) > 26


@pytest.mark.parametrize("seed", [0, 7, 85])
def test_prove_matches_replay_oracle_on_a_large_monoid(seed):
    # shaped like the query benchmark: rotate(2) and a difference by one
    # step at two seeded attributes (|S| = 85), rows leaning to the top
    # degree and 16 context-sound rules A => C(A)
    ch = Chain([F(k, 4) for k in range(5)], "godel")
    u = Universe([f"y{k}" for k in range(5)])
    rng = random.Random(seed)
    steps = rng.sample(range(5), 2)
    step = LSet(u, ch, [1 if k in steps else 0 for k in range(5)])
    s = generate_monoid([Connection(Rotate(2), u, ch), Connection(DiffSet(step), u, ch)], u, ch)
    assert len(s) == 85
    rows = [LSet(u, ch, [rng.choice((1, 2, 3, 4, 4)) for _ in range(5)]) for _ in range(8)]
    ctx = LContext(u, ch, [f"o{k}" for k in range(8)], rows)

    def draw():
        return LSet(u, ch, [rng.choice((0, 0, 1, 2, 3, 4)) for _ in range(5)])

    rules = {}
    while len(rules) < 16:
        a = draw()
        closed = downup(ctx, a, s)
        if closed != a:
            rules.setdefault(a, FAI(a, closed))
    theory = Theory(list(rules.values()))
    lengths = []
    while len(lengths) < 25:
        a = draw()
        closed = least_model(theory, s, a)
        if closed != a:
            lengths.append(_same_proof_as_replay(theory, s, FAI(a, closed)))
    assert min(lengths) > 1


def _assert_normal_form(norm):
    """F only on hypotheses, every F step before every Cut, no CutF."""
    assert not any(isinstance(st.by, CutF) for st in norm.steps)
    f_pos = [k for k, st in enumerate(norm.steps) if isinstance(st.by, ApplyF)]
    cut_pos = [k for k, st in enumerate(norm.steps) if isinstance(st.by, Cut)]
    for k in f_pos:
        assert isinstance(norm.steps[norm.steps[k].by.i].by, Hyp)
    if f_pos and cut_pos:
        assert max(f_pos) < min(cut_pos)


def test_synthesis_emits_the_normal_form(base6, settings, chain5, universe):
    _assert_normal_form(prove(base6, settings[6], parse_fai(GOAL, universe, chain5)))


def test_normalize_removes_cutf(base6, settings, chain5, universe):
    s = settings[6]
    proof = _cutf_example(base6, chain5, universe)
    norm = normalize_proof(proof, base6, s)
    assert norm.goal == proof.goal
    assert check_proof(norm, base6, s)  # no allow_cutf: CutF is gone
    _assert_normal_form(norm)


def _stacked_f_example(base6, chain5, universe):
    r2 = Connection(Rotate(2), universe, chain5)
    rule = base6[2]
    once = FAI(r2.lower(rule.antecedent), r2.lower(rule.consequent))
    twice = FAI(r2.lower(once.antecedent), r2.lower(once.consequent))
    return Proof([
        ProofStep(rule, Hyp(2)),
        ProofStep(once, ApplyF(0, r2)),
        ProofStep(twice, ApplyF(1, r2)),
    ])


def test_normalize_composes_stacked_f_steps(base6, settings, chain5, universe):
    s = settings[6]
    proof = _stacked_f_example(base6, chain5, universe)
    assert check_proof(proof, base6, s)
    norm = normalize_proof(proof, base6, s)
    assert norm.goal == proof.goal == base6[2]
    # the stacked rotations collapse into the identity member of S
    last = norm.steps[-1].by
    assert isinstance(last, (Hyp, ApplyF))
    assert check_proof(norm, base6, s)


def test_normalize_matches_the_tree_oracle(shipped_proof, base6, settings, chain5, universe):
    # the corpus: the shipped proof, the CutF and stacked-F examples, and
    # prove's proofs of 40 seeded goals A => C(A) & M on each setting over
    # the S6 base, each also with an ApplyF by each of S's first four
    # members appended to its goal
    corpus = [
        (shipped_proof, settings[6]),
        (_cutf_example(base6, chain5, universe), settings[6]),
        (_stacked_f_example(base6, chain5, universe), settings[6]),
    ]
    for i, s in settings.items():
        rng = random.Random(i)

        def draw():
            return LSet(universe, chain5, [rng.randrange(5) for _ in range(4)])

        for _ in range(40):
            a, cap = draw(), draw()
            proof = prove(base6, s, FAI(a, least_model(base6, s, a) & cap))
            corpus.append((proof, s))
            goal = proof.goal
            for f in list(s)[:4]:
                image = FAI(f.lower(goal.antecedent), f.lower(goal.consequent))
                corpus.append((Proof([*proof.steps, ProofStep(image, ApplyF(len(proof) - 1, f))]), s))
    assert len(corpus) == 803
    lengths = []
    for proof, s in corpus:
        norm = normalize_proof(proof, base6, s)
        assert proof_to_json(norm) == proof_to_json(normalize_by_tree(proof, base6, s))
        _assert_normal_form(norm)
        lengths.append(len(norm))
    assert max(lengths) > 26 and 1 in lengths


def test_normalize_has_no_depth_limit():
    # y0 => y1, ..., y998 => y999 over {0, 1} with S the identity: prove
    # gives 3,999 steps, past where a recursive walk meets Python's limit
    u = Universe([f"y{k}" for k in range(1000)])
    ch = Chain([F(0), F(1)], "godel")
    s = Parameterization([identity(u, ch)])

    def single(k):
        return LSet(u, ch, [int(x == k) for x in range(1000)])

    theory = Theory([FAI(single(k), single(k + 1)) for k in range(999)])
    goal = FAI(single(0), single(999))
    proof = prove(theory, s, goal)
    assert len(proof) == 3999
    norm = normalize_proof(proof, theory, s)
    assert check_proof(norm, theory, s, goal=goal)
    _assert_normal_form(norm)


def test_normalize_in_an_unclosed_s_raises_a_typed_error(base6, chain5, universe):
    # S built unchecked: rotate(1) o rotate(1) = rotate(2) is not a member
    r1 = Connection(Rotate(1), universe, chain5)
    s = Parameterization([identity(universe, chain5), r1], check=False)
    rule = base6[2]
    once = FAI(r1.lower(rule.antecedent), r1.lower(rule.consequent))
    twice = FAI(r1.lower(once.antecedent), r1.lower(once.consequent))
    proof = Proof([
        ProofStep(rule, Hyp(2)),
        ProofStep(once, ApplyF(0, r1)),
        ProofStep(twice, ApplyF(1, r1)),
    ])
    assert check_proof(proof, base6, s)
    with pytest.raises(InvariantError, match="not closed under composition"):
        normalize_proof(proof, base6, s)


def test_normalize_pushes_f_through_cut(shipped_proof, base6, settings):
    norm = normalize_proof(shipped_proof, base6, settings[6])
    assert norm.goal == shipped_proof.goal
    assert check_proof(norm, base6, settings[6])
    _assert_normal_form(norm)


def test_expand_theory(base6, settings, chain5, universe):
    s = settings[6]
    expanded = expand_theory(base6, s)
    assert len(expanded) <= len(base6) * len(s)
    assert len(set(expanded.rules)) == len(expanded)
    for rule in base6:
        assert rule in expanded.rules  # identity is in S
    ident = Parameterization([identity(universe, chain5)])
    goal = parse_fai(GOAL, universe, chain5)
    assert goal.consequent <= least_model(expanded, ident, goal.antecedent)


def test_cut_only_provability_matches_prove():
    ch = Chain([F(0), F(1, 2), F(1)], "godel")
    u = Universe(("x", "y"))
    s = Parameterization([identity(u, ch), Connection(ConstMult(F(1, 2)), u, ch)])
    ident = Parameterization([identity(u, ch)])
    rng = random.Random(21)
    sets = list(iter_lsets(u, ch))
    for _ in range(80):
        th = Theory([FAI(rng.choice(sets), rng.choice(sets)) for _ in range(rng.randrange(1, 4))])
        goal = FAI(rng.choice(sets), rng.choice(sets))
        cut_only = goal.consequent <= least_model(expand_theory(th, s), ident, goal.antecedent)
        assert cut_only == entails(th, goal, s)
        try:
            proof = prove(th, s, goal)
        except NotProvable:
            assert not cut_only
        else:
            assert cut_only
            assert check_proof(proof, th, s, goal=goal)


def test_provability_degree(base6, settings, chain5, universe):
    s = settings[6]
    for text in (GOAL, "e -> k", "l -> 0.75/e", "k -> 0.25/l"):
        goal = parse_fai(text, universe, chain5)
        assert provability_degree(base6, s, goal) == entail_degree(base6, goal, s)


def test_provability_degree_proves_once(base6, settings, chain5, universe, monkeypatch):
    import fai.proof

    calls, real = [], fai.proof.prove

    def counting(theory, s, goal):
        calls.append(goal)
        return real(theory, s, goal)

    monkeypatch.setattr(fai.proof, "prove", counting)
    s = settings[6]
    for text in (GOAL, "e -> k", "l -> 0.75/e", "k -> 0.25/l"):
        goal = parse_fai(text, universe, chain5)
        calls.clear()
        degree = provability_degree(base6, s, goal)
        assert calls == [FAI(goal.antecedent, c_mult(degree, goal.consequent))]

    def failing(theory, s, goal):
        raise NotProvable("refused")

    monkeypatch.setattr(fai.proof, "prove", failing)
    with pytest.raises(InvariantError):
        provability_degree(base6, s, parse_fai(GOAL, universe, chain5))


def test_proof_json_round_trip(shipped_proof, base6, settings, chain5, universe):
    data = proof_to_json(shipped_proof)
    back = proof_from_json(data, universe, chain5)
    assert [st.formula for st in back.steps] == [st.formula for st in shipped_proof.steps]
    assert check_proof(back, base6, settings[6])
    # generated descriptors carry fingerprints and survive the check
    assert all(
        "fingerprint" in st["by"]["conn"]
        for st in data["steps"]
        if isinstance(st["by"], dict) and "conn" in st["by"]
    )
    mixed = _cutf_example(base6, chain5, universe)
    again = proof_from_json(proof_to_json(mixed), universe, chain5)
    assert check_proof(again, base6, settings[6], allow_cutf=True)


def test_proof_json_rejections(chain5, universe):
    with pytest.raises(ParseError):
        proof_from_json({"steps": []}, universe, chain5)
    with pytest.raises(ParseError):
        proof_from_json({"steps": [{"by": "axiom"}]}, universe, chain5)
    with pytest.raises(ParseError):
        proof_from_json({"steps": [{"formula": "k -> k", "by": {"warp": 1}}]}, universe, chain5)
    with pytest.raises(ParseError):
        proof_from_json(
            {"goal": "k -> l", "steps": [{"formula": "k -> k", "by": "axiom"}]},
            universe,
            chain5,
        )
    with pytest.raises(ParseError):
        proof_from_json(
            {"steps": [{"formula": "k -> k", "by": {
                "applyF": 0,
                "conn": {"kind": "rotate", "shift": 1, "fingerprint": "0" * 16},
            }}]},
            universe,
            chain5,
        )
