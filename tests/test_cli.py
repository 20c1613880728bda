import json

import pytest

from fai import check_proof, parse_fai, parse_theory, proof_from_json, proof_to_json
from fai.cli import main

from conftest import DATA

P1 = str(DATA / "params_s1.json")
P4 = str(DATA / "params_s4.json")
P5 = str(DATA / "params_s5.json")
P6 = str(DATA / "params_s6.json")
CTX = str(DATA / "holidays.csv")
COMPLETE1 = str(DATA / "s1_complete.txt")
BASE6 = str(DATA / "s6_base.txt")
PROOF6 = str(DATA / "s6_proof.json")
GOAL = "0.75/a, e -> 0.5/k, l, a"


def test_validate(capsys):
    assert main(["validate", "--params", P6]) == 0
    out = capsys.readouterr().out
    assert "S: 8 connections" in out
    assert "chain: 5 degrees" in out
    assert "adjointness: verified for all 8 members" in out
    d = "diff-set({k, 0.5/a, 0.5/e})"
    assert out.splitlines()[3:11] == [
        "  [0] identity  fp=a725d3d2e7f2099f",
        "  [1] rotate(2)  fp=21a56c92fdf4e33f",
        f"  [2] {d}  fp=8298292980baf004",
        f"  [3] compose(rotate(2), {d})  fp=54d1e308c4ee633d",
        f"  [4] compose({d}, rotate(2))  fp=7ba7a18a069135b7",
        f"  [5] compose({d}, compose(rotate(2), {d}))  fp=c33236304423e896",
        f"  [6] compose(rotate(2), compose({d}, rotate(2)))  fp=9c62ad423f4f0577",
        f"  [7] compose(rotate(2), compose({d}, compose(rotate(2), {d})))  fp=4a3297649089ec03",
    ]


def test_closure_theory_mode(capsys):
    rc = main(["closure", "--params", P1, "--theory", COMPLETE1, "--set", ""])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out == "0.25/k, 0.25/l, 0.25/a, 0.25/e\n"
    assert "S: 2 connections" in captured.err


def test_closure_context_mode(capsys):
    rc = main(["closure", "--params", P1, "--context", CTX, "--set", "e"])
    assert rc == 0
    assert capsys.readouterr().out == "0.25/k, 0.25/l, 0.5/a, e\n"


def test_closure_needs_one_source(capsys):
    assert main(["closure", "--params", P1, "--set", "e"]) == 2
    assert main(["closure", "--params", P1, "--set", "e",
                 "--theory", COMPLETE1, "--context", CTX]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_entail(capsys):
    rc = main(["entail", "--params", P6, "--theory", BASE6, "--query", GOAL])
    assert rc == 0
    assert capsys.readouterr().out == "1\n"
    rc = main(["entail", "--params", P6, "--theory", BASE6, "--query", "e -> k"])
    assert rc == 1
    assert capsys.readouterr().out == "0.25\n"


def test_entail_json(capsys):
    rc = main(["entail", "--params", P6, "--theory", BASE6, "--query", "e -> k", "--json"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"degree": "0.25", "entailed": False}


def test_base_output_is_a_theory_file(capsys, chain5, universe):
    assert main(["base", "--params", P1, "--context", CTX]) == 0
    out = capsys.readouterr().out
    assert "# rules: 11" in out
    rules = parse_theory(out, universe, chain5)
    expected = parse_theory((DATA / "s1_complete.txt").read_text(), universe, chain5)
    assert set(rules.rules) == set(expected.rules)


def test_base_json_and_out(tmp_path, capsys):
    target = tmp_path / "rules.json"
    rc = main(["base", "--params", P1, "--context", CTX, "--json", "--out", str(target)])
    assert rc == 0
    payload = json.loads(target.read_text())
    assert payload["count"] == 11
    assert len(payload["rules"]) == 11


def test_complete_set_counts(capsys):
    assert main(["complete-set", "--params", P4, "--context", CTX]) == 0
    assert "# rules: 17" in capsys.readouterr().out
    assert main(["base", "--params", P4, "--context", CTX]) == 0
    assert "# rules: 10" in capsys.readouterr().out


def test_base_minimize_sides(capsys, chain5, universe):
    rc = main(["base", "--params", P6, "--context", CTX, "--minimize-sides"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "# rules: 5" in out
    rules = parse_theory(out, universe, chain5)
    assert parse_fai("l -> e", universe, chain5) in rules.rules


def test_intents_listing_and_dot(tmp_path, capsys):
    dot = tmp_path / "lattice.dot"
    rc = main(["intents", "--params", P5, "--context", CTX, "--dot", str(dot)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "# intents: 21" in out
    assert len([ln for ln in out.splitlines() if not ln.startswith("#")]) == 21
    text = dot.read_text()
    assert text.count("[label=") == 21
    assert "->" in text


def test_models_listing(capsys):
    rc = main(["models", "--params", P6, "--theory", BASE6])
    assert rc == 0
    assert "# models: 65" in capsys.readouterr().out


def test_check_proof_ok(capsys):
    rc = main(["check-proof", "--params", P6, "--theory", BASE6,
               "--proof", PROOF6, "--goal", GOAL])
    assert rc == 0
    assert "ok: 16 steps" in capsys.readouterr().out


def test_check_proof_tampered(tmp_path, capsys):
    data = json.loads((DATA / "s6_proof.json").read_text())
    data["steps"][3]["formula"] = "k -> l"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    rc = main(["check-proof", "--params", P6, "--theory", BASE6, "--proof", str(bad)])
    assert rc == 1
    assert "invalid:" in capsys.readouterr().out


def test_check_proof_goal_mismatch(capsys):
    rc = main(["check-proof", "--params", P6, "--theory", BASE6,
               "--proof", PROOF6, "--goal", "k -> k"])
    assert rc == 1
    assert "invalid:" in capsys.readouterr().out


def _with_step(data, k, **fields):
    steps = [dict(step) for step in data["steps"]]
    steps[k].update(fields)
    return {**data, "steps": steps}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: [], "a proof file holds a JSON object, not []"),
        (lambda d: "x", "a proof file holds a JSON object, not 'x'"),
        (lambda d: {**d, "steps": 5}, "steps must be a list, not 5"),
        (lambda d: {**d, "goal": 3}, "goal must be a string, not 3"),
        (lambda d: _with_step(d, 0, formula=7), "step 0 formula must be a string, not 7"),
        (
            lambda d: _with_step(d, 4, by={"cut": [0, 0], "C": 5}),
            "step 4 C must be a string, not 5",
        ),
        (
            lambda d: _with_step(d, 4, by={"cut": [0, 0], "C": ["a"]}),
            "step 4 C must be a string, not ['a']",
        ),
        (
            lambda d: _with_step(
                d, 4, by={"cutF": [0, 0], "conn": {"kind": "rotate", "shift": 2}, "B": 5, "C": ""}
            ),
            "step 4 B must be a string, not 5",
        ),
        (
            lambda d: _with_step(d, 4, by={"cut": [2.5, 3]}),
            "step 4 cut index must be an integer, not Fraction(5, 2)",
        ),
        (lambda d: _with_step(d, 0, by={"hyp": True}), "step 0 hyp index must be an integer, not True"),
        (
            lambda d: _with_step(d, 4, by={"applyF": 1.0, "conn": {"kind": "identity"}}),
            "step 4 applyF index must be an integer, not Fraction(1, 1)",
        ),
        (
            lambda d: _with_step(
                d, 4, by={"cutF": [0, False], "conn": {"kind": "identity"}, "B": "", "C": ""}
            ),
            "step 4 cutF index must be an integer, not False",
        ),
    ],
)
def test_malformed_proof_files_exit_3(tmp_path, capsys, edit, message):
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(edit(json.loads((DATA / "s6_proof.json").read_text()))))
    assert main(["check-proof", "--params", P6, "--theory", BASE6, "--proof", str(path)]) == 3
    assert message in capsys.readouterr().err


def test_check_proof_cutf_flag(tmp_path, capsys, settings, chain5, universe):
    from test_proof import _cutf_example

    base6 = parse_theory((DATA / "s6_base.txt").read_text(), universe, chain5)
    proof = _cutf_example(base6, chain5, universe)
    path = tmp_path / "cutf.json"
    path.write_text(json.dumps(proof_to_json(proof)))
    rc = main(["check-proof", "--params", P6, "--theory", BASE6, "--proof", str(path)])
    assert rc == 1
    assert "disabled" in capsys.readouterr().out
    rc = main(["check-proof", "--params", P6, "--theory", BASE6,
               "--proof", str(path), "--allow-cutf"])
    assert rc == 0


def test_prove_stdout_rechecks(capsys, settings, chain5, universe):
    rc = main(["prove", "--params", P6, "--theory", BASE6, "--query", GOAL])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    proof = proof_from_json(data, universe, chain5)
    theory = parse_theory((DATA / "s6_base.txt").read_text(), universe, chain5)
    goal = parse_fai(GOAL, universe, chain5)
    assert check_proof(proof, theory, settings[6], goal=goal)


def test_prove_out_file(tmp_path, capsys):
    target = tmp_path / "proof.json"
    rc = main(["prove", "--params", P6, "--theory", BASE6,
               "--query", GOAL, "--out", str(target)])
    assert rc == 0
    assert "proved in 26 steps" in capsys.readouterr().out
    assert json.loads(target.read_text())["goal"] == GOAL


def test_prove_not_entailed(capsys):
    rc = main(["prove", "--params", P6, "--theory", BASE6, "--query", "e -> k"])
    assert rc == 1
    assert "not provable" in capsys.readouterr().out


def test_bad_input_paths(tmp_path, capsys):
    assert main(["validate", "--params", str(tmp_path / "missing.json")]) == 3
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"degrees": ["0", "1"], "attributes": ["k"]}))
    assert main(["validate", "--params", str(broken)]) == 3
    assert "lacks 'logic'" in capsys.readouterr().err
    rc = main(["closure", "--params", P1, "--theory", COMPLETE1, "--set", "0.3/k"])
    assert rc == 3
    rc = main(["intents", "--params", P1, "--context", CTX, "--cap", "10"])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def _params_with(tmp_path, generators, attributes=("k", "l", "a", "e")):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({
        "degrees": ["0", "0.25", "0.5", "0.75", "1"],
        "logic": "godel",
        "attributes": list(attributes),
        "generators": generators,
    }))
    return str(path)


def test_const_mult_without_c_is_a_parse_error(tmp_path, capsys):
    assert main(["validate", "--params", _params_with(tmp_path, [{"kind": "const-mult"}])]) == 3
    assert "const-mult descriptor lacks 'c'" in capsys.readouterr().err


def test_hedge_without_fixed_points_is_a_parse_error(tmp_path, capsys):
    assert main(["validate", "--params", _params_with(tmp_path, [{"kind": "hedge"}])]) == 3
    assert "hedge descriptor lacks 'fixed_points'" in capsys.readouterr().err


def test_generators_not_a_list_is_a_parse_error(tmp_path, capsys):
    assert main(["validate", "--params", _params_with(tmp_path, "oops")]) == 3
    assert "generators must be a list" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"degrees": 5}, "degrees must be a list, not 5"),
        ({"logic": ["godel"]}, "logic must be a string, not ['godel']"),
        ({"attributes": "klae"}, "attributes must be a list of strings, not 'klae'"),
        ({"attributes": ["k", 1]}, "attributes must be a list of strings, not ['k', 1]"),
        ({"monoid_cap": [1]}, "monoid_cap must be an integer, not [1]"),
        ({"monoid_cap": True}, "monoid_cap must be an integer, not True"),
        ({"monoid_cap": 8.5}, "monoid_cap must be an integer"),
        (None, "a parameter file holds a JSON object"),
        ({"degrees": [0, None, 1]}, "cannot read degree None"),
        ({"degrees": [0, [1], 1]}, "cannot read degree [1]"),
        ({"degrees": [False, True]}, "cannot read degree False"),
        *(
            (
                {"generators": [{"kind": "hedge", "fixed_points": ["0", "1"], "drop_vacuous": v}]},
                f"hedge descriptor has a malformed 'drop_vacuous': {v!r}",
            )
            for v in ("false", 0, None)
        ),
        # with no generators S is the identity alone, which a cap below 1 excludes
        ({"monoid_cap": 0, "generators": []}, "monoid exceeds 0 connections"),
        ({"monoid_cap": -1, "generators": []}, "monoid exceeds -1 connections"),
    ],
)
def test_top_level_key_types_are_checked(tmp_path, capsys, edit, message):
    path = tmp_path / "params.json"
    data = json.loads((DATA / "params_s6.json").read_text())
    path.write_text(json.dumps([data] if edit is None else {**data, **edit}))
    assert main(["validate", "--params", str(path)]) == 3
    assert message in capsys.readouterr().err


def test_hash_in_an_attribute_name_is_rejected(tmp_path, capsys):
    params = _params_with(tmp_path, [], attributes=("k", "l", "a", "e#x"))
    assert main(["validate", "--params", params]) == 3
    assert "bad attribute name 'e#x'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--params", P6],
        ["closure", "--params", P6, "--theory", BASE6, "--set", "k"],
        ["entail", "--params", P6, "--theory", BASE6, "--query", "k -> k"],
        ["check-proof", "--params", P6, "--theory", BASE6, "--proof", PROOF6, "--goal", GOAL],
        ["prove", "--params", P6, "--theory", BASE6, "--query", GOAL],
    ],
    ids=lambda argv: argv[0],
)
def test_cap_only_on_enumerating_commands(argv, capsys):
    assert main(argv) in (0, 1)
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main([*argv, "--cap", "0"])
    assert err.value.code == 2
    assert "unrecognized arguments: --cap 0" in capsys.readouterr().err


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["entail", "--params", P1])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2
