"""Value types: records behave as the frozen dataclasses they replace, and
every public value survives copy, deepcopy and pickle."""

import copy
import pickle
from fractions import Fraction

import pytest

from fai import (
    FAI,
    ApplyF,
    Axiom,
    Compose,
    ConstMult,
    ConstMultSet,
    Cut,
    CutF,
    DiffSet,
    Hyp,
    Identity,
    LSet,
    ProofStep,
    Rotate,
    check_proof,
    connection_from_descriptor,
    downup,
    intents_enum,
    least_model,
    parse_fai,
    parse_lset,
    parse_theory,
    prove,
)
from fai.fset import scale
from fai.semantics import compiled_pairs, rule_pairs

from conftest import DATA

GOAL = "0.75/a, e -> 0.5/k, l, a"

COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


def _examples(chain5, universe, holidays, settings):
    s = settings[6]
    base = parse_theory((DATA / "s6_base.txt").read_text(), universe, chain5)
    proof = prove(base, s, parse_fai(GOAL, universe, chain5))
    a = parse_lset("0.75/a, e", universe, chain5)
    b = parse_lset("0.5/k, l", universe, chain5)
    rule = FAI(a, b)
    half = connection_from_descriptor({"kind": "const-mult", "c": "0.5"}, universe, chain5)
    composite = next(conn for conn in s if isinstance(conn.term, Compose))
    return {
        "LSet": a,
        "FAI": rule,
        "Theory": base,
        "LContext": holidays,
        "Connection": composite,
        "Parameterization": s,
        "Proof": proof,
        "Identity": Identity(),
        "ConstMult": half.term,
        "ConstMultSet": ConstMultSet(b),
        "DiffSet": DiffSet(a),
        "Rotate": Rotate(2),
        "Compose": composite.term,
        "Axiom": Axiom(),
        "Hyp": Hyp(1),
        "Cut": Cut(0, 1, a),
        "ApplyF": ApplyF(0, composite),
        "CutF": CutF(0, 1, half, a, b),
        "ProofStep": ProofStep(rule, Cut(0, 1)),
    }


@pytest.mark.parametrize("how", sorted(COPIES))
def test_every_public_value_round_trips(how, chain5, universe, holidays, settings):
    values = _examples(chain5, universe, holidays, settings)
    for name, value in values.items():
        again = COPIES[how](value)
        assert type(again) is type(value), name
        assert again == value, name
        assert hash(again) == hash(value), name
    # the copied proof still checks
    again = COPIES[how](values["Proof"])
    check_proof(again, values["Theory"], settings[6], goal=values["Proof"].goal)


def test_a_copied_rule_starts_with_no_images(chain5, universe, settings):
    rule = parse_fai(GOAL, universe, chain5)
    pairs = rule_pairs(rule, settings[6])
    for how, copier in COPIES.items():
        again = copier(rule)
        assert again._pairs == {}, how
        assert rule_pairs(again, settings[6]) == pairs, how


def test_a_copied_theory_starts_with_no_compiled_pairs(chain5, universe, settings):
    s = settings[6]
    theory = parse_theory((DATA / "s6_base.txt").read_text(), universe, chain5)
    before = (hash(theory), repr(theory))
    pairs = compiled_pairs(theory, s)
    assert theory._pairs and (hash(theory), repr(theory)) == before
    for how, copier in COPIES.items():
        again = copier(theory)
        assert again._pairs == {}, how
        assert again == theory and hash(again) == hash(theory), how
        assert compiled_pairs(again, s) == pairs, how
    # equality does not read the compiled pairs
    assert theory == parse_theory((DATA / "s6_base.txt").read_text(), universe, chain5)


def test_records_compare_by_type_and_fields(chain5, universe):
    c = parse_lset("0.5/k, l", universe, chain5)
    assert ConstMultSet(c) == ConstMultSet(parse_lset("l, 0.5/k", universe, chain5))
    assert ConstMultSet(c) != DiffSet(c)
    assert hash(ConstMultSet(c)) == hash((c,))
    assert Cut(1, 2) == Cut(1, 2, None) != Cut(2, 1)
    assert Identity() == Identity() and hash(Identity()) == hash(())
    assert Rotate(2) != ConstMult(Fraction(2))
    assert len({Hyp(0), Hyp(0), Hyp(1)}) == 2


def test_records_show_as_dataclasses_did(chain5, universe):
    c = parse_lset("0.5/k", universe, chain5)
    assert repr(Cut(1, 2)) == "Cut(i=1, j=2, c=None)"
    assert repr(Identity()) == "Identity()"
    assert repr(Compose(Rotate(2), DiffSet(c))) == (
        "Compose(outer=Rotate(shift=2), inner=DiffSet(C=LSet('0.5/k')))"
    )
    assert repr(FAI(c, c)) == "FAI('0.5/k -> 0.5/k')"


def test_records_are_frozen_and_take_their_fields_positionally(chain5, universe):
    cut = Cut(1, 2)
    with pytest.raises(AttributeError):
        cut.i = 3
    with pytest.raises(AttributeError):
        del cut.i
    with pytest.raises(AttributeError):
        cut.extra = 1
    with pytest.raises(TypeError):
        Hyp()
    with pytest.raises(TypeError):
        Rotate(1, 2)
    a = LSet.bottom(universe, chain5)
    with pytest.raises(AttributeError):
        FAI(a, a).antecedent = a
    assert cut.i == 1 and cut.c is None


def test_sets_the_kernels_build_behave_as_constructed_ones(chain5, universe, holidays, settings):
    """Kernel results are LSets built from a mask through the slot setters:
    equal to the constructed set and hashing as it does, copied and pickled
    through the checked constructor, frozen, and decoded on first read."""
    s = settings[6]
    a = parse_lset("0.75/a, e", universe, chain5)
    b = parse_lset("0.5/k, l", universe, chain5)
    conn = next(conn for conn in s if isinstance(conn.term, Compose))
    built = {
        "union": a | b,
        "intersection": a & b,
        "lower": conn.lower(a),
        "upper": conn.upper(b),
        "downup": downup(holidays, a, s),
        "least_model": least_model(parse_theory((DATA / "s6_base.txt").read_text(),
                                                universe, chain5), s, a),
        "intent": intents_enum(holidays, s)[3],
        "from_mask": LSet._from_mask(universe, chain5, a.mask),
    }
    for name, lazy in built.items():
        assert type(lazy) is LSet and lazy._idx is None, name
        assert lazy.universe is universe and lazy.chain is chain5, name
        made = LSet(universe, chain5, scale(len(universe), chain5.n).decode(lazy.mask))
        assert made._idx is not None and made.mask == lazy.mask, name
        assert lazy == made and made == lazy and hash(lazy) == hash(made), name
        assert lazy._idx == made.idx and lazy.idx is lazy._idx, name
        for how, copier in COPIES.items():
            fresh = LSet._from_mask(universe, chain5, lazy.mask)
            again = copier(fresh)
            assert type(again) is LSet and again == made and hash(again) == hash(made), how
            assert again.idx == made.idx and again.mask == made.mask, how
        for slot in ("universe", "chain", "mask", "idx", "_idx", "extra"):
            with pytest.raises(AttributeError):
                setattr(lazy, slot, None)
        for slot in ("universe", "chain", "mask", "_idx"):
            with pytest.raises(AttributeError):
                delattr(lazy, slot)
        assert lazy == made and lazy.idx == made.idx, name
