import json
from fractions import Fraction
from pathlib import Path

import pytest

import fai.context
from fai import Chain, LContext, Universe, generate_monoid, generators_from_descriptors

DATA = Path(__file__).resolve().parent.parent / "data"


def load_params(name: str) -> dict:
    return json.loads((DATA / name).read_text(), parse_float=Fraction)


def monoid_from_params(name, universe, chain):
    gens = generators_from_descriptors(load_params(name)["generators"], universe, chain)
    return generate_monoid(gens, universe, chain)


@pytest.fixture(scope="session")
def chain5():
    return Chain([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)], "godel")


@pytest.fixture(scope="session")
def universe():
    return Universe(("k", "l", "a", "e"))


@pytest.fixture(scope="session")
def holidays(chain5, universe):
    return LContext.from_csv((DATA / "holidays.csv").read_text(), chain5, universe)


@pytest.fixture(scope="session")
def settings(chain5, universe):
    """The six parameterizations of the worked example, keyed 1..6."""
    return {
        i: monoid_from_params(f"params_s{i}.json", universe, chain5)
        for i in range(1, 7)
    }


@pytest.fixture
def fresh_holidays(chain5, universe):
    """Makes the worked example's context anew, with no Ganter pass kept on it."""
    return lambda: LContext.from_csv((DATA / "holidays.csv").read_text(), chain5, universe)


@pytest.fixture
def pass_calls(monkeypatch):
    """The argument tuples of every NextClosure run fai.context starts."""
    calls, real = [], fai.context.next_closures

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fai.context, "next_closures", counting)
    return calls
