import itertools
from fractions import Fraction

import pytest

from fai import (
    Chain,
    ChainNotClosed,
    ChainNotSymmetric,
    DegreeNotInChain,
    DualPair,
    Hedge,
    InvalidHedge,
    globalization,
    identity_hedge,
    parse_degree,
    render_degree,
)
from fai.lattice import brief_degree, brief_value

F = Fraction
FIVE = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]


def test_chain_rejects_malformed_degree_lists():
    with pytest.raises(ValueError):
        Chain([F(0)], "godel")
    with pytest.raises(ValueError):
        Chain([F(0), F(1, 2)], "godel")
    with pytest.raises(ValueError):
        Chain([F(1, 4), F(1)], "godel")
    with pytest.raises(ValueError):
        Chain([F(0), F(1, 2), F(1, 2), F(1)], "godel")
    with pytest.raises(ValueError):
        Chain(FIVE, "product")


def test_closure_validation():
    Chain(FIVE, "godel")
    Chain(FIVE, "lukasiewicz")
    Chain([F(0), F(1)], "goguen")
    # 0.25 * 0.25 = 0.0625 escapes the five-element chain
    with pytest.raises(ChainNotClosed):
        Chain(FIVE, "goguen")
    with pytest.raises(ChainNotClosed):
        Chain([F(0), F(1, 2), F(1)], "goguen")
    # Lukasiewicz needs equidistance: {0, 0.25, 1} loses 0.75 = 1 -> 0.25
    with pytest.raises(ChainNotClosed):
        Chain([F(0), F(1, 4), F(1)], "lukasiewicz")


def test_operation_values():
    # index i of FIVE is the degree i/4
    godel = Chain(FIVE, "godel")
    luk = Chain(FIVE, "lukasiewicz")
    assert godel.tnorm_i(3, 2) == 2
    assert godel.residuum_i(3, 2) == 2
    assert godel.residuum_i(1, 1) == 4
    assert luk.tnorm_i(3, 2) == 1
    assert luk.tnorm_i(1, 2) == 0
    assert luk.residuum_i(3, 2) == 3
    assert luk.residuum_i(2, 1) == 3


@pytest.mark.parametrize("degrees,logic", [
    (FIVE, "godel"),
    (FIVE, "lukasiewicz"),
    ([F(0), F(1)], "goguen"),
])
def test_residuum_is_the_largest_adjoint_solution(degrees, logic):
    ch = Chain(degrees, logic)
    for i in range(ch.n):
        for j in range(ch.n):
            best = max(c for c in range(ch.n) if ch.tnorm_i(i, c) <= j)
            assert ch.residuum_i(i, j) == best


def test_adjointness_exhaustive():
    for logic in ("godel", "lukasiewicz"):
        ch = Chain(FIVE, logic)
        for a, b, c in itertools.product(range(ch.n), repeat=3):
            assert (ch.tnorm_i(a, b) <= c) == (a <= ch.residuum_i(b, c))


def test_index_of_rejects_foreign_degrees():
    ch = Chain(FIVE, "godel")
    with pytest.raises(DegreeNotInChain):
        ch.index_of(F(1, 3))
    assert F(1, 3) not in ch
    assert F(3, 4) in ch


def test_degree_text_round_trip():
    assert parse_degree("0.25") == F(1, 4)
    assert parse_degree(" 1 ") == F(1)
    assert parse_degree("1/3") == F(1, 3)
    assert render_degree(F(1, 4)) == "0.25"
    assert render_degree(F(3, 8)) == "0.375"
    assert render_degree(F(1, 3)) == "1/3"
    assert render_degree(F(1)) == "1"
    assert render_degree(F(0)) == "0"
    with pytest.raises(DegreeNotInChain):
        parse_degree("one half")
    with pytest.raises(DegreeNotInChain):
        parse_degree("1/0")


def test_a_brief_degree_is_exact_when_short_and_cut_when_long():
    for d in [F(0), F(1), F(1, 4), F(3, 8), F(1, 3), F(7, 10**30)]:
        assert brief_degree(d) == render_degree(d)
    assert brief_degree(F(-1, 2)) == "-0.5"
    assert brief_degree(F(1, 10**4300)) == "1e-4300"
    assert brief_degree(F(7 * 10**4300)) == "7e+4300"
    assert brief_degree(1 - F(1, 10**4300)) == "0.9999999999999999...999999999999999999"
    assert brief_degree(F(2**20000 + 1, 3**20000)) == "39802768...06309377/26613034...04400001"
    for d in [F(1, 2**20000), F(3**20000, 7), F(10**4300 - 1, 10**4300)]:
        assert len(brief_degree(d)) <= 40


def test_a_brief_value_is_its_repr_when_short_and_cut_when_long():
    for v in ["godel", [1, 2], None, True, {"kind": "x"}]:
        assert brief_value(v) == repr(v)
    # numbers read as degrees, past the interpreter's limit on integer digits
    assert brief_value(7) == "7"
    assert brief_value(F(10**400)) == "1e+400"
    assert brief_value(10**5000) == "1e+5000"
    assert brief_value("x" * 500) == "'xxxxxxxxxxxxxxxxx...xxxxxxxxxxxxxxxxx'"
    for v in [list(range(1000)), {"k": "y" * 999}, 7 * (10**5000 - 1) // 9]:
        assert len(brief_value(v)) <= 40


def test_hedge_tables():
    ch = Chain(FIVE, "godel")
    g = globalization(ch)
    assert [g.apply_i(i) for i in range(ch.n)] == [0, 0, 0, 0, 4]
    ide = identity_hedge(ch)
    assert [ide.apply_i(i) for i in range(ch.n)] == [0, 1, 2, 3, 4]
    h = Hedge(ch, [F(1, 2), F(1)])
    assert h.fixed_points == (0, 2, 4)
    assert h.apply_i(3) == 2  # 0.75* = 0.5
    assert h.apply_i(1) == 0  # 0.25* = 0


def test_hedge_laws_hold_for_every_accepted_fixed_point_set():
    # 1* = 1, a* <= a, a** = a*, and (a -> b)* <= a* -> b*
    for logic in ("godel", "lukasiewicz"):
        ch = Chain(FIVE, logic)
        for extra in itertools.chain.from_iterable(
            itertools.combinations([F(1, 4), F(1, 2), F(3, 4)], r) for r in range(4)
        ):
            try:
                h = Hedge(ch, [F(1), *extra])
            except InvalidHedge:
                continue
            for a in range(ch.n):
                assert h.apply_i(a) <= a
                assert h.apply_i(h.apply_i(a)) == h.apply_i(a)
                for b in range(ch.n):
                    assert h.apply_i(ch.residuum_i(a, b)) <= ch.residuum_i(
                        h.apply_i(a), h.apply_i(b)
                    )
            assert h.apply_i(ch.n - 1) == ch.n - 1


def test_hedge_acceptance_matches_brute_force_law_check():
    for logic in ("godel", "lukasiewicz"):
        ch = Chain(FIVE, logic)
        for extra in itertools.chain.from_iterable(
            itertools.combinations([F(1, 4), F(1, 2), F(3, 4)], r) for r in range(4)
        ):
            fps = {0, ch.n - 1} | {ch.index_of(d) for d in extra}
            table = [max(f for f in fps if f <= i) for i in range(ch.n)]
            ok = all(
                table[ch.residuum_i(a, b)] <= ch.residuum_i(table[a], table[b])
                for a in range(ch.n)
                for b in range(ch.n)
            )
            try:
                Hedge(ch, [F(1), *extra])
            except InvalidHedge:
                built = False
            else:
                built = True
            assert built == ok


def test_every_godel_fixed_point_set_is_a_hedge():
    ch = Chain(FIVE, "godel")
    for extra in itertools.chain.from_iterable(
        itertools.combinations([F(1, 4), F(1, 2), F(3, 4)], r) for r in range(4)
    ):
        Hedge(ch, [F(1), *extra])


def test_lukasiewicz_rejects_a_bad_fixed_point_set():
    ch = Chain(FIVE, "lukasiewicz")
    with pytest.raises(InvalidHedge):
        Hedge(ch, [F(3, 4), F(1)])
    with pytest.raises(InvalidHedge):
        Hedge(ch, [F(1, 2)])  # 1 missing


def test_dual_pair_on_godel():
    ch = Chain(FIVE, "godel")
    dual = DualPair(ch)
    # the Godel dual: a (+) b = max(a, b); a (-) b = 0 when a <= b, else a
    for a, b in itertools.product(range(ch.n), repeat=2):
        assert dual._oplus[a][b] == max(a, b)
        assert dual.ominus_i(a, b) == (0 if a <= b else a)
    assert dual._oplus[2][1] == 2  # 0.5 (+) 0.25 = 0.5
    assert dual.ominus_i(3, 2) == 3  # 0.75 (-) 0.5 = 0.75


def test_dual_adjointness_exhaustive():
    for logic in ("godel", "lukasiewicz"):
        ch = Chain(FIVE, logic)
        dual = DualPair(ch)
        for a, b, c in itertools.product(range(ch.n), repeat=3):
            assert (dual.ominus_i(a, b) <= c) == (a <= dual._oplus[b][c])


def test_dual_pair_needs_a_symmetric_chain():
    ch = Chain([F(0), F(1, 4), F(1)], "godel")
    with pytest.raises(ChainNotSymmetric):
        DualPair(ch)
