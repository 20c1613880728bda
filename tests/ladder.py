"""Seeded inputs shaped like the synthetic benchmark ladder, shared by tests."""

import random
from fractions import Fraction as F

from fai import (
    FAI,
    Chain,
    Connection,
    ConstMultSet,
    DiffSet,
    LContext,
    LSet,
    Rotate,
    Theory,
    Universe,
    downup,
    generate_monoid,
)


def rotate_diff_generators(logic: str, degrees: int):
    """rotate(2) and a diff-set with one step at two of five attributes."""
    chain = Chain([F(i, degrees - 1) for i in range(degrees)], logic)
    universe = Universe([f"y{k}" for k in range(5)])
    const = LSet(universe, chain, [1, 0, 1, 0, 0])
    gens = [Connection(Rotate(2), universe, chain), Connection(DiffSet(const), universe, chain)]
    return gens, universe, chain


# The shapes of the synthetic mining ladder: |Y|, |L|, logic, the generator
# beside rotate(shift), the shift and the object count.
MINE_RUNGS = [
    (4, 3, "godel", DiffSet, 2, 6),
    (4, 4, "lukasiewicz", ConstMultSet, 2, 6),
    (4, 5, "lukasiewicz", DiffSet, 2, 6),
    (4, 5, "godel", DiffSet, 2, 6),
    (6, 3, "godel", DiffSet, 2, 6),
    (4, 6, "godel", ConstMultSet, 2, 4),
    (6, 3, "lukasiewicz", ConstMultSet, 3, 4),
]


def rung_context(rng, ny, nl, logic, kind, shift, nobj):
    """A random context of a ladder rung, and its S: rotate(shift) and a
    generator whose constant has one attribute at 1 and two at the middle
    degree, rotated by a random offset."""
    chain = Chain([F(k, nl - 1) for k in range(nl)], logic)
    universe = Universe([f"y{k}" for k in range(ny)])
    mid = (nl - 1) // 2
    template = [nl - 1, mid, 0, mid] + [0] * (ny - 4)
    k = rng.randrange(ny)
    const = LSet(universe, chain, template[k:] + template[:k])
    gens = [Connection(Rotate(shift), universe, chain), Connection(kind(const), universe, chain)]
    rows = [LSet(universe, chain, [rng.randrange(nl) for _ in range(ny)]) for _ in range(nobj)]
    ctx = LContext(universe, chain, [f"o{k}" for k in range(nobj)], rows)
    return ctx, generate_monoid(gens, universe, chain)


def ladder_case(ny, seed):
    """A context of the scaling ladder and its S: eight random rows over a
    Goedel chain with |L| = 5, S generated by rotate(2) and a diff-set whose
    constant has index 0 or 1 at each attribute, drawn before the rows,
    from ``Random(1000 * seed + ny)``."""
    rng = random.Random(1000 * seed + ny)
    chain = Chain([F(k, 4) for k in range(5)], "godel")
    universe = Universe([f"y{k}" for k in range(ny)])
    const = LSet(universe, chain, [rng.randrange(2) for _ in range(ny)])
    gens = [Connection(Rotate(2), universe, chain), Connection(DiffSet(const), universe, chain)]
    rows = [LSet(universe, chain, [rng.randrange(5) for _ in range(ny)]) for _ in range(8)]
    ctx = LContext(universe, chain, [f"o{k}" for k in range(8)], rows)
    return ctx, generate_monoid(gens, universe, chain)


def query_case(rng):
    """A context, S and theory shaped like the benchmark's query workload:
    |Y| = |L| = 5 over Goedel, S generated by rotate(2) and a diff-set with
    one step at two random attributes (|S| = 85), eight rows leaning to the
    top degree, and 16 context-sound rules A => C(A) with C(A) != A."""
    chain = Chain([F(k, 4) for k in range(5)], "godel")
    universe = Universe([f"y{k}" for k in range(5)])
    steps = rng.sample(range(5), 2)
    const = LSet(universe, chain, [1 if k in steps else 0 for k in range(5)])
    gens = [Connection(Rotate(2), universe, chain), Connection(DiffSet(const), universe, chain)]
    s = generate_monoid(gens, universe, chain)
    rows = [LSet(universe, chain, [rng.choice((1, 2, 3, 4, 4)) for _ in range(5)]) for _ in range(8)]
    ctx = LContext(universe, chain, [f"o{k}" for k in range(8)], rows)
    rules = {}
    while len(rules) < 16:
        a = LSet(universe, chain, [rng.choice((0, 0, 1, 2, 3, 4)) for _ in range(5)])
        closed = downup(ctx, a, s)
        if closed != a:
            rules.setdefault(a, FAI(a, closed))
    return ctx, s, Theory(rules.values())
