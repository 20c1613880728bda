"""Brute-force references kept for tests only.

Each function sweeps all |L|^|Y| graded sets.  fai enumerates pseudo-intents
and models with NextClosure, decides completeness by entailment of the
complete set and takes the theory of a closure system as the complete set of
the context it spans, so these serve as independent oracles.
"""

import itertools

from fai import (
    FAI,
    CapExceeded,
    LSet,
    NotClosureSystem,
    Theory,
    downup,
    least_model,
    render_lset,
)


def iter_lsets(universe, chain):
    """All LSets over the universe in ascending lectic order.

    Lectic = lexicographic on degree vectors with the first attribute most
    significant; A < B iff at the first attribute where they differ, A's
    degree is smaller.  Proper containment implies lectic order.
    """
    for idx in itertools.product(range(chain.n), repeat=len(universe)):
        yield LSet(universe, chain, idx)


def lset_count(universe, chain) -> int:
    return chain.n ** len(universe)


def pseudo_intents_by_scan(ctx, s, order="sum-lectic"):
    """The (pseudo-intent, closure) pairs found by visiting every set in an
    order extending proper containment: "sum-lectic" (ascending degree sum,
    then lectic) or "lectic".  P qualifies iff it is not closed and every
    pseudo-intent Q found properly below P has its closure inside P."""
    sets = list(iter_lsets(ctx.universe, ctx.chain))
    if order == "sum-lectic":
        sets.sort(key=lambda m: (sum(m.degrees()), m.idx))
    elif order != "lectic":
        raise ValueError(f"unknown scan order {order!r}")
    found = []
    for m in sets:
        cl = downup(ctx, m, s)
        if cl != m and all(not q < m or qcl <= m for q, qcl in found):
            found.append((m, cl))
    return found


def models_by_sweep(theory, s):
    """Every set that is its own least model, in lectic order."""
    return [m for m in iter_lsets(s.universe, s.chain) if least_model(theory, s, m) == m]


def complete_by_scan(theory, ctx, s):
    """Whether the theory's least model equals downup on every set."""
    return all(
        least_model(theory, s, m) == downup(ctx, m, s) for m in iter_lsets(ctx.universe, ctx.chain)
    )


def minimize_sides_by_scan(theory, ctx, s, complete=complete_by_scan):
    """The side-minimizing walk of fai.minimize_sides, deciding each edit by
    ``complete(theory, ctx, s)`` on the whole edited theory."""
    current = theory
    for i in range(len(current)):
        for side in ("antecedent", "consequent"):
            for y in range(len(ctx.universe)):
                while True:
                    rule = current[i]
                    lset = getattr(rule, side)
                    if lset.idx[y] == 0:
                        break
                    lowered = lset.with_index(y, lset.idx[y] - 1)
                    cand = (
                        FAI(lowered, rule.consequent)
                        if side == "antecedent"
                        else FAI(rule.antecedent, lowered)
                    )
                    edited = current.replaced(i, cand)
                    if not complete(edited, ctx, s):
                        break
                    current = edited
    return current


def theory_of_system_by_sweep(models, s, cap=10**6):
    """A theory whose models are exactly the given S-closure system.

    The input must contain the top set, be closed under pairwise
    intersections and under every upper adjoint of S (NotClosureSystem
    otherwise).  Emits A => C(A) for every A with C(A) != A, where C(A) is
    the least member containing A.
    """
    models = list(models)
    if not models:
        raise NotClosureSystem("a closure system contains at least the top set")
    universe, chain = s.universe, s.chain
    total = lset_count(universe, chain)
    if total > cap:
        raise CapExceeded(f"{total} candidate sets exceed the cap {cap}")
    have = set(models)
    top = LSet.top(universe, chain)
    if top not in have:
        raise NotClosureSystem("the top set is missing")
    for a in models:
        for b in models:
            if a & b not in have:
                raise NotClosureSystem(
                    f"not intersection-closed: {render_lset(a)!r} and {render_lset(b)!r}"
                )
        for conn in s:
            if conn.upper(a) not in have:
                raise NotClosureSystem(
                    f"not closed under an upper adjoint at {render_lset(a)!r}"
                )
    rules = []
    seen = set()
    for a in iter_lsets(universe, chain):
        closure = top
        for m in models:
            if a <= m:
                closure = closure & m
        if closure != a:
            rule = FAI(a, closure)
            if rule not in seen:
                seen.add(rule)
                rules.append(rule)
    return Theory(rules)
