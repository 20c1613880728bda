"""Brute-force references kept for tests only.

Each function sweeps all |L|^|Y| graded sets.  fai enumerates pseudo-intents
and models with NextClosure and decides completeness by entailment of the
complete set, so these serve as independent oracles.
"""

from fai import FAI, downup, iter_lsets, least_model


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
