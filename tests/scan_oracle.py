"""Brute-force references kept for tests only.

Every function but ``prove_by_replay`` sweeps all |L|^|Y| graded sets.
fai enumerates pseudo-intents and models with NextClosure, decides
completeness by entailment of the complete set and takes the theory of a
closure system as the complete set of the context it spans, so these serve
as independent oracles.  ``prove_by_replay`` is ``prove`` as it was before
it shared the forward-chaining engine: its own saturation loop over LSets,
re-deriving every (rule, connection) image on every pass.
"""

import itertools

from fai import (
    FAI,
    ApplyF,
    Axiom,
    CapExceeded,
    Cut,
    Hyp,
    InvariantError,
    LSet,
    NotClosureSystem,
    NotProvable,
    Parameterization,
    Proof,
    ProofStep,
    Theory,
    downup,
    entails,
    identity,
    least_model,
    render_fai,
    render_lset,
    union,
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


def prove_by_replay(theory: Theory, s: Parameterization, goal: FAI) -> Proof:
    """Synthesize a proof of the goal, or raise NotProvable.

    Emits the F-before-Cut normal form: a hypothesis plus F step for every
    (rule, connection) pair the saturation fires, then Cut steps growing
    A => N along the least-model iteration, and one axiom Cut extracting the
    goal from the closure.
    """
    if not entails(theory, goal, s):
        raise NotProvable(f"{render_fai(goal)!r} is not entailed")
    for ri, rule in enumerate(theory):
        if rule == goal:
            return Proof([ProofStep(goal, Hyp(ri))])
    if goal.consequent <= goal.antecedent:
        return Proof([ProofStep(goal, Axiom())])

    # replay the saturation, recording which (rule, connection) pairs fire
    fires = []
    cur = goal.antecedent
    changed = True
    while changed and not goal.consequent <= cur:
        changed = False
        for ri, rule in enumerate(theory):
            for conn in s:
                fa = conn.lower(rule.antecedent)
                fb = conn.lower(rule.consequent)
                if fa <= cur and not fb <= cur:
                    fires.append((ri, conn, fb, cur, union(cur, fb)))
                    cur = union(cur, fb)
                    changed = True
    if not goal.consequent <= cur:
        raise InvariantError("the replayed saturation stopped below the entailed goal")

    ident = identity(s.universe, s.chain)
    steps: list[ProofStep] = []
    image_step: dict = {}
    hyp_step: dict = {}
    for ri, conn, fb, before, after in fires:
        key = (ri, conn.fingerprint)
        if key in image_step:
            continue
        if ri not in hyp_step:
            hyp_step[ri] = len(steps)
            steps.append(ProofStep(theory[ri], Hyp(ri)))
        if conn.fingerprint == ident.fingerprint:
            image_step[key] = hyp_step[ri]
        else:
            rule = theory[ri]
            img = FAI(conn.lower(rule.antecedent), conn.lower(rule.consequent))
            image_step[key] = len(steps)
            steps.append(ProofStep(img, ApplyF(hyp_step[ri], conn)))

    bottom = LSet.bottom(s.universe, s.chain)
    current = len(steps)
    steps.append(ProofStep(FAI(goal.antecedent, goal.antecedent), Axiom()))
    for ri, conn, fb, before, after in fires:
        pi = image_step[(ri, conn.fingerprint)]
        ax = len(steps)
        steps.append(ProofStep(FAI(after, after), Axiom()))
        grow = len(steps)
        steps.append(ProofStep(FAI(before, after), Cut(pi, ax, before)))
        nxt = len(steps)
        steps.append(ProofStep(FAI(goal.antecedent, after), Cut(current, grow, bottom)))
        current = nxt
    closure = fires[-1][4] if fires else goal.antecedent
    ax = len(steps)
    steps.append(ProofStep(FAI(closure, goal.consequent), Axiom()))
    steps.append(ProofStep(goal, Cut(current, ax, bottom)))
    return Proof(steps)
