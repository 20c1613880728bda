"""Brute-force references kept for tests only.

Every function but ``prove_by_replay`` sweeps all |L|^|Y| graded sets.
fai enumerates pseudo-intents and models with NextClosure, decides
completeness by entailment of the complete set and takes the theory of a
closure system as the complete set of the context it spans, so these serve
as independent oracles.  ``prove_by_replay`` is ``prove`` as it was before
it shared the forward-chaining engine: its own saturation loop over LSets,
re-deriving every (rule, connection) image on every pass.
``idx_meet_above`` is the context closure's kernel as it was on index
vectors, before fai encoded graded sets as masks.  ``next_closures_on_lsets``
is NextClosure as it was before it stepped on masks, and
``reduce_to_base_by_entailment`` and ``minimize_sides_by_entailment`` are
the reduction and the side-minimizing walk as they were before they
compiled a theory once: each test of entailment runs ``least_model`` on
the whole theory and compares.  ``complete_by_complete_set`` is the full
completeness check as it was before it read the pseudo-intents off the
Ganter pass: it builds the complete set and tests each of its rules.
``expand_theory`` lists every image f(A) => f(B) of a theory's rules under
S, so that provability by Cut alone over the images is least-model
membership under the identity: an oracle for provability with F.
``drop_rule`` and ``lower_at`` are the edits the walks make, a theory
without one rule and a set one degree lower at one attribute.
``row_images_by_scan`` lists every distinct image g(I_x) of a context, as
the context closure read them before it kept only the meet-irreducible
ones.  ``ganter_pass_by_chaining`` is the Ganter pass as it was before it
closed each candidate by the context first: it chains every candidate to
saturation over the pseudo-intent rules, then takes the context closure
of each set it yields.  ``normalize_by_tree`` is ``normalize_proof`` as it was before it
rewrote the proof's own steps: it copies the proof into a tree of its own
nodes, pushes F through Cuts and places the steps by recursion, so it
reaches Python's recursion limit on long proofs.  ``undominated_by_eviction``
is ``semantics.undominated`` as it was before it sorted its feed: one pass
in the order the pairs come, where a newcomer may evict kept pairs.
"""

import itertools
from operator import le

from fai import (
    FAI,
    ApplyF,
    Axiom,
    CapExceeded,
    Cut,
    CutF,
    Hyp,
    InvariantError,
    LSet,
    NotClosureSystem,
    NotProvable,
    Parameterization,
    Proof,
    ProofStep,
    Theory,
    check_proof,
    complete_set,
    downup,
    entails,
    holds_in_context,
    identity,
    least_model,
    render_fai,
    render_lset,
    union,
)
from fai.fset import forward_chain, meet_above, next_closures, scale


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


def idx_meet_above(g, rows, top):
    """The entrywise minimum of the index vectors in rows that contain the
    index vector g; all top if none does."""
    above = [r for r in rows if all(map(le, g, r))]
    return tuple(min(column) for column in zip(*above)) if above else (top,) * len(g)


def row_images_by_scan(ctx, s):
    """The distinct masks of g(I_x) over objects x and <f, g> in S, in the
    order first met: rows in order, S's members in order within a row."""
    return tuple(dict.fromkeys(conn.upper(r).mask for r in ctx.rows for conn in s))


def ganter_pass_by_chaining(ctx, s, cap=10**6):
    """Every (mask, closure mask) pair Ganter's algorithm visits, in
    ascending lectic order: each candidate closed by forward chaining over
    the (Q, C(Q)) pairs found so far, each set yielded then closed by the
    meet of every distinct row image."""
    visited, rules = [], []
    sc = scale(len(ctx.universe), ctx.chain.n)
    rows = row_images_by_scan(ctx, s)
    for q in next_closures(ctx.universe, ctx.chain, lambda a: forward_chain(rules, a, sc), cap):
        cl = meet_above(q, rows, sc.top)
        visited.append((q, cl))
        if cl != q:
            rules.append((q, cl))
    return tuple(visited)


def next_closures_on_lsets(universe, chain, close, cap):
    """The fixed points of ``close`` on LSets in ascending lectic order,
    stepping on degree vectors; CapExceeded once more than ``cap`` sets
    would be emitted."""
    size, top = len(universe), chain.n - 1
    cur = close(LSet.bottom(universe, chain))
    emitted = 0
    while cur is not None:
        emitted += 1
        if emitted > cap:
            raise CapExceeded(f"more than {cap} closed sets")
        yield cur
        a, cur = cur.idx, None
        for i in range(size - 1, -1, -1):
            if a[i] == top:
                continue
            cand = close(LSet(universe, chain, a[:i] + (a[i] + 1,) + (0,) * (size - i - 1)))
            if cand.idx[:i] == a[:i]:
                cur = cand
                break


def drop_rule(theory, i):
    """The theory without its i-th rule."""
    return Theory(theory.rules[:i] + theory.rules[i + 1 :])


def lower_at(lset, y):
    """The set one degree lower at attribute position y."""
    idx = lset.idx
    return LSet(lset.universe, lset.chain, idx[:y] + (idx[y] - 1,) + idx[y + 1 :])


def expand_theory(theory, s):
    """All images f(A) => f(B) of the rules under the lower maps of S."""
    images = (
        FAI(conn.lower(rule.antecedent), conn.lower(rule.consequent))
        for rule in theory
        for conn in s
    )
    return Theory(dict.fromkeys(images))


def reduce_to_base_by_entailment(theory, ctx, s):
    """Drop, in order, every rule the remaining ones entail."""
    current = theory
    i = 0
    while i < len(current):
        trimmed = drop_rule(current, i)
        if current[i].consequent <= least_model(trimmed, s, current[i].antecedent):
            current = trimmed
        else:
            i += 1
    return current


def minimize_sides_by_entailment(theory, ctx, s):
    """The side-minimizing walk of fai.minimize_sides on a complete theory,
    keeping an edit of rule r into r' when r' holds in the context and the
    edited theory entails r."""
    current = theory
    for i in range(len(current)):
        for side in ("antecedent", "consequent"):
            for y in range(len(ctx.universe)):
                while True:
                    rule = current[i]
                    lset = getattr(rule, side)
                    if lset.idx[y] == 0:
                        break
                    lowered = lower_at(lset, y)
                    cand = (
                        FAI(lowered, rule.consequent)
                        if side == "antecedent"
                        else FAI(rule.antecedent, lowered)
                    )
                    edited = Theory(current.rules[:i] + (cand,) + current.rules[i + 1 :])
                    holds = cand.consequent <= downup(ctx, cand.antecedent, s)
                    if not (holds and rule.consequent <= least_model(edited, s, rule.antecedent)):
                        break
                    current = edited
    return current


def pseudo_intents_by_scan(ctx, s, order="sum-lectic"):
    """The (pseudo-intent, closure) pairs found by visiting every set in an
    order extending proper containment: "sum-lectic" (ascending degree sum,
    then lectic) or "lectic".  P qualifies iff it is not closed and every
    pseudo-intent Q found properly below P has its closure inside P."""
    sets = list(iter_lsets(ctx.universe, ctx.chain))
    if order == "sum-lectic":
        degrees = ctx.chain.degrees
        sets.sort(key=lambda m: (sum(degrees[k] for k in m.idx), m.idx))
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


def complete_by_complete_set(theory, ctx, s, cap=10**6):
    """Whether every rule holds in the context and the theory entails
    every rule of the complete set (``cap`` bounds its enumeration)."""
    comp = complete_set(ctx, s, cap)
    return all(holds_in_context(ctx, r, s) for r in theory) and all(
        entails(theory, r, s) for r in comp
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
                    lowered = lower_at(lset, y)
                    cand = (
                        FAI(lowered, rule.consequent)
                        if side == "antecedent"
                        else FAI(rule.antecedent, lowered)
                    )
                    edited = Theory(current.rules[:i] + (cand,) + current.rules[i + 1 :])
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


class _Node:
    """A proof tree node; hashed by identity so shared subproofs stay shared."""

    __slots__ = ("kind", "formula", "rule", "conn", "p", "q", "c")

    def __init__(self, kind, formula, rule=None, conn=None, p=None, q=None, c=None):
        self.kind = kind
        self.formula = formula
        self.rule = rule
        self.conn = conn
        self.p = p
        self.q = q
        self.c = c


def normalize_by_tree(proof: Proof, theory: Theory, s: Parameterization) -> Proof:
    """The F-before-Cut normal form of a checked proof, built on a tree."""
    check_proof(proof, theory, s, allow_cutf=True)
    memo = {}
    pushed = {}

    def build(k):
        if k in memo:
            return memo[k]
        step = proof.steps[k]
        by = step.by
        if isinstance(by, Axiom):
            node = _Node("axiom", step.formula)
        elif isinstance(by, Hyp):
            node = _Node("hyp", step.formula, rule=by.rule)
        elif isinstance(by, Cut):
            c = by.c if by.c is not None else proof.steps[by.j].formula.antecedent
            node = _Node("cut", step.formula, p=build(by.i), q=build(by.j), c=c)
        elif isinstance(by, ApplyF):
            node = push(s.resolve(by.conn), build(by.i))
        elif isinstance(by, CutF):
            member = s.resolve(by.conn)
            fq = push(member, build(by.j))
            node = _Node("cut", step.formula, p=build(by.i), q=fq, c=member.lower(by.c))
        else:
            raise InvariantError(f"step {k}: unknown justification {by!r}")
        memo[k] = node
        return node

    def push(f, node):
        key = (id(node), f.lower_masks)
        if key in pushed:
            return pushed[key]
        formula = FAI(f.lower(node.formula.antecedent), f.lower(node.formula.consequent))
        if node.kind == "axiom":
            out = _Node("axiom", formula)
        elif node.kind == "hyp":
            out = _Node("applyf", formula, conn=f, p=node)
        elif node.kind == "applyf":
            out = _Node("applyf", formula, conn=s.compose_in(f, node.conn), p=node.p)
        elif node.kind == "cut":
            out = _Node("cut", formula, p=push(f, node.p), q=push(f, node.q), c=f.lower(node.c))
        else:
            raise InvariantError(f"cannot push a connection through a {node.kind} node")
        pushed[key] = out
        return out

    root = build(len(proof.steps) - 1)

    steps = []
    placed = {}

    def place_leaves(node):
        if id(node) in placed:
            return
        if node.kind == "hyp":
            placed[id(node)] = len(steps)
            steps.append(ProofStep(node.formula, Hyp(node.rule)))
        elif node.kind == "applyf":
            place_leaves(node.p)
            placed[id(node)] = len(steps)
            steps.append(ProofStep(node.formula, ApplyF(placed[id(node.p)], node.conn)))
        elif node.kind == "axiom":
            placed[id(node)] = len(steps)
            steps.append(ProofStep(node.formula, Axiom()))
        else:
            place_leaves(node.p)
            place_leaves(node.q)

    def place_cuts(node):
        if id(node) in placed:
            return placed[id(node)]
        if node.kind != "cut":
            raise InvariantError(f"a {node.kind} node was not placed before the cuts")
        pi = place_cuts(node.p)
        qi = place_cuts(node.q)
        placed[id(node)] = len(steps)
        steps.append(ProofStep(node.formula, Cut(pi, qi, node.c)))
        return placed[id(node)]

    place_leaves(root)
    place_cuts(root)
    out = Proof(steps)
    check_proof(out, theory, s, goal=proof.goal)
    return out


def undominated_by_eviction(pairs) -> tuple:
    """The (a, b) pairs that can fire and that no other pair dominates, as
    (a, a | b), in order of first appearance: one pass against the kept
    pairs, where a newcomer that none of them dominates joins them and
    those it dominates leave.  No kept pair dominates another, so once the
    newcomer dominates one, none of the rest dominates it.  The kept set
    does not depend on the order the pairs come in."""
    kept = []
    for a, b in pairs:
        c = a | b
        if c == a:
            continue
        for ka, kc in kept:
            if ka & a == ka and kc | c == kc | a:
                break
            if a & ka == a and c | kc == c | ka:
                kept = [(ka, kc) for ka, kc in kept if not (a & ka == a and c | kc == c | ka)]
                kept.append((a, c))
                break
        else:
            kept.append((a, c))
    return tuple(kept)
