"""Proofs over implications: axioms A u B => A, Cut, and the F-rule.

Cut: from A => B and B u C => D infer A u C => D.
F:   from A => B infer f(A) => f(B), for a connection <f, g> in S.
CutF combines both and is accepted only when explicitly enabled; it carries
its B and C sets so checking stays deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GoalMismatch, InvalidStep, InvariantError, NotProvable, ParseError
from .fset import LSet, Universe, c_mult, forward_chain, parse_lset, render_lset, union
from .gconn import (
    Connection,
    Parameterization,
    connection_from_descriptor,
    identity,
    term_to_descriptor,
)
from .lattice import Chain
from .semantics import FAI, Theory, entails, parse_fai, render_fai


# ---------------------------------------------------------------- structure


@dataclass(frozen=True)
class Axiom:
    pass


@dataclass(frozen=True)
class Hyp:
    rule: int


@dataclass(frozen=True)
class Cut:
    i: int
    j: int
    c: LSet | None = None


@dataclass(frozen=True)
class ApplyF:
    i: int
    conn: Connection


@dataclass(frozen=True)
class CutF:
    i: int
    j: int
    conn: Connection
    b: LSet
    c: LSet


@dataclass(frozen=True)
class ProofStep:
    formula: FAI
    by: object


class Proof:
    def __init__(self, steps):
        self.steps = tuple(steps)
        if not self.steps:
            raise ValueError("a proof needs at least one step")

    @property
    def goal(self) -> FAI:
        return self.steps[-1].formula

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def __repr__(self) -> str:
        return f"Proof({len(self.steps)} steps, goal {render_fai(self.goal)!r})"


# ---------------------------------------------------------------- checking


def check_proof(
    proof: Proof,
    theory: Theory,
    s: Parameterization,
    goal: FAI | None = None,
    allow_cutf: bool = False,
) -> bool:
    """Validate every step; raises InvalidStep/GoalMismatch, returns True."""
    for k, step in enumerate(proof.steps):
        by = step.by
        formula = step.formula
        if isinstance(by, Axiom):
            if not formula.consequent <= formula.antecedent:
                raise InvalidStep(k, "axiom needs its consequent inside its antecedent")
        elif isinstance(by, Hyp):
            if not 0 <= by.rule < len(theory):
                raise InvalidStep(k, f"hypothesis index {by.rule} out of range")
            if theory[by.rule] != formula:
                raise InvalidStep(
                    k,
                    f"formula differs from hypothesis {by.rule} "
                    f"({render_fai(theory[by.rule])})",
                )
        elif isinstance(by, Cut):
            prem1 = _premise(proof, k, by.i)
            prem2 = _premise(proof, k, by.j)
            a, b = prem1.antecedent, prem1.consequent
            e, d = prem2.antecedent, prem2.consequent
            c = by.c
            if c is None:
                if not b <= e:
                    raise InvalidStep(
                        k, "second premise's antecedent does not contain the first's consequent"
                    )
                c = e
            elif union(b, c) != e:
                raise InvalidStep(k, "B u C differs from the second premise's antecedent")
            if formula != FAI(union(a, c), d):
                raise InvalidStep(k, "conclusion is not A u C => D")
        elif isinstance(by, ApplyF):
            prem = _premise(proof, k, by.i)
            member = s.resolve(by.conn)
            if member is None:
                raise InvalidStep(k, "connection is not a member of S")
            expected = FAI(member.lower(prem.antecedent), member.lower(prem.consequent))
            if formula != expected:
                raise InvalidStep(k, "conclusion is not f(A) => f(B)")
        elif isinstance(by, CutF):
            if not allow_cutf:
                raise InvalidStep(k, "CutF steps are disabled (pass allow_cutf)")
            prem1 = _premise(proof, k, by.i)
            prem2 = _premise(proof, k, by.j)
            member = s.resolve(by.conn)
            if member is None:
                raise InvalidStep(k, "connection is not a member of S")
            if prem1.consequent != member.lower(by.b):
                raise InvalidStep(k, "first premise's consequent is not f(B)")
            if prem2.antecedent != union(by.b, by.c):
                raise InvalidStep(k, "second premise's antecedent is not B u C")
            expected = FAI(
                union(prem1.antecedent, member.lower(by.c)), member.lower(prem2.consequent)
            )
            if formula != expected:
                raise InvalidStep(k, "conclusion is not A u f(C) => f(D)")
        else:
            raise InvalidStep(k, f"unknown justification {by!r}")
    if goal is not None and proof.goal != goal:
        raise GoalMismatch(
            f"proof ends in {render_fai(proof.goal)!r}, expected {render_fai(goal)!r}"
        )
    return True


def _premise(proof: Proof, k: int, i: int) -> FAI:
    if not 0 <= i < k:
        raise InvalidStep(k, f"premise index {i} must point at an earlier step")
    return proof.steps[i].formula


# ---------------------------------------------------------------- synthesis


def expand_theory(theory: Theory, s: Parameterization) -> Theory:
    """All images f(A) => f(B) of the rules under the lower maps of S."""
    rules, labels, seen = [], [], set()
    for ri, rule in enumerate(theory):
        for ci, conn in enumerate(s):
            img = FAI(conn.lower(rule.antecedent), conn.lower(rule.consequent))
            if img not in seen:
                seen.add(img)
                rules.append(img)
                labels.append(f"{theory.labels[ri]} via S[{ci}]")
    return Theory(rules, labels)


def prove(theory: Theory, s: Parameterization, goal: FAI) -> Proof:
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

    # replay the least-model iteration over the image of every (rule,
    # member) pair, rule-major in S's order; dropping duplicate images
    # would let a later pair fire in an earlier pass and change the proof
    sources = [(ri, conn) for ri in range(len(theory)) for conn in s]
    images = [
        (conn.lower(theory[ri].antecedent).idx, conn.lower(theory[ri].consequent).idx)
        for ri, conn in sources
    ]
    closure, fired = forward_chain(images, goal.antecedent, until=goal.consequent)
    if not goal.consequent <= closure:
        raise InvariantError("the replayed saturation stopped below the entailed goal")
    fires = [
        (*sources[k], LSet(s.universe, s.chain, before), LSet(s.universe, s.chain, after))
        for k, before, after in fired
    ]

    ident = identity(s.universe, s.chain)
    steps: list[ProofStep] = []
    image_step: dict = {}
    hyp_step: dict = {}
    for ri, conn, before, after in fires:
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
    for ri, conn, before, after in fires:
        pi = image_step[(ri, conn.fingerprint)]
        ax = len(steps)
        steps.append(ProofStep(FAI(after, after), Axiom()))
        grow = len(steps)
        steps.append(ProofStep(FAI(before, after), Cut(pi, ax, before)))
        nxt = len(steps)
        steps.append(ProofStep(FAI(goal.antecedent, after), Cut(current, grow, bottom)))
        current = nxt
    ax = len(steps)
    steps.append(ProofStep(FAI(closure, goal.consequent), Axiom()))
    steps.append(ProofStep(goal, Cut(current, ax, bottom)))
    return Proof(steps)


def provability_degree(theory: Theory, s: Parameterization, fai: FAI):
    """The greatest c for which A => c*B has a proof (c = 0 always does)."""
    chain = s.chain
    for c in range(chain.n - 1, -1, -1):
        candidate = FAI(fai.antecedent, c_mult(chain.degrees[c], fai.consequent))
        try:
            prove(theory, s, candidate)
        except NotProvable:
            continue
        return chain.degrees[c]
    raise InvariantError("A => 0*B is always provable")


# ------------------------------------------------------------- normalization


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


def normalize_proof(proof: Proof, theory: Theory, s: Parameterization) -> Proof:
    """Rewrite into the normal form: F applied only to hypotheses, every
    F step before every Cut step, F images of axioms re-justified as axioms.

    The input must already check (with CutF allowed); the output proves the
    same goal using Cut and ApplyF only.
    """
    check_proof(proof, theory, s, allow_cutf=True)
    memo: dict[int, _Node] = {}
    pushed: dict[tuple, _Node] = {}

    def build(k: int) -> _Node:
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

    def push(f: Connection, node: _Node) -> _Node:
        key = (id(node), f.fingerprint)
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

    steps: list[ProofStep] = []
    placed: dict[int, int] = {}

    def place_leaves(node: _Node):
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

    def place_cuts(node: _Node) -> int:
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


# ------------------------------------------------------------- serialization


def proof_to_json(proof: Proof) -> dict:
    steps = []
    for step in proof.steps:
        by = step.by
        if isinstance(by, Axiom):
            enc = "axiom"
        elif isinstance(by, Hyp):
            enc = {"hyp": by.rule}
        elif isinstance(by, Cut):
            enc = {"cut": [by.i, by.j]}
            if by.c is not None:
                enc["C"] = render_lset(by.c)
        elif isinstance(by, ApplyF):
            desc = term_to_descriptor(by.conn.term)
            desc["fingerprint"] = by.conn.fingerprint_hash()
            enc = {"applyF": by.i, "conn": desc}
        elif isinstance(by, CutF):
            desc = term_to_descriptor(by.conn.term)
            desc["fingerprint"] = by.conn.fingerprint_hash()
            enc = {
                "cutF": [by.i, by.j],
                "conn": desc,
                "B": render_lset(by.b),
                "C": render_lset(by.c),
            }
        else:
            raise TypeError(f"unknown justification {by!r}")
        steps.append({"formula": render_fai(step.formula), "by": enc})
    return {"goal": render_fai(proof.goal), "steps": steps}


def _connection_from_ref(desc: dict, universe: Universe, chain: Chain) -> Connection:
    conn = connection_from_descriptor(desc, universe, chain)
    stated = desc.get("fingerprint")
    if stated is not None and stated != conn.fingerprint_hash():
        raise ParseError("connection descriptor does not match its fingerprint hash")
    return conn


def _text(value, what: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{what} must be a string, not {value!r}")
    return value


def _index(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{what} must be an integer, not {value!r}")
    return value


def proof_from_json(data: dict, universe: Universe, chain: Chain) -> Proof:
    """The proof a JSON document describes; ParseError for any other shape."""
    if not isinstance(data, dict):
        raise ParseError(f"a proof file holds a JSON object, not {data!r}")
    raw_steps = data.get("steps", [])
    if not isinstance(raw_steps, list):
        raise ParseError(f"steps must be a list, not {raw_steps!r}")
    steps = []
    for k, raw in enumerate(raw_steps):
        try:
            formula = parse_fai(_text(raw["formula"], f"step {k} formula"), universe, chain)
            by = raw["by"]
            if by == "axiom":
                just = Axiom()
            elif "hyp" in by:
                just = Hyp(_index(by["hyp"], f"step {k} hyp index"))
            elif "cut" in by:
                i, j = (_index(v, f"step {k} cut index") for v in by["cut"])
                c = by.get("C")
                just = Cut(
                    i,
                    j,
                    parse_lset(_text(c, f"step {k} C"), universe, chain) if c is not None else None,
                )
            elif "applyF" in by:
                just = ApplyF(
                    _index(by["applyF"], f"step {k} applyF index"),
                    _connection_from_ref(by["conn"], universe, chain),
                )
            elif "cutF" in by:
                i, j = (_index(v, f"step {k} cutF index") for v in by["cutF"])
                just = CutF(
                    i,
                    j,
                    _connection_from_ref(by["conn"], universe, chain),
                    parse_lset(_text(by["B"], f"step {k} B"), universe, chain),
                    parse_lset(_text(by["C"], f"step {k} C"), universe, chain),
                )
            else:
                raise ParseError(f"unknown justification {by!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"step {k}: malformed ({exc})") from None
        steps.append(ProofStep(formula, just))
    if not steps:
        raise ParseError("proof has no steps")
    proof = Proof(steps)
    stated = data.get("goal")
    if stated is not None:
        expected = parse_fai(_text(stated, "goal"), universe, chain)
        if proof.goal != expected:
            raise ParseError("stated goal differs from the last step")
    return proof
