"""Proofs over implications: axioms A u B => A, Cut, and the F-rule.

Cut: from A => B and B u C => D infer A u C => D.
F:   from A => B infer f(A) => f(B), for a connection <f, g> in S.
CutF combines both and is accepted only when explicitly enabled; it carries
its B and C sets so checking stays deterministic.

``normalize_proof`` rewrites a checked proof into the F-before-Cut normal
form on the proof's own steps, in one iterative walk with no depth limit;
the recursive version that copied the proof into a tree of its own nodes
lives on in ``tests/scan_oracle.py`` as the oracle it is tested against.
"""

from __future__ import annotations

from .errors import GoalMismatch, InvalidStep, InvariantError, NotProvable, ParseError
from .fset import (
    LSet,
    Record,
    Universe,
    c_mult,
    forward_chain,
    parse_lset,
    render_lset,
    scale,
    union,
)
from .gconn import (
    Connection,
    Parameterization,
    connection_from_descriptor,
    term_to_descriptor,
)
from .lattice import Chain
from .semantics import FAI, Theory, entail_degree, entails, parse_fai, render_fai


# ---------------------------------------------------------------- structure


class Axiom(Record):
    __slots__ = ()


class Hyp(Record):
    __slots__ = ("rule",)
    rule: int


class Cut(Record):
    __slots__ = ("i", "j", "c")
    i: int
    j: int
    c: LSet | None

    def __init__(self, i: int, j: int, c: LSet | None = None):
        super().__init__(i, j, c)


class ApplyF(Record):
    __slots__ = ("i", "conn")
    i: int
    conn: Connection


class CutF(Record):
    __slots__ = ("i", "j", "conn", "b", "c")
    i: int
    j: int
    conn: Connection
    b: LSet
    c: LSet


class ProofStep(Record):
    __slots__ = ("formula", "by")
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

    def __eq__(self, other) -> bool:
        return isinstance(other, Proof) and self.steps == other.steps

    def __hash__(self) -> int:
        return hash(self.steps)

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
    # would let a later pair fire in an earlier pass and change the proof.
    # The images are built anew on each call, through Connection.lower (the
    # README says why they are not yet read off the mask tables and kept)
    sc = scale(len(s.universe), s.chain.n)
    sources = [(ri, conn) for ri in range(len(theory)) for conn in s]
    images = [
        (conn.lower(theory[ri].antecedent).mask, conn.lower(theory[ri].consequent).mask)
        for ri, conn in sources
    ]
    want = goal.consequent.mask
    fired = []
    reached = forward_chain(images, goal.antecedent.mask, sc, until=want, fired=fired)
    if want & reached != want:
        raise InvariantError("the replayed saturation stopped below the entailed goal")

    def decode(mask: int) -> LSet:
        return LSet._from_mask(s.universe, s.chain, mask)

    closure = decode(reached)
    fires = [(k, decode(before), decode(after)) for k, before, after in fired]

    # one F step per fired (rule, member) pair k, its formula decoded from
    # the replay's own images[k]; the identity, whose table is the scale's
    # codes, has the hypothesis as its image
    steps: list[ProofStep] = []
    image_step: dict = {}
    hyp_step: dict = {}
    for k, before, after in fires:
        if k in image_step:
            continue
        ri, conn = sources[k]
        if ri not in hyp_step:
            hyp_step[ri] = len(steps)
            steps.append(ProofStep(theory[ri], Hyp(ri)))
        if conn.lower_masks == sc.codes:
            image_step[k] = hyp_step[ri]
        else:
            image_step[k] = len(steps)
            img = FAI(*map(decode, images[k]))
            steps.append(ProofStep(img, ApplyF(hyp_step[ri], conn)))

    bottom = LSet.bottom(s.universe, s.chain)
    current = len(steps)
    steps.append(ProofStep(FAI(goal.antecedent, goal.antecedent), Axiom()))
    for k, before, after in fires:
        pi = image_step[k]
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
    """The greatest c for which A => c*B has a proof (c = 0 always does).

    By completeness that is the entailment degree, the greatest c with
    c*B inside the least model of A; one proof at that degree confirms it,
    and InvariantError reports it failing.
    """
    c = entail_degree(theory, fai, s)
    try:
        prove(theory, s, FAI(fai.antecedent, c_mult(c, fai.consequent)))
    except NotProvable:
        raise InvariantError(f"A => {c}*B is entailed but has no proof") from None
    return c


# ------------------------------------------------------------- normalization


def normalize_proof(proof: Proof, theory: Theory, s: Parameterization) -> Proof:
    """Rewrite into the normal form: F applied only to hypotheses, every
    F step before every Cut step, F images of axioms re-justified as axioms.

    The input must already check (with CutF allowed); the output proves the
    same goal using Cut and ApplyF only.  It rewrites the proof's own steps
    in one post-order walk from the goal, on an explicit stack, so it has
    no depth limit.  A node of the walk is a step k with the members fs of
    S pushed onto it, first to last: an ApplyF step is its premise with one
    more member pushed, a Cut passes its fs to both premises, and a CutF
    also pushes its member onto its second premise.  Nodes are keyed by
    (k, fs), members comparing by mask table, and each is rebuilt once,
    after its premises, as a step whose premise fields hold the rebuilt
    steps; fs composes into one ApplyF on a hypothesis and maps an axiom to
    an axiom.  The F side is placed in walk order, then the Cuts in walk
    order, and premises become indices at the end.  The output equals the
    tree-based oracle's, ``tests/scan_oracle.normalize_by_tree``.
    """
    check_proof(proof, theory, s, allow_cutf=True)
    steps = proof.steps

    def node(k: int, fs: tuple) -> tuple:
        while isinstance(by := steps[k].by, ApplyF):
            k, fs = by.i, (s.resolve(by.conn), *fs)
        return k, fs

    rebuilt: dict[tuple, ProofStep] = {}
    fside: list[ProofStep] = []
    cuts: list[ProofStep] = []
    stack = [(node(len(steps) - 1, ()), None)]
    while stack:
        key, premises = stack.pop()
        if key in rebuilt:
            continue
        k, fs = key
        by = steps[k].by
        if premises is None:
            if isinstance(by, Cut):
                premises = node(by.i, fs), node(by.j, fs)
            elif isinstance(by, CutF):
                premises = node(by.i, fs), node(by.j, (s.resolve(by.conn), *fs))
            elif isinstance(by, Hyp) and fs:
                premises = ((k, ()),)  # F on a hypothesis rests on the hypothesis
            else:
                premises = ()
            if premises:  # come back once they are rebuilt, the left one first
                stack.append((key, premises))
                stack.extend((p, None) for p in reversed(premises))
                continue
        formula = steps[k].formula
        for f in fs:
            formula = FAI(f.lower(formula.antecedent), f.lower(formula.consequent))
        if isinstance(by, (Cut, CutF)):
            if isinstance(by, CutF):
                c = s.resolve(by.conn).lower(by.c)
            else:
                c = by.c if by.c is not None else steps[by.j].formula.antecedent
            for f in fs:
                c = f.lower(c)
            step = ProofStep(formula, Cut(rebuilt[premises[0]], rebuilt[premises[1]], c))
            cuts.append(step)
        else:
            if premises:  # fs composed, first to last, into one member of S
                conn = fs[0]
                for f in fs[1:]:
                    conn = s.compose_in(f, conn)
                by = ApplyF(rebuilt[premises[0]], conn)
            step = ProofStep(formula, by)
            fside.append(step)
        rebuilt[key] = step

    at = {id(step): n for n, step in enumerate(fside + cuts)}
    out = [
        ProofStep(st.formula, ApplyF(at[id(st.by.i)], st.by.conn))
        if isinstance(st.by, ApplyF)
        else st
        for st in fside
    ]
    out += [ProofStep(st.formula, Cut(at[id(st.by.i)], at[id(st.by.j)], st.by.c)) for st in cuts]
    out = Proof(out)
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
            if isinstance(by, dict):
                named = [name for name in ("hyp", "cut", "applyF", "cutF") if name in by]
                if len(named) > 1:
                    raise ParseError(
                        f"step {k} names more than one justification: {', '.join(named)}"
                    )
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
