"""Implications between graded sets and their S-parameterized semantics.

A formula A => B is true in a model M under a parameterization S when for
every connection <f, g> in S: f(A) <= M implies f(B) <= M.  Entailment
reduces to membership in the least model, computed by saturating the
immediate-consequence step.

Each rule is compiled once per S to its undominated images (``rule_pairs``):
an image (f(A), f(B)) adds nothing when another image (f'(A), f'(B)) has
f'(A) <= f(A) and f(B) <= f'(B) | f(A), so chaining over the rest reaches
the same sets.  Each theory is compiled once per S too
(``compiled_pairs``): its rules' pairs together, with every pair another
rule's image dominates removed as well.  Both are one pass
(``undominated``): it sorts its feed once, so that every pair comes after
each pair that dominates it, and keeps a pair when no pair kept before
dominates it; a kept pair is never dropped.  Both forms depend on S as a
set: S's member order only orders ``validate``'s listing,
``context.down``'s pairs and ``proof.prove``'s F steps.  Closures over a
whole theory chain over its compiled form.  Base reduction and side
minimization leave a rule out or replace it, and full-mode completeness
chains a theory too few times to repay the cross-rule pass, so these
chain the rules' own pairs instead; proofs read every image themselves.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .fset import (
    LSet,
    Record,
    Universe,
    c_mult,
    forward_chain,
    next_closures,
    parse_lset,
    render_lset,
    same_space,
    scale,
    subsethood,
)
from .gconn import Parameterization
from .lattice import Chain, Hedge


class FAI(Record):
    """A fuzzy attribute implication: antecedent => consequent.

    ``_pairs`` keeps the rule's undominated images per S
    (``rule_pairs``), which depend on S as a set; as private state of a
    record it takes no part in equality, hashing, display or copies, and
    each new rule starts it empty.
    """

    __slots__ = ("antecedent", "consequent", "_pairs")
    antecedent: LSet
    consequent: LSet

    def __init__(self, antecedent: LSet, consequent: LSet):
        same_space(consequent, antecedent.universe, antecedent.chain)
        object.__setattr__(self, "antecedent", antecedent)
        object.__setattr__(self, "consequent", consequent)
        object.__setattr__(self, "_pairs", {})

    def __repr__(self) -> str:
        return f"FAI({render_fai(self)!r})"


class Theory:
    """A theory: an ordered tuple of rules.

    ``_pairs`` keeps the theory's compiled form per S
    (``compiled_pairs``), which depends on S as a set; it takes no part in
    equality, hashing or display, and copies and pickles rebuild the
    theory from its rules alone, so they start it empty.
    """

    def __init__(self, rules):
        self.rules = tuple(rules)
        self._pairs = {}

    def __reduce__(self):
        return Theory, (self.rules,)

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def __getitem__(self, i) -> FAI:
        return self.rules[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Theory) and self.rules == other.rules

    def __hash__(self) -> int:
        return hash(self.rules)

    def __repr__(self) -> str:
        return f"Theory({len(self.rules)} rules)"


# ---------------------------------------------------------------- text format


def parse_fai(text: str, universe: Universe, chain: Chain) -> FAI:
    """Parse ``ANT -> CONS``; either side may be empty."""
    parts = text.split("->")
    if len(parts) != 2:
        raise ParseError(f"expected exactly one '->' in {text!r}")
    return FAI(
        parse_lset(parts[0], universe, chain), parse_lset(parts[1], universe, chain)
    )


def render_fai(fai: FAI) -> str:
    return f"{render_lset(fai.antecedent)} -> {render_lset(fai.consequent)}"


def parse_theory(text: str, universe: Universe, chain: Chain) -> Theory:
    """One formula per line; blank lines and ``#`` comments are skipped."""
    rules = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            rules.append(parse_fai(stripped, universe, chain))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return Theory(rules)


def render_theory(theory: Theory) -> str:
    return "\n".join(render_fai(r) for r in theory) + ("\n" if len(theory) else "")


# ---------------------------------------------------------------- truth


def holds_in(m: LSet, fai: FAI, s: Parameterization) -> bool:
    """True iff for every <f,g> in S: f(A) <= M implies f(B) <= M."""
    return is_model(m, Theory([fai]), s)


def hedge_truth_degree(m: LSet, fai: FAI, hedge: Hedge) -> Fraction:
    """The hedge-style degree S(A,M)* -> S(B,M)."""
    same_space(fai.antecedent, m.universe, hedge.chain)
    chain = m.chain
    sa = chain.index_of(subsethood(fai.antecedent, m))
    sb = chain.index_of(subsethood(fai.consequent, m))
    return chain.degrees[chain.residuum_i(hedge.apply_i(sa), sb)]


def truth_degree(m: LSet, fai: FAI, s: Parameterization) -> Fraction:
    """The greatest c with A => c*B true in M (``holds_in``); A => 0*B always is."""
    a, b = fai.antecedent, fai.consequent
    degrees = b.chain.degrees
    weakened = (c for c in reversed(degrees[1:]) if holds_in(m, FAI(a, c_mult(c, b)), s))
    return next(weakened, degrees[0])


# ---------------------------------------------------------------- models


def rule_pairs(rule: FAI, s: Parameterization) -> tuple:
    """The undominated images of A => B over <f, g> in S (``undominated``),
    as (f(A), f(A) | f(B)) masks in ascending order; read off S's
    bit-sliced table (``Parameterization.lower_images``) and kept on the
    rule per S.  The kept set does not depend on S's member order, so an
    equal S listing its members in another order reuses it.

    Pruning here stays within the rule: ``reduce_to_base`` chains each
    rule against the others with its own pairs left out, so a rule's pairs
    must not lean on another rule being there; ``compiled_pairs`` prunes
    across the rules of a whole theory.  ``proof.prove`` builds its own
    full image list instead: a proof replays every firing image."""
    pairs = rule._pairs.get(s)
    if pairs is None:
        a, b = rule.antecedent, rule.consequent
        same_space(a, s.universe, s.chain)
        pairs = rule._pairs[s] = undominated(zip(s.lower_images(a.idx), s.lower_images(b.idx)))
    return pairs


def undominated(pairs) -> tuple:
    """The (a, b) pairs that can fire (b not inside a) and that no other
    pair dominates, as (a, a | b), in ascending order.

    (a', b') dominates (a, b) when a' <= a and b <= b' | a: whenever the
    chained set holds a it holds a', so (a', b') fires or has fired, and
    the set holds b' | a, which holds b.  Dropping (a, b) therefore leaves
    every saturation, the answer of every ``until`` stop and a single
    ``t_step`` round as they are; this is the left-reduction of
    implication sets (Maier, JACM 1980).  Domination is transitive, and
    two pairs dominate each other only when they share a and a | b, so
    the pairs are compared, and kept, with b joined to a: a repeat is the
    same pair.

    One pass, dominators first: the distinct firing pairs are sorted by
    antecedent ascending, then by joined consequent descending, and a pair
    is kept when no kept pair dominates it.  Every dominator of a pair
    comes before it in that order: a' < a as sets makes a' the smaller
    int, and with a' = a, a | b < a' | b' as sets makes a' | b' the
    larger.  A dominated pair thus meets an undominated dominator, kept
    before it, and no kept pair is ever dropped: the kept set is the
    undominated pairs, whatever order the feed came in.  The pass runs
    once per rule and S (``rule_pairs``), and once per theory and S over
    all its rules' pairs (``compiled_pairs``); for P pairs in and K kept it
    takes a sort and O(P * K) comparisons.
    """
    kept = []
    for a, c in sorted({(a, -(a | b)) for a, b in pairs if b & ~a}):
        c = -c  # negated in the sort, so descending
        for ka, kc in kept:
            if ka & a == ka and kc | c == kc | a:
                break
        else:
            kept.append((a, c))
    return tuple(sorted(kept))


def theory_pairs(rules, s: Parameterization) -> list:
    """The pairs of the rules on S, rule by rule, in the order forward
    chaining walks them."""
    pairs = []
    for rule in rules:
        pairs.extend(rule_pairs(rule, s))  # a copy of each tuple, faster than item by item
    return pairs


def compiled_pairs(theory: Theory, s: Parameterization) -> tuple:
    """The theory's compiled form on S: its rules' pairs (``theory_pairs``)
    less every pair that another pair dominates, whichever rule either came
    from (``undominated``), in ascending order; kept on the theory per S,
    as ``rule_pairs`` keeps a rule's.  The domination argument never asks
    which rule a pair came from, so every saturation, every ``until``
    answer and a single ``t_step`` round over it are those over all the
    rules' pairs, and the kept tuple depends neither on the order of the
    rules nor on S's member order.  A one-rule theory is its rule's
    pairs."""
    pairs = theory._pairs.get(s)
    if pairs is None:
        rules = theory.rules
        pairs = rule_pairs(rules[0], s) if len(rules) == 1 else undominated(theory_pairs(rules, s))
        theory._pairs[s] = pairs
    return pairs


def is_model(m: LSet, theory: Theory, s: Parameterization) -> bool:
    """A model is its own least model: no rule image f(A) => f(B) fires on it."""
    return least_model(theory, s, m) == m


def t_step(m: LSet, theory: Theory, s: Parameterization) -> LSet:
    """One round of the immediate-consequence operator:
    M union all f(B) for rules A => B and f with f(A) <= M.
    Fired pairs are judged against the input M, not the growing result."""
    same_space(m, s.universe, s.chain)
    before = after = m.mask
    for fa, fb in compiled_pairs(theory, s):
        if fa & before == fa:
            after |= fb
    return LSet._from_mask(m.universe, m.chain, after)


def least_model(theory: Theory, s: Parameterization, m: LSet) -> LSet:
    """Least model of the theory containing M: forward chaining from M over
    the compiled theory (``compiled_pairs``), which saturates t_step."""
    same_space(m, s.universe, s.chain)
    sc = scale(len(s.universe), s.chain.n)
    closed = forward_chain(compiled_pairs(theory, s), m.mask, sc)
    return LSet._from_mask(m.universe, m.chain, closed)


def entails(theory: Theory, fai: FAI, s: Parameterization) -> bool:
    """Sigma entails A => B iff B is contained in the least model of A:
    forward chaining from A over the compiled theory reaches B.  It stops
    once B lies inside: the set only grows, and stays inside the least
    model."""
    same_space(fai.antecedent, s.universe, s.chain)
    b = fai.consequent.mask
    sc = scale(len(s.universe), s.chain.n)
    return b & forward_chain(compiled_pairs(theory, s), fai.antecedent.mask, sc, until=b) == b


def entail_degree(theory: Theory, fai: FAI, s: Parameterization) -> Fraction:
    """Graded entailment: the subsethood of B in the least model of A."""
    return subsethood(fai.consequent, least_model(theory, s, fai.antecedent))


def models_enum(theory: Theory, s: Parameterization, cap: int = 10**6):
    """All models of the theory, in lectic order: the fixed points of the
    least-model closure, compiled once; CapExceeded past ``cap`` models."""
    sc = scale(len(s.universe), s.chain.n)
    pairs = compiled_pairs(theory, s)
    closed = next_closures(s.universe, s.chain, lambda m: forward_chain(pairs, m, sc), cap)
    return [LSet._from_mask(s.universe, s.chain, m) for m in closed]
