"""Implications between graded sets and their S-parameterized semantics.

A formula A => B is true in a model M under a parameterization S when for
every connection <f, g> in S: f(A) <= M implies f(B) <= M.  Entailment
reduces to membership in the least model, computed by saturating the
immediate-consequence step.
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

    ``_pairs`` keeps the rule's images per S, beside the member tuple
    they were read in (``rule_pairs``); as private state of a record it
    takes no part in equality, hashing, display or copies, and each new
    rule starts it empty.
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
    """A theory: an ordered tuple of rules, and nothing more."""

    def __init__(self, rules):
        self.rules = tuple(rules)

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
    """The distinct (f(A), f(B)) masks of A => B over <f, g> in S, in S's
    order (``image_pairs``); read off S's bit-sliced table
    (``Parameterization.lower_images``) and kept on the rule per S with
    S's member tuple.  Equal S may list their members in different orders,
    so kept pairs are read again only while the tuple is S's own."""
    kept = rule._pairs.get(s)
    if kept is not None and (kept[0] is s.connections or kept[0] == s.connections):
        return kept[1]
    a, b = rule.antecedent, rule.consequent
    same_space(a, s.universe, s.chain)
    pairs = image_pairs(s.lower_images(a.idx), s.lower_images(b.idx))
    rule._pairs[s] = (s.connections, pairs)
    return pairs


def image_pairs(fas, fbs) -> tuple:
    """The distinct (f(A), f(B)) of two image lists zipped member by
    member, in order, leaving out those that cannot fire (f(B) <= f(A))."""
    seen = {}
    for fa, fb in zip(fas, fbs):
        if fb & fa != fb:
            seen[fa, fb] = None
    return tuple(seen)


def theory_pairs(rules, s: Parameterization) -> list:
    """The pairs of the rules on S, rule by rule, in the order forward
    chaining walks them."""
    pairs = []
    for rule in rules:
        pairs.extend(rule_pairs(rule, s))  # a copy of each tuple, faster than item by item
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
    for fa, fb in theory_pairs(theory, s):
        if fa & before == fa:
            after |= fb
    return LSet._from_mask(m.universe, m.chain, after)


def least_model(theory: Theory, s: Parameterization, m: LSet) -> LSet:
    """Least model of the theory containing M: forward chaining from M over
    the compiled rule images, which saturates t_step."""
    same_space(m, s.universe, s.chain)
    sc = scale(len(s.universe), s.chain.n)
    closed = forward_chain(theory_pairs(theory, s), m.mask, sc)
    return LSet._from_mask(m.universe, m.chain, closed)


def entails(theory: Theory, fai: FAI, s: Parameterization) -> bool:
    """Sigma entails A => B iff B is contained in the least model of A:
    forward chaining from A over the compiled pairs reaches B.  It stops
    once B lies inside: the set only grows, and stays inside the least
    model."""
    same_space(fai.antecedent, s.universe, s.chain)
    b = fai.consequent.mask
    sc = scale(len(s.universe), s.chain.n)
    return b & forward_chain(theory_pairs(theory, s), fai.antecedent.mask, sc, until=b) == b


def entail_degree(theory: Theory, fai: FAI, s: Parameterization) -> Fraction:
    """Graded entailment: the subsethood of B in the least model of A."""
    return subsethood(fai.consequent, least_model(theory, s, fai.antecedent))


def models_enum(theory: Theory, s: Parameterization, cap: int = 10**6):
    """All models of the theory, in lectic order: the fixed points of the
    least-model closure, compiled once; CapExceeded past ``cap`` models."""
    sc = scale(len(s.universe), s.chain.n)
    pairs = theory_pairs(theory, s)
    closed = next_closures(s.universe, s.chain, lambda m: forward_chain(pairs, m, sc), cap)
    return [LSet._from_mask(s.universe, s.chain, m) for m in closed]
