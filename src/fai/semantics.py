"""Implications between graded sets and their S-parameterized semantics.

A formula A => B is true in a model M under a parameterization S when for
every connection <f, g> in S: f(A) <= M implies f(B) <= M.  Entailment
reduces to membership in the least model, computed by saturating the
immediate-consequence step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, UniverseMismatch
from .fset import (
    LSet,
    Universe,
    c_mult,
    forward_chain,
    next_closures,
    parse_lset,
    render_lset,
    subsethood,
)
from .gconn import Parameterization
from .lattice import Chain, Hedge


@dataclass(frozen=True)
class FAI:
    """A fuzzy attribute implication: antecedent => consequent."""

    antecedent: LSet
    consequent: LSet

    def __post_init__(self):
        if (
            self.antecedent.universe != self.consequent.universe
            or self.antecedent.chain != self.consequent.chain
        ):
            raise UniverseMismatch("the two sides live over different universes/chains")

    def __repr__(self) -> str:
        return f"FAI({render_fai(self)!r})"


class Theory:
    """An ordered collection of formulas, each with a label for diagnostics."""

    def __init__(self, rules, labels=None):
        self.rules = tuple(rules)
        if labels is None:
            labels = tuple(f"#{i}" for i in range(len(self.rules)))
        self.labels = tuple(labels)
        if len(self.labels) != len(self.rules):
            raise ValueError("one label per rule")

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

    def without(self, i: int) -> "Theory":
        return Theory(
            self.rules[:i] + self.rules[i + 1 :], self.labels[:i] + self.labels[i + 1 :]
        )

    def replaced(self, i: int, rule: FAI) -> "Theory":
        rules = list(self.rules)
        rules[i] = rule
        return Theory(rules, self.labels)

    def as_set(self):
        return frozenset(self.rules)

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
    rules, labels = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            rules.append(parse_fai(stripped, universe, chain))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        labels.append(f"line {lineno}")
    return Theory(rules, labels)


def render_theory(theory: Theory) -> str:
    return "\n".join(render_fai(r) for r in theory) + ("\n" if len(theory) else "")


# ---------------------------------------------------------------- truth


def holds_in(m: LSet, fai: FAI, s: Parameterization) -> bool:
    """True iff for every <f,g> in S: f(A) <= M implies f(B) <= M."""
    return is_model(m, Theory([fai]), s)


def hedge_truth_degree(m: LSet, fai: FAI, hedge: Hedge) -> Fraction:
    """The hedge-style degree S(A,M)* -> S(B,M)."""
    chain = m.chain
    sa = chain.index_of(subsethood(fai.antecedent, m))
    sb = chain.index_of(subsethood(fai.consequent, m))
    return chain.degrees[chain.residuum_i(hedge.apply_i(sa), sb)]


def truth_degree(m: LSet, fai: FAI, s: Parameterization) -> Fraction:
    """The greatest c with A => c*B true in M; the maximum is attained."""
    chain = m.chain
    triggered = [conn for conn in s if conn.lower(fai.antecedent) <= m]
    for c in range(chain.n - 1, 0, -1):
        cb = c_mult(chain.degrees[c], fai.consequent)
        if all(conn.lower(cb) <= m for conn in triggered):
            return chain.degrees[c]
    return chain.degrees[0]


# ---------------------------------------------------------------- models


def _compiled(theory: Theory, s: Parameterization):
    """The (f(A).idx, f(B).idx) pairs of every rule A => B and <f, g> in S
    that can fire; each rule's pairs are compiled once per S and kept there."""
    pairs = []
    for rule in theory:
        pairs.extend(s.lower_pairs(rule.antecedent, rule.consequent))
    return pairs


def is_model(m: LSet, theory: Theory, s: Parameterization) -> bool:
    """A model is its own least model: no rule image f(A) => f(B) fires on it."""
    return least_model(theory, s, m) == m


def t_step(m: LSet, theory: Theory, s: Parameterization) -> LSet:
    """One round of the immediate-consequence operator:
    M union all f(B) for rules A => B and f with f(A) <= M.
    Fired pairs are judged against the input M, not the growing result."""
    cur = list(m.idx)
    for fa, fb in _compiled(theory, s):
        if all(x <= y for x, y in zip(fa, m.idx)):
            for y, v in enumerate(fb):
                if v > cur[y]:
                    cur[y] = v
    return LSet(m.universe, m.chain, cur)


def least_model(theory: Theory, s: Parameterization, m: LSet) -> LSet:
    """Least model of the theory containing M: forward chaining from M over
    the compiled rule images, which saturates t_step."""
    if m.universe != s.universe or m.chain != s.chain:
        raise UniverseMismatch("the set lives over another universe or chain than S")
    return forward_chain(_compiled(theory, s), m)[0]


def entails(theory: Theory, fai: FAI, s: Parameterization) -> bool:
    """Sigma entails A => B iff B is contained in the least model of A."""
    return fai.consequent <= least_model(theory, s, fai.antecedent)


def entail_degree(theory: Theory, fai: FAI, s: Parameterization) -> Fraction:
    """Graded entailment: the subsethood of B in the least model of A."""
    return subsethood(fai.consequent, least_model(theory, s, fai.antecedent))


def models_enum(theory: Theory, s: Parameterization, cap: int = 10**6):
    """All models of the theory, in lectic order: the fixed points of
    least_model; CapExceeded past ``cap`` models."""
    return list(next_closures(s.universe, s.chain, lambda m: least_model(theory, s, m), cap))
