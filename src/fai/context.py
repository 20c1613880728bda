"""Object-attribute data tables and base extraction.

The attribute-side derivation pair sends a set of <object, upper-adjoint>
pairs to the intersection of the corresponding g(I_x), and a graded set G to
the collection of pairs whose g(I_x) contains it.  Their composition downup
is a closure operator whose fixed points ("intents") are exactly the models
of any complete theory.
"""

from __future__ import annotations

import csv
import io
import random

from .errors import NotClosureSystem, NotComplete, ParseError, UniverseMismatch
from .fset import LSet, Universe, next_closures, render_lset
from .gconn import Parameterization
from .lattice import Chain, parse_degree
from .semantics import FAI, Theory, _idx_leq, entails, least_model


class LContext:
    """A finite table of graded rows: one LSet per object."""

    def __init__(self, universe: Universe, chain: Chain, objects, rows):
        self.universe = universe
        self.chain = chain
        self.objects = tuple(objects)
        self.rows = tuple(rows)
        if len(self.objects) != len(self.rows):
            raise ValueError("one row per object")
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("object names must be distinct")
        for r in self.rows:
            if r.universe != universe or r.chain != chain:
                raise UniverseMismatch("row over a different universe/chain")
        self._images = {}

    @classmethod
    def from_csv(cls, text: str, chain: Chain, universe: Universe | None = None) -> "LContext":
        """Parse ``object,<attr>,...`` CSV; degrees must be chain members."""
        reader = csv.reader(io.StringIO(text))
        table = [row for row in reader if row and any(cell.strip() for cell in row)]
        if not table:
            raise ParseError("empty context file")
        header = [cell.strip() for cell in table[0]]
        if len(header) < 2:
            raise ParseError("context header needs an object column and attributes")
        attrs = tuple(header[1:])
        if universe is None:
            universe = Universe(attrs)
        elif universe.attributes != attrs:
            raise UniverseMismatch(
                f"context attributes {attrs} differ from the declared universe "
                f"{universe.attributes}"
            )
        objects, rows = [], []
        for lineno, row in enumerate(table[1:], start=2):
            cells = [cell.strip() for cell in row]
            if len(cells) != len(header):
                raise ParseError(f"row {lineno}: expected {len(header)} cells")
            objects.append(cells[0])
            idx = [chain.index_of(parse_degree(c)) for c in cells[1:]]
            rows.append(LSet(universe, chain, idx))
        return cls(universe, chain, objects, rows)

    def row(self, name: str) -> LSet:
        return self.rows[self.objects.index(name)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LContext)
            and self.universe == other.universe
            and self.chain == other.chain
            and self.objects == other.objects
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.universe, self.chain, self.objects, self.rows))

    def __repr__(self) -> str:
        return f"LContext({len(self.objects)} objects, {len(self.universe)} attributes)"


# ------------------------------------------------------- derivation operators


def _row_images(ctx: LContext, s: Parameterization):
    """The distinct index vectors of g(I_x) over objects x and <f, g> in S;
    kept on the context, computed once per S."""
    images = ctx._images.get(s)
    if images is None:
        images = ctx._images[s] = tuple(
            dict.fromkeys(conn.upper(r).idx for r in ctx.rows for conn in s)
        )
    return images


def up(ctx: LContext, pairs, s: Parameterization) -> LSet:
    """Intersection of g(I_x) over the given <object, connection> pairs."""
    cur = LSet.top(ctx.universe, ctx.chain)
    for name, conn in pairs:
        member = s.resolve(conn)
        if member is None:
            raise UniverseMismatch("pair uses a connection outside S")
        cur = cur & member.upper(ctx.row(name))
    return cur


def down(ctx: LContext, g: LSet, s: Parameterization):
    """All <object, connection> pairs whose g(I_x) contains the given set."""
    return tuple(
        (name, conn) for name, r in zip(ctx.objects, ctx.rows) for conn in s if g <= conn.upper(r)
    )


def downup(ctx: LContext, g: LSet, s: Parameterization) -> LSet:
    """The context closure: intersection of all g(I_x) containing the set."""
    cur = [ctx.chain.n - 1] * len(ctx.universe)
    gidx = g.idx
    for iidx in _row_images(ctx, s):
        if all(x <= y for x, y in zip(gidx, iidx)):
            for y, v in enumerate(iidx):
                if v < cur[y]:
                    cur[y] = v
    return LSet(ctx.universe, ctx.chain, cur)


def holds_in_context(ctx: LContext, fai: FAI, s: Parameterization) -> bool:
    """True iff the formula holds in every row, i.e. B <= downup(A)."""
    return fai.consequent <= downup(ctx, fai.antecedent, s)


# ------------------------------------------------------------ intent listing


def intents_enum(ctx: LContext, s: Parameterization, cap: int = 10**6):
    """All downup fixed points, in ascending lectic order; CapExceeded past
    ``cap`` intents."""
    return list(next_closures(ctx.universe, ctx.chain, lambda m: downup(ctx, m, s), cap))


def pseudo_intents(ctx: LContext, s: Parameterization, cap: int = 10**6):
    """All S-pseudo-intents with their closures, by ascending degree sum and
    then lectic order.

    P qualifies iff P is not closed and Q's closure lands inside P for every
    pseudo-intent Q properly below P.  Ganter's algorithm: the sets closed
    under adding C(Q) for every pseudo-intent Q properly inside them are the
    intents and the pseudo-intents, and NextClosure lists them in lectic
    order, which extends containment, so every Q is found before any set
    above it is closed.  ``cap`` bounds the intents and pseudo-intents
    visited.
    """
    found = []

    def close(m: LSet) -> LSet:
        cur = m.idx
        changed = True
        while changed:
            changed = False
            for q, qcl in found:
                if cur != q.idx and _idx_leq(q.idx, cur) and not _idx_leq(qcl.idx, cur):
                    cur = tuple(map(max, cur, qcl.idx))
                    changed = True
        return LSet(m.universe, m.chain, cur)

    for m in next_closures(ctx.universe, ctx.chain, close, cap):
        cl = downup(ctx, m, s)
        if cl != m:
            found.append((m, cl))
    found.sort(key=lambda pair: (sum(pair[0].degrees()), pair[0].idx))
    return found


def complete_set(ctx: LContext, s: Parameterization, cap: int = 10**6) -> Theory:
    """The theory {P => downup(P) : P an S-pseudo-intent}, in the order of
    pseudo_intents."""
    pairs = pseudo_intents(ctx, s, cap)
    return Theory(
        [FAI(p, cl) for p, cl in pairs],
        [f"pseudo-intent #{i}" for i in range(len(pairs))],
    )


def theory_of_system(models, s: Parameterization, cap: int = 10**6) -> Theory:
    """A theory whose models are exactly the given S-closure system.

    The input must contain the top set, be closed under pairwise
    intersections and under every upper adjoint of S (NotClosureSystem
    otherwise).  Then, in the context whose rows are the members, every
    g(row) is a member and the identity is in S, so downup(A) is the least
    member containing A and the intents are the members: the result is that
    context's complete set, in the order of pseudo_intents.  ``cap`` bounds
    the intents and pseudo-intents visited.
    """
    models = list(models)
    if not models:
        raise NotClosureSystem("a closure system contains at least the top set")
    universe, chain = s.universe, s.chain
    have = set(models)
    if LSet.top(universe, chain) not in have:
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
    members = list(dict.fromkeys(models))
    ctx = LContext(universe, chain, [str(i) for i in range(len(members))], members)
    return complete_set(ctx, s, cap)


# ------------------------------------------------------------- completeness


def is_complete(
    theory: Theory,
    ctx: LContext,
    s: Parameterization,
    mode: str = "full",
    cap: int = 10**6,
    samples: int = 1000,
    seed: int = 0,
) -> bool:
    """Whether the theory's least models agree with downup everywhere.

    Full mode: every rule holds in the context, so every intent is a model,
    and the theory entails every rule of the complete set (``cap`` bounds its
    enumeration), so every model is an intent.  Sampled mode compares least
    model and downup on the rows, bottom, top, and seeded-random sets.
    """
    if mode == "full":
        comp = complete_set(ctx, s, cap)
        return all(holds_in_context(ctx, r, s) for r in theory) and all(
            entails(theory, r, s) for r in comp
        )
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    universe, chain = ctx.universe, ctx.chain
    rng = random.Random(seed)
    fixed = [LSet.bottom(universe, chain), LSet.top(universe, chain), *ctx.rows]
    drawn = [
        LSet(universe, chain, tuple(rng.randrange(chain.n) for _ in range(len(universe))))
        for _ in range(samples)
    ]
    return all(least_model(theory, s, m) == downup(ctx, m, s) for m in fixed + drawn)


def reduce_to_base(theory: Theory, ctx: LContext, s: Parameterization) -> Theory:
    """Drop, in order, every rule the remaining ones entail.

    For a complete input the result is a base: completeness is preserved by
    removing entailed rules, and each survivor fails entailment from the rest.
    """
    current = theory
    i = 0
    while i < len(current):
        trimmed = current.without(i)
        if entails(trimmed, current[i], s):
            current = trimmed
        else:
            i += 1
    return current


def minimize_sides(theory: Theory, ctx: LContext, s: Parameterization, cap: int = 10**6) -> Theory:
    """Lower degrees inside each rule while the theory stays complete.

    Walks rules in order; within a rule, antecedent then consequent,
    attributes in universe order, stepping each degree down while the edited
    theory remains complete for the context.  The theory is complete before
    every edit, so replacing rule r by r' keeps it complete iff r' holds in
    the context (every intent stays a model) and the edited theory entails r
    (no model is added).
    """
    if not is_complete(theory, ctx, s, cap=cap):
        raise NotComplete("minimize_sides needs a complete theory")
    current = theory
    for i in range(len(current)):
        for side in ("antecedent", "consequent"):
            for y in range(len(ctx.universe)):
                while True:
                    rule = current[i]
                    lset = getattr(rule, side)
                    v = lset.idx[y]
                    if v == 0:
                        break
                    lowered = lset.with_index(y, v - 1)
                    cand = (
                        FAI(lowered, rule.consequent)
                        if side == "antecedent"
                        else FAI(rule.antecedent, lowered)
                    )
                    edited = current.replaced(i, cand)
                    if not (holds_in_context(ctx, cand, s) and entails(edited, rule, s)):
                        break
                    current = edited
    return current


# ---------------------------------------------------------------- rendering


def hasse_dot(sets, name: str = "lattice") -> str:
    """DOT digraph of the cover relation of containment, edges upward."""
    nodes = sorted(sets, key=lambda m: m.idx)
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for i, m in enumerate(nodes):
        label = render_lset(m).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{{{label}}}"];')
    by_sum = sorted(range(len(nodes)), key=lambda j: sum(nodes[j].idx))
    for i, a in enumerate(nodes):
        # b covers a unless some set lies between; any such set has a smaller
        # degree sum, so it or a cover below it was met first
        covers = []
        for j in by_sum:
            if a < nodes[j] and not any(nodes[c] < nodes[j] for c in covers):
                covers.append(j)
        lines.extend(f"  n{i} -> n{j};" for j in sorted(covers))
    lines.append("}")
    return "\n".join(lines) + "\n"
