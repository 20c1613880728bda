"""Object-attribute data tables and base extraction.

The attribute-side derivation pair sends a set of <object, upper-adjoint>
pairs to the intersection of the corresponding g(I_x), and a graded set G to
the collection of pairs whose g(I_x) contains it.  Their composition downup
is a closure operator whose fixed points ("intents") are exactly the models
of any complete theory.

downup(G) is the meet of the images g(I_x) that contain G, and it is taken
over the reduced context: only the meet-irreducible images are kept, those
that are neither top nor the meet of the images properly above them.  This
is exact, since a dropped image is the meet of kept images above it, and
each of those contains every set it contains.
"""

from __future__ import annotations

import csv
import io
import math
import random

from .errors import (
    CapExceeded,
    NotAMonoid,
    NotClosureSystem,
    NotComplete,
    ParseError,
    UniverseMismatch,
)
from .fset import (
    LSet,
    Universe,
    forward_chain,
    meet_above,
    next_closures,
    render_lset,
    same_space,
    scale,
    step_down,
    upper_mask,
)
from .gconn import Parameterization, identity
from .lattice import Chain, brief_value
from .semantics import FAI, Theory, least_model, rule_pairs, theory_pairs, undominated


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
            same_space(r, universe, chain)
        self._images = {}
        self._passes = {}

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
            idx = [chain.index_of(c) for c in cells[1:]]
            rows.append(LSet(universe, chain, idx))
        return cls(universe, chain, objects, rows)

    def row(self, name: str) -> LSet:
        if name not in self.objects:
            raise UniverseMismatch(f"unknown object {brief_value(name)}")
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
    """The meet-irreducible masks of g(I_x) over objects x and <f, g> in S,
    in descending int order; kept on the context, computed once per S.

    An image equal to the meet of the images properly above it is dropped,
    and so is top, the empty meet: this is the reduced context (Ganter &
    Wille, *Formal Concept Analysis*, 1999).  A mask properly above another
    is a larger int, so in descending order each image is tested against
    the kept ones before it; by induction from the top each dropped image
    is the meet of kept images above it, and those contain every set it
    contains, so ``meet_above`` over the kept images equals ``meet_above``
    over all of them for every set.
    """
    images = ctx._images.get(s)
    if images is None:
        same_space(s, ctx.universe, ctx.chain)
        sc = scale(len(ctx.universe), ctx.chain.n)
        every = {upper_mask(conn.lower_masks, r.mask, sc.codes) for r in ctx.rows for conn in s}
        kept = []
        for m in sorted(every, reverse=True):
            if meet_above(m, kept, sc.top) != m:
                kept.append(m)
        images = ctx._images[s] = tuple(kept)
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
    same_space(g, ctx.universe, ctx.chain)
    top = scale(len(ctx.universe), ctx.chain.n).top
    closure = meet_above(g.mask, _row_images(ctx, s), top)
    return LSet._from_mask(ctx.universe, ctx.chain, closure)


def holds_in_context(ctx: LContext, fai: FAI, s: Parameterization) -> bool:
    """True iff the formula holds in every row, i.e. B <= downup(A)."""
    same_space(fai.antecedent, ctx.universe, ctx.chain)
    top = scale(len(ctx.universe), ctx.chain.n).top
    b = fai.consequent.mask
    return b & meet_above(fai.antecedent.mask, _row_images(ctx, s), top) == b


# ------------------------------------------------------------ intent listing


def _ganter_pass(ctx: LContext, s: Parameterization, cap: int):
    """Every set Ganter's algorithm visits, as (mask, closure mask) int
    pairs in ascending lectic order, the closure being the context closure
    (the mask itself for an intent); kept on the context, computed once per
    S.

    The sets closed under adding C(Q) for every pseudo-intent Q properly
    inside them are the intents and the pseudo-intents, and NextClosure lists
    them in lectic order, which extends containment, so every Q is found
    before any set above it is closed.  CapExceeded, naming the intents and
    pseudo-intents among the first ``cap`` sets, past ``cap`` sets; a kept
    pass is held to the same bound.
    """
    visited = ctx._passes.get(s)
    if visited is None:
        visited, rules = [], []
        sc = scale(len(ctx.universe), ctx.chain.n)
        rows = _row_images(ctx, s)
        # Ganter's operator is forward chaining over the (Q, C(Q)) mask pairs
        # found so far.  Q <= M alone stands for "Q properly inside M":
        # NextClosure closes only sets lectically above every set it has
        # emitted, so no set the chaining visits equals a found Q.
        closed = next_closures(ctx.universe, ctx.chain, lambda a: forward_chain(rules, a, sc), cap)
        try:
            for q in closed:
                cl = meet_above(q, rows, sc.top)
                visited.append((q, cl))
                if cl != q:
                    rules.append((q, cl))
        except CapExceeded:
            raise _over_cap(visited, cap) from None
        visited = ctx._passes[s] = tuple(visited)
    if len(visited) > cap:
        raise _over_cap(visited[: max(cap, 0)], cap)
    return visited


def _over_cap(visited, cap: int) -> CapExceeded:
    pseudo = sum(cl != q for q, cl in visited)
    return CapExceeded(
        f"more than {cap} closed sets: {len(visited) - pseudo} intents and "
        f"{pseudo} pseudo-intents visited"
    )


def intents_enum(ctx: LContext, s: Parameterization, cap: int = 10**6):
    """All downup fixed points, in ascending lectic order.  ``cap`` bounds
    the intents and pseudo-intents visited."""
    universe, chain = ctx.universe, ctx.chain
    return [LSet._from_mask(universe, chain, q) for q, cl in _ganter_pass(ctx, s, cap) if cl == q]


def pseudo_intents(ctx: LContext, s: Parameterization, cap: int = 10**6):
    """All S-pseudo-intents with their closures, by ascending degree sum and
    then lectic order.

    P qualifies iff P is not closed and Q's closure lands inside P for every
    pseudo-intent Q properly below P.  ``cap`` bounds the intents and
    pseudo-intents visited.  The degree sum is kept exact as an integer:
    each degree's numerator over the lcm of the chain's denominators.
    """
    universe, chain = ctx.universe, ctx.chain
    scale_by = math.lcm(*(d.denominator for d in chain.degrees))
    weight = [d.numerator * (scale_by // d.denominator) for d in chain.degrees]
    found = [
        (LSet._from_mask(universe, chain, q), LSet._from_mask(universe, chain, cl))
        for q, cl in _ganter_pass(ctx, s, cap)
        if cl != q
    ]
    found.sort(key=lambda pair: (sum(weight[i] for i in pair[0].idx), pair[0].mask))
    return found


def complete_set(ctx: LContext, s: Parameterization, cap: int = 10**6) -> Theory:
    """The theory {P => downup(P) : P an S-pseudo-intent}, in the order of
    pseudo_intents."""
    return Theory(FAI(p, cl) for p, cl in pseudo_intents(ctx, s, cap))


def theory_of_system(models, s: Parameterization, cap: int = 10**6) -> Theory:
    """A theory whose models are exactly the given S-closure system.

    In the context whose rows are the members, every member is an intent
    (the identity is in S), and every intent is a meet of images g(member)
    over <f, g> in S, the top set being the empty meet.  So the members form
    an S-closure system (top present, closed under meets and under every
    upper adjoint of S) exactly when every intent is a member;
    NotClosureSystem names the first that is not.  Then the intents are the
    members and the result is that context's complete set, in the order of
    pseudo_intents.  ``cap`` bounds the intents and pseudo-intents visited.
    """
    members = dict.fromkeys(models)
    ctx = LContext(s.universe, s.chain, [str(i) for i in range(len(members))], members)
    for m in intents_enum(ctx, s, cap):
        if m not in members:
            raise NotClosureSystem(f"not an S-closure system: {render_lset(m)!r} is missing")
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
    and the theory entails P => C(P) for every pseudo-intent P of the
    Ganter pass (``cap`` bounds it), so every model is an intent; the
    theory is compiled once for all of them.  Sampled mode compares least
    model and downup on the rows, bottom, top, and seeded-random sets.
    """
    if mode == "full":
        visited, pairs = _ganter_pass(ctx, s, cap), theory_pairs(theory, s)
        sc = scale(len(ctx.universe), ctx.chain.n)
        return all(holds_in_context(ctx, r, s) for r in theory) and all(
            cl & forward_chain(pairs, q, sc, until=cl) == cl for q, cl in visited if cl != q
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
    The rules' pairs (``semantics.rule_pairs``) are taken once into one flat
    list, rule by rule; a rule is tested against the list with its own slice
    left out, and a dropped rule's slice leaves the list.  ``ctx`` is not
    read: entailment alone decides, and callers pass it positionally.
    """
    flat = theory_pairs(theory, s)
    sc, kept, lo = scale(len(s.universe), s.chain.n), [], 0
    for rule in theory:
        size, b = len(rule_pairs(rule, s)), rule.consequent.mask
        rest = flat[:lo] + flat[lo + size :]
        if b & forward_chain(rest, rule.antecedent.mask, sc, until=b) == b:
            flat = rest
        else:
            kept.append(rule)
            lo += size
    return Theory(kept)


def minimize_sides(theory: Theory, ctx: LContext, s: Parameterization, cap: int = 10**6) -> Theory:
    """Lower degrees inside each rule while the theory stays complete.

    Walks rules in order; within a rule, antecedent then consequent,
    attributes in universe order, stepping each degree down on masks
    (``fset.step_down``) while the edited theory remains complete for the
    context.  The theory is complete before every edit, so replacing rule
    A => B by r' keeps it complete iff r' holds in the context (every
    intent stays a model) and the edited theory entails A => B (no model
    is added).  With the identity in S, one test decides each edit:

    - lowering A to A': the edited theory entails A => B, since the
      identity image A' => B fires from A; context truth decides;
    - lowering B to B': B' <= B <= downup(A) as A => B holds, so r' holds
      in the context; entailment decides, chaining over the other rules'
      kept pairs and the undominated images of A => B'
      (``semantics.undominated``), whose f(A) are read once per rule;
    - where B(y) <= A(y), A u B' still contains B, so the identity image
      A => B' alone entails A => B: B(y) drops to 0 with no test.

    NotAMonoid when S lacks the identity (an S built unchecked).
    """
    if identity(s.universe, s.chain) not in s:
        raise NotAMonoid("minimize_sides needs the identity connection in S")
    if not is_complete(theory, ctx, s, cap=cap):
        raise NotComplete("minimize_sides needs a complete theory")
    universe, chain, rows = ctx.universe, ctx.chain, _row_images(ctx, s)
    sc = scale(len(universe), chain.n)
    rules = list(theory)
    for i, rule in enumerate(rules):
        b = rule.consequent.mask

        def holds(cand, _):
            return b & meet_above(cand, rows, sc.top) == b

        a = step_down(rule.antecedent.mask, holds, sc)
        fas, rest = s.lower_images(sc.decode(a)), theory_pairs(rules[:i] + rules[i + 1 :], s)

        def entailed(cand, cur):
            trial = [*rest, *undominated(zip(fas, s.lower_images(sc.decode(cand))))]
            return cur & forward_chain(trial, a, sc, until=cur) == cur

        b = step_down(b, entailed, sc, floor=a)
        if a != rule.antecedent.mask or b != rule.consequent.mask:
            rules[i] = FAI(LSet._from_mask(universe, chain, a), LSet._from_mask(universe, chain, b))
    return Theory(rules)


# ---------------------------------------------------------------- rendering


def hasse_dot(sets, name: str = "lattice") -> str:
    """DOT digraph of the cover relation of containment, edges upward."""
    nodes = sorted(sets, key=lambda m: m.mask)
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
