"""Reference implementations kept for tests only.

``lower_idx`` and ``upper_idx`` interpret a connection term directly,
walking composite terms recursively; ``pairwise_monoid`` closes generators
under composition by composing every pair of members, round by round, until
a round finds nothing new; ``verify_adjoint_by_sweep`` checks adjointness of
two maps on every graded set; ``derive_upper`` recovers the upper map from
the lower map's singleton images alone.  fai evaluates both maps from a
connection's lower mask table, finds the size of S first and checks
adjointness on the table's rows, so these serve as independent oracles; in
particular ``upper_idx`` is the one place each term's own upper formula is
evaluated.  ``lower_image`` and ``compose_lower`` apply and compose lower
tables on index vectors, as fai did before it composed their mask form, and
``idx_join`` and ``idx_meet`` join and meet index vectors.  ``lower_masks``
encodes an index-vector lower table into its mask form, image by image.
``rule_pairs_by_member`` is ``semantics.rule_pairs`` as it was before S
kept a bit-sliced table: each member's own mask table applied to the rule.
"""

from functools import lru_cache
import itertools

from fai import CapExceeded, Connection, DualPair, LSet, NotAdjoint, identity, render_lset
from fai.fset import lower_mask, scale
from fai.gconn import Compose, ConstMult, ConstMultSet, DiffSet, Identity, Rotate


def idx_join(rows, size: int) -> tuple:
    """Entrywise maximum of a sequence of index vectors; bottom if empty."""
    if len(rows) > 1:
        return tuple(map(max, *rows))
    return rows[0] if rows else (0,) * size


def idx_meet(rows, size: int, top: int) -> tuple:
    """Entrywise minimum of a sequence of index vectors; top if empty."""
    if len(rows) > 1:
        return tuple(map(min, *rows))
    return rows[0] if rows else (top,) * size


def lower_image(table, idx) -> tuple:
    """f(A): the join of the rows f({a/y}) = table[y][a - 1] that A picks."""
    return idx_join([table[y][a - 1] for y, a in enumerate(idx) if a], len(idx))


def lower_masks(sc, table) -> tuple:
    """The mask form of a lower table on scale sc: per attribute y and
    degree index k, the mask of f({k/y}), 0 at k = 0."""
    return tuple((0, *map(sc.encode, rows)) for rows in table)


def compose_lower(outer, inner):
    """Lower table of outer o inner: outer's lower map on inner's rows."""
    return tuple(tuple(lower_image(outer, row) for row in rows) for rows in inner)


@lru_cache(maxsize=None)
def _dual(chain):
    return DualPair(chain)


@lru_cache(maxsize=None)
def _negation(chain):
    """The index of 1 - d for each degree d of a symmetric chain."""
    return tuple(chain.index_of(1 - d) for d in chain.degrees)


def lower_idx(term, idx, chain, memo=None):
    """The lower map of a term on an index vector.  A memo dict, keyed on
    (id(subterm), vector), shares the work among terms built from the same
    subterm objects."""
    if memo is not None and isinstance(term, Compose):
        key = (id(term), "lower", idx)
        if key not in memo:
            memo[key] = lower_idx(term.outer, lower_idx(term.inner, idx, chain, memo), chain, memo)
        return memo[key]
    if isinstance(term, Identity):
        return tuple(idx)
    if isinstance(term, ConstMult):
        c = chain.index_of(term.c)
        return tuple(chain.tnorm_i(c, i) for i in idx)
    if isinstance(term, ConstMultSet):
        return tuple(chain.tnorm_i(c, i) for c, i in zip(term.C.idx, idx))
    if isinstance(term, DiffSet):
        dual = _dual(chain)
        return tuple(dual.ominus_i(i, c) for i, c in zip(idx, term.C.idx))
    if isinstance(term, Rotate):
        n = len(idx)
        return tuple(idx[(j + term.shift) % n] for j in range(n))
    if isinstance(term, Compose):
        return lower_idx(term.outer, lower_idx(term.inner, idx, chain), chain)
    raise TypeError(f"unknown term {term!r}")


def upper_idx(term, idx, chain, memo=None):
    """The upper map of a term on an index vector; memo as for lower_idx."""
    if memo is not None and isinstance(term, Compose):
        key = (id(term), "upper", idx)
        if key not in memo:
            memo[key] = upper_idx(term.inner, upper_idx(term.outer, idx, chain, memo), chain, memo)
        return memo[key]
    if isinstance(term, Identity):
        return tuple(idx)
    if isinstance(term, ConstMult):
        c = chain.index_of(term.c)
        return tuple(chain.residuum_i(c, i) for i in idx)
    if isinstance(term, ConstMultSet):
        return tuple(chain.residuum_i(c, i) for c, i in zip(term.C.idx, idx))
    if isinstance(term, DiffSet):
        # c (+) a = 1 - ((1 - c) * (1 - a)), from the chain's own t-norm
        neg = _negation(chain)
        return tuple(neg[chain.tnorm_i(neg[c], neg[i])] for c, i in zip(term.C.idx, idx))
    if isinstance(term, Rotate):
        n = len(idx)
        return tuple(idx[(j - term.shift) % n] for j in range(n))
    if isinstance(term, Compose):
        return upper_idx(term.inner, upper_idx(term.outer, idx, chain), chain)
    raise TypeError(f"unknown term {term!r}")


def rule_pairs_by_member(rule, s) -> tuple:
    """The distinct (f(A), f(B)) masks of the rule over S's members in S's
    order, leaving out those with f(B) <= f(A), one member at a time."""
    a, b = rule.antecedent.idx, rule.consequent.idx
    seen = {}
    for conn in s:
        fa, fb = lower_mask(conn.lower_masks, a), lower_mask(conn.lower_masks, b)
        if fb & fa != fb:
            seen[fa, fb] = None
    return tuple(seen)


def pairwise_monoid(generators, universe, chain, cap=4096):
    """Members of the monoid in pairwise discovery order, identity first.
    Lower tables compose on index vectors (``compose_lower``), each member's
    decoded once, and each new member is built from the mask form of the
    table found so."""
    elems = [identity(universe, chain)]
    fps = {elems[0].fingerprint: None}  # in insertion order: the k-th key is elems[k]'s
    for g in generators:
        if g.fingerprint not in fps:
            fps[g.fingerprint] = None
            elems.append(g)
            if len(elems) > cap:
                raise CapExceeded(f"monoid exceeds {cap} connections")
    sc = scale(len(universe), chain.n)
    changed = True
    while changed:
        changed = False
        for a, fa in list(zip(elems, fps)):
            for b, fb in list(zip(elems, fps)):
                fp = compose_lower(fa, fb)
                if fp not in fps:
                    fps[fp] = None
                    masks = lower_masks(sc, fp)
                    elems.append(Connection(Compose(a.term, b.term), universe, chain, _masks=masks))
                    changed = True
                    if len(elems) > cap:
                        raise CapExceeded(f"monoid exceeds {cap} connections")
    return elems


def verify_adjoint_by_sweep(lower, upper, universe, chain, cap=10**6) -> bool:
    """Check that two maps form an isotone Galois connection.

    Equivalent to the pairwise biconditional f(A) <= B iff A <= g(B):
    both maps monotone (checked over all covers) plus A <= g(f(A)) and
    f(g(B)) <= B.  Raises NotAdjoint with a counterexample.
    """
    total = chain.n ** len(universe)
    if total > cap:
        raise CapExceeded(f"{total} sets exceed the verification cap {cap}")
    size = len(universe)
    for idx in itertools.product(range(chain.n), repeat=size):
        a = LSet(universe, chain, idx)
        fa = lower(a)
        ga = upper(a)
        if not a <= upper(fa):
            raise NotAdjoint(f"A <= g(f(A)) fails at A = {render_lset(a)!r}")
        if not lower(ga) <= a:
            raise NotAdjoint(f"f(g(B)) <= B fails at B = {render_lset(a)!r}")
        for y in range(size):
            if idx[y] + 1 < chain.n:
                b = LSet(universe, chain, idx[:y] + (idx[y] + 1,) + idx[y + 1 :])
                if not fa <= lower(b):
                    raise NotAdjoint(f"f not monotone between {render_lset(a)!r} and {render_lset(b)!r}")
                if not ga <= upper(b):
                    raise NotAdjoint(f"g not monotone between {render_lset(a)!r} and {render_lset(b)!r}")
    return True


def derive_upper(conn, b):
    """Recover g from f alone: g(B)(y) = max {a : f({a/y}) <= B}."""
    fp = conn.fingerprint
    out = []
    for y in range(len(conn.universe)):
        best = 0
        for a in range(1, conn.chain.n):
            if all(v <= w for v, w in zip(fp[y][a - 1], b.idx)):
                best = a
        out.append(best)
    return LSet(conn.universe, conn.chain, out)
