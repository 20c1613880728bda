"""Finite residuated chains of truth degrees, hedges, and the dual pair.

Degrees are exact rationals. Internally every degree is an index into the
chain's degree tuple; all operation tables are built once at construction and
validated for closure, so no arithmetic (and no floats) appears on hot paths.
"""

from __future__ import annotations

from decimal import MAX_PREC, Context, Decimal
from fractions import Fraction
import sys

from .errors import (
    ChainNotClosed,
    ChainNotSymmetric,
    DegreeNotInChain,
    InvalidHedge,
    InvariantError,
)

LOGICS = ("godel", "lukasiewicz", "goguen")

ONE = Fraction(1)
ZERO = Fraction(0)


def _tnorm_value(logic: str, a: Fraction, b: Fraction) -> Fraction:
    if logic == "godel":
        return min(a, b)
    if logic == "lukasiewicz":
        return max(a + b - 1, ZERO)
    if logic == "goguen":
        return a * b
    raise ValueError(f"unknown logic {logic!r}")


def _residuum_value(logic: str, a: Fraction, b: Fraction) -> Fraction:
    if a <= b:
        return ONE
    if logic == "godel":
        return b
    if logic == "lukasiewicz":
        return min(ONE - a + b, ONE)
    if logic == "goguen":
        return b / a
    raise ValueError(f"unknown logic {logic!r}")


def _decimal_places(den: int):
    """The decimal places of p/den in lowest terms, or None when it has no
    terminating decimal."""
    twos = fives = 0
    rest = den
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    return max(twos, fives) if rest == 1 else None


def render_degree(d: Fraction) -> str:
    """Exact text for a degree: a terminating decimal when one exists, else p/q."""
    num, den = d.numerator, d.denominator
    if den == 1:
        return str(num)
    k = _decimal_places(den)
    if k is None:
        return f"{num}/{den}"
    digits = num * 10**k // den
    text = str(digits).rjust(k + 1, "0")
    whole, frac = text[:-k], text[-k:].rstrip("0")
    return f"{whole}.{frac}" if frac else whole


_BRIEF = 40  # characters of a value in an error message


def _cut(text: str, width: int = _BRIEF) -> str:
    """The text, or its first and last characters around '...' when it is
    longer than width."""
    half = (width - 3) // 2
    return text if len(text) <= width else f"{text[:half]}...{text[-half:]}"


def brief_degree(d: Fraction) -> str:
    """A degree for an error message, in about 40 characters:
    render_degree's text when that fits, else the same decimal as digits
    times a power of ten (1e-4300) when that fits, else the first and last
    characters of render_degree's text around '...'.  The digits are written
    through Decimal, which the interpreter's limit on integer digits does
    not bound."""
    num, den = d.numerator, d.denominator
    k = _decimal_places(den)
    if k is None:
        half = _BRIEF // 2
        return f"{_cut(str(Decimal(num)), half)}/{_cut(str(Decimal(den)), half)}"
    unrounded = Context(prec=MAX_PREC)
    exact = Decimal(num * 10**k // den).scaleb(-k, unrounded)
    fixed, sci = f"{exact:f}", f"{exact.normalize(unrounded):e}"
    return _cut(fixed if len(fixed) <= _BRIEF or len(sci) > _BRIEF else sci)


def brief_value(value) -> str:
    """Any value for an error message, in about 40 characters: a number by
    ``brief_degree``, which no limit on integer digits bounds, anything
    else as its repr, cut around '...'."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return brief_degree(Fraction(value))
    return _cut(repr(value))


def parse_degree(text: str) -> Fraction:
    """Parse a decimal or p/q degree literal exactly.

    A decimal exponent larger in magnitude than the interpreter's limit on
    integer digits (``sys.get_int_max_str_digits``) is refused before any
    arithmetic: the value alone would take time and memory growing with it.
    """
    literal = text.strip()
    exponent = literal.lower().partition("e")[2].lstrip("+-").replace("_", "").lstrip("0")
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if exponent.isdecimal() and (len(exponent) > len(str(limit)) or int(exponent) > limit):
        raise DegreeNotInChain(
            f"cannot parse degree {literal!r}: its exponent is larger in magnitude than {limit}"
        )
    try:
        return Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise DegreeNotInChain(f"cannot parse degree {text!r}") from exc


class Chain:
    """A finite residuated chain: degrees 0 = d_0 < ... < d_{n-1} = 1 with one
    of the three standard pairs of operations restricted to the chain.

    Construction fails with ChainNotClosed unless both the t-norm and the
    residuum map the chain into itself (checked exhaustively).
    """

    def __init__(self, degrees, logic: str):
        degrees = tuple(Fraction(d) for d in degrees)
        if logic not in LOGICS:
            raise ValueError(f"logic must be one of {LOGICS}, got {logic!r}")
        if len(degrees) < 2:
            raise ValueError("a chain needs at least the degrees 0 and 1")
        if any(b <= a for a, b in zip(degrees, degrees[1:])):
            raise ValueError("degrees must be strictly increasing")
        if degrees[0] != 0 or degrees[-1] != 1:
            raise ValueError("a chain must start at 0 and end at 1")
        self.degrees = degrees
        self.logic = logic
        self.n = len(degrees)
        self._index = {d: i for i, d in enumerate(degrees)}
        self._dual = None  # the DualPair, built when first asked for (``dual``)

        n = self.n
        self._tnorm = [[0] * n for _ in range(n)]
        self._residuum = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                t = _tnorm_value(logic, degrees[i], degrees[j])
                r = _residuum_value(logic, degrees[i], degrees[j])
                if t not in self._index:
                    raise ChainNotClosed(
                        f"{brief_degree(degrees[i])} * {brief_degree(degrees[j])}"
                        f" = {brief_degree(t)} is not in the chain"
                    )
                if r not in self._index:
                    raise ChainNotClosed(
                        f"{brief_degree(degrees[i])} -> {brief_degree(degrees[j])}"
                        f" = {brief_degree(r)} is not in the chain"
                    )
                self._tnorm[i][j] = self._index[t]
                self._residuum[i][j] = self._index[r]

    # -- index-level operations (used by everything downstream) --

    def tnorm_i(self, i: int, j: int) -> int:
        return self._tnorm[i][j]

    def residuum_i(self, i: int, j: int) -> int:
        return self._residuum[i][j]

    def index_of(self, d) -> int:
        """The index of a degree, given as a value or as a literal
        (``parse_degree``).  DegreeNotInChain quotes a literal as typed and
        gives a value briefly (``brief_degree``): either may be long."""
        value = parse_degree(d) if isinstance(d, str) else Fraction(d)
        try:
            return self._index[value]
        except KeyError:
            shown = repr(d.strip()) if isinstance(d, str) else brief_degree(value)
            raise DegreeNotInChain(f"degree {shown} is not in the chain") from None

    @property
    def dual(self) -> "DualPair":
        """The chain's dual pair, built the first time it is asked for and
        kept; ChainNotSymmetric when the chain has none."""
        if self._dual is None:
            self._dual = DualPair(self)
        return self._dual

    def __contains__(self, d) -> bool:
        return Fraction(d) in self._index

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Chain)
            and self.degrees == other.degrees
            and self.logic == other.logic
        )

    def __hash__(self) -> int:
        return hash((self.degrees, self.logic))

    def __repr__(self) -> str:
        body = ", ".join(render_degree(d) for d in self.degrees)
        return f"Chain([{body}], {self.logic})"


class Hedge:
    """An idempotent truth stresser given by its fixed-point set F.

    a* is the greatest element of F below a.  0 is always a fixed point
    (forced by a* <= a), so F is normalized to contain it.  The laws 1* = 1,
    a* <= a and a** = a* hold by construction; the structural law
    (a -> b)* <= a* -> b* is checked exhaustively and its failure raises
    InvalidHedge.
    """

    def __init__(self, chain: Chain, fixed_points):
        self.chain = chain
        fps = {chain.index_of(d) for d in fixed_points}
        if chain.n - 1 not in fps:
            raise InvalidHedge("1 must be a fixed point")
        fps.add(0)
        self.fixed_points = tuple(sorted(fps))
        table = []
        for i in range(chain.n):
            table.append(max(f for f in self.fixed_points if f <= i))
        self._table = tuple(table)

        for a in range(chain.n):
            for b in range(chain.n):
                lhs = self._table[chain.residuum_i(a, b)]
                rhs = chain.residuum_i(self._table[a], self._table[b])
                if lhs > rhs:
                    raise InvalidHedge(
                        "(a -> b)* <= a* -> b* fails at a="
                        f"{brief_degree(chain.degrees[a])}, "
                        f"b={brief_degree(chain.degrees[b])}"
                    )

    def apply_i(self, i: int) -> int:
        return self._table[i]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hedge)
            and self.chain == other.chain
            and self.fixed_points == other.fixed_points
        )

    def __hash__(self) -> int:
        return hash((self.chain, self.fixed_points))

    def __repr__(self) -> str:
        body = ", ".join(render_degree(self.chain.degrees[f]) for f in self.fixed_points)
        return f"Hedge({{{body}}})"


def globalization(chain: Chain) -> Hedge:
    """The hedge with fixed points {0, 1}: a* = 1 iff a = 1, else 0."""
    return Hedge(chain, [ZERO, ONE])


def identity_hedge(chain: Chain) -> Hedge:
    """The hedge fixing every degree: a* = a."""
    return Hedge(chain, chain.degrees)


class DualPair:
    """The dual operations a(+)b = 1-((1-a)*(1-b)) and a(-)b = 1-((1-b)->(1-a)).

    Requires the chain to be closed under x -> 1-x (ChainNotSymmetric
    otherwise).  Dual adjointness a(-)b <= c iff a <= b(+)c is verified
    exhaustively at construction.
    """

    def __init__(self, chain: Chain):
        self.chain = chain
        neg = []
        for d in chain.degrees:
            if ONE - d not in chain:
                raise ChainNotSymmetric(
                    f"1 - {brief_degree(d)} is not in the chain"
                )
            neg.append(chain.index_of(ONE - d))
        self._neg = tuple(neg)

        n = chain.n
        self._oplus = [[0] * n for _ in range(n)]
        self._ominus = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                self._oplus[a][b] = neg[chain.tnorm_i(neg[a], neg[b])]
                self._ominus[a][b] = neg[chain.residuum_i(neg[b], neg[a])]

        # forced by adjointness of the underlying pair, but cheap to confirm
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if (self._ominus[a][b] <= c) != (a <= self._oplus[b][c]):
                        raise InvariantError(
                            "dual adjointness a(-)b <= c iff a <= b(+)c fails at "
                            f"a={brief_degree(chain.degrees[a])}, "
                            f"b={brief_degree(chain.degrees[b])}, "
                            f"c={brief_degree(chain.degrees[c])}"
                        )

    def ominus_i(self, i: int, j: int) -> int:
        return self._ominus[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, DualPair) and self.chain == other.chain

    def __hash__(self) -> int:
        return hash(("dual", self.chain))
