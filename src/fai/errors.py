"""Exception types shared across the package."""


class FaiError(Exception):
    """Base class for all errors raised by this package."""


class ChainNotClosed(FaiError):
    """The chain is not closed under the t-norm or its residuum."""


class ChainNotSymmetric(FaiError):
    """The chain is not closed under x -> 1-x (needed for the dual pair)."""


class InvalidHedge(FaiError):
    """The fixed-point set violates one of the hedge laws."""


class DegreeNotInChain(FaiError):
    """A parsed or supplied degree is not a member of the chain."""


class UniverseMismatch(FaiError):
    """Operands live over different universes or chains."""


class NotAdjoint(FaiError):
    """A supplied pair of maps is not an isotone Galois connection."""


class NotAMonoid(FaiError):
    """A connection set lacks the identity or is not closed under composition."""


class CapExceeded(FaiError):
    """An enumeration or generation loop hit its configured cap."""


class InvariantError(FaiError):
    """An internal invariant failed: a bug, or an object built unchecked."""


class NotClosureSystem(FaiError):
    """A model collection is not intersection-closed and g-closed."""


class NotComplete(FaiError):
    """An operation needing a complete theory was given an incomplete one."""


class ParseError(FaiError):
    """A literal, theory, context, or proof file failed to parse."""


class InvalidStep(FaiError):
    """A proof step failed verification."""

    def __init__(self, index: int, reason: str):
        self.index = index
        self.reason = reason
        super().__init__(f"step {index}: {reason}")


class GoalMismatch(FaiError):
    """The proof's last formula differs from the expected goal."""


class NotProvable(FaiError):
    """The goal is not semantically entailed, hence not provable."""
