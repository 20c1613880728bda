"""Graded attribute implications whose semantics is parameterized by a
finite monoid of isotone Galois connections over a finite residuated chain.

Importing the package loads none of its modules: ``fai.<name>`` and
``from fai import <name>`` import the module that defines the name, or the
module of that name, on first use (PEP 562), so a program loads only the
modules it touches.  ``from fai import *`` binds every exported name and
every module, as an eager package would.
"""

from importlib import import_module as _import_module

# each module and the names the package exports from it
_EXPORTS = {
    "errors": (
        "CapExceeded",
        "ChainNotClosed",
        "ChainNotSymmetric",
        "DegreeNotInChain",
        "FaiError",
        "GoalMismatch",
        "InvalidHedge",
        "InvalidStep",
        "InvariantError",
        "NotAdjoint",
        "NotAMonoid",
        "NotClosureSystem",
        "NotComplete",
        "NotProvable",
        "ParseError",
        "UniverseMismatch",
    ),
    "lattice": (
        "LOGICS",
        "Chain",
        "DualPair",
        "Hedge",
        "globalization",
        "identity_hedge",
        "parse_degree",
        "render_degree",
    ),
    "fset": (
        "LSet",
        "Universe",
        "c_mult",
        "c_shift",
        "intersection",
        "leq",
        "next_closures",
        "parse_lset",
        "render_lset",
        "subsethood",
        "union",
    ),
    "gconn": (
        "Compose",
        "Connection",
        "ConstMult",
        "ConstMultSet",
        "DiffSet",
        "Identity",
        "Parameterization",
        "Rotate",
        "compose",
        "connection_from_descriptor",
        "from_hedge",
        "generate_monoid",
        "generators_from_descriptors",
        "identity",
        "term_to_descriptor",
        "verify_adjoint",
    ),
    "semantics": (
        "FAI",
        "Theory",
        "entail_degree",
        "entails",
        "hedge_truth_degree",
        "holds_in",
        "is_model",
        "least_model",
        "models_enum",
        "parse_fai",
        "parse_theory",
        "render_fai",
        "render_theory",
        "t_step",
        "truth_degree",
    ),
    "context": (
        "LContext",
        "complete_set",
        "down",
        "downup",
        "hasse_dot",
        "holds_in_context",
        "intents_enum",
        "is_complete",
        "minimize_sides",
        "pseudo_intents",
        "reduce_to_base",
        "theory_of_system",
        "up",
    ),
    "proof": (
        "ApplyF",
        "Axiom",
        "Cut",
        "CutF",
        "Hyp",
        "Proof",
        "ProofStep",
        "check_proof",
        "normalize_proof",
        "proof_from_json",
        "proof_to_json",
        "provability_degree",
        "prove",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, *_EXPORTS]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")  # which binds it here
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
