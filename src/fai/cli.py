"""Command line front end.

Exit codes: 0 success (entailed / valid / degree 1), 1 negative result
(not entailed, proof invalid, goal not provable), 2 usage, 3 bad input.
Output on stdout is deterministic; progress notes go to stderr.

A command imports fai.context and fai.proof inside the functions that use
them, so a command that needs neither does not load them.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import FaiError, GoalMismatch, InvalidStep, NotProvable, ParseError
from .fset import Universe, parse_lset, render_lset
from .gconn import (
    _degree_from,
    generate_monoid,
    generators_from_descriptors,
    term_to_descriptor,
    verify_adjoint,
)
from .lattice import Chain, brief_value, parse_degree, render_degree
from .semantics import (
    entail_degree,
    least_model,
    models_enum,
    parse_fai,
    parse_theory,
    render_fai,
    render_theory,
)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _read_json(path: str, build):
    """``build`` applied to a JSON file's value, floats read as exact
    fractions by ``parse_degree``.  ParseError naming the file when it is
    not JSON the decoder accepts, or when it nests deeper than the decoder,
    or ``build``'s walk over nested descriptors, can follow."""
    text = _read(path)
    try:
        try:
            data = json.loads(text, parse_float=parse_degree)
        except ValueError as exc:  # malformed JSON, or an integer past the digit limit
            raise ParseError(f"{path}: not valid JSON: {exc}") from None
        return build(data)
    except RecursionError:
        raise ParseError(f"{path}: nested too deeply to read") from None


# The JSON type of each top-level key of a parameter file, and its name in
# errors; generators and monoid_cap may be left out.
_SETTING_TYPES = {
    "degrees": (list, "a list"),
    "logic": (str, "a string"),
    "attributes": (list, "a list of strings"),
    "generators": (list, "a list of descriptors"),
    "monoid_cap": (int, "an integer"),
}


def _load_setting(path: str):
    """Chain, universe and monoid from a parameter file.

    JSON keys: degrees (list), logic, attributes (list of names), generators
    (list of descriptors, may be empty for plain implications), monoid_cap
    (optional int).  Floats are read as exact fractions.  ParseError for any
    other shape.
    """
    return _read_json(path, _setting)


def _setting(data):
    """The chain, universe and monoid of a parameter file's JSON value."""
    if not isinstance(data, dict):
        raise ParseError(f"a parameter file holds a JSON object, not {brief_value(data)}")
    for key in ("degrees", "logic", "attributes"):
        if key not in data:
            raise ParseError(f"parameter file lacks {key!r}")
    for key, (kind, what) in _SETTING_TYPES.items():
        value = data.get(key, kind())
        if (
            not isinstance(value, kind)
            or isinstance(value, bool)
            or (key == "attributes" and not all(isinstance(name, str) for name in value))
        ):
            raise ParseError(f"{key} must be {what}, not {brief_value(value)}")
    chain = Chain([_degree_from(d) for d in data["degrees"]], data["logic"])
    universe = Universe(data["attributes"])
    gens = generators_from_descriptors(data.get("generators", []), universe, chain)
    cap = data.get("monoid_cap", 4096)
    return chain, universe, generate_monoid(gens, universe, chain, cap=cap)


def _load_context(path: str, chain: Chain, universe: Universe):
    from .context import LContext

    return LContext.from_csv(_read(path), chain, universe)


def _load_theory(path: str, universe: Universe, chain: Chain):
    return parse_theory(_read(path), universe, chain)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _render_descriptor(desc: dict) -> str:
    """One line for a connection descriptor, e.g. ``compose(rotate(2), const-mult(0.5))``."""
    args = []
    for key, value in desc.items():
        if key == "terms":
            args.extend(_render_descriptor(term) for term in value)
        elif key == "C":
            args.append(f"{{{value}}}")
        elif key != "kind":
            args.append(str(value))
    return f"{desc['kind']}({', '.join(args)})" if args else desc["kind"]


# ---------------------------------------------------------------- commands


def cmd_validate(args, chain, universe, s) -> int:
    degrees = ", ".join(render_degree(d) for d in chain.degrees)
    print(f"chain: {chain.n} degrees ({degrees}), logic {chain.logic}")
    print(f"attributes: {', '.join(universe.attributes)}")
    print(f"S: {len(s)} connections")
    for i, conn in enumerate(s):
        term = _render_descriptor(term_to_descriptor(conn.term))
        print(f"  [{i}] {term}  fp={conn.fingerprint_hash()}")
    for conn in s:
        verify_adjoint(conn)
    print(f"adjointness: verified for all {len(s)} members")
    return 0


def cmd_closure(args, chain, universe, s) -> int:
    m = parse_lset(args.set, universe, chain)
    if (args.theory is None) == (args.context is None):
        print("error: closure needs exactly one of --theory or --context", file=sys.stderr)
        return 2
    if args.theory is not None:
        closed = least_model(_load_theory(args.theory, universe, chain), s, m)
    else:
        from .context import downup

        closed = downup(_load_context(args.context, chain, universe), m, s)
    print(render_lset(closed))
    return 0


def cmd_entail(args, chain, universe, s) -> int:
    theory = _load_theory(args.theory, universe, chain)
    query = parse_fai(args.query, universe, chain)
    degree = entail_degree(theory, query, s)
    if args.json:
        print(json.dumps({"degree": render_degree(degree), "entailed": degree == 1}))
    else:
        print(render_degree(degree))
    return 0 if degree == 1 else 1


def cmd_rules(args, chain, universe, s) -> int:
    """complete-set, and base, which also reduces the complete set."""
    from .context import complete_set, minimize_sides, reduce_to_base

    ctx = _load_context(args.context, chain, universe)
    theory = complete_set(ctx, s, cap=args.cap)
    if args.command == "base":
        theory = reduce_to_base(theory, ctx, s)
        if args.minimize_sides:
            theory = minimize_sides(theory, ctx, s, cap=args.cap)
    if args.json:
        payload = {"count": len(theory), "rules": [render_fai(r) for r in theory]}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    _emit(render_theory(theory), args.out)
    print(f"# rules: {len(theory)}")
    return 0


def _cmd_listing(args, sets, what: str) -> int:
    if args.dot is not None:
        from .context import hasse_dot

        _emit(hasse_dot(sets, name=what), args.dot)
    if args.json:
        payload = {"count": len(sets), what: [render_lset(m) for m in sets]}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    body = "".join(render_lset(m) + "\n" for m in sets)
    _emit(body, args.out)
    print(f"# {what}: {len(sets)}")
    return 0


def cmd_intents(args, chain, universe, s) -> int:
    from .context import intents_enum

    ctx = _load_context(args.context, chain, universe)
    return _cmd_listing(args, intents_enum(ctx, s, cap=args.cap), "intents")


def cmd_models(args, chain, universe, s) -> int:
    theory = _load_theory(args.theory, universe, chain)
    return _cmd_listing(args, models_enum(theory, s, cap=args.cap), "models")


def cmd_check_proof(args, chain, universe, s) -> int:
    from .proof import check_proof, proof_from_json

    theory = _load_theory(args.theory, universe, chain)
    proof = _read_json(args.proof, lambda data: proof_from_json(data, universe, chain))
    goal = parse_fai(args.goal, universe, chain) if args.goal else None
    try:
        check_proof(proof, theory, s, goal=goal, allow_cutf=args.allow_cutf)
    except (InvalidStep, GoalMismatch) as exc:
        print(f"invalid: {exc}")
        return 1
    print(f"ok: {len(proof)} steps, goal {render_fai(proof.goal)}")
    return 0


def cmd_prove(args, chain, universe, s) -> int:
    from .proof import proof_to_json, prove

    theory = _load_theory(args.theory, universe, chain)
    goal = parse_fai(args.query, universe, chain)
    try:
        proof = prove(theory, s, goal)
    except NotProvable as exc:
        print(f"not provable: {exc}")
        return 1
    _emit(json.dumps(proof_to_json(proof), indent=2) + "\n", args.out)
    if args.out is not None:
        print(f"proved in {len(proof)} steps")
    return 0


# ---------------------------------------------------------------- wiring


def _cap(text: str) -> int:
    """A --cap value: a count of closed sets, so not negative."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {text!r}")
    return cap


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--params", required=True, metavar="FILE",
                        help="JSON with degrees, logic, attributes, generators")

    # only the commands that enumerate closed sets take --cap
    enumerating = argparse.ArgumentParser(add_help=False, parents=[common])
    enumerating.add_argument("--cap", type=_cap, default=10**6, metavar="N",
                             help="abort past N closed sets: models for models, intents "
                             "plus pseudo-intents for intents, complete-set and base")

    parser = argparse.ArgumentParser(
        prog="fai",
        description="Graded attribute implications with parameterized semantics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check the parameter file and list S")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("closure", parents=[common],
                       help="least model (--theory) or context closure (--context) of a set")
    p.add_argument("--set", required=True, help="graded set literal, e.g. 'k, 0.5/l'")
    p.add_argument("--theory", metavar="FILE")
    p.add_argument("--context", metavar="FILE")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("entail", parents=[common],
                       help="degree to which a theory entails an implication")
    p.add_argument("--theory", required=True, metavar="FILE")
    p.add_argument("--query", required=True, help="implication, e.g. '0.75/a, e -> l'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_entail)

    for name, extra in (("base", True), ("complete-set", False)):
        p = sub.add_parser(name, parents=[enumerating],
                           help="non-redundant base from a context" if extra
                           else "pseudo-intent implications of a context")
        p.add_argument("--context", required=True, metavar="FILE")
        p.add_argument("--json", action="store_true")
        p.add_argument("--out", metavar="FILE", help="write the rules here instead of stdout")
        if extra:
            p.add_argument("--minimize-sides", action="store_true",
                           help="also lower degrees inside the surviving rules")
        p.set_defaults(func=cmd_rules)

    p = sub.add_parser("intents", parents=[enumerating],
                       help="all context closures, in lectic order")
    p.add_argument("--context", required=True, metavar="FILE")
    p.add_argument("--dot", metavar="FILE", help="write the cover diagram as DOT")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_intents)

    p = sub.add_parser("models", parents=[enumerating],
                       help="all models of a theory, in lectic order")
    p.add_argument("--theory", required=True, metavar="FILE")
    p.add_argument("--dot", metavar="FILE", help="write the cover diagram as DOT")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_models)

    p = sub.add_parser("check-proof", parents=[common],
                       help="validate a proof against a theory")
    p.add_argument("--theory", required=True, metavar="FILE")
    p.add_argument("--proof", required=True, metavar="FILE")
    p.add_argument("--goal", help="require the proof to end in this implication")
    p.add_argument("--allow-cutf", action="store_true",
                   help="accept combined Cut+F steps")
    p.set_defaults(func=cmd_check_proof)

    p = sub.add_parser("prove", parents=[common],
                       help="synthesize a proof of an entailed implication")
    p.add_argument("--theory", required=True, metavar="FILE")
    p.add_argument("--query", required=True, help="implication to prove")
    p.add_argument("--out", metavar="FILE", help="write the proof JSON here")
    p.set_defaults(func=cmd_prove)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        chain, universe, s = _load_setting(args.params)
        if args.command != "validate":
            _note(f"S: {len(s)} connections")
        return args.func(args, chain, universe, s)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FaiError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
