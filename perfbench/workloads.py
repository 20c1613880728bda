"""The benchmark's three workloads.

Each workload makes its inputs from the seed, sets itself up, yields its
operations in rounds and checks every answer.  A round is the unit the timed
loop runs whole, so every run sees the same mix of operations.

* ``holidays-cli``: every ``fai`` subcommand on the worked example, each in a
  fresh ``python -m fai.cli`` child.  The seed only shuffles the order.
* ``mine``: a ladder of seeded synthetic contexts; one operation mines one
  context from monoid generation to side minimization.
* ``query``: one seeded setting (|Y| = 5, |L| = 5, |S| = 85) and a stream of
  entailment, proof and closure queries against a fixed theory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import fai  # run.py puts the checkout's src/ first on sys.path
from fai import cli, gconn, lattice, proof as fproof, semantics
from fai import context as fctx
from fai.fset import LSet, Universe, subsethood

ROOT = Path.cwd()
DATA = ROOT / "data"
OUT = ROOT / "perfbench" / "out"
# shapes and budgets of every workload, kept in one place with why each was chosen
SPEC = json.loads((Path(__file__).resolve().parent / "workloads.json").read_text(encoding="utf-8"))

DEFAULT_SEED = 0

# sha256 of the first round's answers at DEFAULT_SEED, pinned at the commit
# that introduced the benchmark; a mismatch fails every operation of the round
PINNED_DIGESTS = {
    "mine": "a72bda0afd4d0fd3697fc8e4ae95bcdf9afce731a1ed54304cd49cace27b2fbd",
    "query": "f170679e3befe7385ff850381465da4024d899bdeef0f8bd2660886bd90f0074",
}


class OpTimeout(Exception):
    """An operation ran past its time budget."""


class Op:
    """One benchmark operation: ``run`` is timed, ``check`` is not.

    ``check(answer)`` returns None for a right answer, else the reason.
    ``canon(answer)`` is the answer's canonical form for the pinned digest.
    """

    __slots__ = ("label", "shape", "run", "check", "canon")

    def __init__(self, label, shape, run, check, canon=repr):
        self.label = label
        self.shape = shape
        self.run = run
        self.check = check
        self.canon = canon


class _NoTracer:
    """Stand-in for tracing.Tracer in an untraced run."""

    @contextlib.contextmanager
    def paused(self):
        yield

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


UNTRACED = _NoTracer()


def digest(parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _rules(theory):
    return sorted((r.antecedent.idx, r.consequent.idx) for r in theory)


class Workload:
    name = ""
    # True when every operation works on the same objects (so fai's caches
    # stay warm across operations); False when each builds its own inputs
    shared_inputs = False

    def __init__(self, seed: int, tracer=UNTRACED):
        self.seed = seed
        self.tracer = tracer
        self.rng = random.Random(f"{self.name}:{seed}")
        self.spec = SPEC["workloads"][self.name]
        self.budget_s = self.spec["budget_s"]

    def setup(self) -> None:
        raise NotImplementedError

    def rounds(self):
        raise NotImplementedError

    def shapes(self) -> dict:
        """Shapes and sizes of this run's inputs, for the result stamp."""
        raise NotImplementedError

    def pinned_digest(self):
        return PINNED_DIGESTS.get(self.name) if self.seed == DEFAULT_SEED else None

    def peak_rss_kb(self) -> int:
        """Peak resident memory of the process that ran the operations."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def lower_input(self, answer):
        """(theory, S) whose rule x S pairs the gconn.lower_us probe times."""
        raise NotImplementedError


# ------------------------------------------------------------ holidays-cli


GOAL = "0.75/a, e -> 0.5/k, l, a"
# answers of the worked example: from the test suite where it pins them,
# otherwise as printed by fai when the benchmark was defined
MONOID_SIZE = {1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 8}
COMPLETE_RULES = {1: 11, 2: 15, 3: 12, 4: 17, 5: 13, 6: 9}
BASE_RULES = {1: 11, 2: 15, 3: 12, 4: 10, 5: 13, 6: 5}
INTENTS = {1: 22, 2: 28, 3: 24, 4: 26, 5: 21, 6: 65}
CLOSURE_THEORY = ("0.75/a, e", "0.5/k, l, a, e")
CLOSURE_CONTEXT = ("e", "0.25/k, l, 0.25/a, e")
PROVE_STEPS = 26
CHECK_STEPS = 16
MODELS = 65
CLI_LABELS = ("validate", "complete-set", "base", "base-minimize-sides", "intents-dot",
              "models", "entail", "closure-theory", "closure-context", "prove", "check-proof")


def _params(i: int) -> str:
    return f"data/params_s{i}.json"


class HolidaysCli(Workload):
    """Every subcommand on holidays.csv x S1..S6, each in a fresh child."""

    name = "holidays-cli"

    def setup(self) -> None:
        OUT.mkdir(parents=True, exist_ok=True)
        self.dot_path = OUT / f"intents-{os.getpid()}.dot"
        # the CLI's own loader: the answers are checked against what users get
        self.settings = {i: cli._load_setting(_params(i)) for i in range(1, 7)}
        chain, universe, s = self.settings[6]
        ctx_text = (DATA / "holidays.csv").read_text(encoding="utf-8")
        self.ctx = {i: fctx.LContext.from_csv(ctx_text, c, u) for i, (c, u, _) in self.settings.items()}
        self.base6 = semantics.parse_theory((DATA / "s6_base.txt").read_text(encoding="utf-8"),
                                            universe, chain)
        self.s1_complete = semantics.parse_theory(
            (DATA / "s1_complete.txt").read_text(encoding="utf-8"), universe, chain)
        self.proof6 = fproof.proof_from_json(
            json.loads((DATA / "s6_proof.json").read_text(encoding="utf-8"), parse_float=Fraction),
            universe, chain)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.commands = self._commands()
        self.child_rss_kb = 0

    def peak_rss_kb(self) -> int:
        return self.child_rss_kb

    def lower_input(self, answer):
        return self.base6, self.settings[6][2]

    def shapes(self) -> dict:
        chain, universe, _ = self.settings[6]
        return {"commands_per_round": len(self.commands), "objects": len(self.ctx[6].objects),
                "attributes": len(universe), "degrees": chain.n,
                "monoid_sizes": [len(s) for _, _, s in self.settings.values()]}

    def _commands(self):
        ctx = ["--context", "data/holidays.csv"]
        base6 = ["--theory", "data/s6_base.txt"]
        cmds = []
        for i in range(1, 7):
            p = ["--params", _params(i)]
            cmds += [
                ("validate", i, ["validate", *p]),
                ("complete-set", i, ["complete-set", *p, *ctx]),
                ("base", i, ["base", *p, *ctx]),
                ("base-minimize-sides", i, ["base", *p, *ctx, "--minimize-sides"]),
                ("intents-dot", i, ["intents", *p, *ctx, "--dot", str(self.dot_path)]),
            ]
        p = ["--params", _params(6)]
        cmds += [
            ("models", 6, ["models", *p, *base6]),
            ("entail", 6, ["entail", *p, *base6, "--query", GOAL]),
            ("entail", 6, ["entail", *p, *base6, "--query", "e -> k"]),
            ("closure-theory", 6, ["closure", *p, *base6, "--set", CLOSURE_THEORY[0]]),
            ("closure-context", 6, ["closure", *p, *ctx, "--set", CLOSURE_CONTEXT[0]]),
            ("prove", 6, ["prove", *p, *base6, "--query", GOAL]),
            ("check-proof", 6, ["check-proof", *p, *base6, "--proof", "data/s6_proof.json",
                                "--goal", GOAL]),
        ]
        return cmds

    def rounds(self, in_process=False):
        """Rounds of every command in seeded order; with ``in_process`` each
        command runs through fai.cli.main in this process (the traced run)."""
        while True:
            order = list(self.commands)
            self.rng.shuffle(order)
            yield [self._op(label, i, argv, in_process) for label, i, argv in order]

    def _op(self, label, i, argv, in_process):
        run = self.run_in_process if in_process else self.run_child
        return Op(label, f"fai {' '.join(argv)}", lambda: run(argv),
                  lambda answer: self.check(label, i, argv, answer))

    def run_child(self, argv):
        """Run ``python -m fai.cli`` as a user would; (rc, stdout, DOT text or None)."""
        with open(os.devnull, "wb") as devnull, tempfile.TemporaryFile(dir=OUT) as out:
            proc = subprocess.Popen([sys.executable, "-m", "fai.cli", *argv], cwd=ROOT,
                                    env=self.env, stdout=out, stderr=devnull)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            text = out.read().decode("utf-8")
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return proc.returncode, text, self._take_dot(argv)

    def run_in_process(self, argv):
        """The same command through ``fai.cli.main``; the same answer shape."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse exits on a usage error
                rc = exc.code
        return rc, out.getvalue(), self._take_dot(argv)

    def _take_dot(self, argv):
        if "--dot" not in argv:
            return None
        dot = self.dot_path.read_text(encoding="utf-8")
        self.dot_path.unlink()
        return dot

    def check(self, label, i, argv, answer):
        rc, out, dot = answer
        chain, universe, s = self.settings[i]
        lines = out.splitlines()
        if label == "validate":
            n = MONOID_SIZE[i]
            if len(s) != n:
                return f"in-process monoid has {len(s)} members, expected {n}"
            if rc != 0 or f"S: {n} connections" not in out \
                    or f"adjointness: verified for all {n} members" not in out \
                    or out.count("fp=") != n:
                return f"validate S{i}: rc {rc}"
            return None
        if label in ("complete-set", "base", "base-minimize-sides"):
            n = (COMPLETE_RULES if label == "complete-set" else BASE_RULES)[i]
            if rc != 0 or not lines or lines[-1] != f"# rules: {n}":
                return f"{label} S{i}: rc {rc}, last line {lines[-1:]!r}, expected {n} rules"
            theory = semantics.parse_theory(out, universe, chain)
            if len(theory) != n:
                return f"{label} S{i}: {len(theory)} rules parse back, expected {n}"
            if not all(fctx.holds_in_context(self.ctx[i], r, s) for r in theory):
                return f"{label} S{i}: a rule fails in the context"
            if i == 1 and label != "base-minimize-sides" and \
                    set(theory.rules) != set(self.s1_complete.rules):
                return f"{label} S1: rules differ from s1_complete.txt"
            if i == 6 and label == "base-minimize-sides" and \
                    semantics.parse_fai("l -> e", universe, chain) not in theory.rules:
                return "base --minimize-sides S6: 'l -> e' missing"
            return None
        if label == "intents-dot":
            n = INTENTS[i]
            body = [ln for ln in lines if not ln.startswith("#")]
            if rc != 0 or lines[-1:] != [f"# intents: {n}"] or len(body) != n \
                    or dot is None or dot.count("[label=") != n:
                return f"intents S{i}: rc {rc}, last line {lines[-1:]!r}, expected {n}"
            return None
        if label == "models":
            return None if rc == 0 and lines[-1:] == [f"# models: {MODELS}"] else \
                f"models: rc {rc}, last line {lines[-1:]!r}"
        if label == "entail":
            expected = (0, "1\n") if GOAL in argv else (1, "0.25\n")
            return None if (rc, out) == expected else f"entail: got {(rc, out)!r}, expected {expected!r}"
        if label in ("closure-theory", "closure-context"):
            want = (CLOSURE_THEORY if label == "closure-theory" else CLOSURE_CONTEXT)[1]
            return None if (rc, out) == (0, want + "\n") else f"{label}: got {(rc, out)!r}"
        if label == "prove":
            if rc != 0:
                return f"prove: rc {rc}"
            goal = semantics.parse_fai(GOAL, universe, chain)
            proof = fproof.proof_from_json(json.loads(out, parse_float=Fraction), universe, chain)
            if len(proof) != PROVE_STEPS:
                return f"prove: {len(proof)} steps, expected {PROVE_STEPS}"
            try:
                fproof.check_proof(proof, self.base6, s, goal=goal)
            except fai.FaiError as exc:
                return f"prove: the proof does not check ({exc})"
            return None
        if label == "check-proof":
            ok = rc == 0 and out.startswith(f"ok: {CHECK_STEPS} steps") and len(self.proof6) == CHECK_STEPS
            return None if ok else f"check-proof: got {(rc, out)!r}"
        return f"unknown command {label!r}"


# --------------------------------------------------------------------- mine

def _chain(n: int, logic: str):
    return lattice.Chain([Fraction(k, n - 1) for k in range(n)], logic)


def _constant(ny: int, nl: int, rng) -> list:
    """A generator constant shaped like S5/S6's {k, 0.5/a, 0.5/e}: one
    attribute at 1, two at the middle degree, the rest at 0, rotated."""
    mid = (nl - 1) // 2
    template = [nl - 1, mid, 0, mid] + [0] * (ny - 4)
    k = rng.randrange(ny)
    return template[k:] + template[:k]


class Mine(Workload):
    """Mine a base from each context of a seeded ladder."""

    name = "mine"

    def setup(self) -> None:
        # one round is one context per rung.  Latencies cluster by rung and the
        # rungs' costs vary with the context drawn, so the round holds three
        # contexts of the rung whose cost varies least: op_p50_ms then falls
        # inside that cluster on every seed rather than between two clusters.
        self.rungs = self.spec["rungs"]
        self.chains = {}
        for rung in self.rungs:
            key = (rung["degrees"], rung["logic"])
            if key not in self.chains:
                self.chains[key] = self.tracer.call("lattice.chain", _chain, *key)
            if rung["generator"] == "diff-set":
                # fai builds the dual pair of a chain once, with its first
                # diff-set connection; do that here rather than in an operation
                one = Universe(["y"])
                gconn.Connection(gconn.DiffSet(LSet.bottom(one, self.chains[key])), one,
                                 self.chains[key])

    def shapes(self) -> dict:
        return {"rungs": [dict(rung, candidates=rung["degrees"] ** rung["attributes"])
                          for rung in self.rungs]}

    def rounds(self):
        n = 0
        while True:
            ops = []
            for rung in self.rungs:
                with self.tracer.paused():
                    ops.append(self._op(rung, n))
                n += 1
            yield ops

    def _op(self, rung, n):
        ny, nl, logic = rung["attributes"], rung["degrees"], rung["logic"]
        kind, shift, nobj = rung["generator"], rung["rotate"], rung["objects"]
        sampled = self.spec["sampled_sets"]
        rng = self.rng
        chain = self.chains[(nl, logic)]
        universe = Universe([f"y{k}" for k in range(ny)])
        const = LSet(universe, chain, _constant(ny, nl, rng))
        term = gconn.DiffSet(const) if kind == "diff-set" else gconn.ConstMultSet(const)
        gens = [gconn.Connection(gconn.Rotate(shift), universe, chain),
                gconn.Connection(term, universe, chain)]
        rows = [LSet(universe, chain, [rng.randrange(nl) for _ in range(ny)]) for _ in range(nobj)]
        ctx = fctx.LContext(universe, chain, [f"o{k}" for k in range(nobj)], rows)
        shape = f"|Y|={ny} |L|={nl} {logic} rotate({shift})+{kind} objects={nobj} context#{n}"

        def run():
            s = gconn.generate_monoid(gens, universe, chain)
            intents = fctx.intents_enum(ctx, s)
            complete = fctx.complete_set(ctx, s)
            base = fctx.reduce_to_base(complete, ctx, s)
            minimized = fctx.minimize_sides(base, ctx, s)
            return s, intents, complete, base, minimized

        def check(answer):
            s, intents, complete, base, minimized = answer
            for what, theory in (("complete set", complete), ("base", base),
                                 ("minimized base", minimized)):
                bad = [r for r in theory if not fctx.holds_in_context(ctx, r, s)]
                if bad:
                    return f"{what}: {semantics.render_fai(bad[0])} fails in the context"
            if not set(base.rules) <= set(complete.rules):
                return "base is not a subset of the complete set"
            if len(minimized) != len(base):
                return "side minimization changed the rule count"
            if any(fctx.downup(ctx, m, s) != m for m in intents):
                return "an intent is not closed"
            for what, theory in (("base", base), ("minimized base", minimized)):
                if not fctx.is_complete(theory, ctx, s, mode="sampled", samples=sampled, seed=n):
                    return f"{what} is not complete on the sampled sets"
            return None

        def canon(answer):
            s, intents, complete, base, minimized = answer
            return (len(s), sorted(m.idx for m in intents), _rules(complete), _rules(base),
                    _rules(minimized))

        return Op(f"|Y|={ny},|L|={nl},{logic},{kind}", shape, run, check, canon)

    def lower_input(self, answer):
        s, intents, complete, base, minimized = answer
        return complete, s


# -------------------------------------------------------------------- query

QUERY_KINDS = ("entail", "prove", "closure-theory", "closure-context")


class Query(Workload):
    """Entailment, proof and closure queries against one theory and one S."""

    name = "query"
    shared_inputs = True

    def setup(self) -> None:
        rng, spec = self.rng, self.spec
        self.ny, self.nl = ny, nl = spec["attributes"], spec["degrees"]
        nobj = spec["objects"]
        chain = self.chain = self.tracer.call("lattice.chain", _chain, nl, spec["logic"])
        universe = self.universe = Universe([f"y{k}" for k in range(ny)])
        # one step at exactly two attributes: |S| = 85 for every choice at |Y| = |L| = 5
        steps = rng.sample(range(ny), 2)
        const = LSet(universe, chain, [1 if k in steps else 0 for k in range(ny)])
        gens = [gconn.Connection(gconn.Rotate(spec["rotate"]), universe, chain),
                gconn.Connection(gconn.DiffSet(const), universe, chain)]
        self.s = gconn.generate_monoid(gens, universe, chain)
        # rows lean to the top degree and sets to the bottom, so closures stay below the top set
        degrees = tuple(range(1, nl)) + (nl - 1,)
        rows = [LSet(universe, chain, [rng.choice(degrees) for _ in range(ny)]) for _ in range(nobj)]
        self.ctx = fctx.LContext(universe, chain, [f"o{k}" for k in range(nobj)], rows)
        # context-sound rules A => C(A), so no least model exceeds C(A)
        rules, seen = [], set()
        while len(rules) < spec["rules"]:
            a = self._random_set()
            closed = fctx.downup(self.ctx, a, self.s)
            if closed != a and a not in seen:
                seen.add(a)
                rules.append(semantics.FAI(a, closed))
        self.theory = semantics.Theory(rules)

    def lower_input(self, answer):
        return self.theory, self.s

    def _random_set(self):
        degrees = (0,) + tuple(range(self.nl))
        return LSet(self.universe, self.chain, [self.rng.choice(degrees) for _ in range(self.ny)])

    def shapes(self) -> dict:
        spec = self.spec
        return {"attributes": self.ny, "degrees": self.nl, "logic": spec["logic"],
                "monoid_size": len(self.s), "rules": len(self.theory),
                "rule_pairs": len(self.theory) * len(self.s), "objects": len(self.ctx.objects),
                "queries_per_round": spec["queries_per_kind"] * len(QUERY_KINDS)}

    def rounds(self):
        n = 0
        while True:
            kinds = list(QUERY_KINDS) * self.spec["queries_per_kind"]
            self.rng.shuffle(kinds)
            with self.tracer.paused():
                ops = [self._op(kind, n + k) for k, kind in enumerate(kinds)]
            n += len(ops)
            yield ops

    def _op(self, kind, n):
        theory, s, ctx = self.theory, self.s, self.ctx
        a = self._random_set()
        shape = f"{kind} query#{n}"
        if kind == "entail":
            goal = semantics.FAI(a, LSet(self.universe, self.chain,
                                         [self.rng.randrange(self.nl) for _ in range(self.ny)]))
            return Op(kind, shape, lambda: semantics.entail_degree(theory, goal, s),
                      lambda d: self._check_degree(goal, d), canon=str)
        if kind == "prove":
            # a goal whose proof needs the theory: A => its least model, A not closed
            closed = semantics.least_model(theory, s, a)
            while closed == a:
                a = self._random_set()
                closed = semantics.least_model(theory, s, a)
            goal = semantics.FAI(a, closed)

            def run():
                found = fproof.prove(theory, s, goal)
                fproof.check_proof(found, theory, s, goal=goal)
                return found

            return Op(kind, shape, run, lambda p: self._check_proof(goal, p),
                      canon=lambda p: (len(p), p.goal.consequent.idx))
        if kind == "closure-theory":
            return Op(kind, shape, lambda: semantics.least_model(theory, s, a),
                      lambda m: self._check_least_model(a, m), canon=lambda m: m.idx)
        return Op(kind, shape, lambda: fctx.downup(ctx, a, s),
                  lambda m: self._check_downup(a, m), canon=lambda m: m.idx)

    def _check_degree(self, goal, degree):
        # A <= least model <= C(A) for a context-sound theory brackets the degree
        low = subsethood(goal.consequent, goal.antecedent)
        high = subsethood(goal.consequent, fctx.downup(self.ctx, goal.antecedent, self.s))
        if not low <= degree <= high:
            return f"degree {degree} outside [{low}, {high}]"
        return None

    def _check_proof(self, goal, found):
        if found.goal != goal:
            return "the proof ends in another formula"
        if not fproof.check_proof(found, self.theory, self.s, goal=goal):
            return "the proof does not check"
        return None

    def _check_least_model(self, a, m):
        if not a <= m:
            return "the least model does not contain its argument"
        if not m <= fctx.downup(self.ctx, a, self.s):
            return "the least model exceeds the context closure of a sound theory"
        return None

    def _check_downup(self, a, m):
        if not a <= m or fctx.downup(self.ctx, m, self.s) != m:
            return "the context closure is not a closure"
        return None


WORKLOADS = {w.name: w for w in (HolidaysCli, Mine, Query)}
