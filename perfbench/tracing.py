"""In-memory spans around the benchmark's calls into each fai module.

Tracing is switched on only for a traced run (``--trace 1``), and there only
inside ``Tracer.installed()``.  Installing replaces the public functions
listed in ``TARGETS`` by wrappers in every loaded ``fai`` module namespace,
so calls the library makes internally (``complete_set`` calling ``downup``,
``reduce_to_base`` calling ``least_model``) are recorded too; leaving the
block puts the originals back.  The library itself is not edited.

A span is ``[op, name, start_ns, end_ns, parent, attrs]``; ``op`` is the id
of the benchmark operation that caused it (-1 for set-up).  Functions called
thousands of times per operation (``downup``, ``least_model``,
``parse_lset``, ``render_lset``) are leaves: their calls under one parent
span are rolled into a single record that carries a call count, so memory
stays bounded.  Self time of a span is its duration minus the time of the
spans directly below it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

_clock = time.perf_counter_ns


def _size(args, kwargs, out):
    return {"size": len(out)}


def _rule_pairs(args, kwargs, out):
    theory, s = args[0], args[1]
    return {"pairs": len(theory) * len(s)}


def _candidates(args, kwargs, out):
    ctx = args[0]
    return {"candidates": ctx.chain.n ** len(ctx.universe), "size": len(out)}


def _rules_in_out(args, kwargs, out):
    return {"rules_in": len(args[0]), "rules_out": len(out)}


# (module, attribute, span name, leaf, attrs(args, kwargs, result) or None).
# The span name's prefix is the layer the call is charged to; parsing and
# rendering of the CLI's inputs and outputs is charged to ``fset`` wherever
# the function lives.
TARGETS = (
    ("fai.fset", "parse_lset", "fset.parse_lset", True, None),
    ("fai.fset", "render_lset", "fset.render_lset", True, None),
    ("fai.semantics", "parse_fai", "fset.parse_fai", False, None),
    ("fai.semantics", "parse_theory", "fset.parse_theory", False, None),
    ("fai.semantics", "render_fai", "fset.render_fai", False, None),
    ("fai.semantics", "render_theory", "fset.render_theory", False, None),
    ("fai.proof", "proof_from_json", "fset.parse_proof", False, None),
    ("fai.proof", "proof_to_json", "fset.render_proof", False, None),
    ("fai.gconn", "generators_from_descriptors", "gconn.generators", False, None),
    ("fai.gconn", "generate_monoid", "gconn.monoid", False, _size),
    ("fai.gconn", "verify_adjoint", "gconn.verify_adjoint", False, None),
    ("fai.semantics", "least_model", "semantics.least_model", True, _rule_pairs),
    ("fai.semantics", "entails", "semantics.entails", False, None),
    ("fai.semantics", "entail_degree", "semantics.entail_degree", False, None),
    ("fai.semantics", "models_enum", "semantics.models", False, _size),
    ("fai.context", "downup", "context.downup", True, None),
    ("fai.context", "intents_enum", "context.intents", False, _size),
    ("fai.context", "complete_set", "context.complete_set", False, _candidates),
    ("fai.context", "reduce_to_base", "context.reduce", False, _rules_in_out),
    ("fai.context", "minimize_sides", "context.minimize", False, None),
    ("fai.context", "hasse_dot", "context.hasse_dot", False, None),
    ("fai.proof", "prove", "proof.prove", False, _size),
    ("fai.proof", "check_proof", "proof.check", False, None),
    ("fai.cli", "main", "cli.main", False, None),
)

LAYERS = ("lattice", "fset", "gconn", "semantics", "context", "proof", "cli")


class Tracer:
    """Spans of one traced run, kept in memory until ``dump``."""

    def __init__(self):
        self.spans = []  # full spans
        self.leaves = {}  # (parent, name) -> [op, name, parent, calls, total_ns, attrs]
        self.stack = []
        self.op = -1
        self.enabled = True
        self._saved = []  # (namespace, name, original) of every patch in place

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside, e.g. while the benchmark checks an answer."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    def wrap(self, name, fn, leaf=False, attrs=None):
        spans, stack, leaves = self.spans, self.stack, self.leaves
        tracer = self

        if leaf:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                t0 = _clock()
                out = fn(*args, **kwargs)
                dt = _clock() - t0
                parent = stack[-1] if stack else -1
                rec = leaves.get((parent, name))
                if rec is None:
                    rec = leaves[(parent, name)] = [tracer.op, name, parent, 0, 0, {}]
                rec[3] += 1
                rec[4] += dt
                if attrs is not None:
                    for key, value in attrs(args, kwargs, out).items():
                        rec[5][key] = rec[5].get(key, 0) + value
                return out
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                rec = [tracer.op, name, _clock(), 0, stack[-1] if stack else -1, None]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    rec[3] = _clock()
                if attrs is not None:
                    rec[5] = attrs(args, kwargs, out)
                return out
        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run one call of the benchmark's own under a span."""
        return self.wrap(name, fn)(*args, **kwargs)

    @contextlib.contextmanager
    def installed(self):
        """Route every listed public function of fai through a span inside."""
        self._install()
        try:
            yield
        finally:
            for namespace, key, original in reversed(self._saved):
                setattr(namespace, key, original)
            self._saved.clear()

    def _patch(self, namespace, key, value):
        self._saved.append((namespace, key, vars(namespace)[key]))
        setattr(namespace, key, value)

    def _traced_subclass(self, cls, name):
        """A subclass whose construction is a span; instances still pass
        ``isinstance`` and compare equal to the library's own."""
        return type(cls.__name__, (cls,), {"__init__": self.wrap(name, cls.__init__)})

    def _install(self):
        import fai  # noqa: F401  (loads every submodule)

        modules = [m for key, m in list(sys.modules.items()) if key == "fai" or key.startswith("fai.")]
        for modname, attr, name, leaf, attrs in TARGETS:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self.wrap(name, orig, leaf, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapped)
        ctx_cls = sys.modules["fai.context"].LContext
        self._patch(ctx_cls, "from_csv",
                    classmethod(self.wrap("fset.parse_csv", ctx_cls.from_csv.__func__)))
        # the CLI builds its chains by name; the dual pair is built inside gconn,
        # through a cache keyed on the chain.  fai.lattice keeps the plain
        # classes, which its own isinstance checks name.
        lattice = sys.modules["fai.lattice"]
        for cls, name in ((lattice.Chain, "lattice.chain"), (lattice.DualPair, "lattice.dual")):
            traced = self._traced_subclass(cls, name)
            for mod in modules:
                if mod is not lattice and vars(mod).get(cls.__name__) is cls:
                    self._patch(mod, cls.__name__, traced)

    # ---------------------------------------------------------- aggregation

    def records(self):
        """Every span as (op, name, duration_ns, self_ns, calls, attrs);
        op is -1 for spans recorded during set-up."""
        child_ns = [0] * len(self.spans)
        for op, name, start, end, parent, attrs in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for op, name, parent, calls, total, attrs in self.leaves.values():
            if parent >= 0:
                child_ns[parent] += total
        out = []
        for i, (op, name, start, end, parent, attrs) in enumerate(self.spans):
            out.append((op, name, end - start, end - start - child_ns[i], 1, attrs or {}))
        for op, name, parent, calls, total, attrs in self.leaves.values():
            out.append((op, name, total, total, calls, attrs))
        return out

    def summary(self, ops_only=False):
        """Per span name: calls, inclusive ns, self ns and summed attributes,
        over every span or only over those of operations."""
        table = {}
        for op, name, dur, self_ns, calls, attrs in self.records():
            if ops_only and op < 0:
                continue
            row = table.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0, "attrs": {}})
            row["calls"] += calls
            row["ns"] += dur
            row["self_ns"] += self_ns
            for key, value in attrs.items():
                row["attrs"][key] = row["attrs"].get(key, 0) + value
        return table

    def dump(self, path):
        payload = {
            "spans": [
                {"op": op, "name": name, "start_ns": start, "end_ns": end,
                 "parent": parent, "attrs": attrs or {}}
                for op, name, start, end, parent, attrs in self.spans
            ],
            "leaves": [
                {"op": op, "name": name, "parent": parent, "calls": calls,
                 "total_ns": total, "attrs": attrs}
                for op, name, parent, calls, total, attrs in self.leaves.values()
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
