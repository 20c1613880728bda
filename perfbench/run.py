"""Benchmark of the fai package: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {holidays-cli,mine,query} \\
        --seed N --seconds S --trace {0,1}

Without ``--workload`` every workload runs in turn, each in its own
interpreter, and each prints its result line after its name.

Each run is one fresh interpreter and one closed-loop client without
threads.  Operations run in whole rounds (see workloads.py) until they have
taken ``--seconds`` in all, at a reference machine speed (see ``Speed``);
every answer is checked outside the timed part
of the operation, and an operation that runs past its budget is recorded as
a timeout.  With ``--trace 0`` the last line of stdout is the
JSON result with the end-to-end metrics named in BENCHMARK.json, their
times at the reference speed; with
``--trace 1`` every operation runs twice in a row, untraced and under spans
(tracing.py), and the result carries the per-layer metrics and the tracing
overhead instead.  Lines before it give the
failures, the times in wall time, the tail percentile and its sample count, and a stamp with the
Python version, nproc, seed and commit; the full result and the spans are
written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()
ROOT = Path.cwd()
SETUP_PROBES = 7  # fresh interpreters timed to "ready", spread over the run; setup_s is their median
IMPORT_PROBES = 7  # pairs of bare and "import fai.cli" interpreters
WALL_LIMIT_S = 120  # from process start; operations stop past it, so a run ends within 180 s
CAL_LOOPS = 800  # sets closed by one calibration
CAL_REF_S = 0.007  # seconds a calibration takes at the reference speed
CAL_EVERY_S = 0.25  # wall seconds between calibrations during a timed phase
WALL_STRETCH = 1.25  # a calibrated phase also ends once its operations took this times --seconds of wall time


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; without it every workload runs in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ------------------------------------------------------------------ timing


@contextlib.contextmanager
def time_budget(seconds, exc_type):
    """Raise exc_type in the main thread once the budget has run out."""

    def expire(signum, frame):
        raise exc_type(f"over the {seconds} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class _Graded:
    """A graded set held as fai holds one: a tuple of degree indices."""

    __slots__ = ("idx",)

    def __init__(self, idx):
        self.idx = idx

    def __le__(self, other):
        return all(x <= y for x, y in zip(self.idx, other.idx))


_CAL_ROWS = [_Graded((k % 5, 3 * k % 5, 7 * k % 5, 2 * k % 5, 4 - k % 5)) for k in range(8)]


def calibrate():
    """Seconds that a fixed piece of pure-Python work takes now: closures of
    sets over eight rows, written the way fai's context closure is (small
    objects, tuples, generator comparisons, list updates), so that it speeds
    up and slows down with the host as fai's code does.  It runs no fai code,
    so a change to fai cannot move it, and every object it makes is freed at
    once, so no garbage collection runs inside it."""
    acc = 0
    t0 = time.perf_counter()
    for i in range(CAL_LOOPS):
        g = _Graded((i % 5, (i >> 1) % 5, (i >> 2) % 5, (i >> 3) % 5, acc % 5))
        cur = [4] * 5
        for row in _CAL_ROWS:
            if g <= row:
                for y, v in enumerate(row.idx):
                    if v < cur[y]:
                        cur[y] = v
        acc = (acc + sum(cur)) % 1000003
    return time.perf_counter() - t0


class Speed:
    """The machine's speed, sampled by ``calibrate`` around timed spans.

    The host is shared: for tens of seconds at a time its speed changes by
    up to 2x, for fai and the calibration alike, so wall times of the same
    work differ by that much between runs.  ``scale(i)`` turns span i into
    seconds at the reference speed, at which a calibration takes CAL_REF_S:
    its wall time times CAL_REF_S over the mean of the last calibration
    before the span and the first one after it."""

    def __init__(self):
        self.samples = []
        self.marks = []  # per span: index of the last sample before it
        self.last = float("-inf")

    def sample(self):
        self.samples.append(calibrate())
        self.last = time.perf_counter()

    def sample_if_due(self):
        if time.perf_counter() - self.last >= CAL_EVERY_S:
            self.sample()

    def mark(self):
        """Call right before a timed span starts."""
        self.sample_if_due()
        self.marks.append(len(self.samples) - 1)

    def scale(self, i):
        k = self.marks[i]
        after = self.samples[k + 1] if k + 1 < len(self.samples) else self.samples[k]
        return 2 * CAL_REF_S / (self.samples[k] + after)


class Phase:
    """Outcome of one timed phase of a workload, run round by round.  With
    ``speed`` every operation is bracketed by calibrations (see Speed)."""

    def __init__(self, wl, tracer=None, lower_probe=None, after_op=None, speed=None):
        self.wl = wl
        self.speed = speed
        self.tracer = tracer
        self.lower_probe = lower_probe
        self.after_op = after_op  # called with the phase after each operation, untimed
        self.pinned = wl.pinned_digest()
        self.records = []  # (label, seconds) per attempted operation
        self.rounds = []  # (first, end) operation indices of each whole round
        self.failures = {}  # operation index -> failure record
        self.lower_us = []
        self.digest = None
        self.wall_limited = False
        self.round_first, self.canon = 0, []  # of the round in progress

    @property
    def attempted(self):
        return len(self.records)

    @property
    def wall_busy_s(self):
        return sum(sec for _, sec in self.records)

    @property
    def busy_s(self):
        """Operation time so far; at the reference speed when calibrated,
        by the calibration before each operation."""
        if self.speed is None:
            return self.wall_busy_s
        samples = self.speed.samples
        return sum(sec * CAL_REF_S / samples[k] for (_, sec), k in zip(self.records, self.speed.marks))

    def at_reference(self):
        """(label, seconds) per operation, scaled to the reference speed."""
        if self.speed is None:
            return list(self.records)
        return [(label, sec * self.speed.scale(i)) for i, (label, sec) in enumerate(self.records)]

    def ops_per_s(self, records):
        """Right answers per second of operation time in ``records``, over
        the whole rounds; a run the wall limit cut inside its first round
        counts the operations it made."""
        end = self.rounds[-1][1] if self.rounds else self.attempted
        ok = sum(1 for i in range(end) if i not in self.failures)
        return ok / sum(sec for _, sec in records[:end])

    def begin_round(self):
        self.round_first = self.attempted
        self.canon = []

    def run_op(self, op, deadline):
        """Run and check one operation; False when the wall deadline has
        passed.  The first operation of a phase always runs, so no metric
        lacks data."""
        from workloads import OpTimeout

        if self.records and time.perf_counter() > deadline:
            self.wall_limited = True
            return False
        wl, tracer = self.wl, self.tracer
        index = self.attempted
        if tracer is not None:
            tracer.op = index
        run = op.run if tracer is None else tracer.wrap("bench.op", op.run)
        if self.speed is not None:
            self.speed.mark()
        t0 = time.perf_counter()
        try:
            with time_budget(wl.budget_s, OpTimeout):
                answer = run()
        except OpTimeout:
            self.records.append((op.label, time.perf_counter() - t0))
            self.failures[index] = {"kind": "timeout", "label": op.label, "shape": op.shape,
                                    "budget_s": wl.budget_s}
            return True
        except Exception as exc:  # an operation that raises is a failure, not a crash
            self.records.append((op.label, time.perf_counter() - t0))
            self.failures[index] = {"kind": "error", "label": op.label, "shape": op.shape,
                                    "error": f"{type(exc).__name__}: {exc}"}
            return True
        self.records.append((op.label, time.perf_counter() - t0))
        if self.speed is not None:
            self.speed.sample_if_due()
        with wl.tracer.paused():
            try:
                reason = op.check(answer)
            except Exception as exc:  # a check that cannot run counts as a wrong answer
                reason = f"check raised {type(exc).__name__}: {exc}"
            if not self.rounds:
                self.canon.append(op.canon(answer))
            if self.lower_probe is not None and index == self.round_first:
                self.lower_us.append(self.lower_probe(answer))
        if reason is not None:
            self.failures[index] = {"kind": "wrong", "label": op.label, "shape": op.shape,
                                    "reason": reason}
        if self.after_op is not None:
            self.after_op(self)
        return True

    def end_round(self):
        from workloads import digest

        if not self.rounds:
            self.digest = digest(self.canon)
            if self.pinned is not None and self.digest != self.pinned:
                for index in range(self.round_first, self.attempted):
                    self.failures.setdefault(index, {
                        "kind": "wrong", "label": self.records[index][0],
                        "reason": f"round digest {self.digest} differs from the pinned {self.pinned}"})
        self.rounds.append((self.round_first, self.attempted))

    def run_round(self, ops, deadline):
        """Run one round; False when the wall deadline stopped it part-way."""
        self.begin_round()
        if not all(self.run_op(op, deadline) for op in ops):
            return False
        self.end_round()
        return True


def timed_phase(wl, rounds, seconds, deadline=None, after_op=None, speed=None):
    """Run whole rounds until the operations have taken ``seconds`` in all,
    at the reference speed when ``speed`` calibrates them, or until
    ``deadline`` (default: the run's wall limit) has passed.  Timing by the
    reference speed keeps the number of operations in a run, and so the
    percentile op_tail_ms reads, from changing with the host's speed; a
    calibrated phase still ends after WALL_STRETCH * ``seconds`` of wall
    time, so that a slow host cannot stretch a run without end."""
    phase = Phase(wl, after_op=after_op, speed=speed)
    deadline = STARTED + WALL_LIMIT_S if deadline is None else deadline
    for ops in rounds:
        if not phase.run_round(ops, deadline) or phase.busy_s >= seconds \
                or phase.wall_busy_s >= WALL_STRETCH * seconds:
            break
    if speed is not None:
        speed.sample()  # closes the bracket of the last operation
    return phase


def clear_fai_caches():
    """Empty the module-level caches of fai, as a fresh process has them."""
    for name, module in list(sys.modules.items()):
        if name == "fai" or name.startswith("fai."):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def paired_phases(wl, tracer, seconds, lower_probe, **round_args):
    """Every operation twice in a row, untraced and under spans, alternating
    which goes first, until the traced runs have taken ``seconds``.  Returns
    (traced, untraced).

    Unless the workload's operations share their inputs, fai's caches are
    emptied before each run: an operation on fresh inputs starts with them
    cold, and the second run would otherwise hit the entries of the first
    through keys that are equal but not identical, whose comparison costs
    more than the miss."""
    traced, plain = Phase(wl, tracer, lower_probe), Phase(wl)
    deadline = STARTED + WALL_LIMIT_S
    for ops in wl.rounds(**round_args):
        traced.begin_round()
        plain.begin_round()
        for k, op in enumerate(ops):
            for phase in ((plain, traced) if k % 2 == 0 else (traced, plain)):
                if not wl.shared_inputs:
                    clear_fai_caches()
                with tracer.installed() if phase is traced else contextlib.nullcontext():
                    if not phase.run_op(op, deadline):
                        return traced, plain
        traced.end_round()
        plain.end_round()
        if traced.busy_s >= seconds:
            break
    return traced, plain


def tail(latencies):
    """(value, percentile, samples): the highest percentile that has at
    least ten samples beyond it, or the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


# ------------------------------------------------------------------- probes


def _spawn_until_ready(argv, env=None):
    """Seconds from spawning a child to its first line of output."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0 or not line.startswith(b"ready"):
        raise RuntimeError(f"probe {argv[1:]} failed with exit code {proc.returncode}")
    return elapsed


class SetupProbes:
    """Times from spawning a fresh interpreter to the end of the workload's
    set-up, each between two calibrations (see Speed).  ``due`` runs them
    between operations, one per 1/SETUP_PROBES of the timed phase, so that
    setup_s samples the same stretch of time as the operations rather than
    the few seconds before them."""

    def __init__(self, args):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                     "--seed", str(args.seed), "--setup-probe"]
        self.seconds = args.seconds
        self.speed = Speed()
        self.times = []

    def probe(self):
        self.speed.sample()
        self.speed.mark()
        self.times.append(_spawn_until_ready(self.argv))
        self.speed.sample()

    def due(self, phase):
        while len(self.times) < SETUP_PROBES and \
                len(self.times) * self.seconds / SETUP_PROBES <= phase.busy_s:
            self.probe()

    def medians(self):
        """setup_s at the reference speed and in wall time: the medians,
        after the probes a short phase left out."""
        while len(self.times) < SETUP_PROBES:
            self.probe()
        scaled = [sec * self.speed.scale(i) for i, sec in enumerate(self.times)]
        return statistics.median(scaled), statistics.median(self.times)


def import_ms():
    """Median of (import fai.cli) minus (bare interpreter), fresh processes."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    diffs = []
    for _ in range(IMPORT_PROBES):
        bare = _spawn_until_ready([sys.executable, "-c", "print('ready')"], env)
        loaded = _spawn_until_ready([sys.executable, "-c", "import fai.cli; print('ready')"], env)
        diffs.append(loaded - bare)
    return statistics.median(diffs) * 1000


def lower_us(theory, s):
    """Mean Connection.lower time over the rule x S pairs of a theory."""
    calls = 2 * len(theory) * len(s)
    if calls == 0:
        return 0.0
    t0 = time.perf_counter_ns()
    for rule in theory:
        for conn in s:
            conn.lower(rule.antecedent)
            conn.lower(rule.consequent)
    return (time.perf_counter_ns() - t0) / calls / 1000


# ------------------------------------------------------------------ stamps


def stamp(seed):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=20,
                             capture_output=True, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fai").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "seed": seed,
            "commit": commit, "source_sha256": source.hexdigest()[:16]}


# ----------------------------------------------------------------- metrics


def _timing(phase, records, setup_s):
    value, pct, samples = tail(sec for _, sec in records)
    return {"setup_s": setup_s,
            "ops_per_s": phase.ops_per_s(records),
            "op_p50_ms": statistics.median(sec for _, sec in records) * 1000,
            "op_tail_ms": value * 1000}, pct, samples


def end_to_end(wl, phase, setup_s, setup_wall_s=None):
    """The end-to-end metrics, times at the reference speed when the phase
    was calibrated; the notes carry the same times in wall time."""
    records = phase.at_reference()
    metrics, pct, samples = _timing(phase, records, setup_s)
    wall, _, _ = _timing(phase, phase.records, setup_s if setup_wall_s is None else setup_wall_s)
    ok = phase.attempted - len(phase.failures)
    metrics.update({
        "peak_rss_mb": wl.peak_rss_kb() / 1024,
        "ok_ratio": ok / phase.attempted,
    })
    by_label = {}
    for label, sec in records:
        by_label.setdefault(label, []).append(sec)
    notes = {"tail_percentile": round(pct, 2), "tail_samples": samples,
             "fail_ratio": len(phase.failures) / phase.attempted,
             "p50_ms_by_label": {label: round(statistics.median(secs) * 1000, 3)
                                 for label, secs in sorted(by_label.items())},
             "wall": wall}
    if phase.speed is not None:
        notes["calibration_ms"] = {"median": statistics.median(phase.speed.samples) * 1000,
                                   "reference": CAL_REF_S * 1000}
    return metrics, notes


def per_layer(tracer, phase, plain, extra):
    from tracing import LAYERS

    everything = tracer.summary()
    in_ops = tracer.summary(ops_only=True)
    n_ops = phase.attempted

    def row(table, name):
        return table.get(name, {"calls": 0, "ns": 0, "self_ns": 0, "attrs": {}})

    def mean_ms(name):
        r = row(everything, name)
        return r["ns"] / r["calls"] / 1e6 if r["calls"] else 0.0

    def mean_attr(name, key):
        r = row(everything, name)
        return r["attrs"].get(key, 0) / r["calls"] if r["calls"] else 0.0

    def op_self_ms(prefix):
        return sum(r["self_ns"] for name, r in in_ops.items() if name.startswith(prefix)) / n_ops / 1e6

    complete = row(everything, "context.complete_set")["attrs"]
    full_spans = sum(1 for span in tracer.spans if span[0] >= 0)
    leaf_calls = sum(rec[3] for rec in tracer.leaves.values() if rec[0] >= 0)
    # operation i of one phase is operation i of the other, run right after it
    ratios = [t / u for (_, t), (_, u) in zip(phase.records, plain.records)]
    metrics = {
        "lattice.chain_ms": mean_ms("lattice.chain"),
        "lattice.dual_ms": mean_ms("lattice.dual"),
        "fset.parse_ms": op_self_ms("fset.parse"),
        "fset.render_ms": op_self_ms("fset.render"),
        "gconn.monoid_ms": mean_ms("gconn.monoid"),
        "gconn.monoid_size": mean_attr("gconn.monoid", "size"),
        "gconn.lower_us": statistics.median(phase.lower_us) if phase.lower_us else 0.0,
        "gconn.verify_adjoint_ms": mean_ms("gconn.verify_adjoint"),
        "semantics.least_model_ms": mean_ms("semantics.least_model"),
        "semantics.least_model_calls": row(in_ops, "semantics.least_model")["calls"] / n_ops,
        "semantics.rule_pairs": mean_attr("semantics.least_model", "pairs"),
        "context.downup_ms": mean_ms("context.downup"),
        "context.downup_calls": row(in_ops, "context.downup")["calls"] / n_ops,
        "context.intents_ms": mean_ms("context.intents"),
        "context.intents": mean_attr("context.intents", "size"),
        "context.complete_set_ms": mean_ms("context.complete_set"),
        "context.candidates": mean_attr("context.complete_set", "candidates"),
        "context.pseudo_intents": mean_attr("context.complete_set", "size"),
        "context.pseudo_yield": (complete.get("size", 0) / complete["candidates"]
                                 if complete.get("candidates") else 0.0),
        "context.reduce_ms": mean_ms("context.reduce"),
        "context.rules_in": mean_attr("context.reduce", "rules_in"),
        "context.rules_out": mean_attr("context.reduce", "rules_out"),
        "context.minimize_ms": mean_ms("context.minimize"),
        "proof.prove_ms": mean_ms("proof.prove"),
        "proof.steps": mean_attr("proof.prove", "size"),
        "proof.check_ms": mean_ms("proof.check"),
        "trace.spans_per_op": (full_spans + leaf_calls) / n_ops,
        "trace.op_p50_ms": statistics.median(sec for _, sec in phase.records) * 1000,
        "trace.untraced_p50_ms": statistics.median(sec for _, sec in plain.records) * 1000,
        "trace.overhead_pct": 100 * (statistics.median(ratios) - 1),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = op_self_ms(f"{layer}.")
    metrics.update(extra)
    return metrics


def cli_metrics(children, labels):
    """cli.import_ms and cli.cmd_ms.<command> of the child-process phase."""
    metrics = {"cli.import_ms": import_ms()}
    for label in labels:
        times = [sec for name, sec in children.records if name == label]
        metrics[f"cli.cmd_ms.{label}"] = statistics.median(times) * 1000 if times else 0.0
    return metrics


# -------------------------------------------------------------------- main


def run_all(args, names):
    """Every workload in its own fresh interpreter; one result line each."""
    status = 0
    for name in names:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"{name}: {lines[-1] if lines else '(no result)'}", flush=True)
        status = status or proc.returncode
    return status


def _declared(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = _parse_args(argv)
    if not (ROOT / "src" / "fai" / "__init__.py").is_file():
        print("error: no src/fai here; run from the root of a fai checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload is None:
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        cls(args.seed).setup()
        print("ready", flush=True)
        return 0

    declared = _declared(args.trace)
    workloads.OUT.mkdir(parents=True, exist_ok=True)
    info = {"workload": args.workload, "trace": args.trace, "stamp": stamp(args.seed)}
    attempted, failures = 0, []
    if not args.trace:
        probes = SetupProbes(args)
        wl = cls(args.seed)
        wl.setup()
        phase = timed_phase(wl, wl.rounds(), args.seconds, after_op=probes.due, speed=Speed())
        metrics, notes = end_to_end(wl, phase, *probes.medians())
        info.update(notes)
    else:
        from tracing import Tracer

        tracer = Tracer()
        wl = cls(args.seed, tracer)
        with tracer.installed():
            tracer.call("bench.setup", wl.setup)
        extra = {f"cli.cmd_ms.{label}": 0.0 for label in workloads.CLI_LABELS}
        extra["cli.import_ms"] = 0.0
        round_args = {}
        if cls is workloads.HolidaysCli:
            children = timed_phase(wl, wl.rounds(), args.seconds / 2)
            extra = cli_metrics(children, workloads.CLI_LABELS)
            attempted += children.attempted
            failures += list(children.failures.values())
            round_args = {"in_process": True}
        # half of --seconds traced and half untraced on the same inputs (the
        # overhead), so a traced run takes about as long as an untraced one
        probe = lambda answer: lower_us(*wl.lower_input(answer))  # noqa: E731
        phase, plain = paired_phases(wl, tracer, args.seconds / 2, probe, **round_args)
        attempted += plain.attempted
        failures += list(plain.failures.values())
        metrics = per_layer(tracer, phase, plain, extra)
        tracer.dump(workloads.OUT / f"spans-{args.workload}-{args.seed}.json")

    attempted += phase.attempted
    failures += list(phase.failures.values())
    missing = sorted(set(declared) - set(metrics))
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    info.update({"digest": phase.digest, "wall_limited": phase.wall_limited,
                 "shapes": wl.shapes(), "failures": failures})
    for failure in failures:
        print(f"# failed: {json.dumps(failure)}")
    print(f"# {json.dumps(info)}")
    result = {
        "correct": not any(f["kind"] != "timeout" for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    with open(workloads.OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(dict(result, **info), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
