"""Smoke test of the benchmark itself.

Run from the root of a checkout:  python3 perfbench/smoke.py

* every workload at minimal length, untraced and traced: the result line has
  exactly the contract's keys, every declared metric with its unit, and
  every answer checks;
* a deliberately wrong answer from each workload is counted as a failure;
* an operation past its budget is recorded as a timeout with its shape;
* a run that reaches its wall-clock limit, at a round boundary or inside a
  round, still gives its metrics, from whole rounds only;
* each operation's time is scaled by the calibrations before and after it;
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import itertools
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
RUN = [sys.executable, str(HERE / "run.py")]
problems = []


def expect(ok, message):
    print(("ok   " if ok else "FAIL ") + message, flush=True)
    if not ok:
        problems.append(message)


def minimal_runs(spec):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = RUN + ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
            what = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                expect(False, f"{what}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{what}: {result['attempted']} attempted, {result['failed']} failed, "
                   f"correct={result['correct']}")
            declared = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            expect(got == declared, f"{what}: every {key} metric printed with its unit")
            numeric = all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            expect(numeric, f"{what}: every metric value is a number")


def first_op(wl, label_part):
    ops = next(wl.rounds())
    return next(op for op in ops if label_part in op.label)


def later(seconds=120):
    return time.perf_counter() + seconds


def wrong_answers_fail():
    import run
    import workloads
    from fai.proof import Proof
    from fai.semantics import Theory

    corruptions = {
        "holidays-cli": ("entail", lambda ans: (ans[0], "0.5\n", ans[2])),
        "mine": ("|L|=5,godel", lambda ans: ans[:4] + (Theory(ans[4].rules[1:]),)),
        "query": ("prove", lambda proof: Proof(proof.steps[:-1])),
    }
    for name, (label_part, corrupt) in corruptions.items():
        wl = workloads.WORKLOADS[name](1)
        wl.setup()
        op = first_op(wl, label_part)
        real = op.run
        op.run = lambda real=real, corrupt=corrupt: corrupt(real())
        phase = run.timed_phase(wl, iter([[op]]), 0, later())
        kinds = [f["kind"] for f in phase.failures.values()]
        expect(kinds == ["wrong"], f"{name}: a wrong {op.label} answer counts as failed ({kinds})")
        metrics, _ = run.end_to_end(wl, phase, 1.0)
        expect(metrics["ok_ratio"] == 0.0, f"{name}: ok_ratio falls to {metrics['ok_ratio']}")

    wl = workloads.WORKLOADS["query"](1)
    wl.setup()
    wl.budget_s = 0.2
    op = first_op(wl, "entail")
    op.run = lambda: time.sleep(2)
    phase = run.timed_phase(wl, iter([[op]]), 0, later())
    failure = next(iter(phase.failures.values()), {})
    expect(failure.get("kind") == "timeout" and failure.get("shape") == op.shape,
           f"an operation over budget is a timeout with its shape ({failure})")


def wall_limit():
    """Rounds of two 0.2 s operations against a wall limit at 0.3 s (hit
    between rounds) and at 0.5 s (hit inside the second round)."""
    import run
    import workloads

    wl = workloads.WORKLOADS["query"](1)
    wl.setup()
    for limit_s, attempted in ((0.3, 2), (0.5, 3)):
        ops = (workloads.Op("sleep", f"sleep#{k}", lambda: time.sleep(0.2), lambda _: None)
               for k in itertools.count())
        rounds = ([next(ops), next(ops)] for _ in itertools.count())
        phase = run.timed_phase(wl, rounds, 60, later(limit_s))
        try:
            metrics, _ = run.end_to_end(wl, phase, 1.0)
        except ZeroDivisionError:
            metrics = {}
        expect(phase.wall_limited and phase.attempted == attempted and phase.rounds == [(0, 2)]
               and 3 < metrics.get("ops_per_s", 0) <= 5,
               f"a wall limit at {limit_s} s: {phase.attempted} attempted, whole rounds "
               f"{phase.rounds}, ops_per_s {metrics.get('ops_per_s')}")


def speed_scaling():
    """A calibrated phase scales each operation by its own calibrations and
    keeps the wall times in the notes."""
    import run
    import workloads

    wl = workloads.WORKLOADS["query"](1)
    wl.setup()
    ops = [workloads.Op("sleep", f"sleep#{k}", lambda: time.sleep(0.3), lambda _: None)
           for k in range(2)]
    phase = run.timed_phase(wl, iter([ops]), 60, later(), speed=run.Speed())
    _, notes = run.end_to_end(wl, phase, 1.0)
    speed = phase.speed
    expected = [sec * 2 * run.CAL_REF_S / (speed.samples[k] + speed.samples[k + 1])
                for (_, sec), k in zip(phase.records, speed.marks)]
    scaled = [sec for _, sec in phase.at_reference()]
    wall_p50 = statistics.median(sec for _, sec in phase.records) * 1000
    expect(speed.marks == [0, 1] and all(abs(a - b) < 1e-12 for a, b in zip(scaled, expected))
           and abs(notes["wall"]["op_p50_ms"] - wall_p50) < 1e-9,
           f"each operation is scaled by the calibrations around it (marks {speed.marks}, "
           f"scaled {scaled}, wall {phase.records})")


def refuses_without_source():
    bare = ROOT / "perfbench" / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "query", "--seed", "0",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without src/ the benchmark exits {proc.returncode} and prints no result")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    minimal_runs(spec)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    wrong_answers_fail()
    wall_limit()
    speed_scaling()
    refuses_without_source()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
