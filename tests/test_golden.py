"""Golden stdout of the ``fai`` commands on the worked example.

``golden_stdout.json`` holds, for each command below, the exact stdout and
exit code of ``fai`` on ``data/holidays.csv`` under ``params_s1`` ..
``params_s6`` (and the DOT text of ``intents --dot``).  The test runs every
command in process and compares byte for byte.

Regenerate the file only when an output change is intended:
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from fai.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_stdout.json"
DOT = "{dot}"  # stands for a scratch file in argv; its text is recorded
GOAL = "0.75/a, e -> 0.5/k, l, a"


def commands():
    """Every recorded argv, with paths relative to the repository root."""
    ctx = ["--context", "data/holidays.csv"]
    out = []
    for i in range(1, 7):
        params = ["--params", f"data/params_s{i}.json"]
        out += [
            ["validate", *params],
            ["complete-set", *params, *ctx],
            ["base", *params, *ctx],
            ["base", *params, *ctx, "--minimize-sides"],
            ["intents", *params, *ctx],
            ["intents", *params, *ctx, "--dot", DOT],
        ]
    s6 = ["--params", "data/params_s6.json", "--theory", "data/s6_base.txt"]
    out += [["models", *s6], ["prove", *s6, "--query", GOAL]]
    return out


def run(argv, scratch: Path) -> dict:
    """Exit code and stdout of one command, plus the DOT text it wrote."""
    dot = scratch / "out.dot"
    real = [
        str(dot) if arg == DOT else str(ROOT / arg) if arg.startswith("data/") else arg
        for arg in argv
    ]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(real)
    record = {"argv": argv, "exit": code, "stdout": stdout.getvalue()}
    if DOT in argv:
        record["dot"] = dot.read_text(encoding="utf-8")
    return record


def _golden():
    return {tuple(r["argv"]): r for r in json.loads(GOLDEN.read_text(encoding="utf-8"))}


def test_golden_covers_every_command():
    assert sorted(_golden()) == sorted(tuple(argv) for argv in commands())


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_stdout_matches_golden(argv, tmp_path):
    assert run(argv, tmp_path) == _golden()[tuple(argv)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        records = [run(argv, Path(tmp)) for argv in commands()]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
