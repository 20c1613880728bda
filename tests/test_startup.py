"""Start-up: a command loads only the modules it runs, and the package's
lazy names are the ones it always exported."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fai

from conftest import DATA

SRC = Path(__file__).resolve().parent.parent / "src"
P1 = str(DATA / "params_s1.json")
P6 = str(DATA / "params_s6.json")
CTX = str(DATA / "holidays.csv")
BASE6 = str(DATA / "s6_base.txt")
GOAL = "0.75/a, e -> 0.5/k, l, a"

# what `from fai import *` bound when the package imported every module
EXPORTED = (
    "ApplyF Axiom CapExceeded Chain ChainNotClosed ChainNotSymmetric Compose Connection "
    "ConstMult ConstMultSet Cut CutF DegreeNotInChain DiffSet DualPair FAI FaiError "
    "GoalMismatch Hedge Hyp Identity InvalidHedge InvalidStep InvariantError LContext LOGICS "
    "LSet NotAMonoid NotAdjoint NotClosureSystem NotComplete NotProvable Parameterization "
    "ParseError Proof ProofStep Rotate Theory Universe UniverseMismatch c_mult c_shift "
    "check_proof complete_set compose connection_from_descriptor context down downup "
    "entail_degree entails errors from_hedge fset gconn generate_monoid "
    "generators_from_descriptors globalization hasse_dot hedge_truth_degree holds_in "
    "holds_in_context identity identity_hedge intents_enum intersection is_complete "
    "is_model lattice least_model leq minimize_sides models_enum next_closures "
    "normalize_proof parse_degree parse_fai parse_lset parse_theory proof proof_from_json "
    "proof_to_json provability_degree prove pseudo_intents reduce_to_base render_degree "
    "render_fai render_lset render_theory semantics subsethood t_step term_to_descriptor "
    "theory_of_system truth_degree union up verify_adjoint"
).split()

# run in a fresh interpreter; its last stderr line lists the modules the
# body loaded that the bare interpreter had not
PROBE = """
import sys
before = set(sys.modules)
{body}
sys.stderr.write("\\nloaded: " + " ".join(sorted(set(sys.modules) - before)) + "\\n")
"""


def _loaded(body: str) -> set:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("loaded:"), proc.stderr
    return set(last.split()[1:])


def _main(*argv) -> str:
    return f"from fai.cli import main\nif main({list(argv)!r}):\n    raise SystemExit('failed')"


def test_importing_the_package_loads_no_module():
    loaded = _loaded("import fai")
    assert "fai" in loaded
    assert not {"dataclasses", "hashlib", "fai.context", "fai.proof", "fai.gconn"} & loaded


@pytest.mark.parametrize(
    "argv",
    [
        ("base", "--params", P6, "--context", CTX),
        ("closure", "--params", P6, "--theory", BASE6, "--set", "0.75/a, e"),
    ],
    ids=["base", "closure-theory"],
)
def test_a_command_without_proofs_loads_neither_proof_nor_hashlib(argv):
    loaded = _loaded(_main(*argv))
    assert "fai.cli" in loaded
    assert not {"dataclasses", "hashlib", "fai.proof"} & loaded
    assert ("fai.context" in loaded) == (argv[0] == "base")


def test_prove_loads_proof():
    loaded = _loaded(_main("prove", "--params", P6, "--theory", BASE6, "--query", GOAL))
    assert {"fai.proof", "fai.context"} & loaded == {"fai.proof"}
    assert "dataclasses" not in loaded


def test_validate_hashes_without_dataclasses_or_proof():
    loaded = _loaded(_main("validate", "--params", P1))
    assert "hashlib" in loaded
    assert not {"dataclasses", "fai.proof", "fai.context"} & loaded


def test_every_exported_name_resolves_lazily():
    namespace = {}
    exec("from fai import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(EXPORTED)
    listed = dir(fai)
    for name in EXPORTED:
        assert getattr(fai, name) is namespace[name], name
        assert name in listed, name
    with pytest.raises(AttributeError):
        fai.no_such_name
