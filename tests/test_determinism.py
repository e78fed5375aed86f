"""Same seed and same inputs give byte-identical stdout, whatever the
string hash seed of the interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

COMMANDS = [
    ["selftest", "--suite", "all", "--seed", "0"],
    ["classify", "--algebra", "sample:quat-nil.alg"],
    ["hsign", "--algebra", "sample:m2.alg", "--form", "sample:x.hf", "--eta", "sample:one.hf",
     "--total"],
]


def run_with_hash_seed(argv, seed: str) -> str:
    path = os.environ.get("PYTHONPATH")
    paths = f"{SRC}{os.pathsep}{path}" if path else str(SRC)
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=paths)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from hermsig.cli import main; sys.exit(main())", *argv],
        env=env, capture_output=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_stdout_does_not_depend_on_the_hash_seed(argv):
    out = run_with_hash_seed(argv, "0")
    assert out
    assert run_with_hash_seed(argv, "1") == out
