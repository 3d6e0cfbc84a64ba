"""Source-level checks on the library package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "thetaheights"


def test_no_assert_in_library():
    # internal invariants raise NumericError: assert statements vanish under
    # python -O and AssertionError falls outside the CLI's exit-code mapping
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name) and node.id == "AssertionError"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert list(SRC.glob("*.py")), f"no sources found under {SRC}"
    assert not offenders, f"assert / AssertionError in the library: {offenders}"


def test_import_does_not_load_numpy():
    # numpy is a test-side oracle only; the library must not pull it in
    code = "import sys, thetaheights; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
