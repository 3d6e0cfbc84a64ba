"""Source-level checks on the library package."""

import ast
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
