"""Source-level checks on the library package."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_import_does_not_load_numpy():
    # numpy is a test-side oracle only, and sympy is imported on first
    # factorisation or primality test; a bare import pulls in neither
    code = "import sys, thetaheights; print('numpy' in sys.modules, 'sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False False"


def test_sympy_imported_only_in_weierstrass_helpers():
    # weierstrass._factorint and weierstrass._isprime are the one sympy boundary
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parent = {c: n for n in ast.walk(tree) for c in ast.iter_child_nodes(n)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if not any(m.split(".")[0] == "sympy" for m in modules):
                continue
            scope = parent.get(node)
            while scope is not None and not isinstance(scope, ast.FunctionDef):
                scope = parent.get(scope)
            found.append((path.name, getattr(scope, "name", "<module>")))
    assert found and set(found) <= {("weierstrass.py", "_factorint"),
                                    ("weierstrass.py", "_isprime")}, found


def test_cli_runs_without_sympy():
    # commands that neither factor nor test primality never import sympy
    code = ("import sys; sys.modules['sympy'] = None\n"
            "from thetaheights.cli import run\n"
            "codes = [run(a) for a in ("
            "['theta', 'eval', '--a', '0', '--b', '0', '--tau', '[0, 1]'],"
            "['jacobian', 'faltings', '--cm-quintic'],"
            "['check', 'autissier'])]\n"
            "print(codes)")
    out = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[0, 0, 0]", out.stderr


def _third_party_imports(root: Path) -> dict:
    """Top-level names imported under root that are neither stdlib, the
    package itself, nor a sibling module of the importing file."""
    found = {}
    for path in sorted(root.rglob("*.py")):
        siblings = {p.stem for p in path.parent.glob("*.py")}
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top in sys.stdlib_module_names or top in siblings or top == "thetaheights":
                    continue
                found.setdefault(top, f"{path.relative_to(root.parent)}:{node.lineno}")
    return found


def _requirement_names(reqs) -> set:
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_") for r in reqs}


def test_imports_declared_in_pyproject():
    # CI installs ".[test]": the library may use only [project].dependencies,
    # the tests and the benchmark also the test extra
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent.parent / "pyproject.toml").read_text())["project"]
    runtime = _requirement_names(project["dependencies"])
    test = runtime | _requirement_names(project["optional-dependencies"]["test"])
    repo = SRC.parent.parent
    undeclared = []
    for root, declared in ((SRC, runtime), (repo / "tests", test), (repo / "perfbench", test)):
        undeclared += [f"{n} ({where})" for n, where in _third_party_imports(root).items()
                       if n not in declared]
    assert not undeclared, f"imports missing from pyproject.toml: {undeclared}"


# Public top-level library functions that __all__ does not export and that no
# other library module, perfbench/ or scripts/ references: each is to move to
# tests/ or gain a library caller (ROADMAP item 14), so the list only shrinks.
TEST_ONLY_FUNCTIONS = {
    "elliptic.finite_places", "elliptic.j_invariant", "elliptic.kronecker_symbol",
    "elliptic.point_mul", "elliptic.point_neg", "hyper_faltings.eta_norm_arch",
    "local_heights.prop_envelope", "local_heights.reduce_point_mod_lattice",
    "siegel.apply_symplectic", "weierstrass.branch_point_characteristics",
    "weierstrass.poly_discriminant",
}


def _referenced_names(path: Path) -> set:
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out |= {a.name for a in node.names}
    return out


def test_no_new_test_only_library_functions():
    repo = SRC.parent.parent
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {n for node in init.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for n in ast.literal_eval(node.value)}
    assert exported, "no __all__ in the package"
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    users = {p: _referenced_names(p) for p in
             modules + sorted((repo / "perfbench").glob("*.py")) + sorted((repo / "scripts").glob("*.py"))}
    found = set()
    for path in modules:
        if path.name == "cli.py":       # the entry points main and run
            continue
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                    and node.name not in exported
                    and not any(node.name in names for p, names in users.items() if p != path)):
                found.add(f"{path.stem}.{node.name}")
    assert not found - TEST_ONLY_FUNCTIONS, \
        f"library functions only tests call; move them to tests/: {sorted(found - TEST_ONLY_FUNCTIONS)}"
    assert not TEST_ONLY_FUNCTIONS - found, \
        f"now called by the library; drop from the list: {sorted(TEST_ONLY_FUNCTIONS - found)}"
