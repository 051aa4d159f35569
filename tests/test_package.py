"""Package surface: ``contqkd.__all__`` names exactly what the package exports,
no module imports another module's underscore names, each modelling choice
has one owner module, and every public definition has a production caller."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import contqkd


def test_all_matches_exported_names():
    exported = {
        name
        for name, value in vars(contqkd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(contqkd.__all__) == len(set(contqkd.__all__))
    assert set(contqkd.__all__) == exported | {"__version__"}


def test_no_module_imports_a_sibling_private_name():
    # Dunder names such as __version__ are public; _name is its module's own.
    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    offenders = []
    for path in sorted(Path(contqkd.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("contqkd")):
                offenders += [f"{path.name}: {a.name}" for a in node.names if private(a.name)]
    assert offenders == []


def test_only_attack_reduces_states():
    # ``attack.bipartite_reductions`` is the one reducer of the attacked state;
    # the package ``__init__`` only re-exports ``partial_trace``.
    importers = []
    for path in sorted(Path(contqkd.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and any(a.name == "partial_trace" for a in node.names):
                importers.append(path.name)
    assert sorted(importers) == ["__init__.py", "attack.py"]


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # The transcript writer imports multiprocessing when it runs, so no command
    # pays for that import at start-up.
    src = str(Path(contqkd.__file__).parent.parent)
    code = "import sys, contqkd.cli; print('multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_every_public_definition_has_a_production_caller():
    # No test-only code in the package: each public module-level function or
    # class is named (AST only, nothing is imported or written) by a package
    # module other than ``__init__``, by the acceptance gate or by the benchmark.
    package = Path(contqkd.__file__).parent
    repo = Path(__file__).resolve().parents[1]
    callers = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    callers += [repo / "tests" / "test_acceptance.py", repo / "perfbench" / "worker.py"]
    named = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    uncalled = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            public = isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
            if public and node.name not in named:
                uncalled.append(f"{path.name}: {node.name}")
    assert uncalled == []
