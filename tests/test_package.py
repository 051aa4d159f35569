"""Package surface: ``contqkd.__all__`` names exactly what the package exports,
no module imports another module's underscore names, each modelling choice
has one owner module, and nothing in the package is test-only: every public
definition has a production caller, every default is overridden by one, every
class field is read by one and every parameter is read by its function."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import contqkd

SOURCES = sorted(Path(contqkd.__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parents[1]
# The production callers: the package modules other than ``__init__``, which
# only re-exports, the acceptance gate and the benchmark.
PRODUCTION = [p for p in SOURCES if p.name != "__init__.py"]
PRODUCTION += [REPO / "tests" / "test_acceptance.py", REPO / "perfbench" / "worker.py"]
# Parameters that no function body reads, each kept for its callers' call forms.
UNREAD_PARAMETERS = {
    # The acceptance gate and the benchmark's singlet probe pass the inner rule.
    "infocalc.py: nonselected_information(quad_y)",
    # The acceptance gate calls the two-argument form.
    "security.py: qber_sphere_averaged(quad)",
}


def _trees(paths):
    """(path, module AST) of each file; AST only, nothing is imported."""
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


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
    # class is named by a production caller (``PRODUCTION``).
    named = set()
    for _, tree in _trees(PRODUCTION):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    uncalled = []
    for path, tree in _trees(SOURCES):
        for node in tree.body:
            public = isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
            if public and node.name not in named:
                uncalled.append(f"{path.name}: {node.name}")
    assert uncalled == []


def test_every_default_is_passed_by_a_production_call():
    # A default that no production call overrides is a knob only the tests
    # turn.  Functions go by name, like their callers above: a parameter with
    # a default, of a public function or of a public method of a public class,
    # must be passed by keyword, or by position, by some production call of that name.
    keywords, most_positional = {}, {}
    for _, tree in _trees(PRODUCTION):
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute)):
                name = call.func.id if isinstance(call.func, ast.Name) else call.func.attr
                keywords.setdefault(name, set()).update(k.arg for k in call.keywords)
                positional = sum(not isinstance(a, ast.Starred) for a in call.args)
                most_positional[name] = max(most_positional.get(name, 0), positional)
    unpassed = []
    for path, tree in _trees(SOURCES):
        classes = [node for node in tree.body if isinstance(node, ast.ClassDef) and not node.name.startswith("_")]
        for fn in tree.body + [item for cls in classes for item in cls.body]:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            # A method's ``self`` or ``cls`` is bound, so the call's positions start after it.
            positional = [a.arg for a in fn.args.posonlyargs + fn.args.args if a.arg not in ("self", "cls")]
            defaulted = list(enumerate(positional))[len(positional) - len(fn.args.defaults) :]
            defaulted += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            for index, arg in defaulted:
                by_position = index is not None and most_positional.get(fn.name, 0) > index
                if not by_position and arg not in keywords.get(fn.name, set()):
                    unpassed.append(f"{path.name}: {fn.name}({arg})")
    assert unpassed == []


def test_every_class_field_is_read_by_production_code():
    # A field that no production path reads is state only the tests see.  A
    # field counts as read when some production caller loads an attribute of
    # its name from anything but ``self``; fields go by name, so a field is
    # hidden by a read of another class's field of the same name.
    read = set()
    for _, tree in _trees(PRODUCTION):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                    read.add(node.attr)
    unread = []
    for path, tree in _trees(SOURCES):
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for item in cls.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        if item.target.id not in read:
                            unread.append(f"{path.name}: {cls.name}.{item.target.id}")
    assert unread == []


def test_every_parameter_is_read_by_its_function():
    # A parameter that its body never reads changes nothing; the only ones
    # kept are ``UNREAD_PARAMETERS``, each for a call form its callers use.
    # A method's ``self`` or ``cls`` is bound, not passed, so it is not counted.
    unread = set()
    for path, tree in _trees(SOURCES):
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                body = fn.body if isinstance(fn.body, list) else [fn.body]
                loaded = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
                args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
                args += [a for a in (fn.args.vararg, fn.args.kwarg) if a is not None]
                name = getattr(fn, "name", "<lambda>")
                unread.update(f"{path.name}: {name}({a.arg})" for a in args if a.arg not in loaded | {"self", "cls"})
    assert unread == UNREAD_PARAMETERS
