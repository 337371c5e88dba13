"""Static checks over the source tree.

No imported name goes unused, and no private module-level function in src/
goes unread by its module; src/ defines no exception class beyond the three
the package needs, and every exponential route names its bound `budget`.
"""

import ast
import builtins
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str):
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_helper_sees_plain_and_from_imports():
    src = "import os\nimport a.b\nfrom x import y as z, w\nprint(w, a)\n"
    assert unused_imports(src) == [(1, "os"), (3, "z")]


def test_no_unused_imports():
    found = []
    for top in ("src", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for line, name in unused_imports(path.read_text()):
                found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)


def unread_private_functions(source: str):
    """Module-level `_private` functions whose name the module never reads."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [
        (node.lineno, node.name) for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.startswith("__") and node.name not in read
    ]


def test_unread_private_functions_helper_sees_only_unread_private_defs():
    src = (
        "def _dead(): pass\n"
        "def _called(): pass\n"
        "def _stored(): pass\n"
        "def public(): return _called()\n"
        "TABLE = {'x': _stored}\n"
        "def __getattr__(name): pass\n"
        "class C:\n"
        "    def _method(self): pass\n"
    )
    assert unread_private_functions(src) == [(1, "_dead")]


def test_no_unread_private_functions():
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for line, name in unread_private_functions(path.read_text()):
            found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "private functions nothing reads:\n" + "\n".join(found)


EXCEPTIONS = {"GraphError", "BudgetExhausted", "CliError"}
RETIRED_BOUNDS = {"cap", "node_cap", "size_cap", "max_instances"}


def _builtin_exception(name: str) -> bool:
    cls = getattr(builtins, name, None)
    return isinstance(cls, type) and issubclass(cls, BaseException)


def budget_convention_faults(source: str):
    """Exception classes outside EXCEPTIONS and parameters in RETIRED_BOUNDS."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name not in EXCEPTIONS:
            bases = [b.id for b in node.bases if isinstance(b, ast.Name)]
            if any(b in EXCEPTIONS or _builtin_exception(b) for b in bases):
                out.append((node.lineno, f"exception class {node.name}"))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs:
                if arg.arg in RETIRED_BOUNDS:
                    out.append((node.lineno, f"parameter {arg.arg}"))
    return out


def test_budget_convention_helper_sees_classes_and_parameters():
    src = (
        "class CapExceeded(RuntimeError): pass\n"
        "class Fine: pass\n"
        "class BudgetExhausted(RuntimeError): pass\n"
        "def f(g, cap=3, *, budget=1): pass\n"
        "def h(node_cap): pass\n"
    )
    assert budget_convention_faults(src) == [
        (1, "exception class CapExceeded"), (4, "parameter cap"), (5, "parameter node_cap"),
    ]


def test_one_budget_exception_and_no_retired_bound_names():
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for line, what in budget_convention_faults(path.read_text()):
            found.append(f"{path.relative_to(ROOT)}:{line}: {what}")
    assert not found, "budget convention:\n" + "\n".join(found)
