"""Static checks over the source tree.

No imported name goes unused, no private module-level function in src/
goes unread by its module, and no public function, class or method in src/
is read only by tests; src/ defines no exception class beyond the three the
package needs, and every exponential route names its bound `budget`.
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


# public names in src/ that nothing outside tests reads: label -> reason
PUBLIC_ONLY_FOR_TESTS: dict = {}


def _public_definitions(tree: ast.Module):
    """(label, node) for each public module-level function or class, and for
    each public method of such a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _reads(tree: ast.Module):
    """(name, owner, line) per Name load (owner None) and attribute load; the
    owner of x.y.name is y, of x.name is x, and "" for any other expression."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id, None, n.lineno
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            v = n.value
            owner = v.id if isinstance(v, ast.Name) else v.attr if isinstance(v, ast.Attribute) else ""
            yield n.attr, owner, n.lineno


def unread_public_names(sources):
    """Public definitions in the src/ files among sources ({path: text}) that
    no read outside their own definition reaches.

    A function or class is read by its own module, by a module that imports
    it from the package (absolutely or relatively) and reads it, or as an
    attribute of its module (`families.theta`); a method by any attribute
    load of its name.  __init__.py re-exports do not count.
    """
    trees = {path: ast.parse(text) for path, text in sources.items()
             if not path.endswith("__init__.py")}
    imported = {
        path: {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
               and (n.level or (n.module or "").startswith("sepscope")) for a in n.names}
        for path, tree in trees.items()
    }
    reads = {path: list(_reads(tree)) for path, tree in trees.items()}
    found = []
    for path, tree in trees.items():
        if not path.startswith("src/"):
            continue
        module = Path(path).stem
        for label, node in _public_definitions(tree):
            method = "." in label

            def reaches(other, name, owner, line):
                if name != node.name or (other == path and node.lineno <= line <= node.end_lineno):
                    return False
                if method:
                    return owner is not None
                if owner is None:
                    return other == path or name in imported[other]
                return owner == module

            if not any(reaches(other, *r) for other in trees for r in reads[other]):
                found.append(f"{path}: {label}")
    return found


def test_unread_public_names_helper_sees_reads_outside_tests():
    sources = {
        "src/pkg/graphs.py": (
            "def used(): return helper()\n"
            "def helper(): pass\n"
            "def test_only(): pass\n"
            "def recursive(): return recursive()\n"
            "def by_module(): pass\n"
            "def shadowed(): pass\n"
            "class Box:\n"
            "    def read(self): return self.dead\n"
            "    def dead(self): pass\n"
            "    def unread(self): pass\n"
        ),
        "src/pkg/__init__.py": "from .graphs import test_only\n",
        "src/pkg/cli.py": "from .graphs import used, Box\nused(Box().read())\n",
        "bench/run.py": "import checks\nfrom sepscope import graphs\ngraphs.by_module(checks.shadowed)\n",
        "demos/d.py": "shadowed()\n",
    }
    assert unread_public_names(sources) == [
        "src/pkg/graphs.py: test_only",
        "src/pkg/graphs.py: recursive",
        "src/pkg/graphs.py: shadowed",
        "src/pkg/graphs.py: Box.unread",
    ]


def test_no_public_names_only_tests_read():
    sources = {
        str(path.relative_to(ROOT)): path.read_text()
        for top in ("src", "bench", "demos") for path in sorted((ROOT / top).rglob("*.py"))
    }
    flagged = unread_public_names(sources)
    found = [f for f in flagged if f.split(": ")[1] not in PUBLIC_ONLY_FOR_TESTS]
    assert not found, "public names only tests read:\n" + "\n".join(found)
    stale = set(PUBLIC_ONLY_FOR_TESTS) - {f.split(": ")[1] for f in flagged}
    assert not stale, f"allow-listed names that something reads: {sorted(stale)}"
