"""Static checks over the source tree.

No imported name goes unused, no private module-level function in src/
goes unread by its module, no public function, class, method or
module-level constant in src/ is read only by tests (a constant's own
assignment does not count); no defaulted parameter of a public function or
method is set only by tests, and no two public classes share a public
method name; src/ defines no exception class beyond the three the package
needs, and every exponential route names its bound `budget`.
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


def _public_constants(tree: ast.Module):
    """(name, node) for each public name a module-level assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name) and not n.id.startswith("_"):
                        yield n.id, node


def unread_public_names(sources, definitions=_public_definitions):
    """Public definitions in the src/ files among sources ({path: text}) that
    no read outside their own definition reaches.

    A function, class or constant is read by its own module, by a module
    that imports it from the package (absolutely or relatively) and reads
    it, or as an attribute of its module (`families.theta`); a method by any
    attribute load of its name.  __init__.py re-exports do not count.
    `definitions` lists a module's candidates, by default its functions,
    classes and methods.
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
        for label, node in definitions(tree):
            method = "." in label
            defined = label.split(".")[-1]

            def reaches(other, name, owner, line):
                if name != defined or (other == path and node.lineno <= line <= node.end_lineno):
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


def test_unread_public_constants_helper_sees_reads_outside_own_assignment():
    sources = {
        "src/pkg/graphs.py": (
            "USED, _HIDDEN = 1, 2\n"
            "DEAD = 3\n"
            "Alias: type = int\n"
            "LONG = (\n    'a',\n)\n"
            "BY_MODULE = 4\n"
            "TABLE = {'x': USED}\n"
            "def f(): return TABLE\n"
        ),
        "src/pkg/__init__.py": "from .graphs import DEAD\n",
        "src/pkg/cli.py": "from .graphs import Alias\ndef g(x: Alias): pass\n",
        "bench/run.py": "from sepscope import graphs\ngraphs.BY_MODULE\n",
    }
    assert unread_public_names(sources, _public_constants) == [
        "src/pkg/graphs.py: DEAD",
        "src/pkg/graphs.py: LONG",
    ]


def test_no_public_constant_goes_unread():
    sources = {
        str(path.relative_to(ROOT)): path.read_text()
        for top in ("src", "bench", "demos") for path in sorted((ROOT / top).rglob("*.py"))
    }
    found = unread_public_names(sources, _public_constants)
    assert not found, "public constants nothing reads:\n" + "\n".join(found)


# defaulted parameters in src/ that only tests set: "name(param)" -> reason
OPTIONS_ONLY_FOR_TESTS: dict = {}


def _calls(tree: ast.Module):
    """(simple callee name, call node) for each call: f(...) and x.f(...)."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Call):
            f = n.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name is not None:
                yield name, n


def _sets(call: ast.Call, positional, offset: int):
    """Parameter names call sets: its keywords, the positional parameters
    its arguments fill after the first offset (all of them from a `*args`
    on), and "**" when it passes `**kwargs`."""
    got = {k.arg or "**" for k in call.keywords}
    for i, a in enumerate(call.args):
        if isinstance(a, ast.Starred):
            got.update(positional[offset + i:])
            break
        got.update(positional[offset + i:offset + i + 1])
    return got


def unset_options(sources):
    """Defaulted parameters of public functions and methods in the src/
    files among sources ({path: text}) that no call sets, outside tests/
    and outside the parameter's own definition.

    A call matches a definition on the callee's simple name (`f(...)` and
    `x.f(...)` both match `f`) and sets a parameter by keyword, by
    position (a method's first parameter is bound by the `x.`), or through
    `*args` (every positional parameter from there on) or `**kwargs`
    (every parameter).  `budget` is exempt: the CLI passes it to routes it
    picks at run time.
    """
    trees = {path: ast.parse(text) for path, text in sources.items()
             if not path.startswith("tests/")}
    calls = [(path, name, call) for path, tree in trees.items() for name, call in _calls(tree)]
    found = []
    for path, tree in trees.items():
        if not path.startswith("src/"):
            continue
        for label, node in _public_definitions(tree):
            if isinstance(node, ast.ClassDef):
                continue
            a = node.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            defaulted = positional[len(positional) - len(a.defaults):]
            defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            set_by = set()
            for other, name, call in calls:
                inside = other == path and node.lineno <= call.lineno <= node.end_lineno
                if name == node.name and not inside:
                    set_by |= _sets(call, positional, 1 if "." in label else 0)
            found += [f"{path}: {label}({p})" for p in defaulted
                      if p != "budget" and p not in set_by and "**" not in set_by]
    return found


def test_unset_options_helper_sees_calls_outside_tests():
    sources = {
        "src/pkg/graphs.py": (
            "def f(g, a=1, b=2, *, c=3, d=4, budget=5): return f(g, 1, 2, c=3, d=4)\n"
            "def spread(g, a=1, b=2): pass\n"
            "def kw(g, a=1, *, b=2): pass\n"
            "def star(g, a=1, *, b=2): pass\n"
            "def _private(g, a=1): pass\n"
            "def plain(g, a): pass\n"
            "class Box:\n"
            "    def m(self, x, y=0, z=0): pass\n"
        ),
        "src/pkg/cli.py": (
            "from .graphs import f, spread, kw, star, Box\n"
            "f(None, 1, c=3)\n"
            "spread(None, *args)\n"
            "kw(None, **opts)\n"
            "star(*args)\n"
            "Box().m(1, 2)\n"
        ),
        "tests/test_graphs.py": "from pkg.graphs import f\nf(None, 1, 2, d=4)\nBox().m(1, 2, 3)\n",
        "bench/run.py": "import x\nx.f(None, b=2)\n",
    }
    assert unset_options(sources) == [
        "src/pkg/graphs.py: f(d)",
        "src/pkg/graphs.py: star(b)",
        "src/pkg/graphs.py: Box.m(z)",
    ]


def test_no_options_only_tests_set():
    sources = {
        str(path.relative_to(ROOT)): path.read_text()
        for top in ("src", "bench", "demos") for path in sorted((ROOT / top).rglob("*.py"))
    }
    flagged = unset_options(sources)
    found = [f for f in flagged if f.split(": ")[1] not in OPTIONS_ONLY_FOR_TESTS]
    assert not found, "defaulted parameters only tests set:\n" + "\n".join(found)
    stale = set(OPTIONS_ONLY_FOR_TESTS) - {f.split(": ")[1] for f in flagged}
    assert not stale, f"allow-listed parameters that a program call sets: {sorted(stale)}"


def shared_method_names(sources):
    """Public method names that two or more public classes in the src/ files
    among sources define, each with its "path: Class" owners."""
    owners = {}
    for path, text in sources.items():
        if not path.startswith("src/"):
            continue
        for label, _ in _public_definitions(ast.parse(text)):
            if "." in label:
                cls, name = label.split(".")
                owners.setdefault(name, []).append(f"{path}: {cls}")
    return {name: where for name, where in owners.items() if len(where) > 1}


def test_shared_method_names_helper_sees_public_methods_across_classes():
    sources = {
        "src/pkg/a.py": (
            "class A:\n"
            "    def as_dict(self): pass\n"
            "    def only_a(self): pass\n"
            "    def _both(self): pass\n"
            "class _Hidden:\n"
            "    def only_a(self): pass\n"
        ),
        "src/pkg/b.py": "class B:\n    def as_dict(self): pass\n    def _both(self): pass\n",
        "bench/c.py": "class C:\n    def only_a(self): pass\n",
    }
    assert shared_method_names(sources) == {"as_dict": ["src/pkg/a.py: A", "src/pkg/b.py: B"]}


def test_no_public_method_name_in_two_classes():
    # a read of a shared name counts for both methods in unread_public_names
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))}
    assert shared_method_names(sources) == {}
