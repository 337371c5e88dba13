"""Static checks over the source tree: no imported name goes unused."""

import ast
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
