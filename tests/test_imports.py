"""Every imported name in src/ and tests/ is used.

No linter ships with the project, so this reads each module with ast: a
name an import binds must be read somewhere in the module or be listed in
its __all__.
"""
from __future__ import annotations

import ast
import glob
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
MODULES = sorted(
    os.path.relpath(p, ROOT)
    for pattern in ("src/**/*.py", "tests/*.py")
    for p in glob.glob(os.path.join(ROOT, pattern), recursive=True)
)


def unused_imports(tree: ast.Module) -> list[str]:
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return sorted(bound - read)


@pytest.mark.parametrize("path", MODULES)
def test_no_unused_imports(path):
    with open(os.path.join(ROOT, path)) as f:
        tree = ast.parse(f.read())
    assert unused_imports(tree) == []


def test_unused_import_is_caught():
    tree = ast.parse("import os\nfrom a import b, c as d\nfrom __future__ import x\nd()\n")
    assert unused_imports(tree) == ["b", "os"]
