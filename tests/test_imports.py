"""Every name a lexbs module imports is read in that module.

`__init__.py` imports names to export them, so it is left out, and so is
`from __future__ import annotations`, which binds a name nothing reads.
"""

import ast
from pathlib import Path

import pytest

import lexbs

MODULES = sorted(
    path
    for path in Path(lexbs.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


def _bound_by_import(tree):
    """(name, line) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a.
                yield (alias.asname or alias.name.split(".")[0]), node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unread = [(name, line) for name, line in _bound_by_import(tree) if name not in read]
    assert not unread, f"{path.name}: imported and never read: {unread}"
