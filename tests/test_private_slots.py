"""Only the module that owns a class reads or writes its private slots.

A Monomial's kept values are filled by their accessors in monomial.py,
and a MonomialIdeal's key, hash and verdicts are set by `_fill` in
ideal.py, which only the trusted builder `_ideal` and the constructor
call.  Every other module goes through those functions, so no module
but the owner names a private slot, and none but ideal.py names `_fill`.
The slot names come from `__slots__`, so a new slot is covered at once.
"""

import ast
from pathlib import Path

import pytest

import lexbs
from lexbs.ideal import MonomialIdeal
from lexbs.monomial import Monomial

MODULES = sorted(Path(lexbs.__file__).parent.glob("*.py"))


def _private(cls):
    return {slot for slot in cls.__slots__ if slot.startswith("_")}


# Private names and the one module that may name them.
OWNED = {
    "monomial.py": _private(Monomial),
    "ideal.py": _private(MonomialIdeal) | {"_fill"},
}


def _names(tree):
    """(name, line) for every attribute, variable, imported name and
    string constant in tree: the ways code can name a slot."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_private_slots_exist():
    assert OWNED["monomial.py"] >= {"_quotients", "_rank", "_shadow", "_proj"}
    assert OWNED["ideal.py"] >= {"_key", "_hash", "_lex", "_stable", "_fill"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_names_another_modules_private_slots(path):
    forbidden = set().union(
        *(names for owner, names in OWNED.items() if owner != path.name)
    )
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = sorted(
        (name, line) for name, line in _names(tree) if name in forbidden
    )
    assert not found, f"{path.name}: names private slots of another module: {found}"
