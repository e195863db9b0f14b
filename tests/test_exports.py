"""Every name the package exports has a caller in another library module.

A name that only tests reach backs nothing the commands run: it leaves
the package's exports, or it is deleted.
"""

import ast
from pathlib import Path

import pytest

import meairl

PACKAGE = Path(meairl.__file__).parent


def _exports() -> list:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _names_read_by_module() -> dict:
    read = {}
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read[path.stem] = ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
                           | {node.attr for node in ast.walk(tree)
                              if isinstance(node, ast.Attribute)})
    return read


EXPORTS = _exports()
READ = _names_read_by_module()


@pytest.mark.parametrize("module, name", EXPORTS, ids=[name for _, name in EXPORTS])
def test_export_has_a_library_caller(module, name):
    callers = sorted(other for other, names in READ.items()
                     if other != module and name in names)
    assert callers, f"meairl.{name} has no caller outside meairl.{module}"
