"""Every name the package exports has a caller in another library module,
and every upper-case module-level constant is read by library code.

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
        read[path.stem] = ({node.id for node in ast.walk(tree)
                            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
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


def _constants() -> list:
    """(module, name) of every upper-case name assigned at a module's top level."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            found += [(path.stem, name.id) for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name) and name.id.isupper()]
    return found


CONSTANTS = _constants()


@pytest.mark.parametrize("module, name", CONSTANTS, ids=[f"{m}.{n}" for m, n in CONSTANTS])
def test_constant_is_read_by_library_code(module, name):
    assert any(name in names for names in READ.values()), \
        f"meairl.{module}.{name} is assigned but never read"
