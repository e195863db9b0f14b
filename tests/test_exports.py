"""Every name the package exports has a caller in another library module.

A name that only tests reach backs nothing the commands run: it leaves
the package's exports, or it is deleted. The allowlist names the names
that wait for a caller, each with the ROADMAP item that gives it one.
"""

import ast
from pathlib import Path

import pytest

import meairl

PACKAGE = Path(meairl.__file__).parent

AWAITING_CALLER = {
    "greedy_policy": "ROADMAP item 1: the policy deployed by criterion 5's re-paired gap",
    "policy_value": "ROADMAP item 1: that policy's value on the true MDP",
}


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
    if name in AWAITING_CALLER:
        assert not callers, f"{name} is called from {callers}; drop it from AWAITING_CALLER"
    else:
        assert callers, f"meairl.{name} has no caller outside meairl.{module}"


def test_allowlist_names_exports():
    assert set(AWAITING_CALLER) <= {name for _, name in EXPORTS}
