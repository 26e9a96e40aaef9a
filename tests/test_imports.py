"""Every name a module imports is used in it, so a deletion leaves no dead
import behind.  ``__init__.py`` is skipped: it imports to re-export."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for p in [*ROOT.glob("src/parasched/*.py"),
                           *ROOT.glob("tests/*.py")]
               if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names bound by the module's imports that nothing else names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a import b, c\n"
                          "sys.exit(c)\n") == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
