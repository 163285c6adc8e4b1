"""Every module-level import under ``src/graphongames`` is used, so that a
deletion leaves no dangling import behind. The package's ``__init__`` is
exempt: its imports are the public surface it re-exports."""

import ast
import pathlib

import pytest

import graphongames

PACKAGE = pathlib.Path(graphongames.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the module-level imports of ``source`` that no
    other line of it reads."""
    tree = ast.parse(source)
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom)
                 and node.module == "__future__")
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "import itertools\nimport numpy as np\nfrom os import path\n" \
             "x = np.zeros(3)\n"
    assert unused_imports(source) == ["itertools", "path"]
