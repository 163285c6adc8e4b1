"""Every module-level import under ``src/graphongames`` is used, and every
module-level private name is read, so that a deletion leaves no dangling
import or uncalled helper behind. The package's ``__init__`` is exempt from
the import check: its imports are the public surface it re-exports."""

import ast
import pathlib

import pytest

import graphongames

PACKAGE = pathlib.Path(graphongames.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


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


def _private_definitions(tree: ast.Module) -> list[str]:
    """The functions, classes and assigned names at the top level of
    ``tree`` whose name has one leading underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _reads(tree: ast.Module) -> set[str]:
    """The names ``tree`` loads, reads as an attribute or imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each module-level private name defined in one of
    ``sources`` (module name to source text) that none of them reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set().union(*map(_reads, trees.values()))
    return [f"{module}.{name}" for module, tree in trees.items()
            for name in _private_definitions(tree) if name not in read]


def test_every_private_name_is_read():
    assert unread_private_names(
        {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}) == []


def test_the_check_sees_an_unread_private_name():
    sources = {
        "a": "_LIMIT = 3\n_SCALE: float = 2.0\n__all__ = []\n"
             "def _helper():\n    return _LIMIT\n"
             "def _dead():\n    pass\n"
             "class _Unused:\n    pass\n",
        "b": "from .a import _helper\nimport a\nx = _helper() * a._SCALE\n",
    }
    assert unread_private_names(sources) == ["a._dead", "a._Unused"]
