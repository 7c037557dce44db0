"""Every name a module of the package imports is used in that module, and
every module-level private name of the package is read somewhere in it.

No linter ships with the test dependencies, so these are small ``ast``
checks.  ``__init__.py`` re-exports its imports through ``__all__`` and is
exempt from the first.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "signlasso"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``.
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_the_check_finds_an_unused_import():
    source = (
        "import os\nimport numpy as np\nimport os.path\n"
        "from .model import CoefVector, _freeze\n"
        "def f(x: CoefVector):\n    return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["_freeze", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == [], module


def private_names(source: str) -> set[str]:
    """The ``_private`` names that a top-level statement of ``source`` binds."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def unread_private_names(sources: list[str]) -> list[str]:
    """Module-level private names of ``sources`` that no expression in them reads."""
    defined, read = set(), set()
    for source in sources:
        defined |= private_names(source)
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(defined - read)


def test_the_check_finds_an_unread_private_name():
    sources = [
        "_A, _B = 1, 2\n_C: int = 3\n__all__ = []\ndef _f():\n    return _A\n"
        "class _K:\n    _inner = 0\n",
        "from .a import _f\nx = _f() + m._C\n",
    ]
    assert unread_private_names(sources) == ["_B", "_K"]


def test_every_private_name_is_read():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_names(sources) == []
