"""Every name a module of the package imports is used in that module,
every module-level private name of the package is read somewhere in it, no
module imports scipy on import, no command imports the scipy modules that
compute (ln k! and the Cholesky solves have scipy's bits without them), and
only ``blas.py`` loads a shared library or names a thread-count function.

No linter ships with the test dependencies, so these are small ``ast``
checks.  ``__init__.py`` re-exports its imports through ``__all__`` and is
exempt from the first.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def module_level_imports(source: str) -> list[str]:
    """The modules that ``source`` imports outside any function or class body."""
    found = []
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append(node.module or "")
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # The bodies of a module-level if, try or with still run on import.
            pending += [child for child in ast.iter_child_nodes(node)
                        if isinstance(child, ast.stmt)]
    return found


def test_the_check_finds_a_module_level_import():
    source = (
        "import numpy as np\nfrom scipy.special import gammaln\n"
        "try:\n    import scipy.linalg\nexcept ImportError:\n    pass\n"
        "def f():\n    from scipy import stats\n"
    )
    assert module_level_imports(source) == ["numpy", "scipy.special", "scipy.linalg"]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_module_imports_scipy_on_import(module):
    # scipy.linalg is most of a fresh process's start-up; report.json's
    # version import and the LAPACK fallback import on first use.
    imported = module_level_imports((PACKAGE / module).read_text())
    assert [name for name in imported if name.split(".")[0] == "scipy"] == [], module


def scipy_submodule_imports(source: str) -> list[str]:
    """Every ``scipy.`` submodule that ``source`` imports, function bodies included.

    ``from scipy import name`` counts as importing ``scipy.name``.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.startswith("scipy.")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("scipy."):
                found.append(node.module)
            elif node.module == "scipy":
                found += [f"scipy.{alias.name}" for alias in node.names]
    return found


def test_the_check_finds_a_scipy_submodule_import():
    source = (
        "import scipy\nimport scipy.linalg as la\n"
        "def f():\n    from scipy.special import gammaln\n    from scipy import stats\n"
    )
    assert scipy_submodule_imports(source) == ["scipy.linalg", "scipy.special", "scipy.stats"]


def test_no_module_imports_a_scipy_submodule_but_the_lapack_fallback():
    # The top-level ``import scipy`` of report.json's version string loads
    # none of scipy's submodules that compute; scipy.linalg stands in for
    # scipy's bundled OpenBLAS only where that library is not found.
    found = {module: scipy_submodule_imports((PACKAGE / module).read_text())
             for module in MODULES + ["__init__.py"]}
    assert {module: names for module, names in found.items() if names} == {
        "model.py": ["scipy.linalg"]}


def library_loads_and_thread_counts(source: str) -> list[str]:
    """The shared-library loads and thread-count names in ``source``.

    A load is a ``CDLL``, ``cdll``, ``PyDLL`` or ``pydll`` of ctypes; a
    thread-count name is ``blas._threads`` or an attribute or a string that
    contains ``_num_threads``.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in {"CDLL", "cdll", "PyDLL", "pydll", "_threads"} or "_num_threads" in name:
            found.append(name)
    return sorted(found)


def test_the_check_finds_a_library_load_and_a_thread_count_name():
    source = (
        "import ctypes\nfrom ctypes import CDLL\n"
        "lib = CDLL('libx.so')\nother = ctypes.cdll.LoadLibrary('liby.so')\n"
        "lib.openblas_set_num_threads(1)\nname = 'goto_get_num_threads'\n"
        "def f():\n    blas._threads('scipy')[1](1)\n    return ctypes.c_int(1), lib.dpotrf_\n"
    )
    assert library_loads_and_thread_counts(source) == [
        "CDLL", "_threads", "cdll", "goto_get_num_threads", "openblas_set_num_threads"]


def test_only_blas_loads_a_library_or_names_a_thread_count():
    # One module opens the bundled OpenBLAS libraries and sets their thread
    # counts, so no second load site or pin site can slip in elsewhere.
    found = {module: library_loads_and_thread_counts((PACKAGE / module).read_text())
             for module in MODULES + ["__init__.py"]}
    assert {module: names for module, names in found.items() if names} == {"blas.py": [
        "CDLL", "_threads", "scipy_openblas_{}_num_threads", "scipy_openblas_{}_num_threads64_"]}


@pytest.fixture(scope="module")
def bare_scipy_modules():
    """The scipy modules that ``import scipy`` alone loads in a fresh process."""
    script = "import sys, scipy\nprint(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            timeout=120)
    return set(ast.literal_eval(result.stdout.splitlines()[-1]))


@pytest.mark.parametrize("command", ["simulate-oracle", "simulate-mle", "check", "fit-mle",
                                     "fit-oracle"])
def test_a_command_imports_no_scipy_module_that_computes(command, tmp_path, bare_scipy_modules):
    rng = np.random.default_rng(8)
    x = 0.5 * rng.standard_normal((200, 4))
    beta = np.array([1.0, -1.0, 0.0, 0.0])
    np.savetxt(tmp_path / "X.csv", x, delimiter=",", fmt="%.17g")
    np.savetxt(tmp_path / "Y.csv", rng.poisson(np.exp(x @ beta)), fmt="%d")
    np.savetxt(tmp_path / "b.csv", beta, fmt="%.17g")
    mode = "oracle:1.0" if command == "simulate-oracle" else "mle"
    (tmp_path / "config.json").write_text(json.dumps({
        "design": {"kind": "correlated_gaussian", "rho": 0.2}, "beta_star": [1.0, -1.0, 0.0],
        "n_grid": [100, 400], "c1": 1.0, "c2": 0.5, "alpha_coef": 1.0, "replicates": 3,
        "seed": 1, "beta_tilde_mode": mode,
    }))
    data = ["--x", "X.csv", "--y", "Y.csv", "--beta-star", "b.csv", "--out", "out"]
    argv = {
        "simulate-oracle": ["simulate", "--config", "config.json", "--out", "out"],
        "simulate-mle": ["simulate", "--config", "config.json", "--out", "out"],
        "check": ["check", *data],
        "fit-mle": ["fit", *data, "--beta-tilde", "mle", "--alpha", "5"],
        "fit-oracle": ["fit", *data, "--beta-tilde", "oracle:1.0", "--alpha", "5"],
    }[command]
    script = (
        "import sys\nfrom signlasso.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    code, loaded = result.stdout.splitlines()[-1].split(" ", 1)
    loaded = set(ast.literal_eval(loaded))
    assert code == "0", result.stderr
    assert not loaded & {"scipy.special", "scipy.linalg"}
    # simulate imports scipy for report.json's version string, and with it
    # the scipy._lib modules that scipy/__init__.py imports; fit and check
    # import nothing of scipy.
    assert loaded <= (bare_scipy_modules if command.startswith("simulate") else set())
