"""Source hygiene the standard library can check: no unused imports, no
private name imported from a sibling module, no top-level definition
that nothing exports or reads, and no concurrency: the package runs in one
thread, so no module imports a thread, process or queue module, at any
depth, and importing the package loads none of them."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import codebounds

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "codebounds"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def private_imports(source: str) -> list[str]:
    """``"<module> <name>"`` for each underscore name a module imports from
    a sibling module; importing a private module itself
    (``from . import _kernels``) is not flagged."""
    return [f"{node.module} {alias.name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level and node.module
            for alias in node.names if alias.name.startswith("_")]


CONCURRENCY = {"threading", "concurrent", "multiprocessing", "queue"}


def concurrency_imports(source: str) -> list[str]:
    """Each absolute import, anywhere in a module (a function body
    included), of a module whose top-level package is in ``CONCURRENCY``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append(node.module)
    return [name for name in found if name.split(".")[0] in CONCURRENCY]


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_read(tree: ast.AST) -> set[str]:
    """Every name a tree reads, bare (``f``) or as an attribute (``mod.f``)."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def orphans(modules: dict[str, str], exported) -> list[str]:
    """``"<module> <name>"`` for each top-level ``def`` or ``class`` that is
    not exported and that no other top-level statement of ``modules``
    (name -> source) reads; a definition reading itself does not count."""
    top = [(module, node, names_read(node))
           for module, source in modules.items()
           for node in ast.parse(source).body]
    return [f"{module} {node.name}" for module, node, _ in top
            if isinstance(node, DEFINITIONS) and node.name not in exported
            and not any(node.name in read
                        for _, other, read in top if other is not node)]


def test_package_modules_found():
    assert {p.name for p in MODULES} >= {"bounds.py", "cyclic.py", "gf2.py",
                                         "spectrum.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_an_unused_name():
    source = ("import math\nimport os.path\n"
              "from .cyclic import InvalidParameters, _check_params\n"
              "_check_params(math.pi, os.sep)\n")
    assert unused_imports(source) == ["InvalidParameters"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_cross_module_private_imports(path):
    # a rule another module needs is public where it lives
    assert private_imports(path.read_text()) == []


def test_private_import_detector_flags_a_name_imported_back():
    source = (PACKAGE / "bounds.py").read_text().replace(
        "from .cyclic import designed_distance",
        "from .cyclic import _check_params, designed_distance")
    assert private_imports(source) == ["cyclic _check_params"]
    assert private_imports("from . import _kernels\n"
                           "from ._kernels import layer_words\n"
                           "from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_concurrency_imports(path):
    assert concurrency_imports(path.read_text()) == []


def test_concurrency_detector_flags_a_function_local_pool():
    # the lazy form an import-time check cannot see
    source = (PACKAGE / "cli.py").read_text().replace(
        "def _table_rows(args) -> list[dict]:\n",
        "def _table_rows(args) -> list[dict]:\n"
        "    from concurrent.futures import ThreadPoolExecutor\n")
    assert concurrency_imports(source) == ["concurrent.futures"]
    assert concurrency_imports("import threading as t, os\n"
                               "from multiprocessing.pool import Pool\n"
                               "from . import queue\n"
                               "import queue_tools\n") == [
        "threading", "multiprocessing.pool"]


def test_no_orphaned_definitions():
    # each definition is public API or serves the package itself; a name
    # only tests or the benchmark read is dead code here
    modules = {p.name: p.read_text() for p in MODULES}
    assert orphans(modules, set(codebounds.__all__)) == []


def test_orphan_detector_flags_an_unread_definition():
    modules = {
        "a.py": ("def exported():\n    return _helper()\n"
                 "def _helper():\n    return 1\n"
                 "def recursive(k):\n    return recursive(k - 1)\n"
                 "class Unused:\n    pass\n"),
        "b.py": "from . import a\nVALUE = a.read_by_attribute\n",
        "c.py": "def read_by_attribute():\n    pass\n",
    }
    assert orphans(modules, {"exported"}) == ["a.py recursive",
                                              "a.py Unused"]
    del modules["a.py"]
    assert orphans(modules, set()) == []


def test_orphan_detector_flags_a_helper_added_back():
    modules = {p.name: p.read_text() for p in MODULES}
    modules["fourier.py"] += ("\n\ndef indicator(code, n):\n"
                              "    return [int(x in code) for x in "
                              "range(1 << n)]\n")
    assert orphans(modules, set(codebounds.__all__)) == [
        "fourier.py indicator"]


def test_import_loads_no_thread_pool():
    # nor through a dependency: concurrent.futures pulls in logging and queue
    root = str(PACKAGE.parent)
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    code = ("import sys, codebounds, codebounds.cli\n"
            "print(sorted(m for m in ('concurrent.futures', 'logging', "
            "'queue') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout == "[]\n"
