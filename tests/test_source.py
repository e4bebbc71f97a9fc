"""Source hygiene the standard library can check: no unused imports, no
private name imported from a sibling module, no top-level definition
that nothing exports or reads, no concurrency: the package runs in one
thread, so no module imports a thread, process or queue module, at any
depth, and importing the package loads none of them; no float-weighted
``np.bincount``, so that counts stay integer; and no BLAS call
(``np.dot``, ``.dot``, ``np.vdot``, ``np.inner``, ``np.matmul``, ``@``,
``np.tensordot``, ``np.linalg``).  A threaded BLAS reduction splits its
sum by the thread count, so its last bits, and every byte pinned from
them, change with ``OPENBLAS_NUM_THREADS``; and on a shared 2-vCPU host
a two-thread ``ddot`` of 32 K entries was measured, in some runs, to stall
for about 8 ms per call, against 6-9 us on one thread."""

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


def package_imports(source: str) -> list[str]:
    """Each import of the package itself: a relative one (as ``.module``)
    or an absolute one of ``codebounds``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.append(node.module)
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names]
    return [name for name in found
            if name.startswith(".") or name.split(".")[0] == "codebounds"]


def test_krawtchouk_is_a_leaf():
    # spectrum, bounds and fourier may all import it without a cycle
    assert package_imports((PACKAGE / "krawtchouk.py").read_text()) == []
    assert package_imports("from . import gf2\nimport codebounds.cli\n"
                           "from .. import x\nimport math\n") == [
        ".", "codebounds.cli", ".."]


def weighted_bincounts(source: str) -> list[int]:
    """The line of each ``bincount`` call given weights, as a ``weights=``
    keyword or a second positional argument: it sums them in float64,
    which is exact only below 2^53."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "attr", None)
                 or getattr(node.func, "id", None)) == "bincount"
            and (len(node.args) > 1
                 or any(k.arg == "weights" for k in node.keywords))]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_float_weighted_bincount(path):
    # counts stay integer: weighted sums go through int64 arithmetic
    assert weighted_bincounts(path.read_text()) == []


def test_weighted_bincount_detector_flags_both_spellings():
    source = ("import numpy as np\nfrom numpy import bincount\n"
              "np.bincount(a, minlength=3)\n"
              "np.bincount(a, w)\n"
              "bincount(a, weights=w, minlength=3)\n"
              "np.bincount(a)\n")
    assert weighted_bincounts(source) == [4, 5]


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


BLAS_CALLS = {"dot", "vdot", "matmul", "tensordot"}
NUMPY = {"np", "numpy"}


def blas_calls(source: str) -> list[int]:
    """The line of each BLAS route: a ``dot``, ``vdot``, ``matmul`` or
    ``tensordot`` attribute (``np.dot`` and the ``.dot`` method alike),
    ``np.inner``, any ``linalg`` attribute, ``@`` or ``@=``, and an import
    of one of them from numpy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and (
                node.attr in BLAS_CALLS or node.attr == "linalg"
                or (node.attr == "inner"
                    and getattr(node.value, "id", None) in NUMPY)):
            found.append(node.lineno)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                isinstance(node.op, ast.MatMult):
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module in (
                "numpy", "numpy.linalg"):
            names = {a.name for a in node.names}
            if node.module == "numpy.linalg" or \
                    names & (BLAS_CALLS | {"inner", "linalg"}):
                found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_blas_calls(path):
    # results must not depend on the BLAS thread count
    assert blas_calls(path.read_text()) == []


def test_blas_detector_flags_every_route():
    source = ("import numpy as np\nfrom numpy import dot\n"
              "np.dot(a, b)\n"
              "a.dot(b)\n"
              "np.vdot(a, b)\n"
              "np.inner(a, b)\n"
              "np.matmul(a, b)\n"
              "a @ b\n"
              "a @= b\n"
              "np.tensordot(a, b)\n"
              "np.linalg.norm(a)\n"
              "inner(f, g)\n"
              "math.fsum(a)\n"
              "(a * b).sum()\n"
              "from numpy.linalg import eigh\n"
              "from numpy import add, inner\n")
    assert blas_calls(source) == [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 15, 16]
