"""Import rules, checked by scanning each file's syntax tree.

Every imported name is read somewhere in its file. pyflakes is not a
dependency, so this scans the syntax tree itself: each name an ``import``
binds must appear as a loaded name in the same file. ``from __future__``
imports are directives, and ``src/fedsim/__init__.py`` imports the names it
binds for the package, so both are exempt.

No module of the package imports a forbidden module, even inside a
function. fedsim is single-threaded: no thread or process module, so
nothing in it runs concurrently with the event loop. fedsim needs numpy
only: no scipy, which the test extra and ``tools/bench_cache.py`` use.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    path
    for pattern in ("src/fedsim/*.py", "tests/*.py", "tools/*.py")
    for path in ROOT.glob(pattern)
    if path != ROOT / "src" / "fedsim" / "__init__.py"
)
PACKAGE = sorted((ROOT / "src" / "fedsim").glob("*.py"))
FORBIDDEN_MODULES = {
    "threading", "_thread", "multiprocessing", "concurrent", "scipy",
}


def unused_imports(source):
    """(line, name) of each imported name ``source`` never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in bound if name not in read]


def forbidden_imports(source):
    """(line, module) of each absolute import of a thread or process
    module, or of scipy, in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, m) for m in modules
                  if m.split(".")[0] in FORBIDDEN_MODULES]
    return found


def test_scan_finds_an_unused_name():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path as osp\nimport numpy as np\n"
              "from math import pi, tau\n"
              "x = np.zeros(1) * pi\n")
    assert unused_imports(source) == [(2, "os"), (3, "osp"), (5, "tau")]


def test_no_unused_imports():
    found = {str(path.relative_to(ROOT)): unused
             for path in FILES
             if (unused := unused_imports(path.read_text(encoding="utf-8")))}
    assert found == {}


def test_scan_finds_a_concurrency_import():
    source = ("import threading\nimport threadpoolctl\n"
              "import concurrent.futures as cf\n"
              "from multiprocessing import Pool\n"
              "from _thread import start_new_thread\n"
              "from .threading import helper\n"
              "def f():\n    import threading as t\n")
    assert forbidden_imports(source) == [
        (1, "threading"), (3, "concurrent.futures"), (4, "multiprocessing"),
        (5, "_thread"), (8, "threading"),
    ]


def test_scan_finds_a_nested_scipy_import():
    source = ("import numpy as np\n"
              "def fit(xs, ys):\n"
              "    from scipy import stats\n"
              "    return stats.linregress(xs, ys)\n")
    assert forbidden_imports(source) == [(3, "scipy")]


def test_package_imports_no_thread_or_process_module():
    found = {str(path.relative_to(ROOT)): modules
             for path in PACKAGE
             if (modules := forbidden_imports(
                 path.read_text(encoding="utf-8")))}
    assert found == {}
