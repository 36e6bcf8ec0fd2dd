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

Every file a run writes is built in ``src/fedsim/runner.py``: no other
module of the package imports ``json`` or holds the ``"format_version"``
literal that heads a written format, so a format changes in one module.
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


def file_formats(source):
    """(line, what) of each import of ``json`` and each
    ``"format_version"`` string literal in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and node.value == "format_version":
            found.append((node.lineno, '"format_version"'))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, "import json") for a in node.names
                      if a.name.split(".")[0] == "json"]
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "json"):
            found.append((node.lineno, "import json"))
    return sorted(found)


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


def test_scan_finds_a_file_format():
    source = ('"""Writes format_version 1."""\n'
              "import json\nimport json.decoder as jd\n"
              "from json import dumps\nfrom .json import helper\n"
              "def to_obj(ps):\n"
              '    return {"format_version": 1, "kind": "format_version 1"}\n')
    assert file_formats(source) == [
        (2, "import json"), (3, "import json"), (4, "import json"),
        (7, '"format_version"'),
    ]


def test_only_runner_builds_a_written_format():
    found = {str(path.relative_to(ROOT)): formats
             for path in PACKAGE
             if path.name != "runner.py"
             and (formats := file_formats(path.read_text(encoding="utf-8")))}
    assert found == {}
