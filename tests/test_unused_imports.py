"""Every imported name is read somewhere in its file.

pyflakes is not a dependency, so this scans the syntax tree itself: each
name an ``import`` binds must appear as a loaded name in the same file.
``from __future__`` imports are directives, and ``src/fedsim/__init__.py``
imports the names it binds for the package, so both are exempt.
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
