"""No module of the package imports a name that it leaves unused.

No linter is part of the toolchain, so this walks each module's syntax tree:
a name bound by an import must be read by some `ast.Name` in that module.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kosrank"


def unused_imports(source: str) -> dict[str, int]:
    """Each name that `source` imports and never reads -> the line importing it."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == {}


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Mapping, Sequence\n"
        "def f(x: Sequence) -> int:\n"
        "    return np.size(x)\n"
    )
    assert unused_imports(source) == {"os": 2, "Mapping": 4}
