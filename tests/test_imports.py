"""Every name a module of the package imports is read in that module.

The package's __init__ imports names only to re-export them, so it is the
one module left out.
"""

import ast
from pathlib import Path

import pytest

import sitcalc

MODULES = sorted(
    p for p in Path(sitcalc.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never loaded, in source order."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in sorted(bound.items(), key=lambda kv: kv[1])
        if name not in read
    ]


def test_the_scan_sees_every_kind_of_read():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from typing import Optional, Sequence\n"
        "def f(x: Optional[int]) -> str:\n"
        "    return os.path.join(str(x))\n"
    )
    assert unused_imports(source) == ["line 3: j", "line 4: Sequence"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
