"""Source checks that need no linter: every module-level import in the
library is used.

A name counts as used when it occurs as a name anywhere in its module
(calls, attribute bases, annotations).  ``__init__.py`` re-exports by
importing, so it is left out, and so is ``from __future__ import ...``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "c0cover"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - used)


def test_the_guard_sees_an_unused_import():
    assert unused_imports("import json\nfrom typing import Mapping, Sequence\nx: Sequence = json.loads('[]')\n") == [
        "Mapping"
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text()) == []
