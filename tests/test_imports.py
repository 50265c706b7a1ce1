"""No module of calibkit imports a name it never uses.

The only exemptions are the lookup sites `bench/tracer.py` wraps: a module
may import a function only so that the tracer can replace it there. The
sites are read from the tracer's `TARGETS`, so when the benchmark drops a
site, this test names the import that is left to delete.
"""

import ast
from pathlib import Path

import pytest

from test_bench_tracer import load_tracer

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "calibkit"
# The package's __init__ imports its public names in order to export them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def tracer_sites() -> set[tuple[str, str]]:
    return {(module, attr) for _, attr, *modules in load_tracer().TARGETS for module in modules}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in `source` and never read.

    Only names in Load context count as uses, so a dataclass field or an
    assignment target with the same name as an import does not.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    used = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in used]


def test_detects_unused_and_ignores_stores():
    source = "import os\nfrom a import b, c as d\nfrom __future__ import annotations\nclass R:\n    b: int\nd()\n"
    assert unused_imports(source) == ["os", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    sites = tracer_sites()
    unused = [name for name in unused_imports(path.read_text()) if (f"calibkit.{path.stem}", name) not in sites]
    assert unused == []
