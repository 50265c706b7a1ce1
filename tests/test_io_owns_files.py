"""Only `calibkit.io` opens files or formats the 9-significant-digit tables.

Every other module hands its rows and documents to `io`, so each file format
has one owner and one place to change.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "calibkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "io.py")


def file_format_sites(source: str) -> list[str]:
    """Each `open(...)`/`x.open(...)` call and `.9g` format spec in `source`, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "open":
                found.append((node.lineno, "open"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and ".9g" in node.value:
            found.append((node.lineno, ".9g"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_detects_open_calls_and_9g_specs():
    source = (
        'with open(p, "w") as fh:\n'
        '    fh.write(f"{x:.9g},{y}")\n'
        "Path(p).open()\n"
        'format(z, ".9g")\n'
        "opener = open\n"
    )
    assert file_format_sites(source) == ["line 1: open", "line 2: .9g", "line 3: open", "line 4: .9g"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_io_touches_files(path):
    assert file_format_sites(path.read_text()) == []
