"""The package keeps to the standard library."""

import ast
import sys
from pathlib import Path

import roadmatch

PACKAGE = Path(roadmatch.__file__).resolve().parent


def imported_packages(path: Path):
    """Top-level package of every absolute import in the file, nested ones too."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_imports_only_stdlib_and_roadmatch():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = {
        (path.name, name)
        for path in sources
        for name in imported_packages(path)
        if name != "roadmatch" and name not in sys.stdlib_module_names
    }
    assert not foreign
