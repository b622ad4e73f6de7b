"""The package keeps to the standard library, exports what its readers use
and holds no code that only tests reach."""

import ast
import sys
from pathlib import Path

import roadmatch

PACKAGE = Path(roadmatch.__file__).resolve().parent
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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


def names_used(paths):
    """Every name the files read: Name ids, Attribute names and the names
    of ``from ... import`` statements."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def definitions(path: Path):
    """(qualified name, name) of the file's top-level functions and classes
    and of their non-dunder methods."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            methods = (item.name for item in node.body if isinstance(item, functions))
            for name in methods:
                if not (name.startswith("__") and name.endswith("__")):
                    yield f"{node.name}.{name}", name


def test_every_definition_has_a_package_caller():
    # Code that only tests call belongs in tests/conftest.py.
    sources = sorted(PACKAGE.glob("*.py"))
    scripts = sorted(SCRIPTS.glob("*.py"))
    assert sources and scripts
    used = names_used(sources + scripts) | set(roadmatch.__all__)
    unused = [
        f"{path.name}: {qualified}"
        for path in sources
        for qualified, name in definitions(path)
        if name not in used
    ]
    assert not unused


def test_every_exported_name_resolves():
    assert roadmatch.__all__
    for name in roadmatch.__all__:
        assert getattr(roadmatch, name) is not None, name


def test_benchmark_names_exported():
    # The names perfbench/ reads from the package as ``rm.<name>``.
    read = {"EmbeddedGraph", "emit_erg", "gen_irregular_grid", "perturb", "verify_conformal"}
    assert read <= set(roadmatch.__all__)


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme[readme.index("## Library") :]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "gen_irregular_grid(30, 30" in example
    scope = {}
    exec(example, scope)
    assert scope["ok"], scope["why"]
    assert scope["result"].pairs
