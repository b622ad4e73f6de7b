"""The package keeps to the standard library, exports what its readers use
and holds no code that only tests reach."""

import ast
import importlib.util
import sys
from pathlib import Path

import roadmatch
import roadmatch.cli

PACKAGE = Path(roadmatch.__file__).resolve().parent
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
PERFBENCH = SCRIPTS.parent / "perfbench"


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


def test_benchmark_workloads_run_at_toy_size(tmp_path, monkeypatch):
    # What perfbench/ relies on beyond those names: make_pair builds
    # EmbeddedGraph(rotation, coords, d_max=...) and reads perturb's
    # truth.mapping; run.py matches through cli.dispatch and reads the
    # file back with cli.parse_matching.
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, workloads)  # for its dataclass
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing written there
    spec.loader.exec_module(workloads)
    assert workloads.WORKLOADS
    for wl in workloads.WORKLOADS.values():
        g1, g2, truth = workloads.make_pair(
            roadmatch, wl, workloads.DEFAULT_SEED, workloads.TOY_ROWS, workloads.TOY_COLS
        )
        assert truth
        paths = [tmp_path / "g1.erg", tmp_path / "g2.erg"]
        for path, g in zip(paths, (g1, g2)):
            path.write_text(roadmatch.emit_erg(g), encoding="utf-8")
        out = tmp_path / "match.txt"
        argv = ["match", *map(str, paths), *wl.match_flags, "-o", str(out)]
        assert roadmatch.cli.dispatch(argv) == 0, wl.name
        pairs, u1, u2, stats = roadmatch.cli.parse_matching(out.read_text(encoding="utf-8"))
        assert pairs and "k" in stats, wl.name
        assert len(pairs) + len(u1) == g1.vertex_count, wl.name
        assert roadmatch.verify_conformal(g1, g2, pairs)[0], wl.name


def test_benchmark_tracer_targets(monkeypatch):
    # The names perfbench/spans.py patches and finds gone.  A target that
    # disappears blinds its per-layer readings while every other test
    # passes, so a change that loses or restores one updates this list.
    name = "perfbench_spans"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing written there
    spec.loader.exec_module(spans)
    tracer = spans.Tracer(True)
    tracer.install()
    try:
        assert tracer.missing == [
            "roadmatch.matcher.label_nodes",
            "roadmatch.seed_index.label_nodes",
            "roadmatch.matcher.max_cross_product",
            "roadmatch.matcher.build_seed_index",
            "roadmatch.matcher.MatchState.abort_trial",
            "roadmatch.seed_index.SeedIndex.remove_vertex",
            "roadmatch.seed_index.SeedIndex.add_vertex",
            "roadmatch.veb.VebTree.insert",
            "roadmatch.veb.VebTree.delete",
            "roadmatch.veb.VebTree.min",
            "roadmatch.veb.VebTree.contains",
            "roadmatch.matcher.pair_admissible",
            "roadmatch.matcher.MatchState.commit_trial",
        ]
    finally:
        tracer.uninstall()


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme[readme.index("## Library") :]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "gen_irregular_grid(30, 30" in example
    scope = {}
    exec(example, scope)
    assert scope["ok"], scope["why"]
    assert scope["result"].pairs
