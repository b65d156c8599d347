"""The names ``bench/`` pins in ``src/`` still resolve, and ``src/`` imports
nothing it does not use.

A simplicity PR deletes names, and ``bench/`` may not be edited by the PR
that does (BENCHMARK.json lists it under ``paths``), so a deleted name the
benchmark still imports fails only after the PR is gone.  This reads
``bench/*.py`` by :mod:`ast`, without importing or touching it, and checks
every name it takes from ``repro`` against the package as it is now.  The
second half does by AST what ``ruff`` (absent from the builder's container)
does in CI: no unused import under ``src/repro``.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted((ROOT / "bench").glob("*.py"))
SOURCE_FILES = sorted((ROOT / "src" / "repro").rglob("*.py"))


def resolve(module_name, path=""):
    """``module_name``'s attribute at dotted ``path``; a submodule counts."""
    owner = importlib.import_module(module_name)
    for attr in filter(None, path.split(".")):
        try:
            owner = getattr(owner, attr)
        except AttributeError:
            owner = importlib.import_module(f"{owner.__name__}.{attr}")
    return owner


def repro_imports(tree):
    """``(line, module, name, bound as)`` of every ``from repro... import``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            for alias in node.names:
                yield node.lineno, node.module, alias.name, alias.asname or alias.name


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_every_name_the_bench_takes_from_repro_resolves(path):
    tree = ast.parse(path.read_text())
    modules = {}
    for line, module, name, bound in repro_imports(tree):
        try:
            found = resolve(module, name)
        except (ImportError, AttributeError) as exc:
            pytest.fail(f"{path.name}:{line}: from {module} import {name}: {exc}")
        if isinstance(found, type(ast)):
            modules[bound] = found
    # ``report.write_report(...)``: attributes read off an imported module.
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            assert hasattr(modules[node.value.id], node.attr), (
                f"{path.name}:{node.lineno}: {node.value.id}.{node.attr} is gone"
            )


def test_every_span_patch_target_resolves():
    """``bench/spans.py: PATCHES`` rebinds ``(module, attribute path)`` pairs
    by name at run time; a renamed function would fail only in a traced run."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    (patches,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and node.target.id == "PATCHES"
    ]
    targets = [ast.literal_eval(entry)[:2] for entry in patches.elts]
    assert len(targets) >= 15
    for module, attribute_path in targets:
        assert callable(resolve(module, attribute_path)), (module, attribute_path)


def test_the_plan_probe_call_shape_still_works():
    """``bench/probes.py`` times ``compile_plan(grid, neighbor_table(grid),
    a, b, 4)``: two names, five positional arguments."""
    from repro.topology import topology_from_name
    from repro.util.geometry import MeshGeometry
    from repro.vectorized.plans import compile_plan, neighbor_table

    grid = topology_from_name("mesh", MeshGeometry(4, 4))
    neighbors = neighbor_table(grid)
    plan = compile_plan(grid, neighbors, 0, 15, 4)
    assert plan.nodes == (0, 1, 2, 3, 7, 11, 15)
    source = (ROOT / "bench" / "probes.py").read_text()
    assert "compile_plan(grid, neighbors, a, b, 4)" in source  # else drop this test


# -- no unused import under src/repro ------------------------------------------


def annotation_names(tree):
    """Names inside string annotations (``"TrafficSource | None"``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for inner in ast.walk(quoted):
                if isinstance(inner, ast.Name):
                    yield inner.id


def unused_imports(path):
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(annotation_names(tree))
    for node in tree.body:  # a name listed in ``__all__`` is a re-export
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.asname == alias.name:  # ``import X as X``: a re-export
                continue
            if bound not in used and alias.name != "*":
                yield f"{path.relative_to(ROOT)}:{node.lineno}: {bound}"


def test_src_imports_nothing_it_does_not_use():
    assert SOURCE_FILES
    unused = [finding for path in SOURCE_FILES for finding in unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)
