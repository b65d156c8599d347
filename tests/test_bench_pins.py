"""The names ``bench/`` pins in ``src/`` still resolve, and ``src/`` imports
nothing it does not use.

A simplicity PR deletes names, and ``bench/`` may not be edited by the PR
that does (BENCHMARK.json lists it under ``paths``), so a deleted name the
benchmark still imports fails only after the PR is gone.  This reads
``bench/*.py`` by :mod:`ast`, without importing or touching it, and checks
every name it takes from ``repro`` against the package as it is now.  The
second half does by AST what ``ruff`` (absent from the builder's container)
does in CI: no unused import under ``src/repro``.  The third is the rule no
linter has: module-level state under ``src/repro`` is a short list of named
caches and registries, and the next one has to be added to it by name.  The
last is a census of config fields, so a new option is a visible edit here.
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


# -- module-level state is a named list ----------------------------------------

#: Every module-level container under ``src/repro`` that code fills or
#: edits: two registries and a policy table written at import, two memos
#: keyed by pure inputs (each bounded or per-grid, see where it is defined)
#: and the campaign matrix memo.  All other module-level containers are
#: tables written once, where they are defined.
NAMED_STATE = {
    "fabric/registry.py": {"_REGISTRY"},
    "harness/experiments/splash2_runs.py": {"_CACHE"},
    "topology/policies.py": {"_POLICIES"},
    "topology/registry.py": {"_REGISTRY"},
    "vectorized/network.py": {"_PLAN_CACHES"},
    "vectorized/traffic.py": {"_PHILOX_MEMO"},
}
CONTAINER_MAKERS = {
    "dict", "list", "set", "bytearray", "defaultdict", "deque", "Counter",
    "OrderedDict", "WeakValueDictionary", "WeakKeyDictionary", "WeakSet",
}
MUTATORS = {
    "add", "append", "appendleft", "clear", "discard", "extend", "insert", "pop",
    "popitem", "popleft", "remove", "setdefault", "update",
}


def called_name(node):
    function = node.func
    return getattr(function, "id", getattr(function, "attr", None))


def module_level_containers(tree):
    """``{name: born empty}`` of the containers a module binds at top level."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if isinstance(value, (ast.Dict, ast.List, ast.Set)):
            empty = not (value.keys if isinstance(value, ast.Dict) else value.elts)
        elif isinstance(value, (ast.DictComp, ast.ListComp, ast.SetComp)):
            empty = False
        elif isinstance(value, ast.Call) and called_name(value) in CONTAINER_MAKERS:
            # ``defaultdict(list)`` is as empty as ``{}``; ``set(x)`` is a copy.
            empty = all(isinstance(arg, ast.Name) and arg.id in CONTAINER_MAKERS
                        for arg in value.args) and not value.keywords
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                found[target.id] = empty
    return found


def edited_names(tree):
    """Names a module stores into, deletes from or calls a mutator on."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            if isinstance(node.value, ast.Name):
                yield node.value.id
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS
            and isinstance(node.func.value, ast.Name)
        ):
            yield node.func.value.id
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def module_state(path):
    tree = ast.parse(path.read_text())
    containers = module_level_containers(tree)
    edited = set(edited_names(tree))
    return {name for name, empty in containers.items() if empty or name in edited}


def test_module_level_state_is_the_named_list():
    """A container born empty at module level, or edited by its module, is
    process-wide state: one test's run reaches the next through it.  The
    ones that exist are named above with why they are safe."""
    package = ROOT / "src" / "repro"
    found = {
        str(path.relative_to(package)): state
        for path in SOURCE_FILES
        if (state := module_state(path))
    }
    assert found == NAMED_STATE


def test_the_state_scan_sees_what_it_should(tmp_path):
    """The canary: each shape of state is seen, a constant table is not."""
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from collections import defaultdict\n"
        "TABLE = {'a': 1}\n"
        "NAMES = ['a']\n"
        "_MEMO: dict[int, int] = {}\n"
        "_BY_KIND = defaultdict(list)\n"
        "_SEEN = set()\n"
        "def f(x):\n"
        "    NAMES.append(x)\n"
        "    local = {}\n"
        "    local[x] = TABLE[x]\n"
    )
    assert module_state(sample) == {"NAMES", "_MEMO", "_BY_KIND", "_SEEN"}


# -- every config field is a knob someone chose --------------------------------

#: The fields of each registered config type, in declaration order.  A
#: design-space search enumerates them, so each one is a dimension; a new
#: one is added here together with the figure or experiment that sets it.
#: The Table 2 rows no figure varies are constants of
#: ``repro.electrical.config``, not fields.
_OPTICAL_FIELDS = (
    "mesh", "topology", "max_hops_per_cycle", "buffer_entries",
    "nic_buffer_entries", "payload_wdm", "crossing_efficiency",
    "retry_penalty_cycles", "backoff_cap_log2", "packet_bits", "seed",
)
CONFIG_FIELDS = {
    "electrical": (
        "mesh", "topology", "num_vcs", "router_delay_cycles",
        "nic_buffer_entries", "packet_bits",
    ),
    "ideal": ("mesh", "topology", "cycles_per_hop", "nic_buffer_entries", "packet_bits"),
    "phastlane": _OPTICAL_FIELDS + ("network_arbitration",),
    "vectorized": _OPTICAL_FIELDS + ("mode",),
}


def test_every_config_field_is_in_the_census():
    from dataclasses import fields

    from repro.fabric import config_type_for, registered_backends

    assert {
        kind: tuple(field_.name for field_ in fields(config_type_for(kind)))
        for kind in registered_backends()
    } == CONFIG_FIELDS


# -- the strict-mypy packages are fully annotated --------------------------------


def strict_mypy_files():
    """Source files of the ``[[tool.mypy.overrides]]`` entry of
    ``pyproject.toml`` that sets ``disallow_untyped_defs``."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    overrides = tomllib.loads((ROOT / "pyproject.toml").read_text())["tool"]["mypy"][
        "overrides"
    ]
    (strict,) = [entry for entry in overrides if entry.get("disallow_untyped_defs")]
    files = []
    for module in strict["module"]:
        relative = module.removesuffix(".*").replace(".", "/")
        found = (
            sorted((ROOT / "src" / relative).rglob("*.py"))
            if module.endswith(".*")
            else [ROOT / "src" / f"{relative}.py"]
        )
        assert found and all(path.is_file() for path in found), module
        files += found
    return files


def unannotated_defs(path):
    """``file:line: def name: what is missing``, as ``mypy``'s
    ``disallow_untyped_defs`` and ``disallow_incomplete_defs`` would find it:
    every parameter but a method's ``self``/``cls`` and the return, which
    only an ``__init__`` with an annotated parameter may leave out."""
    tree = ast.parse(path.read_text())
    methods = {
        id(node)
        for owner in ast.walk(tree) if isinstance(owner, ast.ClassDef)
        for node in owner.body
    }
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        spec = node.args
        positional = spec.posonlyargs + spec.args
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        if id(node) in methods and not static:
            positional = positional[1:]
        parameters = positional + spec.kwonlyargs + [
            arg for arg in (spec.vararg, spec.kwarg) if arg is not None
        ]
        missing = [arg.arg for arg in parameters if arg.annotation is None]
        bare_init = node.name == "__init__" and parameters and not missing
        if node.returns is None and not bare_init:
            missing.append("return")
        if missing:
            yield (
                f"{path}:{node.lineno}: def {node.name}: "
                f"{', '.join(missing)}"
            )


def test_every_def_in_the_strict_mypy_packages_is_fully_annotated():
    """``mypy`` is not installed where the builder runs; this is the part of
    its strict overrides an AST can hold: no untyped or half-typed ``def``."""
    findings = [
        finding for path in strict_mypy_files() for finding in unannotated_defs(path)
    ]
    assert not findings, "unannotated defs:\n" + "\n".join(findings)


def test_the_annotation_scan_sees_what_it_should(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "class A:\n"
        "    def __init__(self, x: int):\n"
        "        def inner(y): return y\n"
        "    def __repr__(self): return ''\n"
        "    def typed(self, *rest: int, **more: int) -> None: ...\n"
        "    @staticmethod\n"
        "    def free(x) -> int: return x\n"
        "def f(a: int, b=0, *, c) -> int: return a\n"
    )
    found = [line.split(": def ")[1] for line in unannotated_defs(sample)]
    assert sorted(found) == sorted(
        ["inner: y, return", "__repr__: return", "free: x", "f: b, c"]
    )
