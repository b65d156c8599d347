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
caches and registries, and the next one has to be added to it by name.  A
layering gate keeps ``repro.sim`` and ``repro.util`` below ``repro.obs`` and
the trace hub free of a per-cycle hook.  The last is a census of config
fields, so a new option is a visible edit here.
"""

import ast
import functools
import importlib
import re
from pathlib import Path

import pytest

from helpers import plan_hops

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
    from repro.topology.registry import topology_from_name
    from repro.util.geometry import MeshGeometry
    from repro.vectorized.plans import compile_plan, neighbor_table

    grid = topology_from_name("mesh", MeshGeometry(4, 4))
    neighbors = neighbor_table(grid)
    plan = compile_plan(grid, neighbors, 0, 15, 4)
    assert plan_hops(plan)[0] == (0, 1, 2, 3, 7, 11, 15)
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


# -- layering: one per-cycle observer, and the leaf packages stay leaves -------


def test_sim_and_util_do_not_import_obs():
    """The simulation kernel and the utilities sit below ``repro.obs``."""
    layered = [
        path
        for package in ("sim", "util")
        for path in sorted((ROOT / "src" / "repro" / package).rglob("*.py"))
    ]
    assert len(layered) >= 10
    upward = []
    for path in layered:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            upward += [
                f"{path.relative_to(ROOT)}:{node.lineno}: {module}"
                for module in modules
                if module == "repro.obs" or module.startswith("repro.obs.")
            ]
    assert not upward, "\n".join(upward)


OBS_FILES = sorted((ROOT / "src" / "repro" / "obs").glob("*.py"))


def runtime_imports(tree):
    """``(line, module, names)`` of every absolute import outside the body
    of an ``if TYPE_CHECKING:`` block (a function-level import counts);
    ``names`` are what a ``from`` import takes, ``()`` for a plain one."""
    typing_only = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING")
        for statement in node.body
        for inner in ast.walk(statement)
    }
    for node in ast.walk(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name, ()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module, tuple(alias.name for alias in node.names)


def foreign_private_reads(tree):
    """``(line, expression)`` of every ``x._name`` whose ``x`` is not
    ``self``, ``cls`` or a class the module defines."""
    own = {"self", "cls"} | {
        node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not node.attr.endswith("__")
            and not (isinstance(node.value, ast.Name) and node.value.id in own)
        ):
            yield node.lineno, ast.unparse(node)


def upward_imports(tree):
    """``(line, module)`` of each run-time import that leaves ``repro.obs``
    and ``repro.sim``.  The one exemption is ``from repro import
    lazy_names``, the lazy-name hook of the package's ``__init__``."""
    for line, module, names in runtime_imports(tree):
        if (module, names) == ("repro", ("lazy_names",)):
            continue
        if module.split(".")[0] == "repro" and module.split(".")[1:2] not in (
            ["obs"], ["sim"]
        ):
            yield line, module


def test_obs_imports_only_obs_and_sim_at_run_time():
    """``repro.obs`` reads simulators through the objects it is handed
    (duck-typed), never by importing them; typing-only imports are free."""
    assert len(OBS_FILES) >= 8
    upward = [
        f"{path.relative_to(ROOT)}:{line}: {module}"
        for path in OBS_FILES
        for line, module in upward_imports(ast.parse(path.read_text()))
    ]
    assert not upward, "\n".join(upward)


def test_obs_reads_no_private_attribute_of_another_object():
    """What ``repro.obs`` audits, it reads through public names: a private
    attribute belongs to the class that owns it."""
    reads = [
        f"{path.relative_to(ROOT)}:{line}: {expression}"
        for path in OBS_FILES
        for line, expression in foreign_private_reads(ast.parse(path.read_text()))
    ]
    assert not reads, "\n".join(reads)


def test_the_layering_scans_see_what_they_should():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "import repro.topology as topology\n"
        "if TYPE_CHECKING:\n"
        "    from repro.harness.exec import RunEvent\n"
        "else:\n"
        "    import repro.fabric\n"
        "class Own:\n"
        "    def f(self, network):\n"
        "        from repro.util import geometry\n"
        "        return self._a, Own._b, network._c, network.d._e, network.__dict__\n"
    )
    assert [module for _, module, _ in runtime_imports(tree)] == [
        "typing", "repro.topology", "repro.fabric", "repro.util",
    ]
    root = ast.parse(
        "from repro import lazy_names\n"
        "from repro import run\n"
        "from repro import lazy_names, ElectricalNetwork\n"
        "import repro\n"
        "from repro.obs import events\n"
    )
    assert list(upward_imports(root)) == [(2, "repro"), (3, "repro"), (4, "repro")]
    assert [expression for _, expression in foreign_private_reads(tree)] == [
        "network._c", "network.d._e",
    ]


def test_no_tracer_is_called_per_cycle():
    """The engine's watcher (an obs session) is the one per-cycle observer:
    the trace hub carries events and nothing else."""
    hooked = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in SOURCE_FILES
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\bon_cycle\b", line)
    ]
    assert not hooked, hooked


# -- module-level state is a named list ----------------------------------------

#: Every module-level container under ``src/repro`` that code fills or
#: edits: two memos keyed by pure inputs (each bounded or per-grid, see
#: where it is defined) and the campaign matrix memo.  All other
#: module-level containers are tables written once, where they are
#: defined — the backend and topology tables among them.
NAMED_STATE = {
    "fabric/base.py": {"_SCHEDULES"},
    "harness/experiments/splash2_runs.py": {"_CACHE"},
    "vectorized/network.py": {"_PLAN_CACHES"},
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


# -- every public name under src/ has a caller in src/ ----------------------------

#: Where a caller may live: the package itself.  What a command reaches is
#: called from here; a name only an example or a benchmark reads is listed in
#: ``REACHED_FROM_OUTSIDE``, and one only tests read in ``UNCALLED``.
CALLER_FILES = SOURCE_FILES
#: The directories outside the package whose readers the census names.
OUTSIDE = ("examples", "bench", "benchmarks")


@functools.cache
def parsed(path):
    """``path``'s syntax tree, parsed once per session: the census reads
    every file under src/ up to five times."""
    return ast.parse(path.read_text())


def files_under(*roots):
    return sorted(path for root in roots for path in (ROOT / root).rglob("*.py"))


#: Public names no caller outside the tests reads, each with why it stays.
#: A name leaves this list when it gets a caller or is deleted with its tests.
UNCALLED = {
    "cli.py:_Parser.error": "argparse's refusal hook",
    "electrical/vctm.py:VirtualCircuitTreeCache.hit_rate": "the Fig 10 "
    "deviation study is to read it",
    "fabric/protocol.py:FabricNic": "the NIC protocol every BaseNic meets, "
    "stated for readers and type checkers",
    "obs/export.py:read_stream": "CI's campaign-report job reads the "
    "stream files back with it",
    "obs/timeseries.py:TimeSeries.column": "the fault-ledger law: window "
    "columns sum to the run's faults and losses (test_faults)",
    "topology/base.py:Topology.is_edge_row": "section 2.1.4's fan-out rule, "
    "which the sweep-count law states",
    "traffic/coherence.py:CoherenceMessageMix.broadcast_fraction": "the "
    "expected value of test_traffic_splash2's broadcast-share law",
}

#: Public names that only examples, the benchmark or the paper assertions
#: reach: ``name: (the directories whose files read it, why)``.  The
#: benchmark's are ROADMAP item 1's: it deletes a name or gives it a caller.
_ITEM_1 = "bench-only; ROADMAP item 1 deletes it"
_BENCH_TOOL = (
    "bench-only; ROADMAP item 1 keeps it as a bench instrument or deletes it"
)
_FIG9_SUMMARY = (
    "the Fig 9 saturation summary: synthetic_sweep prints it, the Fig 9 "
    "assertions and the fig9_sweep checks test the paper's ordering with it"
)
REACHED_FROM_OUTSIDE = {
    "core/routing.py:build_plan": (
        ("bench",), "the oracle's per-call route build, which the route "
        "probe times; " + _ITEM_1 + " from src/"),
    "electrical/islip.py:SwitchAllocator.allocate": (
        ("bench",), "the validating front no run calls; " + _ITEM_1),
    "faults/schedule.py:FaultSchedule.crossing_fault": (
        ("bench",), "the oracle's point query, which probe_faults times; "
        + _ITEM_1 + " from src/"),
    "harness/experiments/fig06.py:Figure6.wdm_independent": (
        ("benchmarks",), "Fig 6's claim that the hop budget ignores WDM"),
    "harness/report.py:figure_to_dict": (
        ("bench",), "the figure payloads the bench checks; " + _BENCH_TOOL),
    "harness/sweeps.py:saturation_rate": (
        ("examples", "bench", "benchmarks"), _FIG9_SUMMARY),
    "harness/sweeps.py:zero_load_latency": (
        ("examples", "bench", "benchmarks"), _FIG9_SUMMARY),
    "obs/analysis.py:read_trace_file": (
        ("bench",), "times the trace parse alone; " + _BENCH_TOOL),
    "obs/analysis.py:reconstruct_spans": (
        ("bench",), "times the span walk alone; " + _BENCH_TOOL),
    "obs/tracers.py:CollectingTracer": (
        ("bench",), "the in-memory tracer whose cost the bench measures; "
        + _BENCH_TOOL),
    "photonics/dse.py:DesignPoint.feasible": (
        ("examples",), "design_space prints the feasible design points"),
    "harness/exec.py:Executor.cache_hits": (
        ("examples", "bench"), "the runs the cache served: the sweep examples "
        "print it, the bench's cache-hit share divides it"),
    "photonics/latency.py:RouterLatencyModel.topology_path_delay_ps": (
        ("examples",), "topology_compare prints mesh vs torus path delay"),
    "photonics/lossbudget.py:LossBudget": (
        ("benchmarks",), "the bottom-up Fig 7 cross-check"),
    "photonics/lossbudget.py:LossBudget.network_peak_power_w": (
        ("benchmarks",), "the bottom-up Fig 7 cross-check"),
    "photonics/power.py:PeakPowerPoint.reasonable": (
        ("benchmarks",), "Fig 7's feasibility claims"),
    "topology/registry.py:policy_by_name": (
        ("bench",), "the route probe's policy; " + _ITEM_1),
    "util/plot.py:render_heatmap": (
        ("examples",), "the drop and congestion examples draw the mesh"),
    "vectorized/config.py:as_phastlane": (
        ("bench",), "the exact-mode twin; " + _ITEM_1 + " with item 2's fork"),
    "vectorized/plans.py:neighbor_table": (
        ("bench",), "the route probe's line tables; " + _ITEM_1),
}


def public_definitions(tree):
    """``(line, name)`` of each public top-level def and class, and of each
    public method of a top-level class as ``Class.method``."""
    defining = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defining):
            continue
        if not node.name.startswith("_"):
            yield node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            for inner in node.body:
                if isinstance(inner, defining[:2]) and not inner.name.startswith("_"):
                    yield inner.lineno, f"{node.name}.{inner.name}"


def definitions(sources, package):
    """``{prefix: names}`` of what ``sources`` define: each module's
    top-level defs and classes under its dotted name, and each top-level
    class's methods under the class name."""
    defined = {}
    for path in sources:
        names = defined.setdefault(module_of(path, package), set())
        for node in parsed(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined.setdefault(node.name, set()).update(
                    inner.name for inner in node.body
                    if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
    return defined


def referenced_names(path, defined):
    """``(name, member)`` of each name ``path`` reads: a bare name
    (``member`` false), or an attribute, the last part of a dotted string
    whose prefix names a module or class in ``defined`` that defines it
    (a backend table row, a patched method), or the name a
    ``getattr``/``hasattr`` call reads (``member`` true).  An import, a
    bare-word string (a table header, a multiprocessing context), a dotted
    string whose prefix defines nothing of that name (a span or metric
    name) and a string in a package ``__init__`` (its re-export lists) are
    no reference."""
    for node in ast.walk(parsed(path)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, False
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, True
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and path.name != "__init__.py"
            and re.fullmatch(r"\w+(\.\w+)+", node.value)
        ):
            prefix, _, last = node.value.rpartition(".")
            if last in defined.get(prefix, ()):
                yield last, True
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in ("getattr", "hasattr")
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            yield node.args[1].value, True


def module_of(path, package):
    """The dotted module name of ``path`` under ``package``'s parent."""
    parts = path.relative_to(package.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def dotted(node):
    """``a.b.c`` for a chain of attribute reads on a name, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        inner = dotted(node.value)
        return None if inner is None else f"{inner}.{node.attr}"
    return None


def qualified_reads(path):
    """``(imported, reads)`` of ``path``: the ``(module, name)`` pairs it
    imports by name, and the ``(module, name)`` pairs it reads through a
    module: ``fig10.compute`` after ``from ... import fig10``, through a
    name indexed out of a literal table of modules (``figure =
    {"fig04": fig04, ...}[name]`` reads ``figure.compute`` from each), or a
    dotted string such as a backend table row (not in a package
    ``__init__``)."""
    tree = parsed(path)
    bound, imported, reads = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = alias.name
                else:
                    top = alias.name.partition(".")[0]
                    bound[top] = top
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                imported.add((node.module, alias.name))
    tables = {head: [module] for head, module in bound.items()}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and [type(target) for target in node.targets] == [ast.Name]
            and isinstance(node.value, ast.Subscript)
            and isinstance(node.value.value, ast.Dict)
        ):
            rows = [
                bound.get(getattr(row, "id", None)) for row in node.value.value.values
            ]
            if all(rows):
                tables[node.targets[0].id] = rows
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            chain = dotted(node.value)
            if chain is not None:
                head, _, rest = chain.partition(".")
                for module in tables.get(head, ()):
                    reads.add((".".join(filter(None, (module, rest))), node.attr))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and path.name != "__init__.py"
            and re.fullmatch(r"[\w.]+\.\w+", node.value)
        ):
            reads.add(tuple(node.value.rsplit(".", 1)))
    return imported, reads


def uncalled_names(sources, callers, package=ROOT / "src" / "repro"):
    """``file:name`` of each public definition in ``sources`` that no file
    in ``callers`` reads.  A method is read as an attribute or as a part of
    a dotted string, never as a bare name: a loop variable ``column`` calls
    no ``TimeSeries.column``.  A top-level def or class is read only in its
    own module, through its module (``fig10.compute``, a dotted table row),
    or as a name imported from its module or from a package above it: a
    namesake in another module is no caller."""
    defined = definitions(sources, package)
    references = {path: set(referenced_names(path, defined)) for path in callers}
    names_read = {
        path: {name for name, _ in found} for path, found in references.items()
    }
    qualified = {path: qualified_reads(path) for path in callers}
    members_read = {
        name for found in references.values() for name, member in found if member
    }
    for path in sources:
        module = module_of(path, package)
        homes = {module}
        while "." in module:
            module = module.rpartition(".")[0]
            homes.add(module)
        module = module_of(path, package)
        for _, name in public_definitions(parsed(path)):
            owner, _, last = name.rpartition(".")
            if owner:
                called = last in members_read
            else:
                called = any(
                    (module, name) in reads
                    or name in names_read[caller]
                    and (caller == path or any((h, name) in imported for h in homes))
                    for caller, (imported, reads) in qualified.items()
                )
            if not called:
                yield f"{path.relative_to(package)}:{name}"


def test_every_public_name_under_src_has_a_caller():
    """A public def, class or method that nothing in the package reads is
    surface no command reaches: it gets a caller, goes with its tests, or
    is listed with why it stays, in ``UNCALLED`` if only tests read it and
    in ``REACHED_FROM_OUTSIDE`` if an example or a benchmark does.  The two
    lists partition what the census finds."""
    found = set(uncalled_names(SOURCE_FILES, CALLER_FILES))
    assert set(UNCALLED).isdisjoint(REACHED_FROM_OUTSIDE)
    listed = set(UNCALLED) | set(REACHED_FROM_OUTSIDE)
    assert found == listed, (
        f"uncalled, not listed: {sorted(found - listed)}; "
        f"listed, now called or gone: {sorted(listed - found)}"
    )


def test_only_tests_read_an_uncalled_name():
    """With examples, ``bench/`` and ``benchmarks/`` read as callers too,
    every ``REACHED_FROM_OUTSIDE`` name drops out and every ``UNCALLED`` one
    stays: no entry of either list hides where its readers are."""
    found = set(uncalled_names(SOURCE_FILES, CALLER_FILES + files_under(*OUTSIDE)))
    assert found == set(UNCALLED)


@pytest.mark.parametrize("outside", OUTSIDE)
def test_each_outside_entry_names_the_directories_that_reach_it(outside):
    found = set(uncalled_names(SOURCE_FILES, CALLER_FILES + files_under(outside)))
    claimed = {
        name for name, (roots, _) in REACHED_FROM_OUTSIDE.items() if outside in roots
    }
    assert claimed.isdisjoint(found), f"not reached from {outside}/"
    assert set(REACHED_FROM_OUTSIDE) - claimed <= found, f"{outside}/ unnamed"


def test_the_caller_census_sees_what_it_should(tmp_path):
    """The canary: a name read as a name, an attribute, a dotted string or
    through a literal table of modules is called; a name only defined,
    imported or re-exported is not, nor one whose only reader never imports
    its module, nor a method whose name only a local variable, a bare-word
    string or the last part of a span name (a dotted string whose prefix
    defines nothing) shares; a ``getattr`` name is read, and so is a method
    named through its class in a dotted string."""
    (package := tmp_path / "pkg").mkdir()
    (defining := package / "defining.py").write_text(
        "class Shape:\n"
        "    def area(self): ...\n"
        "    def _private(self): ...\n"
        "    def unused(self): ...\n"
        "    def probed(self): ...\n"
        "    def headed(self): ...\n"
        "    def spanned(self): ...\n"
        "    def patched(self): ...\n"
        "def called(): ...\n"
        "def dotted(): ...\n"
        "def exported(): ...\n"
        "def imported(): ...\n"
        "def upward(): ...\n"
        "def namesake(): ...\n"
        "def own(): ...\n"
        "def tabled(): ...\n"
        "def _helper(): ...\n"
        "own()\n"
    )
    (calling := package / "calling.py").write_text(
        "import pkg.defining\n"
        "from pkg import defining\n"
        "from pkg.defining import Shape, imported\n"
        "from pkg import upward\n"
        "TABLE = {'row': 'pkg.defining.dotted'}\n"
        "pkg.defining.called()\n"
        "Shape().area()\n"
        "upward()\n"
        "module = {'d': defining}['d']\n"
        "module.tabled()\n"
        "for unused in range(2):\n"
        "    print(unused)\n"
        "HEADER = ['headed', 'rows']\n"
        "getattr(Shape(), 'probed', None)\n"
        "SPANS = {'Shape.patched': 'layer.calling.spanned'}\n"
    )
    (other := package / "other.py").write_text(
        "def namesake(): ...\nnamesake()\n"
    )
    (reexport := package / "__init__.py").write_text(
        "from pkg.defining import exported, upward\n"
        "__all__ = ['exported', 'upward']\n"
    )
    callers = [defining, calling, other, reexport]
    found = set(uncalled_names([defining, other], callers, package))
    assert found == {
        f"defining.py:{name}"
        for name in ("Shape.unused", "Shape.headed", "Shape.spanned",
                     "exported", "imported", "namesake")
    }


# -- src/ is what runs: every module is one the package loads -------------------

#: Modules that load without another module of the package importing them:
#: the façade, ``python -m repro`` and the CLI it runs.
ENTRY_POINTS = {"repro", "repro.__main__", "repro.cli"}
#: Modules that only files outside the package import:
#: ``module: (the directories whose files import it, why it ships)``.
IMPORTED_FROM_OUTSIDE = {
    "repro.core.routing": (
        ("bench",), "build_plan, the oracle's per-call route build, which the "
        "route probe times; ROADMAP item 1 re-points the probe, and the "
        "module joins tests/oracle"),
    "repro.photonics.lossbudget": (
        ("benchmarks",), "the bottom-up Fig 7 cross-check the paper "
        "assertions read; the calibrated model prices every launch"),
}
#: The reference oracle: the section 2 simulator only tests build.
ORACLE_FILES = sorted((ROOT / "tests" / "oracle").glob("*.py"))


def imported_modules(path):
    """The dotted names ``path`` loads: each name an import statement
    takes (``from package import module`` included), each dotted string (a
    backend table row, a lazy name's home), and every package above them."""
    for node in ast.walk(parsed(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and re.fullmatch(r"\w+(\.\w+)+", node.value)
        ):
            names = [node.value]
        else:
            continue
        for name in names:
            while name:
                yield name
                name = name.rpartition(".")[0]


def unimported_modules(sources, package):
    """The modules of ``sources`` that no other file of ``sources`` loads."""
    modules = {path: module_of(path, package) for path in sources}
    loaded = {
        name
        for path in sources
        for name in imported_modules(path)
        if name != modules[path]
    }
    return set(modules.values()) - loaded


def test_every_module_under_src_is_loaded_by_the_package():
    """A module nothing in the package imports is code no command runs: it
    moves to where its readers are, or is listed with why it ships."""
    found = unimported_modules(SOURCE_FILES, ROOT / "src" / "repro") - ENTRY_POINTS
    assert found == set(IMPORTED_FROM_OUTSIDE)
    for module, (roots, _) in IMPORTED_FROM_OUTSIDE.items():
        readers = [
            path for path in files_under(*roots) if module in set(imported_modules(path))
        ]
        assert readers, f"{module}: no file under {roots} imports it"


def test_the_oracle_and_the_package_do_not_import_each_other():
    """The oracle is an independent statement of section 2 (ROADMAP,
    Decided): it reads nothing of the kernel it proves, and nothing in the
    package reads it."""
    assert len(ORACLE_FILES) >= 7
    kernel = [path.name for path in ORACLE_FILES
              if "repro.vectorized" in set(imported_modules(path))]
    assert not kernel, kernel
    shipped = [str(path.relative_to(ROOT)) for path in SOURCE_FILES
               if "oracle" in set(imported_modules(path))]
    assert not shipped, shipped


def test_the_module_scan_sees_what_it_should(tmp_path):
    """The canary: a module imported by a statement, through its package,
    by a dotted string or as the package above one is loaded; one only
    naming itself is not, nor an entry point nobody imports."""
    (package := tmp_path / "pkg").mkdir()
    (package / "sub").mkdir()
    files = {
        "__init__.py": "",
        "__main__.py": "from pkg import used\nimport pkg.sub.leaf\n",
        "used.py": "ROWS = {'a': 'pkg.tabled.Thing'}\n",
        "tabled.py": "class Thing: ...\n",
        "orphan.py": "from pkg.used import ROWS\nSELF = 'pkg.orphan.SELF'\n",
        "sub/__init__.py": "",
        "sub/leaf.py": "def later():\n    from repro.vectorized.plans import PlanTable\n",
    }
    for name, source in files.items():
        (package / name).write_text(source)
    sources = sorted(package.rglob("*.py"))
    assert unimported_modules(sources, package) == {"pkg.__main__", "pkg.orphan"}
    loads = {path.name: set(imported_modules(path)) for path in sources}
    assert "repro.vectorized" in loads["leaf.py"]
    assert "pkg.tabled" in loads["used.py"]
    assert "repro.vectorized" not in loads["orphan.py"]


# -- every config field is a knob someone chose --------------------------------

#: The fields of each registered config type, in declaration order.  A
#: design-space search enumerates them, so each one is a dimension; a new
#: one is added here together with the figure or experiment that sets it.
#: The Table 1/2 rows no figure varies are constants, not fields
#: (``harness.exec.RETIRED_KEYS`` keeps them on the wire).
_OPTICAL_FIELDS = ("mesh", "topology", "max_hops_per_cycle", "buffer_entries")
CONFIG_FIELDS = {
    "electrical": ("mesh", "topology", "num_vcs", "router_delay_cycles"),
    "ideal": ("mesh", "topology", "cycles_per_hop"),
    "phastlane": _OPTICAL_FIELDS + ("network_arbitration",),
    "vectorized": _OPTICAL_FIELDS + ("mode",),
}


def registered_fields():
    from dataclasses import fields

    from repro.fabric.registry import BACKENDS, config_type_for

    return {
        kind: tuple(field_.name for field_ in fields(config_type_for(kind)))
        for kind in BACKENDS
    }


def test_every_config_field_is_in_the_census():
    assert registered_fields() == CONFIG_FIELDS


#: The fault-model fields: those the CLI, ``examples/fault_sweep.py`` and
#: ``bench/`` set.  The knobs no run set are constants
#: (``repro.faults.config.RETIRED_FAULT_KEYS`` keeps them on the wire).
FAULT_FIELDS = (
    "seed",
    "dead_ports",
    "dead_port_count",
    "link_flip_prob",
    "burst_enter_prob",
    "retry_limit",
)


def test_every_fault_config_field_is_in_the_census():
    from dataclasses import fields

    from repro.faults.config import RETIRED_FAULT_KEYS, FaultConfig

    assert tuple(field_.name for field_ in fields(FaultConfig)) == FAULT_FIELDS
    assert not set(RETIRED_FAULT_KEYS) & set(FAULT_FIELDS)


#: The observability fields: each is filled by one CLI flag (the rows of
#: ``repro.cli._FLAGS``), so each is a dimension a campaign search covers.
OBS_FIELDS = (
    "trace_path",
    "trace_sample",
    "metrics_interval",
    "spatial",
    "health",
    "health_interval",
    "health_stall_windows",
    "stream_path",
)


def test_every_obs_config_field_is_in_the_census():
    from dataclasses import fields

    from repro.obs.config import ObsConfig

    assert tuple(field_.name for field_ in fields(ObsConfig)) == OBS_FIELDS


#: Settable values per package (a top-level module counts as its own):
#: parameters with a default plus dataclass fields with a default.  Each is
#: a dimension a design-space search enumerates, so a value no run sets is
#: a constant; a new one is added here together with its caller.
SETTABLE_VALUES = {
    "cli.py": 2,
    "core": 8,
    "electrical": 20,
    "fabric": 17,
    "faults": 6,
    "harness": 46,
    "obs": 75,
    "photonics": 18,
    "sim": 24,
    "traffic": 10,
    "util": 13,
    "vectorized": 11,
}


def settable_values(path):
    """``name(parameter)`` or ``Class.field`` of each settable value in
    ``path``: a parameter with a default, a dataclass field with a default
    (a ``ClassVar`` is no field)."""

    def is_dataclass(node):
        return any(
            getattr(getattr(d, "func", d), "id", None) == "dataclass"
            or getattr(getattr(d, "func", d), "attr", None) == "dataclass"
            for d in node.decorator_list
        )

    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            spec = node.args
            positional = spec.posonlyargs + spec.args
            defaulted = positional[len(positional) - len(spec.defaults):] + [
                arg
                for arg, default in zip(spec.kwonlyargs, spec.kw_defaults)
                if default is not None
            ]
            yield from (f"{node.name}({arg.arg})" for arg in defaulted)
        elif isinstance(node, ast.ClassDef) and is_dataclass(node):
            for item in node.body:
                if (
                    isinstance(item, ast.AnnAssign)
                    and item.value is not None
                    and isinstance(item.target, ast.Name)
                    and "ClassVar" not in ast.unparse(item.annotation)
                ):
                    yield f"{node.name}.{item.target.id}"


def test_settable_values_per_package_are_pinned():
    package = ROOT / "src" / "repro"
    counts = {}
    for path in SOURCE_FILES:
        key = path.relative_to(package).parts[0]
        if found := len(list(settable_values(path))):
            counts[key] = counts.get(key, 0) + found
    assert counts == SETTABLE_VALUES


def test_the_settable_census_sees_what_it_should(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar\n"
        "@dataclass(frozen=True)\n"
        "class Spec:\n"
        "    cycles: int\n"
        "    seed: int = 1\n"
        "    tags: list = field(default_factory=list)\n"
        "    KINDS: ClassVar[int] = 3\n"
        "class Plain:\n"
        "    width: int = 4\n"
        "    def __init__(self, a, b=2, *, c, d=None): ...\n"
        "def f(x, /, y=0, *rest, **more): ...\n"
    )
    assert sorted(settable_values(sample)) == sorted(
        ["Spec.seed", "Spec.tags", "__init__(b)", "__init__(d)", "f(y)"]
    )


def test_every_retired_key_belongs_to_a_kind_and_is_no_field_of_it():
    """A wire key kept for a kind nobody registers, or kept although the
    field came back, would write a stale value into every digest."""
    from repro.harness.exec import RETIRED_KEYS

    census = registered_fields()
    assert set(RETIRED_KEYS) <= set(census)
    for kind, keys in RETIRED_KEYS.items():
        assert not set(keys) & set(census[kind]), kind


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
