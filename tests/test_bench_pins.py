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
the trace hub free of a per-cycle hook.  A reach census holds every public
name under ``src/repro`` to being reached from what runs, or listed with
why it stays.  The last is a census of config fields, so a new option is a
visible edit here.
"""

import ast
import functools
import importlib
import re
from pathlib import Path

import pytest

from helpers import config_type, plan_hops

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


# -- every public name under src/ is reached from what runs ---------------------

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


@functools.cache
def walked(node):
    """Every node under ``node`` (a parsed, never-edited tree), listed once."""
    return list(ast.walk(node))


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
    "obs/timeseries.py:Window.rate": (
        ("examples",), "drop_storm_timeline prints each window's drop and "
        "injection rates"),
    "obs/tracers.py:Tracer.emit": (
        ("bench",), "the event-object adapter probe_obs replays a run's "
        "events through; " + _ITEM_1),
    "obs/tracers.py:CollectingTracer": (
        ("bench",), "the in-memory tracer whose cost the bench measures; "
        + _BENCH_TOOL),
    "photonics/dse.py:DesignPoint.feasible": (
        ("examples",), "design_space prints the feasible design points"),
    "photonics/dse.py:DesignSpaceExplorer.sweep": (
        ("examples",), "design_space walks the WDM x scenario grid"),
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
    "topology/registry.py:_DorPolicy.plan": (
        ("bench",), "the route probe's plan call; " + _ITEM_1
        + " with policy_by_name"),
    "util/plot.py:render_heatmap": (
        ("examples",), "the drop and congestion examples draw the mesh"),
    "vectorized/config.py:as_phastlane": (
        ("bench",), "the exact-mode twin; " + _ITEM_1 + " with item 2's fork"),
    "vectorized/plans.py:neighbor_table": (
        ("bench",), "the route probe's line tables; " + _ITEM_1),
}


#: Method names a builtin container defines: ``x.append(...)`` on a
#: receiver of unknown type is as likely a list's as a class's.
CONTAINER_METHODS = frozenset(
    name for kind in (list, dict, set, tuple, str) for name in dir(kind)
    if not name.startswith("_")
)
#: Generic annotations that yield their argument when iterated, and the
#: ones that map a key type to a value type.
ITERABLES = {"list", "tuple", "set", "frozenset", "Sequence", "Iterable",
             "Iterator", "Collection", "deque", "Generator"}
MAPPINGS = {"dict", "Mapping", "MutableMapping", "defaultdict", "OrderedDict"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
NOTHING = frozenset()


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


@functools.cache
def module_bindings(path):
    """``(tables, imported)`` of a module: each name bound to modules (an
    imported module, or a name indexed out of a literal table of them:
    ``figure = {"fig04": fig04, ...}[name]``), and the ``(module, name)``
    pairs it imports by name."""
    bound, imported = {}, set()
    for node in walked(parsed(path)):
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
    for node in walked(parsed(path)):
        if (
            isinstance(node, ast.Assign)
            and [type(target) for target in node.targets] == [ast.Name]
            and isinstance(node.value, ast.Subscript)
            and isinstance(node.value.value, ast.Dict)
        ):
            rows = [bound.get(getattr(row, "id", None)) for row in node.value.value.values]
            if all(rows):
                tables[node.targets[0].id] = rows
    return tables, imported


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def named(node):
    """The name a ``Name`` or the last part an ``Attribute`` spells."""
    return getattr(node, "id", getattr(node, "attr", None))


class Census:
    """What runs, read from the source: the definitions in ``sources`` that
    the code reached from ``callers``' roots reads.

    A root is what runs without being called: module-level code, class
    bodies, decorators, defaults and annotations (``main`` is reached
    through ``__main__``'s module-level call), and every def of a test
    module or ``conftest``, which the test runner collects.  A def is
    reached when a reached def reads it; a method when, besides, its class
    or a subclass is reached.  A method whose name a builtin container
    also has, or a class outside its line (its bases, its subclasses and
    the protocols it meets) also defines, is read only through a receiver
    of its line: ``self``, ``cls``, ``Class.method``, or a name, attribute
    or element whose type the annotations, the constructor calls and the
    assignments on ``self`` state.
    """

    def __init__(self, sources, callers, package):
        self.package = package
        self.sources = sorted(sources)
        self.files = sorted(set(sources) | set(callers))
        #: A file outside the package runs with its own directory on the path.
        self.modules = {
            path: module_of(path, package) if path in self.sources else path.stem
            for path in self.files
        }
        self.classes, self.functions, self.aliases = {}, {}, {}
        for path in self.sources + self.files:  # the package's name wins
            for node in parsed(path).body:
                if isinstance(node, ast.ClassDef):
                    self.classes.setdefault(node.name, node)
                elif isinstance(node, FUNCTIONS):
                    self.functions.setdefault(node.name, node)
                elif (
                    isinstance(node, ast.Assign)
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.BinOp)
                ):
                    self.aliases.setdefault(node.targets[0].id, node.value)
        #: ``{class: {attribute: [(method, assignment)]}}`` of ``self.x = ...``.
        self.assigned = {}
        for name, node in self.classes.items():
            table = self.assigned[name] = {}
            for method in node.body:
                for inner in walked(method) if isinstance(method, FUNCTIONS) else ():
                    for target in getattr(inner, "targets", [getattr(inner, "target", None)]):
                        if isinstance(target, ast.Attribute) and named(target.value) == "self":
                            table.setdefault(target.attr, []).append((method, inner))
        self.members = {name: self._members(name) for name in self.classes}
        self.parents = {
            name: {named(base) for base in node.bases} & set(self.classes)
            for name, node in self.classes.items()
        }
        protocols = [
            name for name, node in self.classes.items()
            if "Protocol" in {named(base) for base in node.bases}
        ]
        for name in self.classes:
            own = set().union(*(self.members[c] for c in self._above(name) | {name}))
            self.parents[name] |= {
                protocol for protocol in protocols
                if protocol != name and set(self.members[protocol]) <= own
            }
        self.ancestors = {name: self._above(name) for name in self.classes}
        self.line = {
            name: {name} | self.ancestors[name]
            | {other for other in self.classes if name in self.ancestors[other]}
            for name in self.classes
        }
        self._attributes, self._environments, self._families = {}, {}, {}

    def _members(self, name):
        """``{name: def or annotation}`` of what a class body defines, and
        ``{name: None}`` of each attribute its methods assign on ``self``."""
        found = dict.fromkeys(self.assigned[name])
        for inner in self.classes[name].body:
            if isinstance(inner, FUNCTIONS):
                found[inner.name] = inner
            elif isinstance(inner, ast.AnnAssign) and isinstance(inner.target, ast.Name):
                found[inner.target.id] = inner.annotation
        return found

    def _above(self, name):
        seen, todo = set(), [name]
        while todo:
            for base in self.parents.get(todo.pop(), ()):
                if base not in seen:
                    seen.add(base)
                    todo.append(base)
        return seen

    def family(self, name):
        """Every class joined to ``name`` by inheritance or a protocol."""
        group, todo = set(), [name]
        while todo:
            current = todo.pop()
            if current not in group:
                group.add(current)
                todo.extend(self.line[current] - group)
        return group

    def strict(self, owner, method):
        """True when ``owner.method`` is read only through its line."""
        if owner not in self._families:
            self._families[owner] = self.family(owner)
        family = self._families[owner]
        return method in CONTAINER_METHODS or any(
            method in self.members[other] for other in self.classes if other not in family
        )

    # -- types: sets of class names, ("of", items) and ("map", keys, values) --

    def annotation(self, node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return self.annotation(ast.parse(node.value, mode="eval").body)
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = named(node)
            if name in self.aliases:
                return self.annotation(self.aliases[name])
            return frozenset({name}) if name in self.classes else NOTHING
        if isinstance(node, ast.BinOp):
            return self.annotation(node.left) | self.annotation(node.right)
        if isinstance(node, ast.Subscript):
            head = named(node.value)
            args = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
            kinds = [self.annotation(arg) for arg in args]
            if head in ("Optional", "Union", "type"):
                return frozenset().union(*kinds)
            if head in ITERABLES:
                return frozenset({("of", frozenset().union(*kinds))})
            if head in MAPPINGS and len(kinds) == 2:
                return frozenset({("map", *kinds)})
        return NOTHING

    def items(self, kind):
        """What iterating a value of type ``kind`` yields."""
        found = NOTHING
        for term in kind:
            if isinstance(term, tuple):
                found |= term[1]
            else:  # a class that subclasses list[X] yields X
                for base in self.classes[term].bases:
                    found |= self.items(self.annotation(base))
        return found

    def returns(self, kind, method):
        """What ``receiver.method(...)`` returns for a receiver of ``kind``."""
        found = NOTHING
        for term in kind:
            if isinstance(term, str):
                for owner in [term, *self.ancestors[term]]:
                    definition = self.members[owner].get(method)
                    if isinstance(definition, FUNCTIONS):
                        found |= self.annotation(definition.returns)
                        break
            elif term[0] == "map" and method in ("values", "keys"):
                found |= {("of", term[2 if method == "values" else 1])}
            elif method in ("get", "pop", "popleft", "setdefault"):
                found |= term[-1]
        return found

    def attribute(self, owner, attribute):
        """The type of ``attribute`` on an instance of any class in
        ``owner``'s line: its annotation, its property's return annotation,
        and what each method assigns to it on ``self``."""
        key = (owner, attribute)
        if key not in self._attributes:
            self._attributes[key] = found = set()
            for cls in self.line[owner]:
                definition = self.members[cls].get(attribute)
                if isinstance(definition, FUNCTIONS):
                    if {"property", "cached_property"} & {
                        named(decorator) for decorator in definition.decorator_list
                    }:
                        found |= self.annotation(definition.returns)
                elif definition is not None:
                    found |= self.annotation(definition)
                for method, node in self.assigned[cls].get(attribute, ()):
                    if isinstance(node, ast.AnnAssign):
                        found |= self.annotation(node.annotation)
                    elif isinstance(node, ast.Assign):
                        env = self.environment(method, cls)
                        found |= self.typeof(node.value, env, cls)
            self._attributes[key] = frozenset(found)
        return self._attributes[key]

    def environment(self, scope, owner):
        """``{local name: type}`` of a def (or a module), flow-insensitive:
        annotated parameters, ``self``/``cls``, and each name a plain,
        annotated, ``for``, comprehension, ``with`` or walrus binding gives
        a type."""
        if id(scope) in self._environments:
            return self._environments[id(scope)]
        env = self._environments[id(scope)] = {}
        if owner is not None:
            env["self"] = env["cls"] = frozenset({owner})
        nodes = walked(scope)
        for node in nodes:
            if isinstance(node, (*FUNCTIONS, ast.Lambda)):
                arguments = node.args
                for arg in arguments.posonlyargs + arguments.args + arguments.kwonlyargs:
                    if arg.annotation is not None:
                        env[arg.arg] = self.annotation(arg.annotation)
        for _ in range(2):  # a name typed through a name bound below it
            for node in nodes:
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    bindings = [(node.targets[0], self.typeof(node.value, env, owner))]
                elif isinstance(node, ast.AnnAssign):
                    bindings = [(node.target, self.annotation(node.annotation))]
                elif isinstance(node, ast.NamedExpr):
                    bindings = [(node.target, self.typeof(node.value, env, owner))]
                elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                    bindings = [(node.optional_vars, self.typeof(node.context_expr, env, owner))]
                elif isinstance(node, (ast.For, ast.comprehension)):
                    bindings = self.loop_bindings(node, env, owner)
                else:
                    continue
                for target, kind in bindings:
                    if isinstance(target, ast.Name):
                        env[target.id] = env.get(target.id, NOTHING) | kind
        return env

    def loop_bindings(self, loop, env, owner):
        """``(target, type)`` of a loop's names: its items, or the keys and
        values of a ``for key, value in mapping.items()``."""
        source = loop.iter
        if (
            isinstance(loop.target, ast.Tuple) and len(loop.target.elts) == 2
            and isinstance(source, ast.Call) and named(source.func) == "items"
            and isinstance(source.func, ast.Attribute)
        ):
            maps = [t for t in self.typeof(source.func.value, env, owner)
                    if isinstance(t, tuple) and t[0] == "map"]
            return [
                (target, frozenset().union(*(m[side] for m in maps)))
                for side, target in enumerate(loop.target.elts, start=1)
            ]
        return [(loop.target, self.items(self.typeof(source, env, owner)))]

    def typeof(self, node, env, owner):
        """The type of expression ``node`` where ``env`` types the names."""
        def of(inner):
            return self.typeof(inner, env, owner)

        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            return frozenset({node.id}) if node.id in self.classes else NOTHING
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                return self.returns(of(func.value), func.attr)
            name = named(func)
            if name in self.classes:
                return frozenset({name})
            if name in ("cls", "super") and owner:
                return frozenset({owner})
            if name in self.functions and name not in env:
                return self.annotation(self.functions[name].returns)
            if name in ("sorted", "list", "tuple", "reversed", "set") and node.args:
                return frozenset({("of", self.items(of(node.args[0])))})
            if name == "next" and node.args:
                return self.items(of(node.args[0]))
            return NOTHING
        if isinstance(node, ast.Attribute):
            return frozenset().union(*(
                self.attribute(term, node.attr) for term in of(node.value)
                if isinstance(term, str)
            ))
        if isinstance(node, ast.Subscript):
            return frozenset().union(*(
                term[-1] for term in of(node.value) if isinstance(term, tuple)
            ))
        if isinstance(node, ast.BoolOp):
            return frozenset().union(*map(of, node.values))
        if isinstance(node, ast.IfExp):
            return of(node.body) | of(node.orelse)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            return frozenset({("of", of(node.elt))})
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            return frozenset({("of", frozenset().union(*map(of, node.elts)))})
        return NOTHING

    # -- reads and reach ----------------------------------------------------

    def units(self, path):
        """``{unit: (def, class, nodes)}`` of a file: unit ``""`` is what runs
        on import (module level, class bodies, decorators, defaults,
        annotations), ``"f"`` a top-level def's body, ``"C.m"`` a method's."""
        found = {"": (parsed(path), None, [])}

        def add(unit, scope, owner, parts):
            entry = found.setdefault(unit, (scope, owner, []))
            for part in parts:
                entry[2].extend(walked(part))

        def define(function, unit, owner):
            header = function.decorator_list + [function.args]
            add("", None, None, header + [function.returns] * bool(function.returns))
            add(unit, function, owner, function.body)

        for statement in parsed(path).body:
            if isinstance(statement, FUNCTIONS):
                define(statement, statement.name, None)
            elif isinstance(statement, ast.ClassDef):
                add("", None, None, statement.bases + statement.keywords
                    + statement.decorator_list)
                for inner in statement.body:
                    if isinstance(inner, FUNCTIONS):
                        define(inner, f"{statement.name}.{inner.name}", statement.name)
                    else:
                        add("", None, None, [inner])
            else:
                add("", None, None, [statement])
        return found

    def reads(self, path):
        """``{unit: (names, attributes, qualified)}``: the bare names a unit
        reads; ``(attribute, receiver classes)`` of each attribute it reads,
        of each ``getattr``/``hasattr`` name (receiver unknown) and of the
        last part of a dotted string whose prefix ends in a class; and the
        ``(module, name)`` pairs it reads through a module or a dotted
        string (a backend table row).  Strings in a package ``__init__``
        are its re-export lists, no reads."""
        tables, _ = module_bindings(path)
        found = {}
        for unit, (scope, owner, nodes) in self.units(path).items():
            env = self.environment(scope, owner)
            names, attributes, qualified = set(), set(), set()
            for node in nodes:
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    kind = self.typeof(node.value, env, owner)
                    attributes.add((node.attr, frozenset(t for t in kind if isinstance(t, str))))
                    head, _, rest = (dotted(node.value) or "").partition(".")
                    for module in tables.get(head, ()):
                        qualified.add((".".join(filter(None, (module, rest))), node.attr))
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and path.name != "__init__.py"
                    and re.fullmatch(r"\w+(\.\w+)+", node.value)
                ):
                    prefix, _, last = node.value.rpartition(".")
                    qualified.add((prefix, last))
                    if prefix.rpartition(".")[2] in self.classes:
                        attributes.add((last, frozenset({prefix.rpartition(".")[2]})))
                elif (
                    isinstance(node, ast.Call)
                    and named(node.func) in ("getattr", "hasattr")
                    and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)
                ):
                    attributes.add((node.args[1].value, NOTHING))
            found[unit] = names, attributes, qualified
        return found

    def reached(self, roots=()):
        """The ``(path, def)`` pairs reached; ``roots`` are more of them."""
        by_name, by_attribute, by_qualified, imported = {}, {}, {}, {}
        definitions = {}
        for path in self.files:
            imported[path] = module_bindings(path)[1]
            for unit, (names, attributes, qualified) in self.reads(path).items():
                for name in names:
                    by_name.setdefault(name, []).append((path, unit))
                for attribute, receivers in attributes:
                    by_attribute.setdefault(attribute, []).append(((path, unit), receivers))
                for pair in qualified:
                    by_qualified.setdefault(pair, []).append((path, unit))
                if unit:
                    definitions[path, unit] = unit.partition(".")[0] if "." in unit else None
            for node in parsed(path).body:
                if isinstance(node, ast.ClassDef):
                    definitions[path, node.name] = None
        homes = {}
        for path, module in self.modules.items():
            homes[path] = {module}
            while "." in module:
                module = module.rpartition(".")[0]
                homes[path].add(module)
        classes = {}
        for path in self.sources + self.files:
            for node in parsed(path).body:
                if isinstance(node, ast.ClassDef):
                    classes.setdefault(node.name, (path, node.name))
        reached = {(path, "") for path in self.files} | set(roots)
        reached |= {
            key for key, owner in definitions.items()
            if key[0].name.startswith(("test_", "conftest"))
            or owner is None and is_dunder(key[1])
        }

        def read(key):
            path, name = key
            owner = definitions[key]
            if owner is None:
                return any(
                    reader in reached for reader in by_qualified.get((self.modules[path], name), ())
                ) or any(
                    reader in reached and (reader[0] == path or any(
                        (home, name) in imported[reader[0]] for home in homes[path]))
                    for reader in by_name.get(name, ())
                )
            if not any(
                classes.get(cls) in reached
                for cls in self.line[owner] - self.ancestors[owner]
            ):
                return False
            method = name.rpartition(".")[2]
            if is_dunder(method):
                return True
            strict = self.strict(owner, method)
            return any(
                reader in reached and (not strict or receivers & self.line[owner])
                for reader, receivers in by_attribute.get(method, ())
            )

        grown = True
        while grown:
            grown = False
            for key in definitions.keys() - reached:
                if read(key):
                    reached.add(key)
                    grown = True
        return reached

    def uncalled(self, roots=()):
        """``file:name`` of each public def, class and method in the sources
        that is not reached; ``roots`` (``file:name``) are reached."""
        keys = {f"{path.relative_to(self.package)}:{name}": (path, name)
                for path in self.sources for name in self._public(path)}
        reached = self.reached({keys[root] for root in roots if root in keys})
        for label, key in keys.items():
            if key not in reached:
                yield label

    @staticmethod
    def _public(path):
        for node in parsed(path).body:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                if not node.name.startswith("_"):
                    yield node.name
                for inner in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(inner, FUNCTIONS) and not inner.name.startswith("_"):
                        yield f"{node.name}.{inner.name}"


def uncalled_names(sources, callers, package=ROOT / "src" / "repro", roots=()):
    """``file:name`` of each public definition in ``sources`` that nothing
    reached from ``callers`` reads (:class:`Census`); each of ``roots``
    counts as reached, and so does what only it reaches."""
    return set(Census(sources, callers, package).uncalled(roots))


def test_every_public_name_under_src_has_a_caller():
    """A public def, class or method that nothing reached in the package
    reads is surface no command reaches: it gets a caller, goes with its
    tests, or is listed with why it stays, in ``UNCALLED`` if only tests
    read it and in ``REACHED_FROM_OUTSIDE`` if an example or a benchmark
    does.  What only a listed name reaches needs no row of its own."""
    found = uncalled_names(SOURCE_FILES, CALLER_FILES)
    assert set(UNCALLED).isdisjoint(REACHED_FROM_OUTSIDE)
    listed = set(UNCALLED) | set(REACHED_FROM_OUTSIDE)
    assert listed <= found, f"listed, now called or gone: {sorted(listed - found)}"
    unlisted = uncalled_names(SOURCE_FILES, CALLER_FILES, roots=listed)
    assert not unlisted, f"uncalled, not listed: {sorted(unlisted)}"


def test_only_tests_read_an_uncalled_name():
    """With examples, ``bench/`` and ``benchmarks/`` read as callers too,
    every ``REACHED_FROM_OUTSIDE`` name is reached and every ``UNCALLED``
    one is not: no entry of either list hides where its readers are."""
    found = uncalled_names(SOURCE_FILES, CALLER_FILES + files_under(*OUTSIDE))
    assert set(UNCALLED) <= found
    assert found.isdisjoint(REACHED_FROM_OUTSIDE)


@pytest.mark.parametrize("outside", OUTSIDE)
def test_each_outside_entry_names_the_directories_that_reach_it(outside):
    found = uncalled_names(SOURCE_FILES, CALLER_FILES + files_under(outside))
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
    named through its class in a dotted string.  Reach is transitive: a def
    only an uncalled def calls is uncalled, and so is what only a listed
    root reaches until the root is given.  A method another class outside
    its line also defines (or a container also has) is read only through a
    receiver of its line: ``self``, the class, a constructed or annotated
    name, an attribute or an element whose type is stated."""
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
        "class Grid:\n"
        "    def node(self): ...\n"
        "    def cell(self): ...\n"
        "    def side(self): ...\n"
        "    def append(self, item): ...\n"
        "    def extend(self, items): ...\n"
        "class Mesh:\n"
        "    node: int\n"
        "    cell: int\n"
        "    side: int\n"
        "    def corner(self): return self.side\n"
        "class Torus(Grid): ...\n"
        "class Board:\n"
        "    def __init__(self):\n"
        "        self.grid = Torus()\n"
        "    def rows(self) -> 'list[Grid]': ...\n"
        "def called(): ...\n"
        "def dotted(): ...\n"
        "def exported(): ...\n"
        "def imported(): ...\n"
        "def upward(): ...\n"
        "def namesake(): ...\n"
        "def own(): ...\n"
        "def tabled(): ...\n"
        "def dead(): chained()\n"
        "def chained(): ...\n"
        "def listed(): behind()\n"
        "def behind(): ...\n"
        "def _helper(): ...\n"
        "own()\n"
    )
    (calling := package / "calling.py").write_text(
        "import pkg.defining\n"
        "from pkg import defining\n"
        "from pkg.defining import Board, Grid, Mesh, Shape, imported\n"
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
        "def reach(mesh: Mesh, items: list, board: Board):\n"
        "    mesh.node, mesh.cell, items.append(1), Mesh().corner()\n"
        "    board.grid.cell()\n"
        "    for grid in board.rows():\n"
        "        grid.extend([])\n"
        "reach(Mesh(), [], Board())\n"
    )
    (other := package / "other.py").write_text(
        "def namesake(): ...\nnamesake()\n"
    )
    (reexport := package / "__init__.py").write_text(
        "from pkg.defining import exported, upward\n"
        "__all__ = ['exported', 'upward']\n"
    )
    callers = [defining, calling, other, reexport]
    found = uncalled_names([defining, other], callers, package)
    assert found == {
        f"defining.py:{name}"
        for name in ("Shape.unused", "Shape.headed", "Shape.spanned",
                     "Grid.node", "Grid.side", "Grid.append",
                     "exported", "imported", "namesake", "dead", "chained",
                     "listed", "behind")
    }
    rooted = uncalled_names([defining, other], callers, package, roots={"defining.py:listed"})
    assert found - rooted == {"defining.py:listed", "defining.py:behind"}


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


def imports_through_tests(path):
    """``(line, module)`` of each import of a ``tests.``-prefixed module."""
    for node in ast.walk(parsed(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            if name == "tests" or name.startswith("tests."):
                yield node.lineno, name


def test_a_test_module_has_one_import_name():
    """``tests/`` is a package, so each of its modules is importable both as
    ``oracle.network`` (``pythonpath = ["tests"]``) and as
    ``tests.oracle.network``; the second name would build a second
    ``PhastlaneNetwork`` class, which ``TestOracleIsReal``'s ``type(...) is``
    checks refuse.  Only the first name is used."""
    found = [
        f"{path.relative_to(ROOT)}:{line}: {module}"
        for path in files_under("tests", "bench", "benchmarks")
        for line, module in imports_through_tests(path)
    ]
    assert not found, found


def test_the_import_name_scan_sees_what_it_should(tmp_path):
    """The canary: an import and a from-import of ``tests.`` are found; the
    ``oracle.`` name, a relative import and a ``testsuite`` module are not."""
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import tests.oracle.network\n"
        "from tests.helpers import drain\n"
        "from oracle.network import PhastlaneNetwork\n"
        "from . import helpers\n"
        "import testsuite\n"
    )
    assert list(imports_through_tests(sample)) == [
        (1, "tests.oracle.network"), (2, "tests.helpers")
    ]


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

    from repro.fabric.registry import BACKENDS

    return {
        kind: tuple(field_.name for field_ in fields(config_type(kind)))
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
    "obs": 34,
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
    """On failure, each package whose count moved lists its settable
    values, so the one added or removed can be read off."""
    package = ROOT / "src" / "repro"
    names = {}
    for path in SOURCE_FILES:
        key = path.relative_to(package).parts[0]
        module = path.relative_to(package).as_posix()
        for name in settable_values(path):
            names.setdefault(key, []).append(f"{module}:{name}")
    counts = {key: len(found) for key, found in names.items()}
    moved = [
        f"{key}: {counts.get(key, 0)} (pinned {SETTABLE_VALUES.get(key, 0)}): "
        + ", ".join(names.get(key, []))
        for key in sorted(set(counts) | set(SETTABLE_VALUES))
        if counts.get(key, 0) != SETTABLE_VALUES.get(key, 0)
    ]
    assert not moved, "settable values moved:\n" + "\n".join(moved)


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
