"""A process loads only what it runs, and observing nothing costs O(1) calls.

Start-up cost is paid once per launched process (every CLI command, every
figure job), so these laws keep it down:

- each command loads exactly the modules :data:`CLI_IMPORT_LOADS` pins for
  it (``tests/test_cli.py`` runs every command of the table): ``--help``
  four, an analytic figure or the tables no run path, fabric, fault or
  observability module;
- every public name has one import path, its defining module: no package
  ``__init__`` but the root ``repro`` façade imports a ``repro`` module at
  run time, so importing a package loads none of its modules.  The one
  exception is :func:`repro.lazy_names` in the three packages whose names
  ``bench/`` still imports from the package (ROADMAP item 1); each of them
  serves exactly those names, on first access;
- numpy loads inside the two functions that draw with it (fast-mode
  schedules, fault rows), and a run that first loads it there computes the
  result the pins record;
- with observability and faults off, the emit guards and fault gates cost
  no Python call: the calls a run makes into ``repro.obs`` and
  ``repro.faults`` do not grow with its length;
- with a JSONL trace or health on, an event costs the hub's call and one
  call per sink, and no :class:`~repro.obs.events.PacketEvent` is built.
"""

import ast
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from importlib import import_module
from importlib.util import find_spec
from pathlib import Path
from unittest import mock

import pytest

from helpers import reference_oracle
from repro.fabric.ideal import IdealConfig
from repro.harness.exec import RunSpec, SyntheticWorkload
from repro.harness.experiments.configs import standard_configs
from repro.harness.runner import run
from repro.obs.config import ObsConfig
from repro.obs.events import PacketEvent, TraceHub
from repro.obs.tracers import CollectingTracer
from repro.vectorized.config import VectorizedConfig
from test_bench_pins import BENCH_FILES, repro_imports
from test_fabric_regression import VEC_FAST_STATS_SHA

SRC = Path(__file__).resolve().parent.parent / "src"
#: Every package ``__init__`` below the root façade.
PACKAGE_INITS = sorted(
    init for init in (SRC / "repro").rglob("__init__.py") if init.parent != SRC / "repro"
)


def package_of(init: Path) -> str:
    return ".".join(init.parent.relative_to(SRC).parts)


def modules_in(package: Path) -> tuple[str, ...]:
    """The names of a package's modules and subpackages."""
    return tuple(
        sorted(
            path.name.removesuffix(".py")
            for path in package.iterdir()
            if path.name != "__init__.py"
            and (path.suffix == ".py" or (path / "__init__.py").exists())
        )
    )


#: Each package below the root, and its modules: importing it loads none.
PACKAGE_LOADS_NONE_OF = {package_of(init): modules_in(init.parent) for init in PACKAGE_INITS}

#: The packages whose public names load on first access (``repro.lazy_names``):
#: the root façade, and the packages ``bench/`` imports names from.
BENCH_HELD = ("repro.fabric", "repro.topology", "repro.vectorized")
LAZY_NAME_PACKAGES = ("repro", *BENCH_HELD)

#: What ``import repro.cli`` loads: the parser is built from literals, so
#: only the refusal types come with it.
_CLI = ("repro", "repro.cli", "repro.util", "repro.util.errors")
_EXPERIMENTS = ("repro.harness", "repro.harness.experiments")

#: Every ``repro`` and numpy module each command loads, exactly.  ``analyze``
#: adds the trace reader and the nearest-rank rule it reports with; the
#: analytic figures and the tables add the section 3 models they print
#: (``figure`` imports only the figure it is named) and no simulator, run
#: path, traffic generator or numpy.
CLI_IMPORT_LOADS = {
    "--help": _CLI,
    "sweep --help": _CLI,
    "analyze TRACE": (*_CLI, "repro.obs", "repro.obs.analysis", "repro.obs.events",
                      "repro.obs.tracers", "repro.sim", "repro.sim.stats"),
    "figure fig04": (
        *_CLI, *_EXPERIMENTS, "repro.harness.experiments.fig04",
        "repro.photonics", "repro.photonics.constants", "repro.photonics.scaling",
        "repro.util.tables",
    ),
    "tables": (
        *_CLI, *_EXPERIMENTS, "repro.harness.experiments.tables",
        "repro.electrical", "repro.electrical.config",
        "repro.photonics", "repro.photonics.area", "repro.photonics.constants",
        "repro.photonics.dse", "repro.photonics.latency", "repro.photonics.power",
        "repro.photonics.wdm",
        "repro.topology", "repro.topology.base", "repro.topology.mesh",
        "repro.topology.registry", "repro.topology.torus",
        "repro.util.geometry", "repro.util.tables",
    ),
}


def fresh(code: str) -> str:
    """stdout of ``code`` run in a new interpreter that finds ``repro``."""
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.parametrize("package", PACKAGE_LOADS_NONE_OF)
def test_importing_a_package_loads_none_of_its_modules(package):
    modules = [f"{package}.{name}" for name in PACKAGE_LOADS_NONE_OF[package]]
    assert modules
    printed = fresh(
        f"import sys, {package}; "
        f"print([m for m in {modules!r} if m in sys.modules])"
    )
    assert printed == "[]"


def test_importing_the_cli_loads_the_pinned_modules():
    printed = fresh(
        "import sys, repro.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('repro', 'numpy')))"
    )
    assert printed == repr(sorted(CLI_IMPORT_LOADS["--help"]))


def run_time_repro_imports(tree):
    """The ``repro`` names a module imports at module level, outside
    ``if TYPE_CHECKING:`` and function bodies, as ``module:name``."""
    pending = [
        node
        for node in tree.body
        if not (isinstance(node, ast.If) and getattr(node.test, "id", "") == "TYPE_CHECKING")
    ]
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Import):
            yield from (f"{alias.name}:" for alias in node.names
                        if alias.name.split(".")[0] == "repro")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            yield from (f"{node.module}:{alias.name}" for alias in node.names)
        pending.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("init", PACKAGE_INITS, ids=package_of)
def test_a_package_init_imports_no_repro_module(init):
    allowed = {"repro:lazy_names"} if package_of(init) in BENCH_HELD else set()
    assert set(run_time_repro_imports(ast.parse(init.read_text()))) == allowed


def test_the_init_scan_sees_what_it_should():
    """The canary: a run-time import is seen wherever it hides, a typing
    import or a function's import is not."""
    source = (
        "from typing import TYPE_CHECKING\n"
        "from repro import lazy_names\n"
        "import repro.obs.session\n"
        "if TYPE_CHECKING:\n    from repro.core.config import PhastlaneConfig\n"
        "try:\n    from repro.fabric.registry import make_network\n"
        "except ImportError:\n    pass\n"
        "def later():\n    from repro.harness.runner import run\n"
    )
    assert sorted(run_time_repro_imports(ast.parse(source))) == [
        "repro.fabric.registry:make_network", "repro.obs.session:", "repro:lazy_names",
    ]


def test_the_bench_held_tables_are_what_the_bench_imports():
    """``bench/`` changes only in a benchmark change (BENCHMARK.json lists it
    under ``paths``), so three packages still serve the names it imports
    from them, and nothing more: when the bench imports them from their
    homes, this fails until the tables go."""
    served: dict[str, set[str]] = {}
    for path in BENCH_FILES:
        for _, module, name, _ in repro_imports(ast.parse(path.read_text())):
            is_package = find_spec(module).submodule_search_locations is not None
            if is_package and find_spec(f"{module}.{name}") is None:
                served.setdefault(module, set()).add(name)
    assert served == {
        package: set(import_module(package)._HOME_OF) for package in BENCH_HELD
    }


class TestLazyNames:
    @pytest.mark.parametrize("package", LAZY_NAME_PACKAGES)
    def test_every_public_name_is_its_defining_modules_object(self, package):
        module = import_module(package)
        if package == "repro":
            assert set(module._HOME_OF) == set(module.__all__) - {"__version__"}
            assert set(module.__all__) <= set(dir(module))
        for name in module._HOME_OF:
            value = getattr(module, name)
            if hasattr(value, "__module__"):
                assert value is getattr(import_module(value.__module__), name)
            assert module.__dict__[name] is value  # resolved once
        assert set(module._HOME_OF) <= set(dir(module))

    @pytest.mark.parametrize("package", LAZY_NAME_PACKAGES)
    def test_star_import_and_unknown_names(self, package):
        module = import_module(package)
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        assert set(getattr(module, "__all__", ())) <= set(namespace)
        with pytest.raises(AttributeError, match=f"'{package}'.*'warp_drive'"):
            module.warp_drive


#: A faulted 4x4 Electrical3 run's stats sha256 (canonical JSON), recorded
#: on the tree before numpy left start-up.
FAULTED_ELECTRICAL_STATS_SHA = (
    "7657cc12e2d6abdf1f95804f612d643eb624baabec11328b9abcdeb3882b5cbb"
)

#: Runs one spec where nothing has loaded numpy yet; prints whether numpy
#: was loaded before and after the run, and the stats sha256.
NUMPY_ON_DEMAND = """
import hashlib, json, sys
from repro.electrical.config import ElectricalConfig
from repro.faults.config import FaultConfig
from repro.harness.exec import RunSpec, SyntheticWorkload
from repro.harness.report import stats_to_dict
from repro.harness.runner import run
from repro.util.geometry import MeshGeometry
from repro.vectorized.config import VectorizedConfig

mesh = MeshGeometry(4, 4)
specs = {{
    "fast": RunSpec(VectorizedConfig(mesh=mesh, mode="fast"),
                    SyntheticWorkload("uniform", 0.1), cycles=200),
    "faulted": RunSpec(ElectricalConfig(mesh=mesh),
                       SyntheticWorkload("uniform", 0.1), cycles=200,
                       faults=FaultConfig(seed=1, link_flip_prob=0.05)),
}}
before = "numpy" in sys.modules
stats = stats_to_dict(run(specs["{key}"]).stats)
canon = json.dumps(stats, sort_keys=True, separators=(",", ":"))
print(before, "numpy" in sys.modules, hashlib.sha256(canon.encode()).hexdigest())
"""


@pytest.mark.parametrize(
    "key, pinned",
    [("fast", VEC_FAST_STATS_SHA), ("faulted", FAULTED_ELECTRICAL_STATS_SHA)],
)
def test_a_run_that_first_loads_numpy_reproduces_its_pin(key, pinned):
    before, after, sha = fresh(NUMPY_ON_DEMAND.format(key=key)).split()
    assert (before, after) == ("False", "True")
    assert sha == pinned


# -- an unobserved, unfaulted run calls neither repro.obs nor repro.faults ----

OPTICAL4 = standard_configs()["Optical4"]
BACKENDS = {
    "Optical4": OPTICAL4,
    "Vector4-fast": VectorizedConfig(mode="fast"),
    "Electrical3": standard_configs()["Electrical3"],
    "Ideal": IdealConfig(),
    "reference": OPTICAL4,
}


def calls_into(config, cycles, oracle=False, obs=None):
    """``{package: calls}`` of Python functions in ``repro.obs`` and
    ``repro.faults`` that one ``bitcomp@0.1`` run makes, plus the events
    its hub emitted (``"events"``) and the :class:`PacketEvent`\\ s built."""
    counted = {
        TraceHub.emit.__code__: "events",
        PacketEvent.__new__.__code__: "PacketEvent",
    }
    packages = ("repro.obs", "repro.faults")
    counts = Counter(dict.fromkeys(packages + tuple(counted.values()), 0))

    def profile(frame, event, arg):
        if event == "call":
            package = ".".join(frame.f_globals.get("__name__", "").split(".")[:2])
            if package in packages:
                counts[package] += 1
            if frame.f_code in counted:
                counts[counted[frame.f_code]] += 1

    spec = RunSpec(config, SyntheticWorkload("bitcomp", 0.1), cycles=cycles, obs=obs)
    with reference_oracle() if oracle else nullcontext():
        sys.setprofile(profile)
        try:
            run(spec)
        finally:
            sys.setprofile(None)
    return dict(counts)


@pytest.mark.parametrize("label", BACKENDS)
def test_unobserved_calls_do_not_grow_with_the_run(label):
    oracle = label == "reference"
    short, long = (
        calls_into(BACKENDS[label], cycles, oracle) for cycles in (100, 200)
    )
    assert short == long
    assert short["repro.faults"] == 0


def test_the_call_count_sees_an_observed_run():
    """The canary: an observed run's calls into ``repro.obs`` are counted."""
    obs = ObsConfig(metrics_interval=50)
    short, long = (
        calls_into(BACKENDS["Electrical3"], cycles, obs=obs) for cycles in (100, 200)
    )
    assert long["repro.obs"] > short["repro.obs"] > 0


# -- an observed run: an event costs the hub and its sinks, and no object --

OBSERVED_BACKENDS = {
    "Optical4": OPTICAL4,
    "Vector4X": VectorizedConfig(mode="exact"),
    "Electrical3": standard_configs()["Electrical3"],
    "Ideal": IdealConfig(),
}

#: Calls into ``repro.obs`` per emitted event, and per cycle, of each
#: consumer (its pin uses the 100- against the 200-cycle run).
OBSERVED_CALL_BOUNDS = {
    # TraceHub.emit, then JsonlTraceWriter.record; no watcher.
    "trace": (2, 0),
    # TraceHub.emit, then EventTally.record; the session's window clock
    # once a cycle.  Its interval outlasts both runs: each closes one
    # trailing window, so per-window work cancels.
    "health": (2, 1),
}


def observed(consumer, tmp_path):
    if consumer == "trace":
        return ObsConfig(trace_path=str(tmp_path / "t.jsonl"))
    return ObsConfig(health=True, health_interval=1000)


@pytest.mark.parametrize("consumer", OBSERVED_CALL_BOUNDS)
@pytest.mark.parametrize("label", OBSERVED_BACKENDS)
def test_an_observed_event_costs_the_hub_and_its_sink(label, consumer, tmp_path):
    obs = observed(consumer, tmp_path)
    short, long = (
        calls_into(OBSERVED_BACKENDS[label], cycles, obs=obs) for cycles in (100, 200)
    )
    events = long["events"] - short["events"]
    assert events > 0
    per_event, per_cycle = OBSERVED_CALL_BOUNDS[consumer]
    calls = long["repro.obs"] - short["repro.obs"]
    assert calls <= per_event * events + per_cycle * 100
    assert long["PacketEvent"] == 0


def test_a_collecting_tracer_builds_one_event_object_per_event(tmp_path):
    """The canary: the traced run with its sink swapped for a
    :class:`CollectingTracer` builds one :class:`PacketEvent` per event."""
    with mock.patch("repro.obs.session.sampled", lambda *_: CollectingTracer()):
        counts = calls_into(OPTICAL4, 100, obs=observed("trace", tmp_path))
    assert counts["events"] > 0
    assert counts["PacketEvent"] == counts["events"]
