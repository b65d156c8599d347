"""In-memory spans recorded from the benchmark's side of each layer boundary.

Nothing under ``src/`` knows about this file.  A traced run wraps the
*public* functions the workloads (and the harness on their behalf) call —
``Executor.map``, ``run``, ``make_network``, ``SimulationEngine.run``,
``ObsSession.finish``, the ``repro.obs.analysis`` stages, ... — by
rebinding the attribute in the namespace the caller resolves it from, and
restores every binding afterwards.  Untraced runs never install it.

A span is ``{id, parent, run, name, layer, start, end}``: ``parent`` is the
span that caused it, ``run`` the id of its root span (one job repeat or one
probe), times are ``perf_counter`` seconds.  A layer's *self* time is its
spans' durations minus the part their direct children cover.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

#: Fabric registry kind -> the repo module (layer) that simulates it.
LAYER_OF_KIND = {
    "phastlane": "core",
    "electrical": "electrical",
    "vectorized": "vectorized",
    "ideal": "fabric",
}

#: (module, attribute path, span name, layer).  The module is the namespace
#: the *caller* resolves the name from, which for ``from x import f`` call
#: sites is the importing module, not the defining one.  ``layer=None``
#: means "the backend simulated by the enclosing ``run`` span".
PATCHES: tuple[tuple[str, str, str, str | None], ...] = (
    ("repro.harness.exec", "Executor.map", "harness.exec.map", "harness.exec"),
    ("repro.harness.exec", "run", "harness.runner.run", "harness.runner"),
    ("repro.harness.runner", "run", "harness.runner.run", "harness.runner"),
    ("repro.harness.runner", "make_network", "fabric.make_network", "fabric"),
    (
        "repro.harness.runner",
        "generate_splash2_trace",
        "traffic.splash2.generate",
        "traffic",
    ),
    ("repro.sim.engine", "SimulationEngine.run", "sim.engine.run", None),
    ("repro.sim.engine", "SimulationEngine.run_until", "sim.engine.run", None),
    ("repro.obs.session", "ObsSession.finish", "obs.session.finish", "obs"),
    (
        "repro.harness.report",
        "figure_to_dict",
        "harness.report.figure_to_dict",
        "harness.report",
    ),
    ("repro.obs.analysis", "analyze_trace_file", "obs.analysis.analyze", "obs"),
    ("repro.obs.analysis", "read_trace_file", "obs.analysis.read", "obs"),
    ("repro.obs.analysis", "reconstruct_spans", "obs.analysis.spans", "obs"),
    ("repro.obs.analysis", "analyze_spans", "obs.analysis.aggregate", "obs"),
    ("repro.obs.analysis", "BlameReport.to_json", "obs.analysis.render", "obs"),
    ("repro.obs.analysis", "render_markdown", "obs.analysis.render", "obs"),
)


class SpanRecorder:
    """Collects spans; one instance per traced worker process."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[dict[str, Any]] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(
        self, name: str, layer: str | None, backend: str | None = None
    ) -> Iterator[dict[str, Any]]:
        parent = self._stack[-1] if self._stack else None
        if layer is None:
            layer = self._enclosing_backend()
        record: dict[str, Any] = {
            "id": len(self.spans),
            "parent": None if parent is None else parent["id"],
            "run": len(self.spans) if parent is None else parent["run"],
            "name": name,
            "layer": layer,
            "start": 0.0,
            "end": 0.0,
        }
        if backend is not None:
            record["backend"] = backend
        self.spans.append(record)
        self._stack.append(record)
        record["start"] = perf_counter()
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def _enclosing_backend(self) -> str:
        for record in reversed(self._stack):
            if "backend" in record:
                return record["backend"]
        return "sim"

    def wrap(self, fn: Callable[..., Any], name: str, layer: str | None) -> Any:
        recorder = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            backend = None
            if name == "harness.runner.run":
                backend = backend_layer(getattr(args[0], "config", None))
            with recorder.span(name, layer, backend=backend):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Rebind every :data:`PATCHES` target to a span-recording wrapper."""
        wrappers: dict[int, Any] = {}
        for module_name, path, name, layer in PATCHES:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = getattr(owner, attr)
            # One wrapper per function, so ``exec.run`` and ``runner.run``
            # (the same object) stay one and the same after patching.
            wrapper = wrappers.setdefault(
                id(original), self.wrap(original, name, layer)
            )
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def descendants_of(self, span_id: int) -> list[dict[str, Any]]:
        """Every span under ``span_id`` (ids grow in start order)."""
        inside = {span_id}
        found = []
        for span in self.spans[span_id + 1:]:
            if span["parent"] in inside:
                inside.add(span["id"])
                found.append(span)
        return found


def backend_layer(config: Any) -> str:
    """The simulating layer of a network config (``sim`` when unknown)."""
    from repro.fabric import FabricError, config_kind

    try:
        return LAYER_OF_KIND.get(config_kind(config), "sim")
    except FabricError:
        return "sim"


def duration(span: dict[str, Any]) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict[str, Any]]) -> dict[int, float]:
    """Span id -> its duration minus its direct children's durations."""
    own = {span["id"]: duration(span) for span in spans}
    for span in spans:
        if span["parent"] in own:
            own[span["parent"]] -= duration(span)
    return own


def self_time_by_layer(spans: list[dict[str, Any]]) -> dict[str, float]:
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span["layer"]] = totals.get(span["layer"], 0.0) + own[span["id"]]
    return totals


def total(spans: list[dict[str, Any]], name: str, layer: str | None = None) -> float:
    """Summed duration of the spans called ``name`` (optionally one layer)."""
    return sum(
        duration(span)
        for span in spans
        if span["name"] == name and (layer is None or span["layer"] == layer)
    )
