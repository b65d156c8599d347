"""Parallel campaign execution: run specs, a worker pool and a result cache.

Every paper figure is an embarrassingly-parallel set of independent
simulations.  This module provides the substrate the experiment layers run
on:

- :class:`RunSpec` — a frozen, hashable, JSON-serialisable description of
  one simulation (network configuration + workload + cycles + seed) with a
  stable content :meth:`~RunSpec.digest`;
- :class:`Executor` — fans a list of specs across a ``multiprocessing``
  pool (``workers=1`` stays in-process) while preserving input order, so a
  parallel campaign returns the exact result stream of a serial one;
- :class:`ResultCache` — an on-disk cache under ``.repro-cache/`` keyed by
  spec digest plus a code-calibration stamp, so re-running a campaign only
  simulates specs whose inputs (or the simulator itself) changed;
- :class:`RunEvent` — per-run observability (cache hit, wall time,
  packets/second) collected into the executor's event log, from which
  :func:`repro.harness.report.manifest_to_dict` builds a campaign manifest.

Workloads come in three flavours: :class:`SyntheticWorkload` (pattern +
Bernoulli injection rate, the Fig 9 sweeps), :class:`Splash2Workload` (a
generated SPLASH2-like trace, the Fig 10/11 campaigns) and
:class:`TraceFileWorkload` (replay a trace file; its digest covers the file
*content*, so editing the trace invalidates cached results).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import threading
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.fabric import FabricError, NetworkConfig, config_kind, config_type_for
from repro.faults.config import FaultConfig
from repro.harness.runner import RunResult, run
from repro.obs.config import ObsConfig
from repro.obs.session import ProgressSample, ProgressSink
from repro.util.errors import SpecError
from repro.util.geometry import MeshGeometry

#: Code-calibration stamp baked into every cache key.  Bump whenever the
#: simulators or calibration constants change in a way that alters results;
#: old cache entries then become invisible rather than silently stale.
CALIBRATION_STAMP = "2026.09.0"

#: Default location of the on-disk result cache.
DEFAULT_CACHE_DIR = ".repro-cache"


def _canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# -- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticWorkload:
    """Open-loop synthetic traffic: a pattern plus a Bernoulli rate."""

    pattern: str
    rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise SpecError(f"injection rate must be in [0, 1], got {self.rate}")

    @property
    def name(self) -> str:
        return f"{self.pattern}@{self.rate:g}"

    def to_dict(self) -> dict[str, Any]:
        return {"kind": "synthetic", "pattern": self.pattern, "rate": self.rate}


@dataclass(frozen=True)
class Splash2Workload:
    """A generated SPLASH2-like trace (benchmark + the spec's seed/cycles)."""

    benchmark: str

    @property
    def name(self) -> str:
        return self.benchmark

    def to_dict(self) -> dict[str, Any]:
        return {"kind": "splash2", "benchmark": self.benchmark}


@dataclass(frozen=True)
class TraceFileWorkload:
    """Replay a trace file; the digest covers the file's content."""

    path: str

    @property
    def name(self) -> str:
        return Path(self.path).stem

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "trace",
            "path": str(self.path),
            "content_sha256": _file_sha256(self.path),
        }


Workload = SyntheticWorkload | Splash2Workload | TraceFileWorkload

_WORKLOAD_KINDS = {"synthetic", "splash2", "trace"}


def workload_from_dict(payload: dict[str, Any]) -> Workload:
    kind = payload.get("kind")
    if kind == "synthetic":
        return SyntheticWorkload(payload["pattern"], float(payload["rate"]))
    if kind == "splash2":
        return Splash2Workload(payload["benchmark"])
    if kind == "trace":
        return TraceFileWorkload(payload["path"])
    raise ValueError(f"unknown workload kind {kind!r}; expected {_WORKLOAD_KINDS}")


# -- configuration (de)serialisation -----------------------------------------

#: Keys a serialised config of each kind still carries although the fields
#: are gone, at the only values left: for ``"phastlane"`` the paper's
#: section 7 "future work" knobs, which it never evaluates; for
#: ``"electrical"`` the Table 2 rows no figure varies (the constants of
#: ``repro.electrical.config``).  Written so that every spec digest, cache
#: key and manifest stays byte-identical; read back and dropped, and any
#: other value is refused.
RETIRED_KEYS: dict[str, dict[str, Any]] = {
    "phastlane": {
        "buffer_arbitration": "rotating",
        "contention_policy": "drop",
        "buffer_sharing": False,
    },
    "electrical": {
        "vc_depth": 1,
        "input_speedup": 4,
        "output_speedup": 1,
        "wait_for_tail_credit": True,
        "islip_iterations": 1,
        "credit_delay_cycles": 1,
    },
}


def config_to_dict(config: NetworkConfig) -> dict[str, Any]:
    """Flatten a network configuration to JSON-friendly types.

    The ``kind`` discriminator comes from the fabric registry, so any
    registered backend's config serialises (and digests) without this
    module knowing its class.  Raises
    :class:`~repro.fabric.FabricError` for unregistered types.

    A ``topology`` field holding the default (``"mesh"``) is omitted —
    mirroring the disabled-``FaultConfig`` normalisation — so every
    pre-topology digest and cache key stays byte-identical; absent keys
    deserialise back to the default.
    """
    payload: dict[str, Any] = {"kind": config_kind(config)}
    for field_ in fields(config):
        value = getattr(config, field_.name)
        if field_.name == "mesh":
            payload["mesh"] = [value.width, value.height]
        elif field_.name == "topology" and value == "mesh":
            continue
        else:
            payload[field_.name] = value
    payload.update(RETIRED_KEYS.get(payload["kind"], {}))
    return payload


def config_from_dict(payload: dict[str, Any]) -> NetworkConfig:
    payload = dict(payload)
    kind = payload.pop("kind", "")
    config_type = config_type_for(kind)
    for key, paper in RETIRED_KEYS.get(kind, {}).items():
        value = payload.pop(key, paper)
        if value != paper:
            raise FabricError(
                f"{key}={value!r} was retired with the {kind} alternatives "
                f"no paper figure evaluates; only {paper!r} is simulated"
            )
    width, height = payload.pop("mesh")
    return config_type(mesh=MeshGeometry(width, height), **payload)


# -- run specification -------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one simulation run.

    ``cycles`` is the injection window for generated workloads (synthetic
    and SPLASH2); trace-file workloads replay the file's own span and run
    to drain.  ``warmup`` applies to synthetic runs only (``None`` means
    ``cycles // 5``, the standard measurement methodology).

    ``faults`` describes injected device faults and — unlike ``obs`` — IS
    part of the spec's identity: faults change simulated physics, so two
    specs differing only in their fault model must hash, compare and cache
    differently.  A disabled fault config is normalised to ``None`` at
    construction, keeping the serialisation (and therefore every pre-fault
    cache key and digest pin) byte-identical to a tree without faults.

    ``obs`` configures observability (tracing / time-series metrics /
    health watchdogs) and is *not* part of the spec's identity: it is excluded
    from equality, ``to_dict`` and the content digest, because it never
    changes simulation results (see :mod:`repro.obs`).
    """

    config: NetworkConfig
    workload: Workload
    cycles: int = 1500
    warmup: int | None = None
    seed: int = 1
    max_drain_cycles: int = 200_000
    faults: FaultConfig | None = None
    obs: ObsConfig | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.cycles <= 0:
            raise SpecError("cycles must be positive")
        if self.seed < 0:
            raise SpecError("seed must be non-negative")
        if self.max_drain_cycles < 0:
            raise SpecError("max drain cycles must be non-negative")
        if self.faults is not None and not self.faults.enabled:
            object.__setattr__(self, "faults", None)

    @property
    def label(self) -> str:
        return self.config.label

    @property
    def workload_name(self) -> str:
        return self.workload.name

    def to_dict(self) -> dict[str, Any]:
        payload = {
            "config": config_to_dict(self.config),
            "workload": self.workload.to_dict(),
            "cycles": self.cycles,
            "warmup": self.warmup,
            "seed": self.seed,
            "max_drain_cycles": self.max_drain_cycles,
        }
        # Key present only for enabled fault models: a fault-free spec
        # serialises exactly as it did before faults existed, so digests
        # (and every cached result) from older trees remain valid.
        if self.faults is not None:
            payload["faults"] = self.faults.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RunSpec":
        faults = payload.get("faults")
        return cls(
            config=config_from_dict(payload["config"]),
            workload=workload_from_dict(payload["workload"]),
            cycles=int(payload["cycles"]),
            warmup=payload.get("warmup"),
            seed=int(payload.get("seed", 1)),
            max_drain_cycles=int(payload.get("max_drain_cycles", 200_000)),
            faults=FaultConfig.from_dict(faults) if faults is not None else None,
        )

    def digest(self) -> str:
        """Stable content digest of the spec (sha256 of canonical JSON)."""
        return hashlib.sha256(_canonical_json(self.to_dict()).encode()).hexdigest()


# -- on-disk result cache ----------------------------------------------------


class ResultCache:
    """Content-addressed result store under ``root/v<calibration>/``.

    A cached entry is served only when both the spec digest *and* the
    calibration stamp match, so bumping :data:`CALIBRATION_STAMP` (or
    changing any spec input) invalidates it.  Corrupt or unreadable entries
    are treated as misses.
    """

    def __init__(
        self,
        root: str | Path = DEFAULT_CACHE_DIR,
        calibration: str = CALIBRATION_STAMP,
    ):
        self.root = Path(root)
        self.calibration = calibration

    def path_for(self, spec: RunSpec) -> Path:
        return self.root / f"v{self.calibration}" / f"{spec.digest()}.json"

    def load(self, spec: RunSpec) -> RunResult | None:
        # Imported here, not at module top: report imports sweeps, which
        # imports this module (the cycle is broken at the last edge).
        from repro.harness.report import result_from_dict

        path = self.path_for(spec)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):  # torn JSON and non-UTF-8 bytes included
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("calibration") != self.calibration:
            return None
        try:
            result = result_from_dict(payload["result"])
            wall_time = float(payload.get("wall_time_s", 0.0))
        except (KeyError, TypeError, ValueError, AttributeError):
            # AttributeError: a list or scalar where the schema has an object.
            return None
        return replace(result, wall_time_s=wall_time)

    def store(self, spec: RunSpec, result: RunResult) -> Path:
        from repro.harness.report import result_to_dict

        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "calibration": self.calibration,
            "digest": spec.digest(),
            "spec": spec.to_dict(),
            "wall_time_s": result.wall_time_s,
            "result": result_to_dict(result),
        }
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        os.replace(tmp, path)  # atomic: concurrent campaigns never see torn files
        return path


# -- executor ----------------------------------------------------------------


@dataclass(frozen=True)
class RunEvent:
    """Observability record for one completed run of a campaign."""

    index: int  # position in the submitted spec list
    total: int
    spec: RunSpec
    digest: str
    cache_hit: bool
    wall_time_s: float
    result: RunResult


ProgressCallback = Callable[[RunEvent], None]


@dataclass(frozen=True)
class RunProgress:
    """Intra-run progress of one campaign run (live telemetry).

    Forwarded to the executor's ``live`` callback while a run executes —
    the per-run complement to the completion-level :class:`RunEvent`.
    ``sample`` carries cycles-completed, counters, the worst router and
    the watchdog verdict (see
    :class:`~repro.obs.session.ProgressSample`).
    """

    index: int
    total: int
    label: str
    workload: str
    sample: ProgressSample


LiveCallback = Callable[[RunProgress], None]


def _progress_sink(
    emit: Callable[[RunProgress], Any], index: int, total: int, spec: RunSpec
) -> ProgressSink:
    """A run's progress sink: label each sample and hand it to ``emit``."""

    def sink(sample: ProgressSample) -> None:
        emit(RunProgress(index, total, spec.label, spec.workload_name, sample))

    return sink


#: Worker-global progress queue, installed by the pool initializer (None
#: when live telemetry is off).  Plain module state is the only channel a
#: ``Pool`` worker function can reach.
_progress_queue: Any = None


def _init_progress_queue(queue: Any) -> None:
    global _progress_queue
    _progress_queue = queue


def _run_spec(task: tuple[int, int, RunSpec]) -> RunResult:
    """Top-level pool worker (must be picklable by reference)."""
    index, total, spec = task
    queue = _progress_queue
    if queue is None:
        return run(spec)
    return run(spec, progress=_progress_sink(queue.put, index, total, spec))


class Executor:
    """Order-preserving campaign executor with optional pool and cache.

    ``map`` returns results in spec order regardless of worker count, and a
    parallel run is bit-for-bit identical to a serial one (each simulation
    owns its RNG streams; processes share nothing).  Completed runs are
    appended to :attr:`events` for manifest reporting.

    ``obs`` applies one observability configuration to every spec (specs
    carrying their own ``obs`` keep it).  Observability-enabled runs bypass
    the result cache in both directions: a cached result has no trace or
    time series to serve, and storing an instrumented result would leak a
    time series into later uninstrumented reports.  When several runs of a
    campaign trace to the same path, each gets a per-run suffix
    (``trace.json`` → ``trace-0003.json``).
    """

    def __init__(
        self,
        workers: int = 1,
        cache: ResultCache | None = None,
        progress: ProgressCallback | None = None,
        obs: ObsConfig | None = None,
        live: LiveCallback | None = None,
    ):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.workers = workers
        self.cache = cache
        self.progress = progress
        self.obs = obs
        #: Intra-run telemetry: called with :class:`RunProgress` records
        #: while runs execute.  With a worker pool the records cross a
        #: multiprocessing queue and the callback fires on a drain thread,
        #: so it must be thread-safe.  Cache hits emit no live records
        #: (they never execute); their completion still reaches
        #: ``progress``.
        self.live = live
        self.events: list[RunEvent] = []

    @property
    def cache_hits(self) -> int:
        return sum(1 for event in self.events if event.cache_hit)

    def map(self, specs: Sequence[RunSpec]) -> list[RunResult]:
        """Run every spec, serving cached results, preserving input order."""
        specs = [self._with_obs(spec, index, len(specs))
                 for index, spec in enumerate(specs)]
        total = len(specs)
        digests = [spec.digest() for spec in specs]
        results: list[RunResult | None] = [None] * total

        misses: list[int] = []
        for index, spec in enumerate(specs):
            cached = self.cache.load(spec) if self._cacheable(spec) else None
            if cached is None:
                misses.append(index)
            else:
                results[index] = cached
                self._emit(index, total, spec, digests[index], True, cached)

        if misses:
            miss_specs = [specs[index] for index in misses]
            # strict: zip must run the generator to its end, not drop it at
            # its last yield, so a pool winds down instead of being killed.
            computed = self._compute(miss_specs, misses, total)
            for index, result in zip(misses, computed, strict=True):
                results[index] = result
                if self._cacheable(specs[index]):
                    self.cache.store(specs[index], result)
                self._emit(index, total, specs[index], digests[index], False, result)

        return results  # type: ignore[return-value]

    def _with_obs(self, spec: RunSpec, index: int, total: int) -> RunSpec:
        """Apply the executor-wide observability config to one spec."""
        if spec.obs is None and self.obs is not None:
            spec = replace(spec, obs=self.obs)
        if spec.obs is not None and total > 1:
            spec = replace(spec, obs=spec.obs.with_run_index(index))
        return spec

    def _cacheable(self, spec: RunSpec) -> bool:
        """Observability-enabled runs never touch the cache (see class doc)."""
        if self.cache is None:
            return False
        return spec.obs is None or not spec.obs.enabled

    def _compute(
        self, specs: list[RunSpec], indices: list[int], total: int
    ) -> Iterator[RunResult]:
        """Yield results for uncached specs in submission order.

        ``indices`` are the specs' positions in the originally submitted
        list, used to label :class:`RunProgress` records.
        """
        tasks = [(index, total, spec) for index, spec in zip(indices, specs)]
        if self.workers == 1 or len(specs) == 1:
            for index, _total, spec in tasks:
                sink = (
                    None
                    if self.live is None
                    else _progress_sink(self.live, index, total, spec)
                )
                yield run(spec, progress=sink)
            return
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            context = multiprocessing.get_context()
        # With live telemetry, workers put RunProgress records on a shared
        # queue and a daemon thread hands them to the callback until the
        # None sentinel arrives.  Results stream back through imap in
        # submission order either way.
        queue: Any = None
        thread: threading.Thread | None = None
        if self.live is not None:
            live, queue = self.live, context.Queue()

            def drain() -> None:
                for record in iter(queue.get, None):
                    live(record)

            thread = threading.Thread(target=drain, daemon=True)
            thread.start()
        try:
            with context.Pool(
                processes=min(self.workers, len(specs)),
                initializer=_init_progress_queue,
                initargs=(queue,),
            ) as pool:
                yield from pool.imap(_run_spec, tasks, chunksize=1)
                # Let the workers exit on their own before the with-block
                # terminates them: one killed while its queue feeder still
                # holds the queue's write lock would leave the sentinel
                # below unwritable and the join waiting for ever.
                pool.close()
                pool.join()
        finally:
            if thread is not None:
                queue.put(None)
                thread.join()

    def _emit(
        self,
        index: int,
        total: int,
        spec: RunSpec,
        digest: str,
        cache_hit: bool,
        result: RunResult,
    ) -> None:
        event = RunEvent(
            index=index,
            total=total,
            spec=spec,
            digest=digest,
            cache_hit=cache_hit,
            wall_time_s=result.wall_time_s,
            result=result,
        )
        self.events.append(event)
        if self.progress is not None:
            self.progress(event)
