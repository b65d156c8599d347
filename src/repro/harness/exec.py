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
  spec digest plus the digest of the package's own source
  (:func:`calibration_stamp`), so re-running a campaign only simulates specs
  whose inputs (or the simulator itself) changed;
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
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.fabric.protocol import NetworkConfig
from repro.fabric.registry import config_kind
from repro.faults.config import FaultConfig
from repro.harness.runner import MAX_DRAIN_CYCLES, RunResult, run
from repro.obs.config import ObsConfig
from repro.obs.session import ProgressSample, ProgressSink
from repro.util.errors import SpecError

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


# -- configuration serialisation ---------------------------------------------

#: The Table 1/2 rows every mesh backend once carried as fields: the NIC
#: size and packet width (``repro.photonics.constants``).
_TABLE_ROWS: dict[str, Any] = {"nic_buffer_entries": 50, "packet_bits": 640}
#: The optical design point's: WDM degree and crossing efficiency
#: (``repro.photonics.constants``) and the drop-retry backoff
#: (``repro.core.config``).
_OPTICAL_ROWS: dict[str, Any] = {
    **_TABLE_ROWS,
    "payload_wdm": 64,
    "crossing_efficiency": 0.98,
    "retry_penalty_cycles": 4,
    "backoff_cap_log2": 5,
    "seed": 1,
}

#: Keys a serialised config of each kind still carries although the fields
#: are gone, at the only values left: the design-point rows no figure
#: varies, each a named constant now; for ``"phastlane"`` also the paper's
#: section 7 "future work" knobs, which it never evaluates; for
#: ``"electrical"`` the Table 2 rows of ``repro.electrical.config``.
#: Written so that the pinned spec digests, the ``spec`` of a JSONL trace
#: header (which ``repro analyze --diff`` keys on) and the manifests stay
#: byte-identical.
RETIRED_KEYS: dict[str, dict[str, Any]] = {
    "phastlane": {
        **_OPTICAL_ROWS,
        "buffer_arbitration": "rotating",
        "contention_policy": "drop",
        "buffer_sharing": False,
    },
    "vectorized": _OPTICAL_ROWS,
    "electrical": {
        **_TABLE_ROWS,
        "vc_depth": 1,
        "input_speedup": 4,
        "output_speedup": 1,
        "wait_for_tail_credit": True,
        "islip_iterations": 1,
        "credit_delay_cycles": 1,
    },
    "ideal": _TABLE_ROWS,
}


def config_to_dict(config: NetworkConfig) -> dict[str, Any]:
    """Flatten a network configuration to JSON-friendly types.

    The ``kind`` discriminator comes from the fabric backend table, so
    every backend's config serialises (and digests) without this module
    knowing its class.  Raises :class:`~repro.util.errors.FabricError` for a
    type the table does not have.

    A ``topology`` field holding the default (``"mesh"``) is omitted —
    mirroring the disabled-``FaultConfig`` normalisation — so every
    pre-topology spec digest stays byte-identical: the pinned ones, and
    the ones written into trace headers and manifests.
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


# -- run specification -------------------------------------------------------

#: Keys a serialised spec still carries at the one value every run used:
#: the ``cycles // 5`` warm-up (``None``) and the trace-drain budget
#: (``runner.MAX_DRAIN_CYCLES``).  Written so that the pinned spec digests,
#: the ``spec`` of a JSONL trace header and the manifests stay
#: byte-identical.
RETIRED_SPEC_KEYS: dict[str, Any] = {
    "warmup": None,
    "max_drain_cycles": MAX_DRAIN_CYCLES,
}


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one simulation run.

    ``cycles`` is the injection window for generated workloads (synthetic
    and SPLASH2); trace-file workloads replay the file's own span and run
    to drain.  Synthetic runs measure latency after a ``cycles // 5``
    warm-up, the standard methodology.

    ``faults`` describes injected device faults and — unlike ``obs`` — IS
    part of the spec's identity: faults change simulated physics, so two
    specs differing only in their fault model must hash, compare and cache
    differently.  A disabled fault config is normalised to ``None`` at
    construction, keeping the serialisation (and therefore every pre-fault
    digest pin, trace header and manifest) byte-identical to a tree
    without faults.

    ``obs`` configures observability (tracing / time-series metrics /
    health watchdogs) and is *not* part of the spec's identity: it is excluded
    from equality, ``to_dict`` and the content digest, because it never
    changes simulation results (see :mod:`repro.obs`).
    """

    config: NetworkConfig
    workload: Workload
    cycles: int = 1500
    seed: int = 1
    faults: FaultConfig | None = None
    obs: ObsConfig | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.cycles <= 0:
            raise SpecError("cycles must be positive")
        if self.seed < 0:
            raise SpecError("seed must be non-negative")
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
            "warmup": RETIRED_SPEC_KEYS["warmup"],
            "seed": self.seed,
            "max_drain_cycles": RETIRED_SPEC_KEYS["max_drain_cycles"],
        }
        # Key present only for enabled fault models: a fault-free spec
        # serialises exactly as it did before faults existed, so its pinned
        # digest, trace header and manifest entry keep their bytes.
        if self.faults is not None:
            payload["faults"] = self.faults.to_dict()
        return payload

    def digest(self) -> str:
        """Stable content digest of the spec (sha256 of canonical JSON)."""
        return hashlib.sha256(_canonical_json(self.to_dict()).encode()).hexdigest()


# -- on-disk result cache ----------------------------------------------------


@lru_cache(maxsize=None)
def calibration_stamp() -> str:
    """The sha256 of every module's path and source under ``repro``, read
    once per process the first time a cache entry is named: any edit to
    the package, a comment's included, is a new stamp, so no result an
    older tree stored is ever served as this one's."""
    package = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class ResultCache:
    """Content-addressed result store under ``root/v<calibration_stamp()>/``.

    A cached entry is served only when both the spec digest *and* the
    calibration stamp match, so editing the package (or changing any spec
    input) invalidates it.  Corrupt or unreadable entries, and entries
    stored under another stamp, are treated as misses.
    """

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR):
        self.root = Path(root)

    def path_for(self, spec: RunSpec) -> Path:
        return self.root / f"v{calibration_stamp()}" / f"{spec.digest()}.json"

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
        if payload.get("calibration") != calibration_stamp():
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
            "calibration": calibration_stamp(),
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
    ``sample`` carries cycles completed, flits, the worst router and the
    watchdog verdict (see :class:`~repro.obs.session.ProgressSample`).
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
