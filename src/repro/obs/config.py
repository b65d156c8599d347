"""The observability configuration threaded through runs and campaigns.

:class:`ObsConfig` is deliberately *not* part of a
:class:`~repro.harness.exec.RunSpec`'s identity: it is excluded from the
spec's equality, hash, ``to_dict`` and content digest, exactly like wall
times — two runs of the same spec with and without observability simulate
the same physics.  Consequently the on-disk result cache is bypassed for
observability-enabled runs (a cached result has no trace or time series to
give back).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

#: Health-window length (cycles) when ``health=True`` without an explicit
#: ``health_interval`` and without a metrics window to piggyback on.
DEFAULT_HEALTH_INTERVAL = 100

#: Flat windows before the stall/livelock watchdog goes critical.
DEFAULT_STALL_WINDOWS = 5


@dataclass(frozen=True)
class ObsConfig:
    """What to observe during a run.  Everything defaults to off.

    ``trace_path`` enables packet-lifecycle tracing to a file; the format
    is Chrome ``trace_event`` JSON unless the path ends in ``.jsonl``.
    ``trace_sample`` keeps that fraction of packet lifecycles
    (deterministically by uid).  ``metrics_interval`` enables the windowed
    time series (cycles per window); ``spatial`` extends it with the
    per-router occupancy/drop/delivery companion series (it needs the
    window clock, so it requires ``metrics_interval``).

    ``health`` enables the runtime watchdogs
    (:class:`~repro.obs.health.HealthMonitor`): invariant checks evaluated
    every ``health_interval`` cycles (defaults to ``metrics_interval``,
    falling back to :data:`DEFAULT_HEALTH_INTERVAL`), with stall/livelock
    escalation after ``health_stall_windows`` flat windows.  ``stream_path``
    enables live JSONL streaming of closed metrics windows and health
    findings (see :class:`~repro.obs.export.JsonlStreamWriter`), so
    external tooling can tail the run while it executes.
    """

    trace_path: str | None = None
    trace_sample: float = 1.0
    metrics_interval: int | None = None
    spatial: bool = False
    health: bool = False
    health_interval: int | None = None
    health_stall_windows: int = DEFAULT_STALL_WINDOWS
    stream_path: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ValueError(
                f"trace_sample must be in [0, 1], got {self.trace_sample}"
            )
        if self.trace_sample != 1.0 and self.trace_path is None:
            raise ValueError("trace_sample without trace_path is inert")
        if self.metrics_interval is not None and self.metrics_interval <= 0:
            raise ValueError(
                f"metrics_interval must be positive, got {self.metrics_interval}"
            )
        if self.spatial and self.metrics_interval is None:
            raise ValueError(
                "spatial telemetry is windowed: set metrics_interval too"
            )
        if self.health_interval is not None:
            if self.health_interval <= 0:
                raise ValueError(
                    f"health_interval must be positive, got {self.health_interval}"
                )
            if not self.health:
                raise ValueError("health_interval without health=True is inert")
        if self.health_stall_windows < 1:
            raise ValueError(
                f"health_stall_windows must be >= 1, got {self.health_stall_windows}"
            )
        if self.health_stall_windows != DEFAULT_STALL_WINDOWS and not self.health:
            raise ValueError("health_stall_windows without health=True is inert")
        if self.stream_path is not None and self.metrics_interval is None:
            raise ValueError(
                "streaming exports closed metrics windows: set metrics_interval too"
            )

    @property
    def enabled(self) -> bool:
        """True when any leg of the subsystem is switched on."""
        return (
            self.trace_path is not None
            or self.metrics_interval is not None
            or self.health
            or self.stream_path is not None
        )

    @property
    def trace_format(self) -> str:
        """``"jsonl"`` or ``"chrome"``, inferred from the path suffix."""
        if self.trace_path is not None and self.trace_path.endswith(".jsonl"):
            return "jsonl"
        return "chrome"

    @property
    def effective_health_interval(self) -> int:
        """The watchdog evaluation window, after defaulting (see class doc)."""
        if self.health_interval is not None:
            return self.health_interval
        if self.metrics_interval is not None:
            return self.metrics_interval
        return DEFAULT_HEALTH_INTERVAL

    def with_run_index(self, index: int) -> "ObsConfig":
        """A copy whose output paths are unique to run ``index`` of a campaign.

        ``drops.json`` becomes ``drops-0003.json``; configs without any
        per-run file outputs are returned unchanged.
        """
        config = self
        if config.trace_path is not None:
            config = replace(
                config, trace_path=_indexed_path(config.trace_path, index)
            )
        if config.stream_path is not None:
            config = replace(
                config, stream_path=_indexed_path(config.stream_path, index)
            )
        return config


def _indexed_path(path_str: str, index: int) -> str:
    path = Path(path_str)
    return str(path.with_name(f"{path.stem}-{index:04d}{path.suffix}"))
