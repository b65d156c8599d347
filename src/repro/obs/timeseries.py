"""Windowed time-series metrics: rates, occupancy and latency percentiles.

A :class:`MetricsWatcher` is an engine watcher (called once per committed
cycle) that snapshots the run's :class:`~repro.sim.stats.NetworkStats`
counters at fixed cycle intervals and turns the deltas into
:class:`Window` records — per-window injection/delivery/drop/retransmit
counts, mean total buffer occupancy, and p50/p95/p99 latency of the
packets *measured in that window*.  The result is a :class:`TimeSeries`
that serialises losslessly into the JSON report, which is what the
latency-over-time and drop-storm plots of the paper's section 5 analysis
need.

With ``spatial=True`` the watcher additionally keeps the *where*: a
:class:`SpatialSeries` of per-router mean occupancy, drops and deliveries
per window (drop/delivery attribution rides the network's tracer hub,
exactly like :mod:`repro.sim.probes`).  That turns the probes' ASCII-only
congestion heatmaps into a JSON time series that lands in the same report
file as the windowed metrics.

The watcher is strictly read-only over the network (the no-perturbation
invariant): it copies counters and sums buffer occupancy but never writes
simulator state.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.tracers import NodeEventCounter
from repro.sim.stats import nearest_rank

#: Percentiles reported per window, as (field suffix, p) pairs.
_PERCENTILES = (("p50", 50.0), ("p95", 95.0), ("p99", 99.0), ("p999", 99.9))


@dataclass(frozen=True)
class Window:
    """Aggregates over one ``[start, end)`` cycle window."""

    start: int
    end: int
    generated: int
    injected: int
    delivered: int
    dropped: int
    retransmitted: int
    #: Mean over the window of the summed buffer occupancy of all routers.
    mean_occupancy: float
    #: Latency percentiles (cycles) of packets measured in this window;
    #: ``None`` when the window measured no deliveries.
    latency_p50: int | None
    latency_p95: int | None
    latency_p99: int | None
    #: Fault-injection activity (both zero for fault-free runs): faults
    #: that fired in this window, and packets lost to exhausted retries.
    faulted: int = 0
    lost: int = 0
    #: p99.9 tail latency; defaulted (unlike its siblings) so payloads
    #: written before it existed still round-trip.
    latency_p999: int | None = None

    @property
    def cycles(self) -> int:
        return self.end - self.start

    def rate(self, counter: str) -> float:
        """A counter as a per-cycle rate over this window."""
        if counter not in _WINDOW_COUNTERS:
            raise ValueError(
                f"unknown counter {counter!r}; expected one of {_WINDOW_COUNTERS}"
            )
        return getattr(self, counter) / self.cycles if self.cycles else 0.0


_WINDOW_COUNTERS = (
    "generated",
    "injected",
    "delivered",
    "dropped",
    "retransmitted",
    "faulted",
    "lost",
)


@dataclass
class SpatialSeries:
    """Per-router telemetry aligned window-for-window with a time series.

    Each list holds one entry per closed window; each entry is a dense
    per-node list in node order (node = ``y * width + x``).  ``occupancy``
    is the mean buffer occupancy of each router over the window;
    ``drops``/``deliveries`` are the event counts attributed to the router
    where they physically happened.  Feed one slice to
    :func:`repro.sim.probes.render_heatmap` to see the congestion map at
    that moment of the run.
    """

    width: int
    height: int
    occupancy: list[list[float]] = field(default_factory=list)
    drops: list[list[int]] = field(default_factory=list)
    deliveries: list[list[int]] = field(default_factory=list)

    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    def to_dict(self) -> dict[str, Any]:
        return {
            "mesh": [self.width, self.height],
            "occupancy": self.occupancy,
            "drops": self.drops,
            "deliveries": self.deliveries,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SpatialSeries":
        width, height = payload["mesh"]
        return cls(
            width=int(width),
            height=int(height),
            occupancy=[[float(v) for v in row] for row in payload["occupancy"]],
            drops=[[int(v) for v in row] for row in payload["drops"]],
            deliveries=[[int(v) for v in row] for row in payload["deliveries"]],
        )


@dataclass
class TimeSeries:
    """An ordered list of :class:`Window` records at a fixed interval.

    ``spatial``, when collected, carries the per-router companion series
    (same window boundaries); it serialises under a ``"spatial"`` key that
    is simply absent for non-spatial runs, so pre-existing payloads stay
    byte-identical.
    """

    interval: int
    windows: list[Window] = field(default_factory=list)
    spatial: SpatialSeries | None = None

    def column(self, name: str) -> list[Any]:
        """One window field across all windows (for plotting)."""
        return [getattr(window, name) for window in self.windows]

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "interval": self.interval,
            "windows": [
                {
                    "start": w.start,
                    "end": w.end,
                    "generated": w.generated,
                    "injected": w.injected,
                    "delivered": w.delivered,
                    "dropped": w.dropped,
                    "retransmitted": w.retransmitted,
                    "mean_occupancy": w.mean_occupancy,
                    "latency_p50": w.latency_p50,
                    "latency_p95": w.latency_p95,
                    "latency_p99": w.latency_p99,
                    "latency_p999": w.latency_p999,
                    "faulted": w.faulted,
                    "lost": w.lost,
                }
                for w in self.windows
            ],
        }
        if self.spatial is not None:
            payload["spatial"] = self.spatial.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "TimeSeries":
        spatial = payload.get("spatial")
        return cls(
            interval=int(payload["interval"]),
            spatial=None if spatial is None else SpatialSeries.from_dict(spatial),
            windows=[
                Window(
                    start=int(w["start"]),
                    end=int(w["end"]),
                    generated=int(w["generated"]),
                    injected=int(w["injected"]),
                    delivered=int(w["delivered"]),
                    dropped=int(w["dropped"]),
                    retransmitted=int(w["retransmitted"]),
                    mean_occupancy=float(w["mean_occupancy"]),
                    latency_p50=_opt_int(w["latency_p50"]),
                    latency_p95=_opt_int(w["latency_p95"]),
                    latency_p99=_opt_int(w["latency_p99"]),
                    # Absent in payloads written before p99.9 landed.
                    latency_p999=_opt_int(w.get("latency_p999")),
                    # Absent in payloads written before fault injection.
                    faulted=int(w.get("faulted", 0)),
                    lost=int(w.get("lost", 0)),
                )
                for w in payload.get("windows", [])
            ],
        )


def _opt_int(value: Any) -> int | None:
    return None if value is None else int(value)


class MetricsWatcher:
    """Engine watcher that folds a run into a :class:`TimeSeries`.

    Register with ``engine.add_watcher(watcher)`` and call
    :meth:`finalize` after the run to flush the trailing partial window.
    Works with any network exposing ``stats`` and ``routers`` with an
    ``occupancy()`` method (both simulators do).

    ``spatial=True`` additionally collects the per-router companion
    series (see :class:`SpatialSeries`): the watcher registers a
    read-only tracer on the network's emit hub to attribute drops and
    deliveries to nodes, and splits its per-cycle occupancy sweep per
    router.  The network must then also expose ``mesh`` and
    ``add_tracer`` — again, both simulators do.
    """

    def __init__(self, network: Any, interval: int, spatial: bool = False) -> None:
        if interval <= 0:
            raise ValueError(f"metrics interval must be positive, got {interval}")
        self.network = network
        self.series = TimeSeries(interval=interval)
        self._window_start = 0
        self._occupancy_sum = 0
        self._tracer: NodeEventCounter | None = None
        self._node_occupancy: list[int] | None = None
        self._listeners: list[Callable[[Window, dict[str, Any] | None], None]] = []
        if spatial:
            mesh = network.mesh
            self.series.spatial = SpatialSeries(mesh.width, mesh.height)
            self._tracer = NodeEventCounter()
            network.add_tracer(self._tracer)
            self._node_occupancy = [0] * mesh.num_nodes
        self._last = self._snapshot()

    def add_listener(
        self, listener: Callable[[Window, dict[str, Any] | None], None]
    ) -> None:
        """Call ``listener(window, spatial_slice)`` at each window close.

        ``spatial_slice`` is the per-node companion data for that window
        (``None`` for non-spatial watchers) — this is what live streaming
        (:class:`~repro.obs.export.JsonlStreamWriter`) subscribes to.
        """
        self._listeners.append(listener)

    def _snapshot(self) -> dict[str, Any]:
        stats = self.network.stats
        snapshot = {
            "generated": stats.packets_generated,
            "injected": stats.packets_injected,
            "delivered": stats.packets_delivered,
            "dropped": stats.packets_dropped,
            "retransmitted": stats.retransmissions,
            "faulted": stats.faults_injected,
            "lost": stats.packets_lost,
            "histogram": Counter(stats.latency.histogram._buckets),
        }
        if self._tracer is not None:
            snapshot["node_drops"] = Counter(self._tracer.drops)
            snapshot["node_deliveries"] = Counter(self._tracer.deliveries)
        return snapshot

    def __call__(self, cycle: int) -> None:
        """Per-cycle hook; ``cycle`` is the cycle that just committed."""
        if self._node_occupancy is None:
            self._occupancy_sum += sum(
                router.occupancy() for router in self.network.routers
            )
        else:
            total = 0
            for router in self.network.routers:
                occupancy = router.occupancy()
                total += occupancy
                self._node_occupancy[router.node] += occupancy
            self._occupancy_sum += total
        if (cycle + 1) - self._window_start >= self.series.interval:
            self._close_window(cycle + 1)

    def finalize(self, final_cycle: int) -> TimeSeries:
        """Flush the trailing partial window; returns the series."""
        if final_cycle > self._window_start:
            self._close_window(final_cycle)
        return self.series

    def _close_window(self, end: int) -> None:
        now = self._snapshot()
        last = self._last
        delta_hist = now["histogram"] - last["histogram"]
        delta_count = sum(delta_hist.values())
        cycles = end - self._window_start
        pairs = sorted(delta_hist.items())
        percentiles = {
            f"latency_{suffix}": nearest_rank(pairs, delta_count, p)
            if delta_count
            else None
            for suffix, p in _PERCENTILES
        }
        self.series.windows.append(
            Window(
                start=self._window_start,
                end=end,
                generated=now["generated"] - last["generated"],
                injected=now["injected"] - last["injected"],
                delivered=now["delivered"] - last["delivered"],
                dropped=now["dropped"] - last["dropped"],
                retransmitted=now["retransmitted"] - last["retransmitted"],
                mean_occupancy=self._occupancy_sum / cycles,
                faulted=now["faulted"] - last["faulted"],
                lost=now["lost"] - last["lost"],
                **percentiles,
            )
        )
        spatial_slice: dict[str, Any] | None = None
        if self._node_occupancy is not None:
            spatial = self.series.spatial
            assert spatial is not None
            spatial.occupancy.append(
                [occupancy / cycles for occupancy in self._node_occupancy]
            )
            spatial.drops.append(
                self._node_delta(now["node_drops"], last["node_drops"])
            )
            spatial.deliveries.append(
                self._node_delta(now["node_deliveries"], last["node_deliveries"])
            )
            spatial_slice = {
                "occupancy": spatial.occupancy[-1],
                "drops": spatial.drops[-1],
                "deliveries": spatial.deliveries[-1],
            }
            self._node_occupancy = [0] * len(self._node_occupancy)
        self._window_start = end
        self._occupancy_sum = 0
        self._last = now
        for listener in self._listeners:
            listener(self.series.windows[-1], spatial_slice)

    def _node_delta(self, now: Counter, last: Counter) -> list[int]:
        """Per-node counter delta over one window, as a dense node list."""
        spatial = self.series.spatial
        assert spatial is not None
        return [now[node] - last[node] for node in range(spatial.num_nodes)]
