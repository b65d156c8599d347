"""Machine-readable experiment reports (JSON).

Serialises run results and figure data so campaigns can be archived,
diffed across calibrations, or post-processed outside Python.  Everything
is plain-JSON types; no custom decoder is needed to read a report.

Results round-trip losslessly: ``result_from_dict(result_to_dict(r)) == r``
including the full latency histogram and per-class energy ledger, which is
what lets the on-disk cache in :mod:`repro.harness.exec` serve byte-identical
reports.  Wall-clock timings are deliberately *excluded* from result
payloads (a cached rerun must serialise identically to a fresh one); they
live in the campaign manifest built by :func:`manifest_to_dict`.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

from repro.harness.runner import RunResult
from repro.photonics.constants import CYCLE_TIME_PS
from repro.sim.stats import Histogram, LatencyStats, NetworkStats, RunningMean

if TYPE_CHECKING:  # pragma: no cover - sweeps imports exec, which imports this
    from repro.harness.sweeps import LatencyPoint


def _mean_to_dict(mean: RunningMean) -> dict[str, Any]:
    return {
        "count": mean.count,
        "mean": mean.mean if mean.count else None,
        "min": mean.min if mean.count else None,
        "max": mean.max if mean.count else None,
    }


def _mean_from_dict(payload: dict[str, Any]) -> RunningMean:
    mean = RunningMean()
    count = int(payload.get("count", 0))
    if count:
        # JSON preserves the int/float distinction, so assign verbatim:
        # coercing to float here would break byte-identical re-serialisation
        # of ledgers whose samples were ints (e.g. buffer occupancy).
        mean.count = count
        mean.mean = payload["mean"]
        mean.min = payload["min"]
        mean.max = payload["max"]
    return mean


def stats_to_dict(stats: NetworkStats) -> dict[str, Any]:
    """Flatten a stats ledger to JSON-friendly types (lossless)."""
    latency = _mean_to_dict(stats.latency.mean)
    latency["histogram"] = {
        str(bucket): count for bucket, count in stats.latency.histogram.items()
    }
    payload = {
        "measurement_start": stats.measurement_start,
        "packets_generated": stats.packets_generated,
        "packets_injected": stats.packets_injected,
        "packets_delivered": stats.packets_delivered,
        "packets_dropped": stats.packets_dropped,
        "retransmissions": stats.retransmissions,
        "multicast_packets": stats.multicast_packets,
        "hops_traversed": stats.hops_traversed,
        "delivery_ratio": stats.delivery_ratio,
        "final_cycle": stats.final_cycle,
        "latency": latency,
        "buffer_occupancy": _mean_to_dict(stats.buffer_occupancy_samples),
        "energy_pj": dict(stats.energy_pj),
        "average_power_w": stats.average_power_w(CYCLE_TIME_PS),
    }
    # Present only when fault injection actually fired: fault-free runs
    # keep the exact pre-fault payload shape, so the Fig 9/10 sha256 pins
    # and the reports of fault-free runs stay byte-identical.
    if stats.faults_injected or stats.packets_lost:
        payload["faults"] = {
            "injected": stats.faults_injected,
            "masked": stats.faults_masked,
            "packets_lost": stats.packets_lost,
            "delivered_despite_faults": stats.delivered_despite_faults,
            "kinds": dict(stats.fault_kinds),
        }
    return payload


def stats_from_dict(payload: dict[str, Any]) -> NetworkStats:
    """Rebuild a stats ledger from :func:`stats_to_dict` output.

    Derived quantities (``delivery_ratio``, ``average_power_w``) are
    recomputed from the restored counters, not read back.
    """
    latency = LatencyStats(mean=_mean_from_dict(payload["latency"]))
    histogram = Histogram()
    for bucket, count in payload["latency"].get("histogram", {}).items():
        histogram._buckets[int(bucket)] = int(count)
        histogram.count += int(count)
    latency.histogram = histogram
    stats = NetworkStats(
        measurement_start=int(payload.get("measurement_start", 0)),
        packets_generated=int(payload["packets_generated"]),
        packets_injected=int(payload["packets_injected"]),
        packets_delivered=int(payload["packets_delivered"]),
        packets_dropped=int(payload["packets_dropped"]),
        retransmissions=int(payload["retransmissions"]),
        multicast_packets=int(payload["multicast_packets"]),
        hops_traversed=int(payload["hops_traversed"]),
        latency=latency,
        energy_pj=Counter(
            {str(key): value for key, value in payload["energy_pj"].items()}
        ),
        final_cycle=int(payload["final_cycle"]),
    )
    stats.buffer_occupancy_samples = _mean_from_dict(
        payload.get("buffer_occupancy", {"count": 0})
    )
    faults = payload.get("faults")
    if faults is not None:
        stats.faults_injected = int(faults["injected"])
        stats.faults_masked = int(faults["masked"])
        stats.packets_lost = int(faults["packets_lost"])
        stats.delivered_despite_faults = int(faults["delivered_despite_faults"])
        stats.fault_kinds = Counter(
            {str(kind): int(count) for kind, count in faults["kinds"].items()}
        )
    return stats


def result_to_dict(result: RunResult) -> dict[str, Any]:
    """Serialise a run result (no wall-clock timing: see module docstring).

    The windowed time series and health report, when collected, *are*
    part of the payload — they are deterministic simulation data, unlike
    wall times.  Runs without metrics or watchdogs enabled omit the keys
    entirely, keeping their reports byte-identical to pre-observability
    output.
    """
    payload = {
        "label": result.label,
        "workload": result.workload,
        "cycles": result.cycles,
        "drained": result.drained,
        "stats": stats_to_dict(result.stats),
    }
    if result.timeseries is not None:
        payload["timeseries"] = result.timeseries.to_dict()
    if result.health is not None:
        payload["health"] = result.health.to_dict()
    return payload


def result_from_dict(payload: dict[str, Any]) -> RunResult:
    """Rebuild a run result from a cached :func:`result_to_dict` payload.

    A cached result never carries a time series or a health report: runs
    with observability on bypass the cache, and result equality ignores
    both blocks anyway.
    """
    return RunResult(
        label=payload["label"],
        workload=payload["workload"],
        cycles=int(payload["cycles"]),
        drained=bool(payload["drained"]),
        stats=stats_from_dict(payload["stats"]),
    )


def point_to_dict(point: LatencyPoint) -> dict[str, Any]:
    """Serialise one sweep point; a saturated latency becomes ``null``."""
    return {
        "rate": point.rate,
        "mean_latency": None if math.isinf(point.mean_latency) else point.mean_latency,
        "throughput": point.throughput,
        "delivered": point.delivered,
    }


def manifest_to_dict(events: Iterable[Any]) -> dict[str, Any]:
    """Campaign manifest from an executor's :class:`RunEvent` log.

    Records per-run specs, digests, cache hits and timings — everything
    needed to audit what a campaign actually executed vs served from cache.
    """
    ordered = sorted(events, key=lambda event: event.index)
    entries = []
    for event in ordered:
        entry = {
            "index": event.index,
            "digest": event.digest,
            "label": event.spec.label,
            "workload": event.spec.workload_name,
            "cycles": event.spec.cycles,
            "seed": event.spec.seed,
            "cache_hit": event.cache_hit,
            "wall_time_s": event.wall_time_s,
            "packets_per_second": event.result.packets_per_second,
            "spec": event.spec.to_dict(),
        }
        # Additive key: manifests from watchdog-less runs are unchanged.
        if event.result.health is not None:
            entry["health"] = event.result.health.status
        entries.append(entry)
    return {
        "runs": len(entries),
        "cache_hits": sum(1 for entry in entries if entry["cache_hit"]),
        "total_wall_time_s": math.fsum(entry["wall_time_s"] for entry in entries),
        "entries": entries,
    }


def figure_to_dict(data: Any) -> dict[str, Any]:
    """Serialise a figure dataclass (Figure4..Figure11) generically."""
    if not is_dataclass(data):
        raise TypeError(f"expected a figure dataclass, got {type(data).__name__}")
    return _jsonify(asdict(data))


def _jsonify(value: Any) -> Any:
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, float) and value in (float("inf"), float("-inf")):
        return None  # JSON has no infinity; saturated points become null
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def write_report(path: str | Path, payload: dict[str, Any]) -> Path:
    """Write a JSON report; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(_jsonify(payload), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
