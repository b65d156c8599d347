"""Statistics collection for network simulations.

:class:`NetworkStats` is the shared ledger both simulators write into: packet
injections, deliveries, drops, retransmissions, hop counts and per-class
energy.  Latency is measured from packet *generation* (entry into the NIC
queue) to delivery at the destination node, matching the paper's "average
packet latency".
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable


class SaturationError(RuntimeError):
    """Raised by sweep drivers when a network fails to reach steady state."""


class RunningMean:
    """Numerically stable streaming mean/max/min/count."""

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def add(self, value: float) -> None:
        self.count += 1
        self.mean += (value - self.mean) / self.count
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def total(self) -> float:
        return self.mean * self.count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunningMean):
            return NotImplemented
        return (self.count, self.mean, self.min, self.max) == (
            other.count,
            other.mean,
            other.min,
            other.max,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RunningMean(count={self.count}, mean={self.mean:.3f})"


def nearest_rank(pairs: Iterable[tuple[int, int]], count: int, p: float) -> int:
    """Nearest-rank ``p``-th percentile of a non-empty distribution.

    ``pairs`` are ``(value, occurrences)`` in ascending value order and
    ``count`` is the sum of the occurrences.  The rank is
    ``max(1, round(count * p / 100))`` — the one rule behind run-level,
    windowed and blame-report percentiles, so they agree to the cycle.
    """
    target = max(1, int(round(count * p / 100.0)))
    running = 0
    for value, occurrences in pairs:
        running += occurrences
        if running >= target:
            return value
    raise ValueError(f"no rank {target} among {running} recorded values")


class Histogram:
    """Integer-bucketed histogram (used for latency distributions)."""

    def __init__(self) -> None:
        self._buckets: Counter[int] = Counter()
        self.count = 0

    def add(self, value: float) -> None:
        self._buckets[int(value)] += 1
        self.count += 1

    def items(self) -> list[tuple[int, int]]:
        return sorted(self._buckets.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return self.count == other.count and self._buckets == other._buckets


@dataclass
class LatencyStats:
    """Latency summary over delivered packets."""

    mean: RunningMean = field(default_factory=RunningMean)
    histogram: Histogram = field(default_factory=Histogram)

    def record(self, latency_cycles: float) -> None:
        if latency_cycles < 0:
            raise ValueError(f"negative latency {latency_cycles}")
        self.mean.add(latency_cycles)
        self.histogram.add(latency_cycles)


@dataclass
class NetworkStats:
    """Ledger of everything a network run records.

    Energy counters are in picojoules; callers convert to average power by
    dividing by simulated time.  ``measurement_start`` supports warm-up:
    packets generated before that cycle count in neither latency nor
    throughput (the run-wide counters still see them).
    """

    measurement_start: int = 0
    packets_generated: int = 0
    packets_injected: int = 0
    packets_delivered: int = 0
    packets_dropped: int = 0
    retransmissions: int = 0
    multicast_packets: int = 0
    hops_traversed: int = 0
    faults_injected: int = 0
    faults_masked: int = 0
    packets_lost: int = 0
    delivered_despite_faults: int = 0
    fault_kinds: Counter = field(default_factory=Counter)
    buffer_occupancy_samples: RunningMean = field(default_factory=RunningMean)
    latency: LatencyStats = field(default_factory=LatencyStats)
    energy_pj: Counter = field(default_factory=Counter)
    final_cycle: int = 0

    def record_generated(self, cycle: int, *, multicast: bool = False) -> None:
        self.packets_generated += 1
        if multicast:
            self.multicast_packets += 1

    def record_injected(self, cycle: int) -> None:
        self.packets_injected += 1

    def record_delivered(self, generated_cycle: int, delivered_cycle: int) -> None:
        """Record a delivery; latency counts the delivery cycle itself.

        A packet generated and delivered within the same cycle has latency 1
        (the light still spent that cycle in flight), keeping the optical
        and electrical latency definitions comparable.
        """
        if delivered_cycle < generated_cycle:
            raise ValueError("delivery before generation")
        self.packets_delivered += 1
        if generated_cycle >= self.measurement_start:
            self.latency.record(delivered_cycle - generated_cycle + 1)

    def record_dropped(self) -> None:
        self.packets_dropped += 1

    def record_retransmission(self) -> None:
        self.retransmissions += 1

    def record_fault(self, kind: str) -> None:
        """An injected fault hit a crossing (see ``FAULT_KINDS``)."""
        self.faults_injected += 1
        self.fault_kinds[kind] += 1

    def record_fault_masked(self, count: int = 1) -> None:
        """Recovery machinery (backoff resend / link retry) absorbed a fault."""
        self.faults_masked += count

    def record_fault_loss(self, count: int = 1) -> None:
        """A packet exhausted its retry budget and is gone for good."""
        self.packets_lost += count

    def record_fault_survivor(self, count: int = 1) -> None:
        """A delivered packet that was hit by at least one fault en route."""
        self.delivered_despite_faults += count

    def record_hops(self, hops: int) -> None:
        self.hops_traversed += hops

    @property
    def flits_processed(self) -> int:
        """Total flit events the simulators handled, as a work measure.

        Both networks carry single-flit packets (an 80-byte cache line per
        flit), so the simulator's flit workload is every injection plus
        every router-to-router hop.  The repo benchmark (``bench/``)
        divides host wall time by it to report ``host_us_per_flit``.
        """
        return self.packets_injected + self.hops_traversed

    @property
    def total_energy_pj(self) -> float:
        # fsum: the total must not depend on category insertion order, so a
        # stats ledger restored from a (sorted) JSON report sums identically.
        return math.fsum(self.energy_pj.values())

    def average_power_w(self, cycle_time_ps: float) -> float:
        """Mean power in watts over the run (energy / simulated time)."""
        if self.final_cycle <= 0:
            return 0.0
        seconds = self.final_cycle * cycle_time_ps * 1e-12
        joules = self.total_energy_pj * 1e-12
        return joules / seconds

    @property
    def mean_latency(self) -> float:
        if self.latency.mean.count == 0:
            raise SaturationError("no packets measured for latency")
        return self.latency.mean.mean

    @property
    def delivery_ratio(self) -> float:
        if self.packets_generated == 0:
            return 1.0
        return self.packets_delivered / self.packets_generated

    def throughput(self, num_nodes: int) -> float:
        """Deliveries per node per cycle over the measured window: those of
        the packets the latency column measures, generated in the window."""
        window = self.final_cycle - self.measurement_start
        if window <= 0 or num_nodes <= 0:
            return 0.0
        return self.latency.mean.count / (window * num_nodes)
