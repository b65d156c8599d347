"""Spatial instrumentation probes for network simulations.

A :class:`MeshProbe` samples per-node state each cycle (buffer occupancy,
queue backlogs) and accumulates per-node event counts (drops, deliveries),
then renders ASCII heatmaps — useful for seeing *where* the Phastlane drop
storms of section 5 happen (they cluster around hotspot columns) and for
debugging traffic profiles.

Probes attach through the observability layer's first-class emit points
(:meth:`network.add_tracer <repro.core.network.PhastlaneNetwork.add_tracer>`),
not by monkeypatching network internals, so they work identically on the
Phastlane optical network and the electrical baseline and never perturb
simulation results.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence, Union

from repro.obs.tracers import EventTally
from repro.util.geometry import MeshGeometry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.topology import Topology

#: What probes and heatmaps accept: a bare mesh grid or any topology whose
#: nodes lay out on one (every built-in topology exposes ``.mesh``).
MeshLike = Union[MeshGeometry, "Topology"]

#: Shade characters from empty to full.
_SHADES = " .:-=+*#%@"

#: Counters addressable by name in :meth:`MeshProbe.heatmap` and
#: :meth:`MeshProbe.hottest_nodes`.
PROBE_COUNTERS = ("drops", "deliveries", "occupancy_sum")


def render_heatmap(
    values: "Mapping[int, float] | Sequence[float]",
    mesh: MeshLike,
    title: str | None = None,
) -> str:
    """Render per-node values as an ASCII shade map of the node grid.

    ``values`` is either a mapping from node to value (missing nodes read
    as zero, so a :class:`collections.Counter` works directly) or a dense
    per-node sequence in node order — e.g. one window slice of a
    :class:`repro.obs.timeseries.SpatialSeries`.  Row 0 of the grid
    (south) prints at the bottom, matching :mod:`repro.util.geometry`.
    Passing a topology instead of a bare mesh labels the default title
    with the topology (e.g. ``8x8 torus``) while rendering on its grid.
    """
    grid = getattr(mesh, "mesh", mesh)
    if isinstance(values, Mapping):
        dense = [float(values.get(node, 0)) for node in range(grid.num_nodes)]
    else:
        dense = [float(value) for value in values]
        if len(dense) != grid.num_nodes:
            raise ValueError(
                f"expected {grid.num_nodes} per-node values for {mesh}, "
                f"got {len(dense)}"
            )
    peak = max(dense, default=0.0)
    lines = [title if title is not None else f"heatmap ({mesh}), peak={peak:g}"]
    for y in reversed(range(grid.height)):
        row = []
        for x in range(grid.width):
            value = dense[y * grid.width + x]
            if peak == 0:
                row.append(_SHADES[0])
            else:
                row.append(_SHADES[round(value / peak * (len(_SHADES) - 1))])
        lines.append("".join(row))
    return "\n".join(lines)


@dataclass
class MeshProbe:
    """Per-node counters and occupancy integrals over a run.

    ``mesh`` may be a bare :class:`MeshGeometry` or any topology; node
    checks and heatmap titles follow whichever was given.
    """

    mesh: MeshLike
    drops: Counter = field(default_factory=Counter)
    deliveries: Counter = field(default_factory=Counter)
    occupancy_sum: Counter = field(default_factory=Counter)
    samples: int = 0

    def record_drop(self, node: int) -> None:
        self._check(node)
        self.drops[node] += 1

    def record_delivery(self, node: int) -> None:
        self._check(node)
        self.deliveries[node] += 1

    def sample_occupancy(self, occupancy_by_node: dict[int, int]) -> None:
        for node, occupancy in occupancy_by_node.items():
            self._check(node)
            self.occupancy_sum[node] += occupancy
        self.samples += 1

    def sample_network(self, network: Any, cycle: int) -> None:
        """End-of-cycle tracer hook: sample every router's occupancy."""
        self.sample_occupancy(
            {router.node: router.occupancy() for router in network.routers}
        )

    def _check(self, node: int) -> None:
        if node < 0 or node >= self.mesh.num_nodes:
            raise ValueError(f"node {node} outside {self.mesh}")

    def _counter(self, counter_name: str) -> Counter:
        """Resolve a counter by name, rejecting anything off the list.

        A raw ``getattr`` here used to turn a typo (or ``"samples"``,
        which is an ``int``) into a confusing ``AttributeError`` or
        ``TypeError`` deep inside rendering.
        """
        if counter_name not in PROBE_COUNTERS:
            raise ValueError(
                f"unknown probe counter {counter_name!r}; "
                f"expected one of {PROBE_COUNTERS}"
            )
        return getattr(self, counter_name)

    # -- views ------------------------------------------------------------------

    def mean_occupancy(self, node: int) -> float:
        if self.samples == 0:
            return 0.0
        return self.occupancy_sum[node] / self.samples

    def hottest_nodes(self, counter_name: str = "drops", top: int = 5) -> list[int]:
        counter = self._counter(counter_name)
        return [node for node, _ in counter.most_common(top)]

    def heatmap(self, counter_name: str = "drops", title: str | None = None) -> str:
        """Render a counter as an ASCII shade map of the mesh.

        A thin wrapper over :func:`render_heatmap` (which also renders
        spatial time-series slices); the default title names the counter.
        """
        counter = self._counter(counter_name)
        peak = max(counter.values(), default=0)
        return render_heatmap(
            counter,
            self.mesh,
            title or f"{counter_name} heatmap ({self.mesh}), peak={peak}",
        )


def attach_probe(network: Any) -> MeshProbe:
    """Instrument a network (optical or electrical) with a spatial probe.

    Registers a tracer on the network's emit hub: every drop and delivery
    is attributed to the node where it physically happened, and buffer
    occupancy is sampled per router at the end of every cycle.  Works with
    any network exposing ``add_tracer`` and per-router ``occupancy()`` —
    both :class:`~repro.core.network.PhastlaneNetwork` and
    :class:`~repro.electrical.network.ElectricalNetwork` do.  Networks
    exposing a ``topology`` get it attached to the probe so heatmap
    titles name the real graph (e.g. ``8x8 torus``).
    """
    probe = MeshProbe(getattr(network, "topology", None) or network.mesh)
    network.add_tracer(
        EventTally(probe.drops, probe.deliveries, probe.sample_network)
    )
    return probe
