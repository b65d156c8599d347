#!/usr/bin/env python
"""Drop anatomy: where Phastlane's packet drops happen, and why.

Replays the Ocean trace (the paper's most drop-prone workload, section 5)
with spatial metrics on, sums the per-router series over its windows, then
prints heatmaps of drops and deliveries across the 8x8 mesh, for 10-
versus 64-entry buffers.

Run:  python examples/drop_anatomy.py [--cycles N]
"""

import argparse

from repro.core.config import PhastlaneConfig
from repro.harness.exec import RunSpec, Splash2Workload
from repro.harness.runner import run
from repro.obs.config import ObsConfig
from repro.traffic.splash2 import generate_splash2_trace
from repro.util.geometry import MeshGeometry
from repro.util.plot import render_heatmap


def run_instrumented(buffers, cycles):
    """The run's stats, its mesh and per-node run totals of drops and
    deliveries (the window before the drain plus the drain window)."""
    result = run(
        RunSpec(
            PhastlaneConfig(buffer_entries=buffers),
            Splash2Workload("ocean"),
            cycles=cycles,
            obs=ObsConfig(metrics_interval=cycles, spatial=True),
        )
    )
    spatial = result.timeseries.spatial
    drops = [sum(column) for column in zip(*spatial.drops)]
    deliveries = [sum(column) for column in zip(*spatial.deliveries)]
    return result.stats, MeshGeometry(spatial.width, spatial.height), drops, deliveries


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cycles", type=int, default=1000)
    args = parser.parse_args()

    trace = generate_splash2_trace("ocean", duration_cycles=args.cycles)
    print(
        f"Ocean trace: {len(trace)} events, {trace.broadcast_count} broadcasts, "
        f"offered load {trace.offered_load():.3f}\n"
    )

    for buffers in (10, 64):
        stats, mesh, drops, deliveries = run_instrumented(buffers, args.cycles)
        print(
            f"=== {buffers}-entry buffers: "
            f"latency {stats.mean_latency:.1f} cycles, "
            f"{stats.packets_dropped} drops, "
            f"{stats.retransmissions} retransmissions ==="
        )
        print(render_heatmap(drops, mesh, title="drops per router:"))
        print()
        hottest = sorted(
            (n for n in range(mesh.num_nodes) if drops[n]), key=lambda n: -drops[n]
        )[:3]
        if hottest:
            print(
                "hottest droppers: "
                + ", ".join(f"node {n} ({drops[n]})" for n in hottest)
            )
        print(render_heatmap(deliveries, mesh, title="deliveries per node:"))
        print()


if __name__ == "__main__":
    main()
