#!/usr/bin/env python
"""Congestion maps over time: the spatial telemetry leg end-to-end.

Drives the optical network with hotspot traffic (every node aims a share
of its packets at one column — the congestion worst case of section 5)
through the plain ``run()`` entry point with spatial metrics enabled, so
the windowed time series carries a per-router occupancy/drop/delivery
companion series.  The script then renders the mean-occupancy heatmap at
three time slices — early, middle, late — showing the hotspot column
lighting up as buffers fill, and exports the whole series as JSON (the
same payload a ``--report`` campaign file would embed).

Run:  python examples/congestion_heatmap.py [--cycles N] [--rate R] [--out F]
"""

import argparse
import json

from repro.core.config import PhastlaneConfig
from repro.harness.exec import RunSpec, SyntheticWorkload
from repro.harness.runner import run
from repro.obs.config import ObsConfig
from repro.util.geometry import MeshGeometry
from repro.util.plot import render_heatmap


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cycles", type=int, default=600)
    parser.add_argument("--rate", type=float, default=0.15)
    parser.add_argument("--out", help="write the spatial time series as JSON here")
    args = parser.parse_args()

    interval = max(1, args.cycles // 6)
    spec = RunSpec(
        config=PhastlaneConfig(),
        workload=SyntheticWorkload("hotspot", args.rate),
        cycles=args.cycles,
        seed=7,
        obs=ObsConfig(metrics_interval=interval, spatial=True),
    )
    result = run(spec)
    series = result.timeseries
    assert series is not None and series.spatial is not None
    spatial = series.spatial
    mesh = MeshGeometry(spatial.width, spatial.height)

    print(
        f"hotspot@{args.rate:g} on {mesh}, {args.cycles} cycles, "
        f"{len(series.windows)} windows of {interval} cycles"
    )
    print(f"delivered {result.stats.packets_delivered}, "
          f"dropped {result.stats.packets_dropped}")
    print()

    slices = sorted({0, len(series.windows) // 2, len(series.windows) - 1})
    for index in slices:
        window = series.windows[index]
        print(
            render_heatmap(
                spatial.occupancy[index],
                mesh,
                title=(
                    f"mean occupancy, cycles {window.start}-{window.end} "
                    f"(peak={max(spatial.occupancy[index]):.1f}, "
                    f"drops={sum(spatial.drops[index])})"
                ),
            )
        )
        print()

    hottest = max(range(mesh.num_nodes),
                  key=lambda node: sum(row[node] for row in spatial.occupancy))
    print(f"hottest router over the run: node {hottest} ({mesh.coord(hottest)})")

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(series.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote spatial time series to {args.out}")


if __name__ == "__main__":
    main()
