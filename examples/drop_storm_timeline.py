#!/usr/bin/env python
"""Drop storms in time *and* space: windowed rates plus a mesh heatmap.

Drives the optical network with hotspot traffic (every node aims a share
of its packets at one column, the paper's worst case for Phastlane's
bufferless fast path), collecting both legs of the observability layer at
once:

- a metrics window (``ObsConfig(metrics_interval=...)``) folds the run
  into per-window injection/drop rates and latency percentiles (the
  *when* of a drop storm);
- its spatial companion series (``spatial=True``) attributes every drop
  to the blocking router (the *where*), summed here over the windows.

Both arrive on the run's result as ``result.timeseries``, as they do in a
``repro campaign --report`` payload.

Run:  python examples/drop_storm_timeline.py [--cycles N] [--rate R]
"""

import argparse

from repro.core.config import PhastlaneConfig
from repro.harness.exec import RunSpec, SyntheticWorkload
from repro.harness.runner import run
from repro.obs.config import ObsConfig
from repro.obs.timeseries import TimeSeries
from repro.util.plot import render_heatmap

#: Width of the ASCII rate bars.
BAR = 40


def render_timeline(series: TimeSeries) -> str:
    """One row per window: drop-rate bar, injection rate, p95 latency."""
    peak = max((w.rate("dropped") for w in series.windows), default=0.0)
    lines = [
        "cycles        drops/cycle"
        + " " * (BAR - 10)
        + "inj/cycle   p95 latency"
    ]
    for window in series.windows:
        dropped = window.rate("dropped")
        width = round(dropped / peak * BAR) if peak else 0
        p95 = "--" if window.latency_p95 is None else f"{window.latency_p95}"
        lines.append(
            f"{window.start:5d}-{window.end:<5d} "
            f"{'#' * width:<{BAR}} {dropped:7.3f}  "
            f"{window.rate('injected'):7.3f}  {p95:>6}"
        )
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cycles", type=int, default=1000)
    parser.add_argument("--rate", type=float, default=0.2)
    parser.add_argument("--interval", type=int, default=100)
    args = parser.parse_args()

    config = PhastlaneConfig()
    result = run(
        RunSpec(
            config,
            SyntheticWorkload("hotspot", args.rate),
            cycles=args.cycles,
            seed=7,
            obs=ObsConfig(metrics_interval=args.interval, spatial=True),
        )
    )
    stats, series = result.stats, result.timeseries

    print(
        f"hotspot @ {args.rate:g} pkts/node/cycle, {args.cycles} cycles: "
        f"{stats.packets_dropped} drops, {stats.retransmissions} "
        f"retransmissions, mean latency {stats.mean_latency:.1f} cycles\n"
    )
    print("drop-rate timeline (storms ramp as buffers fill):")
    print(render_timeline(series))
    print()
    drops = [sum(column) for column in zip(*series.spatial.drops)]
    print(render_heatmap(drops, config.mesh, title="where the drops happen:"))
    hottest = sorted(
        (n for n in range(len(drops)) if drops[n]), key=lambda n: -drops[n]
    )[:3]
    if hottest:
        print(
            "hottest droppers: "
            + ", ".join(f"node {n} ({drops[n]})" for n in hottest)
        )


if __name__ == "__main__":
    main()
