#!/usr/bin/env python
"""Synthetic latency sweep: a single panel of the paper's Figure 9.

Sweeps the injection rate for one synthetic pattern and prints the average
packet latency curve for the optical 4/5/8-hop networks and the 2/3-cycle
electrical routers, with zero-load latency and saturation-rate summaries.
The whole sweep is one campaign: ``--workers N`` fans it across a process
pool and reruns are served from the on-disk cache unless ``--no-cache``.

Run:  python examples/synthetic_sweep.py [--pattern transpose] [--cycles N]
      [--workers 4] [--no-cache]
"""

import argparse

from repro.harness.exec import Executor, ResultCache
from repro.harness.experiments import fig09
from repro.harness.sweeps import saturation_rate, zero_load_latency
from repro.traffic.patterns import PATTERNS
from repro.util.plot import plot_latency_curves
from repro.util.tables import AsciiTable

RATES = (0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pattern", default="transpose", choices=sorted(PATTERNS))
    parser.add_argument("--cycles", type=int, default=900)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--no-cache", action="store_true")
    args = parser.parse_args()

    executor = Executor(
        workers=args.workers,
        cache=None if args.no_cache else ResultCache(),
    )
    print(f"sweeping {args.pattern} ...")
    curves = fig09.compute(
        patterns=[args.pattern], rates=RATES, cycles=args.cycles, executor=executor
    ).curves[args.pattern]
    table = AsciiTable(
        ["config"] + [f"{r:g}" for r in RATES] + ["zero-load", "saturation"],
        title=f"Average packet latency (cycles) vs injection rate — {args.pattern}",
    )
    for label, points in curves.items():
        cells = ["sat" if p.saturated else f"{p.mean_latency:.1f}" for p in points]
        table.add_row(
            [label]
            + cells
            + [f"{zero_load_latency(points):.1f}", f"{saturation_rate(points):g}"]
        )
    print()
    print(table.render())
    print()
    print(plot_latency_curves(curves, title=f"Figure 9 panel: {args.pattern}"))
    hits = executor.cache_hits
    print(f"\n{len(executor.events)} runs, {hits} served from cache.")


if __name__ == "__main__":
    main()
