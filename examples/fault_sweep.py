#!/usr/bin/env python
"""Fault-degradation curve: throughput and losses vs device fault rate.

Holds the workload fixed (uniform traffic at one injection rate) and sweeps
the per-crossing fault probability on the optical network and the electrical
baseline, printing a degradation table and an ASCII delivery-ratio plot.
The interesting comparison is *how* the two fabrics degrade: Phastlane
converts every fault into a drop-signal round trip and a retransmission
(so faults cost latency before they cost packets), while the electrical
baseline retries at link level.  Past the retry limit both start losing
packets — the cliff the curve makes visible.

Run:  python examples/fault_sweep.py [--rate 0.05] [--cycles N]
      [--fault-rates 0.0,0.01,...] [--dead-ports 2] [--workers 4]
"""

import argparse

from repro.faults.config import FaultConfig
from repro.harness.exec import Executor, ResultCache
from repro.harness.experiments.configs import standard_configs
from repro.harness.sweeps import throughput_vs_fault_rate
from repro.util.plot import AsciiPlot
from repro.util.tables import AsciiTable

LABELS = ("Optical4", "Electrical3")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rate", type=float, default=0.05)
    parser.add_argument("--cycles", type=int, default=900)
    parser.add_argument(
        "--fault-rates", default="0.0,0.002,0.005,0.01,0.02,0.05,0.1"
    )
    parser.add_argument(
        "--dead-ports", type=int, default=0, metavar="N",
        help="additionally kill N seed-chosen ports at every swept point",
    )
    parser.add_argument("--fault-seed", type=int, default=0)
    parser.add_argument("--retry-limit", type=int, default=8)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--no-cache", action="store_true")
    args = parser.parse_args()

    fault_rates = [float(r) for r in args.fault_rates.split(",")]
    template = FaultConfig(
        seed=args.fault_seed,
        dead_port_count=args.dead_ports,
        retry_limit=args.retry_limit,
    )
    executor = Executor(
        workers=args.workers,
        cache=None if args.no_cache else ResultCache(),
    )
    configs = standard_configs()

    table = AsciiTable(
        ["config", "fault rate", "delivered", "lost", "faults",
         "delivery ratio", "mean latency"],
        title=f"Degradation under link faults — uniform@{args.rate:g}",
    )
    curves = {}
    for label in LABELS:
        print(f"sweeping {label} ...")
        points = throughput_vs_fault_rate(
            configs[label],
            "uniform",
            args.rate,
            fault_rates,
            cycles=args.cycles,
            faults=template,
            executor=executor,
        )
        curves[label] = points
        for point in points:
            latency = point.mean_latency
            table.add_row(
                [
                    label,
                    f"{point.fault_rate:g}",
                    point.delivered,
                    point.lost,
                    point.faults_injected,
                    f"{point.delivery_ratio:.4f}",
                    "-" if latency == float("inf") else f"{latency:.2f}",
                ]
            )
    print()
    print(table.render())
    print()

    plot = AsciiPlot(
        width=60,
        height=12,
        title="Delivery ratio vs per-crossing fault rate",
        x_label="fault rate",
        y_label="delivery ratio",
    )
    for label, points in curves.items():
        plot.add_series(
            label,
            [point.fault_rate for point in points],
            [point.delivery_ratio for point in points],
        )
    print(plot.render())
    hits = executor.cache_hits
    print(f"\n{len(executor.events)} runs, {hits} served from cache.")


if __name__ == "__main__":
    main()
