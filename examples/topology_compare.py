#!/usr/bin/env python
"""Compare the two topologies, mesh and torus, under one workload.

Part 1 drives the cycle-accurate Phastlane pipeline with the same
uniform traffic on the 2D mesh and on the 2D torus — the wrap links cut
the mean hop count, which shows up directly as lower latency.  Part 2
sweeps the analytic ideal backend over every registered topology,
isolating the pure topology effect from contention.  Part 3 prices one
corner-to-corner packet with the photonics latency model on each
topology (the folded torus pays longer waveguides per hop but needs
fewer hops).

Run:  python examples/topology_compare.py [--cycles N]
"""

import argparse

from repro import PhastlaneConfig, RunSpec, SyntheticWorkload, run
from repro.fabric.ideal import IdealConfig
from repro.photonics.latency import RouterLatencyModel
from repro.topology.registry import registered_topologies, topology_for
from repro.util.geometry import MeshGeometry
from repro.util.tables import AsciiTable

RATE = 0.10  # packets/node/cycle


def cycle_accurate_comparison(cycles: int) -> None:
    print(
        f"Phastlane on mesh vs torus (8x8, uniform traffic at {RATE} "
        "packets/node/cycle) ..."
    )
    workload = SyntheticWorkload("uniform", RATE)
    results = {
        name: run(
            RunSpec(PhastlaneConfig(topology=name), workload, cycles=cycles)
        )
        for name in ("mesh", "torus")
    }

    table = AsciiTable(
        ["metric"] + list(results),
        title="\nCycle-accurate Phastlane, same workload, two topologies",
    )
    table.add_row(
        ["mean packet latency (cycles)"]
        + [f"{r.mean_latency:.2f}" for r in results.values()]
    )
    table.add_row(
        ["mean hops per packet"]
        + [
            f"{r.stats.hops_traversed / r.stats.packets_delivered:.2f}"
            for r in results.values()
        ]
    )
    table.add_row(
        ["delivered packets"]
        + [r.stats.packets_delivered for r in results.values()]
    )
    print(table.render())


def analytic_comparison(cycles: int) -> None:
    print(
        "\nAnalytic (contention-free) backend across every registered "
        "topology:"
    )
    workload = SyntheticWorkload("uniform", RATE)
    table = AsciiTable(["topology", "mean latency (cycles)", "graph"])
    for name in registered_topologies():
        result = run(
            RunSpec(IdealConfig(topology=name), workload, cycles=cycles)
        )
        topology = topology_for(name, MeshGeometry(8, 8))
        table.add_row([name, f"{result.mean_latency:.2f}", str(topology)])
    print(table.render())


def photonics_comparison() -> None:
    print(
        "\nPhotonics path delay, corner to corner (node 0 -> 63) on each "
        "topology:"
    )
    model = RouterLatencyModel("average")
    mesh = MeshGeometry(8, 8)
    table = AsciiTable(["topology", "hops", "path delay (ps)"])
    for name in registered_topologies():
        topology = topology_for(name, mesh)
        delay = model.topology_path_delay_ps(topology, 0, 63)
        table.add_row([name, topology.hop_count(0, 63), f"{delay:.1f}"])
    print(table.render())
    print(
        "\nWrap links collapse the corner-to-corner route, and even with "
        "the folded layout doubling each waveguide the torus path is far "
        "shorter end to end."
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cycles", type=int, default=1500)
    args = parser.parse_args()

    cycle_accurate_comparison(args.cycles)
    analytic_comparison(args.cycles)
    photonics_comparison()


if __name__ == "__main__":
    main()
